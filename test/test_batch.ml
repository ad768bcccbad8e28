(* Parallel batch layer: the pool, the batch front door and the per-context
   word cache.

   The headline property is determinism: [Batch.run] over the same pairs,
   with the same per-pair contexts (comparison-cap budgets, armed faults),
   must produce byte-identical outcomes at [jobs:1] and [jobs:4] — scripts,
   deltas, stats counters, degradation rungs, even the failure logs.  On a
   single-core container the 4-domain run is mostly a scheduling exercise,
   but the property is exactly what makes multi-core runs trustworthy. *)

module Budget = Treediff_util.Budget
module Fault = Treediff_util.Fault
module Exec = Treediff_util.Exec
module Pool = Treediff_util.Pool
module Prng = Treediff_util.Prng
module Stats = Treediff_util.Stats
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Iso = Treediff_tree.Iso
module Diff = Treediff.Diff
module Batch = Treediff.Batch
module Script_io = Treediff_edit.Script_io
module Delta_io = Treediff.Delta_io
module Shard = Treediff_store.Shard
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Treegen = Treediff_workload.Treegen
module Word_compare = Treediff_textdiff.Word_compare

let labels = [| "D"; "P"; "S"; "W" |]

let random_pair rng gen =
  let t1 =
    Treegen.random_labeled rng gen ~max_depth:4 ~max_width:4 ~labels ~vocab:12
  in
  let t2 = Treegen.perturb rng gen t1 in
  (t1, t2)

let random_pairs ~seed n =
  let rng = Prng.create seed in
  Array.init n (fun _ ->
      let gen = Tree.gen () in
      random_pair rng gen)

(* ------------------------------------------------------------------- pool *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  Alcotest.(check int) "jobs" 4 (Pool.jobs p);
  let r = Pool.map p 257 (fun i -> i * i) in
  Alcotest.(check int) "length" 257 (Array.length r);
  Array.iteri
    (fun i v -> if v <> i * i then Alcotest.failf "slot %d: %d" i v)
    r;
  (* the pool is reusable across runs *)
  let r2 = Pool.map p 3 (fun i -> -i) in
  Alcotest.(check (list int)) "second run" [ 0; -1; -2 ] (Array.to_list r2)

let test_pool_jobs_one_inline () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  Alcotest.(check int) "jobs" 1 (Pool.jobs p);
  let r = Pool.map p 10 (fun i -> i + 1) in
  Alcotest.(check int) "last" 10 r.(9)

let test_pool_exception () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  (try
     Pool.run p 64 (fun i -> if i = 13 then failwith "boom13");
     Alcotest.fail "exception should propagate out of run"
   with Failure m -> Alcotest.(check string) "message" "boom13" m);
  (* a failed run leaves the pool usable *)
  let r = Pool.map p 8 string_of_int in
  Alcotest.(check string) "recovered" "7" r.(7)

let test_pool_not_reentrant () =
  Pool.with_pool ~jobs:2 @@ fun p ->
  try
    (* an inner run of a single item is allowed (it inlines); an inner run
       that would need the pool is not *)
    Pool.run p 2 (fun _ ->
        Pool.run p 1 (fun _ -> ());
        Pool.run p 2 (fun _ -> ()));
    Alcotest.fail "nested run should be rejected"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------ word cache *)

let test_word_cache () =
  (try
     ignore (Word_compare.Cache.create ~cap:0 ());
     Alcotest.fail "cap 0 should be rejected"
   with Invalid_argument _ -> ());
  let c = Word_compare.Cache.create ~cap:8 () in
  Alcotest.(check int) "cap recorded" 8 (Word_compare.Cache.cap c);
  let d = Word_compare.distance_with c "the quick fox" "the slow fox" in
  Alcotest.(check bool) "one word of three changed" true (d > 0.0 && d < 1.0);
  (* the entry cap bounds the table: hammering distinct words must not grow
     the cache past cap + the words of the flushing call *)
  for i = 0 to 99 do
    ignore
      (Word_compare.distance_with c
         (Printf.sprintf "w%d x%d y%d" i i i)
         (Printf.sprintf "w%d x%d z%d" i i i))
  done;
  Alcotest.(check bool) "bounded" true (Word_compare.Cache.size c <= 8 + 6);
  Word_compare.Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Word_compare.Cache.size c);
  (* cached and fresh interning agree *)
  let fresh = Word_compare.Cache.create () in
  let a = "alpha beta gamma delta" and b = "alpha gamma beta delta" in
  Alcotest.(check (float 1e-9)) "cache-independent distance"
    (Word_compare.distance_with fresh a b)
    (Word_compare.distance_with c a b);
  Alcotest.(check (float 1e-9)) "default (domain cache) agrees"
    (Word_compare.distance_with fresh a b)
    (Word_compare.distance a b)

let test_word_cache_exec () =
  let exec = Exec.create () in
  let c1 = Word_compare.exec_cache exec in
  let c2 = Word_compare.exec_cache exec in
  Alcotest.(check bool) "memoized per exec" true (c1 == c2);
  let other = Word_compare.exec_cache (Exec.create ()) in
  Alcotest.(check bool) "distinct execs, distinct caches" true (c1 != other);
  Alcotest.(check (float 1e-9)) "distance_in routes through the exec cache"
    (Word_compare.distance "a b c" "a c")
    (Word_compare.distance_in exec "a b c" "a c")

(* ----------------------------------------------------------------- parity *)

(* Deterministic per-index context recipe: most pairs unrestricted, every
   5th under a tight comparison cap, every 7th with an armed fault (the
   ladder absorbs it), every 11th with a fault armed at every rung so the
   pair fails outright.  Wall-clock deadlines are deliberately absent: they
   are the one knob that is *not* deterministic across schedulings. *)
let recipe i =
  let faults specs = Fault.create ~specs () in
  if i mod 11 = 0 && i > 0 then
    Exec.create
      ~faults:
        (faults [ { Fault.point = "edit_gen.visit"; action = Fault.Raise; at = 1 } ])
      ()
  else if i mod 7 = 0 && i > 0 then
    Exec.create
      ~faults:
        (faults
           [ { Fault.point = "fast_match.chain"; action = Fault.Raise; at = 2 } ])
      ()
  else if i mod 5 = 0 && i > 0 then
    Exec.create ~budget:(Budget.make ~max_comparisons:(20 + (i mod 3)) ()) ()
  else Exec.create ~faults:(faults []) ()

let encode_outcome = function
  | Ok (r : Diff.t) ->
    Printf.sprintf "ok|%s|fixes=%d|lc=%d|pc=%d|nv=%d|%s|%s"
      (match r.Diff.degraded with
      | None -> "full"
      | Some rung -> Diff.rung_name rung)
      r.Diff.postprocess_fixes r.Diff.stats.Stats.leaf_compares
      r.Diff.stats.Stats.partner_checks r.Diff.stats.Stats.node_visits
      (Script_io.to_string r.Diff.script)
      (Delta_io.to_string r.Diff.delta)
  | Error (f : Diff.failure) ->
    Printf.sprintf "err|%s|%s|flat=%d"
      (match f.Diff.cause with
      | Diff.Budget_exhausted e -> "budget:" ^ Budget.reason_name e.Budget.reason
      | Diff.Diagnostics ds -> Printf.sprintf "diag:%d" (List.length ds)
      | Diff.Fault p -> "fault:" ^ p
      | Diff.Exception m -> "exn:" ^ m)
      (String.concat ";"
         (List.map (fun (rung, why) -> rung ^ "=" ^ why) f.Diff.attempts))
      (List.length f.Diff.flat)

let test_batch_parity () =
  let pairs = random_pairs ~seed:4242 200 in
  let seq = Batch.run ~execs:recipe ~jobs:1 pairs in
  let par = Batch.run ~execs:recipe ~jobs:4 pairs in
  Alcotest.(check int) "lengths" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i s ->
      let a = encode_outcome s and b = encode_outcome par.(i) in
      if not (String.equal a b) then
        Alcotest.failf "pair %d diverged:\n  jobs:1 %s\n  jobs:4 %s" i a b)
    seq;
  (* the recipe exercises all three outcome classes *)
  Alcotest.(check bool) "some pairs failed" true (Batch.failed_count seq > 0);
  Alcotest.(check bool) "some pairs degraded" true (Batch.degraded_count seq > 0);
  Alcotest.(check bool) "most pairs clean" true
    (Batch.failed_count seq + Batch.degraded_count seq < Array.length seq / 2);
  Alcotest.(check bool) "stats accumulated" true
    (Stats.total (Batch.total_stats seq) > 0)

(* Same parity property with the similarity prefilter engaged on every
   chain longer than 2: signature memos live in per-pair Exec typed slots
   and all LSH tie-breaks are positional, so the prefilter must not
   introduce any jobs-count dependence. *)
let test_batch_parity_with_prefilter () =
  let pairs = random_pairs ~seed:1371 200 in
  let config =
    {
      Treediff.Config.default with
      Treediff.Config.sim_threshold = Some 2;
      sim_top_k = 4;
    }
  in
  let seq = Batch.run ~config ~execs:recipe ~jobs:1 pairs in
  let par = Batch.run ~config ~execs:recipe ~jobs:4 pairs in
  Alcotest.(check int) "lengths" (Array.length seq) (Array.length par);
  Array.iteri
    (fun i s ->
      let a = encode_outcome s and b = encode_outcome par.(i) in
      if not (String.equal a b) then
        Alcotest.failf "pair %d diverged:\n  jobs:1 %s\n  jobs:4 %s" i a b)
    seq

let test_batch_crash_isolation () =
  let pairs = random_pairs ~seed:97 12 in
  let crash = 5 in
  let execs i =
    if i = crash then
      Exec.create
        ~faults:
          (Fault.create
             ~specs:
               [ { Fault.point = "edit_gen.visit"; action = Fault.Raise; at = 1 } ]
             ())
        ()
    else Exec.create ~faults:(Fault.create ~specs:[] ()) ()
  in
  let out = Batch.run ~execs ~jobs:4 pairs in
  Array.iteri
    (fun i o ->
      match o with
      | Error f when i = crash ->
        (match f.Diff.cause with
        | Diff.Fault p ->
          Alcotest.(check string) "failing point" "edit_gen.visit" p
        | _ -> Alcotest.fail "expected a fault cause");
        Alcotest.(check bool) "flat fallback present" true (f.Diff.flat <> [])
      | Error _ -> Alcotest.failf "pair %d infected by pair %d's crash" i crash
      | Ok r ->
        if i = crash then Alcotest.fail "crashing pair should not succeed";
        let t1, t2 = pairs.(i) in
        let replayed = Diff.apply r t1 in
        if not (Iso.equal replayed t2) then
          Alcotest.failf "pair %d: script does not reproduce the new tree" i)
    out

(* ------------------------------------------------------ store batch replay *)

let lineage ~seed n =
  let g = Prng.create seed in
  let gen = Tree.gen () in
  let first = Docgen.generate g gen Docgen.small in
  let rec grow acc doc k =
    if k = 0 then List.rev acc
    else
      let doc', _ = Mutate.mutate g gen doc ~actions:5 in
      grow (doc' :: acc) doc' (k - 1)
  in
  grow [ first ] first (n - 1)

let ok_exn what = function
  | Ok v -> v
  | Error msg -> Alcotest.fail (what ^ ": " ^ msg)

(* Many versions of several documents replayed from pool domains, each task
   in its own context, through one archive handle: the trees equal a
   sequential replay's. *)
let test_store_parallel_replay () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "treediff_batch_test_%d_replay" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  let store = ok_exn "init" (Shard.init ~interval:4 ~shards:2 dir) in
  let docs = List.init 4 (fun i -> (Printf.sprintf "d%d" i, lineage ~seed:(41 + i) 10)) in
  List.iter
    (fun (doc, line) ->
      List.iter (fun tree -> ignore (ok_exn "commit" (Shard.commit store ~doc tree))) line)
    docs;
  let tasks =
    Array.of_list (List.concat_map (fun (doc, _) -> List.init 10 (fun v -> (doc, v))) docs)
  in
  let store = ok_exn "reopen" (Shard.open_ dir) in
  let all =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool (Array.length tasks) (fun i ->
            let doc, v = tasks.(i) in
            Shard.materialize ~verify:true ~exec:(Exec.create ()) store ~doc v))
  in
  Array.iteri
    (fun i r ->
      let doc, v = tasks.(i) in
      let t = ok_exn (Printf.sprintf "parallel %s v%d" doc v) r in
      let s = ok_exn "materialize" (Shard.materialize store ~doc v) in
      if not (Iso.equal t s) then
        Alcotest.failf "%s v%d: parallel and sequential replay disagree" doc v)
    all

(* ------------------------------------------------------------------ suite *)

let () =
  Alcotest.run "batch"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "jobs:1 runs inline" `Quick test_pool_jobs_one_inline;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_exception;
          Alcotest.test_case "not re-entrant" `Quick test_pool_not_reentrant;
        ] );
      ( "word-cache",
        [
          Alcotest.test_case "cap and clear" `Quick test_word_cache;
          Alcotest.test_case "per-exec cache" `Quick test_word_cache_exec;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs:4 byte-identical to jobs:1" `Quick
            test_batch_parity;
          Alcotest.test_case "jobs parity with the sim prefilter on" `Quick
            test_batch_parity_with_prefilter;
          Alcotest.test_case "crash in one pair is isolated" `Quick
            test_batch_crash_isolation;
          Alcotest.test_case "store parallel replay parity" `Quick
            test_store_parallel_replay;
        ] );
    ]
