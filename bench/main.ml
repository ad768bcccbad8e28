(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8 and Appendix A), plus the complexity-claim experiments of
   §2/§5.  Run with no arguments for all experiment tables; name experiments
   to run a subset; add --bechamel for wall-clock micro-benchmarks (one
   Bechamel test per table/figure). *)

module E = Treediff_experiments

let experiments =
  [
    ("fig13a", "Figure 13(a): weighted vs unweighted edit distance",
     fun () -> ignore (E.Fig13a.run ()));
    ("fig13b", "Figure 13(b): FastMatch comparisons vs analytic bound",
     fun () -> ignore (E.Fig13b.run ()));
    ("table1", "Table 1: mismatched-paragraph bound vs threshold t",
     fun () -> ignore (E.Table1.run ()));
    ("sample", "Appendix A: LaDiff sample run (Figures 14-16, Table 2)",
     fun () -> ignore (E.Sample_run.run ()));
    ("scaling", "Scaling: ours vs Zhang-Shasha",
     fun () -> ignore (E.Scaling.run ()));
    ("quality", "Delta quality: ours vs flat diff vs Zhang-Shasha",
     fun () -> ignore (E.Quality.run ()));
    ("optimality", "Optimality: matcher agreement, ablation, C.2 bound",
     fun () -> ignore (E.Optimality.run ()));
    ("ablation", "Ablations: match threshold t sweep, A(k) scan window sweep",
     fun () -> ignore (E.Ablation.run ()));
  ]

(* ------------------------------------------------- Bechamel micro-benches *)

let bechamel_tests () =
  let open Bechamel in
  (* Shared inputs, built once, outside the timed region. *)
  let g = Treediff_util.Prng.create 4242 in
  let gen = Treediff_tree.Tree.gen () in
  let doc = Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.medium in
  let doc2, _ = Treediff_workload.Mutate.mutate g gen doc ~actions:15 in
  let small = Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small in
  let small2, _ = Treediff_workload.Mutate.mutate g gen small ~actions:8 in
  let config = Treediff_doc.Doc_tree.config in
  let criteria = Treediff_doc.Doc_tree.criteria in
  let old_src = E.Sample_run.old_doc and new_src = E.Sample_run.new_doc in
  let latex1 = Treediff_doc.Latex_parser.print doc
  and latex2 = Treediff_doc.Latex_parser.print doc2 in
  [
    Test.make ~name:"fig13a/diff-medium-pair"
      (Staged.stage (fun () -> ignore (Treediff.Diff.diff ~config doc doc2)));
    Test.make ~name:"fig13b/fastmatch-only"
      (Staged.stage (fun () ->
           let ctx = Treediff_matching.Criteria.ctx criteria ~t1:doc ~t2:doc2 in
           ignore (Treediff_matching.Fast_match.run ctx)));
    Test.make ~name:"table1/mc3-violation-scan"
      (Staged.stage (fun () ->
           let ctx = Treediff_matching.Criteria.ctx criteria ~t1:small ~t2:small2 in
           ignore (Treediff_matching.Criteria.mc3_violations ctx)));
    Test.make ~name:"sample/ladiff-end-to-end"
      (Staged.stage (fun () -> ignore (Treediff_doc.Ladiff.run ~old_src ~new_src ())));
    Test.make ~name:"scaling/ours-small-pair"
      (Staged.stage (fun () -> ignore (Treediff.Diff.diff ~config small small2)));
    Test.make ~name:"scaling/zhang-shasha-small-pair"
      (Staged.stage (fun () -> ignore (Treediff_zs.Zhang_shasha.mapping small small2)));
    Test.make ~name:"quality/flat-line-diff"
      (Staged.stage (fun () -> ignore (Treediff_textdiff.Line_diff.diff latex1 latex2)));
    Test.make ~name:"quality/word-compare"
      (Staged.stage (fun () ->
           ignore
             (Treediff_textdiff.Word_compare.distance
                "the quick brown fox jumps over the lazy dog near the river bank"
                "the quick brown fox leaps over a lazy dog near the river")));
    Test.make ~name:"ablation/levenshtein"
      (Staged.stage (fun () ->
           ignore (Treediff_textdiff.Levenshtein.normalized "configuration" "confabulation")));
    Test.make ~name:"ablation/lcs-only-window-0"
      (Staged.stage (fun () ->
           let config = { config with Treediff.Config.scan_window = Some 0 } in
           ignore (Treediff.Diff.diff ~config small small2)));
  ]

(* Provenance for emitted JSON: the commit the numbers were measured at and
   the host's core count, so BENCH_*.json files stay traceable after the
   fact (a speedup measured on one core is not a regression on eight). *)
let git_rev () =
  match
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  with
  | "" -> "unknown"
  | rev -> rev
  | exception _ -> "unknown"

let json_header oc label =
  Printf.fprintf oc
    "{\n  \"label\": %S,\n  \"git\": %S,\n  \"cores\": %d,\n  \"unit\": \"ns/run\",\n"
    label (git_rev ())
    (Domain.recommended_domain_count ())

(* Per-benchmark ns/run estimates as a machine-readable trajectory file.
   Schema: {"label": <basename>, "git": <short rev>, "cores": <int>,
            "unit": "ns/run",
            "results": [{"name": ..., "ns_per_run": ...}, ...]}. *)
let write_json ~out path rows =
  let oc = open_out path in
  let label = Filename.remove_extension (Filename.basename path) in
  json_header oc label;
  Printf.fprintf oc "  \"results\": [";
  List.iteri
    (fun i (name, est) ->
      Printf.fprintf oc "%s\n    { \"name\": %S, \"ns_per_run\": %s }"
        (if i > 0 then "," else "")
        name
        (match est with Some e -> Printf.sprintf "%.2f" e | None -> "null"))
    rows;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  Printf.fprintf out "wrote %s\n" path

let run_bechamel ?json ~out () =
  let open Bechamel in
  Printf.fprintf out "== Bechamel wall-clock benchmarks ==\n";
  let tests = Test.make_grouped ~name:"treediff" (bechamel_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  let estimates =
    List.map
      (fun (name, r) ->
        match Analyze.OLS.estimates r with
        | Some (est :: _) -> (name, Some est)
        | Some [] | None -> (name, None))
      rows
  in
  let table = Treediff_util.Table.create ~headers:[ "benchmark"; "time/run" ] in
  List.iter
    (fun (name, est) ->
      let cell =
        match est with
        | Some est ->
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        | None -> "n/a"
      in
      Treediff_util.Table.add_row table [ name; cell ])
    estimates;
  Treediff_util.Table.print_to out table;
  Printf.fprintf out "\n%!";
  match json with None -> () | Some path -> write_json ~out path estimates

(* ------------------------------------------------------- store benchmark *)

module Shard = Treediff_store.Shard

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* Commit latency, materialization latency vs chain depth, and bytes per
   version — the same lineage committed to two 1-shard archives: one under
   the default checkpoint policy and one with checkpoints disabled, so the
   depth sweep isolates what checkpoints buy. *)
let run_store ?json ~out () =
  Printf.fprintf out "== Store: delta chain vs checkpoint policy ==\n";
  let commits = 50 in
  let g = Treediff_util.Prng.create 2026 in
  let gen = Treediff_tree.Tree.gen () in
  let docs =
    let first =
      Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.medium
    in
    let rec grow acc doc k =
      if k = 0 then List.rev acc
      else
        let doc', _ = Treediff_workload.Mutate.mutate g gen doc ~actions:6 in
        grow (doc' :: acc) doc' (k - 1)
    in
    grow [ first ] first commits
  in
  let tmp suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "treediff_bench_%d_%s" (Unix.getpid ()) suffix)
  in
  let ok = function
    | Ok v -> v
    | Error msg -> failwith ("bench store: " ^ msg)
  in
  let time_ns f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let doc = "doc" in
  let ckpt = ok (Shard.init ~shards:1 (tmp "ckpt")) in
  let linear = ok (Shard.init ~interval:0 ~max_replay_ops:0 ~shards:1 (tmp "linear")) in
  let commit_ns =
    List.map
      (fun tree ->
        ignore (ok (Shard.commit linear ~doc tree));
        let _, ns = time_ns (fun () -> ok (Shard.commit ckpt ~doc tree)) in
        ns)
      docs
  in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let reps = 20 in
  let mat store v =
    let _, first = time_ns (fun () -> ok (Shard.materialize store ~doc v)) in
    let rec go k acc =
      if k = 0 then acc
      else
        let _, ns = time_ns (fun () -> ok (Shard.materialize store ~doc v)) in
        go (k - 1) (ns :: acc)
    in
    mean (go (reps - 1) [ first ])
  in
  let depths = [ 1; 5; 10; 25; 50 ] in
  let sweep = List.map (fun v -> (v, mat ckpt v, mat linear v)) depths in
  let archive_bytes store =
    let s = Shard.stats store in
    Array.fold_left ( + ) s.Shard.stat_manifest_bytes s.Shard.stat_shard_bytes
  in
  let snapshot_bytes =
    List.fold_left
      (fun acc v ->
        acc
        + String.length (Treediff_tree.Codec.encode (ok (Shard.materialize ckpt ~doc v))))
      0
      (List.init (commits + 1) Fun.id)
  in
  let per v = float_of_int v /. float_of_int (commits + 1) in
  Printf.fprintf out "commit latency: %.2f us mean over %d commits\n"
    (mean commit_ns /. 1e3) commits;
  Printf.fprintf out
    "archive bytes/version: %.0f checkpointed, %.0f checkpoint-free, %.0f as \
     full snapshots\n"
    (per (archive_bytes ckpt))
    (per (archive_bytes linear))
    (per snapshot_bytes);
  let table =
    Treediff_util.Table.create
      ~headers:[ "depth"; "checkpointed"; "checkpoint-free"; "speedup" ]
  in
  List.iter
    (fun (v, c, l) ->
      Treediff_util.Table.add_row table
        [
          string_of_int v;
          Printf.sprintf "%.2f us" (c /. 1e3);
          Printf.sprintf "%.2f us" (l /. 1e3);
          Printf.sprintf "%.1fx" (l /. c);
        ])
    sweep;
  Treediff_util.Table.print_to out table;
  Printf.fprintf out "\n%!";
  (match json with
  | None -> ()
  | Some path ->
    let rows =
      ("store/commit-mean", Some (mean commit_ns))
      :: List.concat_map
           (fun (v, c, l) ->
             [
               (Printf.sprintf "store/materialize-depth-%d-checkpointed" v, Some c);
               (Printf.sprintf "store/materialize-depth-%d-linear" v, Some l);
             ])
           sweep
    in
    write_json ~out path rows);
  List.iter (fun store -> rm_rf (Shard.dir store)) [ ckpt; linear ]

(* ------------------------------------------------ sharded corpus at scale *)

(* The corpus store at scale: a synthetic many-document corpus bulk-loaded
   through the write-ahead manifest, then measured for commit throughput,
   bytes per version, cold-cache materialization tail latency and ingest
   scaling across --jobs (with the byte-identity check that makes the jobs
   knob safe to turn).  Full mode is the committed BENCH_store_scale.json
   trajectory: 10k documents x 100 versions = 1M versions; --smoke drops to
   100 documents for the CI gate.  Speedup across jobs tracks the host's
   core count — on a 1-core container every level measures the same work
   plus domain overhead, so ~1.0x is the honest expectation there. *)
let run_store_scale ?json ~out ~jobs ~smoke () =
  let docs, versions = if smoke then (100, 100) else (10_000, 100) in
  let shards = if smoke then 8 else 64 in
  let cores = Domain.recommended_domain_count () in
  Printf.fprintf out
    "== Sharded store at scale: %d docs x %d versions, %d shards (%d core%s) \
     ==\n"
    docs versions shards cores
    (if cores = 1 then "" else "s");
  let ok = function
    | Ok v -> v
    | Error msg -> failwith ("bench store-scale: " ^ msg)
  in
  let tmp_root suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "treediff_scale_%d_%s" (Unix.getpid ()) suffix)
  in
  (* tiny trees whose consecutive versions differ in three leaf texts:
     update-only deltas, so the measurement weighs the store machinery
     (manifest, shard appends, checkpoint policy), not diff complexity *)
  let gen_tree d v =
    let gen = Treediff_tree.Tree.gen () in
    Treediff_tree.Codec.parse gen
      (Printf.sprintf
         {|(D (P (S "alpha %d") (S "beta %d rev %d")) (P (S "gamma %d") (S "delta rev %d")) (P (S "epsilon %d")))|}
         d d v d v (d + v))
  in
  let sources n_docs n_versions =
    List.init n_docs (fun d ->
        {
          Shard.name = Printf.sprintf "doc-%05d" d;
          count = n_versions;
          load = (fun v -> Ok (gen_tree d v));
        })
  in
  (* ---- the main ingest: one pass, commit throughput + bytes/version *)
  let main_jobs = Option.value jobs ~default:1 in
  let dir = tmp_root "corpus" in
  rm_rf dir;
  let corpus = ok (Shard.init ~shards dir) in
  let t0 = Unix.gettimeofday () in
  let last_tick = ref t0 in
  let report =
    ok
      (Shard.ingest ~jobs:main_jobs ~chunk_docs:32
         ~on_chunk:(fun ~done_ ~total ->
           let now = Unix.gettimeofday () in
           if now -. !last_tick > 10.0 || done_ = total then begin
             last_tick := now;
             Printf.fprintf out "  ingest chunk %d/%d (%.0f s)\n%!" done_ total
               (now -. t0)
           end)
         corpus (sources docs versions))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let appended = max 1 report.Shard.versions_appended in
  let commits_per_s = float_of_int appended /. wall in
  let commit_mean_ns = wall *. 1e9 /. float_of_int appended in
  if report.Shard.docs_failed <> [] then
    failwith
      (Printf.sprintf "bench store-scale: %d documents failed to ingest"
         (List.length report.Shard.docs_failed));
  let st = Shard.stats corpus in
  let total_bytes =
    Array.fold_left ( + ) 0 st.Shard.stat_shard_bytes
    + st.Shard.stat_manifest_bytes
  in
  let bytes_per_version =
    float_of_int total_bytes /. float_of_int (max 1 st.Shard.stat_versions)
  in
  Printf.fprintf out
    "ingest: %d versions in %.1f s — %.0f commits/s, %.1f us/commit (jobs %d)\n"
    appended wall commits_per_s (commit_mean_ns /. 1e3) main_jobs;
  Printf.fprintf out "on disk: %.1f bytes/version (%d docs, %d versions)\n"
    bytes_per_version st.Shard.stat_docs st.Shard.stat_versions;
  (* ---- cold-cache materialize p99: a fresh handle has no chains loaded,
     so each first-touch document load scans its shard file *)
  let cold = ok (Shard.open_ dir) in
  let prng = Treediff_util.Prng.create 7 in
  let samples = min docs 256 in
  let lat =
    Array.init samples (fun _ ->
        let doc = Printf.sprintf "doc-%05d" (Treediff_util.Prng.int prng docs) in
        let t0 = Unix.gettimeofday () in
        ignore (ok (Shard.materialize cold ~doc (versions - 1)));
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  Array.sort compare lat;
  let pct p = lat.(min (samples - 1) (int_of_float (p *. float_of_int samples))) in
  let p50 = pct 0.50 and p99 = pct 0.99 in
  Printf.fprintf out
    "cold-cache materialize (head version, %d random docs): p50 %.2f ms, p99 \
     %.2f ms\n"
    samples (p50 /. 1e6) (p99 /. 1e6);
  (* ---- ingest scaling vs --jobs on a subset corpus, with the byte-identity
     check: the corpus must come out identical whatever the job count *)
  let sub_docs = max 16 (docs / 20) and sub_versions = 20 in
  let corpus_digest dir =
    let entries = Sys.readdir dir in
    Array.sort compare entries;
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            (Array.to_list
               (Array.map
                  (fun f ->
                    f ^ ":" ^ Digest.to_hex (Digest.file (Filename.concat dir f)))
                  entries))))
  in
  let scaling =
    List.map
      (fun j ->
        let d = tmp_root (Printf.sprintf "jobs%d" j) in
        rm_rf d;
        let c = ok (Shard.init ~shards:8 d) in
        let t0 = Unix.gettimeofday () in
        let r = ok (Shard.ingest ~jobs:j ~chunk_docs:16 c (sources sub_docs sub_versions)) in
        let wall = Unix.gettimeofday () -. t0 in
        (j, d, wall *. 1e9 /. float_of_int (max 1 r.Shard.versions_appended)))
      [ 1; 2; 4 ]
  in
  let digests = List.map (fun (_, d, _) -> corpus_digest d) scaling in
  let identical =
    match digests with [] -> true | h :: t -> List.for_all (( = ) h) t
  in
  let table =
    Treediff_util.Table.create ~headers:[ "jobs"; "ns/version"; "speedup" ]
  in
  let base_ns = match scaling with (_, _, ns) :: _ -> ns | [] -> 1.0 in
  List.iter
    (fun (j, _, ns) ->
      Treediff_util.Table.add_row table
        [
          string_of_int j;
          Printf.sprintf "%.0f" ns;
          Printf.sprintf "%.2fx" (base_ns /. ns);
        ])
    scaling;
  Treediff_util.Table.print_to out table;
  Printf.fprintf out
    "corpus bytes across jobs 1/2/4: %s (%d docs x %d versions subset)\n%!"
    (if identical then "identical" else "DIVERGED")
    sub_docs sub_versions;
  if not identical then
    failwith "bench store-scale: corpus bytes diverged across job counts";
  (match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    json_header oc (Filename.remove_extension (Filename.basename path));
    Printf.fprintf oc
      "  \"corpus\": { \"docs\": %d, \"versions\": %d, \"shards\": %d, \
       \"total_versions\": %d },\n"
      docs versions shards st.Shard.stat_versions;
    Printf.fprintf oc "  \"jobs\": %d,\n" main_jobs;
    Printf.fprintf oc "  \"commits_per_s\": %.2f,\n" commits_per_s;
    Printf.fprintf oc "  \"bytes_per_version\": %.2f,\n" bytes_per_version;
    Printf.fprintf oc "  \"ingest_jobs_identical\": %b,\n" identical;
    Printf.fprintf oc "  \"results\": [";
    let rows =
      [
        ("store_scale/commit-mean", commit_mean_ns);
        ("store_scale/materialize-cold-p50", p50);
        ("store_scale/materialize-cold-p99", p99);
      ]
      @ List.map
          (fun (j, _, ns) -> (Printf.sprintf "store_scale/ingest-jobs-%d" j, ns))
          scaling
    in
    List.iteri
      (fun i (name, v) ->
        Printf.fprintf oc "%s\n    { \"name\": %S, \"ns_per_run\": %.2f }"
          (if i > 0 then "," else "")
          name v)
      rows;
    Printf.fprintf oc "\n  ]\n}\n";
    close_out oc;
    Printf.fprintf out "wrote %s\n" path);
  rm_rf dir;
  List.iter (fun (_, d, _) -> rm_rf d) scaling

(* ------------------------------------------------- parallel batch diffing *)

(* Wall-clock of [Batch.run] over the fig13 corpora at several domain
   counts, with a byte-identity check across them.  Speedup tracks the
   machine: on a single-core container every level measures the same work
   plus domain overhead, so ~1.0x (or slightly below) is the honest
   expectation there, while multi-core hosts see the fan-out. *)
let run_batch_bench ?json ~out ~jobs () =
  let cores = Domain.recommended_domain_count () in
  Printf.fprintf out "== Parallel batch diffing (%d core%s available) ==\n"
    cores (if cores = 1 then "" else "s");
  let pairs =
    Treediff_workload.Corpus.standard ()
    |> List.concat_map Treediff_workload.Corpus.consecutive_pairs
    |> Array.of_list
  in
  Printf.fprintf out "corpus: %d consecutive version pairs\n" (Array.length pairs);
  let levels =
    List.sort_uniq compare (match jobs with None -> [ 1; 2; 4 ] | Some j -> [ 1; j ])
  in
  let fingerprint outcomes =
    Array.to_list outcomes
    |> List.map (function
         | Ok (r : Treediff.Diff.t) ->
           (match r.Treediff.Diff.degraded with
           | None -> "full|"
           | Some rung -> Treediff.Diff.rung_name rung ^ "|")
           ^ Treediff_edit.Script_io.to_string r.Treediff.Diff.script
         | Error _ -> "error")
    |> String.concat "\x00"
  in
  let reps = 3 in
  let time_run jobs =
    Treediff_util.Pool.with_pool ~jobs @@ fun pool ->
    let best = ref infinity in
    let fp = ref "" in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let outcomes = Treediff.Batch.run ~pool pairs in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      if ms < !best then best := ms;
      fp := fingerprint outcomes
    done;
    (!best, !fp)
  in
  let runs = List.map (fun j -> (j, time_run j)) levels in
  let base_ms, base_fp =
    match runs with (_, r) :: _ -> r | [] -> assert false
  in
  let table =
    Treediff_util.Table.create ~headers:[ "jobs"; "wall (best of 3)"; "speedup"; "identical" ]
  in
  List.iter
    (fun (j, (ms, fp)) ->
      Treediff_util.Table.add_row table
        [
          string_of_int j;
          Printf.sprintf "%.1f ms" ms;
          Printf.sprintf "%.2fx" (base_ms /. ms);
          (if String.equal fp base_fp then "yes" else "NO");
        ])
    runs;
  Treediff_util.Table.print_to out table;
  List.iter
    (fun (j, (_, fp)) ->
      if not (String.equal fp base_fp) then
        failwith
          (Printf.sprintf "bench batch: jobs:%d output differs from jobs:1" j))
    runs;
  Printf.fprintf out "\n%!";
  match json with
  | None -> ()
  | Some path ->
    let rows =
      ("batch/cores", Some (float_of_int cores))
      :: ("batch/pairs", Some (float_of_int (Array.length pairs)))
      :: List.map
           (fun (j, (ms, _)) ->
             (Printf.sprintf "batch/jobs-%d-wall" j, Some (ms *. 1e6)))
           runs
    in
    write_json ~out path rows

(* ------------------------------------------------------ similarity layer *)

module Criteria = Treediff_matching.Criteria
module Fast_match = Treediff_matching.Fast_match
module Sim_index = Treediff_matching.Sim_index

(* Exact FastMatch vs the LSH prefilter vs the greedy approx matcher on the
   adversarial long-chain corpus (mutually similar, pairwise-distinct
   sentences, shuffled: the chain LCS degenerates and the straggler scan
   probes ~half the chain per node), plus matching quality — precision and
   recall against exact FastMatch matchings — over every corpus. *)
let run_sim ?json ~out () =
  Printf.fprintf out "== Similarity layer: prefilter vs exact FastMatch ==\n";
  let criteria =
    Criteria.make ~compare:Treediff_textdiff.Word_compare.distance ()
  in
  let time_best ?(reps = 3) f =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let x = f () in
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      if ns < !best then best := ns;
      result := Some x
    done;
    match !result with Some x -> (x, !best) | None -> assert false
  in
  let sim = (64, 8) in
  let sizes = [ 100; 200; 400; 800 ] in
  let sweep =
    List.map
      (fun n ->
        let gen = Treediff_tree.Tree.gen () in
        let t1, t2 = E.Sim_quality.long_chain_pair ~n gen in
        let exact, exact_ns =
          time_best (fun () -> Fast_match.run (Criteria.ctx criteria ~t1 ~t2))
        in
        let pre, pre_ns =
          time_best (fun () ->
              Fast_match.run ~sim (Criteria.ctx criteria ~t1 ~t2))
        in
        let _, approx_ns = time_best (fun () -> Sim_index.greedy ~t1 ~t2 ()) in
        (n, exact_ns, pre_ns, approx_ns, E.Sim_quality.score ~exact pre))
      sizes
  in
  let table =
    Treediff_util.Table.create
      ~headers:
        [
          "chain"; "exact"; "prefilter"; "speedup"; "approx"; "precision";
          "recall";
        ]
  in
  List.iter
    (fun (n, exact_ns, pre_ns, approx_ns, s) ->
      Treediff_util.Table.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.1f ms" (exact_ns /. 1e6);
          Printf.sprintf "%.1f ms" (pre_ns /. 1e6);
          Printf.sprintf "%.1fx" (exact_ns /. pre_ns);
          Printf.sprintf "%.1f ms" (approx_ns /. 1e6);
          Printf.sprintf "%.3f" (E.Sim_quality.precision s);
          Printf.sprintf "%.3f" (E.Sim_quality.recall s);
        ])
    sweep;
  Treediff_util.Table.print_to out table;
  Printf.fprintf out "\n%!";
  let quality = E.Sim_quality.compute () in
  let qtable =
    Treediff_util.Table.create
      ~headers:
        [
          "corpus"; "tree pairs"; "exact pairs"; "prefilter P"; "prefilter R";
          "approx P"; "approx R";
        ]
  in
  List.iter
    (fun (r : E.Sim_quality.row) ->
      Treediff_util.Table.add_row qtable
        [
          r.E.Sim_quality.corpus;
          string_of_int r.E.Sim_quality.pairs;
          string_of_int r.E.Sim_quality.prefilter.E.Sim_quality.exact;
          Printf.sprintf "%.3f" (E.Sim_quality.precision r.E.Sim_quality.prefilter);
          Printf.sprintf "%.3f" (E.Sim_quality.recall r.E.Sim_quality.prefilter);
          Printf.sprintf "%.3f" (E.Sim_quality.precision r.E.Sim_quality.approx);
          Printf.sprintf "%.3f" (E.Sim_quality.recall r.E.Sim_quality.approx);
        ])
    quality.E.Sim_quality.rows;
  Treediff_util.Table.print_to out qtable;
  Printf.fprintf out "\n%!";
  match json with
  | None -> ()
  | Some path ->
    let n, exact_ns, pre_ns, _, s =
      List.nth sweep (List.length sweep - 1)
    in
    let oc = open_out path in
    json_header oc (Filename.remove_extension (Filename.basename path));
    Printf.fprintf oc
      "  \"summary\": { \"corpus\": \"long-chain-%d\", \"speedup\": %.2f, \
       \"precision\": %.4f, \"recall\": %.4f },\n"
      n (exact_ns /. pre_ns)
      (E.Sim_quality.precision s)
      (E.Sim_quality.recall s);
    Printf.fprintf oc "  \"quality\": [";
    List.iteri
      (fun i (r : E.Sim_quality.row) ->
        Printf.fprintf oc
          "%s\n    { \"corpus\": %S, \"prefilter_precision\": %.4f, \
           \"prefilter_recall\": %.4f, \"approx_precision\": %.4f, \
           \"approx_recall\": %.4f }"
          (if i > 0 then "," else "")
          r.E.Sim_quality.corpus
          (E.Sim_quality.precision r.E.Sim_quality.prefilter)
          (E.Sim_quality.recall r.E.Sim_quality.prefilter)
          (E.Sim_quality.precision r.E.Sim_quality.approx)
          (E.Sim_quality.recall r.E.Sim_quality.approx))
      quality.E.Sim_quality.rows;
    Printf.fprintf oc "\n  ],\n  \"results\": [";
    let rows =
      List.concat_map
        (fun (n, exact_ns, pre_ns, approx_ns, _) ->
          [
            (Printf.sprintf "sim/long-chain-%d/exact" n, Some exact_ns);
            (Printf.sprintf "sim/long-chain-%d/prefilter" n, Some pre_ns);
            (Printf.sprintf "sim/long-chain-%d/approx" n, Some approx_ns);
          ])
        sweep
    in
    List.iteri
      (fun i (name, est) ->
        Printf.fprintf oc "%s\n    { \"name\": %S, \"ns_per_run\": %s }"
          (if i > 0 then "," else "")
          name
          (match est with Some e -> Printf.sprintf "%.2f" e | None -> "null"))
      rows;
    Printf.fprintf oc "\n  ]\n}\n";
    close_out oc;
    Printf.fprintf out "wrote %s\n" path

(* ------------------------------------------------ degradation frequency *)

(* How often does a wall-clock budget push the pipeline off the primary
   algorithm?  Diff a corpus of growing documents under the given deadline
   and tabulate which ladder rung produced each result. *)
let run_budget ~out ms =
  Printf.fprintf out "== Degradation frequency under a %.3g ms budget ==\n" ms;
  let g = Treediff_util.Prng.create 97 in
  let table =
    Treediff_util.Table.create
      ~headers:
        [
          "paragraphs"; "nodes"; "primary"; "windowed"; "keyed"; "approx";
          "rebuild"; "failed";
        ]
  in
  List.iter
    (fun paragraphs ->
      let counts = [| 0; 0; 0; 0; 0; 0 |] in
      let nodes = ref 0 in
      let trials = 10 in
      for _ = 1 to trials do
        let gen = Treediff_tree.Tree.gen () in
        let t1 =
          Treediff_workload.Treegen.random_document g gen ~paragraphs ~vocab:60
        in
        let t2 = Treediff_workload.Treegen.perturb g gen ~ops:(paragraphs / 2) t1 in
        nodes := !nodes + Treediff_tree.Node.size t1;
        let budget = Treediff_util.Budget.make ~deadline_ms:ms () in
        let exec = Treediff_util.Exec.create ~budget () in
        let slot =
          match Treediff.Diff.diff_result ~exec t1 t2 with
          | Ok { Treediff.Diff.degraded = None; _ } -> 0
          | Ok { Treediff.Diff.degraded = Some Treediff.Diff.Windowed; _ } -> 1
          | Ok { Treediff.Diff.degraded = Some Treediff.Diff.Keyed; _ } -> 2
          | Ok { Treediff.Diff.degraded = Some Treediff.Diff.Approx; _ } -> 3
          | Ok { Treediff.Diff.degraded = Some Treediff.Diff.Rebuild; _ } -> 4
          | Error _ -> 5
        in
        counts.(slot) <- counts.(slot) + 1
      done;
      Treediff_util.Table.add_row table
        (string_of_int paragraphs
        :: string_of_int (!nodes / trials)
        :: List.map
             (fun i -> Printf.sprintf "%d/%d" counts.(i) trials)
             [ 0; 1; 2; 3; 4; 5 ]))
    [ 10; 30; 100; 300; 1000 ];
  Treediff_util.Table.print_to out table;
  Printf.fprintf out "\n%!"

(* ----------------------------------------- analyzer and oracle benchmark *)

module Depgraph = Treediff_check.Depgraph
module Oracle = Treediff_check.Oracle

(* Throughput of the TD5xx dependence analyzer (ns per script op for graph
   construction, canonicalization and the full equivalence audit), the
   TD6xx oracle's cost curve against the node budget, and oracle-audited
   minimality rates over the seed corpora — the numbers behind
   EXPERIMENTS.md's minimality table. *)
let run_check_bench ?json ~out () =
  Printf.fprintf out "== Interference analyzer and minimality oracle ==\n";
  let g = Treediff_util.Prng.create 0xc0ffee in
  let config = Treediff.Config.(with_check false default) in
  (* Pipeline-produced (base tree, script) cases; dummy-rooted pairs are
     skipped so scripts address real base-tree nodes. *)
  let cases = ref [] in
  let total_ops = ref 0 in
  let made = ref 0 and tries = ref 0 in
  let n_pairs = 150 in
  while !made < n_pairs && !tries < n_pairs * 4 do
    incr tries;
    let gen = Treediff_tree.Tree.gen () in
    let t1 =
      if !tries mod 2 = 0 then
        Treediff_workload.Treegen.random_labeled g gen ~max_depth:4
          ~max_width:4
          ~labels:[| "D"; "P"; "S"; "W" |]
          ~vocab:8
      else
        Treediff_workload.Treegen.random_document g gen ~paragraphs:5 ~vocab:10
    in
    let t2 = Treediff_workload.Treegen.perturb g gen ~ops:5 t1 in
    let r = Treediff.Diff.diff ~config t1 t2 in
    if r.Treediff.Diff.dummy = None && r.Treediff.Diff.script <> [] then begin
      incr made;
      total_ops := !total_ops + List.length r.Treediff.Diff.script;
      cases := (t1, r.Treediff.Diff.script) :: !cases
    end
  done;
  let cases = !cases in
  let time_ns f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let per_op total_ns = total_ns /. float_of_int (max 1 !total_ops) in
  let reps = 5 in
  let best stage =
    let b = ref infinity in
    for _ = 1 to reps do
      let ns = time_ns (fun () -> List.iter stage cases) in
      if ns < !b then b := ns
    done;
    per_op !b
  in
  let build_ns = best (fun (t, s) -> ignore (Depgraph.build ~tree:t s)) in
  let canon_ns = best (fun (t, s) -> ignore (Depgraph.canonicalize ~tree:t s)) in
  let audit_ns = best (fun (t, s) -> ignore (Depgraph.audit ~tree:t s)) in
  let table =
    Treediff_util.Table.create ~headers:[ "analyzer stage"; "ns/op" ]
  in
  List.iter
    (fun (name, ns) ->
      Treediff_util.Table.add_row table [ name; Printf.sprintf "%.0f" ns ])
    [
      ("depgraph build", build_ns);
      ("canonicalize", canon_ns);
      ("full audit (canonicalize + prove equivalent)", audit_ns);
    ];
  Treediff_util.Table.print_to out table;
  Printf.fprintf out "(%d scripts, %d ops total)\n\n%!" (List.length cases)
    !total_ops;
  (* Oracle cost vs node budget: random tiny pairs per size class, the ub
     from a standalone pipeline diff of the pair. *)
  let budgets = [ 4; 5; 6; 7; 8 ] in
  let curve =
    List.map
      (fun b ->
        let pairs = ref [] in
        let tries = ref 0 in
        while List.length !pairs < 25 && !tries < 600 do
          incr tries;
          let gen = Treediff_tree.Tree.gen () in
          let t1 =
            Treediff_workload.Treegen.random_labeled g gen ~max_depth:3
              ~max_width:3
              ~labels:[| "D"; "P"; "S" |]
              ~vocab:4
          in
          let t2 = Treediff_workload.Treegen.perturb g gen ~ops:2 t1 in
          let sz = Treediff_tree.Node.size in
          if sz t1 <= b && sz t2 <= b && sz t1 >= 2 then begin
            let r = Treediff.Diff.diff ~config t1 t2 in
            if r.Treediff.Diff.dummy = None then
              pairs :=
                (t1, t2, Treediff_edit.Script.unweighted r.Treediff.Diff.measure)
                :: !pairs
          end
        done;
        let pairs = !pairs in
        let proved = ref 0 and unproven = ref 0 in
        let ns =
          time_ns (fun () ->
              List.iter
                (fun (t1, t2, ub) ->
                  match Oracle.search ~max_states:100_000 ~ub t1 t2 with
                  | Oracle.Proved _ -> incr proved
                  | Oracle.Unproven _ -> incr unproven)
                pairs)
        in
        (b, List.length pairs, !proved, !unproven,
         ns /. float_of_int (max 1 (List.length pairs))))
      budgets
  in
  let otable =
    Treediff_util.Table.create
      ~headers:[ "node budget"; "pairs"; "proved"; "unproven"; "time/pair" ]
  in
  List.iter
    (fun (b, n, p, u, ns) ->
      Treediff_util.Table.add_row otable
        [
          string_of_int b; string_of_int n; string_of_int p; string_of_int u;
          (if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else Printf.sprintf "%.1f us" (ns /. 1e3));
        ])
    curve;
  Treediff_util.Table.print_to out otable;
  Printf.fprintf out "\n%!";
  (* Oracle-audited minimality rate on the seed corpora. *)
  let corpora =
    [
      ("docgen-small", Treediff_workload.Docgen.small, 8, 30);
      ("docgen-medium", Treediff_workload.Docgen.medium, 12, 10);
    ]
  in
  let minimality =
    List.map
      (fun (name, profile, actions, pairs) ->
        let acc = ref (0, 0, 0, 0) in
        for _ = 1 to pairs do
          let gen = Treediff_tree.Tree.gen () in
          let doc = Treediff_workload.Docgen.generate g gen profile in
          let doc', _ =
            Treediff_workload.Mutate.mutate g gen doc ~actions
          in
          let r = Treediff.Diff.diff ~config doc doc' in
          let report =
            Treediff.Oracle_audit.run ~matching:r.Treediff.Diff.matching
              ~t1:doc ~t2:doc' ()
          in
          let a, p, n, u = !acc in
          acc :=
            ( a + report.Treediff.Oracle_audit.audited,
              p + report.Treediff.Oracle_audit.proved_minimal,
              n + report.Treediff.Oracle_audit.non_minimal,
              u + report.Treediff.Oracle_audit.unproven )
        done;
        (name, pairs, !acc))
      corpora
  in
  let mtable =
    Treediff_util.Table.create
      ~headers:
        [
          "corpus"; "tree pairs"; "subtrees audited"; "proved minimal";
          "non-minimal"; "unproven"; "minimality rate";
        ]
  in
  List.iter
    (fun (name, pairs, (a, p, n, u)) ->
      Treediff_util.Table.add_row mtable
        [
          name; string_of_int pairs; string_of_int a; string_of_int p;
          string_of_int n; string_of_int u;
          (if a = 0 then "n/a"
           else Printf.sprintf "%.1f%%" (100. *. float_of_int p /. float_of_int a));
        ])
    minimality;
  Treediff_util.Table.print_to out mtable;
  Printf.fprintf out "\n%!";
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    json_header oc (Filename.remove_extension (Filename.basename path));
    Printf.fprintf oc "  \"results\": [";
    let rows =
      [
        ("check/depgraph-build-ns-op", build_ns);
        ("check/canonicalize-ns-op", canon_ns);
        ("check/audit-ns-op", audit_ns);
      ]
      @ List.map
          (fun (b, _, _, _, ns) ->
            (Printf.sprintf "check/oracle-budget-%d-ns-pair" b, ns))
          curve
    in
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "%s\n    { \"name\": %S, \"ns_per_run\": %.2f }"
          (if i > 0 then "," else "")
          name ns)
      rows;
    Printf.fprintf oc "\n  ],\n";
    Printf.fprintf oc "  \"minimality\": [";
    List.iteri
      (fun i (name, pairs, (a, p, n, u)) ->
        Printf.fprintf oc
          "%s\n    { \"corpus\": %S, \"tree_pairs\": %d, \"audited\": %d, \
           \"proved_minimal\": %d, \"non_minimal\": %d, \"unproven\": %d }"
          (if i > 0 then "," else "")
          name pairs a p n u)
      minimality;
    Printf.fprintf oc "\n  ]\n}\n";
    close_out oc;
    Printf.fprintf out "wrote %s\n" path

(* ------------------------------------------------------ service benchmark *)

module Server = Treediff_serve.Server
module Client = Treediff_serve.Client
module Protocol = Treediff_serve.Protocol
module Json = Treediff_util.Json

(* Open-loop load generation against an in-process daemon.  Closed-loop
   calibration first measures the full-quality service time; the open-loop
   phases then offer 0.5x / 1x / 2x that rate on one pipelined connection —
   the writer sends on schedule regardless of responses (a reader domain
   drains them), so queueing at the server is real, not an artifact of the
   client waiting.  A strict-admission probe (degradation disabled) then
   offers 2x to force typed [overloaded] rejects, and a crash segment
   verifies the daemon answers everything sent after a handler crash. *)

type serve_phase = {
  sp_label : string;
  sp_offered : float;  (* target req/s *)
  sp_achieved : float;  (* send rate actually sustained *)
  sp_requests : int;
  sp_ok : int;  (* full-quality answers *)
  sp_degraded : int;  (* forced approx/flat rungs *)
  sp_cached : int;  (* cache hits (subset of ok) *)
  sp_overloaded : int;
  sp_shed : int;  (* typed deadline answers *)
  sp_failed : int;  (* other typed errors *)
  sp_unanswered : int;
  sp_p50_ms : float;
  sp_p99_ms : float;
}

let serve_start_server config =
  let port = Atomic.make 0 in
  let dom =
    Domain.spawn (fun () ->
        Server.run ~config ~on_listen:(fun p -> Atomic.set port p) ())
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  if Atomic.get port = 0 then failwith "bench serve: server did not listen";
  (dom, Atomic.get port)

let serve_shutdown ~port =
  match Client.connect ~host:"127.0.0.1" ~port with
  | Error _ -> ()
  | Ok c ->
    ignore
      (Client.call c
         { Protocol.id = 999_999; verb = "shutdown"; params = Json.Obj [] });
    Client.close c

let serve_diff_request ~id ~deadline_ms (old_s, new_s) =
  {
    Protocol.id;
    verb = "diff";
    params =
      Json.Obj
        [
          ("old", Json.Str old_s);
          ("new", Json.Str new_s);
          ("deadline_ms", Json.float deadline_ms);
        ];
  }

let serve_gen_pairs g n =
  Array.init n (fun _ ->
      let gen = Treediff_tree.Tree.gen () in
      let doc =
        Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small
      in
      let doc', _ = Treediff_workload.Mutate.mutate g gen doc ~actions:6 in
      (Treediff_tree.Codec.to_string doc, Treediff_tree.Codec.to_string doc'))

let serve_percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(int_of_float (p *. float_of_int (n - 1)))

(* One open-loop phase: [n] requests at [rate]/s over a fresh connection.
   Requests cycle [pairs] (unique per request except a small hot set that
   exercises the cache).  Returns aggregate counters and ok-answer latency
   percentiles. *)
let serve_phase ~port ~pairs ~hot ~rate ~n ~deadline_ms label =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* Safety valves: a wedged peer surfaces as a timeout, not a hang. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 15.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 15.0;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* outcome codes: 0 ok, 1 degraded, 2 cached, 3 overloaded, 4 deadline,
     5 other typed error, 6 unanswered *)
  let reader =
    Domain.spawn (fun () ->
        let outcome = Array.make n 6 in
        let recv = Array.make n 0.0 in
        let remaining = ref n in
        (try
           while !remaining > 0 do
             match Protocol.read_frame ic with
             | Ok (Some payload) -> (
               let t = Unix.gettimeofday () in
               match Protocol.parse_response payload with
               | Ok (id, resp) when id >= 1 && id <= n ->
                 let i = id - 1 in
                 recv.(i) <- t;
                 outcome.(i) <-
                   (match resp with
                   | Protocol.Ok_resp body ->
                     if Json.mem_bool "cached" body = Some true then 2
                     else if
                       match Json.member "degraded" body with
                       | Some (Json.Str _) -> true
                       | Some _ | None -> false
                     then 1
                     else 0
                   | Protocol.Err_resp { kind = Protocol.Overloaded; _ } -> 3
                   | Protocol.Err_resp { kind = Protocol.Deadline; _ } -> 4
                   | Protocol.Err_resp _ -> 5);
                 decr remaining
               | Ok _ | Error _ -> decr remaining)
             | Ok None | Error _ -> remaining := 0
           done
         with Unix.Unix_error _ | Sys_error _ | End_of_file -> ());
        (outcome, recv))
  in
  let send_t = Array.make n 0.0 in
  let np = Array.length pairs in
  let nh = Array.length hot in
  let t0 = Unix.gettimeofday () in
  (try
     for i = 0 to n - 1 do
       let target = t0 +. (float_of_int i /. rate) in
       let now = Unix.gettimeofday () in
       if target > now then Unix.sleepf (target -. now);
       let pair =
         if nh > 0 && i mod 10 = 0 then hot.(i / 10 mod nh)
         else pairs.(i mod np)
       in
       send_t.(i) <- Unix.gettimeofday ();
       output_string oc
         (Protocol.encode_frame
            (Json.to_string
               (Protocol.request_to_json
                  (serve_diff_request ~id:(i + 1) ~deadline_ms pair))));
       flush oc
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  let outcome, recv = Domain.join reader in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let count c = Array.fold_left (fun a x -> if x = c then a + 1 else a) 0 outcome in
  let lats = ref [] in
  Array.iteri
    (fun i o ->
      if o <= 2 && recv.(i) > 0.0 && send_t.(i) > 0.0 then
        lats := ((recv.(i) -. send_t.(i)) *. 1e3) :: !lats)
    outcome;
  let lats = Array.of_list !lats in
  Array.sort compare lats;
  let span = send_t.(n - 1) -. send_t.(0) in
  {
    sp_label = label;
    sp_offered = rate;
    sp_achieved = (if span > 0.0 then float_of_int (n - 1) /. span else rate);
    sp_requests = n;
    sp_ok = count 0;
    sp_degraded = count 1;
    sp_cached = count 2;
    sp_overloaded = count 3;
    sp_shed = count 4;
    sp_failed = count 5;
    sp_unanswered = count 6;
    sp_p50_ms = serve_percentile 0.50 lats;
    sp_p99_ms = serve_percentile 0.99 lats;
  }

let run_serve_bench ?json ~out () =
  Printf.fprintf out "== Diff service under open-loop load ==\n";
  let g = Treediff_util.Prng.create 0x5e12e in
  let deadline_ms = 250.0 in
  (* Calibration: closed-loop over unique pairs on the default policy. *)
  let graceful_cfg =
    {
      Server.default_config with
      Server.port = 0;
      degrade_queue = 8;
      flat_queue = 24;
      max_queue = 48;
      cache_entries = 512;
      allow_crash = true;
    }
  in
  let dom, port = serve_start_server graceful_cfg in
  let calib_pairs = serve_gen_pairs g 48 in
  let hot = serve_gen_pairs g 8 in
  let service_ms =
    match Client.connect ~host:"127.0.0.1" ~port with
    | Error msg -> failwith ("bench serve: " ^ msg)
    | Ok c ->
      let one i pair =
        let t0 = Unix.gettimeofday () in
        (match
           Client.call c (serve_diff_request ~id:(i + 1) ~deadline_ms:1000. pair)
         with
        | Ok (Protocol.Ok_resp _) -> ()
        | Ok (Protocol.Err_resp { message; _ }) ->
          failwith ("bench serve calibration: " ^ message)
        | Error msg -> failwith ("bench serve calibration: " ^ msg));
        (Unix.gettimeofday () -. t0) *. 1e3
      in
      (* Warm the hot set into the cache while we are at it. *)
      Array.iteri (fun i p -> ignore (one i p)) hot;
      let samples = Array.mapi one calib_pairs in
      Client.close c;
      Array.sort compare samples;
      serve_percentile 0.5 samples
  in
  let saturation = Float.min 20_000.0 (Float.max 50.0 (1000.0 /. service_ms)) in
  Printf.fprintf out
    "calibration: %.3f ms median service time, %.0f req/s saturation\n%!"
    service_ms saturation;
  let phase_n rate =
    int_of_float (Float.min 1200.0 (Float.max 300.0 (rate *. 1.2)))
  in
  let run_mult label mult =
    let rate = saturation *. mult in
    let n = phase_n rate in
    let pairs = serve_gen_pairs g n in
    serve_phase ~port ~pairs ~hot ~rate ~n ~deadline_ms label
  in
  let phases =
    [ run_mult "0.5x" 0.5; run_mult "1x" 1.0; run_mult "2x" 2.0 ]
  in
  (* Crash isolation: a handler crash answers typed [internal]; everything
     sent afterwards is still answered. *)
  let crash_answer, after_ok, after_total =
    match Client.connect ~host:"127.0.0.1" ~port with
    | Error msg -> failwith ("bench serve: " ^ msg)
    | Ok c ->
      let answer =
        match
          Client.call c { Protocol.id = 1; verb = "crash"; params = Json.Obj [] }
        with
        | Ok (Protocol.Err_resp { kind = Protocol.Internal; _ }) -> "internal"
        | Ok (Protocol.Err_resp { kind; _ }) -> Protocol.error_kind_name kind
        | Ok (Protocol.Ok_resp _) -> "ok?!"
        | Error msg -> "transport: " ^ msg
      in
      let after = serve_gen_pairs g 40 in
      let ok = ref 0 in
      Array.iteri
        (fun i pair ->
          match
            Client.call c (serve_diff_request ~id:(i + 2) ~deadline_ms:1000. pair)
          with
          | Ok (Protocol.Ok_resp _) -> incr ok
          | Ok (Protocol.Err_resp _) | Error _ -> ())
        after;
      Client.close c;
      (answer, !ok, Array.length after)
  in
  serve_shutdown ~port;
  Domain.join dom;
  (* Strict-admission probe: degradation disabled, so 2x the full-quality
     saturation must overflow the queue and draw typed [overloaded]
     rejects (the graceful policy above absorbs 2x by degrading first). *)
  let strict_cfg =
    {
      graceful_cfg with
      Server.max_queue = 32;
      degrade_queue = 33;
      flat_queue = 33;
      cache_entries = 0;
      allow_crash = false;
    }
  in
  let sdom, sport = serve_start_server strict_cfg in
  let probe =
    let rate = saturation *. 2.0 in
    let n = phase_n rate in
    let pairs = serve_gen_pairs g n in
    serve_phase ~port:sport ~pairs ~hot:[||] ~rate ~n ~deadline_ms
      "strict-2x"
  in
  let alive_after =
    match Client.connect ~host:"127.0.0.1" ~port:sport with
    | Error _ -> false
    | Ok c ->
      let r =
        Client.call c { Protocol.id = 7; verb = "ping"; params = Json.Obj [] }
      in
      Client.close c;
      (match r with Ok (Protocol.Ok_resp _) -> true | _ -> false)
  in
  serve_shutdown ~port:sport;
  Domain.join sdom;
  let all = phases @ [ probe ] in
  let table =
    Treediff_util.Table.create
      ~headers:
        [
          "phase"; "offered"; "sent"; "ok"; "degraded"; "cached"; "overloaded";
          "shed"; "p50"; "p99";
        ]
  in
  List.iter
    (fun p ->
      Treediff_util.Table.add_row table
        [
          p.sp_label;
          Printf.sprintf "%.0f/s" p.sp_offered;
          Printf.sprintf "%.0f/s" p.sp_achieved;
          string_of_int p.sp_ok;
          string_of_int p.sp_degraded;
          string_of_int p.sp_cached;
          string_of_int p.sp_overloaded;
          string_of_int p.sp_shed;
          Printf.sprintf "%.2f ms" p.sp_p50_ms;
          Printf.sprintf "%.2f ms" p.sp_p99_ms;
        ])
    all;
  Treediff_util.Table.print_to out table;
  Printf.fprintf out
    "strict 2x probe: %d overloaded / %d sent, alive after: %b\n"
    probe.sp_overloaded probe.sp_requests alive_after;
  Printf.fprintf out "crash isolation: crash answered %s; %d/%d diffs ok after\n\n%!"
    crash_answer after_ok after_total;
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    json_header oc (Filename.remove_extension (Filename.basename path));
    Printf.fprintf oc
      "  \"serve\": {\n\
      \    \"deadline_ms\": %.0f,\n\
      \    \"calibration\": { \"service_ms\": %.4f, \"saturation_rps\": %.1f },\n"
      deadline_ms service_ms saturation;
    Printf.fprintf oc "    \"phases\": [";
    List.iteri
      (fun i p ->
        Printf.fprintf oc
          "%s\n      { \"label\": %S, \"offered_rps\": %.1f, \
           \"achieved_rps\": %.1f, \"requests\": %d, \"ok\": %d, \
           \"degraded\": %d, \"cache_hits\": %d, \"overloaded\": %d, \
           \"shed_deadline\": %d, \"failed\": %d, \"unanswered\": %d, \
           \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
           \"p99_within_deadline\": %b }"
          (if i > 0 then "," else "")
          p.sp_label p.sp_offered p.sp_achieved p.sp_requests p.sp_ok
          p.sp_degraded p.sp_cached p.sp_overloaded p.sp_shed p.sp_failed
          p.sp_unanswered p.sp_p50_ms p.sp_p99_ms
          (p.sp_p99_ms <= deadline_ms))
      all;
    Printf.fprintf oc
      "\n    ],\n\
      \    \"strict_probe_alive_after\": %b,\n\
      \    \"crash_isolation\": { \"crash_answer\": %S, \
       \"answered_after_crash\": %d, \"requests_after_crash\": %d }\n\
      \  },\n"
      alive_after crash_answer after_ok after_total;
    Printf.fprintf oc "  \"results\": [";
    let rows =
      ("serve/closed-loop-service", service_ms *. 1e6)
      :: List.concat_map
           (fun p ->
             [
               (Printf.sprintf "serve/rate-%s-p50" p.sp_label, p.sp_p50_ms *. 1e6);
               (Printf.sprintf "serve/rate-%s-p99" p.sp_label, p.sp_p99_ms *. 1e6);
             ])
           all
    in
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "%s\n    { \"name\": %S, \"ns_per_run\": %.2f }"
          (if i > 0 then "," else "")
          name ns)
      rows;
    Printf.fprintf oc "\n  ]\n}\n";
    close_out oc;
    Printf.fprintf out "wrote %s\n" path

let usage () =
  print_endline
    "usage: main.exe [EXPERIMENT...] [--bechamel] [--json OUT] [--budget-ms MS]";
  print_endline "  --json OUT      with --bechamel or store, write ns/run estimates to OUT";
  print_endline "                  (human tables move to stderr so OUT-producing runs";
  print_endline "                   keep stdout machine-parseable)";
  print_endline
    "  --budget-ms MS  tabulate ladder-rung frequency under an MS-millisecond deadline";
  print_endline "experiments (default: all):";
  List.iter (fun (name, descr, _) -> Printf.printf "  %-12s %s\n" name descr) experiments;
  print_endline
    "  store        delta-chain archive: commit latency, materialization vs\n\
    \               depth with/without checkpoints, bytes per version";
  print_endline "               (runs alone; with --json, writes BENCH_store.json rows)";
  print_endline
    "  store-scale  sharded corpus store at scale: a synthetic 10k-doc x\n\
    \               100-version (1M total) bulk ingest — commits/s, bytes per\n\
    \               version, cold-cache materialize p99 and ingest scaling\n\
    \               across --jobs with a byte-identity check (--smoke: 100\n\
    \               docs, the CI gate)";
  print_endline
    "               (runs alone; with --json, writes BENCH_store_scale.json rows)";
  print_endline
    "  batch        domain-parallel batch diffing over the fig13 corpora at\n\
    \               jobs 1/2/4 (or --jobs N), with a cross-jobs identity check";
  print_endline "               (runs alone; with --json, writes BENCH_parallel.json rows)";
  print_endline
    "  sim          similarity layer: exact FastMatch vs the LSH prefilter vs\n\
    \               the greedy approx matcher on the adversarial long-chain\n\
    \               corpus, plus precision/recall tables over every corpus";
  print_endline "               (runs alone; with --json, writes BENCH_sim.json rows)";
  print_endline
    "  check        interference analyzer ns/op, the minimality oracle's\n\
    \               node-budget cost curve, and oracle-audited minimality\n\
    \               rates over the seed corpora";
  print_endline "               (runs alone; with --json, writes BENCH_check.json rows)";
  print_endline
    "  serve        open-loop load against an in-process daemon at 0.5x/1x/2x\n\
    \               saturation, a strict-admission overload probe, and a\n\
    \               crash-isolation segment";
  print_endline "               (runs alone; with --json, writes BENCH_serve.json rows)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bech = List.mem "--bechamel" args in
  let rec take_json acc = function
    | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--json" :: [] ->
      prerr_endline "--json requires an output path";
      exit 2
    | a :: rest -> take_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json, args = take_json [] args in
  let rec take_budget acc = function
    | "--budget-ms" :: ms :: rest -> (
      match float_of_string_opt ms with
      | Some ms -> (Some ms, List.rev_append acc rest)
      | None ->
        prerr_endline "--budget-ms requires a number of milliseconds";
        exit 2)
    | "--budget-ms" :: [] ->
      prerr_endline "--budget-ms requires a number of milliseconds";
      exit 2
    | a :: rest -> take_budget (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let budget_ms, args = take_budget [] args in
  let rec take_jobs acc = function
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> (Some n, List.rev_append acc rest)
      | _ ->
        prerr_endline "--jobs requires a positive integer";
        exit 2)
    | "--jobs" :: [] ->
      prerr_endline "--jobs requires a positive integer";
      exit 2
    | a :: rest -> take_jobs (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let jobs, args = take_jobs [] args in
  let smoke = List.mem "--smoke" args in
  let args = List.filter (fun a -> a <> "--smoke") args in
  let names = List.filter (fun a -> a <> "--bechamel") args in
  (* With --json, stdout is reserved for machine-readable consumers: every
     human table and banner this harness prints itself moves to stderr. *)
  let out = if json <> None then stderr else stdout in
  if List.mem "--help" names || List.mem "-h" names then usage ()
  else begin
    match budget_ms with
    | Some ms ->
      run_budget ~out ms;
      if bech then run_bechamel ?json ~out ()
    | None ->
      if names = [ "store" ] then run_store ?json ~out ()
      else if names = [ "store-scale" ] then
        run_store_scale ?json ~out ~jobs ~smoke ()
      else if names = [ "batch" ] then run_batch_bench ?json ~out ~jobs ()
      else if names = [ "sim" ] then run_sim ?json ~out ()
      else if names = [ "check" ] then run_check_bench ?json ~out ()
      else if names = [ "serve" ] then run_serve_bench ?json ~out ()
      else begin
        let selected =
          if names = [] then experiments
          else
            List.filter_map
              (fun n ->
                match List.find_opt (fun (name, _, _) -> name = n) experiments with
                | Some e -> Some e
                | None ->
                  Printf.eprintf "unknown experiment %S (try --help)\n" n;
                  None)
              names
        in
        List.iter (fun (_, _, run) -> run ()) selected;
        if bech || json <> None then run_bechamel ?json ~out ()
      end
  end
