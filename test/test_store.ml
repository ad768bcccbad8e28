(* The delta-chain version archive and its foundations: the binary codec,
   the script algebra (invert/compose), one-document archive round-trips
   (a 1-shard corpus), history queries and pruning, crash recovery, the
   migration of single-file archives from older releases, and the CLI.

   The algebra properties run over ~300 random workload pairs:

     apply (invert s) (apply s t)      ≡ t          (exact, id-preserving)
     apply (compose s1 s2) t           ≅ apply s2 (apply s1 t)

   When TREEDIFF_FAULT is set (the `make store-tests` sweep), only the
   env-sweep suite runs: after every commit attempt under the armed fault,
   the archive must reopen and every surviving version must materialize
   against its stored hash — crashes may lose the in-flight commit, never
   history — and a migration under the same fault must leave the whole
   legacy document or none of it. *)

module B = Treediff_util.Binio
module Budget = Treediff_util.Budget
module Fault = Treediff_util.Fault
module Prng = Treediff_util.Prng
module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Codec = Treediff_tree.Codec
module Iso = Treediff_tree.Iso
module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Check = Treediff_check.Check
module Diag = Treediff_check.Diag
module Diff = Treediff.Diff
module Exec = Treediff_util.Exec
module Shard = Treediff_store.Shard
module Chain = Treediff_store.Chain
module Container = Treediff_store.Container
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Treegen = Treediff_workload.Treegen

let labels = [| "D"; "P"; "S"; "W" |]

let random_pair rng gen =
  let t1 =
    Treegen.random_labeled rng gen ~max_depth:4 ~max_width:4 ~labels ~vocab:12
  in
  let t2 = Treegen.perturb rng gen t1 in
  (t1, t2)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmp_path =
  let n = ref 0 in
  fun suffix ->
    incr n;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "treediff_store_test_%d_%d_%s" (Unix.getpid ()) !n
           suffix)
    in
    rm_rf path;
    path

let ok_exn what = function
  | Ok v -> v
  | Error msg -> Alcotest.fail (what ^ ": " ^ msg)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ binio *)

let test_binio_varint () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      B.add_varint buf n;
      let r = B.reader (Buffer.contents buf) in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n (B.read_varint r);
      Alcotest.(check int) "consumed all" 0 (B.remaining r))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 40; max_int / 2 ];
  (* non-minimal encodings are rejected: 0x80 0x00 is a padded zero *)
  (match B.read_varint (B.reader "\x80\x00") with
  | exception B.Malformed _ -> ()
  | _ -> Alcotest.fail "non-minimal varint accepted");
  match B.read_varint (B.reader "\x80") with
  | exception B.Truncated _ -> ()
  | _ -> Alcotest.fail "truncated varint accepted"

let test_binio_i64_string () =
  let buf = Buffer.create 32 in
  B.add_i64 buf 0x0123456789abcdefL;
  B.add_string buf "hello";
  B.add_string buf "";
  let r = B.reader (Buffer.contents buf) in
  Alcotest.(check int64) "i64" 0x0123456789abcdefL (B.read_i64 r);
  Alcotest.(check string) "string" "hello" (B.read_string r);
  Alcotest.(check string) "empty string" "" (B.read_string r);
  Alcotest.(check int) "consumed" 0 (B.remaining r)

let test_binio_fnv () =
  (* Standard FNV-1a 64 test vectors. *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (B.fnv1a64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (B.fnv1a64 "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L (B.fnv1a64 "foobar")

(* ----------------------------------------------------------- binary codec *)

let preorder_ids t =
  let acc = ref [] in
  Node.iter_preorder (fun n -> acc := n.Node.id :: !acc) t;
  List.rev !acc

let test_codec_roundtrip () =
  let g = Prng.create 11 in
  for i = 1 to 40 do
    let gen = Tree.gen () in
    let t =
      if i mod 2 = 0 then Docgen.generate g gen Docgen.small
      else Treegen.random_labeled g gen ~max_depth:5 ~max_width:5 ~labels ~vocab:9
    in
    let bytes = Codec.encode t in
    match Codec.decode bytes with
    | Error e -> Alcotest.fail (Codec.decode_error_to_string e)
    | Ok t' ->
      if not (Iso.equal t t') then Alcotest.fail "decode not isomorphic";
      (* id-preserving: scripts reference ids, so this is the whole point *)
      Alcotest.(check (list int)) "ids preserved" (preorder_ids t)
        (preorder_ids t');
      Alcotest.(check string) "re-encode is stable" bytes (Codec.encode t')
  done

let test_codec_refusals () =
  let gen = Tree.gen () in
  let t = Codec.parse gen {|(D (P (S "a") (S "b")))|} in
  let bytes = Codec.encode t in
  (match Codec.decode "XXXX\x01rest" with
  | Error Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (let bumped = Bytes.of_string bytes in
   Bytes.set bumped 4 '\x63';
   match Codec.decode (Bytes.to_string bumped) with
   | Error (Codec.Unsupported_version 0x63) -> ()
   | _ -> Alcotest.fail "future format version accepted");
  (match Codec.decode (String.sub bytes 0 (String.length bytes - 3)) with
  | Error (Codec.Truncated _) -> ()
  | _ -> Alcotest.fail "truncated tree accepted");
  (match Codec.decode (bytes ^ "junk") with
  | Error (Codec.Corrupt _) -> ()
  | _ -> Alcotest.fail "trailing bytes accepted");
  match Codec.decode "" with
  | Error Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "empty input accepted"

let test_iso_hash () =
  let gen = Tree.gen () in
  let t1 = Codec.parse gen {|(D (P (S "a") (S "b")))|} in
  let t2 = Codec.parse gen {|(D (P (S "a") (S "b")))|} in
  let t3 = Codec.parse gen {|(D (P (S "a" (S "b"))))|} in
  let t4 = Codec.parse gen {|(D (P (S "a") (S "c")))|} in
  Alcotest.(check int64) "iso trees hash equal" (Iso.hash t1) (Iso.hash t2);
  Alcotest.(check bool) "shape matters" false (Int64.equal (Iso.hash t1) (Iso.hash t3));
  Alcotest.(check bool) "values matter" false (Int64.equal (Iso.hash t1) (Iso.hash t4))

(* --------------------------------------------------------- script algebra *)

(* apply (invert s) (apply s t) ≡ t, exactly — same shape, values AND ids,
   which byte-identical binary encodings capture. *)
let test_invert_property () =
  let rng = Prng.create 23 in
  for i = 1 to 150 do
    let gen = Tree.gen () in
    let t1, t2 =
      if i mod 3 = 0 then random_pair rng gen
      else
        let d = Docgen.generate rng gen Docgen.small in
        let d', _ = Mutate.mutate rng gen d ~actions:6 in
        (d, d')
    in
    let r = Diff.diff t1 t2 in
    let base = Script.rooted ?dummy:(Option.map fst r.Diff.dummy) t1 in
    let inv = Script.invert base r.Diff.script in
    let after = Script.apply base r.Diff.script in
    let back = Script.apply after inv in
    if Codec.encode back <> Codec.encode base then
      Alcotest.fail (Printf.sprintf "pair %d: invert does not round-trip" i)
  done

(* apply (compose s1 s2) t ≅ apply s2 (apply s1 t) over chained mutations,
   mirroring how the store chains deltas: s2 is computed against the tree
   s1 produced, so both scripts live in the same id space. *)
let test_compose_property () =
  let rng = Prng.create 29 in
  let effective = ref 0 in
  for i = 1 to 150 do
    let gen = Tree.gen () in
    let t1 =
      if i mod 3 = 0 then
        Treegen.random_labeled rng gen ~max_depth:4 ~max_width:4 ~labels ~vocab:12
      else Docgen.generate rng gen Docgen.small
    in
    let t2, _ = Mutate.mutate rng gen t1 ~actions:5 in
    let r1 = Diff.diff t1 t2 in
    match r1.Diff.dummy with
    | Some _ -> () (* dummy-rooted steps are not composable; the store refuses them too *)
    | None ->
      let mid = Diff.apply r1 t1 in
      let t3, _ = Mutate.mutate rng gen mid ~actions:5 in
      let r2 = Diff.diff mid t3 in
      (match r2.Diff.dummy with
      | Some _ -> ()
      | None ->
        incr effective;
        let s1 = r1.Diff.script and s2 = r2.Diff.script in
        let lhs = Script.apply t1 (Script.compose s1 s2) in
        let rhs = Script.apply (Script.apply t1 s1) s2 in
        if not (Iso.equal lhs rhs) then
          Alcotest.fail (Printf.sprintf "pair %d: compose diverges" i))
  done;
  if !effective < 75 then
    Alcotest.fail
      (Printf.sprintf "only %d/150 composable chains — workload degenerated"
         !effective)

let test_invert_units () =
  let g = Tree.gen () in
  let a = Tree.leaf g "S" "a" in
  let b = Tree.leaf g "S" "b" in
  let c = Tree.leaf g "S" "c" in
  let p1 = Tree.node g "P" [ a; b ] in
  let p2 = Tree.node g "P" [ c ] in
  let t = Tree.node g "D" [ p1; p2 ] in
  let fresh = Tree.fresh_id g in
  let script =
    [
      Op.Update { id = a.Node.id; value = "a2" };
      Op.Insert
        { id = fresh; label = "S"; value = "new"; parent = p2.Node.id; pos = 1 };
      Op.Move { id = b.Node.id; parent = p2.Node.id; pos = 3 };
      Op.Delete { id = c.Node.id };
    ]
  in
  let inv = Script.invert t script in
  let back = Script.apply (Script.apply t script) inv in
  Alcotest.(check string) "exact round-trip" (Codec.encode t) (Codec.encode back);
  (* the inverse restores the deleted node with its original id and value *)
  let restores_c =
    List.exists
      (function
        | Op.Insert { id; value = "c"; _ } -> id = c.Node.id | _ -> false)
      inv
  in
  Alcotest.(check bool) "delete inverted to insert with original id/value" true
    restores_c

let test_compose_units () =
  let g = Tree.gen () in
  let a = Tree.leaf g "S" "a" in
  let p = Tree.node g "P" [ a ] in
  let t = Tree.node g "D" [ p ] in
  let n = Tree.fresh_id g in
  (* UPD fuses into the INS that created the node; UPD∘UPD keeps the last *)
  let s1 =
    [ Op.Insert { id = n; label = "S"; value = "v0"; parent = p.Node.id; pos = 2 } ]
  in
  let s2 =
    [ Op.Update { id = n; value = "v1" }; Op.Update { id = a.Node.id; value = "a1" } ]
  in
  let s3 = [ Op.Update { id = a.Node.id; value = "a2" } ] in
  let c = Script.compose (Script.compose s1 s2) s3 in
  Alcotest.(check int) "fused to two ops" 2 (List.length c);
  let has_ins_v1 =
    List.exists
      (function Op.Insert { id; value = "v1"; _ } -> id = n | _ -> false)
      c
  in
  let upd_a2 =
    List.exists
      (function Op.Update { id; value = "a2" } -> id = a.Node.id | _ -> false)
      c
  in
  Alcotest.(check bool) "UPD folded into INS" true has_ins_v1;
  Alcotest.(check bool) "later UPD wins" true upd_a2;
  Alcotest.(check bool) "fusion preserves semantics" true
    (Iso.equal
       (Script.apply t c)
       (Script.apply (Script.apply (Script.apply t s1) s2) s3))

let test_compose_id_collision () =
  let g = Tree.gen () in
  let a = Tree.leaf g "S" "a" in
  let p = Tree.node g "P" [ a ] in
  let t = Tree.node g "D" [ p ] in
  let n = Tree.fresh_id g in
  (* s1 inserts and deletes id [n]; s2 re-inserts the same id — the remap
     must keep the composed script lint-clean (TD102 forbids id reuse). *)
  let s1 =
    [
      Op.Insert { id = n; label = "S"; value = "x"; parent = p.Node.id; pos = 2 };
      Op.Delete { id = n };
    ]
  in
  let s2 =
    [
      Op.Insert { id = n; label = "S"; value = "y"; parent = p.Node.id; pos = 2 };
      Op.Update { id = n; value = "y2" };
    ]
  in
  let c = Script.compose s1 s2 in
  let expected = Script.apply (Script.apply t s1) s2 in
  Alcotest.(check bool) "collision remap preserves semantics" true
    (Iso.equal (Script.apply t c) expected);
  (* past s1's own INS/DEL pair, the id must not reappear as an insert *)
  let reuse =
    List.exists (function Op.Insert { id; _ } -> id = n | _ -> false)
      (List.filteri (fun i _ -> i >= 2) c)
  in
  Alcotest.(check bool) "reused insert id was renamed" false reuse

let test_apply_errors () =
  let gen = Tree.gen () in
  let t = Codec.parse gen {|(D (P (S "a")))|} in
  (match Script.apply t [ Op.Update { id = 2; value = "b" } ] with
  | t' -> Alcotest.(check bool) "applied" true (t'.Node.id = t.Node.id)
  | exception Script.Apply_error msg -> Alcotest.fail msg);
  match Script.apply t [ Op.Delete { id = 99 } ] with
  | _ -> Alcotest.fail "unknown id applied"
  | exception Script.Apply_error msg ->
    Alcotest.(check bool) "error is non-empty" true (String.length msg > 0)

(* ---------------------------------------------------------------- archive *)

(* A one-document archive is a 1-shard corpus holding one chain. *)
let doc = "doc"

let lineage ?(seed = 41) ?(actions = 5) ?(plain_roots = false) n =
  let g = Prng.create seed in
  let gen = Tree.gen () in
  let first = Docgen.generate g gen Docgen.small in
  (* [plain_roots] rejects mutation steps whose roots would not match —
     those commit as dummy-rooted deltas, which diff_between (correctly)
     refuses, so tests of composable ranges need a lineage without them. *)
  let rec step doc tries =
    let doc', _ = Mutate.mutate g gen doc ~actions in
    if (not plain_roots) || (Diff.diff doc doc').Diff.dummy = None then doc'
    else if tries = 0 then Alcotest.fail "could not grow a plain-rooted lineage"
    else step doc (tries - 1)
  in
  let rec grow acc doc k =
    if k = 0 then List.rev acc
    else
      let doc' = step doc 10 in
      grow (doc' :: acc) doc' (k - 1)
  in
  grow [ first ] first n

let archive ?interval ?max_replay_ops dir docs =
  let store = ok_exn "init" (Shard.init ?interval ?max_replay_ops ~shards:1 dir) in
  List.iter (fun tree -> ignore (ok_exn "commit" (Shard.commit store ~doc tree))) docs;
  store

let shard_path dir = Filename.concat dir "shard-0000.tdst"

let file_size path = (Unix.stat path).Unix.st_size

let test_store_roundtrip () =
  let dir = tmp_path "roundtrip" in
  let docs = lineage 50 in
  let store = archive ~interval:3 dir docs in
  Alcotest.(check int) "51 versions" 51 (Shard.versions store doc);
  (* every version materializes Iso-equal to what was committed, with the
     stored hash agreeing *)
  List.iteri
    (fun v tree ->
      let t = ok_exn "materialize" (Shard.materialize ~verify:true store ~doc v) in
      if not (Iso.equal t tree) then
        Alcotest.fail (Printf.sprintf "version %d does not round-trip" v))
    docs;
  (* reopen from disk and do it again *)
  let store2 = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check bool) "no damage" false (Shard.manifest_truncated store2);
  Alcotest.(check (list int)) "no aborted commits" [] (Shard.aborted_commits store2);
  List.iteri
    (fun v tree ->
      let t = ok_exn "materialize2" (Shard.materialize ~verify:true store2 ~doc v) in
      if not (Iso.equal t tree) then
        Alcotest.fail (Printf.sprintf "version %d lost on reopen" v))
    docs;
  (* log shape: v0 is the base snapshot, interval=3 places checkpoints *)
  let log = ok_exn "log" (Shard.log store2 doc) in
  Alcotest.(check int) "log length" 51 (List.length log);
  (match log with
  | first :: rest ->
    Alcotest.(check bool) "base is a snapshot" true (first.Shard.kind = Chain.Snapshot);
    List.iter
      (fun (e : Shard.entry) ->
        Alcotest.(check bool) "later versions carry deltas" true
          (e.Shard.kind <> Chain.Snapshot);
        Alcotest.(check bool) "deltas have ops" true (e.Shard.ops > 0))
      rest
  | [] -> Alcotest.fail "empty log");
  let checkpoints =
    List.filter (fun (e : Shard.entry) -> e.Shard.kind = Chain.Checkpoint) log
  in
  Alcotest.(check bool) "interval=3 placed checkpoints" true
    (List.length checkpoints >= 3);
  (* next_id floors are monotone: the chain shares one id space *)
  let floors = List.map (fun (e : Shard.entry) -> e.Shard.next_id) log in
  let n_floors = List.length floors in
  Alcotest.(check bool) "next_id monotone" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < n_floors - 1) floors)
       (List.tl floors));
  (* error paths *)
  (match Shard.script_of store2 ~doc 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "script_of on the base snapshot");
  Alcotest.(check bool) "script_of a delta" true
    (Result.is_ok (Shard.script_of store2 ~doc 1));
  (match Shard.materialize store2 ~doc 99 with
  | Error msg ->
    Alcotest.(check bool) "range error names bounds" true
      (contains ~sub:"0..50" msg)
  | Ok _ -> Alcotest.fail "version 99 materialized");
  rm_rf dir

let test_store_diff_between () =
  let dir = tmp_path "diffbetween" in
  let docs = lineage ~seed:43 ~plain_roots:true 12 in
  let store = archive ~interval:4 dir docs in
  let check_range from_ to_ =
    let s = ok_exn "diff_between" (Shard.diff_between store ~doc ~from_ ~to_) in
    let t_from = ok_exn "mat" (Shard.materialize store ~doc from_) in
    let t_to = ok_exn "mat" (Shard.materialize store ~doc to_) in
    (match Script.apply t_from s with
    | t ->
      if not (Iso.equal t t_to) then
        Alcotest.fail (Printf.sprintf "composed %d->%d lands elsewhere" from_ to_)
    | exception Script.Apply_error msg ->
      Alcotest.fail (Printf.sprintf "composed %d->%d does not apply: %s" from_ to_ msg));
    match Diag.errors (Check.verify ~t1:t_from ~t2:t_to s) with
    | [] -> ()
    | ds ->
      Alcotest.fail
        (Printf.sprintf "composed %d->%d fails the checker: %s" from_ to_
           (Diag.summary ds))
  in
  (* forward, backward, adjacent, across checkpoints, and identity *)
  check_range 2 9;
  check_range 9 2;
  check_range 0 12;
  check_range 12 0;
  check_range 5 6;
  check_range 6 5;
  let s = ok_exn "identity" (Shard.diff_between store ~doc ~from_:7 ~to_:7) in
  Alcotest.(check int) "identity range is empty" 0 (List.length s);
  rm_rf dir

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_store_refusals () =
  let dir = tmp_path "refusals" in
  ignore (ok_exn "init" (Shard.init ~shards:1 dir));
  (match Shard.init ~shards:1 dir with
  | Error msg ->
    Alcotest.(check bool) "refuses to clobber" true (contains ~sub:"already" msg)
  | Ok _ -> Alcotest.fail "init over an existing archive");
  (* magic / version refusal, at the manifest every open replays first *)
  let garbage = tmp_path "garbage" in
  Unix.mkdir garbage 0o755;
  write_file (Filename.concat garbage "MANIFEST") "not a store at all";
  (match Shard.open_ garbage with
  | Error msg ->
    Alcotest.(check bool) "bad magic reported" true (contains ~sub:"magic" msg)
  | Ok _ -> Alcotest.fail "garbage opened");
  rm_rf garbage;
  let future = tmp_path "future" in
  Unix.mkdir future 0o755;
  write_file (Filename.concat future "MANIFEST") "TDSM\x7f";
  (match Shard.open_ future with
  | Error msg ->
    Alcotest.(check bool) "version refusal names the version" true
      (contains ~sub:"127" msg)
  | Ok _ -> Alcotest.fail "future format opened");
  rm_rf future;
  (* a single-file archive is read only by migrate, and says so *)
  let legacy = tmp_path "legacy.tds" in
  write_file legacy "TDST\x01\x08\x80\x04";
  (match Shard.open_ legacy with
  | Error msg ->
    Alcotest.(check bool) ("legacy file names migrate: " ^ msg) true
      (contains ~sub:"treediff store migrate" msg)
  | Ok _ -> Alcotest.fail "a single-file archive opened as a corpus");
  let future_file = tmp_path "future.tds" in
  write_file future_file "TDST\x7f";
  (match Shard.migrate ~doc ~legacy:future_file (tmp_path "never") with
  | Error msg ->
    Alcotest.(check bool) "migrate refuses a future format" true
      (contains ~sub:"127" msg)
  | Ok _ -> Alcotest.fail "migrated a future format");
  List.iter rm_rf [ legacy; future_file; dir ]

let test_store_gc () =
  let dir = tmp_path "gc" in
  let docs = lineage ~seed:47 10 in
  let store = archive ~interval:4 dir docs in
  (* compact without pruning: a no-damage archive only loses the tail slack *)
  let before, after = ok_exn "gc" (Shard.gc store) in
  Alcotest.(check bool) "sizes sane" true (before > 0 && after > 0 && after <= before);
  Alcotest.(check int) "nothing pruned" 11 (Shard.versions store doc);
  (* prune: version numbers survive, older history is gone *)
  let _, _ = ok_exn "gc prune" (Shard.gc ~prune_before:(doc, 6) store) in
  let log = ok_exn "log" (Shard.log store doc) in
  Alcotest.(check int) "base moved" 6 (List.hd log).Shard.version;
  Alcotest.(check int) "five versions left" 5 (List.length log);
  Alcotest.(check int) "the count is still the next version" 11
    (Shard.versions store doc);
  (match Shard.materialize store ~doc 5 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pruned version still materializes");
  List.iteri
    (fun i tree ->
      if i >= 6 then
        let t = ok_exn "mat" (Shard.materialize ~verify:true store ~doc i) in
        if not (Iso.equal t tree) then
          Alcotest.fail (Printf.sprintf "version %d damaged by prune" i))
    docs;
  (* and the pruned archive reopens *)
  let store2 = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check int) "reopened base" 6
    (List.hd (ok_exn "log" (Shard.log store2 doc))).Shard.version;
  let t = ok_exn "mat" (Shard.materialize ~verify:true store2 ~doc 10) in
  Alcotest.(check bool) "head survives" true (Iso.equal t (List.nth docs 10));
  Alcotest.(check int) "verify counts from the base" 5
    (ok_exn "verify" (Shard.verify ~jobs:1 store2));
  (* committing on top of a pruned archive keeps working *)
  let g = Prng.create 53 in
  let gen = Tree.gen () in
  let next, _ = Mutate.mutate g gen (List.nth docs 10) ~actions:4 in
  let e = ok_exn "commit after prune" (Shard.commit store2 ~doc next) in
  Alcotest.(check int) "version numbering continues" 11 e.Shard.version;
  (* a prune point outside the stored versions is refused *)
  (match Shard.gc ~prune_before:(doc, 3) store2 with
  | Error msg -> Alcotest.(check bool) "names the range" true (contains ~sub:"6..11" msg)
  | Ok _ -> Alcotest.fail "pruned below the base");
  rm_rf dir

let test_store_budget () =
  let dir = tmp_path "budget" in
  let docs = lineage ~seed:59 8 in
  (* no checkpoints: depth-8 materialization must replay the whole chain *)
  let store = archive ~interval:0 ~max_replay_ops:0 dir docs in
  let expired = Budget.make ~deadline_ms:(-1.0) () in
  (match Shard.materialize ~exec:(Exec.create ~budget:expired ()) store ~doc 8 with
  | exception Budget.Exceeded e ->
    Alcotest.(check bool) "deadline reason" true (e.Budget.reason = Budget.Deadline)
  | Ok _ -> Alcotest.fail "expired budget materialized"
  | Error msg -> Alcotest.fail ("typed error instead of Exceeded: " ^ msg));
  (match Shard.materialize ~exec:(Exec.create ()) store ~doc 8 with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg
  | exception Budget.Exceeded _ -> Alcotest.fail "unlimited budget tripped");
  rm_rf dir

(* ----------------------------------------------------------- crash safety *)

(* Arm a fault on a store handle's own registry for the duration of [f]. *)
let with_fault store spec f =
  let faults = Exec.faults (Shard.exec store) in
  (match Fault.parse_spec spec with
  | Ok s -> Fault.arm_one faults (Some s)
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:(fun () -> Fault.disarm faults) f

let shard_tail_damaged dir =
  match Container.scan (shard_path dir) with
  | Ok scan -> scan.Container.truncated_tail
  | Error e -> Alcotest.fail (Container.error_to_string e)

let test_crash_mid_append () =
  let dir = tmp_path "crash" in
  let docs = lineage ~seed:61 6 in
  let store = archive ~interval:3 dir (List.filteri (fun i _ -> i <= 4) docs) in
  let size_before = file_size (shard_path dir) in
  (* the 6th commit dies mid-write: half a record lands on disk *)
  (match
     with_fault store "store.append:raise" (fun () ->
         Shard.commit store ~doc (List.nth docs 5))
   with
  | exception Fault.Injected _ -> ()
  | Ok _ -> Alcotest.fail "commit survived the injected crash"
  | Error msg -> Alcotest.fail ("typed error instead of a crash: " ^ msg));
  Alcotest.(check bool) "partial record hit the disk" true
    (file_size (shard_path dir) > size_before);
  (* reopen: the damage is isolated, history intact *)
  let store2 = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check bool) "tail damage detected" true (shard_tail_damaged dir);
  Alcotest.(check int) "the commit is reported aborted" 1
    (List.length (Shard.aborted_commits store2));
  Alcotest.(check int) "in-flight commit lost, history kept" 5
    (Shard.versions store2 doc);
  List.iteri
    (fun v tree ->
      if v <= 4 then
        let t = ok_exn "mat" (Shard.materialize ~verify:true store2 ~doc v) in
        if not (Iso.equal t tree) then
          Alcotest.fail (Printf.sprintf "version %d damaged by the crash" v))
    docs;
  (* the next commit truncates the garbage and succeeds *)
  let e = ok_exn "recommit" (Shard.commit store2 ~doc (List.nth docs 5)) in
  Alcotest.(check int) "recommitted as version 5" 5 e.Shard.version;
  Alcotest.(check bool) "tail reclaimed" false (shard_tail_damaged dir);
  let store3 = ok_exn "reopen2" (Shard.open_ dir) in
  Alcotest.(check bool) "clean on disk too" false (Shard.manifest_truncated store3);
  let t = ok_exn "mat" (Shard.materialize ~verify:true store3 ~doc 5) in
  Alcotest.(check bool) "recommitted content" true (Iso.equal t (List.nth docs 5));
  rm_rf dir

let test_crash_before_write () =
  let dir = tmp_path "crash_pre" in
  let docs = lineage ~seed:67 2 in
  let store = archive dir [ List.hd docs ] in
  let sizes () = (file_size (shard_path dir), file_size (Filename.concat dir "MANIFEST")) in
  let size_before = sizes () in
  (match
     with_fault store "store.commit:raise" (fun () ->
         Shard.commit store ~doc (List.nth docs 1))
   with
  | exception Fault.Injected _ -> ()
  | _ -> Alcotest.fail "commit survived the injected crash");
  Alcotest.(check (pair int int)) "nothing written" size_before (sizes ());
  let store2 = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check (list int)) "no aborted commit" [] (Shard.aborted_commits store2);
  Alcotest.(check bool) "no tail damage" false (shard_tail_damaged dir);
  Alcotest.(check int) "one version" 1 (Shard.versions store2 doc);
  rm_rf dir

(* ---------------------------------------------------------------- migrate *)

(* A single-file archive written by an older release: seven commits of one
   document under a 3-commit checkpoint policy, then pruned below version
   2, so its base is a forged snapshot. *)
let legacy_fixture =
  Filename.concat (Filename.dirname Sys.executable_name) "fixtures/legacy_pruned.tdst"

let legacy_records () =
  match Container.scan legacy_fixture with
  | Ok scan -> scan.Container.records
  | Error e -> Alcotest.fail (Container.error_to_string e)

(* The chain payloads of a 1-shard archive's records, unframed. *)
let shard_chain_records dir =
  match Container.scan (shard_path dir) with
  | Error e -> Alcotest.fail (Container.error_to_string e)
  | Ok scan ->
    List.map
      (fun (record : Container.record) ->
        let r = B.reader record.Container.payload in
        let d = B.read_string r in
        ignore (B.read_varint r);
        ( d,
          {
            record with
            Container.payload =
              String.sub record.Container.payload r.B.pos
                (String.length record.Container.payload - r.B.pos);
          } ))
      scan.Container.records

let test_migrate_fixture () =
  let dir = tmp_path "migrated" in
  let store, verified =
    ok_exn "migrate" (Shard.migrate ~doc:"legacy" ~legacy:legacy_fixture dir)
  in
  Alcotest.(check int) "every version verified" 5 verified;
  Alcotest.(check int) "one shard" 1 (Shard.shards store);
  Alcotest.(check (pair int int)) "the legacy checkpoint policy" (3, 512)
    (Shard.interval store, Shard.max_replay_ops store);
  let log = ok_exn "log" (Shard.log store "legacy") in
  Alcotest.(check (list int)) "version numbers survive" [ 2; 3; 4; 5; 6 ]
    (List.map (fun (e : Shard.entry) -> e.Shard.version) log);
  Alcotest.(check (list string)) "the pruned base and checkpoints survive"
    [ "snapshot"; "checkpoint"; "delta"; "delta"; "checkpoint" ]
    (List.map (fun (e : Shard.entry) -> Chain.kind_name e.Shard.kind) log);
  Alcotest.(check int) "the count is the next version" 7 (Shard.versions store "legacy");
  (* the chain payloads moved byte for byte *)
  let legacy = legacy_records () in
  let migrated = shard_chain_records dir in
  Alcotest.(check (list string)) "framed with the doc name"
    (List.map (fun _ -> "legacy") legacy)
    (List.map fst migrated);
  Alcotest.(check (list (pair char string))) "payloads byte-identical"
    (List.map (fun (r : Container.record) -> (r.Container.tag, r.Container.payload)) legacy)
    (List.map (fun (_, (r : Container.record)) -> (r.Container.tag, r.Container.payload)) migrated);
  (* every version verifies against its hash, before and after a reopen *)
  let reopened = ok_exn "reopen" (Shard.open_ dir) in
  List.iter
    (fun (e : Shard.entry) ->
      let t =
        ok_exn "materialize" (Shard.materialize ~verify:true reopened ~doc:"legacy" e.Shard.version)
      in
      Alcotest.(check int64) (Printf.sprintf "v%d hash" e.Shard.version) e.Shard.hash
        (Iso.hash t))
    log;
  (match Shard.materialize reopened ~doc:"legacy" 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a version below the legacy base materialized");
  Alcotest.(check bool) "scripts survive" true
    (Result.is_ok (Shard.script_of reopened ~doc:"legacy" 3));
  (* the migrated chain keeps growing *)
  let head = ok_exn "head" (Shard.materialize reopened ~doc:"legacy" 6) in
  let g = Prng.create 3 in
  let next, _ = Mutate.mutate g (Tree.gen ~start:1000 ()) head ~actions:2 in
  let e = ok_exn "commit" (Shard.commit reopened ~doc:"legacy" next) in
  Alcotest.(check int) "numbering continues" 7 e.Shard.version;
  (* a second migration into the same directory is refused *)
  (match Shard.migrate ~doc:"legacy" ~legacy:legacy_fixture dir with
  | Error msg -> Alcotest.(check bool) "refused" true (contains ~sub:"already" msg)
  | Ok _ -> Alcotest.fail "migrated over an existing archive");
  rm_rf dir

(* ---------------------------------------------------------------- env mode *)

(* Under `make store-tests` the armed TREEDIFF_FAULT spec stays live for the
   whole process.  Commits may crash or fail with typed errors; what must
   never happen is silent corruption: after every attempt the archive
   reopens and every surviving version materializes against its stored
   hash. *)
let test_env_sweep () =
  let spec = Option.value ~default:"" (Sys.getenv_opt Fault.env_var) in
  let dir = tmp_path "envsweep" in
  let g = Prng.create 77 in
  let gen = Tree.gen () in
  let tree = ref (Docgen.generate g gen Docgen.small) in
  (match Shard.init ~interval:2 ~shards:1 dir with
  | Error msg -> Alcotest.fail ("init: " ^ msg)
  | Ok store ->
    let store = ref store in
    for _attempt = 1 to 6 do
      (match Shard.commit !store ~doc !tree with
      | Ok _ | Error _ -> () (* a typed refusal is an acceptable outcome *)
      | exception Fault.Injected _ -> ()
      | exception Budget.Exceeded _ -> ());
      tree := fst (Mutate.mutate g gen !tree ~actions:4);
      match Shard.open_ dir with
      | Error msg -> Alcotest.fail (Printf.sprintf "[%s] reopen failed: %s" spec msg)
      | Ok reopened ->
        let log =
          if Shard.versions reopened doc = 0 then Ok []
          else Shard.log reopened doc
        in
        List.iter
          (fun (e : Shard.entry) ->
            match Shard.materialize ~verify:true reopened ~doc e.Shard.version with
            | Ok _ -> ()
            | Error msg ->
              Alcotest.fail
                (Printf.sprintf "[%s] version %d lost: %s" spec e.Shard.version msg)
            | exception Fault.Injected _ -> () (* a read-path fault is armed *)
            | exception Budget.Exceeded _ -> ())
          (ok_exn (Printf.sprintf "[%s] log" spec) log);
        store := reopened
    done);
  rm_rf dir

(* A migration under the armed fault leaves the whole legacy document or
   none of it: the chain is visible with every version, or not at all. *)
let test_env_sweep_migrate () =
  let spec = Option.value ~default:"" (Sys.getenv_opt Fault.env_var) in
  let dir = tmp_path "envmigrate" in
  (match Shard.migrate ~doc:"legacy" ~legacy:legacy_fixture dir with
  | Ok _ | Error _ -> ()
  | exception Fault.Injected _ -> ()
  | exception Budget.Exceeded _ -> ());
  if Shard.is_corpus dir then begin
    let store = ok_exn (Printf.sprintf "[%s] reopen" spec) (Shard.open_ dir) in
    match Shard.versions store "legacy" with
    | 0 -> ()
    | 7 ->
      Alcotest.(check (list int)) (Printf.sprintf "[%s] the whole chain" spec)
        [ 2; 3; 4; 5; 6 ]
        (List.map
           (fun (e : Shard.entry) -> e.Shard.version)
           (ok_exn "log" (Shard.log store "legacy")));
      (match Shard.verify ~jobs:1 store with
      | Ok n -> Alcotest.(check int) (Printf.sprintf "[%s] verified" spec) 5 n
      | Error msg -> Alcotest.fail (Printf.sprintf "[%s] corruption: %s" spec msg)
      | exception Fault.Injected _ -> () (* a read-path fault is armed *)
      | exception Budget.Exceeded _ -> ())
    | n -> Alcotest.fail (Printf.sprintf "[%s] %d versions visible (migration leaked)" spec n)
  end;
  rm_rf dir

(* -------------------------------------------------------------------- cli *)

let bin name =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit code, stdout and stderr of a shell command. *)
let run_full cmd =
  let out = Filename.temp_file "treediff_store_out" ".txt" in
  let err = Filename.temp_file "treediff_store_err" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s 2> %s" cmd out err) in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let run cmd =
  let code, stdout, _ = run_full cmd in
  (code, stdout)

let test_cli_store () =
  let t = bin "treediff_cli" in
  let arch = tmp_path "cli_archive" in
  let doc_file v contents =
    let path = tmp_path (Printf.sprintf "cli_v%d.sexp" v) in
    write_file path contents;
    path
  in
  (* enough shared leaves that the roots match at every commit — a
     dummy-rooted delta would make the 0→2 range non-composable *)
  let v0 =
    doc_file 0
      {|(D (P (S "alpha one") (S "beta two")) (P (S "gamma three") (S "delta four")) (P (S "epsilon five")))|}
  in
  let v1 =
    doc_file 1
      {|(D (P (S "alpha one") (S "beta two") (S "zeta six")) (P (S "gamma three") (S "delta four")) (P (S "epsilon five")))|}
  in
  let v2 =
    doc_file 2
      {|(D (P (S "alpha one") (S "beta two revised") (S "zeta six")) (P (S "gamma three") (S "delta four")) (P (S "epsilon five") (S "eta seven")))|}
  in
  let code, out = run (Printf.sprintf "%s store init %s --interval 2" t arch) in
  Alcotest.(check int) "init exit 0" 0 code;
  Alcotest.(check bool) "one shard by default" true (contains ~sub:"1 shard," out);
  (* per-document verbs name their document *)
  let code, _ = run (Printf.sprintf "%s store commit %s %s" t arch v0) in
  Alcotest.(check bool) "commit without --doc refused" true (code <> 0);
  List.iter
    (fun f ->
      let code, out = run (Printf.sprintf "%s store commit %s %s --doc d" t arch f) in
      Alcotest.(check int) "commit exit 0" 0 code;
      Alcotest.(check bool) "commit reports a version" true
        (contains ~sub:"committed version" out))
    [ v0; v1; v2 ];
  let code, out = run (Printf.sprintf "%s store log %s --doc d" t arch) in
  Alcotest.(check int) "log exit 0" 0 code;
  Alcotest.(check bool) "log lists the snapshot" true (contains ~sub:"snapshot" out);
  let code, out = run (Printf.sprintf "%s store log %s" t arch) in
  Alcotest.(check int) "catalog log exit 0" 0 code;
  Alcotest.(check bool) "catalog lists the doc" true (contains ~sub:"d  " out);
  let code, out = run (Printf.sprintf "%s store materialize %s 2 --doc d --verify" t arch) in
  Alcotest.(check int) "materialize exit 0" 0 code;
  Alcotest.(check bool) "materialized the v2 update" true
    (contains ~sub:"revised" out);
  let code, out = run (Printf.sprintf "%s store show %s 1 --doc d" t arch) in
  Alcotest.(check int) "show exit 0" 0 code;
  Alcotest.(check bool) "show prints ops" true (contains ~sub:"INS(" out);
  (* composed diff checks out against id-preserving (bin) materializations *)
  let s = tmp_path "cli.script" in
  let m0 = tmp_path "cli_m0.bin" and m2 = tmp_path "cli_m2.bin" in
  let code, _ =
    run (Printf.sprintf "%s store diff %s --doc d --from 0 --to 2 -o %s" t arch s)
  in
  Alcotest.(check int) "diff exit 0" 0 code;
  let code, _ =
    run (Printf.sprintf "%s store materialize %s 0 --doc d -f bin -o %s" t arch m0)
  in
  Alcotest.(check int) "materialize bin exit 0" 0 code;
  let code, _ =
    run (Printf.sprintf "%s store materialize %s 2 --doc d -f bin -o %s" t arch m2)
  in
  Alcotest.(check int) "materialize bin exit 0" 0 code;
  let code, _ = run (Printf.sprintf "%s check -f bin %s %s --script %s" t m0 m2 s) in
  Alcotest.(check int) "composed script passes the checker" 0 code;
  let code, _ = run (Printf.sprintf "%s store gc %s --prune-before 1" t arch) in
  Alcotest.(check bool) "prune without --doc refused" true (code <> 0);
  let code, out =
    run (Printf.sprintf "%s store gc %s --doc d --prune-before 1" t arch)
  in
  Alcotest.(check int) "gc exit 0" 0 code;
  Alcotest.(check bool) "gc reports sizes" true (contains ~sub:"compacted" out);
  let code, _ = run (Printf.sprintf "%s store materialize %s 0 --doc d" t arch) in
  Alcotest.(check bool) "pruned version refused" true (code <> 0);
  let code, _ = run (Printf.sprintf "%s store materialize %s 2 --doc d --verify" t arch) in
  Alcotest.(check int) "surviving version fine" 0 code;
  let code, out = run (Printf.sprintf "%s store verify %s" t arch) in
  Alcotest.(check int) "pruned archive verifies" 0 code;
  Alcotest.(check bool) "from its base" true (contains ~sub:"verified 2 version" out);
  List.iter rm_rf [ arch; v0; v1; v2; s; m0; m2 ]

(* A commit that renames the root leaves the roots unmatched, so its delta
   is written against the §4.1 dummy root.  [Shard.script_of] returns that
   dummy with the ops, and [store show] prints it as the script's ROOT line:
   the printed body replays on version 0 (id-preserving) to version 1. *)
let test_cli_store_show_root_change () =
  let t = bin "treediff_cli" in
  let arch = tmp_path "cli_root_archive" in
  let v0 = tmp_path "cli_root_v0.sexp" and v1 = tmp_path "cli_root_v1.sexp" in
  write_file v0 {|(D (P (S "alpha one") (S "beta two")) (P (S "gamma three")))|};
  write_file v1 {|(E (P (S "alpha one") (S "beta two")) (P (S "gamma three")))|};
  let ok what cmd =
    let code, out = run cmd in
    Alcotest.(check int) (what ^ " exit 0") 0 code;
    out
  in
  ignore (ok "init" (Printf.sprintf "%s store init %s" t arch));
  List.iter
    (fun f -> ignore (ok "commit" (Printf.sprintf "%s store commit %s %s --doc d" t arch f)))
    [ v0; v1 ];
  let store = ok_exn "open" (Shard.open_ arch) in
  let dummy, ops = ok_exn "script_of" (Shard.script_of store ~doc:"d" 1) in
  Alcotest.(check bool) "the root-change delta is dummy-rooted" true (dummy <> None);
  let out = ok "show" (Printf.sprintf "%s store show %s 1 --doc d" t arch) in
  let nl = String.index out '\n' in
  let body = String.sub out (nl + 1) (String.length out - nl - 1) in
  Alcotest.(check string) "show prints the ROOT line and the ops"
    (Treediff_edit.Script_io.to_string ?dummy ops) body;
  let script = tmp_path "cli_root.script" in
  write_file script body;
  let m0 = tmp_path "cli_root_m0.bin" and out_bin = tmp_path "cli_root_out.bin" in
  ignore (ok "materialize" (Printf.sprintf "%s store materialize %s 0 --doc d -f bin -o %s" t arch m0));
  ignore (ok "apply" (Printf.sprintf "%s apply -f bin %s %s -o %s" t m0 script out_bin));
  let replayed =
    ok_exn "decode" (Result.map_error Codec.decode_error_to_string (Codec.decode (read_file out_bin)))
  in
  let expected = ok_exn "materialize 1" (Shard.materialize store ~doc:"d" 1) in
  Alcotest.(check bool) "the shown script replays to version 1" true (Iso.equal replayed expected);
  List.iter rm_rf [ arch; v0; v1; script; m0; out_bin ]

let test_cli_store_fault_env () =
  let t = bin "treediff_cli" in
  let arch = tmp_path "cli_fault" in
  let v0 = tmp_path "cli_fault_v0.sexp" in
  write_file v0 {|(D (P (S "a") (S "b")))|};
  let code, _ = run (Printf.sprintf "%s store init %s" t arch) in
  Alcotest.(check int) "init exit 0" 0 code;
  let code, _ =
    run
      (Printf.sprintf "TREEDIFF_FAULT=store.append:raise %s store commit %s %s --doc d" t
         arch v0)
  in
  Alcotest.(check int) "injected crash exits 4" 4 code;
  (* the interrupted archive still opens, with the damage reported *)
  let code, _ = run (Printf.sprintf "%s store log %s" t arch) in
  Alcotest.(check int) "log exit 0 after crash" 0 code;
  let code, out = run (Printf.sprintf "%s store commit %s %s --doc d" t arch v0) in
  Alcotest.(check int) "recovery commit exit 0" 0 code;
  Alcotest.(check bool) "recovered as version 0" true
    (contains ~sub:"committed version 0" out);
  List.iter rm_rf [ arch; v0 ]

(* A commit whose End record is torn leaves an aborted commit; the next
   open warns about it in plain text that names the command to run. *)
let test_cli_aborted_warning () =
  let t = bin "treediff_cli" in
  let arch = tmp_path "cli_aborted" in
  let v0 = tmp_path "cli_aborted_v0.sexp" in
  write_file v0 {|(D (P (S "a") (S "b")))|};
  let code, _ = run (Printf.sprintf "%s store init %s" t arch) in
  Alcotest.(check int) "init exit 0" 0 code;
  let code, _ =
    run
      (Printf.sprintf "TREEDIFF_FAULT=store.manifest:raise@2 %s store commit %s %s --doc d"
         t arch v0)
  in
  Alcotest.(check int) "torn End exits 4" 4 code;
  let code, _, err = run_full (Printf.sprintf "%s store log %s" t arch) in
  Alcotest.(check int) "log exit 0" 0 code;
  Alcotest.(check bool) ("warning names the gc command: " ^ err) true
    (contains ~sub:"treediff store gc" err);
  Alcotest.(check bool) ("no raw markup: " ^ err) false (contains ~sub:"$(" err);
  List.iter rm_rf [ arch; v0 ]

let test_cli_migrate () =
  let t = bin "treediff_cli" in
  let dir = tmp_path "cli_migrated" in
  let code, _, err = run_full (Printf.sprintf "%s store log %s" t legacy_fixture) in
  Alcotest.(check int) "a legacy file is a store-level error" 1 code;
  Alcotest.(check bool) ("the error names migrate: " ^ err) true
    (contains ~sub:"treediff store migrate" err);
  let code, _ = run (Printf.sprintf "%s store migrate %s %s" t legacy_fixture dir) in
  Alcotest.(check bool) "migrate without --doc refused" true (code <> 0);
  let code, out =
    run (Printf.sprintf "%s store migrate %s %s --doc notes" t legacy_fixture dir)
  in
  Alcotest.(check int) "migrate exit 0" 0 code;
  Alcotest.(check bool) ("reports the verified versions: " ^ out) true
    (contains ~sub:"5 version(s) of notes verified" out);
  let code, out = run (Printf.sprintf "%s store log %s --doc notes" t dir) in
  Alcotest.(check int) "log exit 0" 0 code;
  Alcotest.(check bool) "the pruned base survives" true
    (contains ~sub:"2        snapshot" out);
  let code, out = run (Printf.sprintf "%s store show %s 3 --doc notes" t dir) in
  Alcotest.(check int) "show exit 0" 0 code;
  Alcotest.(check bool) "the stored script survives" true (contains ~sub:"INS(" out);
  let code, _ = run (Printf.sprintf "%s store verify %s" t dir) in
  Alcotest.(check int) "verify exit 0" 0 code;
  rm_rf dir

(* ------------------------------------------------------------------- main *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  match Sys.getenv_opt Fault.env_var with
  | Some s when s <> "" ->
    Alcotest.run "store(env)"
      [
        ( "env-sweep",
          [
            quick ("armed " ^ s) test_env_sweep;
            quick ("migrate armed " ^ s) test_env_sweep_migrate;
          ] );
      ]
  | _ ->
    Alcotest.run "store"
      [
        ( "binio",
          [
            quick "varint round-trip and refusals" test_binio_varint;
            quick "i64 and strings" test_binio_i64_string;
            quick "fnv-1a vectors" test_binio_fnv;
          ] );
        ( "binary-codec",
          [
            quick "id-preserving round-trip x40" test_codec_roundtrip;
            quick "magic, version and corruption refusals" test_codec_refusals;
            quick "iso hash" test_iso_hash;
          ] );
        ( "algebra",
          [
            quick "invert round-trips x150" test_invert_property;
            quick "compose ≡ sequential application x150" test_compose_property;
            quick "invert unit inverse ops" test_invert_units;
            quick "compose fusion units" test_compose_units;
            quick "compose id-collision remap" test_compose_id_collision;
            quick "apply and Apply_error" test_apply_errors;
          ] );
        ( "store",
          [
            quick "commit/materialize round-trip, checkpoints" test_store_roundtrip;
            quick "diff_between composes and verifies" test_store_diff_between;
            quick "magic/version/clobber refusals" test_store_refusals;
            quick "gc and prune" test_store_gc;
            quick "materialize under budget" test_store_budget;
          ] );
        ( "crash",
          [
            quick "mid-append crash isolates the tail" test_crash_mid_append;
            quick "pre-write crash leaves no trace" test_crash_before_write;
          ] );
        ( "migrate",
          [
            quick "legacy fixture: versions, base, payloads, hashes"
              test_migrate_fixture;
          ] );
        ( "cli",
          [
            quick "store end-to-end" test_cli_store;
            quick "show a root-renaming commit, then apply it" test_cli_store_show_root_change;
            quick "TREEDIFF_FAULT crash and recovery" test_cli_store_fault_env;
            quick "aborted-commit warning names store gc" test_cli_aborted_warning;
            quick "migrate a legacy file" test_cli_migrate;
          ] );
      ]
