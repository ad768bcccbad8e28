(* The sharded corpus store: hash-bucketed shard files behind a write-ahead
   manifest.  Round-trips, atomic multi-document commits, snapshot-isolated
   readers, deterministic parallel ingest (byte-identical corpus whatever
   the job count), crash recovery through the manifest, gc, and the
   per-shard record index checked against a full-scan reference.

   When TREEDIFF_FAULT is set (the `make store-tests` sweep), only the
   env-sweep suite runs: after every commit/ingest attempt under the armed
   fault, the corpus must reopen and every surviving version must verify
   against its stored hash — a crash may lose the in-flight commit, never
   committed history. *)

module Budget = Treediff_util.Budget
module Fault = Treediff_util.Fault
module Exec = Treediff_util.Exec
module Prng = Treediff_util.Prng
module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Diff = Treediff.Diff
module Binio = Treediff_util.Binio
module Shard = Treediff_store.Shard
module Chain = Treediff_store.Chain
module Container = Treediff_store.Container
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate

let tmp_dir =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "treediff_corpus_test_%d_%d_%s" (Unix.getpid ()) !n suffix)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let ok_exn what = function
  | Ok v -> v
  | Error msg -> Alcotest.fail (what ^ ": " ^ msg)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* A deterministic lineage per document: same seed, same trees. *)
let lineage ~seed n =
  let g = Prng.create seed in
  let gen = Tree.gen () in
  let first = Docgen.generate g gen Docgen.small in
  let rec grow acc doc k =
    if k = 0 then List.rev acc
    else
      let doc', _ = Mutate.mutate g gen doc ~actions:4 in
      grow (doc' :: acc) doc' (k - 1)
  in
  grow [ first ] first (n - 1)

let sources ~docs ~versions =
  List.init docs (fun i ->
      let name = Printf.sprintf "doc-%03d" i in
      let line = Array.of_list (lineage ~seed:(1000 + i) versions) in
      {
        Shard.name;
        count = Array.length line;
        load = (fun v -> Ok line.(v));
      })

let corpus_digest dir =
  let entries = List.sort compare (Array.to_list (Sys.readdir dir)) in
  List.map
    (fun e -> (e, Digest.to_hex (Digest.file (Filename.concat dir e))))
    entries

let arm t spec =
  let faults = Exec.faults (Shard.exec t) in
  (match Fault.parse_spec spec with
  | Ok s -> Fault.arm_one faults (Some s)
  | Error e -> Alcotest.fail e);
  faults

let with_fault t spec f =
  let faults = arm t spec in
  Fun.protect ~finally:(fun () -> Fault.disarm faults) f

(* -------------------------------------------------------------- round-trip *)

let test_corpus_roundtrip () =
  let dir = tmp_dir "roundtrip" in
  let corpus = ok_exn "init" (Shard.init ~interval:3 ~shards:4 dir) in
  let lineages =
    List.init 6 (fun i ->
        (Printf.sprintf "doc-%d" i, lineage ~seed:(100 + i) 5))
  in
  (* Interleave commits across documents, the way real traffic arrives. *)
  for v = 0 to 4 do
    List.iter
      (fun (doc, line) ->
        let e = ok_exn "commit" (Shard.commit corpus ~doc (List.nth line v)) in
        Alcotest.(check int) "version number" v e.Shard.version)
      lineages
  done;
  Alcotest.(check int) "doc count" 6 (Shard.doc_count corpus);
  Alcotest.(check int) "total versions" 30 (Shard.total_versions corpus);
  Alcotest.(check (list string)) "docs sorted"
    (List.sort compare (List.map fst lineages))
    (Shard.docs corpus);
  (* every version of every doc materializes, verified, from both the live
     handle and a fresh reopen *)
  let check_all corpus =
    List.iter
      (fun (doc, line) ->
        List.iteri
          (fun v expected ->
            let got =
              ok_exn "materialize" (Shard.materialize ~verify:true corpus ~doc v)
            in
            if not (Iso.equal got expected) then
              Alcotest.fail (Printf.sprintf "%s v%d differs" doc v))
          line)
      lineages
  in
  check_all corpus;
  let reopened = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check int) "reopen sees all" 30 (Shard.total_versions reopened);
  Alcotest.(check (list int)) "no aborted commits" []
    (Shard.aborted_commits reopened);
  check_all reopened;
  Alcotest.(check int) "verify count" 30 (ok_exn "verify" (Shard.verify ~jobs:2 reopened));
  (* per-doc log and diff_between *)
  let doc, _ = List.hd lineages in
  let log = ok_exn "log" (Shard.log reopened doc) in
  Alcotest.(check int) "log length" 5 (List.length log);
  (match List.hd log with
  | { Shard.kind = Chain.Snapshot; version = 0; _ } -> ()
  | _ -> Alcotest.fail "version 0 is not a snapshot");
  (* documents land in their hash bucket, not all in one shard *)
  let buckets =
    List.sort_uniq compare
      (List.map (fun (d, _) -> Shard.shard_of reopened d) lineages)
  in
  Alcotest.(check bool) "docs spread over shards" true (List.length buckets > 1);
  rm_rf dir

let test_corpus_refusals () =
  let dir = tmp_dir "refusals" in
  (match Shard.init ~shards:0 dir with
  | Error msg -> Alcotest.(check bool) "shards=0 refused" true (contains ~sub:"shard" msg)
  | Ok _ -> Alcotest.fail "shards=0 accepted");
  let corpus = ok_exn "init" (Shard.init ~shards:2 dir) in
  (match Shard.init ~shards:2 dir with
  | Error msg -> Alcotest.(check bool) "re-init refused" true (contains ~sub:"already" msg)
  | Ok _ -> Alcotest.fail "clobbered an existing corpus");
  (match Shard.materialize corpus ~doc:"ghost" 0 with
  | Error msg -> Alcotest.(check bool) "unknown doc" true (contains ~sub:"ghost" msg)
  | Ok _ -> Alcotest.fail "materialized a ghost");
  (match Shard.open_ (tmp_dir "nothere") with
  | Error msg -> Alcotest.(check bool) "not a corpus" true (contains ~sub:"corpus" msg)
  | Ok _ -> Alcotest.fail "opened a non-corpus");
  let line = lineage ~seed:7 2 in
  (match Shard.commit_many corpus
           [ ("dup", List.hd line); ("dup", List.nth line 1) ]
   with
  | Error msg -> Alcotest.(check bool) "dup batch refused" true (contains ~sub:"once" msg)
  | Ok _ -> Alcotest.fail "batch committed one doc twice");
  rm_rf dir

(* ------------------------------------------------------- atomic batches *)

let test_commit_many () =
  let dir = tmp_dir "batch" in
  let corpus = ok_exn "init" (Shard.init ~shards:3 dir) in
  let lines = List.init 4 (fun i -> lineage ~seed:(200 + i) 2) in
  let epoch0 = Shard.epoch corpus in
  let batch0 =
    List.mapi (fun i line -> (Printf.sprintf "d%d" i, List.hd line)) lines
  in
  let entries = ok_exn "batch commit" (Shard.commit_many corpus batch0) in
  Alcotest.(check int) "all committed" 4 (List.length entries);
  Alcotest.(check int) "one commit, one epoch" (epoch0 + 1) (Shard.epoch corpus);
  let batch1 =
    List.mapi (fun i line -> (Printf.sprintf "d%d" i, List.nth line 1)) lines
  in
  ignore (ok_exn "batch commit 2" (Shard.commit_many corpus batch1));
  Alcotest.(check int) "8 versions" 8 (Shard.total_versions corpus);
  Alcotest.(check int) "verified" 8 (ok_exn "verify" (Shard.verify ~jobs:1 corpus));
  rm_rf dir

(* ---------------------------------------------------- snapshot isolation *)

let test_snapshot_isolation () =
  let dir = tmp_dir "snapshot" in
  let corpus = ok_exn "init" (Shard.init ~shards:2 dir) in
  let line = lineage ~seed:31 4 in
  ignore (ok_exn "commit" (Shard.commit corpus ~doc:"a" (List.hd line)));
  ignore (ok_exn "commit" (Shard.commit corpus ~doc:"a" (List.nth line 1)));
  let snap = Shard.snapshot corpus in
  Alcotest.(check int) "snapshot sees 2 versions" 2 (Shard.snapshot_versions snap "a");
  (* writers advance; the snapshot must not move *)
  ignore (ok_exn "commit" (Shard.commit corpus ~doc:"a" (List.nth line 2)));
  ignore (ok_exn "commit" (Shard.commit corpus ~doc:"b" (List.nth line 3)));
  Alcotest.(check int) "live handle sees 3" 3 (Shard.versions corpus "a");
  Alcotest.(check int) "snapshot still sees 2" 2 (Shard.snapshot_versions snap "a");
  Alcotest.(check int) "snapshot does not see doc b" 0
    (Shard.snapshot_versions snap "b");
  Alcotest.(check (list string)) "snapshot docs frozen" [ "a" ]
    (Shard.snapshot_docs snap);
  let at_snap =
    ok_exn "snapshot materialize" (Shard.snapshot_materialize ~verify:true snap ~doc:"a" 1)
  in
  if not (Iso.equal at_snap (List.nth line 1)) then
    Alcotest.fail "snapshot materialized the wrong head";
  (match Shard.snapshot_materialize snap ~doc:"a" 2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "snapshot saw a version committed after it");
  Alcotest.(check bool) "epoch advanced past snapshot" true
    (Shard.epoch corpus > Shard.snapshot_epoch snap);
  rm_rf dir

(* ------------------------------------------------------------- ingest *)

let test_ingest_deterministic () =
  let srcs () = sources ~docs:8 ~versions:6 in
  let load dir jobs =
    let corpus = ok_exn "init" (Shard.init ~interval:3 ~shards:4 dir) in
    let report =
      ok_exn "ingest" (Shard.ingest ~jobs ~chunk_docs:3 corpus (srcs ()))
    in
    Alcotest.(check int) "all ingested" 8 report.Shard.docs_ingested;
    Alcotest.(check int) "versions appended" 48 report.Shard.versions_appended;
    Alcotest.(check (list (pair string string))) "no failures" []
      report.Shard.docs_failed;
    Alcotest.(check int) "3 chunks" 3 report.Shard.chunks;
    corpus
  in
  let dir1 = tmp_dir "ingest_j1" and dir2 = tmp_dir "ingest_j2" in
  let c1 = load dir1 1 in
  let _c2 = load dir2 2 in
  (* the acceptance bar: corpus bytes identical whatever the job count *)
  Alcotest.(check (list (pair string string))) "byte-identical corpora"
    (corpus_digest dir1) (corpus_digest dir2);
  Alcotest.(check int) "verified" 48 (ok_exn "verify" (Shard.verify ~jobs:2 c1));
  (* re-running the same ingest is a no-op: resume skips complete docs *)
  let again = ok_exn "re-ingest" (Shard.ingest ~jobs:1 c1 (srcs ())) in
  Alcotest.(check int) "nothing re-ingested" 0 again.Shard.docs_ingested;
  Alcotest.(check int) "all skipped" 8 again.Shard.docs_skipped;
  Alcotest.(check (list (pair string string))) "resume left bytes alone"
    (corpus_digest dir1) (corpus_digest dir2);
  rm_rf dir1;
  rm_rf dir2

let test_ingest_budget_skips_doc () =
  let dir = tmp_dir "ingest_budget" in
  let corpus = ok_exn "init" (Shard.init ~shards:2 dir) in
  (* a 0ms budget trips during the first diff of every multi-version doc *)
  let report =
    ok_exn "ingest"
      (Shard.ingest ~jobs:1 ~budget_ms:0.0 corpus (sources ~docs:3 ~versions:4))
  in
  Alcotest.(check int) "every doc failed its budget" 3
    (List.length report.Shard.docs_failed);
  List.iter
    (fun (_, msg) ->
      Alcotest.(check bool) "budget error is typed" true
        (contains ~sub:"deadline" msg || contains ~sub:"budget" msg))
    report.Shard.docs_failed;
  (* nothing half-landed: the corpus is empty and consistent *)
  Alcotest.(check int) "no versions" 0 (Shard.total_versions corpus);
  Alcotest.(check int) "verify empty" 0 (ok_exn "verify" (Shard.verify ~jobs:1 corpus));
  (* without the budget the same ingest completes *)
  let report =
    ok_exn "re-ingest" (Shard.ingest ~jobs:1 corpus (sources ~docs:3 ~versions:4))
  in
  Alcotest.(check int) "recovered" 3 report.Shard.docs_ingested;
  rm_rf dir

(* ------------------------------------------------------- crash recovery *)

(* A fault mid-manifest-append: the write-ahead record is torn.  The
   corpus must reopen with the in-flight commit lost and history intact. *)
let test_crash_manifest_append () =
  let dir = tmp_dir "crash_manifest" in
  let corpus = ok_exn "init" (Shard.init ~shards:2 dir) in
  let line = lineage ~seed:51 3 in
  ignore (ok_exn "commit" (Shard.commit corpus ~doc:"a" (List.hd line)));
  ignore (ok_exn "commit" (Shard.commit corpus ~doc:"a" (List.nth line 1)));
  (* the Begin of the third commit dies mid-write *)
  (match
     with_fault corpus "store.manifest:raise" (fun () ->
         Shard.commit corpus ~doc:"a" (List.nth line 2))
   with
  | exception Fault.Injected _ -> ()
  | Ok _ -> Alcotest.fail "commit survived the injected manifest crash"
  | Error msg -> Alcotest.fail ("typed error instead of a crash: " ^ msg));
  let reopened = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check bool) "manifest tail damage detected" true
    (Shard.manifest_truncated reopened);
  Alcotest.(check int) "in-flight commit lost, history kept" 2
    (Shard.versions reopened "a");
  Alcotest.(check int) "history verifies" 2
    (ok_exn "verify" (Shard.verify ~jobs:1 reopened));
  (* recovery needs no manual repair: the next commit just works *)
  let e = ok_exn "recommit" (Shard.commit reopened ~doc:"a" (List.nth line 2)) in
  Alcotest.(check int) "recommitted as version 2" 2 e.Shard.version;
  Alcotest.(check int) "all verify" 3 (ok_exn "verify" (Shard.verify ~jobs:1 reopened));
  rm_rf dir

(* A fault between Begin and End: the shard append crashes, leaving a
   Begin without its End plus torn shard bytes.  On reopen the sequence is
   reported aborted, the orphan bytes are invisible, and gc reclaims them. *)
let test_crash_between_begin_and_end () =
  let dir = tmp_dir "crash_shard" in
  let corpus = ok_exn "init" (Shard.init ~shards:2 dir) in
  let lines = List.init 3 (fun i -> lineage ~seed:(300 + i) 2) in
  let batch v = List.mapi (fun i l -> (Printf.sprintf "d%d" i, List.nth l v)) lines in
  ignore (ok_exn "batch 0" (Shard.commit_many corpus (batch 0)));
  (* the second batch dies inside a shard append *)
  (match
     with_fault corpus "store.append:raise" (fun () ->
         Shard.commit_many corpus (batch 1))
   with
  | exception Fault.Injected _ -> ()
  | Ok _ -> Alcotest.fail "batch survived the injected shard crash"
  | Error msg -> Alcotest.fail ("typed error instead of a crash: " ^ msg));
  let reopened = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check int) "aborted commit reported" 1
    (List.length (Shard.aborted_commits reopened));
  List.iter
    (fun (doc, _) ->
      Alcotest.(check int) (doc ^ " kept only the committed version") 1
        (Shard.versions reopened doc))
    (batch 0);
  Alcotest.(check int) "committed history verifies" 3
    (ok_exn "verify" (Shard.verify ~jobs:1 reopened));
  (* the batch retries cleanly — duplicate (doc, version) records may now
     exist and the last one must win *)
  ignore (ok_exn "retry" (Shard.commit_many reopened (batch 1)));
  Alcotest.(check int) "all committed after retry" 6
    (ok_exn "verify" (Shard.verify ~jobs:1 reopened));
  (* gc reclaims the aborted debris *)
  let before, after = ok_exn "gc" (Shard.gc ~jobs:2 reopened) in
  Alcotest.(check bool) "gc shrank the corpus" true (after < before);
  Alcotest.(check (list int)) "aborted list cleared" []
    (Shard.aborted_commits reopened);
  Alcotest.(check int) "everything survives gc" 6
    (ok_exn "verify" (Shard.verify ~jobs:1 reopened));
  let reopened2 = ok_exn "reopen after gc" (Shard.open_ dir) in
  Alcotest.(check (list int)) "gc checkpoint dropped aborted seqs" []
    (Shard.aborted_commits reopened2);
  Alcotest.(check int) "verifies after reopen" 6
    (ok_exn "verify" (Shard.verify ~jobs:1 reopened2));
  rm_rf dir

let test_fault_shard_lock () =
  let dir = tmp_dir "shard_lock" in
  let corpus = ok_exn "init" (Shard.init ~shards:2 dir) in
  let line = lineage ~seed:71 2 in
  ignore (ok_exn "commit" (Shard.commit corpus ~doc:"a" (List.hd line)));
  (match
     with_fault corpus "store.shard_lock:raise" (fun () ->
         Shard.commit corpus ~doc:"a" (List.nth line 1))
   with
  | exception Fault.Injected _ -> ()
  | _ -> Alcotest.fail "commit survived the injected lock fault");
  let reopened = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check int) "nothing landed" 1 (Shard.versions reopened "a");
  Alcotest.(check int) "verifies" 1 (ok_exn "verify" (Shard.verify ~jobs:1 reopened));
  ignore (ok_exn "recommit" (Shard.commit reopened ~doc:"a" (List.nth line 1)));
  Alcotest.(check int) "recovered" 2 (ok_exn "verify" (Shard.verify ~jobs:1 reopened));
  rm_rf dir

(* ------------------------------------------------------- record index *)

let shard_file dir t doc =
  Filename.concat dir (Printf.sprintf "shard-%04d.tdst" (Shard.shard_of t doc))

(* The reference chain load: one full scan of the shard, the records of
   [doc] below [upto], the last in file order winning for each version. *)
let reference_chain path ~doc ~upto =
  match Container.scan path with
  | Error e -> Error (Container.error_to_string e)
  | Ok scan ->
    let best = Hashtbl.create 16 in
    List.iter
      (fun (record : Container.record) ->
        if Chain.known_tag record.Container.tag then begin
          let r = Binio.reader record.Container.payload in
          let d = Binio.read_string r in
          ignore (Binio.read_varint r);
          let chain_off = r.Binio.pos in
          let version = Binio.read_varint r in
          if d = doc && version < upto then
            Hashtbl.replace best version
              {
                record with
                Container.payload =
                  String.sub record.Container.payload chain_off
                    (String.length record.Container.payload - chain_off);
              }
        end)
      scan.Container.records;
    let rec collect v acc =
      if v < 0 then Ok acc
      else
        match Hashtbl.find_opt best v with
        | None -> Error (Printf.sprintf "%s v%d missing" doc v)
        | Some record ->
          Result.bind (Chain.parse_record record) @@ fun p -> collect (v - 1) (p :: acc)
    in
    Result.bind (collect (upto - 1) []) Chain.validate

let reference_materialize path ~doc ~upto v =
  Result.bind (reference_chain path ~doc ~upto) @@ fun entries ->
  Chain.materialize ~verify:true ~exec:(Exec.create ()) entries v

let outcome = function Ok tree -> Some (Iso.hash tree) | Error _ -> None

(* Every version of every document, through a handle's chain loads and a
   fresh snapshot, must equal the reference fold over the shard file. *)
let check_against_reference ~what dir t =
  let snap = Shard.snapshot t in
  List.iter
    (fun doc ->
      let upto = Shard.versions t doc in
      for v = 0 to upto - 1 do
        let expected =
          outcome (reference_materialize (shard_file dir t doc) ~doc ~upto v)
        in
        let label via = Printf.sprintf "%s: %s %s v%d" what via doc v in
        Alcotest.(check (option int64)) (label "materialize") expected
          (outcome (Shard.materialize ~verify:true t ~doc v));
        Alcotest.(check (option int64)) (label "snapshot") expected
          (outcome (Shard.snapshot_materialize ~verify:true snap ~doc v))
      done)
    (Shard.docs t)

let append_garbage path =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc "D\x40torn";
  close_out oc

let test_index_vs_reference () =
  let dir = tmp_dir "index_ref" in
  let t = ok_exn "init" (Shard.init ~interval:2 ~shards:2 dir) in
  let lines = List.init 5 (fun i -> lineage ~seed:(900 + i) 5) in
  let batch v = List.mapi (fun i l -> (Printf.sprintf "d%d" i, List.nth l v)) lines in
  ignore (ok_exn "batch 0" (Shard.commit_many t (batch 0)));
  ignore (ok_exn "batch 1" (Shard.commit_many t (batch 1)));
  (* version 2 first goes out with batch 4's trees and its End is torn
     after the records landed; the retry on the same handle commits batch
     2, leaving a second, different record for every (doc, 2) *)
  (match
     with_fault t "store.manifest:raise@2" (fun () -> Shard.commit_many t (batch 4))
   with
  | exception Fault.Injected _ -> ()
  | _ -> Alcotest.fail "batch 2 survived its torn End");
  ignore (ok_exn "batch 2 retried" (Shard.commit_many t (batch 2)));
  (* batch 3 dies inside its second shard append: a Begin without End,
     one invisible record and a torn record *)
  (match
     with_fault t "store.append:raise@2" (fun () -> Shard.commit_many t (batch 3))
   with
  | exception Fault.Injected _ -> ()
  | _ -> Alcotest.fail "batch 3 survived the injected shard crash");
  Alcotest.(check int) "appended index matches a fresh scan" 15
    (ok_exn "verify live" (Shard.verify ~jobs:1 t));
  check_against_reference ~what:"live" dir t;
  for s = 0 to Shard.shards t - 1 do
    append_garbage (Filename.concat dir (Printf.sprintf "shard-%04d.tdst" s))
  done;
  let t = ok_exn "reopen" (Shard.open_ dir) in
  Alcotest.(check bool) "aborted commits reported" true (Shard.aborted_commits t <> []);
  check_against_reference ~what:"reopened" dir t;
  ignore (ok_exn "batch 3 retried" (Shard.commit_many t (batch 3)));
  ignore (ok_exn "batch 4" (Shard.commit_many t (batch 4)));
  List.iteri
    (fun i l ->
      let doc = Printf.sprintf "d%d" i in
      Alcotest.(check int64) (doc ^ " v2 is the retry's tree") (Iso.hash (List.nth l 2))
        (Iso.hash (ok_exn "v2" (Shard.materialize t ~doc 2))))
    lines;
  check_against_reference ~what:"after retry" dir t;
  let before, after = ok_exn "gc" (Shard.gc ~jobs:2 t) in
  Alcotest.(check bool) "gc reclaimed the debris" true (after < before);
  check_against_reference ~what:"after gc" dir t;
  Alcotest.(check int) "gc's index matches a fresh scan" 25
    (ok_exn "verify after gc" (Shard.verify ~jobs:1 t));
  check_against_reference ~what:"reopened after gc" dir
    (ok_exn "reopen after gc" (Shard.open_ dir));
  rm_rf dir

(* A record wider than the index's packed length field (4 MiB) keeps its
   length aside; loads, gc and the fresh-scan cross-check see it alike. *)
let test_index_long_record () =
  let dir = tmp_dir "index_long" in
  let t = ok_exn "init" (Shard.init ~shards:1 dir) in
  let big =
    Treediff_tree.Codec.parse (Tree.gen ())
      (Printf.sprintf {|(D (P (S "%s")) (P (S "tail")))|} (String.make (5 lsl 20) 'x'))
  in
  let small = List.hd (lineage ~seed:5 1) in
  ignore (ok_exn "commit small" (Shard.commit t ~doc:"small" small));
  ignore (ok_exn "commit big" (Shard.commit t ~doc:"big" big));
  ignore (ok_exn "commit small again" (Shard.commit t ~doc:"small2" small));
  let check t what =
    Alcotest.(check int) (what ^ ": verify") 3 (ok_exn "verify" (Shard.verify ~jobs:1 t));
    let snap = Shard.snapshot t in
    List.iter
      (fun (doc, tree) ->
        Alcotest.(check int64) (what ^ ": " ^ doc) (Iso.hash tree)
          (Iso.hash (ok_exn "snapshot read" (Shard.snapshot_materialize snap ~doc 0))))
      [ ("big", big); ("small", small); ("small2", small) ]
  in
  check t "live";
  check (ok_exn "reopen" (Shard.open_ dir)) "reopened";
  ignore (ok_exn "gc" (Shard.gc ~jobs:1 t));
  check t "after gc";
  rm_rf dir

(* One byte flipped inside a record after the index was built: the cold
   load reports the checksum and does not raise; a reopen then applies the
   scan rule, where the damaged record poisons the rest of the shard. *)
let test_index_hostile_bytes () =
  let dir = tmp_dir "index_hostile" in
  let t = ok_exn "init" (Shard.init ~shards:1 dir) in
  let lines = List.init 6 (fun i -> lineage ~seed:(950 + i) 3) in
  for v = 0 to 2 do
    ignore
      (ok_exn "commit"
         (Shard.commit_many t
            (List.mapi (fun i l -> (Printf.sprintf "d%d" i, List.nth l v)) lines)))
  done;
  let path = Filename.concat dir "shard-0000.tdst" in
  let scan =
    match Container.scan path with
    | Ok scan -> scan
    | Error e -> Alcotest.fail (Container.error_to_string e)
  in
  let doc_of (record : Container.record) =
    Binio.read_string (Binio.reader record.Container.payload)
  in
  (* the record to damage sits mid-file; another doc's load builds the
     index first *)
  let records = Array.of_list scan.Container.records in
  let k = Array.length records / 2 in
  let victim = doc_of records.(k) in
  let warm = doc_of (List.find (fun r -> doc_of r <> victim) scan.Container.records) in
  let t = ok_exn "reopen" (Shard.open_ dir) in
  ignore (ok_exn "warm load" (Shard.materialize t ~doc:warm 0));
  let off = ref (Container.header_length ~interval:scan.Container.interval
                   ~max_replay_ops:scan.Container.max_replay_ops) in
  for i = 0 to k do
    off := !off + Container.record_size records.(i)
  done;
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let flip = !off - 1 in
  let byte = Bytes.create 1 in
  ignore (Unix.lseek fd flip Unix.SEEK_SET);
  ignore (Unix.read fd byte 0 1);
  Bytes.set byte 0 (Char.chr (Char.code (Bytes.get byte 0) lxor 0x20));
  ignore (Unix.lseek fd flip Unix.SEEK_SET);
  ignore (Unix.write fd byte 0 1);
  Unix.close fd;
  (match Shard.materialize t ~doc:victim 2 with
  | Error msg ->
    Alcotest.(check bool) ("typed checksum error: " ^ msg) true
      (contains ~sub:"checksum mismatch" msg)
  | Ok _ -> Alcotest.fail "a damaged record loaded");
  (match Shard.verify ~jobs:1 t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "verify missed the damaged record");
  let t = ok_exn "reopen after damage" (Shard.open_ dir) in
  let poisoned = ref 0 in
  List.iter
    (fun doc ->
      for v = 0 to 2 do
        let expected = outcome (reference_materialize path ~doc ~upto:3 v) in
        if expected = None then incr poisoned;
        Alcotest.(check (option int64)) (Printf.sprintf "%s v%d after reopen" doc v)
          expected (outcome (Shard.materialize t ~doc v))
      done)
    (Shard.docs t);
  Alcotest.(check bool) "the damage poisoned the tail" true (!poisoned > 0);
  rm_rf dir

(* One domain commits to a document while another cold-reads the others
   of the same shard through the same handle; more documents than the
   chain cache holds, so chains are evicted and re-read throughout. *)
let test_index_concurrent () =
  let dir = tmp_dir "index_concurrent" in
  let t = ok_exn "init" (Shard.init ~shards:1 dir) in
  let docs = 80 in
  let srcs = sources ~docs ~versions:2 in
  let report = ok_exn "ingest" (Shard.ingest ~jobs:1 ~chunk_docs:16 t srcs) in
  Alcotest.(check int) "ingested" docs report.Shard.docs_ingested;
  let expected =
    Array.of_list
      (List.map
         (fun (src : Shard.source) ->
           (src.Shard.name, Array.init 2 (fun v -> Iso.hash (ok_exn "load" (src.Shard.load v)))))
         srcs)
  in
  let t = ok_exn "reopen" (Shard.open_ dir) in
  let line = lineage ~seed:77 8 in
  let writer_done = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let exec = Exec.create () in
        let results = List.map (fun tree -> Shard.commit ~exec t ~doc:"writer" tree) line in
        Atomic.set writer_done true;
        results)
  in
  let exec = Exec.create () in
  let failures = ref [] and reads = ref 0 and round = ref 0 in
  while !round < 2 || not (Atomic.get writer_done) do
    Array.iteri
      (fun i (doc, hashes) ->
        let v = (i + !round) mod 2 in
        incr reads;
        match Shard.materialize ~exec t ~doc v with
        | Ok tree when Iso.hash tree = hashes.(v) -> ()
        | Ok _ -> failures := Printf.sprintf "%s v%d: wrong tree" doc v :: !failures
        | Error msg -> failures := Printf.sprintf "%s v%d: %s" doc v msg :: !failures)
      expected;
    incr round
  done;
  let committed = Domain.join writer in
  Alcotest.(check (list string)) "every read equals its commit" [] !failures;
  List.iteri
    (fun v r ->
      let e = ok_exn "writer commit" r in
      Alcotest.(check int) "writer version" v e.Shard.version)
    committed;
  List.iteri
    (fun v tree ->
      let got = ok_exn "writer read back" (Shard.materialize ~verify:true t ~doc:"writer" v) in
      Alcotest.(check int64) (Printf.sprintf "writer v%d" v) (Iso.hash tree) (Iso.hash got))
    line;
  Alcotest.(check int) "index still matches a fresh scan" ((docs * 2) + 8)
    (ok_exn "verify" (Shard.verify ~jobs:1 t));
  rm_rf dir

(* ---------------------------------------------------------------- prune *)

let hashes_of (src : Shard.source) =
  Array.init src.Shard.count (fun v -> Iso.hash (ok_exn "load" (src.Shard.load v)))

(* A pruning gc rewrites one document's shard only; the pruned chain then
   reopens, refuses the versions below its base, verifies from the base
   up, survives a full gc, and resumes under ingest. *)
let test_prune_corpus () =
  let dir = tmp_dir "prune" in
  let t = ok_exn "init" (Shard.init ~interval:3 ~shards:3 dir) in
  let srcs = sources ~docs:6 ~versions:8 in
  let partial = List.map (fun (src : Shard.source) -> { src with Shard.count = 5 }) srcs in
  ignore (ok_exn "ingest" (Shard.ingest ~jobs:1 t partial));
  let victim = "doc-002" in
  let expected = hashes_of (List.find (fun (s : Shard.source) -> s.Shard.name = victim) srcs) in
  let own = Printf.sprintf "shard-%04d.tdst" (Shard.shard_of t victim) in
  let untouched () =
    List.filter (fun (f, _) -> f <> own && f <> "MANIFEST") (corpus_digest dir)
  in
  let before = untouched () in
  let bytes_before, bytes_after =
    ok_exn "prune" (Shard.gc ~prune_before:(victim, 3) t)
  in
  Alcotest.(check bool) "the prune shrank the archive" true (bytes_after < bytes_before);
  Alcotest.(check (list (pair string string))) "other shards untouched" before (untouched ());
  Alcotest.(check int) "the count is still the next version" 5 (Shard.versions t victim);
  let check what t =
    let log = ok_exn "log" (Shard.log t victim) in
    Alcotest.(check (list int)) (what ^ ": versions from the base") [ 3; 4 ]
      (List.map (fun (e : Shard.entry) -> e.Shard.version) log);
    Alcotest.(check bool) (what ^ ": the base is a snapshot") true
      ((List.hd log).Shard.kind = Chain.Snapshot);
    (match Shard.materialize t ~doc:victim 2 with
    | Error msg -> Alcotest.(check bool) (what ^ ": names the base") true (contains ~sub:"3..4" msg)
    | Ok _ -> Alcotest.fail "a pruned version materialized");
    (match Shard.snapshot_materialize (Shard.snapshot t) ~doc:victim 2 with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "a snapshot read a pruned version");
    List.iter
      (fun v ->
        Alcotest.(check int64) (Printf.sprintf "%s: v%d" what v) expected.(v)
          (Iso.hash (ok_exn "snapshot read" (Shard.snapshot_materialize ~verify:true (Shard.snapshot t) ~doc:victim v))))
      [ 3; 4 ];
    Alcotest.(check int) (what ^ ": verify counts from the base") 27
      (ok_exn "verify" (Shard.verify ~jobs:2 t))
  in
  check "live" t;
  let t = ok_exn "reopen" (Shard.open_ dir) in
  check "reopened" t;
  ignore (ok_exn "full gc" (Shard.gc ~jobs:2 t));
  check "after a full gc" t;
  (* ingest resumes the pruned document from its committed head *)
  let report = ok_exn "resume" (Shard.ingest ~jobs:1 t srcs) in
  Alcotest.(check int) "every document resumed" 6 report.Shard.docs_ingested;
  Alcotest.(check int) "three versions each" 18 report.Shard.versions_appended;
  Alcotest.(check int) "the pruned document grew" 8 (Shard.versions t victim);
  Alcotest.(check int64) "its new head" expected.(7)
    (Iso.hash (ok_exn "head" (Shard.materialize ~verify:true t ~doc:victim 7)));
  let t = ok_exn "reopen after resume" (Shard.open_ dir) in
  Alcotest.(check int) "verified after resume" 45 (ok_exn "verify" (Shard.verify ~jobs:2 t));
  Alcotest.(check int) "still based at 3" 3
    (List.hd (ok_exn "log" (Shard.log t victim))).Shard.version;
  rm_rf dir

(* A 1-shard corpus of "d" (5 versions) and "e" (2), with the records
   [drop doc version] selects removed from its file, as damage would. *)
let corpus_missing ~name ~drop =
  let dir = tmp_dir ("missing_" ^ name) in
  let t = ok_exn "init" (Shard.init ~interval:0 ~shards:1 dir) in
  List.iter (fun tree -> ignore (ok_exn "commit d" (Shard.commit t ~doc:"d" tree))) (lineage ~seed:81 5);
  List.iter (fun tree -> ignore (ok_exn "commit e" (Shard.commit t ~doc:"e" tree))) (lineage ~seed:82 2);
  let path = Filename.concat dir "shard-0000.tdst" in
  let scan =
    match Container.scan path with
    | Ok scan -> scan
    | Error e -> Alcotest.fail (Container.error_to_string e)
  in
  let kept =
    List.filter
      (fun (record : Container.record) ->
        let r = Binio.reader record.Container.payload in
        let d = Binio.read_string r in
        ignore (Binio.read_varint r);
        not (drop d (Binio.read_varint r)))
      scan.Container.records
  in
  (match
     Container.rewrite ~path ~interval:scan.Container.interval
       ~max_replay_ops:scan.Container.max_replay_ops kept
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Container.error_to_string e));
  dir

(* Only a snapshot may start a chain above version 0: a record missing in
   the middle, a missing version 0 before a delta, or a committed document
   missing from its shard altogether stays an error, in loads and in
   verify. *)
let test_missing_record () =
  List.iter
    (fun (name, drop, broken, latest, missing, intact) ->
      let t = ok_exn "reopen" (Shard.open_ (corpus_missing ~name ~drop)) in
      let expected = Printf.sprintf "committed version %d of %S is missing" missing broken in
      (match Shard.materialize t ~doc:broken latest with
      | Error msg -> Alcotest.(check bool) (name ^ ": " ^ msg) true (contains ~sub:expected msg)
      | Ok _ -> Alcotest.fail (name ^ ": a gapped chain loaded"));
      (match Shard.verify ~jobs:1 t with
      | Error msg -> Alcotest.(check bool) (name ^ " verify: " ^ msg) true (contains ~sub:expected msg)
      | Ok _ -> Alcotest.fail (name ^ ": verify missed the gap"));
      Alcotest.(check bool) (name ^ ": the other document reads") true
        (Result.is_ok (Shard.materialize ~verify:true t ~doc:intact 1));
      rm_rf (Shard.dir t))
    [
      ("d-v2", (fun d v -> d = "d" && v = 2), "d", 4, 2, "e");
      ("d-v0", (fun d v -> d = "d" && v = 0), "d", 4, 0, "e");
      ("all-of-e", (fun d _ -> d = "e"), "e", 1, 0, "d");
    ]

(* ------------------------------------------------------------------ cli *)

let bin name =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let run cmd =
  let out = Filename.temp_file "treediff_corpus_out" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>/dev/null" cmd out) in
  let ic = open_in_bin out in
  let stdout =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove out;
  (code, stdout)

(* One ingest-source directory: a subdirectory per document, version files
   in lexicographic order.  Versions share enough structure to diff. *)
let write_docs_dir dir ~docs ~versions =
  Unix.mkdir dir 0o755;
  for d = 0 to docs - 1 do
    let doc_dir = Filename.concat dir (Printf.sprintf "doc-%03d" d) in
    Unix.mkdir doc_dir 0o755;
    for v = 0 to versions - 1 do
      let oc =
        open_out_bin (Filename.concat doc_dir (Printf.sprintf "%03d.sexp" v))
      in
      Printf.fprintf oc
        {|(D (P (S "alpha %d") (S "beta %d rev %d")) (P (S "gamma %d") (S "delta rev %d")) (P (S "epsilon %d")))|}
        d d v d v (d + v);
      close_out oc
    done
  done

let test_cli_corpus_end_to_end () =
  let t = bin "treediff_cli" in
  let dir = tmp_dir "cli_corpus" in
  let docs_dir = tmp_dir "cli_docs" in
  write_docs_dir docs_dir ~docs:4 ~versions:3;
  let code, _ = run (Printf.sprintf "%s store init %s --shards 3" t dir) in
  Alcotest.(check int) "init exit 0" 0 code;
  let code, out =
    run (Printf.sprintf "%s store ingest %s %s --jobs 1 --chunk-docs 2" t dir docs_dir)
  in
  Alcotest.(check int) "ingest exit 0" 0 code;
  Alcotest.(check bool) "ingest reports versions" true (contains ~sub:"12" out);
  let code, out = run (Printf.sprintf "%s store stats %s" t dir) in
  Alcotest.(check int) "stats exit 0" 0 code;
  Alcotest.(check bool) "stats reports shards" true (contains ~sub:"3 shards" out);
  let code, out = run (Printf.sprintf "%s store log %s" t dir) in
  Alcotest.(check int) "corpus log exit 0" 0 code;
  Alcotest.(check bool) "corpus log lists docs" true (contains ~sub:"doc-003" out);
  let code, out = run (Printf.sprintf "%s store log %s --doc doc-001" t dir) in
  Alcotest.(check int) "doc log exit 0" 0 code;
  Alcotest.(check bool) "doc log shows the chain" true (contains ~sub:"snapshot" out);
  let code, out =
    run (Printf.sprintf "%s store materialize %s 2 --doc doc-001 --verify" t dir)
  in
  Alcotest.(check int) "materialize exit 0" 0 code;
  Alcotest.(check bool) "materialized v2" true (contains ~sub:"rev 2" out);
  let code, _ = run (Printf.sprintf "%s store verify %s" t dir) in
  Alcotest.(check int) "verify exit 0" 0 code;
  (* corpus-aware commit: one more version of one doc *)
  let extra = Filename.concat docs_dir "extra.sexp" in
  let oc = open_out_bin extra in
  output_string oc {|(D (P (S "alpha 1") (S "beta 1 rev 9")) (P (S "gamma 1") (S "delta rev 9")) (P (S "epsilon 9")))|};
  close_out oc;
  let code, out =
    run (Printf.sprintf "%s store commit %s %s --doc doc-001" t dir extra)
  in
  Alcotest.(check int) "corpus commit exit 0" 0 code;
  Alcotest.(check bool) "committed version 3" true
    (contains ~sub:"committed version 3" out);
  let code, out = run (Printf.sprintf "%s store gc %s" t dir) in
  Alcotest.(check int) "gc exit 0" 0 code;
  Alcotest.(check bool) "gc reports sizes" true (contains ~sub:"compacted" out);
  let code, _ = run (Printf.sprintf "%s store verify %s" t dir) in
  Alcotest.(check int) "verify after gc exit 0" 0 code;
  rm_rf dir;
  rm_rf docs_dir

(* Kill -9 a real ingest mid-flight, then prove the corpus reopens with at
   most the in-flight chunk missing and every surviving version verified —
   no manual repair step anywhere. *)
let test_sigkill_mid_ingest () =
  let t = bin "treediff_cli" in
  let dir = tmp_dir "sigkill" in
  let docs_dir = tmp_dir "sigkill_docs" in
  let docs = 24 and versions = 12 in
  write_docs_dir docs_dir ~docs ~versions;
  let code, _ = run (Printf.sprintf "%s store init %s --shards 4" t dir) in
  Alcotest.(check int) "init exit 0" 0 code;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process t
      [| t; "store"; "ingest"; dir; docs_dir; "--jobs"; "1"; "--chunk-docs"; "1" |]
      devnull devnull devnull
  in
  (* one chunk (= one document here) takes a few ms: 80ms lands mid-corpus *)
  Unix.sleepf 0.08;
  Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  Unix.close devnull;
  (match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _ ->
    (* the ingest outran the timer; the recovery claims below still hold *)
    ());
  (* reopen succeeds without repair and every surviving version verifies *)
  let corpus = ok_exn "reopen after SIGKILL" (Shard.open_ dir) in
  let survived = Shard.total_versions corpus in
  let verified = ok_exn "verify after SIGKILL" (Shard.verify ~jobs:2 corpus) in
  Alcotest.(check int) "all surviving versions verify" survived verified;
  (* chunk atomicity: with one doc per chunk, every document is either
     complete or absent — a partially visible chain would mean the
     write-ahead protocol leaked an in-flight commit *)
  List.iter
    (fun doc ->
      let v = Shard.versions corpus doc in
      if v <> versions then
        Alcotest.fail
          (Printf.sprintf "%s: %d versions visible (commit leaked)" doc v))
    (Shard.docs corpus);
  Alcotest.(check bool) "the kill lost at most the in-flight tail" true
    (survived <= docs * versions);
  (* resumable: the same CLI ingest completes the corpus *)
  let code, _ =
    run (Printf.sprintf "%s store ingest %s %s --jobs 1 --chunk-docs 1" t dir docs_dir)
  in
  Alcotest.(check int) "resume ingest exit 0" 0 code;
  let corpus = ok_exn "reopen after resume" (Shard.open_ dir) in
  Alcotest.(check int) "corpus complete" (docs * versions)
    (Shard.total_versions corpus);
  Alcotest.(check int) "complete corpus verifies" (docs * versions)
    (ok_exn "verify" (Shard.verify ~jobs:2 corpus));
  rm_rf dir;
  rm_rf docs_dir

(* ---------------------------------------------------------------- env mode *)

(* Under `make store-tests` the armed TREEDIFF_FAULT spec stays live for
   the whole process.  Commits and ingests may crash or fail with typed
   errors; what must never happen is silent corruption: after every
   attempt the corpus reopens and verify proves every surviving version
   against its stored hash. *)
let test_env_sweep () =
  let spec = Option.value ~default:"" (Sys.getenv_opt Fault.env_var) in
  let dir = tmp_dir "envsweep" in
  let lines = List.init 2 (fun i -> lineage ~seed:(700 + i) 7) in
  (match Shard.init ~interval:2 ~shards:2 dir with
  | Error msg -> Alcotest.fail ("init: " ^ msg)
  | Ok corpus ->
    let corpus = ref corpus in
    for attempt = 1 to 6 do
      let batch =
        List.mapi
          (fun i line -> (Printf.sprintf "d%d" i, List.nth line (attempt - 1)))
          lines
      in
      (match Shard.commit_many !corpus batch with
      | Ok _ | Error _ -> () (* a typed refusal is an acceptable outcome *)
      | exception Fault.Injected _ -> ()
      | exception Budget.Exceeded _ -> ());
      match Shard.open_ dir with
      | Error msg ->
        Alcotest.fail (Printf.sprintf "[%s] reopen failed: %s" spec msg)
      | Ok reopened ->
        (match Shard.verify ~jobs:1 reopened with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail (Printf.sprintf "[%s] corruption: %s" spec msg)
        | exception Fault.Injected _ -> () (* a read-path fault is armed *)
        | exception Budget.Exceeded _ -> ());
        corpus := reopened
    done);
  rm_rf dir

(* ------------------------------------------------------------------- main *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  match Sys.getenv_opt Fault.env_var with
  | Some s when s <> "" ->
    Alcotest.run "corpus(env)"
      [ ("env-sweep", [ quick ("armed " ^ s) test_env_sweep ]) ]
  | _ ->
    Alcotest.run "corpus"
      [
        ( "corpus",
          [
            quick "round-trip across shards" test_corpus_roundtrip;
            quick "refusals" test_corpus_refusals;
            quick "atomic multi-document batches" test_commit_many;
            quick "snapshot isolation" test_snapshot_isolation;
          ] );
        ( "ingest",
          [
            quick "byte-identical whatever --jobs; resume is a no-op"
              test_ingest_deterministic;
            quick "per-document budget skips, never corrupts"
              test_ingest_budget_skips_doc;
          ] );
        ( "crash",
          [
            quick "manifest append crash" test_crash_manifest_append;
            quick "crash between Begin and End; gc reclaims"
              test_crash_between_begin_and_end;
            quick "shard-lock fault" test_fault_shard_lock;
          ] );
        ( "index",
          [
            quick "indexed loads equal the full-scan reference"
              test_index_vs_reference;
            quick "a record wider than the packed length" test_index_long_record;
            quick "a flipped byte is a typed checksum error" test_index_hostile_bytes;
            quick "commits beside cold reads in one shard" test_index_concurrent;
          ] );
        ( "prune",
          [
            quick "one shard rewritten; reopen, refuse, verify, resume"
              test_prune_corpus;
            quick "a missing record is still an error" test_missing_record;
          ] );
        ( "cli",
          [
            quick "corpus end-to-end" test_cli_corpus_end_to_end;
            quick "SIGKILL mid-ingest" test_sigkill_mid_ingest;
          ] );
      ]
