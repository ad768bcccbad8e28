(* The [archive] scenario: writes beside reads on the sharded corpus store.
   Setup bulk-loads a corpus of small documents with mutation histories,
   about four times as many documents as the store's 64-chain cache.  The
   timed phase interleaves [Shard.commit] (about one op in five) with
   [Shard.materialize ~verify:true]; some reads go to a hot set that fits
   the cache, the rest are uniform over documents, and a quarter of them
   ask for an old version (a deep replay). *)

open Bu
module Prng = Treediff_util.Prng
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Iso = Treediff_tree.Iso
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Shard = Treediff_store.Shard
module Chain = Treediff_store.Chain

let chain_cache = 64 (* the store's resident-chain bound *)

type doc = {
  name : string;
  gen : Tree.gen;
  mutable head : Node.t;
  mutable hashes : int64 array;  (* per committed version *)
}

type state = {
  dir : string;
  docs : doc array;
  hot : int array;  (* indexes into [docs] *)
  shard : Shard.t;
  open_s : float;
  bytes_per_version : float;
  inputs_digest : string;
  versions : int;
}

let n_docs opts = if opts.small then 24 else 4 * chain_cache

(* A quarter of the chain cache, so the hot set stays resident while
   uniform reads and commits churn the rest of it. *)
let hot_docs opts = if opts.small then 4 else chain_cache / 4

(* Share of reads that go to the hot set.  With uniform reads finding a
   resident chain about one time in four, reads of resident chains are
   then about 0.36 of all reads: the median read is a cold one (a chain
   load from its shard), well clear of the warm mode, whose reads take
   tens of microseconds and vary by a third from run to run. *)
let hot_share = 0.15

let next_version g d =
  fst (Mutate.mutate g d.gen d.head ~actions:(Prng.int_in g 1 4))

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let corpus_bytes t =
  let s = Shard.stats t in
  Array.fold_left ( + ) s.Shard.stat_manifest_bytes s.Shard.stat_shard_bytes

let ok_or_die what = function
  | Ok x -> x
  | Error e -> failwith (Printf.sprintf "archive setup: %s: %s" what e)

let setup ~work opts =
  let dir = Filename.concat work "corpus" in
  rm_rf dir;
  let g = prng opts 2 in
  let digest = Digester.create () in
  let histories =
    Array.init (n_docs opts) (fun i ->
        let g = Prng.split g in
        let gen = Tree.gen () in
        let v0 = Docgen.generate g gen Docgen.small in
        let d = { name = Printf.sprintf "doc-%04d" i; gen; head = v0; hashes = [||] } in
        let versions = Prng.int_in g 3 8 in
        let trees = Array.make versions v0 in
        for v = 1 to versions - 1 do
          d.head <- next_version g d;
          trees.(v) <- d.head
        done;
        d.hashes <- Array.map Iso.hash trees;
        Array.iter (fun h -> Digester.add digest (Int64.to_string h)) d.hashes;
        (d, trees))
  in
  let t = ok_or_die "init" (Shard.init ~shards:4 dir) in
  let sources =
    Array.to_list
      (Array.map
         (fun (d, trees) ->
           { Shard.name = d.name; count = Array.length trees; load = (fun v -> Ok trees.(v)) })
         histories)
  in
  let report = ok_or_die "ingest" (Shard.ingest ~jobs:2 t sources) in
  (match report.Shard.docs_failed with
  | [] -> ()
  | (doc, e) :: _ -> failwith (Printf.sprintf "archive setup: ingest of %s: %s" doc e));
  let versions = Shard.total_versions t in
  let bytes_per_version = float_of_int (corpus_bytes t) /. float_of_int versions in
  (* The timed phase runs on a freshly opened handle, as a new process
     would see the corpus: no chain resident. *)
  let shard, open_s = timed (fun () -> ok_or_die "open" (Shard.open_ dir)) in
  let docs = Array.map fst histories in
  let hot =
    let all = Array.init (Array.length docs) Fun.id in
    Prng.shuffle g all;
    Array.sub all 0 (hot_docs opts)
  in
  {
    dir;
    docs;
    hot;
    shard;
    open_s;
    bytes_per_version;
    inputs_digest = Digester.hex digest;
    versions;
  }

(* Mirror of the store's resident-chain LRU, to tell a cold read (the chain
   is scanned from its shard) from a warm one. *)
let touch lru name =
  let l = name :: List.filter (fun n -> not (String.equal n name)) !lru in
  lru := List.filteri (fun i _ -> i < chain_cache) l

(* Forward-script ops replayed to reach [v]: those since the last full
   snapshot at or before it. *)
let replay_ops entries v =
  List.fold_left
    (fun acc (e : Shard.entry) ->
      if e.Shard.version > v then acc
      else
        match e.Shard.kind with
        | Chain.Snapshot | Chain.Checkpoint -> 0
        | Chain.Delta -> acc + e.Shard.ops)
    0 entries

type trace_acc = {
  chain_load : Samples.t;
  replay : Samples.t;
  verify : Samples.t;
  ops_replayed : Samples.t;
  commit_diff : Samples.t;
  commit_write : Samples.t;
  traced_op : Samples.t;
  untraced_op : Samples.t;
  mutable cold_reads : int;
  mutable reads : int;
}

(* Ops behind the outputs digest, done on every run whatever the window. *)
let fixed_ops opts = if opts.small then 40 else 200

(* One scenario run, advanced in slices by [step] and closed by [finish]. *)
type run = {
  opts : opts;
  st : state;
  g : Prng.t;
  commits : Samples.t;
  reads : Samples.t;
  lru : string list ref;
  outputs : Digester.t;
  acc : trace_acc;
  bytes0 : int;
  mutable n_commits : int;
  mutable i : int;  (* ops attempted *)
}

let start opts st =
  {
    opts;
    st;
    g = prng opts 3;
    commits = Samples.create ();
    reads = Samples.create ();
    lru = ref [];
    outputs = Digester.create ();
    acc =
      {
        chain_load = Samples.create ();
        replay = Samples.create ();
        verify = Samples.create ();
        ops_replayed = Samples.create ();
        commit_diff = Samples.create ();
        commit_write = Samples.create ();
        traced_op = Samples.create ();
        untraced_op = Samples.create ();
        cold_reads = 0;
        reads = 0;
      };
    bytes0 = corpus_bytes st.shard;
    n_commits = 0;
    i = 0;
  }

let commit r =
  let g = r.g and t = r.st.shard and acc = r.acc in
  let traced = r.opts.trace && r.i mod 2 = 1 in
  let d = r.st.docs.(Prng.int g (Array.length r.st.docs)) in
  let tree = next_version g d in
  (* the commit's own diff + verify, repeated outside the store *)
  let dt_diff =
    if not traced then 0.
    else
      snd
        (timed (fun () ->
             let res = Treediff.Diff.diff d.head tree in
             ignore (Treediff.Diff.verify res ~t1:d.head ~t2:tree)))
  in
  let res, dt = timed (fun () -> Shard.commit t ~doc:d.name tree) in
  touch r.lru d.name;
  Samples.add r.commits dt;
  if traced then begin
    Samples.add acc.commit_diff dt_diff;
    Samples.add acc.commit_write (dt -. dt_diff);
    Samples.add acc.traced_op (dt_diff +. dt)
  end
  else if r.opts.trace then Samples.add acc.untraced_op dt;
  match res with
  | Error e -> mismatch "archive commit %s: %s" d.name e
  | Ok e ->
    let h = Iso.hash tree in
    if e.Shard.hash <> h || e.Shard.version <> Array.length d.hashes then
      mismatch "archive commit %s: stored version %d hash differs" d.name e.Shard.version
    else begin
      d.head <- tree;
      d.hashes <- Array.append d.hashes [| h |];
      r.n_commits <- r.n_commits + 1;
      if r.i < fixed_ops r.opts then Digester.add r.outputs (Int64.to_string h)
    end

let read r =
  let g = r.g and t = r.st.shard and acc = r.acc in
  let traced = r.opts.trace && r.i mod 2 = 1 in
  let d =
    if Prng.chance g hot_share then r.st.docs.(r.st.hot.(Prng.int g (Array.length r.st.hot)))
    else r.st.docs.(Prng.int g (Array.length r.st.docs))
  in
  let last = Array.length d.hashes - 1 in
  let v = if Prng.chance g 0.25 && last > 0 then Prng.int g last else last in
  let materialize () = Shard.materialize ~verify:true t ~doc:d.name v in
  let res =
    if not traced then begin
      let res, dt = timed materialize in
      Samples.add r.reads dt;
      if r.opts.trace then Samples.add acc.untraced_op dt;
      res
    end
    else begin
      let t_start = now () in
      let cold = not (List.mem d.name !(r.lru)) in
      let log, dt_log = timed (fun () -> Shard.log t d.name) in
      if cold then begin
        acc.cold_reads <- acc.cold_reads + 1;
        Samples.add acc.chain_load dt_log
      end;
      acc.reads <- acc.reads + 1;
      (match log with
      | Ok entries -> Samples.add acc.ops_replayed (float_of_int (replay_ops entries v))
      | Error _ -> ());
      let _, dt_replay = timed (fun () -> Shard.materialize ~verify:false t ~doc:d.name v) in
      let res, dt = timed materialize in
      Samples.add r.reads dt;
      Samples.add acc.replay dt_replay;
      Samples.add acc.verify (Float.max 0. (dt -. dt_replay));
      Samples.add acc.traced_op (now () -. t_start);
      res
    end
  in
  touch r.lru d.name;
  match res with
  | Error e -> mismatch "archive read %s@%d: %s" d.name v e
  | Ok tree ->
    let h = Iso.hash tree in
    if h <> d.hashes.(v) then
      mismatch "archive read %s@%d: tree differs from the committed one" d.name v
    else if r.i < fixed_ops r.opts then Digester.add r.outputs (Int64.to_string h)

let one_op r =
  Pace.tick ();
  incr attempted;
  if Prng.chance r.g 0.2 then commit r else read r;
  r.i <- r.i + 1

let step r seconds =
  let stop = now () +. seconds in
  while now () < stop do
    one_op r
  done

let finish r =
  while r.i < fixed_ops r.opts do
    one_op r
  done;
  let st = r.st and acc = r.acc and t = r.st.shard in
  let bytes1 = corpus_bytes t in
  (* teardown: every version the catalog claims must verify *)
  let total = Shard.total_versions t in
  (match Shard.verify ~jobs:2 t with
  | Ok n when n = total -> ()
  | Ok n -> mismatch "archive verify: %d of %d versions verified" n total
  | Error e -> mismatch "archive verify: %s" e);
  note "archive"
    (json_obj
       [
         ("inputs_digest", json_string st.inputs_digest);
         ("outputs_digest", json_string (Digester.hex r.outputs));
         ("ops_completed", string_of_int r.i);
         ("commits", string_of_int r.n_commits);
         ( "sizes",
           json_obj
             [
               ("docs", string_of_int (Array.length st.docs));
               ("hot_docs", string_of_int (Array.length st.hot));
               ("versions_ingested", string_of_int st.versions);
               ("chain_cache", string_of_int chain_cache);
               ("shards", "4");
             ] );
       ]);
  if not r.opts.trace then begin
    let commits = Pace.scaled r.commits and reads = Pace.scaled r.reads in
    emit "commit_p50_ms" "ms" (1e3 *. pct commits 0.50);
    emit "commit_p99_ms" "ms" (1e3 *. pct commits 0.99);
    emit "read_p50_ms" "ms" (1e3 *. pct reads 0.50);
    emit "read_p99_ms" "ms" (1e3 *. pct reads 0.99);
    emit "bytes_per_version" "B" st.bytes_per_version
  end
  else begin
    let ms s = 1e3 *. Samples.mean s in
    emit "shard.open_ms" "ms" (1e3 *. st.open_s);
    emit "shard.chain_load_ms" "ms" (ms acc.chain_load);
    emit "shard.cold_read_share" "ratio"
      (float_of_int acc.cold_reads /. float_of_int (max 1 acc.reads));
    emit "chain.replay_ms" "ms" (ms acc.replay);
    emit "chain.replay_ops" "count" (Samples.mean acc.ops_replayed);
    emit "chain.verify_ms" "ms" (ms acc.verify);
    emit "commit.diff_ms" "ms" (ms acc.commit_diff);
    emit "commit.write_ms" "ms" (ms acc.commit_write);
    emit "shard.bytes_per_commit" "B"
      (float_of_int (bytes1 - r.bytes0) /. float_of_int (max 1 r.n_commits));
    emit "archive.trace_overhead" "ratio"
      (Samples.mean acc.traced_op /. Samples.mean acc.untraced_op)
  end
