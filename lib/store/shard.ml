module B = Treediff_util.Binio
module Budget = Treediff_util.Budget
module Exec = Treediff_util.Exec
module Pool = Treediff_util.Pool
module Node = Treediff_tree.Node

type entry = Chain.entry = {
  version : int;
  kind : Chain.kind;
  ops : int;
  bytes : int;
  hash : int64;
  next_id : int;
}

(* Committed catalog state for one document, plus its (evictable) chain and
   head caches.  [ds_versions]/[ds_head_hash] mirror the manifest catalog;
   they advance only when a commit's End record is durable. *)
type doc_state = {
  ds_shard : int;
  mutable ds_versions : int;
  mutable ds_head_hash : int64;
  mutable ds_chain : Chain.parsed array option;
  mutable ds_head : (int * Node.t) option;
}

(* Per-shard record index.  [slots] maps a doc to one int per version: the
   byte offset and wire length of the last record for that version in file
   order, packed as [offset lsl len_bits lor length], or -1 for none.  A
   length too wide for its field is stored as [len_mask] and kept in
   [long], keyed by offset.  (Offsets fit: a shard file is scanned into
   memory whole, so it stays far below 2^40 bytes.)  Whether a version
   counts, below the committed count, is the reader's check.  The slots
   live outside the OCaml heap, so a million indexed versions cost their
   8 MB and not the garbage collector's headroom on top. *)
module Ba = Bigarray.Array1

type slots = (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t

type index = { slots : (string, slots) Hashtbl.t; long : (int, int) Hashtbl.t }

let new_slots n : slots =
  let a = Ba.create Bigarray.int Bigarray.c_layout n in
  Ba.fill a (-1);
  a

let no_slots = new_slots 0

type t = {
  dir : string;
  shards : int;
  interval : int;
  max_replay_ops : int;
  exec_ : Exec.t;
  (* Lock order: a thread holds at most one of these at a time, except
     that the state lock may be taken while holding the manifest lock
     (never the reverse, and never while holding a shard lock).  Readers
     take a shard lock briefly, to build or consult its index and read a
     chain's records, never while holding the state lock. *)
  state_lock : Mutex.t;  (* catalog structure, MRU list, epoch, aborted *)
  manifest_lock : Mutex.t;  (* manifest file, manifest_end, next_seq *)
  shard_locks : Mutex.t array;  (* shard file i, shard_ends.(i), indexes.(i) *)
  shard_ends : int array;  (* valid end per shard; -1 = not yet scanned *)
  indexes : index array;  (* meaningful once shard_ends.(i) >= 0 *)
  mutable manifest_end : int;
  mutable next_seq : int;
  mutable epoch : int;
  catalog : (string, doc_state) Hashtbl.t;
  mutable loaded : string list;  (* MRU of docs with resident chains *)
  mutable aborted : int list;
  mutable manifest_damaged : bool;
}

(* Resident chains are bounded: re-reading a chain's records through its
   shard's index on a cache miss is the price of corpus-scale memory. *)
let chain_cache_cap = 64

let manifest_name = "MANIFEST"

let manifest_path t = Filename.concat t.dir manifest_name

let shard_file i = Printf.sprintf "shard-%04d.tdst" i

let shard_path t i = Filename.concat t.dir (shard_file i)

let shard_of_name ~shards doc =
  Int64.to_int
    (Int64.rem (Int64.logand (B.fnv1a64 doc) Int64.max_int) (Int64.of_int shards))

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Run on the caller's pool, or a temporary one of [jobs] domains. *)
let on_pool ?jobs ?pool run =
  match pool with
  | Some p -> run p
  | None ->
    let jobs = match jobs with Some j -> j | None -> Pool.recommended_jobs () in
    Pool.with_pool ~jobs run

let merr = function
  | Ok v -> Ok v
  | Error e -> Error (Manifest.error_to_string e)

let cerr = function
  | Ok v -> Ok v
  | Error e -> Error (Container.error_to_string e)

(* -------------------------------------------------------------- open/init *)

let is_corpus dir =
  Sys.file_exists dir
  && Sys.is_directory dir
  && Sys.file_exists (Filename.concat dir manifest_name)

let index_create () = { slots = Hashtbl.create 64; long = Hashtbl.create 0 }

let of_replayed ?exec dir (m : Manifest.replayed) =
  let exec_ = match exec with Some e -> e | None -> Exec.create () in
  let catalog = Hashtbl.create (max 256 (Hashtbl.length m.Manifest.catalog)) in
  Hashtbl.iter
    (fun doc (info : Manifest.doc_info) ->
      Hashtbl.replace catalog doc
        {
          ds_shard = info.Manifest.shard;
          ds_versions = info.Manifest.versions;
          ds_head_hash = info.Manifest.head_hash;
          ds_chain = None;
          ds_head = None;
        })
    m.Manifest.catalog;
  {
    dir;
    shards = m.Manifest.shards;
    interval = m.Manifest.interval;
    max_replay_ops = m.Manifest.max_replay_ops;
    exec_;
    state_lock = Mutex.create ();
    manifest_lock = Mutex.create ();
    shard_locks = Array.init m.Manifest.shards (fun _ -> Mutex.create ());
    shard_ends = Array.make m.Manifest.shards (-1);
    indexes = Array.init m.Manifest.shards (fun _ -> index_create ());
    manifest_end = m.Manifest.valid_end;
    next_seq = m.Manifest.next_seq;
    epoch = 0;
    catalog;
    loaded = [];
    aborted = m.Manifest.aborted;
    manifest_damaged = m.Manifest.truncated_tail;
  }

(* A regular file that scans as a container is a single-file archive from
   an older release: name the one command that reads it. *)
let not_a_corpus dir =
  if Sys.file_exists dir && (not (Sys.is_directory dir))
     && Result.is_ok (Container.scan dir)
  then
    Printf.sprintf
      "%s is a single-file archive from an older release; convert it once \
       with `treediff store migrate %s DIR --doc NAME`"
      dir dir
  else Printf.sprintf "%s is not a corpus store (no %s)" dir manifest_name

let open_ ?exec dir =
  if not (is_corpus dir) then Error (not_a_corpus dir)
  else
    match Manifest.replay (Filename.concat dir manifest_name) with
    | Error e -> Error (Manifest.error_to_string e)
    | Ok m ->
      if m.Manifest.shards < 1 then
        Error (Printf.sprintf "%s: manifest declares %d shards" dir
                 m.Manifest.shards)
      else Ok (of_replayed ?exec dir m)

let init ?(interval = 8) ?(max_replay_ops = 512) ?exec ~shards dir =
  if shards < 1 then Error "a corpus needs at least one shard"
  else if interval < 0 || max_replay_ops < 0 then
    Error "checkpoint policy values must be non-negative"
  else if is_corpus dir then
    Error (Printf.sprintf "%s already holds a corpus store" dir)
  else begin
    match
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
      else if not (Sys.is_directory dir) then failwith (dir ^ " is not a directory")
    with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))
    | exception Failure msg -> Error msg
    | () ->
      let rec mk_shards i =
        if i >= shards then Ok ()
        else
          match
            Container.create ~path:(Filename.concat dir (shard_file i))
              ~interval ~max_replay_ops
          with
          | Error e -> Error (Container.error_to_string e)
          | Ok () -> mk_shards (i + 1)
      in
      Result.bind
        (merr
           (Manifest.create ~path:(Filename.concat dir manifest_name) ~shards
              ~interval ~max_replay_ops))
      @@ fun () ->
      Result.bind (mk_shards 0) @@ fun () -> open_ ?exec dir
  end

(* -------------------------------------------------------------- accessors *)

let dir t = t.dir

let shards t = t.shards

let interval t = t.interval

let max_replay_ops t = t.max_replay_ops

let exec t = t.exec_

let epoch t = with_lock t.state_lock (fun () -> t.epoch)

let shard_of t doc = shard_of_name ~shards:t.shards doc

let doc_count t = with_lock t.state_lock (fun () -> Hashtbl.length t.catalog)

let total_versions t =
  with_lock t.state_lock (fun () ->
      Hashtbl.fold (fun _ ds acc -> acc + ds.ds_versions) t.catalog 0)

let docs t =
  with_lock t.state_lock (fun () ->
      List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) t.catalog []))

let aborted_commits t = with_lock t.state_lock (fun () -> t.aborted)

let manifest_truncated t = t.manifest_damaged

let versions t doc =
  with_lock t.state_lock (fun () ->
      match Hashtbl.find_opt t.catalog doc with
      | None -> 0
      | Some ds -> ds.ds_versions)

let head_hash t doc =
  with_lock t.state_lock (fun () ->
      Option.map (fun ds -> ds.ds_head_hash) (Hashtbl.find_opt t.catalog doc))

(* ------------------------------------------------------------ chain loads *)

exception Bad_shard_record of string

(* Shard record payload = string(doc) varint(seq) chain-record-payload. *)
let frame_record ~doc ~seq (p : Chain.parsed) =
  let buf =
    Buffer.create (String.length p.Chain.raw.Container.payload + String.length doc + 16)
  in
  B.add_string buf doc;
  B.add_varint buf seq;
  Buffer.add_string buf p.Chain.raw.Container.payload;
  { Container.tag = p.Chain.raw.Container.tag; payload = Buffer.contents buf }

let unframe_record (record : Container.record) =
  let r = B.reader record.Container.payload in
  match
    let doc = B.read_string r in
    let seq = B.read_varint r in
    (* The chain payload starts at the version varint. *)
    let chain_off = r.B.pos in
    let version = B.read_varint r in
    (doc, seq, version, chain_off)
  with
  | parts -> parts
  | exception (B.Truncated _ | B.Malformed _) ->
    raise (Bad_shard_record "checksummed shard record with malformed framing")

let chain_payload (record : Container.record) chain_off =
  {
    Container.tag = record.Container.tag;
    payload =
      String.sub record.Container.payload chain_off
        (String.length record.Container.payload - chain_off);
  }

let len_bits = 22

let len_mask = (1 lsl len_bits) - 1

let index_set index doc v ~off ~len =
  let slots =
    match Hashtbl.find_opt index.slots doc with
    | Some slots when v < Ba.dim slots -> slots
    | old ->
      let old = Option.value old ~default:no_slots in
      let grown = new_slots (max (v + 1) (2 * Ba.dim old)) in
      Ba.blit old (Ba.sub grown 0 (Ba.dim old));
      Hashtbl.replace index.slots doc grown;
      grown
  in
  if len >= len_mask then Hashtbl.replace index.long off len;
  slots.{v} <- (off lsl len_bits) lor min len len_mask

let decode index slot =
  let off = slot lsr len_bits and len = slot land len_mask in
  (off, if len = len_mask then Hashtbl.find index.long off else len)

(* The first indexed version of [doc] (above 0 only for a pruned chain,
   whose first record the loader checks) and the [offset; length] pairs
   from there up to [upto], flat — or the first version with no record. *)
let index_spans index doc ~upto =
  let slots = Option.value (Hashtbl.find_opt index.slots doc) ~default:no_slots in
  let n = min upto (Ba.dim slots) in
  let rec first v = if v < n && slots.{v} < 0 then first (v + 1) else v in
  let base = first 0 in
  let spans = Array.make (2 * (upto - base)) 0 in
  let rec fill v =
    if v >= upto then Ok (base, spans)
    else if v >= Ba.dim slots || slots.{v} < 0 then Error v
    else begin
      let off, len = decode index slots.{v} in
      spans.(2 * (v - base)) <- off;
      spans.((2 * (v - base)) + 1) <- len;
      fill (v + 1)
    end
  in
  if base = n then Error 0 else fill base

(* Every (doc, version, offset, length) an index holds, sorted. *)
let index_entries index =
  let entries = ref [] in
  Hashtbl.iter
    (fun doc slots ->
      for v = 0 to Ba.dim slots - 1 do
        if slots.{v} >= 0 then begin
          let off, len = decode index slots.{v} in
          entries := (doc, v, off, len) :: !entries
        end
      done)
    index.slots;
  List.sort compare !entries

(* Each record with its byte span: records lie back to back from [start]. *)
let iter_spans ~start records f =
  ignore
    (List.fold_left
       (fun off record ->
         let len = Container.record_size record in
         f ~off ~len record;
         off + len)
       start records)

(* The one visibility fold over a whole shard, and the only reader of one:
   walk its records in file order, the last record for each (doc, version)
   overwriting the slot (an aborted attempt always precedes its retry). *)
let index_records ~path ~start records =
  let index = index_create () in
  match
    iter_spans ~start records (fun ~off ~len (record : Container.record) ->
        if Chain.known_tag record.Container.tag then begin
          let doc, _seq, version, _ = unframe_record record in
          index_set index doc version ~off ~len
        end)
  with
  | exception Bad_shard_record msg -> Error (path ^ ": " ^ msg)
  | () ->
    (* drop the growth slack: this index may stay resident for long *)
    Hashtbl.filter_map_inplace
      (fun _ slots ->
        let n = ref (Ba.dim slots) in
        while slots.{!n - 1} < 0 do decr n done;
        if !n = Ba.dim slots then Some slots
        else begin
          let exact = new_slots !n in
          Ba.blit (Ba.sub slots 0 !n) exact;
          Some exact
        end)
      index.slots;
    Ok index

let scan_index path =
  match Container.scan path with
  | Error e -> Error (Container.error_to_string e)
  | Ok scan ->
    let start =
      Container.header_length ~interval:scan.Container.interval
        ~max_replay_ops:scan.Container.max_replay_ops
    in
    Result.map
      (fun index -> (scan, index))
      (index_records ~path ~start scan.Container.records)

(* Call with the owning shard lock held. *)
let ensure_shard_end t s =
  if t.shard_ends.(s) >= 0 then Ok ()
  else
    Result.map
      (fun (scan, index) ->
        t.shard_ends.(s) <- scan.Container.valid_end;
        t.indexes.(s) <- index)
      (scan_index (shard_path t s))

(* The one chain load: the records of [doc] below [upto], read through the
   shard's index by positioned reads under the shard lock.  Each record is
   checksummed again and must carry the doc and version of its slot.  The
   chain may start above version 0 only at a snapshot (a base gc forged);
   any other gap is a missing record. *)
let load_chain t ~shard ~doc ~upto =
  let path = shard_path t shard in
  let missing v =
    Error
      (Printf.sprintf "%s: committed version %d of %S is missing from its shard"
         path v doc)
  in
  let read =
    with_lock t.shard_locks.(shard) @@ fun () ->
    Result.bind (ensure_shard_end t shard) @@ fun () ->
    match index_spans t.indexes.(shard) doc ~upto with
    | Error v -> missing v
    | Ok (base, spans) ->
      Result.map
        (fun records -> (base, records))
        (Result.map_error
           (fun e -> path ^ ": " ^ Container.error_to_string e)
           (Container.read_records path spans))
  in
  Result.bind read @@ fun (base, records) ->
  let rec parse v acc =
    if v < base then Ok acc
    else
      let record = records.(v - base) in
      match unframe_record record with
      | exception Bad_shard_record msg -> Error (path ^ ": " ^ msg)
      | d, _seq, version, chain_off ->
        if d <> doc || version <> v || not (Chain.known_tag record.Container.tag)
        then
          Error
            (Printf.sprintf "%s: the index slot for %S version %d holds another record"
               path doc v)
        else (
          match Chain.parse_record (chain_payload record chain_off) with
          | Error msg -> Error (Printf.sprintf "%s: %S version %d: %s" path doc v msg)
          | Ok p -> parse (v - 1) (p :: acc))
  in
  if base > 0 && records.(0).Container.tag <> Chain.tag_snapshot then missing (base - 1)
  else
    Result.bind (parse (upto - 1) []) @@ fun parsed ->
    Result.map_error
      (fun msg -> Printf.sprintf "%s: %S: %s" path doc msg)
      (Chain.validate parsed)

(* Cache-touch under the state lock; the load itself runs without it (a
   concurrent load of the same doc is idempotent, and a load that a commit
   overtook is returned but not cached). *)
let chain t doc =
  let looked =
    with_lock t.state_lock (fun () ->
        match Hashtbl.find_opt t.catalog doc with
        | None -> Error (Printf.sprintf "unknown document %S" doc)
        | Some ds ->
          if Option.is_some ds.ds_chain then
            t.loaded <- doc :: List.filter (( <> ) doc) t.loaded;
          Ok (ds, ds.ds_chain, ds.ds_versions))
  in
  Result.bind looked @@ fun (ds, hit, upto) ->
  match hit with
  | Some entries -> Ok (ds, entries)
  | None ->
    Result.bind (load_chain t ~shard:ds.ds_shard ~doc ~upto) @@ fun entries ->
    with_lock t.state_lock (fun () ->
        if ds.ds_versions = upto then begin
          ds.ds_chain <- Some entries;
          t.loaded <- doc :: List.filter (( <> ) doc) t.loaded;
          let rec trim kept = function
            | [] -> List.rev kept
            | d :: rest when List.length kept >= chain_cache_cap ->
              (match Hashtbl.find_opt t.catalog d with
              | Some evicted ->
                evicted.ds_chain <- None;
                evicted.ds_head <- None
              | None -> ());
              trim kept rest
            | d :: rest -> trim (d :: kept) rest
          in
          t.loaded <- trim [] t.loaded
        end);
    Ok (ds, entries)

let log t doc =
  Result.map
    (fun (_, entries) ->
      Array.to_list (Array.map (fun (p : Chain.parsed) -> p.Chain.meta) entries))
    (chain t doc)

let materialize ?(verify = false) ?exec t ~doc v =
  let exec = match exec with Some e -> e | None -> t.exec_ in
  Result.bind (chain t doc) @@ fun (_, entries) ->
  Chain.materialize ~verify ~exec entries v

let script_of t ~doc v =
  Result.bind (chain t doc) @@ fun (_, entries) ->
  match Chain.find entries v with
  | Error _ as e -> e
  | Ok { Chain.meta = { kind = Chain.Snapshot; _ }; _ } ->
    Error (Printf.sprintf "version %d is a full snapshot, not a delta" v)
  | Ok p -> Ok (p.Chain.dummy, p.Chain.fwd)

let diff_between ?exec t ~doc ~from_ ~to_ =
  let e = match exec with Some e -> e | None -> t.exec_ in
  Result.bind (chain t doc) @@ fun (_, entries) ->
  Chain.diff_between ~exec:e
    ~materialize:(fun v -> materialize ~exec:e t ~doc v)
    entries ~from_ ~to_

(* ----------------------------------------------------------------- commit *)

let policy t = { Chain.interval = t.interval; max_replay_ops = t.max_replay_ops }

let append_to_shard ~exec t ~seq ~doc records =
  let s = shard_of t doc in
  (* The serialization point of multi-writer commits: one writer per shard
     file at a time. *)
  Exec.fault exec "store.shard_lock";
  with_lock t.shard_locks.(s) @@ fun () ->
  Result.bind (ensure_shard_end t s) @@ fun () ->
  let rec go = function
    | [] -> Ok ()
    | p :: rest -> (
      match
        Container.append ~faults:(Exec.faults exec) ~path:(shard_path t s)
          ~valid_end:t.shard_ends.(s)
          (frame_record ~doc ~seq p)
      with
      | Error e -> Error (Container.error_to_string e)
      | Ok valid_end ->
        let off = t.shard_ends.(s) in
        index_set t.indexes.(s) doc p.Chain.meta.version ~off ~len:(valid_end - off);
        t.shard_ends.(s) <- valid_end;
        go rest)
  in
  go records

let begin_commit ~exec t docs_shards =
  with_lock t.manifest_lock @@ fun () ->
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  match
    Manifest.append_begin ~faults:(Exec.faults exec) ~path:(manifest_path t)
      ~valid_end:t.manifest_end ~seq docs_shards
  with
  | Error e -> Error (Manifest.error_to_string e)
  | Ok valid_end ->
    t.manifest_end <- valid_end;
    Ok seq

let end_commit ~exec t ~seq infos =
  with_lock t.manifest_lock @@ fun () ->
  match
    Manifest.append_end ~faults:(Exec.faults exec) ~path:(manifest_path t)
      ~valid_end:t.manifest_end ~seq infos
  with
  | Error e -> Error (Manifest.error_to_string e)
  | Ok valid_end ->
    t.manifest_end <- valid_end;
    Ok ()

(* Publish a durable commit: catalog, caches, epoch. *)
let publish t updates =
  with_lock t.state_lock @@ fun () ->
  List.iter
    (fun (doc, shard, (p : Chain.parsed), head) ->
      let ds =
        match Hashtbl.find_opt t.catalog doc with
        | Some ds -> ds
        | None ->
          let ds =
            {
              ds_shard = shard;
              ds_versions = 0;
              ds_head_hash = 0L;
              ds_chain = None;
              ds_head = None;
            }
          in
          Hashtbl.replace t.catalog doc ds;
          ds
      in
      ds.ds_versions <- p.Chain.meta.version + 1;
      ds.ds_head_hash <- p.Chain.meta.hash;
      (match ds.ds_chain with
      | Some entries
        when Chain.base_version entries + Array.length entries = p.Chain.meta.version ->
        ds.ds_chain <- Some (Array.append entries [| p |])
      | Some _ -> ds.ds_chain <- None
      | None -> ());
      ds.ds_head <- Some (p.Chain.meta.version, head))
    updates;
  t.epoch <- t.epoch + 1

(* Current head tree of a doc (materializing if not cached). *)
let head_tree ~exec t doc ds =
  let latest = ds.ds_versions - 1 in
  match ds.ds_head with
  | Some (v, tree) when v = latest -> Ok tree
  | _ ->
    Result.bind (chain t doc) @@ fun (_, entries) ->
    Result.map
      (fun tree ->
        with_lock t.state_lock (fun () -> ds.ds_head <- Some (latest, tree));
        tree)
      (Chain.materialize ~exec entries latest)

let compute_next ?config ~exec t doc tree =
  match with_lock t.state_lock (fun () -> Hashtbl.find_opt t.catalog doc) with
  | None -> Result.map (fun (p, head) -> (p, head)) (Chain.base_record tree)
  | Some ds ->
    Result.bind (chain t doc) @@ fun (_, entries) ->
    Result.bind (head_tree ~exec t doc ds) @@ fun head ->
    let state = Chain.state_of_entries entries in
    Chain.next_record ?config ~exec ~policy:(policy t) ~state ~head tree

let commit_many ?config ?exec t docs =
  let exec = match exec with Some e -> e | None -> t.exec_ in
  let rec distinct = function
    | [] -> true
    | (d, _) :: rest -> (not (List.mem_assoc d rest)) && distinct rest
  in
  if docs = [] then Error "nothing to commit"
  else if not (distinct docs) then
    Error "a batch commits each document at most once"
  else
    match
      Exec.fault exec "store.commit";
      (* Compute and statically verify every record before the manifest
         sees a Begin: a rejected delta aborts with nothing on disk. *)
      let rec compute acc = function
        | [] -> Ok (List.rev acc)
        | (doc, tree) :: rest ->
          Result.bind (compute_next ?config ~exec t doc tree) @@ fun (p, head) ->
          compute ((doc, p, head) :: acc) rest
      in
      Result.bind (compute [] docs) @@ fun computed ->
      let docs_shards =
        List.map (fun (doc, _, _) -> (doc, shard_of t doc)) computed
      in
      Result.bind (begin_commit ~exec t docs_shards) @@ fun seq ->
      let rec append = function
        | [] -> Ok ()
        | (doc, p, _) :: rest ->
          Result.bind (append_to_shard ~exec t ~seq ~doc [ p ]) @@ fun () ->
          append rest
      in
      Result.bind (append computed) @@ fun () ->
      let infos =
        List.map
          (fun (doc, (p : Chain.parsed), _) ->
            {
              Manifest.doc = doc;
              shard = shard_of t doc;
              versions = p.Chain.meta.version + 1;
              head_hash = p.Chain.meta.hash;
            })
          computed
      in
      Result.bind (end_commit ~exec t ~seq infos) @@ fun () ->
      publish t
        (List.map (fun (doc, p, head) -> (doc, shard_of t doc, p, head)) computed);
      Ok (List.map (fun (_, (p : Chain.parsed), _) -> p.Chain.meta) computed)
    with
    | r -> r
    | exception Budget.Exceeded e -> Error (Budget.describe e)
    | exception Treediff_edit.Script.Apply_error msg -> Error ("internal: " ^ msg)

let commit ?config ?exec t ~doc tree =
  match commit_many ?config ?exec t [ (doc, tree) ] with
  | Ok [ entry ] -> Ok entry
  | Ok _ -> Error "internal: single-doc commit returned a batch"
  | Error _ as e -> e

(* -------------------------------------------------------------- snapshots *)

type snapshot = {
  sp_t : t;
  sp_epoch : int;
  sp_catalog : (string, int * int * int64) Hashtbl.t;  (* shard, versions, hash *)
  sp_chains : (string, Chain.parsed array) Hashtbl.t;  (* private cache *)
}

let snapshot t =
  with_lock t.state_lock @@ fun () ->
  let sp_catalog = Hashtbl.create (max 16 (Hashtbl.length t.catalog)) in
  Hashtbl.iter
    (fun doc ds ->
      Hashtbl.replace sp_catalog doc (ds.ds_shard, ds.ds_versions, ds.ds_head_hash))
    t.catalog;
  { sp_t = t; sp_epoch = t.epoch; sp_catalog; sp_chains = Hashtbl.create 16 }

let snapshot_epoch sp = sp.sp_epoch

let snapshot_docs sp =
  List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) sp.sp_catalog [])

let snapshot_versions sp doc =
  match Hashtbl.find_opt sp.sp_catalog doc with
  | None -> 0
  | Some (_, versions, _) -> versions

let snapshot_materialize ?(verify = false) ?exec sp ~doc v =
  let exec = match exec with Some e -> e | None -> sp.sp_t.exec_ in
  match Hashtbl.find_opt sp.sp_catalog doc with
  | None -> Error (Printf.sprintf "unknown document %S" doc)
  | Some (shard, upto, _) -> (
    let entries =
      match Hashtbl.find_opt sp.sp_chains doc with
      | Some entries -> Ok entries
      | None ->
        Result.map
          (fun entries ->
            Hashtbl.replace sp.sp_chains doc entries;
            entries)
          (load_chain sp.sp_t ~shard ~doc ~upto)
    in
    Result.bind entries @@ fun entries -> Chain.materialize ~verify ~exec entries v)

(* ----------------------------------------------------------------- ingest *)

type source = {
  name : string;
  count : int;
  load : int -> (Node.t, string) result;
}

type report = {
  docs_ingested : int;
  docs_skipped : int;
  docs_failed : (string * string) list;
  versions_appended : int;
  chunks : int;
}

(* Publish a durable bulk commit with catalog-only memory: the documents it
   wrote drop their chains and heads. *)
let publish_infos t infos =
  with_lock t.state_lock @@ fun () ->
  List.iter
    (fun (info : Manifest.doc_info) ->
      let doc = info.Manifest.doc in
      let ds =
        match Hashtbl.find_opt t.catalog doc with
        | Some ds -> ds
        | None ->
          let ds =
            {
              ds_shard = info.Manifest.shard;
              ds_versions = 0;
              ds_head_hash = 0L;
              ds_chain = None;
              ds_head = None;
            }
          in
          Hashtbl.replace t.catalog doc ds;
          ds
      in
      ds.ds_versions <- info.Manifest.versions;
      ds.ds_head_hash <- info.Manifest.head_hash;
      ds.ds_chain <- None;
      ds.ds_head <- None;
      t.loaded <- List.filter (( <> ) doc) t.loaded)
    infos;
  t.epoch <- t.epoch + 1

(* What the parallel compute phase hands the serial append phase for one
   document: every new record in version order plus the final head. *)
type computed_doc = {
  cd_doc : string;
  cd_records : Chain.parsed list;
  cd_head : Node.t;
}

let chunk_list n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* Compute all missing records of one document.  Pure given its inputs —
   runs on a pool domain under a fresh context (deterministic seed), so
   the records are byte-identical whatever the job count. *)
let compute_doc ?config ~budget_ms ~policy ~start src =
  let exec =
    match budget_ms with
    | Some ms -> Exec.limited ~deadline_ms:ms ()
    | None -> Exec.create ()
  in
  let from_, state0, head0 = start in
  match
    let rec go v state head acc =
      if v >= src.count then
        Ok
          {
            cd_doc = src.name;
            cd_records = List.rev acc;
            cd_head =
              (match head with
              | Some h -> h
              | None -> failwith "empty source produced no head");
          }
      else
        Result.bind (src.load v) @@ fun tree ->
        Result.bind
          (match head with
          | None -> Chain.base_record tree
          | Some h -> Chain.next_record ?config ~exec ~policy ~state ~head:h tree)
        @@ fun (p, new_head) ->
        go (v + 1) (Chain.advance state p) (Some new_head) (p :: acc)
    in
    go from_ state0 head0 []
  with
  | r -> r
  | exception Budget.Exceeded e -> Error (Budget.describe e)
  | exception Failure msg -> Error msg

let ingest ?config ?jobs ?pool ?(chunk_docs = 16) ?budget_ms ?on_chunk t sources =
  let rec distinct = function
    | [] -> true
    | s :: rest ->
      (not (List.exists (fun s' -> s'.name = s.name) rest)) && distinct rest
  in
  if chunk_docs < 1 then Error "chunk-docs must be at least 1"
  else if not (distinct sources) then
    Error "ingest sources name each document at most once"
  else if List.exists (fun s -> s.count < 1) sources then
    Error "every ingest source must provide at least one version"
  else begin
    let sources = List.sort (fun a b -> compare a.name b.name) sources in
    let run pool =
      let total = List.length sources in
      let done_ = ref 0 in
      let ingested = ref 0 in
      let skipped = ref 0 in
      let failed = ref [] in
      let appended = ref 0 in
      let chunks = ref 0 in
      let process_chunk chunk =
        (* Serial prep: where does each document resume from?  Partial
           documents (a prior crash) materialize their committed head
           here, on the calling domain — the pool tasks then run without
           touching shared state. *)
        let prep src =
          let have = versions t src.name in
          if have >= src.count then begin
            incr skipped;
            None
          end
          else if have = 0 then Some (src, (0, Chain.empty_state, None))
          else
            match chain t src.name with
            | Error msg ->
              failed := (src.name, msg) :: !failed;
              None
            | Ok (_, entries) -> (
              match Chain.materialize ~exec:t.exec_ entries (have - 1) with
              | Error msg ->
                failed := (src.name, msg) :: !failed;
                None
              | Ok head ->
                Some (src, (have, Chain.state_of_entries entries, Some head)))
        in
        let tasks = List.filter_map prep chunk in
        let tasks = Array.of_list tasks in
        let results =
          Pool.map pool (Array.length tasks) (fun i ->
              let src, start = tasks.(i) in
              compute_doc ?config ~budget_ms ~policy:(policy t) ~start src)
        in
        let computed = ref [] in
        Array.iteri
          (fun i result ->
            let src, _ = tasks.(i) in
            match result with
            | Error msg -> failed := (src.name, msg) :: !failed
            | Ok cd -> computed := cd :: !computed)
          results;
        let computed = List.rev !computed in
        done_ := !done_ + List.length chunk;
        if computed = [] then Ok ()
        else begin
          (* One write-ahead commit per chunk: the crash unit. *)
          let docs_shards =
            List.map (fun cd -> (cd.cd_doc, shard_of t cd.cd_doc)) computed
          in
          Result.bind (begin_commit ~exec:t.exec_ t docs_shards) @@ fun seq ->
          let rec append = function
            | [] -> Ok ()
            | cd :: rest ->
              Result.bind
                (append_to_shard ~exec:t.exec_ t ~seq ~doc:cd.cd_doc
                   cd.cd_records)
              @@ fun () -> append rest
          in
          Result.bind (append computed) @@ fun () ->
          let infos =
            List.map
              (fun cd ->
                let last = List.nth cd.cd_records (List.length cd.cd_records - 1) in
                {
                  Manifest.doc = cd.cd_doc;
                  shard = shard_of t cd.cd_doc;
                  versions = last.Chain.meta.version + 1;
                  head_hash = last.Chain.meta.hash;
                })
              computed
          in
          Result.bind (end_commit ~exec:t.exec_ t ~seq infos) @@ fun () ->
          publish_infos t infos;
          incr chunks;
          ingested := !ingested + List.length computed;
          appended :=
            !appended
            + List.fold_left (fun a cd -> a + List.length cd.cd_records) 0 computed;
          Ok ()
        end
      in
      let rec over = function
        | [] -> Ok ()
        | chunk :: rest ->
          Result.bind (process_chunk chunk) @@ fun () ->
          (match on_chunk with
          | Some f -> f ~done_:!done_ ~total
          | None -> ());
          over rest
      in
      Result.map
        (fun () ->
          {
            docs_ingested = !ingested;
            docs_skipped = !skipped;
            docs_failed = List.rev !failed;
            versions_appended = !appended;
            chunks = !chunks;
          })
        (over (chunk_list chunk_docs sources))
    in
    on_pool ?jobs ?pool run
  end

(* ------------------------------------------------------------ maintenance *)

let file_size path =
  match (Unix.stat path).Unix.st_size with
  | n -> n
  | exception Unix.Unix_error _ -> 0

type stats = {
  stat_shards : int;
  stat_docs : int;
  stat_versions : int;
  stat_shard_bytes : int array;
  stat_manifest_bytes : int;
  stat_aborted : int;
  stat_epoch : int;
}

let stats t =
  {
    stat_shards = t.shards;
    stat_docs = doc_count t;
    stat_versions = total_versions t;
    stat_shard_bytes = Array.init t.shards (fun i -> file_size (shard_path t i));
    stat_manifest_bytes = file_size (manifest_path t);
    stat_aborted = List.length (aborted_commits t);
    stat_epoch = epoch t;
  }

(* Committed version counts frozen for a maintenance pass. *)
let freeze_counts t =
  with_lock t.state_lock @@ fun () ->
  let counts = Hashtbl.create (max 16 (Hashtbl.length t.catalog)) in
  Hashtbl.iter (fun doc ds -> Hashtbl.replace counts doc ds.ds_versions) t.catalog;
  counts

let committed counts doc = Option.value (Hashtbl.find_opt counts doc) ~default:0

(* Keep exactly the visible records of a shard, the winners its index names
   below the committed count, and index the rewritten file: the kept
   records lie back to back after its header.  [rebase] prunes one
   document: its records below [p] go, and its record for [p] becomes the
   forged base, framed with the sequence number of the record it replaces. *)
let compact_shard ?rebase ~counts path ~interval ~max_replay_ops =
  Result.bind (scan_index path) @@ fun (scan, index) ->
  let keep = Hashtbl.create 256 in
  Hashtbl.iter
    (fun doc slots ->
      let lo = match rebase with Some (d, p, _) when d = doc -> p | _ -> 0 in
      for v = lo to min (committed counts doc) (Ba.dim slots) - 1 do
        if slots.{v} >= 0 then Hashtbl.replace keep (slots.{v} lsr len_bits) ()
      done)
    index.slots;
  let forge =
    match rebase with
    | None -> fun _ record -> record
    | Some (doc, p, base) ->
      let at =
        match Hashtbl.find_opt index.slots doc with
        | Some slots when p < Ba.dim slots && slots.{p} >= 0 -> slots.{p} lsr len_bits
        | _ -> -1
      in
      fun off record ->
        if off <> at then record
        else
          let _, seq, _, _ = unframe_record record in
          frame_record ~doc ~seq base
  in
  let kept = ref [] in
  iter_spans
    ~start:
      (Container.header_length ~interval:scan.Container.interval
         ~max_replay_ops:scan.Container.max_replay_ops)
    scan.Container.records
    (fun ~off ~len:_ record ->
      if Hashtbl.mem keep off then kept := forge off record :: !kept);
  let kept = List.rev !kept in
  Result.bind
    (cerr (Container.rewrite ~path ~interval ~max_replay_ops kept))
  @@ fun valid_end ->
  Result.map
    (fun index -> (valid_end, index))
    (index_records ~path
       ~start:(Container.header_length ~interval ~max_replay_ops)
       kept)

let compact ?rebase t ~counts s =
  with_lock t.shard_locks.(s) @@ fun () ->
  Result.map
    (fun (valid_end, index) ->
      t.shard_ends.(s) <- valid_end;
      t.indexes.(s) <- index)
    (compact_shard ?rebase ~counts (shard_path t s) ~interval:t.interval
       ~max_replay_ops:t.max_replay_ops)

let corpus_bytes t =
  file_size (manifest_path t)
  + Array.fold_left ( + ) 0 (Array.init t.shards (fun i -> file_size (shard_path t i)))

(* Only the document's shard is rewritten, and the catalog, whose count is
   the next version number, does not change.  The rewrite runs inside a
   write-ahead commit that adds no version, so the manifest changes with
   the shard and a reader watching it sees the rewrite. *)
let prune t ~doc p =
  let before = corpus_bytes t in
  let exec = t.exec_ in
  match
    Result.bind (chain t doc) @@ fun (ds, entries) ->
    Result.bind (Chain.rebase ~exec entries p) @@ fun rebased ->
    Result.bind (begin_commit ~exec t [ (doc, ds.ds_shard) ]) @@ fun seq ->
    Result.bind
      (compact t ~rebase:(doc, p, rebased.(0)) ~counts:(freeze_counts t) ds.ds_shard)
    @@ fun () ->
    let info =
      {
        Manifest.doc;
        shard = ds.ds_shard;
        versions = ds.ds_versions;
        head_hash = ds.ds_head_hash;
      }
    in
    Result.bind (end_commit ~exec t ~seq [ info ]) @@ fun () ->
    with_lock t.state_lock (fun () ->
        if Option.is_some ds.ds_chain then ds.ds_chain <- Some rebased;
        (* a shard file was rewritten: open snapshots are invalid *)
        t.epoch <- t.epoch + 1);
    Ok (before, corpus_bytes t)
  with
  | r -> r
  | exception Budget.Exceeded e -> Error (Budget.describe e)

(* Compact every shard, then checkpoint the manifest. *)
let compact_all ?jobs ?pool t =
  let counts = freeze_counts t in
  let before = corpus_bytes t in
  let run pool =
    let results = Pool.map pool t.shards (fun i -> compact t ~counts i) in
    let rec first_error i =
      if i >= Array.length results then Ok ()
      else
        match results.(i) with
        | Error _ as e -> e
        | Ok _ -> first_error (i + 1)
    in
    Result.bind (first_error 0) @@ fun () ->
    let infos =
      with_lock t.state_lock (fun () ->
          List.sort compare
            (Hashtbl.fold
               (fun doc ds acc ->
                 {
                   Manifest.doc;
                   shard = ds.ds_shard;
                   versions = ds.ds_versions;
                   head_hash = ds.ds_head_hash;
                 }
                 :: acc)
               t.catalog []))
    in
    let next_seq = with_lock t.manifest_lock (fun () -> t.next_seq) in
    match
      with_lock t.manifest_lock (fun () ->
          Manifest.checkpoint ~path:(manifest_path t) ~shards:t.shards
            ~interval:t.interval ~max_replay_ops:t.max_replay_ops ~next_seq infos)
    with
    | Error e -> Error (Manifest.error_to_string e)
    | Ok manifest_size ->
      with_lock t.manifest_lock (fun () -> t.manifest_end <- manifest_size);
      with_lock t.state_lock (fun () ->
          t.aborted <- [];
          (* Shard files were rewritten: open snapshots are invalid. *)
          t.epoch <- t.epoch + 1);
      Ok (before, corpus_bytes t)
  in
  on_pool ?jobs ?pool run

let gc ?jobs ?pool ?prune_before t =
  match prune_before with
  | Some (doc, p) -> prune t ~doc p
  | None -> compact_all ?jobs ?pool t

(* One task per shard: rebuild its index from a fresh scan and check it
   against the resident one (built by an earlier scan and extended by every
   append since), then load and verify every committed document bucketed
   there, from its base up.  A document missing from its shard fails its
   load. *)
let verify_shard t ~docs s =
  let path = shard_path t s in
  let checked =
    with_lock t.shard_locks.(s) @@ fun () ->
    Result.bind (scan_index path) @@ fun (scan, fresh) ->
    if t.shard_ends.(s) < 0 then begin
      t.shard_ends.(s) <- scan.Container.valid_end;
      t.indexes.(s) <- fresh;
      Ok ()
    end
    else if
      t.shard_ends.(s) <> scan.Container.valid_end
      || index_entries t.indexes.(s) <> index_entries fresh
    then Error (path ^ ": the resident record index differs from a fresh scan")
    else Ok ()
  in
  Result.bind checked @@ fun () ->
  List.fold_left
    (fun acc (doc, upto) ->
      Result.bind acc @@ fun n ->
      Result.bind (load_chain t ~shard:s ~doc ~upto) @@ fun entries ->
      let rec each v acc =
        if v >= upto then Ok acc
        else
          match Chain.materialize ~verify:true ~exec:(Exec.create ()) entries v with
          | Error msg -> Error (Printf.sprintf "%S version %d: %s" doc v msg)
          | Ok _ -> each (v + 1) (acc + 1)
      in
      each (Chain.base_version entries) n)
    (Ok 0) docs

let verify ?jobs ?pool t =
  let by_shard = Array.make t.shards [] in
  Hashtbl.iter
    (fun doc upto ->
      if upto > 0 then begin
        let s = shard_of t doc in
        by_shard.(s) <- (doc, upto) :: by_shard.(s)
      end)
    (freeze_counts t);
  let run pool =
    let results =
      Pool.map pool t.shards (fun i ->
          verify_shard t ~docs:(List.sort compare by_shard.(i)) i)
    in
    Array.fold_left
      (fun acc r ->
        Result.bind acc @@ fun n -> Result.map (fun m -> n + m) r)
      (Ok 0) results
  in
  on_pool ?jobs ?pool run

(* -------------------------------------------------------------- migration *)

(* The one reader of the older single-file archive: a container of bare
   chain records.  Their payloads move unchanged, framed with the document
   name and the sequence number of the one commit that writes them all. *)
let migrate ?exec ~doc ~legacy dir =
  let rec parse i acc = function
    | [] -> Ok (List.rev acc)
    | (record : Container.record) :: rest -> (
      if not (Chain.known_tag record.Container.tag) then
        Error (Printf.sprintf "record %d: unknown tag %C" i record.Container.tag)
      else
        match Chain.parse_record record with
        | Error msg -> Error (Printf.sprintf "record %d: %s" i msg)
        | Ok p -> parse (i + 1) (p :: acc) rest)
  in
  let read =
    Result.bind (cerr (Container.scan legacy)) @@ fun scan ->
    Result.bind (parse 0 [] scan.Container.records) @@ fun parsed ->
    Result.map (fun entries -> (scan, entries)) (Chain.validate parsed)
  in
  match read with
  | Error msg -> Error (Printf.sprintf "%s: %s" legacy msg)
  | Ok (scan, entries) ->
    Result.bind
      (init ~interval:scan.Container.interval
         ~max_replay_ops:scan.Container.max_replay_ops ?exec ~shards:1 dir)
    @@ fun t ->
    let exec = t.exec_ in
    let n = Array.length entries in
    let written =
      if n = 0 then Ok ()
      else
        let last = entries.(n - 1).Chain.meta in
        let infos =
          [
            {
              Manifest.doc;
              shard = shard_of t doc;
              versions = last.version + 1;
              head_hash = last.hash;
            };
          ]
        in
        match
          Exec.fault exec "store.commit";
          Result.bind (begin_commit ~exec t [ (doc, shard_of t doc) ]) @@ fun seq ->
          Result.bind (append_to_shard ~exec t ~seq ~doc (Array.to_list entries))
          @@ fun () ->
          Result.map (fun () -> publish_infos t infos) (end_commit ~exec t ~seq infos)
        with
        | r -> r
        | exception Budget.Exceeded e -> Error (Budget.describe e)
    in
    Result.bind written @@ fun () ->
    Result.map (fun verified -> (t, verified)) (verify ~jobs:1 t)
