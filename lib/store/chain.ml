module B = Treediff_util.Binio
module Budget = Treediff_util.Budget
module Exec = Treediff_util.Exec
module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Codec = Treediff_tree.Codec
module Iso = Treediff_tree.Iso
module Script = Treediff_edit.Script
module Script_io = Treediff_edit.Script_io
module Diag = Treediff_check.Diag
module Depgraph = Treediff_check.Depgraph

type kind = Snapshot | Delta | Checkpoint

let kind_name = function
  | Snapshot -> "snapshot"
  | Delta -> "delta"
  | Checkpoint -> "checkpoint"

type entry = {
  version : int;
  kind : kind;
  ops : int;
  bytes : int;
  hash : int64;
  next_id : int;
}

type parsed = {
  meta : entry;
  dummy : int option;
  fwd : Script.t;
  inv : Script.t;
  snap : string option;
  raw : Container.record;
}

(* ------------------------------------------------------- record payloads *)

let tag_snapshot = 'S'

let tag_delta = 'D'

let tag_checkpoint = 'C'

let known_tag c = c = tag_snapshot || c = tag_delta || c = tag_checkpoint

let snapshot_payload ~version ~next_id ~hash tree_bytes =
  let buf = Buffer.create (String.length tree_bytes + 32) in
  B.add_varint buf version;
  B.add_varint buf next_id;
  B.add_i64 buf hash;
  B.add_string buf tree_bytes;
  Buffer.contents buf

let delta_payload ?snapshot ~version ~next_id ~hash ~dummy ~fwd ~inv () =
  let buf = Buffer.create 256 in
  B.add_varint buf version;
  B.add_varint buf next_id;
  B.add_i64 buf hash;
  B.add_varint buf (match dummy with None -> 0 | Some d1 -> d1 + 1);
  B.add_string buf (Script_io.to_string fwd);
  B.add_string buf (Script_io.to_string inv);
  (match snapshot with None -> () | Some tree_bytes -> B.add_string buf tree_bytes);
  Buffer.contents buf

let parse_record (record : Container.record) =
  let r = B.reader record.Container.payload in
  let bytes = String.length record.Container.payload in
  let script what s =
    match Script_io.parse s with
    | Ok (_, script) -> script
    | Error msg -> raise (B.Malformed (0, Printf.sprintf "%s script: %s" what msg))
  in
  match
    let version = B.read_varint r in
    let next_id = B.read_varint r in
    let hash = B.read_i64 r in
    if record.Container.tag = tag_snapshot then
      let snap = B.read_string r in
      {
        meta = { version; kind = Snapshot; ops = 0; bytes; hash; next_id };
        dummy = None;
        fwd = [];
        inv = [];
        snap = Some snap;
        raw = record;
      }
    else begin
      let dummy =
        match B.read_varint r with 0 -> None | d -> Some (d - 1)
      in
      let fwd = script "forward" (B.read_string r) in
      let inv = script "inverse" (B.read_string r) in
      let kind, snap =
        if record.Container.tag = tag_checkpoint then
          (Checkpoint, Some (B.read_string r))
        else (Delta, None)
      in
      {
        meta = { version; kind; ops = List.length fwd; bytes; hash; next_id };
        dummy;
        fwd;
        inv;
        snap;
        raw = record;
      }
    end
  with
  | parsed ->
    if B.remaining r > 0 then Error "trailing bytes in record payload"
    else Ok parsed
  | exception B.Truncated off ->
    Error (Printf.sprintf "record payload truncated at offset %d" off)
  | exception B.Malformed (_, reason) -> Error reason

(* The chain must be contiguous and start with a snapshot. *)
let validate parsed =
  let ok =
    match parsed with
    | [] -> true
    | first :: _ ->
      first.meta.kind = Snapshot
      && List.for_all2
           (fun p v -> p.meta.version = v)
           parsed
           (List.init (List.length parsed) (fun i -> first.meta.version + i))
  in
  if not ok then Error "records do not form a contiguous version chain"
  else Ok (Array.of_list parsed)

let base_version entries =
  if Array.length entries = 0 then 0 else entries.(0).meta.version

let find entries v =
  let base = base_version entries in
  let i = v - base in
  if Array.length entries = 0 then Error "empty archive: no versions committed"
  else if i < 0 || i >= Array.length entries then
    Error
      (Printf.sprintf "no version %d (store holds %d..%d)" v base
         (base + Array.length entries - 1))
  else Ok entries.(i)

(* ----------------------------------------------------------- materialize *)

(* Replay one chain step in place on [cur] (which is consumed). *)
let replay_step ~exec cur (p : parsed) ~backward =
  let script = if backward then p.inv else p.fwd in
  Exec.fault exec "store.replay";
  Budget.visit_n (Exec.budget exec) (List.length script);
  match Script.replay ?dummy:p.dummy cur script with
  | t -> Ok t
  | exception Script.Apply_error msg ->
    Error
      (Printf.sprintf "version %d: stored %s script does not apply: %s"
         p.meta.version
         (if backward then "inverse" else "forward")
         msg)

let decode_snapshot (p : parsed) =
  match p.snap with
  | None -> Error (Printf.sprintf "version %d carries no snapshot" p.meta.version)
  | Some bytes -> (
    match Codec.decode bytes with
    | Ok tree -> Ok tree
    | Error e ->
      Error
        (Printf.sprintf "version %d snapshot: %s" p.meta.version
           (Codec.decode_error_to_string e)))

(* Nearest snapshot-bearing entry at or below [i], and the cheaper of the
   two replay plans (forward from below, backward from above). *)
let plan entries i =
  let n = Array.length entries in
  let rec below j = if entries.(j).snap <> None then j else below (j - 1) in
  let rec above j =
    if j >= n then None
    else if entries.(j).snap <> None then Some j
    else above (j + 1)
  in
  let start = below i in
  let fwd_cost = ref 0 in
  for j = start + 1 to i do
    fwd_cost := !fwd_cost + entries.(j).meta.ops
  done;
  match above (i + 1) with
  | None -> (start, false)
  | Some start' ->
    let bwd_cost = ref 0 in
    for j = i + 1 to start' do
      bwd_cost := !bwd_cost + entries.(j).meta.ops
    done;
    if !bwd_cost < !fwd_cost then (start', true) else (start, false)

let materialize ?(verify = false) ~exec entries v =
  match find entries v with
  | Error _ as e -> e
  | Ok target -> (
    let i = v - base_version entries in
    let start, backward = plan entries i in
    match decode_snapshot entries.(start) with
    | Error _ as e -> e
    | Ok tree ->
      let rec walk cur j =
        if (not backward && j > i) || (backward && j <= i) then Ok cur
        else
          match replay_step ~exec cur entries.(j) ~backward with
          | Error _ as e -> e
          | Ok cur -> walk cur (if backward then j - 1 else j + 1)
      in
      let first = if backward then start else start + 1 in
      Result.bind (walk tree first) @@ fun tree ->
      if verify && not (Int64.equal (Iso.hash tree) target.meta.hash) then
        Error
          (Printf.sprintf
             "version %d: materialized tree does not match the stored hash" v)
      else Ok tree)

(* Prune history below [p]: a forged {!Snapshot} for [p] (its tree, hash
   and id floor) followed by the records above it, version numbers kept. *)
let rebase ~exec entries p =
  let base = base_version entries in
  let last = base + Array.length entries - 1 in
  if Array.length entries = 0 then Error "empty archive: nothing to prune"
  else if p < base || p > last then
    Error (Printf.sprintf "prune point %d outside stored versions %d..%d" p base last)
  else if p = base then Ok entries
  else
    Result.bind (materialize ~exec entries p) @@ fun tree ->
    let at = entries.(p - base).meta in
    let payload =
      snapshot_payload ~version:p ~next_id:at.next_id ~hash:at.hash (Codec.encode tree)
    in
    Result.bind (parse_record { Container.tag = tag_snapshot; payload }) @@ fun forged ->
    Ok (Array.append [| forged |] (Array.sub entries (p - base + 1) (last - p)))

(* ----------------------------------------------------------------- commit *)

type policy = { interval : int; max_replay_ops : int }

type state = {
  next_version : int;
  prev_next_id : int;
  since_commits : int;
  since_ops : int;
}

let empty_state =
  { next_version = 0; prev_next_id = 0; since_commits = 0; since_ops = 0 }

(* Cost accumulated since (and commits since) the last snapshot-bearing
   record — the inputs of the checkpoint policy. *)
let state_of_entries entries =
  let n = Array.length entries in
  if n = 0 then empty_state
  else begin
    let rec scan j commits ops =
      if j < 0 || entries.(j).snap <> None then (commits, ops)
      else scan (j - 1) (commits + 1) (ops + entries.(j).meta.ops)
    in
    let since_commits, since_ops = scan (n - 1) 0 0 in
    {
      next_version = entries.(n - 1).meta.version + 1;
      prev_next_id = entries.(n - 1).meta.next_id;
      since_commits;
      since_ops;
    }
  end

let advance state p =
  {
    next_version = p.meta.version + 1;
    prev_next_id = p.meta.next_id;
    since_commits = (if p.snap <> None then 0 else state.since_commits + 1);
    since_ops = (if p.snap <> None then 0 else state.since_ops + p.meta.ops);
  }

let checkpoint_due ~policy ~state ~ops =
  (policy.interval > 0 && state.since_commits + 1 >= policy.interval)
  || (policy.max_replay_ops > 0 && state.since_ops + ops > policy.max_replay_ops)

let base_record doc =
  (* Base snapshot: the whole chain's id space starts here. *)
  let gen = Tree.gen () in
  let tree = Tree.relabel_ids gen doc in
  let bytes = Codec.encode tree in
  let payload =
    snapshot_payload ~version:0 ~next_id:(Tree.max_id tree + 1)
      ~hash:(Iso.hash tree) bytes
  in
  let record = { Container.tag = tag_snapshot; payload } in
  match parse_record record with
  | Error msg -> Error ("internal: base snapshot does not re-parse: " ^ msg)
  | Ok p -> Ok (p, tree)

let next_record ?(config = Treediff.Config.default) ~exec ~policy ~state ~head
    doc =
  let version = state.next_version in
  let gen = Tree.gen ~start:state.prev_next_id () in
  let t_new = Tree.relabel_ids gen doc in
  match Treediff.Diff.diff ~config ~exec head t_new with
  | exception Diag.Failed ds ->
    Error
      ("delta rejected by the static checker: "
      ^ String.concat "; " (List.map Diag.to_string ds))
  | result -> (
    (* Re-verify before anything touches the disk: a delta that fails the
       checker is refused, not archived. *)
    match
      Diag.errors (Treediff.Diff.verify ~config result ~t1:head ~t2:t_new)
    with
    | _ :: _ as ds ->
      Error
        ("delta rejected by the static checker: "
        ^ String.concat "; " (List.map Diag.to_string ds))
    | [] -> (
      let dummy = Option.map fst result.Treediff.Diff.dummy in
      let fwd = result.Treediff.Diff.script in
      let inv = Script.invert (Script.rooted ?dummy head) fwd in
      let new_head = Treediff.Diff.apply result head in
      let hash = Iso.hash new_head in
      let next_id =
        let dmax =
          match result.Treediff.Diff.dummy with
          | None -> -1
          | Some (d1, d2) -> max d1 d2
        in
        1 + max (max (Tree.max_id new_head) (Tree.max_id t_new)) dmax
      in
      let ops = List.length fwd in
      let snapshot, tag =
        if checkpoint_due ~policy ~state ~ops then
          (Some (Codec.encode new_head), tag_checkpoint)
        else (None, tag_delta)
      in
      let payload =
        delta_payload ?snapshot ~version ~next_id ~hash ~dummy ~fwd ~inv ()
      in
      let record = { Container.tag; payload } in
      match parse_record record with
      | Error msg -> Error ("internal: delta record does not re-parse: " ^ msg)
      | Ok p -> Ok (p, new_head)))

(* ----------------------------------------------------------- diff_between *)

(* The §4 phase order the lint enforces: once the delete phase begins,
   nothing but deletes may follow. *)
let phase_ordered script =
  let rec go deleting = function
    | [] -> true
    | Treediff_edit.Op.Delete _ :: rest -> go true rest
    | _ :: rest -> (not deleting) && go deleting rest
  in
  go false script

let node_ids tree =
  let ids = Hashtbl.create 64 in
  Node.iter_preorder (fun n -> Hashtbl.replace ids n.Node.id ()) tree;
  ids

(* Concatenating chain steps interleaves their delete phases, which the §4
   convention (and the lint) forbids.  The dependence analyzer repairs
   that: {!Depgraph.normalize} elides churn the composition left behind
   and reorders the script into canonical form, which sinks every delete
   that nothing depends on to the tail.  Cross-version scripts can carry a
   true non-DEL-after-DEL dependence (a later step editing a child list a
   deletion already renumbered) that no reordering removes; those fall
   back to Algorithm EditScript under the identity matching on shared ids
   — same endpoints, phase-ordered, minimal — and the analyzer then
   canonically orders that emission too.  Either way the result is checked
   before it escapes: {!Depgraph.verify_rewrite} proves the returned
   script equivalent to the raw composition (TD501 on divergence) and in
   canonical order (TD502), so [diff_between]'s output contract —
   canonical, §4 phase-ordered, same effect as the chain — is enforced,
   not assumed. *)
let canonicalize ~exec ~materialize ~from_ ~to_ composed =
  Result.bind (materialize from_) @@ fun t_from ->
  let candidate =
    match Depgraph.normalize ~exec ~tree:t_from composed with
    | s when phase_ordered s -> Ok s
    | _ | (exception Diag.Failed _) ->
      Result.bind (materialize to_) @@ fun t_to ->
      let ids_from = node_ids t_from and ids_to = node_ids t_to in
      let m = Treediff_matching.Matching.create () in
      Hashtbl.iter
        (fun id () ->
          if Hashtbl.mem ids_to id then Treediff_matching.Matching.add m id id)
        ids_from;
      (match Treediff.Edit_gen.generate ~matching:m t_from t_to with
      | r -> Ok (Depgraph.canonicalize ~exec ~tree:t_from r.Treediff.Edit_gen.script)
      | exception Diag.Failed ds ->
        Error
          ("internal: canonicalizing the composed script failed: "
          ^ String.concat "; " (List.map Diag.to_string ds)))
  in
  Result.bind candidate @@ fun script ->
  let diags =
    Depgraph.verify_rewrite ~exec ~tree:t_from ~original:composed
      ~rewritten:script ()
  in
  match Diag.errors diags with
  | [] -> Ok script
  | errs ->
    Error
      ("internal: canonicalized script does not match the composed chain: "
      ^ String.concat "; " (List.map Diag.to_string errs))

let diff_between ~exec ~materialize entries ~from_ ~to_ =
  Result.bind (find entries from_) @@ fun _ ->
  Result.bind (find entries to_) @@ fun _ ->
  if from_ = to_ then Ok []
  else begin
    let base = base_version entries in
    let lo, hi = if from_ < to_ then (from_, to_) else (to_, from_) in
    let steps = List.init (hi - lo) (fun k -> entries.(lo + 1 + k - base)) in
    match List.find_opt (fun p -> p.dummy <> None) steps with
    | Some p ->
      Error
        (Printf.sprintf
           "version %d was committed with unmatched roots (dummy-rooted \
            delta); its script is not composable — materialize both \
            versions and diff them directly"
           p.meta.version)
    | None ->
      let scripts =
        if from_ < to_ then List.map (fun p -> p.fwd) steps
        else List.rev_map (fun p -> p.inv) steps
      in
      let composed =
        match scripts with
        | [] -> []
        | first :: rest -> List.fold_left Script.compose first rest
      in
      (match canonicalize ~exec ~materialize ~from_ ~to_ composed with
      | r -> r
      | exception Budget.Exceeded e -> Error (Budget.describe e))
  end
