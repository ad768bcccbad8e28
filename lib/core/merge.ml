module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Id_table = Treediff_tree.Id_table
module Op = Treediff_edit.Op

type touch = { base_id : int; label : string; value : string; op : Op.t }

type conflict = {
  base_id : int;
  label : string;
  value : string;
  ours : Op.t list;
  theirs : Op.t list;
}

type t = {
  ours : Diff.t;
  theirs : Diff.t;
  conflicts : conflict list;
  ours_only : touch list;
  theirs_only : touch list;
}

(* Base nodes a script touches: updates, moves and deletes reference base
   ids directly (inserted ids are fresh). *)
let touches base_index (result : Diff.t) =
  let tbl : (int, Op.t list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun op ->
      let id =
        match op with
        | Op.Update { id; _ } | Op.Move { id; _ } | Op.Delete { id } -> Some id
        | Op.Insert _ -> None
      in
      match id with
      | Some id when Id_table.mem base_index id ->
        let prev = try Hashtbl.find tbl id with Not_found -> [] in
        Hashtbl.replace tbl id (op :: prev)
      | Some _ | None -> ())
    result.Diff.script;
  tbl

(* Two touch-sets agree when they apply the same multiset of operations —
   e.g. both sides made the identical update. *)
let same_ops a b =
  let norm ops = List.sort compare (List.map Op.to_string ops) in
  norm a = norm b

let correlate ?config ?diff ~base ~ours ~theirs () =
  let diff =
    match diff with Some f -> f | None -> fun a b -> Diff.diff ?config a b
  in
  let d_ours = diff base ours in
  let d_theirs = diff base theirs in
  let base_index = Id_table.of_tree base in
  let t_ours = touches base_index d_ours in
  let t_theirs = touches base_index d_theirs in
  let describe id =
    let n : Node.t = Id_table.find base_index id in
    (n.Node.label, n.Node.value)
  in
  let conflicts = ref [] and ours_only = ref [] and theirs_only = ref [] in
  Hashtbl.iter
    (fun id ops_o ->
      let label, value = describe id in
      match Hashtbl.find_opt t_theirs id with
      | Some ops_t ->
        if not (same_ops ops_o ops_t) then
          conflicts :=
            { base_id = id; label; value; ours = List.rev ops_o; theirs = List.rev ops_t }
            :: !conflicts
      | None ->
        List.iter (fun op -> ours_only := { base_id = id; label; value; op } :: !ours_only) ops_o)
    t_ours;
  Hashtbl.iter
    (fun id ops_t ->
      if not (Hashtbl.mem t_ours id) then begin
        let label, value = describe id in
        List.iter
          (fun op -> theirs_only := { base_id = id; label; value; op } :: !theirs_only)
          ops_t
      end)
    t_theirs;
  let by_id (l : touch list) =
    List.sort (fun (a : touch) b -> compare a.base_id b.base_id) l
  in
  let conflicts =
    List.sort (fun (a : conflict) b -> compare a.base_id b.base_id) !conflicts
  in
  { ours = d_ours; theirs = d_theirs; conflicts;
    ours_only = by_id !ours_only; theirs_only = by_id !theirs_only }

let pp_conflict ppf c =
  Format.fprintf ppf "@[<v 2>conflict on node %d (%s %S):@,ours:   %s@,theirs: %s@]"
    c.base_id c.label c.value
    (String.concat "; " (List.map Op.to_string c.ours))
    (String.concat "; " (List.map Op.to_string c.theirs))
