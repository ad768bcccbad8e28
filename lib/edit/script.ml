module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree

type t = Op.t list

exception Apply_error of string

type measure = {
  cost : float;
  weighted : int;
  inserts : int;
  deletes : int;
  updates : int;
  moves : int;
}

let unweighted m = m.inserts + m.deletes + m.updates + m.moves

let err fmt = Printf.ksprintf (fun s -> raise (Apply_error s)) fmt

let lookup index id =
  match Hashtbl.find_opt index id with
  | Some n -> n
  | None -> err "no node with id %d" id

let apply_into ~root ~index op =
  match op with
  | Op.Insert { id; label; value; parent; pos } ->
    if Hashtbl.mem index id then err "insert: id %d already present" id;
    let p = lookup index parent in
    let k = pos - 1 in
    if k < 0 || k > Node.child_count p then
      err "insert: position %d out of range at node %d (arity %d)" pos parent
        (Node.child_count p);
    let n = Node.make ~id ~label ~value () in
    Node.insert_child p k n;
    Hashtbl.replace index id n
  | Op.Delete { id } ->
    let n = lookup index id in
    if not (Node.is_leaf n) then err "delete: node %d is not a leaf" id;
    if n.Node.id = root.Node.id then err "delete: cannot delete the root";
    Node.detach n;
    Hashtbl.remove index id
  | Op.Update { id; value } ->
    let n = lookup index id in
    n.Node.value <- value
  | Op.Move { id; parent; pos } ->
    let n = lookup index id in
    let p = lookup index parent in
    if n.Node.id = p.Node.id || Node.is_ancestor n p then
      err "move: node %d into its own subtree (under %d)" id parent;
    if n.Node.id = root.Node.id then err "move: cannot move the root";
    Node.detach n;
    let k = pos - 1 in
    if k < 0 || k > Node.child_count p then
      err "move: position %d out of range at node %d (arity %d)" pos parent
        (Node.child_count p);
    Node.insert_child p k n

(* The §4.1 dummy root: [t] grafted, in place, under a fresh root [d1].  A
   [d1] read from a file may name a node of [t]: two nodes with one id. *)
let graft d1 t =
  if Tree.find_by_id t d1 <> None then err "dummy root %d is already a node of the tree" d1;
  let w = Node.make ~id:d1 ~label:"@@root" () in
  Node.append_child w t;
  w

let unwrap root =
  match Node.children root with
  | [ real ] ->
    Node.detach real;
    real
  | _ -> err "dummy root %d does not have exactly one child" root.Node.id

let rooted ?dummy t =
  match dummy with None -> t | Some d1 -> graft d1 (Tree.copy t)

let replay ?dummy t script =
  let root = match dummy with None -> t | Some d1 -> graft d1 t in
  let index = Tree.index_by_id root in
  List.iter (apply_into ~root ~index) script;
  if dummy = None then root else unwrap root

let apply ?dummy t1 script = replay ?dummy (Tree.copy t1) script

(* ----------------------------------------------------------------- invert *)

(* Replay the script on a working copy, recording each operation's inverse
   against the pre-operation state, and reverse the list.  Because undo runs
   in reverse order, the tree state at each undo step equals the state the
   forward operation saw, so positions recorded before the forward step are
   exact: the inverse restores the source tree identically, identifiers
   included. *)
let invert t1 script =
  let root = Tree.copy t1 in
  let index = Tree.index_by_id root in
  let parent_pos id =
    let n = lookup index id in
    match n.Node.parent with
    | None -> err "invert: operation on the root (node %d)" id
    | Some p -> (n, p.Node.id, Node.child_index n + 1)
  in
  List.fold_left
    (fun acc op ->
      let iop =
        match op with
        | Op.Insert { id; _ } -> Op.Delete { id }
        | Op.Delete { id } ->
          let n, parent, pos = parent_pos id in
          Op.Insert { id; label = n.Node.label; value = n.Node.value; parent; pos }
        | Op.Update { id; value = _ } ->
          let n = lookup index id in
          Op.Update { id; value = n.Node.value }
        | Op.Move { id; _ } ->
          let _, parent, pos = parent_pos id in
          Op.Move { id; parent; pos }
      in
      apply_into ~root ~index op;
      iop :: acc)
    [] script

(* ---------------------------------------------------------------- compose *)

let max_id_mentioned script =
  List.fold_left
    (fun acc op ->
      match op with
      | Op.Insert { id; parent; _ } -> max acc (max id parent)
      | Op.Delete { id } | Op.Update { id; _ } -> max acc id
      | Op.Move { id; parent; _ } -> max acc (max id parent))
    (-1) script

(* Identifiers [s2] may not re-introduce: anything [s1] inserted (even if it
   later deleted it — the script linter flags re-insertion of an id that ever
   existed) and anything [s1] deleted from the source tree. *)
let burned_ids s1 =
  let set = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | Op.Insert { id; _ } | Op.Delete { id } -> Hashtbl.replace set id ()
      | Op.Update _ | Op.Move _ -> ())
    s1;
  set

(* Rename an inserted id and every later reference to it. *)
let substitute_from ~from_op ~old_id ~fresh ops =
  List.mapi
    (fun i op ->
      if i < from_op then op
      else
        match op with
        | Op.Insert { id; label; value; parent; pos } ->
          let id = if i = from_op then fresh else id in
          let parent = if parent = old_id then fresh else parent in
          Op.Insert { id; label; value; parent; pos }
        | Op.Delete { id } -> if id = old_id then Op.Delete { id = fresh } else op
        | Op.Update { id; value } ->
          if id = old_id then Op.Update { id = fresh; value } else op
        | Op.Move { id; parent; pos } ->
          let id = if id = old_id then fresh else id in
          let parent = if parent = old_id then fresh else parent in
          Op.Move { id; parent; pos })
    ops

let compose s1 s2 =
  (* Step 1: remap id collisions.  [s2]'s inserted ids must be fresh with
     respect to everything [s1] created or destroyed, or the concatenation
     re-uses an id and fails the dataflow lint (TD102). *)
  let burned = burned_ids s1 in
  let next = ref (max (max_id_mentioned s1) (max_id_mentioned s2) + 1) in
  let s2 =
    let ops = ref s2 in
    List.iteri
      (fun i op ->
        match op with
        | Op.Insert { id; _ } when Hashtbl.mem burned id ->
          let fresh = !next in
          incr next;
          ops := substitute_from ~from_op:i ~old_id:id ~fresh !ops
        | Op.Insert _ | Op.Delete _ | Op.Update _ | Op.Move _ -> ())
      s2;
    !ops
  in
  (* Step 2: value fusion over the concatenation.  Only value-carrying ops
     fuse — an earlier UPD (or the value of an INS) of a node is invisible
     once a later UPD overwrites it, and values never affect the positions
     other operations resolve against, so dropping the earlier setter is
     always semantics-preserving.  Structural fusion (MOV∘MOV, INS∘DEL
     cancellation) is deliberately not attempted: positions are interpreted
     against the tree state at application time, so removing a structural
     op can invalidate every later position. *)
  let ops = Array.of_list (s1 @ s2) in
  let keep = Array.make (Array.length ops) true in
  let setter : (int, [ `Ins of int | `Upd of int ]) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i op ->
      match op with
      | Op.Insert { id; _ } -> Hashtbl.replace setter id (`Ins i)
      | Op.Delete { id } -> Hashtbl.remove setter id
      | Op.Update { id; value } -> (
        match Hashtbl.find_opt setter id with
        | Some (`Ins j) -> (
          (* fold the newest value into the insert and drop this update;
             the insert stays the node's registered setter *)
          keep.(i) <- false;
          match ops.(j) with
          | Op.Insert { id; label; parent; pos; value = _ } ->
            ops.(j) <- Op.Insert { id; label; value; parent; pos }
          | Op.Delete _ | Op.Update _ | Op.Move _ -> assert false)
        | Some (`Upd j) ->
          keep.(j) <- false;
          Hashtbl.replace setter id (`Upd i)
        | None -> Hashtbl.replace setter id (`Upd i))
      | Op.Move _ -> ())
    ops;
  let out = ref [] in
  for i = Array.length ops - 1 downto 0 do
    if keep.(i) then out := ops.(i) :: !out
  done;
  !out

let measure ?(model = Cost.unit) t1 script =
  Cost.check model;
  let root = Tree.copy t1 in
  let index = Tree.index_by_id root in
  let m =
    ref { cost = 0.0; weighted = 0; inserts = 0; deletes = 0; updates = 0; moves = 0 }
  in
  List.iter
    (fun op ->
      (* Measure before applying: update needs the old value, move needs the
         subtree's leaf count at move time. *)
      (match op with
      | Op.Insert _ ->
        m := { !m with cost = !m.cost +. model.Cost.c_ins; weighted = !m.weighted + 1;
               inserts = !m.inserts + 1 }
      | Op.Delete _ ->
        m := { !m with cost = !m.cost +. model.Cost.c_del; weighted = !m.weighted + 1;
               deletes = !m.deletes + 1 }
      | Op.Update { id; value } ->
        let n = lookup index id in
        let c = model.Cost.compare n.Node.value value in
        m := { !m with cost = !m.cost +. c; updates = !m.updates + 1 }
      | Op.Move { id; _ } ->
        let n = lookup index id in
        m := { !m with cost = !m.cost +. model.Cost.c_mov;
               weighted = !m.weighted + Node.leaf_count n; moves = !m.moves + 1 });
      apply_into ~root ~index op)
    script;
  !m

let cost ?model t1 script = (measure ?model t1 script).cost

let pp ppf script =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i op -> Format.fprintf ppf "%s%a" (if i > 0 then "; " else "") Op.pp op)
    script;
  Format.fprintf ppf "@]"

let to_string script = Format.asprintf "%a" pp script
