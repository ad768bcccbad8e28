module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Id_table = Treediff_tree.Id_table
module Op = Treediff_edit.Op
module Matching = Treediff_matching.Matching

type base = Identical | Updated of string | Inserted | Deleted | Marker

type t = {
  label : string;
  value : string;
  base : base;
  moved : int option;
  children : t list;
}

(* Stack-safe bottom-up construction of an immutable [t] from a node tree:
   a frame per open node collects built children (reversed); closing a frame
   hands the finished subtree to its parent frame.  [expand] decides, per
   child, whether to open a frame (Recurse) or emit a ready leaf subtree. *)
type 'a step = Recurse of 'a | Ready of t

type 'a ghost_frame = {
  g_node : 'a;
  mutable g_todo : 'a step list;
  mutable g_acc : t list; (* reversed *)
}

let fold_tree ~expand ~close root =
  let frame n = { g_node = n; g_todo = expand n; g_acc = [] } in
  let result = ref None in
  let stack = ref [ frame root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | fr :: rest -> (
      match fr.g_todo with
      | Ready ghost :: tl ->
        fr.g_todo <- tl;
        fr.g_acc <- ghost :: fr.g_acc
      | Recurse c :: tl ->
        fr.g_todo <- tl;
        stack := frame c :: !stack
      | [] -> (
        let built = close fr.g_node (List.rev fr.g_acc) in
        stack := rest;
        match rest with
        | parent :: _ -> parent.g_acc <- built :: parent.g_acc
        | [] -> result := Some built))
  done;
  match !result with Some t -> t | None -> assert false

let build ?exec ~t1 ~t2 ~total ~script () =
  (match exec with
  | Some ex -> Treediff_util.Exec.fault ex "delta.build"
  | None -> Treediff_util.Fault.point (Treediff_util.Fault.create ()) "delta.build");
  let t1_index = Id_table.of_tree t1 in
  (* Marker numbers in script order; a node moves at most once per script. *)
  let markers = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | Op.Move { id; _ } ->
        if not (Hashtbl.mem markers id) then
          Hashtbl.replace markers id (Hashtbl.length markers + 1)
      | Op.Insert _ | Op.Delete _ | Op.Update _ -> ())
    script;
  (* Ghost subtree for a deleted T1 node: unmatched descendants stay as
     [Deleted]; matched descendants were necessarily moved out, so they leave
     a [Marker] behind. *)
  let marker_ghost (c : Node.t) =
    { label = c.label; value = c.value; base = Marker;
      moved = Hashtbl.find_opt markers c.id; children = [] }
  in
  let deleted_ghost (u : Node.t) =
    fold_tree u
      ~expand:(fun (n : Node.t) ->
        List.map
          (fun (c : Node.t) ->
            if Matching.matched_old total c.id then Ready (marker_ghost c)
            else Recurse c)
          (Node.children n))
      ~close:(fun (n : Node.t) children ->
        { label = n.label; value = n.value; base = Deleted; moved = None; children })
  in
  (* Ghosts anchored under matched T1 parents, keyed by the partner's T2 id. *)
  let anchored : (int, (int * t) list ref) Hashtbl.t = Hashtbl.create 16 in
  let root_ghosts = ref [] in
  let anchor (p : Node.t option) old_index ghost =
    let target =
      match p with
      | Some p -> Matching.partner_of_old total p.Node.id
      | None -> None
    in
    match target with
    | Some t2id ->
      let slot =
        match Hashtbl.find_opt anchored t2id with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.replace anchored t2id r;
          r
      in
      slot := (old_index, ghost) :: !slot
    | None -> root_ghosts := (old_index, ghost) :: !root_ghosts
  in
  let old_index (u : Node.t) = match u.Node.parent with Some _ -> Node.child_index u | None -> 0 in
  Node.iter_preorder
    (fun (u : Node.t) ->
      let parent_deleted =
        match u.Node.parent with
        | Some p -> not (Matching.matched_old total p.Node.id)
        | None -> false
      in
      (* Only ghost roots are anchored; nested ghosts are built recursively. *)
      if not parent_deleted then
        if not (Matching.matched_old total u.id) then
          anchor u.Node.parent (old_index u) (deleted_ghost u)
        else if Hashtbl.mem markers u.id then
          anchor u.Node.parent (old_index u) (marker_ghost u))
    t1;
  let insert_ghosts t2id children =
    match Hashtbl.find_opt anchored t2id with
    | None -> children
    | Some slot ->
      let ghosts = List.sort (fun (i, _) (j, _) -> compare i j) !slot in
      List.fold_left
        (fun acc (idx, ghost) ->
          let n = List.length acc in
          let idx = min idx n in
          let rec ins i = function
            | rest when i = 0 -> ghost :: rest
            | [] -> [ ghost ]
            | x :: rest -> x :: ins (i - 1) rest
          in
          ins idx acc)
        children ghosts
  in
  let build_new (y0 : Node.t) =
    fold_tree y0
      ~expand:(fun (y : Node.t) ->
        let steps = ref [] in
        for i = Node.child_count y - 1 downto 0 do
          steps := Recurse (Node.child y i) :: !steps
        done;
        !steps)
      ~close:(fun (y : Node.t) built ->
        let base, moved =
          match Matching.partner_of_new total y.id with
          | None -> (Inserted, None) (* unmatched new node (pre-script delta) *)
          | Some wid -> (
            match Id_table.find t1_index wid with
            | old ->
              let base =
                if String.equal old.Node.value y.value then Identical
                else Updated old.Node.value
              in
              (base, Hashtbl.find_opt markers wid)
            | exception Not_found -> (Inserted, None) (* fresh id: node was inserted *))
        in
        let children = insert_ghosts y.id built in
        { label = y.label; value = y.value; base; moved; children })
  in
  let root = build_new t2 in
  (* Ghosts whose old parent has no counterpart (e.g. a replaced root) hang
     off the delta root, oldest position first. *)
  match !root_ghosts with
  | [] -> root
  | gs ->
    let gs = List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) gs) in
    { root with children = gs @ root.children }

let is_ghost d = match d.base with Deleted | Marker -> true | _ -> false

let strip d =
  if is_ghost d then None
  else
    Some
      (fold_tree d
         ~expand:(fun d ->
           List.filter_map
             (fun c -> if is_ghost c then None else Some (Recurse c))
             d.children)
         ~close:(fun d children -> { d with children }))

let to_new_tree gen d =
  if is_ghost d then invalid_arg "Delta.to_new_tree: the root is a ghost";
  let node_of d = Tree.node gen d.label ~value:d.value [] in
  let root = node_of d in
  let stack = ref [ (d.children, root) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (kids, parent) :: rest ->
      stack := rest;
      List.iter
        (fun c ->
          if not (is_ghost c) then begin
            let n = node_of c in
            Node.append_child parent n;
            stack := (c.children, n) :: !stack
          end)
        kids
  done;
  root

let counts d =
  let ins = ref 0 and del = ref 0 and upd = ref 0 and mov = ref 0 in
  let stack = ref [ (d, false) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (d, in_ghost) :: rest ->
      stack := rest;
      (match d.base with
      | Inserted -> incr ins
      | Deleted -> if not in_ghost then incr del
      | Updated _ -> incr upd
      | Identical | Marker -> ());
      (match (d.base, d.moved) with
      | (Identical | Updated _), Some _ -> incr mov
      | _ -> ());
      let in_ghost = in_ghost || d.base = Deleted in
      List.iter (fun c -> stack := (c, in_ghost) :: !stack) d.children
  done;
  (!ins, !del, !upd, !mov)

let marker_of d = match d.base with Marker -> d.moved | _ -> None

let rec pp ppf d =
  let annot =
    match (d.base, d.moved) with
    | Identical, None -> ""
    | Identical, Some k -> Printf.sprintf " [mov->%d]" k
    | Updated old, None -> Printf.sprintf " [upd from %S]" old
    | Updated old, Some k -> Printf.sprintf " [upd from %S, mov->%d]" old k
    | Inserted, _ -> " [ins]"
    | Deleted, _ -> " [del]"
    | Marker, Some k -> Printf.sprintf " [mrk %d]" k
    | Marker, None -> " [mrk]"
  in
  if d.children = [] then Format.fprintf ppf "@[<v>(%s %S%s)@]" d.label d.value annot
  else begin
    Format.fprintf ppf "@[<v 2>(%s%s%s" d.label
      (if d.value = "" then "" else Printf.sprintf " %S" d.value)
      annot;
    List.iter (fun c -> Format.fprintf ppf "@,%a" pp c) d.children;
    Format.fprintf ppf ")@]"
  end

let to_string d = Format.asprintf "%a" pp d
