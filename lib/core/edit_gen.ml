module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Index = Treediff_tree.Index
module Vec = Treediff_util.Vec
module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Matching = Treediff_matching.Matching
module Myers = Treediff_lcs.Myers
module Diag = Treediff_check.Diag

(* Internal invariants of Algorithm EditScript.  Violations surface as the
   same structured diagnostics the standalone verifier emits, instead of the
   bare asserts they used to be. *)
let broken ?nodes fmt =
  Printf.ksprintf
    (fun m -> Diag.fail (Diag.make ?nodes Diag.Internal_invariant "EditScript: %s" m))
    fmt

type result = {
  script : Script.t;
  total : Matching.t;
  transformed : Node.t;
  dummy : (int * int) option;
}

(* Mutable state threaded through one generation run.  The working tree
   mutates as operations are emitted, so its index stays a hashtable; T2 is
   frozen for the whole run and gets a dense array index. *)
type state = {
  w_root : Node.t;                       (* working tree (copy of t1, possibly dummy-rooted) *)
  w_index : (int, Node.t) Hashtbl.t;
  t2_index : Index.t;
  m : Matching.t;                        (* M', grows to a total matching *)
  in_order1 : (int, unit) Hashtbl.t;     (* working-tree ids marked "in order" *)
  in_order2 : (int, unit) Hashtbl.t;     (* T2 ids marked "in order" *)
  ex : Treediff_util.Exec.t;
  budget : Treediff_util.Budget.t;
  mutable next_id : int;
  mutable ops : Op.t list;               (* reversed *)
}

let fresh st =
  let id = st.next_id in
  st.next_id <- st.next_id + 1;
  id

let emit st op =
  st.ops <- op :: st.ops;
  Script.apply_into ~root:st.w_root ~index:st.w_index op

let working st id =
  match Hashtbl.find_opt st.w_index id with
  | Some n -> n
  | None -> broken ~nodes:[ id ] "unknown working node %d" id

let partner_of_new st (x : Node.t) =
  match Matching.partner_of_new st.m x.id with
  | Some wid -> Some (working st wid)
  | None -> None

(* FindPos (Fig. 9), resolved per DESIGN.md: the 1-based position, in the
   destination's post-detach child list, immediately after the working-tree
   partner of x's rightmost in-order left sibling; 1 when there is none.
   [moving] is the node about to be detached (for intra-parent moves). *)
let find_pos st ?moving (x : Node.t) =
  let y =
    match x.Node.parent with
    | Some y -> y
    | None -> broken ~nodes:[ x.id ] "FindPos on the root %d (roots never move)" x.id
  in
  (* Rightmost in-order left sibling of x: the last in-order child seen
     before reaching x itself. *)
  let v = ref None and found = ref false in
  (try
     Node.iter_children
       (fun (c : Node.t) ->
         if c.id = x.id then begin
           found := true;
           raise Exit
         end;
         if Hashtbl.mem st.in_order2 c.id then v := Some c)
       y
   with Exit -> ());
  if not !found then
    broken ~nodes:[ x.id; y.id ]
      "FindPos: node %d is not among the children of its parent %d" x.id y.id;
  match !v with
  | None -> 1
  | Some v -> (
    let u =
      match Matching.partner_of_new st.m v.Node.id with
      | Some uid -> working st uid
      | None ->
        broken ~nodes:[ v.Node.id ]
          "FindPos: in-order node %d has no partner (in-order nodes are \
           matched by construction)"
          v.Node.id
    in
    let p =
      match u.Node.parent with
      | Some p -> p
      | None ->
        broken ~nodes:[ u.Node.id ] "FindPos: working node %d is detached" u.Node.id
    in
    let skip_id = match moving with Some (n : Node.t) -> n.id | None -> -1 in
    (* 1-based index of u counting all children except the moving node. *)
    let pos = ref 1 and res = ref 0 in
    (try
       Node.iter_children
         (fun (c : Node.t) ->
           if c.id = skip_id then ()
           else if c.id = u.Node.id then begin
             res := !pos;
             raise Exit
           end
           else incr pos)
         p
     with Exit -> ());
    if !res = 0 then
      broken ~nodes:[ u.Node.id; p.Node.id ]
        "FindPos: node %d is not among the children of %d" u.Node.id p.Node.id;
    !res + 1)

let mark_in_order st (w : Node.t) (x : Node.t) =
  Hashtbl.replace st.in_order1 w.id ();
  Hashtbl.replace st.in_order2 x.id ()

(* AlignChildren (Fig. 9): LCS the mutually-parented matched children, then
   move the misaligned remainder into place. *)
let align_children st (w : Node.t) (x : Node.t) =
  Treediff_util.Exec.fault st.ex "edit_gen.align";
  Node.iter_children (fun (c : Node.t) -> Hashtbl.remove st.in_order1 c.id) w;
  Node.iter_children (fun (c : Node.t) -> Hashtbl.remove st.in_order2 c.id) x;
  let s1 = Vec.create () in
  Node.iter_children
    (fun (a : Node.t) ->
      match Matching.partner_of_old st.m a.id with
      | Some bid -> (
        match Index.node_of_id st.t2_index bid with
        | Some b -> (
          match b.Node.parent with
          | Some p -> if p.Node.id = x.id then Vec.push s1 a
          | None -> ())
        | None -> ())
      | None -> ())
    w;
  let s2 = Vec.create () in
  Node.iter_children
    (fun (b : Node.t) ->
      match Matching.partner_of_new st.m b.id with
      | Some aid -> (
        match Hashtbl.find_opt st.w_index aid with
        | Some (a : Node.t) -> (
          match a.Node.parent with
          | Some p -> if p.Node.id = w.id then Vec.push s2 b
          | None -> ())
        | None -> ())
      | None -> ())
    x;
  let arr1 = Vec.to_array s1 and arr2 = Vec.to_array s2 in
  let equal (a : Node.t) (b : Node.t) = Matching.mem st.m a.id b.id in
  let lcs = Myers.lcs ~equal arr1 arr2 in
  List.iter (fun (i, j) -> mark_in_order st arr1.(i) arr2.(j)) lcs;
  Array.iter
    (fun (a : Node.t) ->
      if not (Hashtbl.mem st.in_order1 a.id) then begin
        let b =
          match Matching.partner_of_old st.m a.id with
          | Some bid -> (
            match Index.node_of_id st.t2_index bid with
            | Some b -> b
            | None ->
              broken ~nodes:[ a.id; bid ]
                "AlignChildren: partner %d of node %d is not in T2" bid a.id)
          | None ->
            broken ~nodes:[ a.id ]
              "AlignChildren: node %d entered S1 without a partner" a.id
        in
        let k = find_pos st ~moving:a b in
        emit st (Op.Move { id = a.id; parent = w.id; pos = k });
        mark_in_order st a b
      end)
    arr1

let visit st (x : Node.t) =
  Treediff_util.Exec.fault st.ex "edit_gen.visit";
  Treediff_util.Budget.visit st.budget;
  (match x.Node.parent with
  | None ->
    (* Root: matched by construction; Fig. 8 skips the update for it, which
       would drop a root value change — handle it explicitly. *)
    let w =
      match partner_of_new st x with
      | Some w -> w
      | None ->
        broken ~nodes:[ x.id ]
          "root %d is unmatched after dummy-rooting" x.id
    in
    if not (String.equal w.Node.value x.Node.value) then
      emit st (Op.Update { id = w.Node.id; value = x.Node.value })
  | Some y -> (
    let z =
      match Matching.partner_of_new st.m y.Node.id with
      | Some zid -> working st zid
      | None ->
        broken ~nodes:[ y.Node.id ]
          "parent %d of visited node %d is unmatched (BFS visits parents \
           first)"
          y.Node.id x.id
    in
    match partner_of_new st x with
    | None ->
      (* Insert phase. *)
      let k = find_pos st x in
      let wid = fresh st in
      emit st (Op.Insert { id = wid; label = x.label; value = x.value; parent = z.Node.id; pos = k });
      Matching.add st.m wid x.id;
      mark_in_order st (working st wid) x
    | Some w ->
      (* Update phase. *)
      if not (String.equal w.Node.value x.Node.value) then
        emit st (Op.Update { id = w.Node.id; value = x.Node.value });
      (* Move phase (inter-parent moves). *)
      let v =
        match w.Node.parent with
        | Some v -> v
        | None ->
          broken ~nodes:[ w.Node.id ]
            "working partner %d of non-root node %d is detached" w.Node.id x.id
      in
      if not (Matching.mem st.m v.Node.id y.Node.id) then begin
        let k = find_pos st ~moving:w x in
        emit st (Op.Move { id = w.Node.id; parent = z.Node.id; pos = k });
        mark_in_order st w x
      end));
  (* Align phase for x's children. *)
  match partner_of_new st x with
  | Some w -> align_children st w x
  | None ->
    broken ~nodes:[ x.id ]
      "node %d is still unmatched after the insert phase" x.id

let delete_phase st =
  Treediff_util.Exec.fault st.ex "edit_gen.delete";
  (* Post-order: children are deleted before their parents, so every delete
     targets a leaf (Theorem C.2, stage 2). *)
  let order = Node.postorder st.w_root in
  List.iter
    (fun (n : Node.t) ->
      Treediff_util.Budget.visit st.budget;
      if not (Matching.matched_old st.m n.id) then emit st (Op.Delete { id = n.id }))
    order

let validate_input ~matching idx1 idx2 =
  List.iter
    (fun (xid, yid) ->
      match (Index.node_of_id idx1 xid, Index.node_of_id idx2 yid) with
      | Some (x : Node.t), Some (y : Node.t) ->
        if not (String.equal x.label y.label) then
          Diag.fail
            (Diag.make ~nodes:[ xid; yid ] Diag.Label_mismatch
               "EditScript: matched pair (%d,%d) has different labels (%S vs \
                %S); updates cannot change labels"
               xid yid x.label y.label)
      | None, _ ->
        Diag.fail
          (Diag.make ~nodes:[ xid ] Diag.Unmatched_id
             "EditScript: matching references unknown T1 id %d" xid)
      | _, None ->
        Diag.fail
          (Diag.make ~nodes:[ yid ] Diag.Unmatched_id
             "EditScript: matching references unknown T2 id %d" yid))
    (Matching.pairs matching)

let generate ?exec ~matching t1 t2 =
  let ex =
    match exec with Some e -> e | None -> Treediff_util.Exec.create ()
  in
  let budget = Treediff_util.Exec.budget ex in
  Treediff_util.Budget.set_phase budget "edit_gen";
  (* The pair's indexes, when a criteria ctx on this exec already built
     them for these very trees. *)
  let idx1, idx2 =
    match Treediff_matching.Criteria.pair_indexes ex ~t1 ~t2 with
    | Some p -> p
    | None -> (Index.build t1, Index.build t2)
  in
  validate_input ~matching idx1 idx2;
  let next_id = ref (max (Index.max_id idx1) (Index.max_id idx2) + 1) in
  let m = Matching.copy matching in
  let roots_matched = Matching.mem m t1.Node.id t2.Node.id in
  (* Build the working tree and the effective T2, dummy-rooting both when the
     roots are unmatched (§4.1 insert phase). *)
  let w_root, t2_eff, dummy =
    if roots_matched then (Tree.copy t1, t2, None)
    else begin
      let d1 = !next_id and d2 = !next_id + 1 in
      next_id := !next_id + 2;
      Matching.add m d1 d2;
      (Script.rooted ~dummy:d1 t1, Script.rooted ~dummy:d2 t2, Some (d1, d2))
    end
  in
  let st =
    {
      w_root;
      w_index = Tree.index_by_id w_root;
      t2_index = (if t2_eff == t2 then idx2 else Index.build t2_eff);
      m;
      in_order1 = Hashtbl.create 64;
      in_order2 = Hashtbl.create 64;
      ex;
      budget;
      next_id = !next_id;
      ops = [];
    }
  in
  Node.iter_bfs (visit st) t2_eff;
  delete_phase st;
  { script = List.rev st.ops; total = st.m; transformed = st.w_root; dummy }
