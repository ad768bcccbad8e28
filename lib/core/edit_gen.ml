module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Index = Treediff_tree.Index
module Id_table = Treediff_tree.Id_table
module Vec = Treediff_util.Vec
module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Cost = Treediff_edit.Cost
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
  measure : Script.measure;
}

(* Mutable state threaded through one generation run.  The working tree
   mutates as operations are emitted, so its index is an id table; T2 is
   frozen for the whole run and is read through its {!Index}.  The "in
   order" marks are flat byte arrays: by id-table entry number on the
   working side (inserted nodes get fresh entries), by preorder rank on
   the T2 side. *)
type state = {
  w_root : Node.t;                       (* working tree (copy of t1, possibly dummy-rooted) *)
  w_index : Id_table.t;
  t2_index : Index.t;
  m : Matching.t;                        (* M', grows to a total matching *)
  in_order1 : Bytes.t;                   (* working entry -> marked "in order" *)
  in_order2 : Bytes.t;                   (* T2 rank -> marked "in order" *)
  model : Cost.t;
  mutable measure : Script.measure;      (* of the ops emitted so far *)
  ex : Treediff_util.Exec.t;
  budget : Treediff_util.Budget.t;
  mutable next_id : int;
  mutable ops : Op.t list;               (* reversed *)
}

let fresh st =
  let id = st.next_id in
  st.next_id <- st.next_id + 1;
  id

(* The working tree holds the exact pre-op state, so each op is measured
   as it is emitted, as {!Script.measure} would on a replay. *)
let emit st op =
  st.ops <- op :: st.ops;
  st.measure <- Script.charge st.model ~index:st.w_index st.measure op;
  Script.apply_into ~root:st.w_root ~index:st.w_index op

let working st id =
  match Id_table.find st.w_index id with
  | n -> n
  | exception Not_found -> broken ~nodes:[ id ] "unknown working node %d" id

let set_mark marks i v = Bytes.set marks i (if v then '\001' else '\000')

let marked marks i = Bytes.get marks i <> '\000'

(* Marks are read and set only for present ids: the arrays are sized for
   every working entry and every T2 rank. *)
let in_order1 st id = marked st.in_order1 (Id_table.entry st.w_index id)

let in_order2 st id = marked st.in_order2 (Index.rank_of_id st.t2_index id)

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
         if in_order2 st c.id then v := Some c)
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
  set_mark st.in_order1 (Id_table.entry st.w_index w.id) true;
  set_mark st.in_order2 (Index.rank_of_id st.t2_index x.id) true

let align_matched st (w : Node.t) (x : Node.t) =
  let s1 = Vec.create () in
  for i = 0 to Node.child_count w - 1 do
    let a = Node.child w i in
    match Matching.partner_of_old st.m a.id with
    | Some bid -> (
      let r = Index.rank_of_id st.t2_index bid in
      if r >= 0 then
        match (Index.node st.t2_index r).Node.parent with
        | Some p -> if p.Node.id = x.id then Vec.push s1 a
        | None -> ())
    | None -> ()
  done;
  let s2 = Vec.create () in
  for i = 0 to Node.child_count x - 1 do
    let b = Node.child x i in
    match Matching.partner_of_new st.m b.id with
    | Some aid -> (
      match Id_table.find st.w_index aid with
      | (a : Node.t) -> (
        match a.Node.parent with
        | Some p -> if p.Node.id = w.id then Vec.push s2 b
        | None -> ())
      | exception Not_found -> ())
    | None -> ()
  done;
  let arr1 = Vec.to_array s1 and arr2 = Vec.to_array s2 in
  let equal (a : Node.t) (b : Node.t) = Matching.mem st.m a.id b.id in
  let lcs = Myers.lcs ~equal arr1 arr2 in
  List.iter (fun (i, j) -> mark_in_order st arr1.(i) arr2.(j)) lcs;
  Array.iter
    (fun (a : Node.t) ->
      if not (in_order1 st a.id) then begin
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

(* AlignChildren (Fig. 9): LCS the mutually-parented matched children, then
   move the misaligned remainder into place.  A leaf on either side has no
   such children. *)
let align_children st (w : Node.t) (x : Node.t) =
  Treediff_util.Exec.fault st.ex "edit_gen.align";
  for i = 0 to Node.child_count w - 1 do
    set_mark st.in_order1 (Id_table.entry st.w_index (Node.child w i).id) false
  done;
  for i = 0 to Node.child_count x - 1 do
    set_mark st.in_order2 (Index.rank_of_id st.t2_index (Node.child x i).id) false
  done;
  if Node.child_count w > 0 && Node.child_count x > 0 then align_matched st w x

let visit st (x : Node.t) =
  Treediff_util.Exec.fault st.ex "edit_gen.visit";
  Treediff_util.Budget.visit st.budget;
  match x.Node.parent with
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
      emit st (Op.Update { id = w.Node.id; value = x.Node.value });
    align_children st w x
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
      let w = working st wid in
      mark_in_order st w x;
      align_children st w x
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
      end;
      (* Align phase for x's children. *)
      align_children st w x)

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

let generate ?exec ?(model = Cost.unit) ~matching t1 t2 =
  Cost.check model;
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
  let t2_index = if t2_eff == t2 then idx2 else Index.build t2_eff in
  (* The working tree's ids: T1's, a dummy root's, and one fresh id per
     unmatched T2 node (each is inserted once). *)
  let n2 = Index.size t2_index in
  let w_index =
    Id_table.of_tree ~size:(Index.size idx1 + 1 + n2 - Matching.cardinal matching) w_root
  in
  let st =
    {
      w_root;
      w_index;
      t2_index;
      m;
      in_order1 = Bytes.make (Id_table.entries w_index + n2) '\000';
      in_order2 = Bytes.make n2 '\000';
      model;
      measure = Script.zero;
      ex;
      budget;
      next_id = !next_id;
      ops = [];
    }
  in
  Node.iter_bfs (visit st) t2_eff;
  delete_phase st;
  {
    script = List.rev st.ops;
    total = st.m;
    transformed = st.w_root;
    dummy;
    measure = st.measure;
  }
