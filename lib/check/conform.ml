module Node = Treediff_tree.Node
module Op = Treediff_edit.Op
module Matching = Treediff_matching.Matching

let audit ?matching ~sim ~lint_clean ~t1 ~t2 script =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if lint_clean then (
    match Sim.first_difference sim t2 with
    | None -> ()
    | Some msg ->
      add (Diag.make Not_isomorphic "script result differs from T2 at %s" msg));
  (match matching with
  | None -> ()
  | Some m ->
    (* Phase-count bounds fixed by the matching. *)
    let expected_del = ref 0 and expected_upd = ref 0 and expected_ins = ref 0 in
    let t2_nodes = Treediff_tree.Id_table.of_tree t2 in
    let required_mov = ref 0 in
    Node.iter_preorder
      (fun (x : Node.t) ->
        match Matching.partner_of_old m x.id with
        | None -> incr expected_del
        | Some yid -> (
          match Treediff_tree.Id_table.find_opt t2_nodes yid with
          | None -> () (* analyzer reports TD202; no bound derivable *)
          | Some y ->
            if not (String.equal x.value y.Node.value) then incr expected_upd;
            (match (x.parent, y.Node.parent) with
            | Some px, Some py when not (Matching.mem m px.Node.id py.Node.id) ->
              incr required_mov
            | _ -> ())))
      t1;
    Node.iter_preorder
      (fun (y : Node.t) -> if not (Matching.matched_new m y.id) then incr expected_ins)
      t2;
    let ins = ref 0 and del = ref 0 and upd = ref 0 and mov = ref 0 in
    List.iteri
      (fun i op ->
        match op with
        | Op.Insert { id; _ } ->
          incr ins;
          if Matching.matched_old m id then
            add
              (Diag.make ~op:i ~nodes:[ id ] Inserts_matched
                 "INS of id %d, which the matching pairs as a T1 node" id)
        | Op.Delete { id } ->
          incr del;
          if Matching.matched_old m id then
            add
              (Diag.make ~op:i ~nodes:[ id ] Deletes_matched
                 "DEL of node %d, which is matched (scripts must conform to \
                  their matching)"
                 id)
        | Op.Update _ -> incr upd
        | Op.Move _ -> incr mov)
      script;
    if !ins <> !expected_ins then
      add
        (Diag.warn Insert_count "%d inserts, but the matching leaves %d T2 nodes unmatched"
           !ins !expected_ins);
    if !del <> !expected_del then
      add
        (Diag.warn Delete_count "%d deletes, but the matching leaves %d T1 nodes unmatched"
           !del !expected_del);
    if !upd > !expected_upd then
      add
        (Diag.warn Redundant_update
           "%d updates, but only %d matched pairs change value" !upd !expected_upd);
    if !mov < !required_mov then
      add
        (Diag.warn Move_count
           "%d moves, but %d matched pairs have unmatched parents and must move"
           !mov !required_mov));
  List.rev !diags
