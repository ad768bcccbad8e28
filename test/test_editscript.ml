(* Tests for Treediff.Edit_gen — Algorithm EditScript (§4, Figs. 8-9).

   The central contract (Theorem C.2): the generated script conforms to the
   given matching and transforms T1 into a tree isomorphic to T2, with the
   minimum number of structural operations. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Codec = Treediff_tree.Codec
module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Matching = Treediff_matching.Matching
module Criteria = Treediff_matching.Criteria
module Fast = Treediff_matching.Fast_match
module Edit_gen = Treediff.Edit_gen
module P = Treediff_util.Prng

let parse gen src = Codec.parse gen src

(* Exact-value matching over a pair (FastMatch under default criteria). *)
let auto_match t1 t2 = Fast.run (Criteria.ctx Criteria.default ~t1 ~t2)

(* [Edit_gen.generate] on a fresh exec, and again on execs whose memo slot
   holds indexes a criteria ctx left there: for this very pair (reused),
   and for pairs that share one root or none with it (ignored).  The script
   and dummy pair must not depend on it. *)
let generate_checked ~matching t1 t2 =
  let r = Edit_gen.generate ~matching t1 t2 in
  let text (r : Edit_gen.result) = Treediff_edit.Script_io.to_string r.Edit_gen.script in
  List.iter
    (fun (name, (s1, s2), reused) ->
      let exec = Treediff_util.Exec.create () in
      ignore (Criteria.ctx ~exec Criteria.default ~t1:s1 ~t2:s2);
      Alcotest.(check bool) (name ^ ": slot reused") reused
        (Criteria.pair_indexes exec ~t1 ~t2 <> None);
      let r' = Edit_gen.generate ~exec ~matching t1 t2 in
      Alcotest.(check string) (name ^ ": same script") (text r) (text r');
      Alcotest.(check bool) (name ^ ": same dummy") true
        (r.Edit_gen.dummy = r'.Edit_gen.dummy))
    [
      ("this pair", (t1, t2), true);
      ("(t1, t1)", (t1, t1), false);
      ("(t2, t1)", (t2, t1), false);
    ];
  r

let generate t1 t2 =
  let m = auto_match t1 t2 in
  (m, generate_checked ~matching:m t1 t2)

(* Replay the generated script against t1 (handling the dummy-root case). *)
let replay (r : Edit_gen.result) t1 t2 =
  let base, target =
    match r.Edit_gen.dummy with
    | None -> (Tree.copy t1, Tree.copy t2)
    | Some (d1, d2) -> (Script.rooted ~dummy:d1 t1, Script.rooted ~dummy:d2 t2)
  in
  (Script.apply base r.Edit_gen.script, target)

let check_transforms t1 t2 =
  let _, r = generate t1 t2 in
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "script transforms T1 into T2" true (Iso.equal out target);
  Alcotest.(check bool) "returned tree matches too" true
    (Iso.equal r.Edit_gen.transformed target);
  r

let ops_of_kind r kind =
  List.length
    (List.filter
       (fun op ->
         match (op, kind) with
         | Op.Insert _, `Ins | Op.Delete _, `Del | Op.Update _, `Upd | Op.Move _, `Mov ->
           true
         | (Op.Insert _ | Op.Delete _ | Op.Update _ | Op.Move _), _ -> false)
       r.Edit_gen.script)

let test_identical_trees () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (P (S "a") (S "b")) (P (S "c")))|} in
  let t2 = parse gen {|(D (P (S "a") (S "b")) (P (S "c")))|} in
  let r = check_transforms t1 t2 in
  Alcotest.(check int) "empty script" 0 (List.length r.Edit_gen.script)

let test_single_update () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (P (S "a") (S "b") (S "c")))|} in
  let t2 = parse gen {|(D (P (S "a") (S "b") (S "c2-completely-different")))|} in
  let r = check_transforms t1 t2 in
  (* "c" cannot match "c2-…" under all-or-nothing compare: delete + insert *)
  Alcotest.(check int) "one insert" 1 (ops_of_kind r `Ins);
  Alcotest.(check int) "one delete" 1 (ops_of_kind r `Del)

let test_update_via_matching () =
  (* Force the value change to be an update by supplying the matching. *)
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (S "old"))|} in
  let t2 = parse gen {|(D (S "new"))|} in
  let m = Matching.create () in
  Matching.add m t1.Node.id t2.Node.id;
  Matching.add m (Node.child t1 0).Node.id (Node.child t2 0).Node.id;
  let r = Edit_gen.generate ~matching:m t1 t2 in
  Alcotest.(check int) "single op" 1 (List.length r.Edit_gen.script);
  (match r.Edit_gen.script with
  | [ Op.Update { value; _ } ] -> Alcotest.(check string) "new value" "new" value
  | _ -> Alcotest.fail "expected a lone update");
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "transforms" true (Iso.equal out target)

let test_root_value_update () =
  (* Fig. 8 skips updates for the root; our implementation handles it. *)
  let gen = Tree.gen () in
  let t1 = parse gen {|(D "v1" (S "a"))|} in
  let t2 = parse gen {|(D "v2" (S "a"))|} in
  let m = Matching.create () in
  Matching.add m t1.Node.id t2.Node.id;
  Matching.add m (Node.child t1 0).Node.id (Node.child t2 0).Node.id;
  let r = Edit_gen.generate ~matching:m t1 t2 in
  Alcotest.(check int) "root update emitted" 1 (List.length r.Edit_gen.script);
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "transforms" true (Iso.equal out target)

let test_pure_insert_positions () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (S "a") (S "b") (S "c") (S "d") (S "e"))|} in
  let t2 = parse gen {|(D (S "x") (S "a") (S "b") (S "y") (S "c") (S "d") (S "e") (S "z"))|} in
  let r = check_transforms t1 t2 in
  Alcotest.(check int) "three inserts" 3 (ops_of_kind r `Ins);
  Alcotest.(check int) "no moves" 0 (ops_of_kind r `Mov);
  Alcotest.(check int) "no deletes" 0 (ops_of_kind r `Del)

let test_pure_delete () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (P (S "a") (S "b")) (P (S "z")))|} in
  let t2 = parse gen {|(D (P (S "a") (S "b")))|} in
  let r = check_transforms t1 t2 in
  (* paragraph (S z) unmatched: z and its paragraph both deleted, bottom-up *)
  Alcotest.(check int) "two deletes" 2 (ops_of_kind r `Del);
  match r.Edit_gen.script with
  | [ Op.Delete { id = first }; Op.Delete { id = second } ] ->
    let idx = Test_support.index_by_id t1 in
    let label id = (Hashtbl.find idx id).Node.label in
    Alcotest.(check string) "leaf deleted first" "S" (label first);
    Alcotest.(check string) "parent deleted second" "P" (label second)
  | _ -> Alcotest.fail "expected exactly two deletes"

(* Lemma C.1: aligning k rotated children takes exactly the minimal number
   of moves, |S| - |LCS|. *)
let test_align_minimal_moves () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (S "1") (S "2") (S "3") (S "4") (S "5"))|} in
  (* rotation by one: LCS = 4, so exactly 1 move *)
  let t2 = parse gen {|(D (S "2") (S "3") (S "4") (S "5") (S "1"))|} in
  let r = check_transforms t1 t2 in
  Alcotest.(check int) "rotation needs one move" 1 (List.length r.Edit_gen.script);
  (* reversal: LCS = 1, so 4 moves *)
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (S "1") (S "2") (S "3") (S "4") (S "5"))|} in
  let t2 = parse gen {|(D (S "5") (S "4") (S "3") (S "2") (S "1"))|} in
  let r = check_transforms t1 t2 in
  Alcotest.(check int) "reversal needs four moves" 4 (List.length r.Edit_gen.script);
  List.iter
    (fun op ->
      match op with
      | Op.Move _ -> ()
      | Op.Insert _ | Op.Delete _ | Op.Update _ -> Alcotest.fail "only moves expected")
    r.Edit_gen.script

let test_inter_parent_move () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (P (S "a") (S "b") (S "x")) (P (S "c") (S "y")))|} in
  let t2 = parse gen {|(D (P (S "a") (S "x")) (P (S "c") (S "y") (S "b")))|} in
  let r = check_transforms t1 t2 in
  Alcotest.(check int) "exactly one move" 1 (List.length r.Edit_gen.script)

let test_move_of_subtree () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(R (A (B (S "x") (S "y"))) (A (S "z")))|} in
  let t2 = parse gen {|(R (A (S "z") (B (S "x") (S "y"))) (A))|} in
  ignore (check_transforms t1 t2)

let test_dummy_roots () =
  (* Roots with different labels can never match: the dummy-root path. *)
  let gen = Tree.gen () in
  let t1 = parse gen {|(OLD (S "keep") (S "drop"))|} in
  let t2 = parse gen {|(NEW (S "keep"))|} in
  let m = Matching.create () in
  Matching.add m (Node.child t1 0).Node.id (Node.child t2 0).Node.id;
  let r = generate_checked ~matching:m t1 t2 in
  Alcotest.(check bool) "dummy present" true (r.Edit_gen.dummy <> None);
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "transforms under dummies" true (Iso.equal out target)

let test_total_matching () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (P (S "a")) (P (S "b")))|} in
  let t2 = parse gen {|(D (P (S "b")) (P (S "c")))|} in
  let m, r = generate t1 t2 in
  (* every T2 node has a partner in the total matching *)
  Node.iter_preorder
    (fun (y : Node.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "T2 node %d matched" y.Node.id)
        true
        (Matching.matched_new r.Edit_gen.total y.Node.id))
    t2;
  (* the total matching extends the input matching *)
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) "input pair preserved" true (Matching.mem r.Edit_gen.total x y))
    (Matching.pairs m)

let test_conformity () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (P (S "a") (S "b")) (P (S "c")))|} in
  let t2 = parse gen {|(D (P (S "c")) (P (S "b") (S "new")))|} in
  let m, r = generate t1 t2 in
  (* conformity: no matched node is deleted *)
  List.iter
    (fun op ->
      match op with
      | Op.Delete { id } ->
        Alcotest.(check bool) "deleted node was unmatched" false (Matching.matched_old m id)
      | Op.Insert _ | Op.Update _ | Op.Move _ -> ())
    r.Edit_gen.script;
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "transforms" true (Iso.equal out target)

let test_invalid_matching_rejected () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (S "a"))|} in
  let t2 = parse gen {|(D (P (S "a")))|} in
  let bad = Matching.create () in
  Matching.add bad (Node.child t1 0).Node.id (Node.child t2 0).Node.id;
  let unknown = Matching.create () in
  Matching.add unknown 999 (Node.child t2 0).Node.id;
  (* Rejected with or without the pair's indexes in the exec's slot. *)
  List.iter
    (fun (name, exec) ->
      (* S matched to P: label mismatch must be rejected, as a TD203 diagnostic *)
      Alcotest.(check bool) (name ^ ": label mismatch rejected") true
        (match Edit_gen.generate ?exec ~matching:bad t1 t2 with
        | exception Treediff_check.Diag.Failed [ d ] ->
          d.Treediff_check.Diag.code = Treediff_check.Diag.Label_mismatch
        | _ -> false);
      Alcotest.(check bool) (name ^ ": unknown id rejected") true
        (match Edit_gen.generate ?exec ~matching:unknown t1 t2 with
        | exception Treediff_check.Diag.Failed [ d ] ->
          d.Treediff_check.Diag.code = Treediff_check.Diag.Unmatched_id
        | _ -> false))
    [
      ("fresh exec", None);
      ( "slot present",
        let exec = Treediff_util.Exec.create () in
        ignore (Criteria.ctx ~exec Criteria.default ~t1 ~t2);
        Some exec );
    ]

(* ------------------------------------------------- the paper's running example *)

(* Figure 1, reconstructed from the paper's textual constraints: the leaf
   matching of Example 5.1 {(5,15),(7,16),(8,18),(9,19),(10,17)}, the
   internal pairs (2,12),(3,14),(4,13),(1,11), the align-phase move
   MOV(4,1,2), the insert INS((21,S,g),3,3) as the 3rd child of node 3, and
   one unmatched T1 node (6) removed in the delete phase.  Our pipeline must
   reproduce the paper's exact edit script, ids and all. *)
let paper_trees () =
  let mk id label value = Node.make ~id ~label ~value () in
  (* T1: D1[ P2[S5(a)], P3[S7(c) S8(d) S6(b) S9(e)], P4[S10(f)] ] *)
  let d1 = mk 1 "D" "" in
  let p2 = mk 2 "P" "" and p3 = mk 3 "P" "" and p4 = mk 4 "P" "" in
  List.iter (Node.append_child d1) [ p2; p3; p4 ];
  Node.append_child p2 (mk 5 "S" "a");
  List.iter (Node.append_child p3) [ mk 7 "S" "c"; mk 8 "S" "d"; mk 6 "S" "b"; mk 9 "S" "e" ];
  Node.append_child p4 (mk 10 "S" "f");
  (* T2: D11[ P12[S15(a)], P13[S17(f)], P14[S16(c) S18(d) S20(g) S19(e)] ] *)
  let d11 = mk 11 "D" "" in
  let p12 = mk 12 "P" "" and p13 = mk 13 "P" "" and p14 = mk 14 "P" "" in
  List.iter (Node.append_child d11) [ p12; p13; p14 ];
  Node.append_child p12 (mk 15 "S" "a");
  Node.append_child p13 (mk 17 "S" "f");
  List.iter (Node.append_child p14)
    [ mk 16 "S" "c"; mk 18 "S" "d"; mk 20 "S" "g"; mk 19 "S" "e" ];
  (d1, d11)

let test_paper_example_5_1_matching () =
  let t1, t2 = paper_trees () in
  let m = Treediff_matching.Simple_match.run (Criteria.ctx Criteria.default ~t1 ~t2) in
  (* Example 5.1's matching, exactly *)
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) (Printf.sprintf "(%d,%d) matched" x y) true (Matching.mem m x y))
    [ (5, 15); (7, 16); (8, 18); (9, 19); (10, 17); (2, 12); (3, 14); (4, 13); (1, 11) ];
  Alcotest.(check int) "and nothing else" 9 (Matching.cardinal m);
  Alcotest.(check bool) "node 6 unmatched" false (Matching.matched_old m 6);
  (* FastMatch agrees (Theorem 5.2) *)
  let mf = Fast.run (Criteria.ctx Criteria.default ~t1 ~t2) in
  Alcotest.(check bool) "FastMatch finds it too" true (Matching.equal m mf)

let test_paper_running_example_script () =
  let t1, t2 = paper_trees () in
  let m = Fast.run (Criteria.ctx Criteria.default ~t1 ~t2) in
  let r = Edit_gen.generate ~matching:m t1 t2 in
  (* The paper's §4.1 walk-through: one align move, the insert of g as the
     3rd child of node 3, the delete of node 6.  The align LCS has two
     optimal answers — keep (3,14) and move node 4 (the paper's rendering)
     or keep (4,13) and move node 3 — so accept either one-move script. *)
  let script = List.map Op.to_string r.Edit_gen.script in
  let paper = [ "MOV(4,1,2)"; {|INS((21,S,"g"),3,3)|}; "DEL(6)" ] in
  let equivalent = [ "MOV(3,1,3)"; {|INS((21,S,"g"),3,3)|}; "DEL(6)" ] in
  Alcotest.(check bool)
    (Printf.sprintf "the paper's edit script (got: %s)" (String.concat "; " script))
    true
    (script = paper || script = equivalent);
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "and it transforms T1 into T2" true (Iso.equal out target)

(* Lemma C.1 as a property: aligning a permutation of n distinct children
   takes exactly n - |LCS| moves. *)
let lemma_c1_prop =
  QCheck2.Test.make ~name:"Lemma C.1: align moves = n - |LCS| on permutations" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let n = 2 + P.int g 10 in
      let vals = Array.init n (fun i -> Printf.sprintf "v%d" i) in
      let permuted = Array.copy vals in
      P.shuffle g permuted;
      let gen = Tree.gen () in
      let mk arr =
        Tree.node gen "R" (Array.to_list (Array.map (fun v -> Tree.leaf gen "S" v) arr))
      in
      let t1 = mk vals and t2 = mk permuted in
      let m = auto_match t1 t2 in
      let r = Edit_gen.generate ~matching:m t1 t2 in
      let lcs = Treediff_lcs.Dp.lcs_length ~equal:String.equal vals permuted in
      List.length r.Edit_gen.script = n - lcs
      && List.for_all (function Op.Move _ -> true | _ -> false) r.Edit_gen.script)

(* --------------------------------------------------------- degenerate shapes *)

let test_single_node_trees () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(X "only")|} in
  let t2 = parse gen {|(X "only")|} in
  let r = check_transforms t1 t2 in
  Alcotest.(check int) "identical singletons: empty script" 0
    (List.length r.Edit_gen.script);
  (* same label, different value, matched explicitly: a root update *)
  let gen = Tree.gen () in
  let t1 = parse gen {|(X "v1")|} in
  let t2 = parse gen {|(X "v2")|} in
  let m = Matching.create () in
  Matching.add m t1.Node.id t2.Node.id;
  let r = Edit_gen.generate ~matching:m t1 t2 in
  Alcotest.(check int) "singleton update" 1 (List.length r.Edit_gen.script);
  (* totally unrelated singletons: dummy roots, replace *)
  let gen = Tree.gen () in
  let t1 = parse gen {|(X "v")|} in
  let t2 = parse gen {|(Y "w")|} in
  let m, r = generate t1 t2 in
  ignore m;
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "replacement works" true (Iso.equal out target);
  Alcotest.(check int) "insert + delete" 2 (List.length r.Edit_gen.script)

let test_deep_chain () =
  (* a 60-deep chain, bottom value changed: still correct, no stack issues *)
  let rec build gen depth =
    if depth = 0 then Tree.leaf gen "L" "bottom-old"
    else Tree.node gen (Printf.sprintf "N%d" depth) [ build gen (depth - 1) ]
  in
  let gen = Tree.gen () in
  let t1 = build gen 60 in
  let t2 =
    let t = build gen 60 in
    (match List.rev (Node.preorder t) with
    | leaf :: _ -> leaf.Node.value <- "bottom-new"
    | [] -> ());
    t
  in
  let m = auto_match t1 t2 in
  let r = Edit_gen.generate ~matching:m t1 t2 in
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "deep chain transforms" true (Iso.equal out target)

let test_wide_flat_tree () =
  (* 500 children, one deleted in the middle, two swapped at the ends *)
  let gen = Tree.gen () in
  let mk vals = Tree.node gen "R" (List.map (fun v -> Tree.leaf gen "S" v) vals) in
  let vals = List.init 500 (fun i -> Printf.sprintf "leaf-%03d" i) in
  let t1 = mk vals in
  let swapped =
    List.map
      (fun v ->
        if v = "leaf-000" then "leaf-499"
        else if v = "leaf-499" then "leaf-000"
        else v)
      (List.filter (fun v -> v <> "leaf-250") vals)
  in
  let t2 = mk swapped in
  let m = auto_match t1 t2 in
  let r = Edit_gen.generate ~matching:m t1 t2 in
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "wide tree transforms" true (Iso.equal out target);
  (* one delete + two moves (swap) is the minimal structural script *)
  Alcotest.(check int) "3 structural ops" 3
    (List.length (List.filter Op.is_structural r.Edit_gen.script))

let test_empty_values_everywhere () =
  let gen = Tree.gen () in
  let t1 = parse gen {|(D (P (S) (S)) (P (S)))|} in
  let t2 = parse gen {|(D (P (S)) (P (S) (S)))|} in
  let _, r = generate t1 t2 in
  let out, target = replay r t1 t2 in
  Alcotest.(check bool) "null values fine" true (Iso.equal out target)

(* ------------------------------------------------------------ properties *)

(* Theorem C.2 part 1 on random mutated documents, via the full pipeline. *)
let transforms_prop =
  QCheck2.Test.make ~name:"script transforms T1 into T2 (random mutations)" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen
          ~paragraphs:(1 + P.int g 8) ~vocab:(20 + P.int g 100)
      in
      let t2 = Treediff_workload.Treegen.perturb g gen t1 in
      let _, r = generate t1 t2 in
      let out, target = replay r t1 t2 in
      Iso.equal out target && Treediff_tree.Invariant.check out = Ok ())

(* Random unrelated tree pairs with duplicates (MC3 violated): still correct,
   possibly non-minimal. *)
let transforms_hostile_prop =
  QCheck2.Test.make ~name:"script correct even on MC3-hostile pairs" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen
          ~paragraphs:(1 + P.int g 5) ~vocab:(2 + P.int g 6)
      in
      let t2 =
        Treediff_workload.Treegen.random_document g gen
          ~paragraphs:(1 + P.int g 5) ~vocab:(2 + P.int g 6)
      in
      let _, r = generate t1 t2 in
      let out, target = replay r t1 t2 in
      Iso.equal out target)

(* Structural ops hit the Theorem C.2 lower bound for the given matching. *)
let structural_minimality_prop =
  QCheck2.Test.make ~name:"structural ops meet the C.2 lower bound" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen
          ~paragraphs:(1 + P.int g 6) ~vocab:(30 + P.int g 100)
      in
      let t2 = Treediff_workload.Treegen.perturb g gen t1 in
      let m = auto_match t1 t2 in
      let r = Edit_gen.generate ~matching:m t1 t2 in
      let structural =
        List.length (List.filter Op.is_structural r.Edit_gen.script)
      in
      (* Recompute the bound independently, over the dummy-rooted pair when
         the generator used dummies. *)
      let t1b, t2b =
        match r.Edit_gen.dummy with
        | None -> (t1, t2)
        | Some (d1, d2) -> (Script.rooted ~dummy:d1 t1, Script.rooted ~dummy:d2 t2)
      in
      let mb = Matching.copy m in
      (match r.Edit_gen.dummy with
      | Some (d1, d2) -> Matching.add mb d1 d2
      | None -> ());
      let bound = Test_support.structural_lower_bound ~matching:mb t1b t2b in
      structural = bound)

(* Failure containment: every prefix of a generated script leaves the tree
   well-formed (the script can be applied incrementally, stopped, resumed),
   and truncations never corrupt structure. *)
let prefix_application_prop =
  QCheck2.Test.make ~name:"every script prefix leaves a well-formed tree" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen ~paragraphs:(1 + P.int g 4)
          ~vocab:(20 + P.int g 60)
      in
      let t2 = Treediff_workload.Treegen.perturb g gen t1 in
      let _, r = generate t1 t2 in
      let base =
        match r.Edit_gen.dummy with
        | None -> Tree.copy t1
        | Some (d1, _) -> Script.rooted ~dummy:d1 t1
      in
      let index = Treediff_tree.Id_table.of_tree base in
      List.for_all
        (fun op ->
          Script.apply_into ~root:base ~index op;
          Treediff_tree.Invariant.check base = Ok ())
        r.Edit_gen.script)

(* Differential: the measure Edit_gen takes op by op while it generates
   equals [Script.measure] replaying the finished script on the rooted
   base, field by field, the cost to the bit.  320 pairs cycle through
   Docgen/Mutate and Treegen inputs, a matching with the root pair or
   without it (dummy-rooted), and the unit and word-LCS cost models. *)
let test_measure_differential () =
  let word = Treediff_textdiff.Word_compare.distance in
  let models = [| Treediff_edit.Cost.unit; Treediff_edit.Cost.with_compare word |] in
  let word_ctx = Criteria.make ~compare:word () in
  let dummies = ref 0 in
  for i = 0 to 319 do
    let g = P.create (7919 * i) in
    let gen = Tree.gen () in
    let t1, t2, criteria =
      if i mod 2 = 0 then
        let doc = Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small in
        let doc', _ = Treediff_workload.Mutate.mutate g gen doc ~actions:(1 + P.int g 12) in
        (doc, doc', word_ctx)
      else
        let t1 =
          Treediff_workload.Treegen.random_document g gen
            ~paragraphs:(1 + P.int g 6) ~vocab:(5 + P.int g 60)
        in
        (t1, Treediff_workload.Treegen.perturb g gen t1, Criteria.default)
    in
    let m = Fast.run (Criteria.ctx criteria ~t1 ~t2) in
    if i / 2 mod 2 = 1 then Matching.remove m t1.Node.id t2.Node.id;
    let model = models.(i / 4 mod 2) in
    let r = Edit_gen.generate ~model ~matching:m t1 t2 in
    if r.Edit_gen.dummy <> None then incr dummies;
    let base = Script.rooted ?dummy:(Option.map fst r.Edit_gen.dummy) t1 in
    let want = Script.measure ~model base r.Edit_gen.script
    and got = r.Edit_gen.measure in
    let field name a b =
      if a <> b then Alcotest.failf "pair %d: %s %d, replay %d" i name a b
    in
    if
      not
        (Int64.equal
           (Int64.bits_of_float got.Script.cost)
           (Int64.bits_of_float want.Script.cost))
    then Alcotest.failf "pair %d: cost %h, replay %h" i got.Script.cost want.Script.cost;
    field "weighted" got.Script.weighted want.Script.weighted;
    field "inserts" got.Script.inserts want.Script.inserts;
    field "deletes" got.Script.deletes want.Script.deletes;
    field "updates" got.Script.updates want.Script.updates;
    field "moves" got.Script.moves want.Script.moves
  done;
  (* the root pair was dropped from half the matchings *)
  Alcotest.(check bool) "dummy-rooted pairs" true (!dummies >= 160 && !dummies < 320)

let () =
  Alcotest.run "editscript"
    [
      ( "cases",
        [
          Alcotest.test_case "identical trees" `Quick test_identical_trees;
          Alcotest.test_case "value replacement" `Quick test_single_update;
          Alcotest.test_case "update via matching" `Quick test_update_via_matching;
          Alcotest.test_case "root value update" `Quick test_root_value_update;
          Alcotest.test_case "pure inserts" `Quick test_pure_insert_positions;
          Alcotest.test_case "pure deletes bottom-up" `Quick test_pure_delete;
          Alcotest.test_case "align: minimal moves (Lemma C.1)" `Quick
            test_align_minimal_moves;
          Alcotest.test_case "inter-parent move" `Quick test_inter_parent_move;
          Alcotest.test_case "subtree move" `Quick test_move_of_subtree;
          Alcotest.test_case "dummy roots" `Quick test_dummy_roots;
          Alcotest.test_case "total matching" `Quick test_total_matching;
          Alcotest.test_case "conformity" `Quick test_conformity;
          Alcotest.test_case "invalid matchings rejected" `Quick
            test_invalid_matching_rejected;
        ] );
      ( "paper-example",
        [
          Alcotest.test_case "Example 5.1 matching" `Quick test_paper_example_5_1_matching;
          Alcotest.test_case "Figure 1 edit script, verbatim" `Quick
            test_paper_running_example_script;
          QCheck_alcotest.to_alcotest lemma_c1_prop;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "single-node trees" `Quick test_single_node_trees;
          Alcotest.test_case "deep chain" `Quick test_deep_chain;
          Alcotest.test_case "wide flat tree" `Quick test_wide_flat_tree;
          Alcotest.test_case "empty values" `Quick test_empty_values_everywhere;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest transforms_prop;
          QCheck_alcotest.to_alcotest transforms_hostile_prop;
          QCheck_alcotest.to_alcotest structural_minimality_prop;
          QCheck_alcotest.to_alcotest prefix_application_prop;
          Alcotest.test_case "generated measure = replayed measure" `Quick
            test_measure_differential;
        ] );
    ]
