(* Tests for the dense tree-pair index layer: structural invariants of
   Treediff_tree.Index, and property tests pinning the index-backed matchers
   and differ to the seed (naive-walk) behavior — the optimization changes
   cost, not results. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Index = Treediff_tree.Index
module Codec = Treediff_tree.Codec
module Matching = Treediff_matching.Matching
module Criteria = Treediff_matching.Criteria
module Fast = Treediff_matching.Fast_match
module Simple = Treediff_matching.Simple_match
module Label_order = Treediff_matching.Label_order
module Myers = Treediff_lcs.Myers
module Docgen = Treediff_workload.Docgen
module Treegen = Treediff_workload.Treegen
module Mutate = Treediff_workload.Mutate
module P = Treediff_util.Prng

(* ------------------------------------------------------ index invariants *)

let check_invariants (t : Node.t) (idx : Index.t) =
  let n = Index.size idx in
  Alcotest.(check int) "size" (Node.size t) n;
  (* ranks are preorder and rank_of_id inverts node *)
  let expect = ref 0 in
  Node.iter_preorder
    (fun x ->
      let r = !expect in
      incr expect;
      Alcotest.(check int) "rank is preorder position" r (Index.rank_of_id idx x.Node.id);
      Alcotest.(check int) "node round-trips" x.Node.id (Index.node idx r).Node.id)
    t;
  let post_seen = Array.make n false in
  for r = 0 to n - 1 do
    let x = Index.node idx r in
    (* interval sanity *)
    let l = Index.last idx r in
    Alcotest.(check bool) "last >= rank" true (l >= r);
    Alcotest.(check int) "interval width = subtree size" (Node.size x) (l - r + 1);
    (* parent/child links *)
    (match x.Node.parent with
    | None -> Alcotest.(check int) "root parent rank" (-1) (Index.parent_rank idx r)
    | Some p ->
      let pr = Index.rank_of_id idx p.Node.id in
      Alcotest.(check int) "parent rank" pr (Index.parent_rank idx r);
      Alcotest.(check bool) "parent interval nests child" true
        (pr < r && Index.last idx pr >= l);
      Alcotest.(check int) "child position" (Node.child_index x) (Index.child_pos idx r));
    (* derived scalars agree with the naive recursions *)
    Alcotest.(check int) "leaf count" (Node.leaf_count x) (Index.leaf_count idx r);
    Alcotest.(check int) "depth" (Node.depth x) (Index.depth idx r);
    Alcotest.(check int) "height" (Node.height x) (Index.height idx r);
    Alcotest.(check string) "label" x.Node.label (Index.label_name idx r);
    Alcotest.(check bool) "leaf flag" (Node.is_leaf x) (Index.is_leaf_rank idx r);
    (* leaf counts sum over children *)
    let child_sum = Node.fold_children
        (fun acc c -> acc + Index.leaf_count idx (Index.rank_of_id idx c.Node.id))
        0 x
    in
    Alcotest.(check int) "leaf counts sum" (Index.leaf_count idx r)
      (if Node.is_leaf x then 1 else child_sum);
    (* the subtree's leaves are the contiguous leaf-order slice *)
    let fl = Index.first_leaf idx r and lc = Index.leaf_count idx r in
    let slice = Array.sub (Index.leaves idx) fl lc in
    let expected =
      List.map (fun (w : Node.t) -> Index.rank_of_id idx w.Node.id) (Node.leaves x)
    in
    Alcotest.(check (list int)) "contiguous leaf slice" expected (Array.to_list slice);
    (* postorder is a permutation with children before parents *)
    let pr = Index.postorder_rank idx r in
    Alcotest.(check bool) "post rank in range" true (pr >= 0 && pr < n && not post_seen.(pr));
    post_seen.(pr) <- true;
    Node.iter_children
      (fun c ->
        Alcotest.(check bool) "children before parents in postorder" true
          (Index.postorder_rank idx (Index.rank_of_id idx c.Node.id) < pr))
      x
  done;
  (* label chains: preorder-sorted, complete, correctly split *)
  let interner = Index.interner idx in
  let sorted a = Array.for_all (fun b -> b) (Array.mapi (fun i r -> i = 0 || a.(i - 1) < r) a) in
  for lid = 0 to Index.Interner.count interner - 1 do
    let lf = Index.leaf_chain idx lid
    and il = Index.internal_chain idx lid
    and all = Index.chain idx lid in
    Alcotest.(check bool) "leaf chain preorder-sorted" true (sorted lf);
    Alcotest.(check bool) "internal chain preorder-sorted" true (sorted il);
    Alcotest.(check bool) "full chain preorder-sorted" true (sorted all);
    Alcotest.(check int) "chain split partitions" (Array.length all)
      (Array.length lf + Array.length il);
    Array.iter
      (fun r -> Alcotest.(check bool) "leaf chain holds leaves" true (Index.is_leaf_rank idx r))
      lf;
    Array.iter
      (fun r ->
        Alcotest.(check int) "chain label agrees" lid (Index.label_id idx r))
      all
  done;
  let counted = Array.make n 0 in
  for lid = 0 to Index.Interner.count interner - 1 do
    Array.iter (fun r -> counted.(r) <- counted.(r) + 1) (Index.chain idx lid)
  done;
  Alcotest.(check bool) "every node in exactly one chain" true
    (Array.for_all (fun c -> c = 1) counted)

let test_index_invariants_example () =
  let gen = Tree.gen () in
  let t =
    Codec.parse gen
      {|(D (P (S "a") (S "b")) (P (S "c")) (Q (R (S "d") (S "e")) (S "f")))|}
  in
  check_invariants t (Index.build t)

let test_index_invariants_random () =
  let g = P.create 7 in
  for _ = 1 to 10 do
    let gen = Tree.gen () in
    let t =
      Treegen.random_labeled g gen ~max_depth:(2 + P.int g 4) ~max_width:(1 + P.int g 5)
        ~labels:[| "A"; "B"; "C"; "D" |] ~vocab:6
    in
    check_invariants t (Index.build t)
  done

let test_index_pair_shares_labels () =
  let gen = Tree.gen () in
  let t1 = Codec.parse gen {|(D (P (S "a")))|}
  and t2 = Codec.parse gen {|(P (S "b") (X "c"))|} in
  let idx1, idx2 = Index.pair ~t1 ~t2 () in
  List.iter
    (fun l ->
      match (Index.find_label idx1 l, Index.find_label idx2 l) with
      | Some a, Some b -> Alcotest.(check int) ("shared id for " ^ l) a b
      | _ -> ())
    [ "D"; "P"; "S"; "X" ];
  (* a label only on one side resolves there and yields empty chains on the other *)
  match Index.find_label idx2 "X" with
  | None -> Alcotest.fail "X not interned"
  | Some xid ->
    Alcotest.(check int) "X absent from t1" 0 (Array.length (Index.chain idx1 xid))

let test_index_out_of_range_ids () =
  let gen = Tree.gen () in
  let t = Codec.parse gen {|(D (S "a"))|} in
  let idx = Index.build t in
  Alcotest.(check int) "unknown id" (-1) (Index.rank_of_id idx 99999);
  Alcotest.(check int) "negative id" (-1) (Index.rank_of_id idx (-3));
  Alcotest.(check bool) "node_of_id none" true (Index.node_of_id idx 99999 = None)

(* --------------------------------------- seed-behavior reference matchers *)

(* The seed implementations, verbatim in spirit: subtree walks, list chains,
   Node.height recursions — no index anywhere.  The property tests assert the
   index-backed matchers agree with these bit for bit. *)

let ref_contains (y : Node.t) (z : Node.t) = y.Node.id = z.Node.id || Node.is_ancestor y z

let ref_common t2_by_id m (x : Node.t) (y : Node.t) =
  let count = ref 0 in
  let rec walk (w : Node.t) =
    if Node.is_leaf w then begin
      match Matching.partner_of_old m w.Node.id with
      | Some zid -> (
        match Hashtbl.find_opt t2_by_id zid with
        | Some z when ref_contains y z -> incr count
        | _ -> ())
      | None -> ()
    end
    else List.iter walk (Node.children w)
  in
  walk x;
  !count

let ref_equal_nodes (crit : Criteria.t) t2_by_id m (x : Node.t) (y : Node.t) =
  match (Node.is_leaf x, Node.is_leaf y) with
  | true, true ->
    String.equal x.Node.label y.Node.label
    && crit.Criteria.compare x.Node.value y.Node.value <= crit.Criteria.leaf_f
  | false, false ->
    String.equal x.Node.label y.Node.label
    &&
    let nx = Node.leaf_count x and ny = Node.leaf_count y in
    let cm = ref_common t2_by_id m x y in
    float_of_int cm /. float_of_int (max nx ny) > crit.Criteria.internal_t
  | _ -> false

let ref_fast_match crit t1 t2 =
  let t2_by_id = Test_support.index_by_id t2 in
  let m = Matching.create () in
  let match_label l ~leaf =
    let unmatched side nodes =
      Array.of_list
        (List.filter
           (fun (n : Node.t) ->
             match side with
             | `Old -> not (Matching.matched_old m n.Node.id)
             | `New -> not (Matching.matched_new m n.Node.id))
           nodes)
    in
    let s1 = unmatched `Old (Fast.chain t1 l ~leaf)
    and s2 = unmatched `New (Fast.chain t2 l ~leaf) in
    let equal x y = ref_equal_nodes crit t2_by_id m x y in
    let lcs = Myers.lcs ~equal s1 s2 in
    List.iter (fun (i, j) -> Matching.add m s1.(i).Node.id s2.(j).Node.id) lcs;
    Array.iter
      (fun (x : Node.t) ->
        if not (Matching.matched_old m x.Node.id) then
          let rec scan j =
            if j < Array.length s2 then
              let y = s2.(j) in
              if (not (Matching.matched_new m y.Node.id)) && equal x y then
                Matching.add m x.Node.id y.Node.id
              else scan (j + 1)
          in
          scan 0)
      s1
  in
  List.iter (fun l -> match_label l ~leaf:true) (Label_order.leaf_labels t1 t2);
  List.iter (fun l -> match_label l ~leaf:false) (Label_order.internal_labels t1 t2);
  m

let ref_simple_match crit t1 t2 =
  let t2_by_id = Test_support.index_by_id t2 in
  let m = Matching.create () in
  let bottom_up =
    List.map (fun n -> (Node.height n, n)) (Node.preorder t1)
    |> List.stable_sort (fun (h1, _) (h2, _) -> compare h1 h2)
    |> List.map snd
  in
  let by_label = Hashtbl.create 16 in
  List.iter
    (fun (n : Node.t) ->
      let prev = try Hashtbl.find by_label n.Node.label with Not_found -> [] in
      Hashtbl.replace by_label n.Node.label (n :: prev))
    (List.rev (Node.preorder t2));
  List.iter
    (fun (x : Node.t) ->
      if not (Matching.matched_old m x.Node.id) then
        let candidates = try Hashtbl.find by_label x.Node.label with Not_found -> [] in
        let rec scan = function
          | [] -> ()
          | (y : Node.t) :: rest ->
            if (not (Matching.matched_new m y.Node.id))
               && ref_equal_nodes crit t2_by_id m x y
            then Matching.add m x.Node.id y.Node.id
            else scan rest
        in
        scan candidates)
    bottom_up;
  m

(* ------------------------------------------------------- property tests *)

let crit = Treediff_doc.Doc_tree.criteria

let random_pair g =
  let gen = Tree.gen () in
  if P.int g 2 = 0 then begin
    let t1 = Docgen.generate g gen Docgen.small in
    let t2, _ = Mutate.mutate g gen t1 ~actions:(1 + P.int g 12) in
    (t1, t2)
  end
  else begin
    (* duplicate-heavy random trees: MC3-hostile, stresses common/postprocess *)
    let labels = [| "A"; "B"; "C" |] in
    let t1 =
      Treegen.random_labeled g gen ~max_depth:(2 + P.int g 3) ~max_width:(1 + P.int g 4)
        ~labels ~vocab:(2 + P.int g 10)
    in
    let t2 =
      if P.int g 3 = 0 then
        Treegen.random_labeled g gen ~max_depth:(2 + P.int g 3)
          ~max_width:(1 + P.int g 4) ~labels ~vocab:(2 + P.int g 10)
      else Treegen.perturb g gen ~ops:(1 + P.int g 8) t1
    in
    (t1, t2)
  end

let indexed_matchers_equal_seed_prop =
  QCheck2.Test.make ~name:"index-backed matchers = seed behavior" ~count:220
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let t1, t2 = random_pair g in
      let fast_ref = ref_fast_match crit t1 t2 in
      let fast_idx = Fast.run (Criteria.ctx crit ~t1 ~t2) in
      let simple_ref = ref_simple_match crit t1 t2 in
      let simple_idx = Simple.run (Criteria.ctx crit ~t1 ~t2) in
      Matching.equal fast_ref fast_idx && Matching.equal simple_ref simple_idx)

let diff_identical_and_correct_prop =
  QCheck2.Test.make ~name:"Diff.diff on index-backed matching: same script, correct"
    ~count:220
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let t1, t2 = random_pair g in
      let config = Treediff.Config.with_criteria crit in
      let r = Treediff.Diff.diff ~config t1 t2 in
      (* seed equivalence: the same generator fed the reference matching must
         emit the identical script when the matchings agree *)
      let no_post = { config with Treediff.Config.postprocess = false } in
      let r_idx = Treediff.Diff.diff ~config:no_post t1 t2 in
      let r_ref =
        Treediff.Diff.diff_with_matching ~config:no_post
          ~matching:(ref_fast_match crit t1 t2) t1 t2
      in
      Treediff.Diff.check r ~t1 ~t2 = Ok ()
      && Treediff.Diff.check r_idx ~t1 ~t2 = Ok ()
      && r_idx.Treediff.Diff.script = r_ref.Treediff.Diff.script)

let mc3_bucketing_equals_seed_prop =
  QCheck2.Test.make ~name:"bucketed MC3 scan = pairwise seed scan" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let t1, t2 = random_pair g in
      let ctx = Criteria.ctx crit ~t1 ~t2 in
      let reference ~mine ~theirs =
        let other_leaves = Node.leaves theirs in
        List.filter
          (fun (x : Node.t) ->
            let close = ref 0 in
            List.iter
              (fun (y : Node.t) ->
                if String.equal x.Node.label y.Node.label
                   && crit.Criteria.compare x.Node.value y.Node.value <= 1.0
                then incr close)
              other_leaves;
            !close >= 2)
          (Node.leaves mine)
      in
      let ids l = List.map (fun (n : Node.t) -> n.Node.id) l in
      ids (Criteria.mc3_violating_leaves ctx ~old_side:true)
      = ids (reference ~mine:t1 ~theirs:t2)
      && ids (Criteria.mc3_violating_leaves ctx ~old_side:false)
         = ids (reference ~mine:t2 ~theirs:t1))

(* ------------------------------------------------- stale-index detection *)

let test_check_index_fresh () =
  let gen = Tree.gen () in
  let t = Codec.parse gen {|(D (P (S "a") (S "b")) (P (S "c")))|} in
  let idx = Index.build t in
  Alcotest.(check bool) "fresh index passes" true
    (Treediff_tree.Invariant.check_index idx t = Ok ())

let test_check_index_stale () =
  let expect_stale what mutate =
    let gen = Tree.gen () in
    let t = Codec.parse gen {|(D (P (S "a") (S "b")) (P (S "c")))|} in
    let idx = Index.build t in
    mutate t;
    match Treediff_tree.Invariant.check_index idx t with
    | Ok () -> Alcotest.fail (what ^ ": stale index not detected")
    | Error _ -> ()
  in
  expect_stale "value update" (fun t ->
      (Node.child (Node.child t 0) 0).Node.value <- "changed");
  expect_stale "detach" (fun t -> Node.detach (Node.child t 1));
  expect_stale "reorder" (fun t ->
      let p = Node.child t 0 in
      let b = Node.child p 1 in
      Node.detach b;
      Node.insert_child p 0 b);
  expect_stale "insert" (fun t ->
      Node.append_child (Node.child t 1) (Node.make ~id:99 ~label:"S" ()))

let test_check_index_other_tree () =
  (* an index built for one tree never validates another *)
  let gen = Tree.gen () in
  let t1 = Codec.parse gen {|(D (S "a"))|} in
  let t2 = Codec.parse gen {|(D (S "a"))|} in
  let idx = Index.build t1 in
  Alcotest.(check bool) "different ids rejected" true
    (Treediff_tree.Invariant.check_index idx t2 <> Ok ())

let () =
  Alcotest.run "index"
    [
      ( "invariants",
        [
          Alcotest.test_case "document example" `Quick test_index_invariants_example;
          Alcotest.test_case "random trees" `Quick test_index_invariants_random;
          Alcotest.test_case "pair shares label ids" `Quick test_index_pair_shares_labels;
          Alcotest.test_case "out-of-range ids" `Quick test_index_out_of_range_ids;
          Alcotest.test_case "check_index accepts fresh" `Quick test_check_index_fresh;
          Alcotest.test_case "check_index detects stale" `Quick test_check_index_stale;
          Alcotest.test_case "check_index rejects other trees" `Quick
            test_check_index_other_tree;
        ] );
      ( "seed-equivalence",
        [
          QCheck_alcotest.to_alcotest indexed_matchers_equal_seed_prop;
          QCheck_alcotest.to_alcotest diff_identical_and_correct_prop;
          QCheck_alcotest.to_alcotest mc3_bucketing_equals_seed_prop;
        ] );
    ]
