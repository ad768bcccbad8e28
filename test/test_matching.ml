(* Tests for Treediff_matching: the Matching structure, Criteria 1-3,
   Label_order, Algorithm Match, Algorithm FastMatch, post-processing, and
   the keyed fast path. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Codec = Treediff_tree.Codec
module Matching = Treediff_matching.Matching
module Criteria = Treediff_matching.Criteria
module Label_order = Treediff_matching.Label_order
module Simple = Treediff_matching.Simple_match
module Fast = Treediff_matching.Fast_match
module Keyed = Treediff_matching.Keyed
module P = Treediff_util.Prng

(* ------------------------------------------------------------- matching *)

let test_matching_basic () =
  let m = Matching.create () in
  Matching.add m 1 10;
  Matching.add m 2 20;
  Alcotest.(check bool) "mem" true (Matching.mem m 1 10);
  Alcotest.(check bool) "not mem" false (Matching.mem m 1 20);
  Alcotest.(check (option int)) "partner_of_old" (Some 10) (Matching.partner_of_old m 1);
  Alcotest.(check (option int)) "partner_of_new" (Some 2) (Matching.partner_of_new m 20);
  Alcotest.(check int) "cardinal" 2 (Matching.cardinal m);
  Matching.add m 1 10;
  (* re-adding the same pair is fine *)
  Alcotest.(check int) "idempotent add" 2 (Matching.cardinal m)

let test_matching_one_to_one () =
  let m = Matching.create () in
  Matching.add m 1 10;
  Alcotest.(check bool) "old side conflict" true
    (match Matching.add m 1 11 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "new side conflict" true
    (match Matching.add m 2 10 with exception Invalid_argument _ -> true | _ -> false)

let test_matching_remove_copy_equal () =
  let m = Matching.create () in
  Matching.add m 1 10;
  Matching.add m 2 20;
  let c = Matching.copy m in
  Matching.remove m 1 10;
  Alcotest.(check int) "removed" 1 (Matching.cardinal m);
  Alcotest.(check int) "copy unaffected" 2 (Matching.cardinal c);
  Matching.remove m 2 99;
  (* absent pair: no-op *)
  Alcotest.(check int) "noop remove" 1 (Matching.cardinal m);
  Alcotest.(check bool) "equal to itself" true (Matching.equal c (Matching.copy c));
  Alcotest.(check bool) "not equal after remove" false (Matching.equal m c);
  Alcotest.(check (list (pair int int))) "pairs sorted" [ (1, 10); (2, 20) ] (Matching.pairs c)

(* ------------------------------------------------------------- criteria *)

let doc_pair a b =
  let gen = Tree.gen () in
  let t1 = Codec.parse gen a and t2 = Codec.parse gen b in
  (t1, t2)

let test_criteria_leaf () =
  let t1, t2 = doc_pair {|(D (S "a"))|} {|(D (S "a"))|} in
  let ctx = Criteria.ctx Criteria.default ~t1 ~t2 in
  let l1 = Node.child t1 0 and l2 = Node.child t2 0 in
  Alcotest.(check bool) "equal values match" true (Criteria.equal_leaf ctx l1 l2);
  Alcotest.(check bool) "labels must agree" false
    (Criteria.equal_leaf ctx l1 t2 (* different label D *));
  Alcotest.(check int) "compare counted" 1
    (Criteria.stats ctx).Treediff_util.Stats.leaf_compares

let test_criteria_thresholds () =
  Alcotest.(check bool) "f out of range" true
    (match Criteria.make ~leaf_f:1.5 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "t out of range low" true
    (match Criteria.make ~internal_t:0.4 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "t out of range high" true
    (match Criteria.make ~internal_t:1.01 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_common_and_internal () =
  let t1, t2 =
    doc_pair
      {|(D (P (S "a") (S "b") (S "c")))|}
      {|(D (P (S "a") (S "b") (S "x")))|}
  in
  let ctx = Criteria.ctx Criteria.default ~t1 ~t2 in
  let m = Matching.create () in
  let leaves1 = Node.leaves t1 and leaves2 = Node.leaves t2 in
  Matching.add m (List.nth leaves1 0).Node.id (List.nth leaves2 0).Node.id;
  Matching.add m (List.nth leaves1 1).Node.id (List.nth leaves2 1).Node.id;
  let p1 = Node.child t1 0 and p2 = Node.child t2 0 in
  Alcotest.(check int) "common counts matched contained leaves" 2
    (Criteria.common ctx m p1 p2);
  (* common/max = 2/3 > 0.6: matches *)
  Alcotest.(check bool) "criterion 2 met" true (Criteria.equal_internal ctx m p1 p2);
  (* with only one leaf matched, 1/3 < 0.6 *)
  Matching.remove m (List.nth leaves1 1).Node.id (List.nth leaves2 1).Node.id;
  Alcotest.(check bool) "criterion 2 not met" false (Criteria.equal_internal ctx m p1 p2);
  Alcotest.(check int) "leaf_count cached" 3 (Criteria.leaf_count ctx p1)

let test_mc3_violations () =
  (* "b" appears twice in T2: the T1 "b" has two close counterparts. *)
  let t1, t2 = doc_pair {|(D (S "b") (S "q"))|} {|(D (S "b") (S "b") (S "q"))|} in
  let ctx = Criteria.ctx Criteria.default ~t1 ~t2 in
  Alcotest.(check int) "t1 violator" 1
    (List.length (Criteria.mc3_violating_leaves ctx ~old_side:true));
  Alcotest.(check int) "t2 side has none" 0
    (List.length (Criteria.mc3_violating_leaves ctx ~old_side:false));
  Alcotest.(check int) "total" 1 (Criteria.mc3_violations ctx);
  let clean1, clean2 = doc_pair {|(D (S "a") (S "b"))|} {|(D (S "a") (S "b"))|} in
  let cctx = Criteria.ctx Criteria.default ~t1:clean1 ~t2:clean2 in
  Alcotest.(check int) "clean pair has none" 0 (Criteria.mc3_violations cctx)

(* Trees from different generators may share node ids.  A T2 leaf must be
   keyed by its own value, never by the T1 node that has the same id. *)
let test_criteria_shared_ids () =
  let doc root_id leaves =
    let d = Node.make ~id:root_id ~label:"D" () in
    List.iter
      (fun (id, v) -> Node.append_child d (Node.make ~id ~label:"S" ~value:v ()))
      leaves;
    d
  in
  let t1 = doc 0 [ (1, "alpha"); (2, "beta") ] in
  let t2 = doc 5 [ (1, "beta"); (7, "alpha") ] in
  let beta1 = Node.child t1 1 and beta2 = Node.child t2 0 in
  let alpha2 = Node.child t2 1 in
  List.iter
    (fun (name, compare) ->
      let crit = Criteria.make ~compare () in
      let ctx = Criteria.ctx crit ~t1 ~t2 in
      Alcotest.(check bool) (name ^ ": beta vs beta") true
        (Criteria.equal_leaf ctx beta1 beta2);
      Alcotest.(check bool) (name ^ ": then beta vs alpha") false
        (Criteria.equal_leaf ctx beta1 alpha2);
      let fresh = Criteria.ctx crit ~t1 ~t2 in
      Alcotest.(check bool) (name ^ ": fresh ctx agrees") false
        (Criteria.equal_leaf fresh beta1 alpha2);
      Alcotest.(check int) (name ^ ": T2 leaf count") 1
        (Criteria.leaf_count ctx beta2))
    [
      ("all-or-nothing", Criteria.default.Criteria.compare);
      ("word LCS", Treediff_textdiff.Word_compare.distance);
    ]

(* A ctx's footprint grows with the pair, not with the square of its
   vocabulary: 1 024 distinct values take about 0.6 MiB, nearly all of it
   the two indexes, where an [nvalues²] float table alone would be 8 MiB. *)
let test_criteria_ctx_allocation () =
  let gen = Tree.gen () in
  let doc lo hi =
    let d = Node.make ~id:(Tree.fresh_id gen) ~label:"D" () in
    for i = lo to hi do
      Node.append_child d
        (Node.make ~id:(Tree.fresh_id gen) ~label:"S"
           ~value:(Printf.sprintf "sentence number %d" i) ())
    done;
    d
  in
  (* 1 023 sentences plus the roots' empty value *)
  let t1 = doc 0 510 and t2 = doc 511 1022 in
  List.iter
    (fun (name, crit) ->
      let before = Gc.allocated_bytes () in
      let ctx = Criteria.ctx crit ~t1 ~t2 in
      let bytes = Gc.allocated_bytes () -. before in
      ignore (Sys.opaque_identity ctx);
      if bytes >= 1048576. then
        Alcotest.failf "%s: ctx allocated %.0f bytes" name bytes)
    [
      ("all-or-nothing", Criteria.default);
      ( "word LCS",
        Criteria.make ~compare:Treediff_textdiff.Word_compare.distance () );
    ]

(* ---------------------------------------------------------- label order *)

let test_label_order () =
  let t1, t2 =
    doc_pair {|(D (P (S "a")) (P (S "b")))|} {|(D (P (S "c")))|}
  in
  Alcotest.(check (list string)) "bottom-up order" [ "S"; "P"; "D" ]
    (Label_order.order t1 t2);
  Alcotest.(check (list string)) "leaf labels" [ "S" ] (Label_order.leaf_labels t1 t2);
  Alcotest.(check (list string)) "internal labels" [ "P"; "D" ]
    (Label_order.internal_labels t1 t2);
  Alcotest.(check bool) "acyclic" true (Label_order.check_acyclic t1 t2 = Ok ())

let test_label_cycle_detected () =
  (* A nests under B and B under A: the itemize/enumerate situation before
     the paper's label merge. *)
  let t1, t2 = doc_pair {|(A (B (A (S "x"))))|} {|(B (A (B (S "y"))))|} in
  Alcotest.(check bool) "cycle detected" true (Label_order.check_acyclic t1 t2 <> Ok ());
  (* self-nesting of one label is fine (the merged List label) *)
  let s1, s2 = doc_pair {|(L (L (S "x")))|} {|(L (S "y"))|} in
  Alcotest.(check bool) "self-nesting ok" true (Label_order.check_acyclic s1 s2 = Ok ())

(* ------------------------------------------------------------- matchers *)

(* The paper's running example shape (Fig. 1 / Example 5.1): the matcher
   must pair all equal-valued sentences, then the paragraphs, then the
   roots — including node 3/14 which differ by one child. *)
let running_example () =
  doc_pair
    {|(D (P (S "a"))
        (P (S "b") (S "c"))
        (P (S "d") (S "e")))|}
    {|(D (P (S "a"))
        (P (S "d") (S "e"))
        (P (S "b") (S "c") (S "g")))|}

let test_match_running_example () =
  let t1, t2 = running_example () in
  let ctx = Criteria.ctx Criteria.default ~t1 ~t2 in
  let m = Simple.run ctx in
  (* 5 sentences + 3 paragraphs + root *)
  Alcotest.(check int) "all but g matched" 9 (Matching.cardinal m);
  (* spot-check: P("b","c") matched with the 3-child P("b","c","g") *)
  let p_bc = Node.child t1 1 and p_bcg = Node.child t2 2 in
  Alcotest.(check bool) "2/3 paragraph matched" true
    (Matching.mem m p_bc.Node.id p_bcg.Node.id);
  Alcotest.(check bool) "roots matched" true (Matching.mem m t1.Node.id t2.Node.id)

let test_fastmatch_equals_match () =
  let t1, t2 = running_example () in
  let m1 = Simple.run (Criteria.ctx Criteria.default ~t1 ~t2) in
  let m2 = Fast.run (Criteria.ctx Criteria.default ~t1 ~t2) in
  Alcotest.(check bool) "identical matchings" true (Matching.equal m1 m2)

(* Theorem 5.2 on clean synthetic documents: both algorithms find the same
   (unique maximal) matching. *)
let matchers_agree_prop =
  QCheck2.Test.make ~name:"Match = FastMatch on MC3-clean documents" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small
      in
      let t2, _ = Treediff_workload.Mutate.mutate g gen t1 ~actions:(1 + P.int g 10) in
      let crit = Treediff_doc.Doc_tree.criteria in
      let m1 = Simple.run (Criteria.ctx crit ~t1 ~t2) in
      let m2 = Fast.run (Criteria.ctx crit ~t1 ~t2) in
      Matching.equal m1 m2)

(* Matchings produced are valid: one-to-one over real nodes with equal
   labels, leaves to leaves. *)
let matching_validity_prop =
  QCheck2.Test.make ~name:"FastMatch output is label-respecting" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen ~paragraphs:(1 + P.int g 6)
          ~vocab:(5 + P.int g 40)
      in
      let t2 =
        Treediff_workload.Treegen.random_document g gen ~paragraphs:(1 + P.int g 6)
          ~vocab:(5 + P.int g 40)
      in
      let m = Fast.run (Criteria.ctx Criteria.default ~t1 ~t2) in
      let idx1 = Tree.index_by_id t1 and idx2 = Tree.index_by_id t2 in
      List.for_all
        (fun (x, y) ->
          match (Hashtbl.find_opt idx1 x, Hashtbl.find_opt idx2 y) with
          | Some (a : Node.t), Some (b : Node.t) ->
            String.equal a.label b.label && Node.is_leaf a = Node.is_leaf b
          | _ -> false)
        (Matching.pairs m))

let test_fastmatch_chains () =
  let t1, _ = running_example () in
  let chain = Fast.chain t1 "S" ~leaf:true in
  Alcotest.(check (list string)) "chain in document order" [ "a"; "b"; "c"; "d"; "e" ]
    (List.map (fun (n : Node.t) -> n.Node.value) chain);
  Alcotest.(check int) "internal chain" 3 (List.length (Fast.chain t1 "P" ~leaf:false))

(* ---------------------------------------------------------------- A(k) *)

let test_window_zero_is_lcs_only () =
  (* A far-moved sentence is outside any small window: pure-LCS matching
     leaves it unmatched, the full scan finds it. *)
  let t1, t2 =
    doc_pair
      {|(D (S "far-mover") (S "a") (S "b") (S "c") (S "d") (S "e"))|}
      {|(D (S "a") (S "b") (S "c") (S "d") (S "e") (S "far-mover"))|}
  in
  let full = Fast.run (Criteria.ctx Criteria.default ~t1 ~t2) in
  let lcs_only = Fast.run ~window:0 (Criteria.ctx Criteria.default ~t1 ~t2) in
  Alcotest.(check bool) "full scan matches the mover" true
    (Matching.cardinal full > Matching.cardinal lcs_only);
  (* large window behaves like the full scan *)
  let wide = Fast.run ~window:100 (Criteria.ctx Criteria.default ~t1 ~t2) in
  Alcotest.(check bool) "wide window = full" true (Matching.equal full wide)

let test_window_correctness_preserved () =
  (* Whatever the window, the resulting script must stay correct. *)
  let g = P.create 99 in
  let gen = Tree.gen () in
  let t1 = Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small in
  let t2, _ =
    Treediff_workload.Mutate.mutate ~mix:Treediff_workload.Mutate.move_heavy_mix g gen
      t1 ~actions:12
  in
  List.iter
    (fun window ->
      let config =
        { Treediff_doc.Doc_tree.config with Treediff.Config.scan_window = window }
      in
      let r = Treediff.Diff.diff ~config t1 t2 in
      Alcotest.(check bool)
        (Printf.sprintf "window %s correct"
           (match window with Some k -> string_of_int k | None -> "inf"))
        true
        (Treediff.Diff.check r ~t1 ~t2 = Ok ()))
    [ Some 0; Some 2; Some 8; None ]

let test_window_cost_monotone_tendency () =
  (* Wider windows can only find more matches, so the script cost cannot
     increase when k grows on the same instance. *)
  let t1, t2 =
    doc_pair
      {|(D (P (S "m1") (S "a") (S "b")) (P (S "c") (S "d") (S "m2")))|}
      {|(D (P (S "a") (S "b") (S "m2")) (P (S "m1") (S "c") (S "d")))|}
  in
  let cost window =
    let config = { Treediff.Config.default with Treediff.Config.scan_window = window } in
    (Treediff.Diff.diff ~config t1 t2).Treediff.Diff.measure.Treediff_edit.Script.cost
  in
  Alcotest.(check bool) "k=0 cost >= full cost" true (cost (Some 0) >= cost None)

(* ---------------------------------------------------------------- keyed *)

let test_keyed () =
  let t1, t2 =
    doc_pair
      {|(D (R "key=a val=1") (R "key=b val=2") (R "dup") (R "dup"))|}
      {|(D (R "key=b val=2changed") (R "key=a val=1") (R "dup") (R "key=c new"))|}
  in
  let key (n : Node.t) =
    let v = n.Node.value in
    if String.length v >= 4 && String.sub v 0 4 = "key=" then
      let stop = try String.index v ' ' with Not_found -> String.length v in
      Some (String.sub v 4 (stop - 4))
    else None
  in
  let m = Keyed.run ~key ~t1 ~t2 () in
  (* a and b matched; "dup" has no key; c exists on one side only *)
  Alcotest.(check int) "two keyed pairs" 2 (Matching.cardinal m);
  let r_a1 = Node.child t1 0 and r_a2 = Node.child t2 1 in
  Alcotest.(check bool) "a matched across positions" true
    (Matching.mem m r_a1.Node.id r_a2.Node.id)

let test_keyed_duplicate_keys_skipped () =
  let t1, t2 =
    doc_pair {|(D (R "key=a") (R "key=a"))|} {|(D (R "key=a"))|}
  in
  let key (n : Node.t) = if n.Node.label = "R" then Some n.Node.value else None in
  let m = Keyed.run ~key ~t1 ~t2 () in
  Alcotest.(check int) "ambiguous key ignored" 0 (Matching.cardinal m)

let test_keyed_seeds_fastmatch () =
  let t1, t2 = doc_pair {|(D (S "x") (S "y"))|} {|(D (S "y") (S "x"))|} in
  let seed = Matching.create () in
  (* force the "wrong" but seeded pairing x<->y; FastMatch must keep it *)
  Matching.add seed (Node.child t1 0).Node.id (Node.child t2 0).Node.id;
  let m = Fast.run ~init:seed (Criteria.ctx Criteria.default ~t1 ~t2) in
  Alcotest.(check bool) "seeded pair preserved" true
    (Matching.mem m (Node.child t1 0).Node.id (Node.child t2 0).Node.id)

(* ---------------------------------------------------------- postprocess *)

let test_postprocess_repairs () =
  (* Duplicate sentences "x" violate MC3; force a crossed matching and let
     the §8 pass re-point the child to its same-parent candidate. *)
  let t1, t2 =
    doc_pair {|(D (P (S "x") (S "p1")) (P (S "x") (S "p2")))|}
      {|(D (P (S "x") (S "p1")) (P (S "x") (S "p2")))|}
  in
  let ctx = Criteria.ctx Criteria.default ~t1 ~t2 in
  let m = Matching.create () in
  let p t i = Node.child t i in
  let s t i j = Node.child (Node.child t i) j in
  (* roots and paragraphs correctly, sentence "x"s crossed *)
  Matching.add m t1.Node.id t2.Node.id;
  Matching.add m (p t1 0).Node.id (p t2 0).Node.id;
  Matching.add m (p t1 1).Node.id (p t2 1).Node.id;
  Matching.add m (s t1 0 0).Node.id (s t2 1 0).Node.id;
  Matching.add m (s t1 1 0).Node.id (s t2 0 0).Node.id;
  Matching.add m (s t1 0 1).Node.id (s t2 0 1).Node.id;
  Matching.add m (s t1 1 1).Node.id (s t2 1 1).Node.id;
  let fixes = Treediff_matching.Postprocess.run ctx m in
  Alcotest.(check bool) "some repair happened" true (fixes >= 1);
  Alcotest.(check bool) "first x re-pointed home" true
    (Matching.mem m (s t1 0 0).Node.id (s t2 0 0).Node.id)

(* Post-processing must preserve matching validity whatever the data: still
   one-to-one, still label-respecting, and never smaller (repairs re-point or
   swap, never drop). *)
let postprocess_validity_prop =
  QCheck2.Test.make ~name:"postprocess preserves matching validity" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      (* duplicate-heavy documents: MC3 violated, repairs actually happen *)
      let t1 =
        Treediff_workload.Treegen.random_document g gen ~paragraphs:(2 + P.int g 5)
          ~vocab:(2 + P.int g 8)
      in
      let t2 =
        Treediff_workload.Treegen.random_document g gen ~paragraphs:(2 + P.int g 5)
          ~vocab:(2 + P.int g 8)
      in
      let ctx = Criteria.ctx Criteria.default ~t1 ~t2 in
      let m = Fast.run ctx in
      let before = Matching.cardinal m in
      ignore (Treediff_matching.Postprocess.run ctx m);
      let idx1 = Tree.index_by_id t1 and idx2 = Tree.index_by_id t2 in
      Matching.cardinal m = before
      && List.for_all
           (fun (x, y) ->
             match (Hashtbl.find_opt idx1 x, Hashtbl.find_opt idx2 y) with
             | Some (a : Node.t), Some (b : Node.t) -> String.equal a.label b.label
             | _ -> false)
           (Matching.pairs m)
      &&
      (* the matching still yields a correct script *)
      let r = Treediff.Diff.diff_with_matching ~matching:m t1 t2 in
      Treediff.Diff.check r ~t1 ~t2 = Ok ())

let test_postprocess_noop_on_clean () =
  let t1, t2 = running_example () in
  let ctx = Criteria.ctx Criteria.default ~t1 ~t2 in
  let m = Fast.run ctx in
  Alcotest.(check int) "no fixes needed" 0 (Treediff_matching.Postprocess.run ctx m)

(* ------------------------------------------------------------ similarity *)

module Feature = Treediff_matching.Feature
module Sim_index = Treediff_matching.Sim_index
module Index = Treediff_tree.Index
module Treegen = Treediff_workload.Treegen
module Word_compare = Treediff_textdiff.Word_compare
module SQ = Treediff_experiments.Sim_quality
module Exec = Treediff_util.Exec
module Budget = Treediff_util.Budget

let test_feature_signature_distance () =
  let a = "the quick brown fox jumps over the lazy dog by the river" in
  let b = "the quick brown fox leaps over the lazy dog by the river" in
  let c = "entirely different words sharing nothing with that other sentence" in
  Alcotest.(check int) "self distance" 0
    (Feature.hamming (Feature.value_signature a) (Feature.value_signature a));
  let near = Feature.hamming (Feature.value_signature a) (Feature.value_signature b) in
  let far = Feature.hamming (Feature.value_signature a) (Feature.value_signature c) in
  Alcotest.(check bool) (Printf.sprintf "near %d < far %d" near far) true (near < far);
  (* fewer than [bands] flipped bits leave at least one 8-bit band intact, so
     a one-word rewording is guaranteed retrievable by the LSH index *)
  Alcotest.(check bool)
    (Printf.sprintf "one-word edit flips %d < %d bits" near Feature.bands)
    true (near < Feature.bands)

let test_feature_subtree_signatures () =
  let src = {|(D (P (S "a b c") (S "d e f")) (P (S "a b c")))|} in
  let gen = Tree.gen () in
  let t1 = Codec.parse gen src and t2 = Codec.parse gen src in
  let idx1, idx2 = Index.pair ~t1 ~t2 () in
  let s1 = Feature.signatures idx1 and s2 = Feature.signatures idx2 in
  Alcotest.(check int) "array sizes" (Array.length s1) (Array.length s2);
  (* signatures are a pure function of content: equal trees, equal arrays *)
  Array.iteri
    (fun r sg -> Alcotest.(check int) "equal content, equal signature" 0 (Feature.hamming sg s2.(r)))
    s1;
  (* equal-value leaves coincide, distinct-value leaves do not; the two P
     subtrees differ, so their aggregated signatures differ too *)
  Alcotest.(check int) "duplicate leaves coincide" 0 (Feature.hamming s1.(2) s1.(5));
  Alcotest.(check bool) "distinct leaves differ" true (Feature.hamming s1.(2) s1.(3) > 0);
  Alcotest.(check bool) "distinct subtrees differ" true (Feature.hamming s1.(1) s1.(4) > 0)

let test_sim_index_query () =
  let values =
    Array.init 16 (fun i -> Printf.sprintf "alpha beta w%da w%db w%dc" i i i)
  in
  let sigs = Array.map Feature.value_signature values in
  let ranks = Array.init 16 Fun.id in
  let t = Sim_index.build ~sigs ranks in
  Alcotest.(check int) "length" 16 (Sim_index.length t);
  Array.iteri
    (fun i sg ->
      match Sim_index.query ~k:1 t sg with
      | pos :: _ -> Alcotest.(check int) "nearest is itself" i (Sim_index.rank t pos)
      | [] -> Alcotest.failf "query %d found nothing" i)
    sigs;
  let q3 = Sim_index.query ~k:3 t sigs.(0) in
  Alcotest.(check (list int)) "deterministic" q3 (Sim_index.query ~k:3 t sigs.(0));
  Alcotest.(check bool) "k bounds the answer" true (List.length q3 <= 3);
  let q8 = Sim_index.query ~k:8 t sigs.(0) in
  let prefix = List.filteri (fun i _ -> i < List.length q3) q8 in
  Alcotest.(check (list int)) "smaller k is a prefix of larger k" q3 prefix

(* The prefilter must reproduce exact FastMatch almost everywhere: aggregate
   recall >= 0.95 over 200 random document pairs, with the prefilter forced
   on for every chain (threshold 0) — the adversarial setting; production
   only engages it past the chain-length threshold. *)
let test_prefilter_recall_200 () =
  let g = P.create 2026 in
  let criteria = Criteria.make ~compare:Word_compare.distance () in
  let totals = ref SQ.empty in
  for _ = 1 to 200 do
    let gen = Tree.gen () in
    let t1 = Treegen.random_document g gen ~paragraphs:(4 + P.int g 12) ~vocab:30 in
    let t2 = Treegen.perturb g gen ~ops:(1 + P.int g 8) t1 in
    let exact = Fast.run (Criteria.ctx criteria ~t1 ~t2) in
    let pre = Fast.run ~sim:(0, 8) (Criteria.ctx criteria ~t1 ~t2) in
    totals := SQ.merge !totals (SQ.score ~exact pre)
  done;
  let r = SQ.recall !totals and p = SQ.precision !totals in
  Alcotest.(check bool) (Printf.sprintf "recall %.4f >= 0.95" r) true (r >= 0.95);
  (* criterion verification of every retrieved candidate keeps the pairs a
     near-subset of the exact matching *)
  Alcotest.(check bool) (Printf.sprintf "precision %.4f >= 0.98" p) true (p >= 0.98)

(* On the long-chain corpus the prefilter must cut criterion comparisons by
   a large factor while keeping recall — the whole point of the layer. *)
let test_prefilter_cuts_comparisons () =
  let gen = Tree.gen () in
  let t1, t2 = SQ.long_chain_pair ~n:250 gen in
  let criteria = Criteria.make ~compare:Word_compare.distance () in
  let run ?sim () =
    let exec = Exec.create () in
    let ctx = Criteria.ctx ~exec criteria ~t1 ~t2 in
    let m = Fast.run ?sim ctx in
    (m, (Exec.stats exec).Treediff_util.Stats.leaf_compares)
  in
  let exact, exact_compares = run () in
  let pre, pre_compares = run ~sim:(64, 8) () in
  let s = SQ.score ~exact pre in
  Alcotest.(check bool)
    (Printf.sprintf "recall %.4f >= 0.95" (SQ.recall s))
    true
    (SQ.recall s >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "compares %d at least 5x below %d" pre_compares exact_compares)
    true
    (pre_compares * 5 <= exact_compares)

(* The sim path is budget-charged like every other matching phase: a tight
   comparison cap trips inside FastMatch, not after it. *)
let test_prefilter_budget_charged () =
  let gen = Tree.gen () in
  let t1, t2 = SQ.long_chain_pair ~n:100 gen in
  let exec = Exec.create ~budget:(Budget.make ~max_comparisons:50 ()) () in
  let ctx = Criteria.ctx ~exec (Criteria.make ~compare:Word_compare.distance ()) ~t1 ~t2 in
  match Fast.run ~sim:(0, 8) ctx with
  | _ -> Alcotest.fail "expected Budget.Exceeded"
  | exception Budget.Exceeded e ->
    Alcotest.(check string) "tripped in fast_match" "fast_match" e.Budget.phase

(* Postprocess repair scans are charged too (the satellite fix): the crossed
   fixture under a two-comparison cap must trip with phase "postprocess". *)
let test_postprocess_budget_charged () =
  let t1, t2 =
    doc_pair {|(D (P (S "x") (S "p1")) (P (S "x") (S "p2")))|}
      {|(D (P (S "x") (S "p1")) (P (S "x") (S "p2")))|}
  in
  let exec = Exec.create ~budget:(Budget.make ~max_comparisons:2 ()) () in
  let ctx = Criteria.ctx ~exec Criteria.default ~t1 ~t2 in
  let m = Matching.create () in
  let p t i = Node.child t i in
  let s t i j = Node.child (Node.child t i) j in
  Matching.add m t1.Node.id t2.Node.id;
  Matching.add m (p t1 0).Node.id (p t2 0).Node.id;
  Matching.add m (p t1 1).Node.id (p t2 1).Node.id;
  Matching.add m (s t1 0 0).Node.id (s t2 1 0).Node.id;
  Matching.add m (s t1 1 0).Node.id (s t2 0 0).Node.id;
  Matching.add m (s t1 0 1).Node.id (s t2 0 1).Node.id;
  Matching.add m (s t1 1 1).Node.id (s t2 1 1).Node.id;
  match Treediff_matching.Postprocess.run ctx m with
  | _ -> Alcotest.fail "expected Budget.Exceeded"
  | exception Budget.Exceeded e ->
    Alcotest.(check string) "tripped in postprocess" "postprocess" e.Budget.phase

let test_greedy_deterministic_and_scored () =
  let gen = Tree.gen () in
  let t1, t2 = SQ.long_chain_pair ~n:120 gen in
  let a = Sim_index.greedy ~t1 ~t2 () in
  let b = Sim_index.greedy ~t1 ~t2 () in
  Alcotest.(check bool) "deterministic" true (Matching.equal a b);
  (* one-to-one and label-respecting by construction *)
  let by_id1 = Tree.index_by_id t1 and by_id2 = Tree.index_by_id t2 in
  List.iter
    (fun (x, y) ->
      match (Hashtbl.find_opt by_id1 x, Hashtbl.find_opt by_id2 y) with
      | Some (a : Node.t), Some (b : Node.t) ->
        Alcotest.(check string) "labels agree" a.Node.label b.Node.label
      | _ -> Alcotest.fail "pair outside the tree pair")
    (Matching.pairs a);
  let criteria = Criteria.make ~compare:Word_compare.distance () in
  let exact = Fast.run (Criteria.ctx criteria ~t1 ~t2) in
  let s = SQ.score ~exact a in
  Alcotest.(check bool)
    (Printf.sprintf "greedy recall %.4f >= 0.9 on the long chain" (SQ.recall s))
    true
    (SQ.recall s >= 0.9)

(* ---------------------------------------------------- word-compare paths *)

(* The criteria recognise [Word_compare.distance] by physical equality and
   then test prepared token arrays behind the word-set signature bound; any
   other closure (here one that calls the same function) takes the string
   path, which never uses the bound.  On Docgen pairs with few and many
   edits, and with near-duplicate sentences (Criterion 3 fails, so the
   straggler scan and postprocess work), both must give the same
   FastMatch matching, the same scripts and the same comparison counts. *)
let test_word_paths_agree () =
  let module Docgen = Treediff_workload.Docgen in
  let module W = Treediff_textdiff.Word_compare in
  let module Stats = Treediff_util.Stats in
  let cases =
    [
      (Docgen.small, (1, 3)); (Docgen.small, (6, 10)); (Docgen.medium, (2, 5));
      (Docgen.medium, (12, 20));
      ({ Docgen.medium with Docgen.duplicate_rate = 0.2 }, (6, 10));
    ]
  in
  let by_string a b = W.distance a b in
  List.iteri
    (fun ci (profile, (lo, hi)) ->
      for seed = 1 to 2 do
        let g = P.create ((100 * ci) + seed) in
        let gen = Tree.gen () in
        let t1 = Docgen.generate g gen profile in
        let t2, _ = Treediff_workload.Mutate.mutate g gen t1 ~actions:(P.int_in g lo hi) in
        List.iter
          (fun leaf_f ->
            let run compare =
              let crit = Criteria.make ~leaf_f ~compare () in
              let exec = Treediff_util.Exec.create () in
              let m = Fast.run (Criteria.ctx ~exec crit ~t1 ~t2) in
              let st = Treediff_util.Exec.stats exec in
              let r = Treediff.Diff.diff ~config:(Treediff.Config.with_criteria crit) t1 t2 in
              ( Matching.pairs m,
                (st.Stats.leaf_compares, st.Stats.partner_checks),
                Treediff_edit.Script_io.to_string r.Treediff.Diff.script,
                (r.Treediff.Diff.stats.Stats.leaf_compares,
                 r.Treediff.Diff.stats.Stats.partner_checks) )
            in
            let m_w, c_w, s_w, d_w = run W.distance
            and m_s, c_s, s_s, d_s = run by_string in
            let name what = Printf.sprintf "case %d seed %d f=%g: %s" ci seed leaf_f what in
            Alcotest.(check (list (pair int int))) (name "matching") m_s m_w;
            Alcotest.(check (pair int int)) (name "fast_match counts") c_s c_w;
            Alcotest.(check string) (name "script") s_s s_w;
            Alcotest.(check (pair int int)) (name "diff counts") d_s d_w)
          [ 0.0; 0.3; 0.5; 1.0 ]
      done)
    cases

let () =
  Alcotest.run "matching"
    [
      ( "matching",
        [
          Alcotest.test_case "basic" `Quick test_matching_basic;
          Alcotest.test_case "one-to-one enforced" `Quick test_matching_one_to_one;
          Alcotest.test_case "remove/copy/equal" `Quick test_matching_remove_copy_equal;
        ] );
      ( "criteria",
        [
          Alcotest.test_case "leaf criterion" `Quick test_criteria_leaf;
          Alcotest.test_case "threshold validation" `Quick test_criteria_thresholds;
          Alcotest.test_case "common and criterion 2" `Quick test_common_and_internal;
          Alcotest.test_case "MC3 violations" `Quick test_mc3_violations;
          Alcotest.test_case "side-aware value ids" `Quick test_criteria_shared_ids;
          Alcotest.test_case "ctx allocation" `Quick test_criteria_ctx_allocation;
          Alcotest.test_case "word-compare paths agree" `Quick test_word_paths_agree;
        ] );
      ( "label-order",
        [
          Alcotest.test_case "bottom-up order" `Quick test_label_order;
          Alcotest.test_case "cycle detection" `Quick test_label_cycle_detected;
        ] );
      ( "matchers",
        [
          Alcotest.test_case "Match on running example" `Quick test_match_running_example;
          Alcotest.test_case "FastMatch = Match (example)" `Quick test_fastmatch_equals_match;
          Alcotest.test_case "chains" `Quick test_fastmatch_chains;
          QCheck_alcotest.to_alcotest matchers_agree_prop;
          QCheck_alcotest.to_alcotest matching_validity_prop;
        ] );
      ( "a-of-k",
        [
          Alcotest.test_case "window 0 is LCS-only" `Quick test_window_zero_is_lcs_only;
          Alcotest.test_case "correct at any window" `Quick test_window_correctness_preserved;
          Alcotest.test_case "wider window never dearer" `Quick
            test_window_cost_monotone_tendency;
        ] );
      ( "keyed",
        [
          Alcotest.test_case "keys pre-match" `Quick test_keyed;
          Alcotest.test_case "duplicate keys skipped" `Quick test_keyed_duplicate_keys_skipped;
          Alcotest.test_case "seeds survive FastMatch" `Quick test_keyed_seeds_fastmatch;
        ] );
      ( "postprocess",
        [
          Alcotest.test_case "repairs crossed pairs" `Quick test_postprocess_repairs;
          Alcotest.test_case "no-op on clean matchings" `Quick test_postprocess_noop_on_clean;
          Alcotest.test_case "repair scan is budget-charged" `Quick
            test_postprocess_budget_charged;
          QCheck_alcotest.to_alcotest postprocess_validity_prop;
        ] );
      ( "similarity",
        [
          Alcotest.test_case "signature distance tracks similarity" `Quick
            test_feature_signature_distance;
          Alcotest.test_case "subtree signatures are content-pure" `Quick
            test_feature_subtree_signatures;
          Alcotest.test_case "LSH query: nearest, deterministic, k-bounded" `Quick
            test_sim_index_query;
          Alcotest.test_case "prefilter recall >= 0.95 over 200 pairs" `Quick
            test_prefilter_recall_200;
          Alcotest.test_case "prefilter cuts long-chain comparisons 5x" `Quick
            test_prefilter_cuts_comparisons;
          Alcotest.test_case "prefilter is budget-charged" `Quick
            test_prefilter_budget_charged;
          Alcotest.test_case "greedy matcher deterministic and scored" `Quick
            test_greedy_deterministic_and_scored;
        ] );
    ]
