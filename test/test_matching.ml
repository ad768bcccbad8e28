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

(* A matching's memory follows its pair count, not its largest id: arrays
   sized by the id took 2.1 MB for three pairs with one id of 10^5 and
   16.8 MB at 10^6.  Ids keep growing with every version in a store, and
   the id-preserving binary format carries any id, up to [max_int]. *)
let test_matching_sparse_allocation () =
  List.iter
    (fun id ->
      let before = Gc.allocated_bytes () in
      let m = Matching.create () in
      Matching.add m id 3;
      Matching.add m 1 2;
      Matching.add m 4 id;
      let bytes = Gc.allocated_bytes () -. before in
      Alcotest.(check (option int)) "old side" (Some 3) (Matching.partner_of_old m id);
      Alcotest.(check (option int)) "new side" (Some 4) (Matching.partner_of_new m id);
      Alcotest.(check (list (pair int int))) "pairs" [ (1, 2); (4, id); (id, 3) ]
        (Matching.pairs m);
      if bytes >= 16384. then
        Alcotest.failf "id %d: three pairs allocated %.0f bytes" id bytes)
    [ 100_000; 1_000_000; (1 lsl 20) - 1; 1 lsl 60; max_int ]

(* Matching against a Hashtbl model, over ids below and far above the
   dense bound (four times the pair count plus 64): every add, failed add
   and remove leaves the same partners, cardinal, pairs and version
   count. *)
type matching_op = Add of int * int | Remove of int * int | Remove_nth of int

let matching_model_prop =
  let id =
    QCheck.Gen.(
      frequency
        [ (4, int_range 0 80); (2, int_range 80 400); (1, int_range 100_000 1_100_000) ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun x y -> Add (x, y)) id id);
          (1, map2 (fun x y -> Remove (x, y)) id id);
          (2, map (fun i -> Remove_nth i) nat);
        ])
  in
  let print = function
    | Add (x, y) -> Printf.sprintf "add %d %d" x y
    | Remove (x, y) -> Printf.sprintf "remove %d %d" x y
    | Remove_nth i -> Printf.sprintf "remove #%d" i
  in
  QCheck.Test.make ~name:"matching agrees with a Hashtbl model" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (int_range 1 150) op))
    (fun ops ->
      let m = Matching.create () in
      let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
      let version = ref 0 in
      let touched = ref [] in
      let model_remove x y =
        if Hashtbl.find_opt fwd x = Some y then begin
          Hashtbl.remove fwd x;
          Hashtbl.remove bwd y;
          incr version
        end;
        Matching.remove m x y
      in
      List.iter
        (fun op ->
          (match op with
          | Add (x, y) ->
            touched := x :: y :: !touched;
            let conflict =
              (match Hashtbl.find_opt fwd x with Some y' -> y' <> y | None -> false)
              || match Hashtbl.find_opt bwd y with Some x' -> x' <> x | None -> false
            in
            (match Matching.add m x y with
            | () -> if conflict then QCheck.Test.fail_reportf "add %d %d accepted" x y
            | exception Invalid_argument _ ->
              if not conflict then QCheck.Test.fail_reportf "add %d %d refused" x y);
            if (not conflict) && not (Hashtbl.mem fwd x) then begin
              Hashtbl.replace fwd x y;
              Hashtbl.replace bwd y x;
              incr version
            end
          | Remove (x, y) -> model_remove x y
          | Remove_nth i ->
            let pairs = List.of_seq (Hashtbl.to_seq fwd) |> List.sort compare in
            (match pairs with
            | [] -> ()
            | _ ->
              let x, y = List.nth pairs (i mod List.length pairs) in
              model_remove x y));
          if Matching.version m <> !version then
            QCheck.Test.fail_reportf "version %d, model %d" (Matching.version m) !version;
          if Matching.cardinal m <> Hashtbl.length fwd then
            QCheck.Test.fail_reportf "cardinal %d, model %d" (Matching.cardinal m)
              (Hashtbl.length fwd))
        ops;
      List.iter
        (fun i ->
          if Matching.partner_of_old m i <> Hashtbl.find_opt fwd i then
            QCheck.Test.fail_reportf "partner_of_old %d" i;
          if Matching.partner_of_new m i <> Hashtbl.find_opt bwd i then
            QCheck.Test.fail_reportf "partner_of_new %d" i)
        !touched;
      Matching.pairs m = List.sort compare (List.of_seq (Hashtbl.to_seq fwd))
      && Matching.equal m (Matching.copy m))

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
      let idx1 = Test_support.index_by_id t1 and idx2 = Test_support.index_by_id t2 in
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
      let idx1 = Test_support.index_by_id t1 and idx2 = Test_support.index_by_id t2 in
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

(* ----------------------------------------------------------- worst case *)

module Word_compare = Treediff_textdiff.Word_compare
module Exec = Treediff_util.Exec
module Budget = Treediff_util.Budget

(* FastMatch's worst case (Treegen.long_chain_pair: a shuffled chain of
   mutually similar, pairwise distinct sentences) is budget-charged: a
   tight comparison cap trips inside FastMatch, not after it. *)
let test_long_chain_budget_charged () =
  let gen = Tree.gen () in
  let t1, t2 = Treediff_workload.Treegen.long_chain_pair ~n:100 gen in
  let exec = Exec.create ~budget:(Budget.make ~max_comparisons:50 ()) () in
  let ctx = Criteria.ctx ~exec (Criteria.make ~compare:Word_compare.distance ()) ~t1 ~t2 in
  match Fast.run ctx with
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
          Alcotest.test_case "memory follows the pair count" `Quick
            test_matching_sparse_allocation;
          QCheck_alcotest.to_alcotest matching_model_prop;
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
          Alcotest.test_case "long chain is budget-charged" `Quick
            test_long_chain_budget_charged;
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
    ]
