(* Tests for Treediff.Diff and Treediff.Config — the end-to-end pipeline. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Codec = Treediff_tree.Codec
module Diff = Treediff.Diff
module Config = Treediff.Config
module P = Treediff_util.Prng

let pair a b =
  let gen = Tree.gen () in
  (Codec.parse gen a, Codec.parse gen b)

let test_apply_and_check () =
  let t1, t2 = pair {|(D (P (S "a") (S "b")) (P (S "c")))|}
      {|(D (P (S "c") (S "n")) (P (S "b") (S "a")))|}
  in
  let r = Diff.diff t1 t2 in
  let out = Diff.apply r t1 in
  Alcotest.(check bool) "apply yields T2" true (Iso.equal out t2);
  Alcotest.(check bool) "check passes" true (Diff.check r ~t1 ~t2 = Ok ());
  (* applying to the wrong tree fails loudly *)
  let other, _ = pair {|(X (S "zzz"))|} {|(X)|} in
  Alcotest.(check bool) "check against wrong tree fails" true
    (Diff.check r ~t1:other ~t2 <> Ok ())

let test_apply_with_dummy_roots () =
  let t1, t2 = pair {|(OLD (S "a"))|} {|(NEW (S "a"))|} in
  let r = Diff.diff t1 t2 in
  Alcotest.(check bool) "dummy used" true (r.Diff.dummy <> None);
  let out = Diff.apply r t1 in
  Alcotest.(check bool) "apply unwraps the dummy" true (Iso.equal out t2);
  Alcotest.(check bool) "check handles dummies" true (Diff.check r ~t1 ~t2 = Ok ())

let test_inputs_not_mutated () =
  let t1, t2 = pair {|(D (P (S "a")))|} {|(D (P (S "b")) (P (S "c")))|} in
  let s1 = Codec.to_string t1 and s2 = Codec.to_string t2 in
  ignore (Diff.diff t1 t2);
  Alcotest.(check string) "t1 untouched" s1 (Codec.to_string t1);
  Alcotest.(check string) "t2 untouched" s2 (Codec.to_string t2)

let test_algorithm_choice () =
  let t1, t2 = pair {|(D (P (S "a") (S "b")))|} {|(D (P (S "b") (S "a")))|} in
  let fast = Diff.diff ~config:{ Config.default with Config.algorithm = Config.Fast_match } t1 t2 in
  let simple =
    Diff.diff ~config:{ Config.default with Config.algorithm = Config.Simple_match } t1 t2
  in
  Alcotest.(check bool) "same matching" true
    (Treediff_matching.Matching.equal fast.Diff.matching simple.Diff.matching);
  Alcotest.(check (float 1e-9)) "same cost" fast.Diff.measure.Treediff_edit.Script.cost
    simple.Diff.measure.Treediff_edit.Script.cost

let test_stats_populated () =
  let t1, t2 = pair {|(D (S "a") (S "b"))|} {|(D (S "b") (S "a"))|} in
  let r = Diff.diff t1 t2 in
  Alcotest.(check bool) "leaf compares counted" true
    (r.Diff.stats.Treediff_util.Stats.leaf_compares > 0)

let test_config_with_compare () =
  (* A custom compare makes near-equal values match as updates. *)
  let t1, t2 = pair {|(D (S "the color is red"))|} {|(D (S "the color is blue"))|} in
  let config = Config.with_compare Treediff_textdiff.Word_compare.distance in
  let r = Diff.diff ~config t1 t2 in
  Alcotest.(check int) "one update, no ins/del" 1
    (List.length r.Diff.script);
  Alcotest.(check int) "updates" 1 r.Diff.measure.Treediff_edit.Script.updates

let test_diff_with_matching_empty () =
  (* An empty matching forces a full rebuild: everything inserted+deleted,
     still correct. *)
  let t1, t2 = pair {|(D (S "a"))|} {|(D (S "a"))|} in
  let r = Diff.diff_with_matching ~matching:(Treediff_matching.Matching.create ()) t1 t2 in
  Alcotest.(check bool) "dummy (roots unmatched)" true (r.Diff.dummy <> None);
  let out = Diff.apply r t1 in
  Alcotest.(check bool) "still correct" true (Iso.equal out t2)

let test_measure_consistency () =
  let t1, t2 = pair {|(D (P (S "a") (S "b")) (P (S "c")))|}
      {|(D (P (S "b")) (P (S "c") (S "d")))|}
  in
  let r = Diff.diff t1 t2 in
  let m = r.Diff.measure in
  Alcotest.(check int) "d = ops" (List.length r.Diff.script)
    (Treediff_edit.Script.unweighted m);
  Alcotest.(check bool) "e >= structural ops" true
    (m.Treediff_edit.Script.weighted
    >= m.Treediff_edit.Script.inserts + m.Treediff_edit.Script.deletes
       + m.Treediff_edit.Script.moves)

(* ----------------------------------------------------------------- merge *)

module Merge = Treediff.Merge

let test_merge_conflict_detection () =
  let gen = Tree.gen () in
  let base =
    Codec.parse gen {|(D (S "shared one") (S "the target sentence is here") (S "shared two"))|}
  in
  let ours =
    Codec.parse gen
      {|(D (S "shared one") (S "the target sentence is here now") (S "shared two"))|}
  in
  let theirs =
    Codec.parse gen
      {|(D (S "shared one") (S "the target sentence is there") (S "shared two"))|}
  in
  let config = Config.with_compare Treediff_textdiff.Word_compare.distance in
  let m = Merge.correlate ~config ~base ~ours ~theirs () in
  Alcotest.(check int) "one conflict" 1 (List.length m.Merge.conflicts);
  (match m.Merge.conflicts with
  | [ c ] ->
    Alcotest.(check string) "conflicting node value" "the target sentence is here"
      c.Merge.value;
    Alcotest.(check bool) "both sides present" true (c.Merge.ours <> [] && c.Merge.theirs <> [])
  | _ -> Alcotest.fail "expected one conflict");
  Alcotest.(check int) "no one-sided edits" 0
    (List.length m.Merge.ours_only + List.length m.Merge.theirs_only)

let test_merge_agreement_is_not_conflict () =
  let gen = Tree.gen () in
  let base = Codec.parse gen {|(D (S "the shared start here") (S "other stays"))|} in
  (* both sides make the identical update *)
  let edited = {|(D (S "the shared start here now") (S "other stays"))|} in
  let ours = Codec.parse gen edited in
  let theirs = Codec.parse gen edited in
  let config = Config.with_compare Treediff_textdiff.Word_compare.distance in
  let m = Merge.correlate ~config ~base ~ours ~theirs () in
  Alcotest.(check int) "identical edits agree" 0 (List.length m.Merge.conflicts)

let test_merge_disjoint_edits () =
  let gen = Tree.gen () in
  let base = Codec.parse gen {|(D (S "alpha") (S "beta") (S "gamma") (S "delta"))|} in
  let ours = Codec.parse gen {|(D (S "alpha") (S "beta") (S "gamma"))|} in
  (* ours deletes delta *)
  let theirs = Codec.parse gen {|(D (S "beta") (S "alpha") (S "gamma") (S "delta"))|} in
  (* theirs swaps alpha/beta *)
  let m = Merge.correlate ~base ~ours ~theirs () in
  Alcotest.(check int) "no conflicts" 0 (List.length m.Merge.conflicts);
  Alcotest.(check bool) "ours touched something" true (m.Merge.ours_only <> []);
  Alcotest.(check bool) "theirs touched something" true (m.Merge.theirs_only <> [])

(* End-to-end property through the public API, including apply/check. *)
let end_to_end_prop =
  QCheck2.Test.make ~name:"diff/apply/check round-trip" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_labeled g gen ~max_depth:4 ~max_width:4
          ~labels:[| "R"; "A"; "B"; "S" |] ~vocab:(20 + P.int g 50)
      in
      let t2 = Treediff_workload.Treegen.perturb g gen t1 in
      let r = Diff.diff t1 t2 in
      Diff.check r ~t1 ~t2 = Ok ())

(* Self-diff is always empty. *)
let self_diff_prop =
  QCheck2.Test.make ~name:"diff t t is empty" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen ~paragraphs:(1 + P.int g 5)
          ~vocab:(20 + P.int g 80)
      in
      let t2 = Tree.relabel_ids gen t1 in
      let r = Diff.diff t1 t2 in
      r.Diff.script = [])

(* ------------------------------------------- word compare byte identity *)

module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate

(* Generated revision pairs diffed with [treediff diff]'s criteria: the
   shipped compare and the reference must give the same script bytes and
   the same r1/r2 counts, near-duplicate sentences included. *)
let test_word_compare_identity () =
  let run compare t1 t2 =
    let criteria =
      Treediff_matching.Criteria.make ~leaf_f:0.5 ~internal_t:0.6 ~compare ()
    in
    let r = Diff.diff ~config:(Config.with_criteria criteria) t1 t2 in
    let st = r.Diff.stats in
    ( Treediff_edit.Script_io.to_string r.Diff.script,
      st.Treediff_util.Stats.leaf_compares,
      st.Treediff_util.Stats.partner_checks )
  in
  let dup p = { p with Docgen.duplicate_rate = 0.2 } in
  List.iter
    (fun (name, profile, actions) ->
      for seed = 1 to 4 do
        let g = P.create seed and gen = Tree.gen () in
        let t1 = Docgen.generate g gen profile in
        let t2, _ = Mutate.mutate g gen t1 ~actions in
        let label = Printf.sprintf "%s seed %d" name seed in
        let script, r1, r2 = run Treediff_textdiff.Word_compare.distance t1 t2 in
        let script', r1', r2' = run Test_support.myers_word_distance t1 t2 in
        Alcotest.(check string) (label ^ ": script bytes") script' script;
        Alcotest.(check int) (label ^ ": leaf compares") r1' r1;
        Alcotest.(check int) (label ^ ": partner checks") r2' r2
      done)
    [
      ("small", Docgen.small, 5);
      ("small dup", dup Docgen.small, 5);
      ("medium", Docgen.medium, 15);
      ("medium dup", dup Docgen.medium, 8);
    ]

let () =
  Alcotest.run "diff"
    [
      ( "pipeline",
        [
          Alcotest.test_case "apply and check" `Quick test_apply_and_check;
          Alcotest.test_case "dummy roots" `Quick test_apply_with_dummy_roots;
          Alcotest.test_case "inputs not mutated" `Quick test_inputs_not_mutated;
          Alcotest.test_case "algorithm choice" `Quick test_algorithm_choice;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
          Alcotest.test_case "custom compare" `Quick test_config_with_compare;
          Alcotest.test_case "empty matching" `Quick test_diff_with_matching_empty;
          Alcotest.test_case "measure consistency" `Quick test_measure_consistency;
          Alcotest.test_case "word compare byte identity" `Quick
            test_word_compare_identity;
        ] );
      ( "merge",
        [
          Alcotest.test_case "conflict detection" `Quick test_merge_conflict_detection;
          Alcotest.test_case "identical edits agree" `Quick test_merge_agreement_is_not_conflict;
          Alcotest.test_case "disjoint edits" `Quick test_merge_disjoint_edits;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest end_to_end_prop;
          QCheck_alcotest.to_alcotest self_diff_prop;
        ] );
    ]
