(* Tests for Treediff_workload: generators are deterministic, mutations are
   well-formed and honestly reported, corpora have the advertised shape. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Invariant = Treediff_tree.Invariant
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Corpus = Treediff_workload.Corpus
module Treegen = Treediff_workload.Treegen
module Doc = Treediff_doc.Doc_tree
module P = Treediff_util.Prng

let test_docgen_deterministic () =
  let t1 = Docgen.generate (P.create 5) (Tree.gen ()) Docgen.small in
  let t2 = Docgen.generate (P.create 5) (Tree.gen ()) Docgen.small in
  Alcotest.(check bool) "same seed, same document" true (Iso.equal t1 t2);
  let t3 = Docgen.generate (P.create 6) (Tree.gen ()) Docgen.small in
  Alcotest.(check bool) "different seed, different document" false (Iso.equal t1 t3)

let test_docgen_schema () =
  let t = Docgen.generate (P.create 7) (Tree.gen ()) Docgen.medium in
  Invariant.check_exn t;
  Node.iter_preorder
    (fun (n : Node.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "label %s in schema" n.Node.label)
        true
        (Doc.is_document_label n.Node.label))
    t;
  (* sentences carry text; structural labels don't (except headings) *)
  Node.iter_preorder
    (fun (n : Node.t) ->
      if String.equal n.Node.label Doc.sentence then
        Alcotest.(check bool) "sentence non-empty" true (String.length n.Node.value > 0)
      else if
        String.equal n.Node.label Doc.paragraph
        || String.equal n.Node.label Doc.list
        || String.equal n.Node.label Doc.item
      then Alcotest.(check string) "structural value null" "" n.Node.value)
    t

let test_docgen_profiles_scale () =
  (* Average over seeds: individual draws vary a lot. *)
  let mean p =
    let total = ref 0 in
    for seed = 1 to 10 do
      total := !total + Doc.sentence_count (Docgen.generate (P.create seed) (Tree.gen ()) p)
    done;
    !total / 10
  in
  let s = mean Docgen.small and m = mean Docgen.medium and l = mean Docgen.large in
  Alcotest.(check bool) "small < medium < large" true (s < m && m < l);
  Alcotest.(check bool) "small has tens of sentences" true (s >= 15);
  Alcotest.(check bool) "large has hundreds" true (l >= 200)

let test_docgen_duplicates () =
  let profile = { Docgen.small with Docgen.duplicate_rate = 0.5 } in
  let t = Docgen.generate (P.create 13) (Tree.gen ()) profile in
  let sentences =
    List.map (fun (n : Node.t) -> n.Node.value) (Node.leaves t)
  in
  let close a b = Treediff_textdiff.Word_compare.distance a b <= 1.0 in
  let has_near_dup =
    List.exists
      (fun s -> List.length (List.filter (close s) sentences) >= 2)
      sentences
  in
  Alcotest.(check bool) "high duplicate rate produces near-duplicates" true has_near_dup

let test_sentence_generator () =
  let g = P.create 17 in
  for _ = 1 to 50 do
    let s = Docgen.sentence g 12 in
    let words = Treediff_textdiff.Word_compare.words s in
    Alcotest.(check bool) "at least 7 words" true (Array.length words >= 7);
    Alcotest.(check bool) "ends with period" true (s.[String.length s - 1] = '.')
  done

(* ---------------------------------------------------------------- mutate *)

let test_mutate_deterministic_and_pure () =
  let base = Docgen.generate (P.create 19) (Tree.gen ()) Docgen.small in
  let snapshot = Treediff_tree.Codec.to_string base in
  let m1, r1 = Mutate.mutate (P.create 23) (Tree.gen ~start:10_000 ()) base ~actions:10 in
  let m2, r2 = Mutate.mutate (P.create 23) (Tree.gen ~start:10_000 ()) base ~actions:10 in
  Alcotest.(check bool) "deterministic" true (Iso.equal m1 m2);
  Alcotest.(check int) "same report" r1.Mutate.actions r2.Mutate.actions;
  Alcotest.(check string) "input untouched" snapshot (Treediff_tree.Codec.to_string base)

let test_mutate_report () =
  let base = Docgen.generate (P.create 29) (Tree.gen ()) Docgen.medium in
  let t, report = Mutate.mutate (P.create 31) (Tree.gen ~start:10_000 ()) base ~actions:25 in
  Invariant.check_exn t;
  Alcotest.(check int) "all actions applied" 25 report.Mutate.actions;
  Alcotest.(check int) "tally sums to actions" 25
    (List.fold_left (fun acc (_, n) -> acc + n) 0 report.Mutate.applied);
  Alcotest.(check bool) "document actually changed" false (Iso.equal base t)

let test_mutate_fresh_ids () =
  let gen = Tree.gen () in
  let base = Docgen.generate (P.create 37) gen Docgen.small in
  let t, _ = Mutate.mutate (P.create 41) gen base ~actions:5 in
  let ids tree =
    List.map (fun (n : Node.t) -> n.Node.id) (Node.preorder tree)
  in
  let base_ids = ids base in
  Alcotest.(check bool) "ids disjoint from base" true
    (List.for_all (fun i -> not (List.mem i base_ids)) (ids t))

let test_mutate_zero_actions () =
  let base = Docgen.generate (P.create 43) (Tree.gen ()) Docgen.small in
  let t, report = Mutate.mutate (P.create 47) (Tree.gen ~start:10_000 ()) base ~actions:0 in
  Alcotest.(check int) "no actions" 0 report.Mutate.actions;
  Alcotest.(check bool) "identical copy" true (Iso.equal base t)

let mutate_wellformed_prop =
  QCheck2.Test.make ~name:"mutations keep trees well-formed and schema-clean" ~count:60
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let base = Docgen.generate g gen Docgen.small in
      let t, _ = Mutate.mutate ~mix:Mutate.move_heavy_mix g gen base ~actions:(1 + P.int g 20) in
      Invariant.check t = Ok ()
      && List.for_all
           (fun (n : Node.t) -> Doc.is_document_label n.Node.label)
           (Node.preorder t))

(* ---------------------------------------------------------------- corpus *)

let test_corpus_shape () =
  let sets = Corpus.standard () in
  Alcotest.(check int) "three sets" 3 (List.length sets);
  List.iter
    (fun set ->
      Alcotest.(check int)
        (set.Corpus.name ^ " versions")
        6
        (List.length set.Corpus.versions);
      Alcotest.(check int)
        (set.Corpus.name ^ " all pairs")
        15
        (List.length (Corpus.pairs set));
      Alcotest.(check int)
        (set.Corpus.name ^ " consecutive pairs")
        5
        (List.length (Corpus.consecutive_pairs set)))
    sets

let test_corpus_deterministic () =
  let s1 = List.hd (Corpus.standard ()) and s2 = List.hd (Corpus.standard ()) in
  List.iter2
    (fun a b -> Alcotest.(check bool) "versions reproducible" true (Iso.equal a b))
    s1.Corpus.versions s2.Corpus.versions

let test_corpus_ids_unique_across_versions () =
  let set =
    Corpus.make ~name:"t" ~seed:1 ~profile:Docgen.small ~versions:3 ~edits_per_version:5
  in
  let all_ids =
    List.concat_map
      (fun v -> List.map (fun (n : Node.t) -> n.Node.id) (Node.preorder v))
      set.Corpus.versions
  in
  Alcotest.(check int) "no id reuse" (List.length all_ids)
    (List.length (List.sort_uniq compare all_ids))

(* --------------------------------------------------------------- treegen *)

let test_treegen_labels_by_depth () =
  let g = P.create 53 in
  let t =
    Treegen.random_labeled g (Tree.gen ()) ~max_depth:3 ~max_width:3
      ~labels:[| "R"; "A"; "B"; "C" |] ~vocab:10
  in
  Invariant.check_exn t;
  Alcotest.(check string) "root label" "R" t.Node.label;
  Node.iter_preorder
    (fun (n : Node.t) ->
      let expected = [| "R"; "A"; "B"; "C" |].(min (Node.depth n) 3) in
      Alcotest.(check string) "label follows depth" expected n.Node.label)
    t

let perturb_wellformed_prop =
  QCheck2.Test.make ~name:"perturb keeps trees well-formed" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t = Treegen.random_document g gen ~paragraphs:(1 + P.int g 8) ~vocab:30 in
      let t2 = Treegen.perturb g gen t in
      Invariant.check t2 = Ok () && Invariant.check t = Ok ())

(* The long-chain generator is pinned by the structural hashes of four of
   its pairs: the ladder sweep (bench/main.exe --budget-ms) and FastMatch's
   worst-case tests diff these trees, and their recorded numbers hold only
   while the trees stay the same. *)
let test_long_chain_pinned () =
  List.iter
    (fun (seed, n, h1, h2) ->
      let t1, t2 = Treegen.long_chain_pair ~seed ~n (Tree.gen ()) in
      let name = Printf.sprintf "seed %d n %d" seed n in
      Alcotest.(check int) (name ^ ": sentences") n (Node.size t1 - 1);
      Alcotest.(check string) (name ^ ": old") h1 (Printf.sprintf "%Lx" (Iso.hash t1));
      Alcotest.(check string) (name ^ ": new") h2 (Printf.sprintf "%Lx" (Iso.hash t2)))
    [
      (11, 100, "5b7ccfbcd92faa3", "cfff426247671049");
      (11, 800, "cf74a7429d54466b", "6999a120b404fb67");
      (5, 100, "5b7ccfbcd92faa3", "6393bed56671aef1");
      (5, 800, "cf74a7429d54466b", "54dcd890c8a8ac35");
    ]

let () =
  Alcotest.run "workload"
    [
      ( "docgen",
        [
          Alcotest.test_case "deterministic" `Quick test_docgen_deterministic;
          Alcotest.test_case "schema conformance" `Quick test_docgen_schema;
          Alcotest.test_case "profiles scale" `Quick test_docgen_profiles_scale;
          Alcotest.test_case "duplicate knob" `Quick test_docgen_duplicates;
          Alcotest.test_case "sentence generator" `Quick test_sentence_generator;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "deterministic and pure" `Quick
            test_mutate_deterministic_and_pure;
          Alcotest.test_case "report" `Quick test_mutate_report;
          Alcotest.test_case "fresh ids" `Quick test_mutate_fresh_ids;
          Alcotest.test_case "zero actions" `Quick test_mutate_zero_actions;
          QCheck_alcotest.to_alcotest mutate_wellformed_prop;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "shape" `Quick test_corpus_shape;
          Alcotest.test_case "deterministic" `Quick test_corpus_deterministic;
          Alcotest.test_case "ids unique across versions" `Quick
            test_corpus_ids_unique_across_versions;
        ] );
      ( "treegen",
        [
          Alcotest.test_case "labels by depth" `Quick test_treegen_labels_by_depth;
          QCheck_alcotest.to_alcotest perturb_wellformed_prop;
          Alcotest.test_case "long chain pinned by Iso.hash" `Quick test_long_chain_pinned;
        ] );
    ]
