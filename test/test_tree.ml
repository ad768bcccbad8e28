(* Tests for Treediff_tree: Node operations, traversals, Tree utilities,
   Iso, Invariant, and the Codec round-trip. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Codec = Treediff_tree.Codec
module Invariant = Treediff_tree.Invariant
module P = Treediff_util.Prng

let sample () =
  (* D(1) [ P(2) [S(3) "a", S(4) "b"], P(5) [S(6) "c"] ] — built with
     explicit ids since constructor-argument evaluation order would otherwise
     decide them. *)
  let mk id label value = Node.make ~id ~label ~value () in
  let d = mk 1 "D" "" in
  let p1 = mk 2 "P" "" and s_a = mk 3 "S" "a" and s_b = mk 4 "S" "b" in
  let p2 = mk 5 "P" "" and s_c = mk 6 "S" "c" in
  Node.append_child d p1;
  Node.append_child p1 s_a;
  Node.append_child p1 s_b;
  Node.append_child d p2;
  Node.append_child p2 s_c;
  d

let ids order = List.map (fun (n : Node.t) -> n.Node.id) order

let test_construction () =
  let t = sample () in
  Alcotest.(check int) "size" 6 (Node.size t);
  Alcotest.(check int) "leaf count" 3 (Node.leaf_count t);
  Alcotest.(check int) "height" 2 (Node.height t);
  Alcotest.(check int) "root depth" 0 (Node.depth t);
  Alcotest.(check int) "leaf depth" 2 (Node.depth (Node.child (Node.child t 0) 0));
  Alcotest.(check bool) "root is root" true (Node.is_root t);
  Alcotest.(check bool) "leaf is leaf" true (Node.is_leaf (Node.child (Node.child t 0) 1));
  Invariant.check_exn t

let test_traversals () =
  let t = sample () in
  Alcotest.(check (list int)) "preorder" [ 1; 2; 3; 4; 5; 6 ] (ids (Node.preorder t));
  Alcotest.(check (list int)) "postorder" [ 3; 4; 2; 6; 5; 1 ] (ids (Node.postorder t));
  Alcotest.(check (list int)) "bfs" [ 1; 2; 5; 3; 4; 6 ] (ids (Node.bfs t));
  Alcotest.(check (list int)) "leaves" [ 3; 4; 6 ] (ids (Node.leaves t))

let test_child_ops () =
  let t = sample () in
  let p1 = Node.child t 0 in
  let s_b = Node.child p1 1 in
  Alcotest.(check int) "child_index" 1 (Node.child_index s_b);
  Node.detach s_b;
  Alcotest.(check int) "after detach arity" 1 (Node.child_count p1);
  Alcotest.(check bool) "detached is root" true (Node.is_root s_b);
  Node.detach s_b;
  (* detaching a root is a no-op *)
  let p2 = Node.child t 1 in
  Node.insert_child p2 0 s_b;
  Alcotest.(check (list int)) "insert front" [ 4; 6 ] (ids (Node.children p2));
  Invariant.check_exn t;
  Alcotest.check_raises "double attach"
    (Invalid_argument "Node.insert_child: child is already attached") (fun () ->
      Node.insert_child p1 0 s_b)

let test_ancestry () =
  let t = sample () in
  let p1 = Node.child t 0 in
  let s_a = Node.child p1 0 in
  Alcotest.(check bool) "root is ancestor" true (Node.is_ancestor t s_a);
  Alcotest.(check bool) "parent is ancestor" true (Node.is_ancestor p1 s_a);
  Alcotest.(check bool) "self not ancestor" false (Node.is_ancestor s_a s_a);
  Alcotest.(check bool) "descendant not ancestor" false (Node.is_ancestor s_a t);
  Alcotest.(check int) "root of leaf" t.Node.id (Node.root s_a).Node.id

let test_copy_preserves () =
  let t = sample () in
  let c = Tree.copy t in
  Alcotest.(check bool) "copy isomorphic" true (Iso.equal t c);
  Alcotest.(check (list int)) "copy preserves ids" (ids (Node.preorder t))
    (ids (Node.preorder c));
  (* mutation of copy leaves the original intact *)
  (Node.child (Node.child c 0) 0).Node.value <- "changed";
  Alcotest.(check string) "original untouched" "a"
    (Node.child (Node.child t 0) 0).Node.value

let test_relabel_ids () =
  let gen = Tree.gen () in
  let t = Tree.node gen "D" [ Tree.leaf gen "S" "x" ] in
  let t2 = Tree.relabel_ids gen t in
  Alcotest.(check bool) "isomorphic after relabel" true (Iso.equal t t2);
  let ids1 = ids (Node.preorder t) and ids2 = ids (Node.preorder t2) in
  Alcotest.(check bool) "ids disjoint" true
    (List.for_all (fun i -> not (List.mem i ids1)) ids2)

let test_index_and_find () =
  let t = sample () in
  let idx = Treediff_tree.Id_table.of_tree t in
  Alcotest.(check int) "index size" 6 (Treediff_tree.Id_table.length idx);
  Alcotest.(check string) "find value" "c"
    (match Tree.find_by_id t 6 with Some n -> n.Node.value | None -> "?");
  Alcotest.(check bool) "find missing" true (Tree.find_by_id t 99 = None);
  Alcotest.(check int) "max id" 6 (Tree.max_id t)

let test_iso_differences () =
  let gen = Tree.gen () in
  let t1 = Tree.node gen "D" [ Tree.leaf gen "S" "a" ] in
  let t2 = Tree.node gen "D" [ Tree.leaf gen "S" "b" ] in
  let t3 = Tree.node gen "D" [ Tree.leaf gen "S" "a"; Tree.leaf gen "S" "a" ] in
  let t4 = Tree.node gen "E" [ Tree.leaf gen "S" "a" ] in
  Alcotest.(check bool) "value diff" false (Iso.equal t1 t2);
  Alcotest.(check bool) "arity diff" false (Iso.equal t1 t3);
  Alcotest.(check bool) "label diff" false (Iso.equal t1 t4);
  Alcotest.(check bool) "diagnostic present" true (Iso.first_difference t1 t2 <> None);
  Alcotest.(check bool) "no diagnostic when equal" true
    (Iso.first_difference t1 (Tree.copy t1) = None)

(* ----------------------------------------------------------------- codec *)

let test_codec_parse () =
  let gen = Tree.gen () in
  let t = Codec.parse gen {|(D (P (S "a b") (S "c\"d")) (P))|} in
  Alcotest.(check string) "root label" "D" t.Node.label;
  Alcotest.(check int) "children" 2 (Node.child_count t);
  Alcotest.(check string) "escaped quote" "c\"d"
    (Node.child (Node.child t 0) 1).Node.value;
  Alcotest.(check bool) "empty internal node" true (Node.is_leaf (Node.child t 1))

let test_codec_errors () =
  let gen = Tree.gen () in
  let expect_fail src =
    match Codec.parse gen src with
    | exception Codec.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  expect_fail "";
  expect_fail "(";
  expect_fail "(D";
  expect_fail "(D))";
  expect_fail "()";
  expect_fail {|(D "unclosed)|};
  expect_fail "(D (P)) trailing"

let rec random_tree g gen depth =
  let label = P.pick g [| "A"; "B"; "C" |] in
  let value =
    if P.bool g then "" else Printf.sprintf "v %d \"quoted\" \\ %d" (P.int g 10) (P.int g 10)
  in
  let n = if depth >= 3 then 0 else P.int g 4 in
  Tree.node gen label ~value (List.init n (fun _ -> random_tree g gen (depth + 1)))

let codec_roundtrip_prop =
  QCheck2.Test.make ~name:"codec print/parse round-trip" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t = random_tree g gen 0 in
      let printed = Codec.to_string t in
      let t' = Codec.parse (Tree.gen ()) printed in
      Iso.equal t t'
      &&
      (* compact form round-trips too *)
      let compact = Codec.to_string ~indent:false t in
      Iso.equal t (Codec.parse (Tree.gen ()) compact))

let invariant_detects_breakage =
  QCheck2.Test.make ~name:"invariant accepts generated trees" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t = random_tree g gen 0 in
      Invariant.check t = Ok ())

(* The id table against a [Hashtbl] reference: random replace, remove
   and find sequences over id pools that are dense, sparse, huge and
   negative.  Entry numbers stay below [entries], are distinct among the
   present ids, survive a replace, and are fresh after a re-add. *)
module Id_table = Treediff_tree.Id_table

let id_table_prop =
  QCheck2.Test.make ~name:"id table agrees with Hashtbl" ~count:300
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let pool =
        match seed mod 4 with
        | 0 -> Array.init 40 (fun i -> i)
        | 1 -> Array.init 200 (fun _ -> P.int g 1_000_000_000)
        | 2 ->
          Array.init 60 (fun i ->
              match i mod 4 with
              | 0 -> max_int - i
              | 1 -> min_int + i
              | 2 -> (1 lsl 40) + (i * 1024)
              | _ -> 1_000_000_000 * i)
        | _ -> Array.init 80 (fun i -> if i mod 2 = 0 then -i else -(P.int g max_int))
      in
      let t = Id_table.create ~size:(P.int g 8) () and h = Hashtbl.create 8 in
      let entry_of = Hashtbl.create 8 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 400 + P.int g 400 do
        let id = P.pick g pool in
        (match P.int g 5 with
        | 0 | 1 ->
          let n = Node.make ~id ~label:"S" () in
          let before = Id_table.entry t id in
          Id_table.replace t id n;
          Hashtbl.replace h id n;
          if before >= 0 then expect (Id_table.entry t id = before)
          else begin
            (* a fresh number, also after the id was removed *)
            expect (Id_table.entry t id = Id_table.entries t - 1);
            expect (not (Hashtbl.mem entry_of (Id_table.entry t id)));
            Hashtbl.replace entry_of (Id_table.entry t id) ()
          end
        | 2 ->
          Id_table.remove t id;
          Hashtbl.remove h id
        | _ -> ());
        (match (Id_table.find_opt t id, Hashtbl.find_opt h id) with
        | Some a, Some b -> expect (a == b && Id_table.find t id == b)
        | None, None ->
          expect (Id_table.entry t id = -1 && not (Id_table.mem t id));
          expect (match Id_table.find t id with _ -> false | exception Not_found -> true)
        | Some _, None | None, Some _ -> expect false);
        expect (Id_table.length t = Hashtbl.length h)
      done;
      Hashtbl.iter
        (fun id n ->
          expect (Id_table.find t id == n);
          expect (Id_table.entry t id < Id_table.entries t))
        h;
      !ok)

let test_id_table_reinsert () =
  let t = Id_table.create () in
  let a = Node.make ~id:7 ~label:"A" () and b = Node.make ~id:7 ~label:"B" () in
  Id_table.replace t 7 a;
  let e = Id_table.entry t 7 in
  Id_table.remove t 7;
  Alcotest.(check bool) "gone" false (Id_table.mem t 7);
  Alcotest.(check int) "length" 0 (Id_table.length t);
  Id_table.remove t 7;
  Id_table.replace t 7 b;
  Alcotest.(check bool) "found again" true (Id_table.find t 7 == b);
  Alcotest.(check bool) "fresh entry number" true (Id_table.entry t 7 > e);
  (* of_tree numbers nodes by preorder rank *)
  let t = Id_table.of_tree (sample ()) in
  Alcotest.(check (list int)) "preorder ranks" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (Id_table.entry t) [ 1; 2; 3; 4; 5; 6 ])

let test_invariant_violation () =
  let gen = Tree.gen () in
  let t = Tree.node gen "D" [ Tree.leaf gen "S" "x" ] in
  let child = Node.child t 0 in
  child.Node.parent <- None;
  (* corrupt the back-pointer *)
  Alcotest.(check bool) "detects broken parent pointer" true (Invariant.check t <> Ok ())

let () =
  Alcotest.run "tree"
    [
      ( "node",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "traversals" `Quick test_traversals;
          Alcotest.test_case "child operations" `Quick test_child_ops;
          Alcotest.test_case "ancestry" `Quick test_ancestry;
        ] );
      ( "tree",
        [
          Alcotest.test_case "copy preserves structure+ids" `Quick test_copy_preserves;
          Alcotest.test_case "relabel ids" `Quick test_relabel_ids;
          Alcotest.test_case "index and find" `Quick test_index_and_find;
          Alcotest.test_case "id table remove then re-add" `Quick test_id_table_reinsert;
          QCheck_alcotest.to_alcotest id_table_prop;
        ] );
      ( "iso",
        [ Alcotest.test_case "differences detected" `Quick test_iso_differences ] );
      ( "codec",
        [
          Alcotest.test_case "parse" `Quick test_codec_parse;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          QCheck_alcotest.to_alcotest codec_roundtrip_prop;
        ] );
      ( "invariant",
        [
          QCheck_alcotest.to_alcotest invariant_detects_breakage;
          Alcotest.test_case "violation detected" `Quick test_invariant_violation;
        ] );
    ]
