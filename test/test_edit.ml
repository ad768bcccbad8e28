(* Tests for Treediff_edit: operation semantics (§3.2), script application,
   validation errors, cost model and weighted distance. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Codec = Treediff_tree.Codec
module Invariant = Treediff_tree.Invariant
module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Cost = Treediff_edit.Cost

let parse src = Codec.parse (Tree.gen ()) src

(* D(1) [ P(2) [S(3) "a", S(4) "b"], P(5) [S(6) "c"] ] — explicit ids, since
   tests refer to nodes by id. *)
let sample () =
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

(* Values of sentence leaves in document order (an emptied P is a leaf too,
   so filter by label). *)
let values t =
  List.filter_map
    (fun (n : Node.t) -> if String.equal n.Node.label "S" then Some n.Node.value else None)
    (Node.leaves t)

let test_insert () =
  let t = sample () in
  let t' = Script.apply t [ Op.Insert { id = 10; label = "S"; value = "x"; parent = 2; pos = 2 } ] in
  Alcotest.(check (list string)) "inserted between" [ "a"; "x"; "b"; "c" ] (values t');
  Invariant.check_exn t';
  (* positions are 1-based; k = arity+1 appends *)
  let t'' = Script.apply t [ Op.Insert { id = 10; label = "S"; value = "z"; parent = 5; pos = 2 } ] in
  Alcotest.(check (list string)) "appended" [ "a"; "b"; "c"; "z" ] (values t'')

let test_delete () =
  let t = sample () in
  let t' = Script.apply t [ Op.Delete { id = 4 } ] in
  Alcotest.(check (list string)) "deleted" [ "a"; "c" ] (values t');
  (* interior deletion is illegal: first empty the node *)
  Alcotest.(check bool) "delete non-leaf rejected" true
    (match Script.apply t [ Op.Delete { id = 2 } ] with
    | exception Script.Apply_error _ -> true
    | _ -> false);
  let t'' =
    Script.apply t [ Op.Delete { id = 3 }; Op.Delete { id = 4 }; Op.Delete { id = 2 } ]
  in
  Alcotest.(check (list string)) "empty then delete parent" [ "c" ] (values t'')

let test_update () =
  let t = sample () in
  let t' = Script.apply t [ Op.Update { id = 6; value = "c2" } ] in
  Alcotest.(check (list string)) "updated" [ "a"; "b"; "c2" ] (values t');
  Alcotest.(check (list string)) "original untouched" [ "a"; "b"; "c" ] (values t)

let test_move () =
  let t = sample () in
  let t' = Script.apply t [ Op.Move { id = 6; parent = 2; pos = 1 } ] in
  Alcotest.(check (list string)) "moved to front" [ "c"; "a"; "b" ] (values t');
  (* whole subtree moves *)
  let t'' = Script.apply t [ Op.Move { id = 2; parent = 5; pos = 2 } ] in
  Alcotest.(check (list string)) "subtree moved" [ "c"; "a"; "b" ] (values t'');
  Alcotest.(check int) "root arity shrank" 1 (Node.child_count t'');
  Invariant.check_exn t''

let test_intra_parent_move_positions () =
  (* Intra-parent semantics: detach first, then insert at k among the
     remaining children. *)
  let t = parse {|(D (S "1") (S "2") (S "3") (S "4"))|} in
  let s1 = (Node.child t 0).Node.id in
  let t' = Script.apply t [ Op.Move { id = s1; parent = t.Node.id; pos = 3 } ] in
  Alcotest.(check (list string)) "moved right" [ "2"; "3"; "1"; "4" ] (values t');
  let s4 = (Node.child t 3).Node.id in
  let t'' = Script.apply t [ Op.Move { id = s4; parent = t.Node.id; pos = 1 } ] in
  Alcotest.(check (list string)) "moved left" [ "4"; "1"; "2"; "3" ] (values t'')

let test_errors () =
  let t = sample () in
  let fails script =
    match Script.apply t script with
    | exception Script.Apply_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown node" true (fails [ Op.Delete { id = 99 } ]);
  Alcotest.(check bool) "duplicate insert id" true
    (fails [ Op.Insert { id = 3; label = "S"; value = ""; parent = 2; pos = 1 } ]);
  Alcotest.(check bool) "insert position too large" true
    (fails [ Op.Insert { id = 10; label = "S"; value = ""; parent = 2; pos = 4 } ]);
  Alcotest.(check bool) "insert position zero" true
    (fails [ Op.Insert { id = 10; label = "S"; value = ""; parent = 2; pos = 0 } ]);
  Alcotest.(check bool) "move into own subtree" true
    (fails [ Op.Move { id = 1; parent = 2; pos = 1 } ]);
  Alcotest.(check bool) "move to itself" true (fails [ Op.Move { id = 2; parent = 2; pos = 1 } ]);
  Alcotest.(check bool) "delete root" true (fails [ Op.Delete { id = 1 } ]);
  Alcotest.(check bool) "move root" true (fails [ Op.Move { id = 1; parent = 5; pos = 1 } ])

let test_apply_is_pure () =
  let t = sample () in
  let before = Codec.to_string t in
  ignore (Script.apply t [ Op.Update { id = 3; value = "zzz" }; Op.Delete { id = 4 } ]);
  Alcotest.(check string) "input not mutated" before (Codec.to_string t)

(* --------------------------------------------------------------- measure *)

let test_measure_counts_and_cost () =
  let t = sample () in
  let script =
    [
      Op.Insert { id = 10; label = "S"; value = "x"; parent = 5; pos = 1 };
      Op.Update { id = 3; value = "a2" };
      Op.Move { id = 2; parent = 5; pos = 1 };
      Op.Delete { id = 6 };
    ]
  in
  let m = Script.measure t script in
  Alcotest.(check int) "inserts" 1 m.Script.inserts;
  Alcotest.(check int) "deletes" 1 m.Script.deletes;
  Alcotest.(check int) "updates" 1 m.Script.updates;
  Alcotest.(check int) "moves" 1 m.Script.moves;
  Alcotest.(check int) "unweighted d" 4 (Script.unweighted m);
  (* weighted e: ins 1 + del 1 + move |subtree 2| = 2 leaves -> total 4 *)
  Alcotest.(check int) "weighted e" 4 m.Script.weighted;
  (* cost: 1 + 1 + 1 + compare("a","a2")=2 (all-or-nothing) = 5 *)
  Alcotest.(check (float 1e-9)) "unit cost" 5.0 m.Script.cost

let test_measure_custom_compare () =
  let t = sample () in
  let model = Cost.with_compare (fun _ _ -> 0.25) in
  let c = Script.cost ~model t [ Op.Update { id = 3; value = "a2" } ] in
  Alcotest.(check (float 1e-9)) "custom update cost" 0.25 c

let test_move_weight_uses_leaf_count_at_move_time () =
  let t = parse {|(D (P (S "a") (S "b") (S "c")) (P (S "d")))|} in
  let p1 = (Node.child t 0).Node.id and p2 = (Node.child t 1).Node.id in
  let s_a = (Node.child (Node.child t 0) 0).Node.id in
  (* delete a leaf from the subtree before moving it: weight must be 2 *)
  let m =
    Script.measure t [ Op.Delete { id = s_a }; Op.Move { id = p1; parent = p2; pos = 1 } ]
  in
  Alcotest.(check int) "weighted = 1 (del) + 2 (move of shrunk subtree)" 3 m.Script.weighted

let test_example_3_1_shape () =
  (* The paper's Example 3.1 script pattern: insert an interior-node-to-be,
     move a subtree under it, delete a leaf, update a value — applied in
     order, each precondition holding only because of the preceding ops. *)
  let t = parse {|(D (S "del-me") (P (S "a") (S "b")) (S "old"))|} in
  let d = t.Node.id in
  let p = (Node.child t 1).Node.id in
  let old_s = (Node.child t 2).Node.id in
  let del_s = (Node.child t 0).Node.id in
  let script =
    [
      Op.Insert { id = 100; label = "Sec"; value = "foo"; parent = d; pos = 4 };
      Op.Move { id = p; parent = 100; pos = 1 };
      Op.Delete { id = del_s };
      Op.Update { id = old_s; value = "baz" };
    ]
  in
  let t' = Script.apply t script in
  Invariant.check_exn t';
  let expected = parse {|(D (S "baz") (Sec "foo" (P (S "a") (S "b"))))|} in
  Alcotest.(check bool) "example 3.1 result" true (Iso.equal t' expected)

(* ------------------------------------------------------------- script_io *)

module Script_io = Treediff_edit.Script_io

let sample_script =
  [
    Op.Insert { id = 21; label = "S"; value = "g"; parent = 3; pos = 3 };
    Op.Insert { id = 22; label = "Sec"; value = ""; parent = 1; pos = 4 };
    Op.Update { id = 9; value = "baz" };
    Op.Move { id = 5; parent = 11; pos = 1 };
    Op.Delete { id = 2 };
  ]

let test_script_io_roundtrip () =
  let s = Script_io.to_string sample_script in
  Alcotest.(check bool) "renders paper notation" true
    (String.length s > 0 && String.sub s 0 4 = "INS(");
  let _, back = Script_io.of_string s in
  Alcotest.(check int) "same length" (List.length sample_script) (List.length back);
  Alcotest.(check string) "identical after round-trip" s (Script_io.to_string back)

let test_script_io_tricky_values () =
  let ops =
    [
      Op.Update { id = 1; value = "quotes \" and \\ backslash" };
      Op.Update { id = 2; value = "newline\nand\ttab and\rcr" };
      Op.Update { id = 3; value = "ctrl \001 byte" };
      Op.Insert { id = 4; label = "S"; value = ""; parent = 1; pos = 1 };
    ]
  in
  let _, back = Script_io.of_string (Script_io.to_string ops) in
  List.iter2
    (fun a b -> Alcotest.(check string) "value survives" (Op.to_string a) (Op.to_string b))
    ops back

let test_script_io_comments_and_blanks () =
  let src = "# header comment\n\nDEL(7)\n  \nUPD(3,\"x\")\n" in
  Alcotest.(check int) "two ops" 2 (List.length (snd (Script_io.of_string src)))

let test_script_io_errors () =
  let fails s =
    match Script_io.of_string s with
    | exception Script_io.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown op" true (fails "FOO(1)");
  Alcotest.(check bool) "missing paren" true (fails "DEL(1");
  Alcotest.(check bool) "bad int" true (fails "DEL(x)");
  Alcotest.(check bool) "trailing garbage" true (fails "DEL(1) extra");
  Alcotest.(check bool) "unterminated string" true (fails "UPD(1,\"oops)");
  Alcotest.(check bool) "bad escape" true (fails {|UPD(1,"\q")|})

let test_script_io_parse_result () =
  (* The exception-free front end: truncated, overflowing and duplicate-ish
     inputs all come back as Error, never as an exception. *)
  (match Script_io.parse "MOV(2,5,2)\nDEL(7)\n" with
  | Ok (_, s) -> Alcotest.(check int) "two ops parsed" 2 (List.length s)
  | Error e -> Alcotest.fail ("unexpected error: " ^ e));
  let err s =
    match Script_io.parse s with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail (Printf.sprintf "parse accepted %S" s)
  in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
    m = 0 || loop 0
  in
  Alcotest.(check bool) "truncated op is a located Error" true
    (contains ~sub:"line 1" (err "MOV(2,5"));
  Alcotest.(check bool) "truncated INS tuple" true
    (contains ~sub:"line 1" (err "INS((21,S"));
  Alcotest.(check bool) "overflow is an Error, not a crash" true
    (contains ~sub:"out of range" (err "DEL(99999999999999999999999999)"));
  Alcotest.(check bool) "duplicated field" true
    (err "UPD(1,\"a\",\"b\")" <> "")

(* Errors locate the op by its 1-based ordinal (comment and blank lines do
   not count) and quote the offending token. *)
let test_script_io_error_context () =
  let err s =
    match Script_io.parse s with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail (Printf.sprintf "parse accepted %S" s)
  in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
    m = 0 || loop 0
  in
  let msg = err "# header\n\nDEL(1)\nUPD(2,\"x\")\nMOV(bogus,1,1)\n" in
  Alcotest.(check bool) "names the third op" true (contains ~sub:"op 3" msg);
  Alcotest.(check bool) "names the line" true (contains ~sub:"line 5" msg);
  Alcotest.(check bool) "quotes the offending token" true
    (contains ~sub:{|"bogus"|} msg);
  let msg = err "FOO(1)" in
  Alcotest.(check bool) "first op is op 1" true (contains ~sub:"op 1" msg);
  Alcotest.(check bool) "unknown op is quoted" true (contains ~sub:"FOO" msg);
  let msg = err "DEL(4" in
  Alcotest.(check bool) "end of line reported" true
    (contains ~sub:"end of line" msg)

(* Any generated script round-trips, including applying identically. *)
let script_io_roundtrip_prop =
  QCheck2.Test.make ~name:"script_io round-trips generated scripts" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Treediff_util.Prng.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen
          ~paragraphs:(1 + Treediff_util.Prng.int g 5) ~vocab:50
      in
      let t2 = Treediff_workload.Treegen.perturb g gen t1 in
      let r = Treediff.Diff.diff t1 t2 in
      let script = r.Treediff.Diff.script in
      let _, back = Script_io.of_string (Script_io.to_string script) in
      List.length back = List.length script
      && List.for_all2 (fun a b -> Op.to_string a = Op.to_string b) script back)

(* Generated pairs, half of them with the new root relabelled so the roots
   go unmatched (§4.1): the rendered script, parsed back, replays on T1
   through the shared dummy-root helper to a tree isomorphic to T2. *)
let script_io_replay_prop =
  QCheck2.Test.make ~name:"script_io text replays, dummy-rooted or not" ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Treediff_util.Prng.create seed in
      let gen = Tree.gen () in
      let t1 =
        Treediff_workload.Treegen.random_document g gen
          ~paragraphs:(1 + Treediff_util.Prng.int g 5) ~vocab:50
      in
      let t2 = Treediff_workload.Treegen.perturb g gen t1 in
      let t2 =
        if Treediff_util.Prng.int g 2 = 0 then t2
        else begin
          let kids = Node.children (Tree.copy t2) in
          List.iter Node.detach kids;
          Tree.node gen "Renamed" kids
        end
      in
      let r = Treediff.Diff.diff t1 t2 in
      let text =
        Script_io.to_string
          ?dummy:(Option.map fst r.Treediff.Diff.dummy)
          r.Treediff.Diff.script
      in
      let dummy, script = Script_io.of_string text in
      Treediff_tree.Iso.equal (Script.apply ?dummy t1 script) t2)

(* A script file written before the ROOT line existed (the config example
   pair, whose roots go unmatched) parses to the same ops as ever, with no
   dummy; prefixing the ROOT line changes nothing else. *)
let test_script_io_pre_root_file () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name)
      "fixtures/config.pre-root.script"
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let dummy, ops = Script_io.of_string text in
  Alcotest.(check (option int)) "no dummy" None dummy;
  Alcotest.(check int) "19 ops" 19 (List.length ops);
  Alcotest.(check string) "first op" "INS((24,Config),22,1)"
    (Op.to_string (List.hd ops));
  Alcotest.(check string) "re-renders byte-identically" text (Script_io.to_string ops);
  let dummy', ops' = Script_io.of_string ("ROOT(22)\n" ^ text) in
  Alcotest.(check (option int)) "ROOT line read" (Some 22) dummy';
  Alcotest.(check bool) "same ops with the ROOT line" true (ops = ops');
  Alcotest.(check string) "ROOT line re-rendered" ("ROOT(22)\n" ^ text)
    (Script_io.to_string ~dummy:22 ops);
  match Script_io.parse ("DEL(1)\nROOT(22)\n") with
  | Error msg ->
    Alcotest.(check bool) "late ROOT names line 2" true
      (String.length msg > 0 && String.sub msg 0 13 = "op 2, line 2,")
  | Ok _ -> Alcotest.fail "a ROOT line after an op was accepted"

(* A ROOT id read from a file may name a node of the tree; grafting under it
   would leave two nodes with one id, so replay and the stored-script check
   refuse it (the check used to loop forever on the config pair below). *)
let test_script_io_root_collision () =
  let dir = Filename.dirname Sys.executable_name in
  let read path = In_channel.with_open_bin (Filename.concat dir path) In_channel.input_all in
  let old_src = read "../examples/pairs/config.old.sexp" in
  let _, ops = Script_io.of_string (read "fixtures/config.pre-root.script") in
  let ops =
    List.map
      (function Op.Insert i when i.parent = 22 -> Op.Insert { i with parent = 1 } | op -> op)
      ops
  in
  let t1 = Codec.parse (Tree.gen ()) old_src in
  (match Script.apply ~dummy:1 t1 ops with
  | _ -> Alcotest.fail "a dummy id naming a node was grafted"
  | exception Script.Apply_error _ -> ());
  let module Verb = Treediff_serve.Verb in
  let src label text = { Verb.label; text } in
  let req =
    {
      Verb.input = { Verb.format = Treediff_doc.Format.find_exn "sexp"; lenient = false };
      artifact = Verb.Stored_script (src "s" (Script_io.to_string ~dummy:1 ops));
    }
  in
  match
    Verb.check req (src "old" old_src, src "new" (read "../examples/pairs/config.new.sexp"))
  with
  | Ok v ->
    Alcotest.(check int) "one error finding" 1
      (List.length (Treediff_check.Diag.errors v.Verb.diags))
  | Error _ -> Alcotest.fail "check --script failed outright"

let test_pp () =
  let s = Op.to_string (Op.Insert { id = 21; label = "S"; value = "g"; parent = 3; pos = 3 }) in
  Alcotest.(check string) "insert rendering" {|INS((21,S,"g"),3,3)|} s;
  Alcotest.(check string) "delete rendering" "DEL(7)" (Op.to_string (Op.Delete { id = 7 }));
  Alcotest.(check string) "move rendering" "MOV(5,11,1)"
    (Op.to_string (Op.Move { id = 5; parent = 11; pos = 1 }));
  Alcotest.(check bool) "structural" true (Op.is_structural (Op.Delete { id = 1 }));
  Alcotest.(check bool) "update not structural" false
    (Op.is_structural (Op.Update { id = 1; value = "" }))

let () =
  Alcotest.run "edit"
    [
      ( "ops",
        [
          Alcotest.test_case "insert" `Quick test_insert;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "move" `Quick test_move;
          Alcotest.test_case "intra-parent move positions" `Quick
            test_intra_parent_move_positions;
          Alcotest.test_case "validation errors" `Quick test_errors;
          Alcotest.test_case "apply is pure" `Quick test_apply_is_pure;
          Alcotest.test_case "pretty printing" `Quick test_pp;
        ] );
      ( "measure",
        [
          Alcotest.test_case "counts and unit cost" `Quick test_measure_counts_and_cost;
          Alcotest.test_case "custom compare" `Quick test_measure_custom_compare;
          Alcotest.test_case "move weight at move time" `Quick
            test_move_weight_uses_leaf_count_at_move_time;
          Alcotest.test_case "example 3.1 shape" `Quick test_example_3_1_shape;
        ] );
      ( "script-io",
        [
          Alcotest.test_case "round-trip" `Quick test_script_io_roundtrip;
          Alcotest.test_case "tricky values" `Quick test_script_io_tricky_values;
          Alcotest.test_case "comments and blanks" `Quick test_script_io_comments_and_blanks;
          Alcotest.test_case "parse errors" `Quick test_script_io_errors;
          Alcotest.test_case "error op-index and token" `Quick
            test_script_io_error_context;
          Alcotest.test_case "result-typed parse" `Quick test_script_io_parse_result;
          QCheck_alcotest.to_alcotest script_io_roundtrip_prop;
          Alcotest.test_case "pre-ROOT script file" `Quick test_script_io_pre_root_file;
          Alcotest.test_case "ROOT naming a tree node" `Quick test_script_io_root_collision;
          QCheck_alcotest.to_alcotest script_io_replay_prop;
        ] );
    ]
