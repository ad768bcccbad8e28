(* Tests for the analysis layer: the dependence-graph analyzer (Depgraph,
   TD5xx), the canonical normal form, parallel apply, and the exhaustive
   minimality oracle (Oracle, TD6xx). *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Codec = Treediff_tree.Codec
module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Diag = Treediff_check.Diag
module Depgraph = Treediff_check.Depgraph
module Oracle = Treediff_check.Oracle
module Diff = Treediff.Diff
module Config = Treediff.Config
module Exec = Treediff_util.Exec
module Fault = Treediff_util.Fault
module Pool = Treediff_util.Pool
module P = Treediff_util.Prng
module Treegen = Treediff_workload.Treegen

(* Post-order ids: a=1 b=2 P=3 c=4 d=5 P=6 D=7 *)
let base_tree () =
  let gen = Tree.gen () in
  Codec.parse gen {|(D (P (S "a") (S "b")) (P (S "c") (S "d")))|}

let effective_base (r : Diff.t) t1 = Script.rooted ?dummy:(Option.map fst r.Diff.dummy) t1

let render t = Codec.to_string ~indent:false t

(* --------------------------------------------------------------- depgraph *)

let test_classification () =
  let t = base_tree () in
  let script =
    [
      Op.Update { id = 1; value = "a2" };      (* 0 *)
      Op.Move { id = 2; parent = 6; pos = 1 }; (* 1 *)
      Op.Insert { id = 100; label = "S"; value = "x"; parent = 3; pos = 1 }; (* 2 *)
      Op.Insert { id = 101; label = "S"; value = "y"; parent = 3; pos = 2 }; (* 3 *)
      Op.Update { id = 4; value = "c2" };      (* 4 *)
      Op.Update { id = 2; value = "b2" };      (* 5 *)
    ]
  in
  let g = Depgraph.build ~tree:t script in
  Alcotest.(check int) "ops" 6 (Depgraph.length g);
  (* Two inserts under the same parent share a child list. *)
  Alcotest.(check bool) "INS/INS same parent interfere" true
    (Depgraph.interferes g 2 3);
  (* UPD and MOV of the same node write disjoint fields. *)
  Alcotest.(check bool) "UPD/MOV same subject commute" true
    (Depgraph.commutes g 1 5);
  (* Unrelated value writes commute. *)
  Alcotest.(check bool) "UPD/UPD different subjects commute" true
    (Depgraph.commutes g 0 4);
  (* MOV of node 2 out of parent 3 and INS under parent 3 share 3's list. *)
  Alcotest.(check bool) "MOV/INS shared list interfere" true
    (Depgraph.interferes g 1 2)

let test_mov_mov_interfere () =
  let t = base_tree () in
  let script =
    [
      Op.Move { id = 1; parent = 6; pos = 1 };
      Op.Move { id = 4; parent = 3; pos = 1 };
    ]
  in
  let g = Depgraph.build ~tree:t script in
  Alcotest.(check bool) "MOV/MOV conservative" true (Depgraph.interferes g 0 1);
  Alcotest.(check int) "one component" 1 (Array.length (Depgraph.components g))

let test_components_and_slices () =
  let t = base_tree () in
  let script =
    [
      Op.Update { id = 1; value = "a2" };
      Op.Insert { id = 100; label = "S"; value = "x"; parent = 6; pos = 3 };
      Op.Update { id = 2; value = "b2" };
    ]
  in
  let g = Depgraph.build ~tree:t script in
  Alcotest.(check int) "three independent slices" 3
    (Array.length (Depgraph.components g))

let test_canonical_idempotent () =
  let t = base_tree () in
  let script =
    [
      Op.Update { id = 4; value = "c2" };
      Op.Insert { id = 100; label = "S"; value = "x"; parent = 3; pos = 3 };
      Op.Update { id = 1; value = "a2" };
      Op.Delete { id = 5 };
    ]
  in
  let c1 = Depgraph.canonicalize ~tree:t script in
  let c2 = Depgraph.canonicalize ~tree:t c1 in
  Alcotest.(check string) "idempotent" (Script.to_string c1) (Script.to_string c2);
  Alcotest.(check bool) "canonical" true (Depgraph.is_canonical ~tree:t c1);
  (* The delete stays last. *)
  (match List.rev c1 with
  | Op.Delete { id } :: _ -> Alcotest.(check int) "delete last" 5 id
  | _ -> Alcotest.fail "expected DEL last in canonical order");
  Alcotest.(check string) "same result tree"
    (render (Script.apply t script))
    (render (Script.apply t c1))

let test_dead_move () =
  let t = base_tree () in
  let script =
    [
      Op.Move { id = 2; parent = 6; pos = 1 };  (* dead: re-moved below *)
      Op.Update { id = 1; value = "a2" };
      Op.Move { id = 2; parent = 6; pos = 3 };
    ]
  in
  let g = Depgraph.build ~tree:t script in
  let dead = Depgraph.dead_ops g in
  Alcotest.(check int) "one dead op" 1 (List.length dead);
  let i, d = List.hd dead in
  Alcotest.(check int) "the first MOV" 0 i;
  Alcotest.(check string) "TD503" "TD503" (Diag.id d.Diag.code);
  let n = Depgraph.normalize ~tree:t script in
  Alcotest.(check int) "normalize drops it" 2 (List.length n);
  Alcotest.(check string) "same result"
    (render (Script.apply t script))
    (render (Script.apply t n))

let test_dead_insert_pair () =
  let t = base_tree () in
  let script =
    [
      Op.Insert { id = 100; label = "S"; value = "x"; parent = 6; pos = 3 };
      Op.Update { id = 1; value = "a2" };
      Op.Delete { id = 100 };
    ]
  in
  let g = Depgraph.build ~tree:t script in
  let dead = Depgraph.dead_ops g in
  Alcotest.(check int) "one dead op" 1 (List.length dead);
  Alcotest.(check string) "TD503" "TD503"
    (Diag.id (snd (List.hd dead)).Diag.code);
  let n = Depgraph.normalize ~tree:t script in
  Alcotest.(check int) "both ops dropped" 1 (List.length n);
  Alcotest.(check string) "same result"
    (render (Script.apply t script))
    (render (Script.apply t n))

let test_not_dead_when_observed () =
  let t = base_tree () in
  (* The INS is observed by a second insert into the same parent list, so
     nothing is dead. *)
  let script =
    [
      Op.Insert { id = 100; label = "S"; value = "x"; parent = 6; pos = 3 };
      Op.Insert { id = 101; label = "S"; value = "y"; parent = 6; pos = 4 };
      Op.Delete { id = 100 };
    ]
  in
  let g = Depgraph.build ~tree:t script in
  Alcotest.(check int) "no dead ops" 0 (List.length (Depgraph.dead_ops g))

let test_verify_rewrite () =
  let t = base_tree () in
  let script =
    [
      Op.Update { id = 1; value = "a2" };
      Op.Insert { id = 100; label = "S"; value = "x"; parent = 3; pos = 3 };
    ]
  in
  let canon = Depgraph.canonicalize ~tree:t script in
  Alcotest.(check int) "legal rewrite is clean" 0
    (List.length
       (Depgraph.verify_rewrite ~tree:t ~original:script ~rewritten:canon ()));
  (* A rewrite that drops an op is illegal fusion. *)
  let broken = [ List.hd canon ] in
  let ds = Depgraph.verify_rewrite ~tree:t ~original:script ~rewritten:broken () in
  Alcotest.(check bool) "TD501 raised" true
    (List.exists (fun d -> d.Diag.code = Diag.Illegal_fusion) ds);
  (* A merely non-canonical (but equivalent) rewrite gets TD502: the two
     ops commute, and canonical order puts the INS first. *)
  let ds =
    Depgraph.verify_rewrite ~tree:t ~original:canon ~rewritten:(List.rev canon) ()
  in
  Alcotest.(check bool) "TD502 raised" true
    (List.exists (fun d -> d.Diag.code = Diag.Non_canonical) ds)

let test_compose_verified () =
  (* Script.compose fusion legality, proved by the analyzer: composing two
     steps must be equivalent to concatenating them. *)
  let t = base_tree () in
  let s1 =
    [
      Op.Update { id = 1; value = "a2" };
      Op.Insert { id = 100; label = "S"; value = "x"; parent = 3; pos = 3 };
    ]
  in
  let mid = Script.apply t s1 in
  let s2 =
    [
      Op.Update { id = 100; value = "x2" };
      Op.Move { id = 2; parent = 6; pos = 1 };
    ]
  in
  let composed = Script.compose s1 s2 in
  (match Depgraph.equivalent ~tree:t (s1 @ s2) composed with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("compose not equivalent to concat: " ^ m));
  Alcotest.(check string) "composed applies like the chain"
    (render (Script.apply mid s2))
    (render (Script.apply t composed))

let test_fault_point () =
  let exec = Exec.create () in
  Fault.arm (Exec.faults exec)
    [ { Fault.point = "check.depgraph"; action = Fault.Raise; at = 1 } ];
  let t = base_tree () in
  (match Depgraph.build ~exec ~tree:t [ Op.Update { id = 1; value = "z" } ] with
  | _ -> Alcotest.fail "expected Fault.Injected"
  | exception Fault.Injected _ -> ());
  let exec = Exec.create () in
  Fault.arm (Exec.faults exec)
    [ { Fault.point = "check.oracle"; action = Fault.Raise; at = 1 } ];
  let t2 = base_tree () in
  match Oracle.search ~exec ~ub:1 t t2 with
  | _ -> Alcotest.fail "expected Fault.Injected"
  | exception Fault.Injected _ -> ()

(* ------------------------------------------------- canonicalize property *)

let random_pair rand gen i =
  if i mod 2 = 0 then begin
    let t1 =
      Treegen.random_labeled rand gen ~max_depth:4 ~max_width:4
        ~labels:[| "D"; "P"; "S"; "W" |] ~vocab:6
    in
    (t1, Treegen.perturb rand gen ~ops:4 t1)
  end
  else begin
    let t1 = Treegen.random_document rand gen ~paragraphs:4 ~vocab:8 in
    (t1, Treegen.perturb rand gen ~ops:3 t1)
  end

let test_canonicalize_preserves_result () =
  let rand = P.create 0x5ca1ab1e in
  let gen = Tree.gen () in
  let checked = ref 0 in
  for i = 0 to 319 do
    let t1, t2 = random_pair rand gen i in
    let r = Diff.diff t1 t2 in
    let base = effective_base r t1 in
    let canon = Depgraph.canonicalize ~tree:base r.Diff.script in
    let a = render (Script.apply base r.Diff.script) in
    let b = render (Script.apply base canon) in
    if a <> b then
      Alcotest.failf "pair %d: canonicalized script diverges\n%s\nvs\n%s" i a b;
    (* And the analyzer's own contract check agrees. *)
    (match
       Depgraph.verify_rewrite ~tree:base ~original:r.Diff.script
         ~rewritten:canon ()
     with
    | [] -> ()
    | ds ->
      List.iter
        (fun d ->
          if d.Diag.code = Diag.Illegal_fusion then
            Alcotest.failf "pair %d: TD501 on a canonicalization: %s" i
              (Diag.to_string d))
        ds);
    incr checked
  done;
  Alcotest.(check int) "pairs checked" 320 !checked

let test_parallel_apply_identical () =
  let rand = P.create 0xfeedbee in
  let gen = Tree.gen () in
  Pool.with_pool ~jobs:4 (fun pool4 ->
      for i = 0 to 99 do
        let t1, t2 = random_pair rand gen i in
        let r = Diff.diff t1 t2 in
        let base = effective_base r t1 in
        let seq = render (Script.apply base r.Diff.script) in
        let j1 = render (Depgraph.apply_parallel ~jobs:1 base r.Diff.script) in
        let j2 = render (Depgraph.apply_parallel ~jobs:2 base r.Diff.script) in
        let j4 = render (Depgraph.apply_parallel ~pool:pool4 base r.Diff.script) in
        if seq <> j1 || seq <> j2 || seq <> j4 then
          Alcotest.failf "pair %d: parallel apply diverges from sequential" i
      done)

(* ------------------------------------------------------------------ oracle *)

let parse_pair a b =
  let gen = Tree.gen () in
  (Codec.parse gen a, Codec.parse gen b)

let check_proved name ~expect ~ub t1 t2 =
  match Oracle.search ~ub t1 t2 with
  | Oracle.Proved d -> Alcotest.(check int) name expect d
  | Oracle.Unproven r -> Alcotest.failf "%s: unproven (%s)" name r

let test_oracle_small_cases () =
  let t1, t2 = parse_pair {|(D (S "a"))|} {|(D (S "a"))|} in
  check_proved "identical" ~expect:0 ~ub:0 t1 t2;
  let t1, t2 = parse_pair {|(D (S "a"))|} {|(D (S "b"))|} in
  check_proved "one update" ~expect:1 ~ub:1 t1 t2;
  let t1, t2 = parse_pair {|(D (S "a") (S "b"))|} {|(D (S "a"))|} in
  check_proved "one delete" ~expect:1 ~ub:1 t1 t2;
  let t1, t2 = parse_pair {|(D (S "a"))|} {|(D (S "a") (S "b"))|} in
  check_proved "one insert" ~expect:1 ~ub:1 t1 t2;
  let t1, t2 =
    parse_pair {|(D (P (S "a") (S "b")) (P))|} {|(D (P (S "b")) (P (S "a")))|}
  in
  check_proved "one move (given a loose bound)" ~expect:1 ~ub:3 t1 t2

let test_oracle_beats_redundant_script () =
  (* d(t1, t2) = 1 (move S"b" across parents); an UPD+DEL+INS script costs
     3, and the oracle must prove 1 against that upper bound. *)
  let t1, t2 =
    parse_pair {|(D (P (S "a") (S "b")) (P (S "c")))|}
      {|(D (P (S "a")) (P (S "c") (S "b")))|}
  in
  check_proved "move beats delete+insert" ~expect:1 ~ub:3 t1 t2;
  match Oracle.diags ~ub:3 (Oracle.Proved 1) with
  | [ d ] ->
    Alcotest.(check string) "TD601" "TD601" (Diag.id d.Diag.code);
    Alcotest.(check bool) "warning" false (Diag.is_error d)
  | ds -> Alcotest.failf "expected one TD601, got %d diags" (List.length ds)

let test_oracle_budget () =
  let t1, t2 =
    parse_pair {|(D (P (S "a") (S "b")) (P (S "c") (S "d")))|}
      {|(D (P (S "d") (S "c")) (P (S "b") (S "a")))|}
  in
  (match Oracle.search ~max_states:5 ~ub:6 t1 t2 with
  | Oracle.Unproven _ -> ()
  | Oracle.Proved d -> Alcotest.failf "expected budget exhaustion, proved %d" d);
  match Oracle.diags ~ub:6 (Oracle.Unproven "state budget exhausted") with
  | [ d ] -> Alcotest.(check string) "TD602" "TD602" (Diag.id d.Diag.code)
  | ds -> Alcotest.failf "expected one TD602, got %d diags" (List.length ds)

let test_oracle_agrees_with_edit_gen () =
  (* Random tiny pairs: the oracle's proven minimum can never exceed the
     generator's cost, agreement is the common case, and any disagreement
     must render as a TD601 diagnostic. *)
  let rand = P.create 0x0a51d in
  let gen = Tree.gen () in
  let proved = ref 0 and agreed = ref 0 and total = ref 0 in
  let tried = ref 0 in
  while !total < 40 && !tried < 400 do
    incr tried;
    let t1 =
      Treegen.random_labeled rand gen ~max_depth:3 ~max_width:3
        ~labels:[| "D"; "P"; "S" |] ~vocab:3
    in
    let t2 = Treegen.perturb rand gen ~ops:2 t1 in
    if Tree.size t1 <= 8 && Tree.size t2 <= 8 then begin
      incr total;
      let r = Diff.diff t1 t2 in
      let ub = Script.unweighted r.Diff.measure in
      match Oracle.search ~max_states:60_000 ~ub t1 t2 with
      | Oracle.Proved d ->
        incr proved;
        if d > ub then Alcotest.failf "oracle %d above generator %d" d ub;
        if d = ub then incr agreed
        else begin
          match Oracle.diags ~ub (Oracle.Proved d) with
          | [ diag ] when diag.Diag.code = Diag.Non_minimal -> ()
          | _ -> Alcotest.fail "disagreement must render as TD601"
        end
      | Oracle.Unproven _ -> ()
    end
  done;
  Alcotest.(check int) "forty tiny pairs" 40 !total;
  if !proved < 20 then
    Alcotest.failf "oracle proved only %d/40 (budget too small?)" !proved;
  if !agreed = 0 then Alcotest.fail "oracle never agreed with the generator"

let () =
  Alcotest.run "analyze"
    [
      ( "depgraph",
        [
          Alcotest.test_case "pair classification" `Quick test_classification;
          Alcotest.test_case "MOV/MOV conservative" `Quick test_mov_mov_interfere;
          Alcotest.test_case "independent slices" `Quick test_components_and_slices;
          Alcotest.test_case "canonical form idempotent" `Quick
            test_canonical_idempotent;
          Alcotest.test_case "dead move (TD503)" `Quick test_dead_move;
          Alcotest.test_case "cancelled insert (TD503)" `Quick
            test_dead_insert_pair;
          Alcotest.test_case "observed ops are not dead" `Quick
            test_not_dead_when_observed;
          Alcotest.test_case "rewrite contract (TD501/TD502)" `Quick
            test_verify_rewrite;
          Alcotest.test_case "compose fusion proved" `Quick test_compose_verified;
          Alcotest.test_case "fault points" `Quick test_fault_point;
        ] );
      ( "properties",
        [
          Alcotest.test_case "canonicalize preserves result (320 pairs)" `Slow
            test_canonicalize_preserves_result;
          Alcotest.test_case "parallel apply byte-identical (jobs 1/2/4)" `Slow
            test_parallel_apply_identical;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "small known distances" `Quick test_oracle_small_cases;
          Alcotest.test_case "proves a move beats delete+insert" `Quick
            test_oracle_beats_redundant_script;
          Alcotest.test_case "budget exhaustion (TD602)" `Quick test_oracle_budget;
          Alcotest.test_case "agrees with Edit_gen on tiny pairs" `Slow
            test_oracle_agrees_with_edit_gen;
        ] );
    ]
