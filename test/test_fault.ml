(* Resilience layer: budgets, fault injection and the degradation ladder.

   The ladder property tests force each rung with armed faults and assert
   the three-part contract: the result is [Ok], replaying its script
   reproduces the new tree, and the static verifier reports zero errors.
   The registry sweep then arms every (point, action) combination and
   asserts that nothing ever escapes [diff_result] uncaught.

   When TREEDIFF_FAULT is set (the `make fault-tests` sweep), only the
   env-sweep suite runs: the armed fault would sabotage the deterministic
   unit tests, and the sweep's whole purpose is to show that an armed fault
   still yields a verified result or a typed error. *)

module Budget = Treediff_util.Budget
module Fault = Treediff_util.Fault
module Exec = Treediff_util.Exec
module Prng = Treediff_util.Prng
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Iso = Treediff_tree.Iso
module Diag = Treediff_check.Diag
module Diff = Treediff.Diff
module Config = Treediff.Config
module Treegen = Treediff_workload.Treegen

(* ----------------------------------------------------------------- budget *)

let test_budget_unlimited () =
  let b = Budget.unlimited () in
  Alcotest.(check bool) "not limited" false (Budget.is_limited b);
  for _ = 1 to 10_000 do
    Budget.tick b;
    Budget.visit b
  done;
  Alcotest.(check bool) "counts comparisons" true (Budget.comparisons b = 10_000)

let test_budget_comparisons_cap () =
  let b = Budget.make ~max_comparisons:5 () in
  Alcotest.(check bool) "limited" true (Budget.is_limited b);
  let tripped =
    try
      for _ = 1 to 1_000 do
        Budget.tick b
      done;
      None
    with Budget.Exceeded e -> Some e
  in
  match tripped with
  | None -> Alcotest.fail "comparison cap never tripped"
  | Some e ->
    Alcotest.(check bool) "reason" true (e.Budget.reason = Budget.Comparisons);
    Alcotest.(check bool) "at the cap" true (e.Budget.comparisons >= 5)

let test_budget_deadline () =
  (* A deadline in the past: the clock is read at most 256 events later. *)
  let b = Budget.make ~deadline_ms:(-1.0) () in
  let tripped =
    try
      for _ = 1 to 1_000 do
        Budget.tick b
      done;
      false
    with Budget.Exceeded e -> e.Budget.reason = Budget.Deadline
  in
  Alcotest.(check bool) "deadline trips" true tripped;
  (* visits are deadline-only: an expired deadline trips them too *)
  let b = Budget.make ~deadline_ms:(-1.0) () in
  let tripped =
    try
      for _ = 1 to 1_000 do
        Budget.visit b
      done;
      false
    with Budget.Exceeded _ -> true
  in
  Alcotest.(check bool) "visit sees deadline" true tripped

let test_budget_visits_uncapped () =
  (* comparison caps must not throttle visits — the cheap rungs rely on it *)
  let b = Budget.make ~max_comparisons:1 () in
  for _ = 1 to 10_000 do
    Budget.visit b
  done;
  Alcotest.(check bool) "visits counted" true (Budget.visits b = 10_000)

let test_budget_admit () =
  let b = Budget.make ~max_nodes:100 ~max_depth:10 () in
  Budget.admit b ~nodes:100 ~depth:10;
  (try
     Budget.admit b ~nodes:101 ~depth:1;
     Alcotest.fail "node cap not enforced"
   with Budget.Exceeded e ->
     Alcotest.(check bool) "nodes" true (e.Budget.reason = Budget.Nodes));
  try
    Budget.admit b ~nodes:1 ~depth:11;
    Alcotest.fail "depth cap not enforced"
  with Budget.Exceeded e ->
    Alcotest.(check bool) "depth" true (e.Budget.reason = Budget.Depth)

let test_budget_rearm () =
  let b = Budget.make ~max_comparisons:3 () in
  (try
     for _ = 1 to 10 do
       Budget.tick b
     done
   with Budget.Exceeded _ -> ());
  let b' = Budget.rearm b in
  Alcotest.(check bool) "counters reset" true (Budget.comparisons b' = 0);
  Alcotest.(check bool) "still limited" true (Budget.is_limited b');
  (* and the fresh budget enforces the same cap *)
  let tripped =
    try
      for _ = 1 to 10 do
        Budget.tick b'
      done;
      false
    with Budget.Exceeded _ -> true
  in
  Alcotest.(check bool) "cap carried over" true tripped

(* ------------------------------------------------------------------ fault *)

let test_fault_parse () =
  (match Fault.parse_spec "fast_match.lcs:raise" with
  | Ok s ->
    Alcotest.(check string) "point" "fast_match.lcs" s.Fault.point;
    Alcotest.(check bool) "action" true (s.Fault.action = Fault.Raise);
    Alcotest.(check int) "at defaults to 1" 1 s.Fault.at
  | Error e -> Alcotest.fail e);
  (match Fault.parse_spec "edit_gen.*:deadline@3" with
  | Ok s ->
    Alcotest.(check bool) "action" true (s.Fault.action = Fault.Deadline);
    Alcotest.(check int) "at" 3 s.Fault.at
  | Error e -> Alcotest.fail e);
  (match Fault.parse "a:raise,b:overflow@2" with
  | Ok [ a; b ] ->
    Alcotest.(check string) "first" "a" a.Fault.point;
    Alcotest.(check int) "second at" 2 b.Fault.at
  | Ok _ -> Alcotest.fail "expected two specs"
  | Error e -> Alcotest.fail e);
  let bad s =
    match Fault.parse_spec s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted bad spec %S" s)
    | Error _ -> ()
  in
  bad "no-colon";
  bad "p:unknown-action";
  bad ":raise";
  bad "p:raise@0"

let test_fault_fire () =
  let f =
    Fault.create ~specs:[ { Fault.point = "p.q"; action = Fault.Raise; at = 2 } ] ()
  in
  Fault.point f "p.q";
  Alcotest.(check int) "first hit counted, not fired" 1 (Fault.hits f);
  (try
     Fault.point f "p.q";
     Alcotest.fail "second hit should fire"
   with Fault.Injected p -> Alcotest.(check string) "point name" "p.q" p);
  (* sticky: keeps firing after the at-th hit *)
  (try
     Fault.point f "p.q";
     Alcotest.fail "sticky fault should keep firing"
   with Fault.Injected _ -> ());
  Fault.disarm f;
  Fault.point f "p.q" (* disarmed: no-op *);
  (* counters are per registry, not shared: a second registry with the same
     spec starts from zero *)
  let g =
    Fault.create ~specs:[ { Fault.point = "p.q"; action = Fault.Raise; at = 2 } ] ()
  in
  Fault.point g "p.q";
  Alcotest.(check int) "independent counters" 1 (Fault.hits g)

let test_fault_prefix_and_actions () =
  let f =
    Fault.create
      ~specs:[ { Fault.point = "edit_gen.*"; action = Fault.Deadline; at = 1 } ]
      ()
  in
  (try
     Fault.point f "edit_gen.align";
     Alcotest.fail "prefix should match"
   with Budget.Exceeded e ->
     Alcotest.(check bool) "deadline reason" true (e.Budget.reason = Budget.Deadline));
  Fault.point f "fast_match.lcs" (* prefix does not match: no-op *);
  Fault.arm_one f (Some { Fault.point = "x"; action = Fault.Overflow; at = 1 });
  (try
     Fault.point f "x";
     Alcotest.fail "overflow should fire"
   with Budget.Exceeded e ->
     Alcotest.(check bool) "overflow is a comparisons trip" true
       (e.Budget.reason = Budget.Comparisons))

let test_fault_multi () =
  let f =
    Fault.create
      ~specs:
        [
          { Fault.point = "a"; action = Fault.Raise; at = 1 };
          { Fault.point = "b"; action = Fault.Raise; at = 1 };
        ]
      ()
  in
  (try
     Fault.point f "b";
     Alcotest.fail "second armed spec should fire"
   with Fault.Injected p -> Alcotest.(check string) "fired b" "b" p);
  (try
     Fault.point f "a";
     Alcotest.fail "first armed spec should fire"
   with Fault.Injected p -> Alcotest.(check string) "fired a" "a" p);
  Fault.disarm f;
  Alcotest.(check (list string)) "disarmed" []
    (List.map (fun s -> s.Fault.point) (Fault.armed f))

(* ----------------------------------------------------------------- ladder *)

let labels = [| "D"; "P"; "S"; "W" |]

let random_pair rng gen =
  let t1 =
    Treegen.random_labeled rng gen ~max_depth:4 ~max_width:4 ~labels ~vocab:12
  in
  let t2 = Treegen.perturb rng gen t1 in
  (t1, t2)

(* The three-part contract every Ok result must satisfy. *)
let assert_sound ~what t1 t2 (r : Diff.t) =
  let replayed = Diff.apply r t1 in
  if not (Iso.equal replayed t2) then
    Alcotest.fail (what ^ ": replayed script does not reproduce the new tree");
  let errs = Diag.errors (Diff.verify ~config:Config.(with_check false default) r ~t1 ~t2) in
  if errs <> [] then
    Alcotest.fail (what ^ ": verifier errors: " ^ Diag.summary errs)

let test_ladder_no_budget_is_primary () =
  let rng = Prng.create 11 in
  let gen = Tree.gen () in
  let t1, t2 = random_pair rng gen in
  match Diff.diff_result t1 t2 with
  | Error _ -> Alcotest.fail "unbudgeted diff_result failed"
  | Ok r ->
    Alcotest.(check bool) "not degraded" true (r.Diff.degraded = None);
    let reference = Diff.diff t1 t2 in
    Alcotest.(check int) "same script"
      (List.length reference.Diff.script)
      (List.length r.Diff.script)

let test_ladder_comparison_cap_degrades () =
  let rng = Prng.create 23 in
  let gen = Tree.gen () in
  let t1, t2 = random_pair rng gen in
  let exec = Exec.create ~budget:(Budget.make ~max_comparisons:1 ()) () in
  match Diff.diff_result ~exec t1 t2 with
  | Error _ -> Alcotest.fail "ladder should absorb a comparison cap"
  | Ok r ->
    (match r.Diff.degraded with
    | Some _ -> ()
    | None -> Alcotest.fail "expected a degraded rung");
    assert_sound ~what:"degraded" t1 t2 r

(* Force a specific rung with armed faults and run the soundness contract
   over many random pairs.  Sticky faults make every higher rung fail. *)
let force_rung ~seed ~pairs ~specs ~expect () =
  let rng = Prng.create seed in
  for i = 1 to pairs do
    let gen = Tree.gen () in
    let t1, t2 = random_pair rng gen in
    (* a fresh per-pair context: hit counters start at zero each pair *)
    let exec = Exec.create ~faults:(Fault.create ~specs ()) () in
    match Diff.diff_result ~exec t1 t2 with
    | Error f ->
      Alcotest.fail
        (Printf.sprintf "pair %d: rung %s unreachable: %s" i
           (Diff.rung_name expect)
           (match f.Diff.attempts with
           | (n, m) :: _ -> n ^ ": " ^ m
           | [] -> "no attempts"))
    | Ok r ->
      (match r.Diff.degraded with
      | Some rung when rung = expect -> ()
      | Some rung ->
        Alcotest.fail
          (Printf.sprintf "pair %d: expected %s, got %s" i
             (Diff.rung_name expect) (Diff.rung_name rung))
      | None ->
        Alcotest.fail
          (Printf.sprintf "pair %d: fault did not degrade (expected %s)" i
             (Diff.rung_name expect)));
      (* apply/verify run outside the exec: the armed spec cannot fire *)
      assert_sound ~what:(Diff.rung_name expect) t1 t2 r
  done

let raise_at p = { Fault.point = p; action = Fault.Raise; at = 1 }

(* postprocess runs in the primary attempt only (the windowed rung disables
   it), so this fault lands on the windowed rung. *)
let test_ladder_windowed =
  force_rung ~seed:101 ~pairs:200 ~specs:[ raise_at "postprocess.run" ]
    ~expect:Diff.Windowed

(* fast_match runs in the primary and windowed attempts; the keyed rung
   matches by leaf value instead. *)
let test_ladder_keyed =
  force_rung ~seed:202 ~pairs:200
    ~specs:[ raise_at "fast_match.chain" ]
    ~expect:Diff.Keyed

(* killing every matcher the ladder uses leaves only the
   delete-all/insert-all rebuild *)
let test_ladder_rebuild =
  force_rung ~seed:303 ~pairs:200
    ~specs:[ raise_at "fast_match.chain"; raise_at "keyed.match" ]
    ~expect:Diff.Rebuild

(* Every (registry point, action) combination: the outcome must be a
   verified Ok or a typed Error — never an uncaught exception, never a
   wrong-but-silent script. *)
let test_fault_sweep () =
  let rng = Prng.create 77 in
  List.iter
    (fun point ->
      List.iter
        (fun action ->
          let gen = Tree.gen () in
          let t1, t2 = random_pair rng gen in
          let exec =
            Exec.create
              ~faults:
                (Fault.create ~specs:[ { Fault.point = point; action; at = 1 } ] ())
              ()
          in
          let what =
            Printf.sprintf "%s:%s" point (Fault.action_name action)
          in
          (match Diff.diff_result ~exec t1 t2 with
          | Ok r -> assert_sound ~what t1 t2 r
          | Error f ->
            (* typed failure: the cause must reflect the armed action *)
            let ok =
              match (action, f.Diff.cause) with
              | Fault.Raise, Diff.Fault _ -> true
              | (Fault.Deadline | Fault.Overflow), Diff.Budget_exhausted _ ->
                true
              | _ -> false
            in
            if not ok then
              Alcotest.fail (what ^ ": failure cause does not match the fault");
            if f.Diff.attempts = [] then
              Alcotest.fail (what ^ ": no attempt log");
            if f.Diff.flat = [] then
              Alcotest.fail (what ^ ": no flat fallback")))
        [ Fault.Raise; Fault.Deadline; Fault.Overflow ])
    Fault.registry

(* The Zhang-Shasha baseline is outside the ladder but must honor budgets
   and faults as typed errors. *)
let test_zs_budget_and_fault () =
  let rng = Prng.create 55 in
  let gen = Tree.gen () in
  let t1, t2 = random_pair rng gen in
  let exec = Exec.create ~budget:(Budget.make ~deadline_ms:(-1.0) ()) () in
  (match Treediff_zs.Zhang_shasha.distance ~exec t1 t2 with
  | _ -> Alcotest.fail "expired deadline should trip the baseline"
  | exception Budget.Exceeded e ->
    Alcotest.(check string) "phase" "zs" e.Budget.phase);
  let exec =
    Exec.create
      ~faults:(Fault.create ~specs:[ raise_at "zs.forest_dist" ] ())
      ()
  in
  match Treediff_zs.Zhang_shasha.distance ~exec t1 t2 with
  | _ -> Alcotest.fail "armed fault should fire in forest_dist"
  | exception Fault.Injected _ -> ()

(* ------------------------------------------------------- deep-tree safety *)

let path_tree gen depth =
  (* built iteratively: leaf first, then wrap -- the recursion lives in the
     library code under test, not here *)
  let t = ref (Tree.leaf gen "S" "bottom") in
  for _ = 2 to depth do
    t := Tree.node gen "S" [ !t ]
  done;
  !t

let test_deep_path_tree () =
  let depth = 100_000 in
  let gen = Tree.gen () in
  let t1 = path_tree gen depth in
  let t2 = path_tree gen depth in
  Alcotest.(check int) "size" depth (Node.size t1);
  Alcotest.(check int) "height (edges)" (depth - 1) (Node.height t1);
  (* identical 100k-deep paths: the full pipeline must not overflow *)
  let config = Config.(with_check false default) in
  let r = Diff.diff ~config t1 t2 in
  Alcotest.(check bool) "replay is iso" true (Iso.equal (Diff.apply r t1) t2);
  (* and a mutated bottom exercises update propagation at depth *)
  let t3 = path_tree gen (depth - 1) in
  let r = Diff.diff ~config t1 t3 in
  Alcotest.(check bool) "shrunk replay is iso" true (Iso.equal (Diff.apply r t1) t3)

(* -------------------------------------------------------- lenient parsing *)

let test_lenient_xml () =
  let gen = Tree.gen () in
  let src = {|<a><b>one<c>two</a>|} in
  (match Treediff_doc.Xml_parser.parse_result gen src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict mode should reject unclosed tags");
  match Treediff_doc.Xml_parser.parse_result ~lenient:true gen src with
  | Error e -> Alcotest.fail ("lenient xml failed: " ^ e)
  | Ok (t, warnings) ->
    Alcotest.(check string) "root" "a" t.Node.label;
    Alcotest.(check bool) "warned" true (warnings <> [])

let test_lenient_latex () =
  let gen = Tree.gen () in
  let src = "\\begin{itemize} stray text, no item\n\\section{Hm}\ntail." in
  (match Treediff_doc.Latex_parser.parse_result gen src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict mode should reject the stray itemize");
  match Treediff_doc.Latex_parser.parse_result ~lenient:true gen src with
  | Error e -> Alcotest.fail ("lenient latex failed: " ^ e)
  | Ok (_, warnings) -> Alcotest.(check bool) "warned" true (warnings <> [])

let test_lenient_html () =
  let gen = Tree.gen () in
  let src = "<ul><p>not a list item</p></ul>" in
  match Treediff_doc.Html_parser.parse_result ~lenient:true gen src with
  | Error e -> Alcotest.fail ("lenient html failed: " ^ e)
  | Ok _ -> ()

(* --------------------------------------------------------------- env mode *)

(* Under `make fault-tests` the armed TREEDIFF_FAULT spec stays live for the
   whole process, so only this sweep runs: a fixed workload must come back
   verified-Ok (possibly degraded) or as a typed Error.  The sweep calls the
   verifier directly, outside the pipeline driver that catches injected
   faults — so a fault armed at one of the verifier's own points
   (check.depgraph, check.oracle) surfaces here as Fault.Injected, which
   counts as a typed outcome. *)
let test_env_sweep () =
  let spec = Option.value ~default:"" (Sys.getenv_opt Fault.env_var) in
  let rng = Prng.create 13 in
  for i = 1 to 25 do
    let gen = Tree.gen () in
    let t1, t2 = random_pair rng gen in
    match Diff.diff_result t1 t2 with
    | Ok r -> (
      let errs =
        try
          Diag.errors
            (Diff.verify ~config:Config.(with_check false default) r ~t1 ~t2)
        with Fault.Injected _ -> []
      in
      match errs with
      | [] -> ()
      | errs ->
        Alcotest.fail
          (Printf.sprintf "[%s] pair %d: unverified result: %s" spec i
             (Diag.summary errs)))
    | Error f ->
      if f.Diff.attempts = [] then
        Alcotest.fail (Printf.sprintf "[%s] pair %d: no attempt log" spec i)
  done

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  match Sys.getenv_opt Fault.env_var with
  | Some s when s <> "" ->
    Alcotest.run "fault(env)"
      [ ("env-sweep", [ quick ("armed " ^ s) test_env_sweep ]) ]
  | _ ->
    Alcotest.run "fault"
      [
        ( "budget",
          [
            quick "unlimited is a no-op" test_budget_unlimited;
            quick "comparison cap" test_budget_comparisons_cap;
            quick "deadline" test_budget_deadline;
            quick "visits are uncapped" test_budget_visits_uncapped;
            quick "admit" test_budget_admit;
            quick "rearm" test_budget_rearm;
          ] );
        ( "fault",
          [
            quick "parse specs" test_fault_parse;
            quick "fire at the nth hit, sticky" test_fault_fire;
            quick "prefix match and actions" test_fault_prefix_and_actions;
            quick "multiple armed specs" test_fault_multi;
          ] );
        ( "ladder",
          [
            quick "no budget: primary result" test_ladder_no_budget_is_primary;
            quick "comparison cap degrades soundly"
              test_ladder_comparison_cap_degrades;
            quick "windowed rung x200" test_ladder_windowed;
            quick "keyed rung x200" test_ladder_keyed;
            quick "rebuild rung x200" test_ladder_rebuild;
            quick "registry sweep: never uncaught" test_fault_sweep;
            quick "zhang-shasha budget and fault" test_zs_budget_and_fault;
          ] );
        ( "deep-trees",
          [ quick "100k-deep path tree" test_deep_path_tree ] );
        ( "lenient",
          [
            quick "xml" test_lenient_xml;
            quick "latex" test_lenient_latex;
            quick "html" test_lenient_html;
          ] );
      ]
