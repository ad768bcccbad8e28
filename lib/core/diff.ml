module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Matching = Treediff_matching.Matching
module Criteria = Treediff_matching.Criteria
module Index = Treediff_tree.Index
module Budget = Treediff_util.Budget
module Fault = Treediff_util.Fault
module Exec = Treediff_util.Exec
module Diag = Treediff_check.Diag
module Line_diff = Treediff_textdiff.Line_diff

type rung = Windowed | Keyed | Rebuild

let rung_name = function
  | Windowed -> "windowed"
  | Keyed -> "keyed"
  | Rebuild -> "rebuild"

type t = {
  matching : Matching.t;
  total : Matching.t;
  script : Script.t;
  delta : Delta.t;
  dummy : (int * int) option;
  measure : Script.measure;
  stats : Treediff_util.Stats.t;
  postprocess_fixes : int;
  degraded : rung option;
}

type failure_cause =
  | Budget_exhausted of Budget.exhausted
  | Diagnostics of Diag.t list
  | Fault of string
  | Exception of string

type failure = {
  cause : failure_cause;
  attempts : (string * string) list;
  flat : Line_diff.hunk list;
}

(* Static verification of a result (the check layer): analyze the script,
   matching and their conformance symbolically.  The dummy-root convention is
   resolved here — the verifier sees the effective (possibly dummy-rooted)
   trees and a matching extended with the dummy pair — so callers hand over
   the same [t1]/[t2] they gave [diff]. *)
let verify ?(config = Config.default) ?audit_data result ~t1 ~t2 =
  let m = Matching.copy result.matching in
  (match result.dummy with Some (d1, d2) -> Matching.add m d1 d2 | None -> ());
  let rooted side t = Script.rooted ?dummy:(Option.map side result.dummy) t in
  Treediff_check.Check.verify ~criteria:config.Config.criteria ~matching:m
    ?dummy:result.dummy ?audit_data ~t1:(rooted fst t1) ~t2:(rooted snd t2)
    result.script

let finish ?(config = Config.default) ~exec ?degraded ~matching
    ~postprocess_fixes t1 t2 =
  let stats = Exec.stats exec in
  let gen = Edit_gen.generate ~exec ~matching t1 t2 in
  let base = Script.rooted ?dummy:(Option.map fst gen.Edit_gen.dummy) t1 in
  let measure = Script.measure ~model:config.Config.cost base gen.Edit_gen.script in
  let delta =
    Delta.build ~exec ~t1 ~t2 ~total:gen.Edit_gen.total
      ~script:gen.Edit_gen.script ()
  in
  let result =
    {
      matching;
      total = gen.Edit_gen.total;
      script = gen.Edit_gen.script;
      delta;
      dummy = gen.Edit_gen.dummy;
      measure;
      stats;
      postprocess_fixes;
      degraded;
    }
  in
  if config.Config.check then
    Treediff_check.Check.assert_ok (verify ~config result ~t1 ~t2);
  result

let diff ?(config = Config.default) ?exec t1 t2 =
  let exec = match exec with Some e -> e | None -> Exec.create () in
  let budget = Exec.budget exec in
  Budget.set_phase budget "setup";
  let ctx = Criteria.ctx ~exec config.Config.criteria ~t1 ~t2 in
  let idx1 = Criteria.index1 ctx and idx2 = Criteria.index2 ctx in
  Budget.admit budget
    ~nodes:(Index.size idx1 + Index.size idx2)
    ~depth:(1 + max (Index.height idx1 0) (Index.height idx2 0));
  let matching =
    match config.Config.algorithm with
    | Config.Fast_match ->
      let sim =
        Option.map
          (fun threshold -> (threshold, config.Config.sim_top_k))
          config.Config.sim_threshold
      in
      Treediff_matching.Fast_match.run ?window:config.Config.scan_window ?sim
        ctx
    | Config.Simple_match -> Treediff_matching.Simple_match.run ctx
    | Config.Approx_match ->
      Treediff_matching.Sim_index.greedy_indexed ~exec
        ~top_k:config.Config.sim_top_k ~idx1 ~idx2 ()
  in
  let postprocess_fixes =
    if config.Config.postprocess then Treediff_matching.Postprocess.run ctx matching
    else 0
  in
  finish ~config ~exec ~matching ~postprocess_fixes t1 t2

let diff_with_matching ?(config = Config.default) ?exec ~matching t1 t2 =
  let exec = match exec with Some e -> e | None -> Exec.create () in
  finish ~config ~exec ~matching ~postprocess_fixes:0 t1 t2

let apply result t1 =
  Script.apply ?dummy:(Option.map fst result.dummy) t1 result.script

let check result ~t1 ~t2 =
  match
    let out = apply result t1 in
    if not (Iso.equal out t2) then
      Error
        (Printf.sprintf "transformed tree differs from T2: %s"
           (Option.value ~default:"?" (Iso.first_difference out t2)))
    else
      (* Conformity: the script never inserts or deletes a matched node.  The
         inserted ids are fresh by construction, so only deletion needs the
         check. *)
      let bad =
        List.filter_map
          (function
            | Op.Delete { id } when Matching.matched_old result.matching id -> Some id
            | Op.Delete _ | Op.Insert _ | Op.Update _ | Op.Move _ -> None)
          result.script
      in
      if bad = [] then Ok ()
      else
        Error
          (Printf.sprintf "script deletes matched node(s) %s"
             (String.concat "," (List.map string_of_int bad)))
  with
  | ok_or_err -> ok_or_err
  | exception Script.Apply_error msg -> Error ("script does not apply: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Degradation ladder (resilience layer).                             *)
(* ------------------------------------------------------------------ *)

(* Stack-safe outline rendering for the flat last-resort diff: one line per
   node, indentation capped so a pathological path tree stays linear in
   output size. *)
let outline t =
  let buf = Buffer.create 1024 in
  let stack = ref [ (t, 0) ] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | (n, d) :: rest ->
      stack := rest;
      Buffer.add_string buf (String.make (2 * min d 20) ' ');
      Buffer.add_string buf n.Node.label;
      if not (String.equal n.Node.value "") then begin
        Buffer.add_string buf ": ";
        Buffer.add_string buf n.Node.value
      end;
      Buffer.add_char buf '\n';
      let kids = Node.fold_children (fun acc c -> (c, d + 1) :: acc) [] n in
      stack := List.rev_append kids !stack
  done;
  Buffer.contents buf

let flat_script t1 t2 = Line_diff.diff (outline t1) (outline t2)

(* Degraded rungs never raise from the embedded checker: [diff_result]
   re-verifies each rung's output explicitly and descends on any
   error-severity finding, so a degraded result is never wrong-but-silent. *)
let rung_config config = Config.with_check false config

let run_windowed ~config ~exec t1 t2 =
  let config =
    {
      (rung_config config) with
      Config.algorithm = Config.Fast_match;
      scan_window = Some 4;
      postprocess = false;
    }
  in
  diff ~config ~exec t1 t2

(* Keyed rung: leaves keyed by (label, value); duplicates are excluded by
   {!Treediff_matching.Keyed}.  A root paired with a non-root would be a hard
   error (TD204), so such pairs are dropped and the root pair is seeded when
   the labels agree. *)
let leaf_key (n : Node.t) =
  if Node.is_leaf n && not (String.equal n.Node.value "") then Some n.Node.value
  else None

let run_keyed ~config ~exec t1 t2 =
  Budget.set_phase (Exec.budget exec) "keyed_match";
  let m = Treediff_matching.Keyed.run ~exec ~key:leaf_key ~t1 ~t2 () in
  let r1 = t1.Node.id and r2 = t2.Node.id in
  List.iter
    (fun (a, b) ->
      if (a = r1) <> (b = r2) then Matching.remove m a b)
    (Matching.pairs m);
  if
    (not (Matching.matched_old m r1))
    && (not (Matching.matched_new m r2))
    && String.equal t1.Node.label t2.Node.label
  then Matching.add m r1 r2;
  diff_with_matching ~config:(rung_config config) ~exec ~matching:m t1 t2

(* Rebuild rung: empty matching — delete T1, insert T2.  Linear and
   deliberately unbudgeted (fresh unlimited budget, but the same fault
   registry so sticky faults keep firing), so it terminates under any
   deadline. *)
let run_rebuild ~config ~exec t1 t2 =
  let exec = Exec.create ~faults:(Exec.faults exec) () in
  diff_with_matching ~config:(rung_config config) ~exec
    ~matching:(Matching.create ()) t1 t2

let describe_exn = function
  | Budget.Exceeded e -> "budget exhausted: " ^ Budget.describe e
  | Fault.Injected p -> "injected fault: " ^ p
  | Diag.Failed ds -> "diagnostics: " ^ Diag.summary ds
  | e -> Printexc.to_string e

let cause_of_exn = function
  | Budget.Exceeded e -> Budget_exhausted e
  | Fault.Injected p -> Fault p
  | Diag.Failed ds -> Diagnostics ds
  | e -> Exception (Printexc.to_string e)

let ladder = [ Windowed; Keyed; Rebuild ]

let diff_result ?(config = Config.default) ?exec t1 t2 =
  let exec = match exec with Some e -> e | None -> Exec.create () in
  let attempts = ref [] in
  let note name msg = attempts := (name, msg) :: !attempts in
  let fail cause =
    Error { cause; attempts = List.rev !attempts; flat = flat_script t1 t2 }
  in
  let rec descend cause = function
    | [] -> fail cause
    | rung :: rest -> (
      (* Each rung runs in a respawned context — fresh stats, the budget
         rearmed so a slow primary attempt does not starve the cheaper
         fallbacks, but the same fault registry so fired faults stay
         sticky across rungs. *)
      let e = Exec.respawn exec in
      match
        match rung with
        | Windowed -> run_windowed ~config ~exec:e t1 t2
        | Keyed -> run_keyed ~config ~exec:e t1 t2
        | Rebuild -> run_rebuild ~config ~exec:e t1 t2
      with
      | r -> (
        let diags = verify ~config:(rung_config config) r ~t1 ~t2 in
        match Diag.errors diags with
        | [] -> Ok { r with degraded = Some rung }
        | errs ->
          note (rung_name rung) ("verification failed: " ^ Diag.summary errs);
          descend cause rest)
      | exception Out_of_memory -> raise Out_of_memory
      | exception e ->
        note (rung_name rung) (describe_exn e);
        descend cause rest)
  in
  match diff ~config ~exec t1 t2 with
  | r -> Ok r
  | exception Out_of_memory -> raise Out_of_memory
  | exception e ->
    note "primary" (describe_exn e);
    descend (cause_of_exn e) ladder
