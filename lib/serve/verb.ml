module Node = Treediff_tree.Node
module Exec = Treediff_util.Exec
module Budget = Treediff_util.Budget
module Diff = Treediff.Diff
module Config = Treediff.Config
module Doc_format = Treediff_doc.Format
module Render_diff = Treediff_doc.Render_diff
module Diag = Treediff_check.Diag

let ( let* ) = Result.bind

(* --------------------------------------------------------------- failures *)

type failure =
  | Bad_input of string
  | Deadline of string
  | Internal of string
  | Store of string
  | Ladder of Diff.failure

let message = function
  | Bad_input m | Deadline m | Internal m -> m
  | Store m -> "store: " ^ m
  | Ladder f -> (
    match f.Diff.cause with
    | Diff.Budget_exhausted e -> Budget.describe e
    | Diff.Diagnostics ds -> Diag.summary ds
    | Diff.Fault p -> "injected fault at " ^ p
    | Diff.Exception m -> m)

let exit_code = function
  | Bad_input _ -> 2
  | Deadline _ | Ladder { Diff.cause = Diff.Budget_exhausted _; _ } -> 3
  | Internal _ | Ladder _ -> 4
  | Store _ -> 1

let error_kind = function
  | Bad_input _ | Store _ -> Protocol.Bad_request
  | Deadline _ | Ladder { Diff.cause = Diff.Budget_exhausted _; _ } ->
    Protocol.Deadline
  | Internal _ | Ladder _ -> Protocol.Internal

let failure_of_exn = function
  | Doc_format.Parse_error m | Treediff_tree.Codec.Parse_error m ->
    Some (Bad_input ("parse error: " ^ m))
  | Budget.Exceeded e -> Some (Deadline (Budget.describe e))
  | Treediff_util.Fault.Injected p -> Some (Internal ("injected fault at " ^ p))
  | Diag.Failed ds -> Some (Internal (Diag.summary ds))
  | _ -> None

(* ----------------------------------------------------------------- inputs *)

type source = { label : string; text : string }
type input = { format : Doc_format.t; lenient : bool }
type pair = Node.t * Node.t

let parse ?(warn = ignore) input gen src =
  match input.format.Doc_format.parse_result ~lenient:input.lenient gen src.text with
  | Ok (tree, warnings) ->
    List.iter warn warnings;
    Ok tree
  | Error m -> Error (Bad_input (Printf.sprintf "%s: parse error: %s" src.label m))

let parse_pair ?warn input (old_src, new_src) =
  let gen = Treediff_tree.Tree.gen () in
  let* t1 = parse ?warn input gen old_src in
  let* t2 = parse ?warn input gen new_src in
  Ok (t1, t2)

(* ------------------------------------------------------- diff and batch *)

type settings = {
  algorithm : Config.algorithm;
  leaf_f : float;
  internal_t : float;
  window : int option;
  sim_threshold : int option;
  sim_top_k : int;
  sanitize : bool;
}

let default_settings =
  {
    algorithm = Config.default.Config.algorithm;
    leaf_f = 0.5;
    internal_t = 0.6;
    window = None;
    sim_threshold = None;
    sim_top_k = Config.default.Config.sim_top_k;
    sanitize = Config.default.Config.check;
  }

(* The one diff configuration.  Thresholds outside the paper's ranges are
   the request's fault. *)
let config s =
  match Treediff_doc.Doc_tree.config_with ~leaf_f:s.leaf_f ~internal_t:s.internal_t () with
  | base ->
    Ok
      {
        base with
        Config.algorithm = s.algorithm;
        scan_window = s.window;
        sim_threshold = s.sim_threshold;
        sim_top_k = s.sim_top_k;
        check = s.sanitize;
      }
  | exception Invalid_argument m -> Error (Bad_input m)

let mode_of_name name =
  match Render_diff.mode_of_name name with
  | Some mode -> Ok mode
  | None -> Error (Bad_input (Printf.sprintf "unknown mode %S" name))

type diff = { input : input; settings : settings; mode : Render_diff.mode }

(* The pattern names every field, so a field added to the request does not
   compile until the key covers it. *)
let diff_key
    {
      input = { format; lenient };
      settings =
        { algorithm; leaf_f; internal_t; window; sim_threshold; sim_top_k; sanitize };
      mode;
    } (t1, t2) =
  let opt = function None -> "-" | Some n -> string_of_int n in
  Printf.sprintf "diff:%Lx:%Lx:%s:%s:%b:%s:%h:%h:%s:%s:%d:%b"
    (Treediff_tree.Iso.hash t1) (Treediff_tree.Iso.hash t2)
    (Render_diff.mode_name mode) format.Doc_format.name lenient
    (match algorithm with
    | Config.Fast_match -> "fast"
    | Config.Simple_match -> "simple"
    | Config.Approx_match -> "approx")
    leaf_f internal_t (opt window) (opt sim_threshold) sim_top_k sanitize

let render (req : diff) result = Render_diff.render req.mode result

let diff ?exec req (t1, t2) =
  let* config = config req.settings in
  Result.map_error (fun f -> Ladder f) (Diff.diff_result ~config ?exec t1 t2)

let batch ?execs ?jobs req pairs =
  let* config = config req.settings in
  Ok (Treediff.Batch.run ~config ?execs ?jobs pairs)

(* ------------------------------------------------------------------ check *)

type artifact =
  | Self of { audit : bool; exhaustive : bool }
  | Stored_script of source
  | Stored_delta of source

type check = { input : input; artifact : artifact }
type verdict = { diags : Diag.t list; oracle : string option }

let check ?exec ?warn (req : check) sources =
  let* t1, t2 = parse_pair ?warn req.input sources in
  let stored ~code parse verify src =
    match parse src.text with
    | Ok artifact -> Ok { diags = verify artifact; oracle = None }
    | Error m -> Ok { diags = [ Diag.make code "%s: %s" src.label m ]; oracle = None }
  in
  match req.artifact with
  | Stored_script src ->
    (* no matching travels with a script: the matching analyzer does not run *)
    stored ~code:Diag.Script_parse Treediff_edit.Script_io.parse
      (Treediff_check.Check.verify ~t1 ~t2) src
  | Stored_delta src ->
    stored ~code:Diag.Delta_parse Treediff.Delta_io.parse
      (Treediff.Delta_check.run ~new_tree:t2) src
  | Self { audit; exhaustive } ->
    (* the diff's configuration; the verifier runs once, below, rather
       than inside the diff too *)
    let* config = config { default_settings with sanitize = false } in
    let result = Diff.diff ~config ?exec t1 t2 in
    let diags = Diff.verify ~config ~audit_data:audit result ~t1 ~t2 in
    if not exhaustive then Ok { diags; oracle = None }
    else
      (* prove the generated op count minimal on every maximal matched
         subtree pair small enough to decide *)
      let report = Treediff.Oracle_audit.run ~matching:result.Diff.matching ~t1 ~t2 () in
      Ok
        {
          diags = diags @ report.Treediff.Oracle_audit.diags;
          oracle = Some (Treediff.Oracle_audit.summary report);
        }
