exception Injected of string

type action = Raise | Deadline | Overflow

let action_name = function
  | Raise -> "raise"
  | Deadline -> "deadline"
  | Overflow -> "overflow"

type spec = { point : string; action : action; at : int }

(* The canonical instrumentation points.  Tests sweep this list; keep it in
   sync with the [point] call sites (grep for [Exec.fault] / [Fault.point]). *)
let registry =
  [
    "fast_match.chain";
    "fast_match.lcs";
    "fast_match.scan";
    "simple_match.node";
    "keyed.match";
    "postprocess.run";
    "postprocess.scan";
    "edit_gen.visit";
    "edit_gen.align";
    "edit_gen.delete";
    "delta.build";
    "check.depgraph";
    "check.oracle";
    "zs.forest_dist";
    "store.commit";
    "store.append";
    "store.replay";
    "store.manifest";
    "store.shard_lock";
    "serve.accept";
    "serve.decode";
    "serve.cache";
    "serve.drain";
  ]

let parse_action = function
  | "raise" -> Ok Raise
  | "deadline" -> Ok Deadline
  | "overflow" -> Ok Overflow
  | a -> Error (Printf.sprintf "unknown fault action %S (raise|deadline|overflow)" a)

let parse_spec s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad fault spec %S (want <point>:<action>[@N])" s)
  | Some i -> (
    let point = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let action_s, at =
      match String.index_opt rest '@' with
      | None -> (rest, Ok 1)
      | Some j -> (
        let n = String.sub rest (j + 1) (String.length rest - j - 1) in
        ( String.sub rest 0 j,
          match int_of_string_opt n with
          | Some k when k >= 1 -> Ok k
          | _ -> Error (Printf.sprintf "bad fault hit count %S" n) ))
    in
    if point = "" then Error (Printf.sprintf "empty fault point in %S" s)
    else
      match (parse_action action_s, at) with
      | Ok action, Ok at -> Ok { point; action; at }
      | (Error _ as e), _ | _, (Error _ as e) -> e)

(* A comma-separated list of specs, e.g.
   [fast_match.chain:raise,keyed.match:raise]. *)
let parse s =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | one :: rest -> (
      match parse_spec one with
      | Ok spec -> loop (spec :: acc) rest
      | Error _ as e -> e)
  in
  loop [] (String.split_on_char ',' s)

let env_var = "TREEDIFF_FAULT"

(* The environment is read once at program start into an immutable spec list;
   each registry instance armed from it carries its own hit counters, so
   concurrent pipelines under TREEDIFF_FAULT count hits independently and
   sweeps stay exact under --jobs > 1. *)
let env_specs =
  match Sys.getenv_opt env_var with
  | None | Some "" -> []
  | Some s -> (
    match parse s with
    | Ok specs -> specs
    | Error msg ->
      Printf.eprintf "treediff: ignoring %s: %s\n%!" env_var msg;
      [])

(* A registry is an execution-context-local value: never share one [t]
   between domains.  Each armed spec carries its own hit counter. *)
type t = { mutable active : (spec * int ref) list }

let create ?(specs = env_specs) () =
  { active = List.map (fun s -> (s, ref 0)) specs }

let none () = create ~specs:[] ()

let arm t specs = t.active <- List.map (fun s -> (s, ref 0)) specs

let arm_one t = function None -> arm t [] | Some s -> arm t [ s ]

let disarm t = arm t []

let current t =
  match t.active with [] -> None | (s, _) :: _ -> Some s

let armed t = List.map fst t.active

let hits t = List.fold_left (fun acc (_, c) -> acc + !c) 0 t.active

let matches spec name =
  String.equal spec.point name
  ||
  let n = String.length spec.point in
  n > 0
  && spec.point.[n - 1] = '*'
  && String.length name >= n - 1
  && String.sub name 0 (n - 1) = String.sub spec.point 0 (n - 1)

let synthetic_exhausted name reason =
  {
    Budget.phase = "fault:" ^ name;
    reason;
    comparisons = 0;
    visits = 0;
    elapsed_ms = 0.;
  }

let fire action name =
  match action with
  | Raise -> raise (Injected name)
  | Deadline -> raise (Budget.Exceeded (synthetic_exhausted name Budget.Deadline))
  | Overflow -> raise (Budget.Exceeded (synthetic_exhausted name Budget.Comparisons))

let point t name =
  List.iter
    (fun (s, c) ->
      if matches s name then begin
        incr c;
        if !c >= s.at then fire s.action name
      end)
    t.active
