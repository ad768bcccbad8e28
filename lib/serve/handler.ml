module Budget = Treediff_util.Budget
module Exec = Treediff_util.Exec
module Fault = Treediff_util.Fault
module Clock = Treediff_util.Clock
module Diag = Treediff_check.Diag
module Diff = Treediff.Diff
module Config = Treediff.Config
module Codec = Treediff_tree.Codec
module Iso = Treediff_tree.Iso
module Script = Treediff_edit.Script
module Script_io = Treediff_edit.Script_io
module Line_diff = Treediff_textdiff.Line_diff
module Shard = Treediff_store.Shard
module Doc_format = Treediff_doc.Format
module Render_diff = Treediff_doc.Render_diff

type pressure = Full | Forced_approx | Flat_only

let pressure_name = function
  | Full -> "full"
  | Forced_approx -> "approx"
  | Flat_only -> "flat"

(* An open archive handle kept warm between store requests: replaying a
   large archive's manifest per request is the dominant cost of the store
   verbs.  The fingerprint is the identity+mtime+size of the MANIFEST,
   which every write to the archive changes: a hit is trusted only while
   it still matches, so an archive modified by another process — or
   rewritten by gc — is silently reopened rather than served stale. *)
type cached_store = { handle : Shard.t; fingerprint : string }

type t = {
  default_deadline_ms : float;
  max_deadline_ms : float;
  allow_crash : bool;
  faults : Fault.t;  (* server registry: the serve.* points *)
  cache : string Cache.t;
  stores : cached_store Cache.t;  (* archive path -> warm handle *)
  started_at : float;
  mutable served : int;
  mutable ok : int;
  mutable degraded : int;
  mutable internal : int;
  mutable shed : int;
  mutable bad : int;
  mutable cache_faults : int;  (* serve.cache injections absorbed *)
  mutable store_hits : int;  (* store verbs served on a warm, valid handle *)
  mutable store_misses : int;  (* cold or stale: the archive was (re)opened *)
}

let create ?(default_deadline_ms = 1000.) ?(max_deadline_ms = 5000.)
    ?(cache_entries = 256) ?(store_handles = 8) ?(allow_crash = false) ?faults
    () =
  {
    default_deadline_ms;
    max_deadline_ms;
    allow_crash;
    faults = (match faults with Some f -> f | None -> Fault.create ());
    cache = Cache.create cache_entries;
    stores = Cache.create store_handles;
    started_at = Clock.now ();
    served = 0;
    ok = 0;
    degraded = 0;
    internal = 0;
    shed = 0;
    bad = 0;
    cache_faults = 0;
    store_hits = 0;
    store_misses = 0;
  }

let served t = t.served
let ok_count t = t.ok
let degraded_count t = t.degraded
let internal_count t = t.internal
let shed_count t = t.shed
let cache_hits t = Cache.hits t.cache
let cache t = t.cache
let store_handle_hits t = t.store_hits
let store_handle_misses t = t.store_misses

(* --------------------------------------------------------------- deadline *)

(* The client asks for [deadline_ms]; the server caps it.  What the request
   actually gets to spend is the capped allowance minus its queueing time. *)
let effective_deadline t req =
  let requested =
    match Json.mem_num "deadline_ms" req.Protocol.params with
    | Some ms when ms > 0. -> ms
    | Some _ | None -> t.default_deadline_ms
  in
  Float.min requested t.max_deadline_ms

let remaining_ms t ~received_at req =
  effective_deadline t req -. ((Clock.now () -. received_at) *. 1000.)

let deadline_error t ~id ~received_at req =
  if remaining_ms t ~received_at req <= 0. then begin
    t.shed <- t.shed + 1;
    Some
      (Protocol.error_payload ~id Protocol.Deadline
         "deadline expired before the request could run")
  end
  else None

(* ------------------------------------------------------------------ cache *)

(* The serve.cache fault point covers both directions.  A cache failure is
   never allowed to fail the request: an injected (or synthetic-budget)
   crash here degrades to cache-off behaviour and the request is computed
   normally — exactly how a production cache tier should fail. *)
let cache_find t key =
  match
    Fault.point t.faults "serve.cache";
    Cache.find t.cache key
  with
  | v -> v
  | exception Fault.Injected _ ->
    t.cache_faults <- t.cache_faults + 1;
    None
  | exception Budget.Exceeded _ ->
    t.cache_faults <- t.cache_faults + 1;
    None

let cache_put t key value =
  match
    Fault.point t.faults "serve.cache";
    Cache.put t.cache key value
  with
  | () -> ()
  | exception Fault.Injected _ -> t.cache_faults <- t.cache_faults + 1
  | exception Budget.Exceeded _ -> t.cache_faults <- t.cache_faults + 1

(* ------------------------------------------------------------- tree input *)

exception Bad_params of string

(* Per-request tree format, resolved through the same registry as the CLIs:
   the supported set and the unknown-format error text are identical to
   [treediff -f]'s, so the daemon and the local tool can never drift. *)
let format_of_params params =
  match Json.mem_str "format" params with
  | None -> Doc_format.sexp
  | Some name -> (
    match Doc_format.find name with
    | Ok f -> f
    | Error m -> raise (Bad_params m))

let lenient_of_params params =
  Option.value ~default:false (Json.mem_bool "lenient" params)

let parse_tree_param ~gen ?(fmt = Doc_format.sexp) ?(lenient = false) name
    params =
  match Json.mem_str name params with
  | None -> raise (Bad_params (Printf.sprintf "missing string param %S" name))
  | Some src -> (
    match fmt.Doc_format.parse_result ~lenient gen src with
    | Ok (t, _warnings) -> t
    | Error m ->
      raise (Bad_params (Printf.sprintf "%s: parse error: %s" name m)))

(* ------------------------------------------------------------ diff verb *)

(* The requested output mode: its name is echoed in the answer and keyed in
   the cache; the rendering is {!Render_diff}'s, the code the CLI prints
   with. *)
let render_mode params =
  let name = Option.value ~default:"script" (Json.mem_str "mode" params) in
  match Render_diff.mode_of_name name with
  | Some mode -> (name, mode)
  | None -> raise (Bad_params (Printf.sprintf "unknown mode %S" name))

(* Same defaults as the [treediff diff] CLI — word-LCS leaf comparison with
   the paper's f=0.5/t=0.6 thresholds — so the daemon and the local tool
   give identical answers for identical inputs.  The criteria are fixed per
   server (not per request): the cache key covers everything that varies. *)
let serve_criteria =
  Treediff_matching.Criteria.make
    ~compare:Treediff_textdiff.Word_compare.distance ()

let diff_config ~pressure params =
  let approx =
    Option.value ~default:false (Json.mem_bool "approx" params)
    || pressure = Forced_approx
  in
  let sim_threshold =
    Option.map int_of_float (Json.mem_num "sim_threshold" params)
  in
  let sim_top_k =
    match Json.mem_num "sim_top_k" params with
    | Some k -> int_of_float k
    | None -> Config.default.Config.sim_top_k
  in
  {
    (Config.with_criteria serve_criteria) with
    algorithm =
      (if approx then Config.Approx_match else Config.default.Config.algorithm);
    sim_threshold;
    sim_top_k;
    check = false;
  }

(* Only full-quality and explicitly-approx results are cached: a result the
   ladder degraded under a deadline depends on that request's budget, and a
   flat-pressure answer depends on the queue — neither is a function of the
   inputs alone, so neither belongs in a cache keyed only by them. *)
let cacheable (result : Diff.t) = result.Diff.degraded = None

let cache_key ~mode ~(config : Config.t) t1 t2 =
  Printf.sprintf "diff:%Lx:%Lx:%s:%s:%s:%d"
    (Iso.hash t1) (Iso.hash t2) mode
    (match config.Config.algorithm with
    | Config.Fast_match -> "fast"
    | Config.Simple_match -> "simple"
    | Config.Approx_match -> "approx")
    (match config.Config.sim_threshold with
    | None -> "-"
    | Some n -> string_of_int n)
    config.Config.sim_top_k

let flat_output t1 t2 =
  (* the same last-resort rendering Diff's failure path uses, computed
     directly — structure-blind, linear, no budget required *)
  Line_diff.render (Line_diff.diff (Codec.to_string t1) (Codec.to_string t2))

let run_diff t ~pressure ~deadline_ms req =
  let params = req.Protocol.params in
  let mode_name, mode = render_mode params in
  let fmt = format_of_params params in
  let lenient = lenient_of_params params in
  let gen = Treediff_tree.Tree.gen () in
  let t1 = parse_tree_param ~gen ~fmt ~lenient "old" params in
  let t2 = parse_tree_param ~gen ~fmt ~lenient "new" params in
  if pressure = Flat_only then begin
    t.degraded <- t.degraded + 1;
    Ok
      (Json.Obj
         [
           ("mode", Json.Str "flat");
           ("output", Json.Str (flat_output t1 t2));
           ("degraded", Json.Str "flat");
           ("forced", Json.Str "flat");
           ("cached", Json.Bool false);
         ])
  end
  else begin
    let config = diff_config ~pressure params in
    let key = cache_key ~mode:mode_name ~config t1 t2 in
    match cache_find t key with
    | Some output ->
      Ok
        (Json.Obj
           [
             ("mode", Json.Str mode_name);
             ("output", Json.Str output);
             ("degraded", Json.Null);
             ("forced",
              if pressure = Forced_approx then Json.Str "approx" else Json.Null);
             ("cached", Json.Bool true);
           ])
    | None -> (
      let exec = Exec.create ~budget:(Budget.make ~deadline_ms ()) () in
      match Diff.diff_result ~config ~exec t1 t2 with
      | Ok result ->
        let output = Render_diff.render mode result in
        if cacheable result then cache_put t key output;
        let degraded =
          match result.Diff.degraded with
          | None -> Json.Null
          | Some rung -> Json.Str (Diff.rung_name rung)
        in
        if result.Diff.degraded <> None || pressure = Forced_approx then
          t.degraded <- t.degraded + 1;
        Ok
          (Json.Obj
             [
               ("mode", Json.Str mode_name);
               ("output", Json.Str output);
               ("degraded", degraded);
               ("ops", Json.int (Script.unweighted result.Diff.measure));
               ("forced",
                if pressure = Forced_approx then Json.Str "approx" else Json.Null);
               ("cached", Json.Bool false);
             ])
      | Error f -> (
        match f.Diff.cause with
        | Diff.Budget_exhausted e ->
          Error (Protocol.Deadline, Budget.describe e)
        | Diff.Diagnostics ds ->
          Error (Protocol.Internal, Diag.summary ds)
        | Diff.Fault p ->
          Error (Protocol.Internal, "injected fault at " ^ p)
        | Diff.Exception m -> Error (Protocol.Internal, m)))
  end

(* ------------------------------------------------------------ batch verb *)

let run_batch t ~pressure ~deadline_ms req =
  let params = req.Protocol.params in
  let _, mode = render_mode params in
  let pairs_json =
    match Option.bind (Json.member "pairs" params) Json.arr with
    | Some l -> l
    | None -> raise (Bad_params "missing array param \"pairs\"")
  in
  let fmt = format_of_params params in
  let lenient = lenient_of_params params in
  let gen = Treediff_tree.Tree.gen () in
  let parse_side i name p =
    match Json.mem_str name p with
    | None ->
      raise (Bad_params (Printf.sprintf "pairs[%d]: missing %S" i name))
    | Some src -> (
      match fmt.Doc_format.parse_result ~lenient gen src with
      | Ok (t, _warnings) -> t
      | Error m ->
        raise (Bad_params (Printf.sprintf "pairs[%d]: parse error: %s" i m)))
  in
  let pairs =
    List.mapi (fun i p -> (parse_side i "old" p, parse_side i "new" p))
      pairs_json
    |> Array.of_list
  in
  let jobs =
    match Json.mem_num "jobs" params with
    | Some j when j >= 1. -> Some (int_of_float j)
    | Some _ | None -> None
  in
  let config = diff_config ~pressure params in
  (* Every pair runs in its own context under the request's residual
     allowance: the whole batch is one admitted unit, so one deadline
     bounds each member rather than being re-granted per pair. *)
  let execs _ = Exec.create ~budget:(Budget.make ~deadline_ms ()) () in
  let outcomes = Treediff.Batch.run ~config ~execs ?jobs pairs in
  let results =
    Array.to_list outcomes
    |> List.map (function
         | Ok (r : Diff.t) ->
           let fields =
             [
               ("status",
                Json.Str (match r.Diff.degraded with None -> "ok" | Some _ -> "degraded"));
               ("ops", Json.int (Script.unweighted r.Diff.measure));
               ("output", Json.Str (Render_diff.render mode r));
             ]
           in
           (match r.Diff.degraded with
           | None -> Json.Obj fields
           | Some rung -> Json.Obj (fields @ [ ("rung", Json.Str (Diff.rung_name rung)) ]))
         | Error (f : Diff.failure) ->
           let reason =
             match f.Diff.attempts with (_, r) :: _ -> r | [] -> "unknown"
           in
           Json.Obj
             [ ("status", Json.Str "failed"); ("reason", Json.Str reason) ])
  in
  let n_degraded = Treediff.Batch.degraded_count outcomes in
  if n_degraded > 0 then t.degraded <- t.degraded + 1;
  Ok
    (Json.Obj
       [
         ("pairs", Json.int (Array.length pairs));
         ("degraded", Json.int n_degraded);
         ("failed", Json.int (Treediff.Batch.failed_count outcomes));
         ("results", Json.Arr results);
       ])

(* ------------------------------------------------------------ check verb *)

let run_check ~deadline_ms req =
  let params = req.Protocol.params in
  let fmt = format_of_params params in
  let lenient = lenient_of_params params in
  let gen = Treediff_tree.Tree.gen () in
  let t1 = parse_tree_param ~gen ~fmt ~lenient "old" params in
  let t2 = parse_tree_param ~gen ~fmt ~lenient "new" params in
  let exec = Exec.create ~budget:(Budget.make ~deadline_ms ()) () in
  let config = Config.(with_check false default) in
  let diags =
    match Json.mem_str "script" params with
    | Some src -> (
      match Script_io.parse src with
      | Error msg -> [ Diag.make Diag.Script_parse "script: %s" msg ]
      | Ok script -> Treediff_check.Check.verify ~t1 ~t2 script)
    | None ->
      let result = Diff.diff ~config ~exec t1 t2 in
      Diff.verify ~config result ~t1 ~t2
  in
  Ok
    (Json.Obj
       [
         ("diagnostics",
          Json.Arr (List.map (fun d -> Json.Str (Diag.to_string d)) diags));
         ("errors", Json.int (List.length (Diag.errors diags)));
         ("summary", Json.Str (Diag.summary diags));
       ])

(* ------------------------------------------------------------ store verbs *)

(* Store requests operate on server-side archives by path: the daemon is a
   trusted-perimeter service (compare github/semantic's worker model), not
   a public API.  Handles are cached across requests (see {!cached_store});
   each operation still runs under the request's residual deadline — the
   residual is what {!Treediff_util.Budget.remaining_ms} was added for: the
   nested operation must spend what is left of this request's allowance,
   not a fresh grant.  The per-request budget travels as an explicit
   [~exec] override, never inside the cached handle, so a handle opened
   during one request cannot carry that request's expired deadline into
   the next. *)

let archive_param params =
  match Json.mem_str "archive" params with
  | Some p -> p
  | None -> raise (Bad_params "missing string param \"archive\"")

let version_param name params =
  match Json.mem_num name params with
  | Some v when Float.is_integer v && v >= 0. -> int_of_float v
  | Some _ -> raise (Bad_params (Printf.sprintf "param %S must be a version number" name))
  | None -> raise (Bad_params (Printf.sprintf "missing numeric param %S" name))

let doc_param params =
  match Json.mem_str "doc" params with
  | Some doc -> doc
  | None -> raise (Bad_params "missing string param \"doc\"")

let store_fingerprint path =
  match Unix.stat (Filename.concat path "MANIFEST") with
  | { Unix.st_ino; st_mtime; st_size; _ } ->
    Some (Printf.sprintf "%d:%h:%d" st_ino st_mtime st_size)
  | exception Unix.Unix_error _ -> None

(* Refresh a cached handle's fingerprint after the handle itself wrote the
   archive: the bytes changed underneath the stat, but this handle is the
   writer and is exactly current. *)
let store_revalidate t path handle =
  match store_fingerprint path with
  | Some fingerprint -> Cache.put t.stores path { handle; fingerprint }
  | None -> ()

let with_store t ~budget params f =
  let path = archive_param params in
  let fingerprint = store_fingerprint path in
  let cached =
    match (Cache.find t.stores path, fingerprint) with
    | Some { handle; fingerprint = fp }, Some now when fp = now -> Some handle
    | _ (* cold, or stale: modified or gc-rewritten since it was opened *) -> None
  in
  let opened =
    match cached with
    | Some handle ->
      t.store_hits <- t.store_hits + 1;
      Ok handle
    | None -> (
      (* the cached handle outlives this request, so it gets a plain
         context; budgets are passed per operation.  Opening a path that
         is no archive says why (a legacy file names its migration). *)
      match Shard.open_ ~exec:(Exec.create ()) path with
      | Error msg -> Error (Protocol.Bad_request, "store: " ^ msg)
      | Ok handle ->
        t.store_misses <- t.store_misses + 1;
        Option.iter
          (fun fingerprint -> Cache.put t.stores path { handle; fingerprint })
          fingerprint;
        Ok handle)
  in
  match opened with
  | Error _ as e -> e
  | Ok handle ->
    (* hand the operation the residual allowance of this request *)
    let exec =
      Exec.create
        ~budget:(Budget.make ~deadline_ms:(Budget.remaining_ms budget) ())
        ()
    in
    f ~exec handle

let entry_json (e : Shard.entry) =
  Json.Obj
    [
      ("version", Json.int e.Shard.version);
      ("kind", Json.Str (Treediff_store.Chain.kind_name e.Shard.kind));
      ("ops", Json.int e.Shard.ops);
      ("bytes", Json.int e.Shard.bytes);
      ("hash", Json.Str (Printf.sprintf "%016Lx" e.Shard.hash));
    ]

let run_store t ~budget verb req =
  let params = req.Protocol.params in
  let answer to_json = function
    | Ok v -> Ok (to_json v)
    | Error msg -> Error (Protocol.Bad_request, "store: " ^ msg)
  in
  match verb with
  | "store/log" ->
    with_store t ~budget params (fun ~exec:_ corpus ->
        match Json.mem_str "doc" params with
        | Some doc ->
          answer
            (fun entries ->
              Json.Obj
                [
                  ("doc", Json.Str doc);
                  ("versions", Json.int (List.length entries));
                  ("entries", Json.Arr (List.map entry_json entries));
                ])
            (Shard.log corpus doc)
        | None ->
          (* no doc: the catalog, one row per document *)
          Ok
            (Json.Obj
               [
                 ("docs",
                  Json.Arr
                    (List.map
                       (fun d ->
                         Json.Obj
                           [
                             ("doc", Json.Str d);
                             ("versions", Json.int (Shard.versions corpus d));
                             ("shard", Json.int (Shard.shard_of corpus d));
                           ])
                       (Shard.docs corpus)));
                 ("versions", Json.int (Shard.total_versions corpus));
                 ("shards", Json.int (Shard.shards corpus));
               ]))
  | "store/materialize" ->
    with_store t ~budget params (fun ~exec corpus ->
        let version = version_param "version" params in
        let verify = Option.value ~default:true (Json.mem_bool "verify" params) in
        (* the response honours the request's format, like the CLI's
           [store materialize -f] *)
        let fmt = format_of_params params in
        answer
          (fun tree -> Json.Obj [ ("tree", Json.Str (fmt.Doc_format.render tree)) ])
          (Shard.materialize ~verify ~exec corpus ~doc:(doc_param params) version))
  | "store/commit" ->
    with_store t ~budget params (fun ~exec corpus ->
        let gen = Treediff_tree.Tree.gen () in
        let fmt = format_of_params params in
        let lenient = lenient_of_params params in
        let tree = parse_tree_param ~gen ~fmt ~lenient "tree" params in
        let committed = Shard.commit ~exec corpus ~doc:(doc_param params) tree in
        if Result.is_ok committed then
          store_revalidate t (archive_param params) corpus;
        answer entry_json committed)
  | "store/diff" ->
    with_store t ~budget params (fun ~exec corpus ->
        let from_ = version_param "from" params in
        let to_ = version_param "to" params in
        answer
          (fun script -> Json.Obj [ ("script", Json.Str (Script_io.to_string script)) ])
          (Shard.diff_between ~exec corpus ~doc:(doc_param params) ~from_ ~to_))
  | v -> Error (Protocol.Bad_request, Printf.sprintf "unknown store verb %S" v)

(* ------------------------------------------------------------ stats verb *)

let stats_body t ~queue_depth ~draining =
  Json.Obj
    [
      ("uptime_ms",
       Json.float ((Clock.now () -. t.started_at) *. 1000.));
      ("queue_depth", Json.int queue_depth);
      ("draining", Json.Bool draining);
      ("served", Json.int t.served);
      ("ok", Json.int t.ok);
      ("degraded", Json.int t.degraded);
      ("internal_errors", Json.int t.internal);
      ("shed", Json.int t.shed);
      ("bad_requests", Json.int t.bad);
      ("cache",
       Json.Obj
         [
           ("entries", Json.int (Cache.length t.cache));
           ("capacity", Json.int (Cache.capacity t.cache));
           ("hits", Json.int (Cache.hits t.cache));
           ("misses", Json.int (Cache.misses t.cache));
           ("evictions", Json.int (Cache.evictions t.cache));
           ("faults_absorbed", Json.int t.cache_faults);
         ]);
      ("store_handles",
       Json.Obj
         [
           ("entries", Json.int (Cache.length t.stores));
           ("capacity", Json.int (Cache.capacity t.stores));
           ("hits", Json.int t.store_hits);
           ("misses", Json.int t.store_misses);
           ("evictions", Json.int (Cache.evictions t.stores));
         ]);
    ]

(* --------------------------------------------------------------- dispatch *)

type outcome = Payload of string | Shutdown of string

let dispatch t ~queue_depth ~pressure ~draining ~deadline_ms req =
  match req.Protocol.verb with
  | "ping" ->
    Ok (Json.Obj [ ("pong", Json.Bool true); ("draining", Json.Bool draining) ])
  | "stats" -> Ok (stats_body t ~queue_depth ~draining)
  | "diff" -> run_diff t ~pressure ~deadline_ms req
  | "batch" -> run_batch t ~pressure ~deadline_ms req
  | "check" -> run_check ~deadline_ms req
  | "store/log" | "store/materialize" | "store/commit" | "store/diff" ->
    (* the store path needs the live budget to compute its residual *)
    let budget = Budget.make ~deadline_ms () in
    run_store t ~budget req.Protocol.verb req
  | "crash" when t.allow_crash ->
    (* Debug verb for the crash-isolation tests and bench: a handler that
       genuinely raises, exercising the isolation barrier below. *)
    failwith "injected handler crash (debug verb)"
  | v -> Error (Protocol.Bad_request, Printf.sprintf "unknown verb %S" v)

let handle t ~queue_depth ~pressure ~draining ~received_at req =
  let id = req.Protocol.id in
  t.served <- t.served + 1;
  if req.Protocol.verb = "shutdown" then begin
    t.ok <- t.ok + 1;
    Shutdown (Protocol.ok_payload ~id (Json.Obj [ ("draining", Json.Bool true) ]))
  end
  else begin
    let deadline_ms = remaining_ms t ~received_at req in
    let payload =
      if deadline_ms <= 0. then begin
        t.shed <- t.shed + 1;
        Protocol.error_payload ~id Protocol.Deadline
          "deadline expired before the request could run"
      end
      else begin
        (* The isolation barrier: nothing a verb does may take the server
           down.  Memory exhaustion is re-raised — answering would lie. *)
        match dispatch t ~queue_depth ~pressure ~draining ~deadline_ms req with
        | Ok body ->
          t.ok <- t.ok + 1;
          Protocol.ok_payload ~id body
        | Error (kind, message) ->
          (match kind with
          | Protocol.Internal -> t.internal <- t.internal + 1
          | Protocol.Deadline -> t.shed <- t.shed + 1
          | Protocol.Bad_request -> t.bad <- t.bad + 1
          | Protocol.Overloaded | Protocol.Shutting_down -> ());
          Protocol.error_payload ~id kind message
        | exception Bad_params m ->
          t.bad <- t.bad + 1;
          Protocol.error_payload ~id Protocol.Bad_request m
        | exception Budget.Exceeded e ->
          t.shed <- t.shed + 1;
          Protocol.error_payload ~id Protocol.Deadline (Budget.describe e)
        | exception Fault.Injected p ->
          t.internal <- t.internal + 1;
          Protocol.error_payload ~id Protocol.Internal ("injected fault at " ^ p)
        | exception Diag.Failed ds ->
          t.internal <- t.internal + 1;
          Protocol.error_payload ~id Protocol.Internal (Diag.summary ds)
        | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
        | exception e ->
          t.internal <- t.internal + 1;
          Protocol.error_payload ~id Protocol.Internal (Printexc.to_string e)
      end
    in
    Payload payload
  end
