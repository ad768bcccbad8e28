module Budget = Treediff_util.Budget
module Exec = Treediff_util.Exec
module Fault = Treediff_util.Fault
module Clock = Treediff_util.Clock
module Diag = Treediff_check.Diag
module Diff = Treediff.Diff
module Config = Treediff.Config
module Codec = Treediff_tree.Codec
module Script = Treediff_edit.Script
module Line_diff = Treediff_textdiff.Line_diff
module Shard = Treediff_store.Shard
module Doc_format = Treediff_doc.Format

type pressure = Full | Flat_only

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

let internal_count t = t.internal
let shed_count t = t.shed
let cache_hits t = Cache.hits t.cache
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

(* ------------------------------------------------------------- requests *)

(* JSON -> typed request.  The diff, batch and check verbs decode their
   params into a {!Verb} request and run it there, and the store verbs
   parse through {!Verb.parse}, so parsing, the diff configuration,
   rendering and failure classification are the CLI's own code.  A request
   the daemon refuses raises [Rejected]; the barrier in {!handle} answers
   it.  Params are decoded with explicit [let]s, in order: OCaml evaluates
   tuple and record fields right to left. *)
exception Rejected of Verb.failure

let reject m = raise (Rejected (Verb.Bad_input m))
let accept = function Ok v -> v | Error f -> raise (Rejected f)

let str_param name params =
  match Json.mem_str name params with
  | Some s -> s
  | None -> reject (Printf.sprintf "missing string param %S" name)

(* Per-request tree format, resolved through the same registry as the CLIs:
   the supported set and the unknown-format error text are identical to
   [treediff -f]'s. *)
let format_param params =
  match Json.mem_str "format" params with
  | None -> Doc_format.sexp
  | Some name -> (
    match Doc_format.find name with Ok f -> f | Error m -> reject m)

let input_params params =
  let format = format_param params in
  let lenient = Option.value ~default:false (Json.mem_bool "lenient" params) in
  { Verb.format; lenient }

let source_param name params = { Verb.label = name; text = str_param name params }

let sources_params params =
  let old_src = source_param "old" params in
  let new_src = source_param "new" params in
  (old_src, new_src)

(* The requested output mode: its name is echoed in the answer. *)
let mode_param params =
  let name = Option.value ~default:"script" (Json.mem_str "mode" params) in
  (name, accept (Verb.mode_of_name name))

(* The CLI's diff defaults (word-LCS leaf compare, f = 0.5, t = 0.6), with
   the sanitizer off: a diff answer is verified by the ladder, not per
   request. *)
let settings_params params =
  let approx = Option.value ~default:false (Json.mem_bool "approx" params) in
  {
    Verb.default_settings with
    algorithm =
      (if approx then Config.Approx_match else Verb.default_settings.Verb.algorithm);
    sim_threshold = Option.map int_of_float (Json.mem_num "sim_threshold" params);
    sim_top_k =
      (match Json.mem_num "sim_top_k" params with
      | Some k -> int_of_float k
      | None -> Verb.default_settings.Verb.sim_top_k);
    sanitize = false;
  }

let budget_exec deadline_ms = Exec.create ~budget:(Budget.make ~deadline_ms ()) ()

(* ------------------------------------------------------------ diff verb *)

(* Only full-quality and explicitly-approx results are cached: a result the
   ladder degraded under a deadline depends on that request's budget, and a
   flat-pressure answer depends on the queue — neither is a function of the
   request alone, so neither belongs in a cache keyed by it. *)
let cacheable (result : Diff.t) = result.Diff.degraded = None

let rung_json (result : Diff.t) =
  match result.Diff.degraded with
  | None -> Json.Null
  | Some rung -> Json.Str (Diff.rung_name rung)

let flat_output (t1, t2) =
  (* the same last-resort rendering Diff's failure path uses, computed
     directly — structure-blind, linear, no budget required *)
  Line_diff.render (Line_diff.diff (Codec.to_string t1) (Codec.to_string t2))

let run_diff t ~pressure ~deadline_ms params =
  let mode_name, mode = mode_param params in
  let input = input_params params in
  let pair = accept (Verb.parse_pair input (sources_params params)) in
  let req = { Verb.input; settings = settings_params params; mode } in
  let answer ?(mode = mode_name) ?(forced = Json.Null) ~output ~degraded ?ops ~cached () =
    Json.Obj
      ([ ("mode", Json.Str mode); ("output", Json.Str output); ("degraded", degraded) ]
      @ Option.fold ~none:[] ~some:(fun n -> [ ("ops", Json.int n) ]) ops
      @ [ ("forced", forced); ("cached", Json.Bool cached) ])
  in
  if pressure = Flat_only then begin
    t.degraded <- t.degraded + 1;
    answer ~mode:"flat" ~output:(flat_output pair) ~degraded:(Json.Str "flat")
      ~forced:(Json.Str "flat") ~cached:false ()
  end
  else begin
    let key = Verb.diff_key req pair in
    match cache_find t key with
    | Some output -> answer ~output ~degraded:Json.Null ~cached:true ()
    | None ->
      let result = accept (Verb.diff ~exec:(budget_exec deadline_ms) req pair) in
      let output = Verb.render req result in
      if cacheable result then cache_put t key output;
      if result.Diff.degraded <> None then t.degraded <- t.degraded + 1;
      answer ~output ~degraded:(rung_json result)
        ~ops:(Script.unweighted result.Diff.measure) ~cached:false ()
  end

(* ------------------------------------------------------------ batch verb *)

let run_batch t ~deadline_ms params =
  let _, mode = mode_param params in
  let pairs_json =
    match Option.bind (Json.member "pairs" params) Json.arr with
    | Some l -> l
    | None -> reject "missing array param \"pairs\""
  in
  let input = input_params params in
  let pairs =
    Array.of_list pairs_json
    |> Array.mapi (fun i p ->
           let side name =
             match Json.mem_str name p with
             | Some text -> { Verb.label = Printf.sprintf "pairs[%d]" i; text }
             | None -> reject (Printf.sprintf "pairs[%d]: missing %S" i name)
           in
           let old_src = side "old" in
           let new_src = side "new" in
           (old_src, new_src))
  in
  let jobs =
    match Json.mem_num "jobs" params with
    | Some j when j >= 1. -> Some (int_of_float j)
    | Some _ | None -> None
  in
  let req = { Verb.input; settings = settings_params params; mode } in
  (* one unparsable pair refuses the whole request *)
  let trees = Array.map (fun s -> accept (Verb.parse_pair input s)) pairs in
  (* Every pair runs in its own context under the request's residual
     allowance: the whole batch is one admitted unit, so one deadline
     bounds each member rather than being re-granted per pair. *)
  let outcomes =
    accept (Verb.batch ~execs:(fun _ -> budget_exec deadline_ms) ?jobs req trees)
  in
  let results =
    Array.to_list outcomes
    |> List.map (function
         | Ok (r : Diff.t) ->
           Json.Obj
             ([
                ("status", Json.Str (if r.Diff.degraded = None then "ok" else "degraded"));
                ("ops", Json.int (Script.unweighted r.Diff.measure));
                ("output", Json.Str (Verb.render req r));
              ]
             @ match rung_json r with Json.Null -> [] | rung -> [ ("rung", rung) ])
         | Error (f : Diff.failure) ->
           let reason = match f.Diff.attempts with (_, r) :: _ -> r | [] -> "unknown" in
           Json.Obj [ ("status", Json.Str "failed"); ("reason", Json.Str reason) ])
  in
  let degraded = Treediff.Batch.degraded_count outcomes in
  if degraded > 0 then t.degraded <- t.degraded + 1;
  Json.Obj
    [
      ("pairs", Json.int (Array.length pairs));
      ("degraded", Json.int degraded);
      ("failed", Json.int (Treediff.Batch.failed_count outcomes));
      ("results", Json.Arr results);
    ]

(* ------------------------------------------------------------ check verb *)

let run_check ~deadline_ms params =
  let input = input_params params in
  let sources = sources_params params in
  let artifact =
    match Json.mem_str "script" params with
    | Some text -> Verb.Stored_script { Verb.label = "script"; text }
    | None -> Verb.Self { audit = false; exhaustive = false }
  in
  let { Verb.diags; oracle = _ } =
    accept
      (Verb.check ~exec:(budget_exec deadline_ms) { Verb.input; artifact } sources)
  in
  Json.Obj
    [
      ("diagnostics",
       Json.Arr (List.map (fun d -> Json.Str (Diag.to_string d)) diags));
      ("errors", Json.int (List.length (Diag.errors diags)));
      ("summary", Json.Str (Diag.summary diags));
    ]

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

let version_param name params =
  match Json.mem_num name params with
  | Some v when Float.is_integer v && v >= 0. -> int_of_float v
  | Some _ -> reject (Printf.sprintf "param %S must be a version number" name)
  | None -> reject (Printf.sprintf "missing numeric param %S" name)

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

let with_store t ~budget path f =
  let fingerprint = store_fingerprint path in
  let cached =
    match (Cache.find t.stores path, fingerprint) with
    | Some { handle; fingerprint = fp }, Some now when fp = now -> Some handle
    | _ (* cold, or stale: modified or gc-rewritten since it was opened *) -> None
  in
  let handle =
    match cached with
    | Some handle ->
      t.store_hits <- t.store_hits + 1;
      handle
    | None ->
      (* the cached handle outlives this request, so it gets a plain
         context; budgets are passed per operation.  Opening a path that
         is no archive says why (a legacy file names its migration). *)
      let handle =
        match Shard.open_ ~exec:(Exec.create ()) path with
        | Ok handle -> handle
        | Error msg -> raise (Rejected (Verb.Store msg))
      in
      t.store_misses <- t.store_misses + 1;
      Option.iter
        (fun fingerprint -> Cache.put t.stores path { handle; fingerprint })
        fingerprint;
      handle
  in
  (* hand the operation the residual allowance of this request *)
  f ~exec:(budget_exec (Budget.remaining_ms budget)) handle

let entry_json (e : Shard.entry) =
  Json.Obj
    [
      ("version", Json.int e.Shard.version);
      ("kind", Json.Str (Treediff_store.Chain.kind_name e.Shard.kind));
      ("ops", Json.int e.Shard.ops);
      ("bytes", Json.int e.Shard.bytes);
      ("hash", Json.Str (Printf.sprintf "%016Lx" e.Shard.hash));
    ]

(* Each verb decodes its params once the archive is open (a request naming
   a bad archive is refused for that first). *)
let run_store t ~budget verb params =
  let path = str_param "archive" params in
  with_store t ~budget path (fun ~exec corpus ->
      let stored = function Ok v -> v | Error m -> raise (Rejected (Verb.Store m)) in
      let doc () = str_param "doc" params in
      match verb with
      | "store/log" -> (
        match Json.mem_str "doc" params with
        | Some doc ->
          let entries = stored (Shard.log corpus doc) in
          Json.Obj
            [
              ("doc", Json.Str doc);
              ("versions", Json.int (List.length entries));
              ("entries", Json.Arr (List.map entry_json entries));
            ]
        | None ->
          (* no doc: the catalog, one row per document *)
          let row doc =
            Json.Obj
              [
                ("doc", Json.Str doc);
                ("versions", Json.int (Shard.versions corpus doc));
                ("shard", Json.int (Shard.shard_of corpus doc));
              ]
          in
          Json.Obj
            [
              ("docs", Json.Arr (List.map row (Shard.docs corpus)));
              ("versions", Json.int (Shard.total_versions corpus));
              ("shards", Json.int (Shard.shards corpus));
            ])
      | "store/materialize" ->
        let version = version_param "version" params in
        let verify = Option.value ~default:true (Json.mem_bool "verify" params) in
        (* the answer honours the request's format, like the CLI's
           [store materialize -f] *)
        let format = format_param params in
        let tree = stored (Shard.materialize ~verify ~exec corpus ~doc:(doc ()) version) in
        Json.Obj [ ("tree", Json.Str (format.Doc_format.render tree)) ]
      | "store/commit" ->
        let input = input_params params in
        let tree =
          accept (Verb.parse input (Treediff_tree.Tree.gen ()) (source_param "tree" params))
        in
        let entry = stored (Shard.commit ~exec corpus ~doc:(doc ()) tree) in
        store_revalidate t path corpus;
        entry_json entry
      | _ (* "store/diff" *) ->
        let from_ = version_param "from" params in
        let to_ = version_param "to" params in
        let script = stored (Shard.diff_between ~exec corpus ~doc:(doc ()) ~from_ ~to_) in
        Json.Obj [ ("script", Json.Str (Treediff_edit.Script_io.to_string script)) ])

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
  let params = req.Protocol.params in
  match req.Protocol.verb with
  | "ping" -> Json.Obj [ ("pong", Json.Bool true); ("draining", Json.Bool draining) ]
  | "stats" -> stats_body t ~queue_depth ~draining
  | "diff" -> run_diff t ~pressure ~deadline_ms params
  | "batch" -> run_batch t ~deadline_ms params
  | "check" -> run_check ~deadline_ms params
  | "store/log" | "store/materialize" | "store/commit" | "store/diff" ->
    (* the store path needs the live budget to compute its residual *)
    run_store t ~budget:(Budget.make ~deadline_ms ()) req.Protocol.verb params
  | "crash" when t.allow_crash ->
    (* Debug verb for the crash-isolation tests and bench: a handler that
       genuinely raises, exercising the isolation barrier below. *)
    failwith "injected handler crash (debug verb)"
  | v -> reject (Printf.sprintf "unknown verb %S" v)

let refuse t ~id failure =
  let kind = Verb.error_kind failure in
  (match kind with
  | Protocol.Internal -> t.internal <- t.internal + 1
  | Protocol.Deadline -> t.shed <- t.shed + 1
  | Protocol.Bad_request -> t.bad <- t.bad + 1
  | Protocol.Overloaded | Protocol.Shutting_down -> ());
  Protocol.error_payload ~id kind (Verb.message failure)

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
        | body ->
          t.ok <- t.ok + 1;
          Protocol.ok_payload ~id body
        | exception Rejected failure -> refuse t ~id failure
        | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
        | exception e ->
          refuse t ~id
            (match Verb.failure_of_exn e with
            | Some failure -> failure
            | None -> Verb.Internal (Printexc.to_string e))
      end
    in
    Payload payload
  end
