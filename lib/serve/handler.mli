(** The daemon's request policy around the shared verbs.

    The verbs the CLI also has — [diff], [batch] and [check] — are decoded
    from their JSON params into a {!Verb} request, run there, and their
    typed answers encoded back as JSON; the [store/*] verbs parse through
    {!Verb.parse} and call {!Treediff_store.Shard} as [treediff store]
    does.  A {!Verb.failure} becomes the typed error its
    {!Verb.error_kind} names.  What stays here is daemon policy:

    - {b Deadlines.}  Each request runs in a fresh {!Treediff_util.Exec}
      whose budget is the client's allowance (capped by [max_deadline_ms])
      minus the time it already spent queued, so a request that waited too
      long is shed with a typed [deadline] answer instead of started late.
    - {b Pressure.}  Under [Flat_only] a diff is answered with a flat line
      diff (its ["forced"] field says ["flat"]), which degrades service
      before the server rejects it as [overloaded].  Under [Full] it runs
      the whole pipeline, the degradation ladder included.
    - {b Caches.}  Full-quality diff answers are cached under
      {!Verb.diff_key}; open archive handles are kept warm between store
      requests.
    - {b Isolation.}  {!handle} never raises (except [Out_of_memory] and
      [Stack_overflow]): any exception escaping a verb becomes a typed
      [internal] answer and the caller keeps serving.

    One {!t} lives as long as its server and is single-owner: only the
    accept-loop domain calls {!handle}. *)

type pressure = Full | Flat_only

type t

val create :
  ?default_deadline_ms:float ->
  ?max_deadline_ms:float ->
  ?cache_entries:int ->
  ?store_handles:int ->
  ?allow_crash:bool ->
  ?faults:Treediff_util.Fault.t ->
  unit ->
  t
(** [faults] is the {e server's} long-lived registry (the [serve.*]
    points); per-request pipeline registries are created fresh inside
    {!handle}.  [store_handles] (default 8) bounds the LRU cache of open
    archive handles kept warm between store requests; a cached handle is
    revalidated against its MANIFEST's identity, mtime and size on every
    use and silently reopened when stale, so external writers (or a gc
    rewrite) are always picked up.  [allow_crash] (default [false])
    enables the debug [crash] verb used by the crash-isolation tests and
    bench. *)

type outcome =
  | Payload of string  (** response frame payload to send back *)
  | Shutdown of string  (** payload to send, then begin draining *)

val handle :
  t ->
  queue_depth:int ->
  pressure:pressure ->
  draining:bool ->
  received_at:float ->
  Protocol.request ->
  outcome
(** Execute one admitted request.  [received_at] is the
    {!Treediff_util.Clock.now} instant the frame was decoded (a monotonic
    reading: the queueing time charged against the deadline is
    [Clock.now () -. received_at]); [queue_depth] and
    [draining] feed the [stats] verb. *)

val deadline_error :
  t -> id:int -> received_at:float -> Protocol.request -> string option
(** [Some payload] when the request's deadline has already expired at
    dispatch time (the caller sends it and skips {!handle}); [None] while
    time remains.  Exposed separately so the drain loop can shed expired
    queue entries without running them. *)

(** {1 Counters} (read by the [stats] verb and the tests) *)

val internal_count : t -> int

val shed_count : t -> int
(** Requests answered [deadline] without (or before) running. *)

val cache_hits : t -> int

val store_handle_hits : t -> int
(** Store-verb requests served through an already-open (and still-valid)
    archive handle. *)

val store_handle_misses : t -> int
