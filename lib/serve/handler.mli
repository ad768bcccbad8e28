(** Request execution for the daemon: verbs, deadlines, pressure policy,
    result cache and the crash-isolation barrier.

    One {!t} lives for the lifetime of a server and is single-owner: only
    the accept-loop domain calls {!handle}.  Each request runs in its own
    fresh {!Treediff_util.Exec} context whose {!Treediff_util.Budget}
    deadline is the client's requested allowance (capped by the server's
    [max_deadline_ms]) {e minus} the time the request already spent queued
    — admission time counts against the client's deadline, so a request
    that waited too long is shed with a typed [deadline] answer instead of
    being started hopelessly late.

    {b Pressure.}  The server translates its queue depth into a
    {!pressure} level; under [Forced_approx] the diff pipeline is pinned to
    the cheap greedy-SimHash rung, under [Flat_only] structural diffing is
    skipped entirely in favour of the flat line diff.  Both degrade
    service {e before} rejecting it — only a queue beyond [max_queue]
    yields [overloaded] (and that decision is the server's, not this
    module's).

    {b Isolation.}  {!handle} never raises (except asymptotic
    [Out_of_memory]/[Stack_overflow], which must not be swallowed): any
    exception escaping a verb — injected fault, internal diagnostic,
    programming error — becomes a typed [internal] error response and the
    caller keeps serving. *)

type pressure = Full | Forced_approx | Flat_only

val pressure_name : pressure -> string

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

val served : t -> int
(** Requests fully executed (any outcome), excluding admission rejects. *)

val ok_count : t -> int

val degraded_count : t -> int
(** [diff] answers produced by a ladder rung or a forced pressure level. *)

val internal_count : t -> int

val shed_count : t -> int
(** Requests answered [deadline] without (or before) running. *)

val cache_hits : t -> int

val cache : t -> string Cache.t

val store_handle_hits : t -> int
(** Store-verb requests served through an already-open (and still-valid)
    archive handle. *)

val store_handle_misses : t -> int
