(** The daemon: a single-domain, [select]-driven TCP server speaking the
    length-prefixed JSON protocol of {!Protocol}.

    {b Admission and pressure.}  Decoded requests enter one FIFO queue.
    Its depth maps to service quality, degrading {e before} rejecting:

    {t | depth [d]                        | policy                                  |
       | [d < flat_queue]                 | full-quality pipeline ([Full])          |
       | [flat_queue <= d <= max_queue]   | flat line diff only ([Flat_only])       |
       | [d > max_queue]                  | typed [overloaded] reject at admission  |}

    Control verbs ([ping], [stats], [shutdown]) bypass the admission bound
    — they are cheap and must work precisely when the server is busiest.

    A queued request's waiting time counts against its own deadline
    (see {!Handler}); an expired entry is shed with a typed [deadline]
    answer instead of being run hopelessly late.

    {b Signals.}  [run] installs SIGINT/SIGTERM handlers (self-pipe trick)
    for drain-then-exit: stop accepting, answer everything queued, flush,
    close.  The [shutdown] verb triggers the same drain.  Handlers are
    restored on return.

    {b Faults.}  Four registered points, armed from [TREEDIFF_FAULT] on the
    server's long-lived registry (so [@N] counts requests across the run):
    {ul
    {- [serve.accept] — accepted connection is immediately dropped;}
    {- [serve.decode] — frame decode fails, answered as [bad_request];}
    {- [serve.cache] — cache access fails, absorbed as a miss (see
       {!Handler});}
    {- [serve.drain] — graceful drain is skipped: pending work is
       abandoned and the server stops at once (crash-during-drain).}} *)

type config = {
  host : string;  (** bind address (default ["127.0.0.1"]) *)
  port : int;  (** [0] picks an ephemeral port; see [on_listen] *)
  backlog : int;
  max_queue : int;  (** admission bound: beyond this, [overloaded] *)
  flat_queue : int;  (** at this depth, serve flat line diffs only *)
  retry_after_ms : float;  (** hint carried by [overloaded] answers *)
  default_deadline_ms : float;  (** per-request allowance when unspecified *)
  max_deadline_ms : float;  (** server-enforced cap on requested deadlines *)
  cache_entries : int;  (** LRU result-cache capacity; [0] disables *)
  allow_crash : bool;  (** enable the debug [crash] verb *)
  max_pending_out : int;
      (** per-connection cap (bytes) on buffered unread answers; a client
          that pipelines requests but never reads responses is dropped
          when its output backlog exceeds this *)
}

val default_config : config

val run :
  ?config:config ->
  ?faults:Treediff_util.Fault.t ->
  ?on_listen:(int -> unit) ->
  unit ->
  unit
(** Bind, listen, serve until drained by SIGINT/SIGTERM or a [shutdown]
    request.  [on_listen] receives the actual bound port once listening
    (useful with [port = 0]).  [faults] defaults to a registry armed from
    [TREEDIFF_FAULT]. *)

val serve_stdio :
  ?config:config ->
  ?faults:Treediff_util.Fault.t ->
  in_channel ->
  out_channel ->
  unit
(** Serve frames from [ic] to [oc] sequentially (queue depth is always 0,
    so pressure never degrades) until EOF or a [shutdown] request.  Used by
    the tests and for driving the daemon over pipes. *)
