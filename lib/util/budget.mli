(** Resource budgets for the diff pipeline.

    A [Budget.t] carries the caller's limits — a deadline on the monotonic
    {!Clock}, a cap on matcher comparisons, and pre-flight caps on input
    size and depth — plus the counters charged against them.  The matchers and the script
    generator call {!tick}/{!visit} at their hot-loop boundaries; when a
    limit trips, the structured {!Exceeded} exception reports which phase
    was running and how much work had been done, and {!Diff.diff_result}
    catches it to descend the degradation ladder.

    The fast paths cost one increment, one integer compare and a mask test;
    the deadline clock is read once per 256 events. *)

type reason = Deadline | Comparisons | Nodes | Depth

val reason_name : reason -> string

type exhausted = {
  phase : string;       (** pipeline phase that was running, see {!set_phase} *)
  reason : reason;
  comparisons : int;    (** comparison count when the limit tripped *)
  visits : int;         (** node-visit count when the limit tripped *)
  elapsed_ms : float;
}

exception Exceeded of exhausted

val describe : exhausted -> string
(** One-line human-readable account. *)

type t

val make :
  ?deadline_ms:float ->
  ?max_comparisons:int ->
  ?max_nodes:int ->
  ?max_depth:int ->
  unit ->
  t
(** Omitted limits are unlimited.  The deadline clock starts at [make]. *)

val unlimited : unit -> t
(** A budget with no limits; all checks are cheap no-ops. *)

val is_limited : t -> bool

val rearm : t -> t
(** A fresh budget with the same limits: counters reset, deadline restarted
    from now.  Each ladder rung runs under a rearmed budget so a slow primary
    attempt does not starve the cheaper fallbacks. *)

val phase : t -> string

val set_phase : t -> string -> unit
(** Label the pipeline phase ("fast_match", "edit_gen", …) that subsequent
    charges belong to; reported in {!exhausted}. *)

val comparisons : t -> int

val visits : t -> int

val tick : t -> unit
(** Charge one comparison.  @raise Exceeded on cap or deadline. *)

val visit : t -> unit
(** Charge one node visit (deadline only — visits have no cap so the linear
    fallback rungs cannot trip it).  @raise Exceeded on deadline. *)

val visit_n : t -> int -> unit
(** Charge [n] visits and read the clock immediately (for inner loops that
    batch their charges, e.g. one Zhang–Shasha forest-distance row). *)

val admit : t -> nodes:int -> depth:int -> unit
(** Pre-flight check of the input-size caps.  @raise Exceeded. *)

val poll : t -> unit
(** Read the deadline clock now.  @raise Exceeded. *)

val remaining_ms : t -> float
(** Milliseconds left before this budget's deadline: [infinity] when no
    deadline was set, clamped at [0.] once it has passed.  Never raises.
    This is the residual allowance a caller should propagate into nested
    work that runs under its own budget — e.g. the serve layer hands
    [remaining_ms] of the per-request budget to a nested store
    materialize/commit instead of re-deriving the deadline from its own
    clock (which would silently re-grant time already spent). *)

val exceeded : t -> reason -> 'a
(** Raise {!Exceeded} for this budget's current phase and counters. *)
