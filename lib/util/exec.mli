(** Re-entrant execution contexts.

    An [Exec.t] bundles every piece of per-run mutable state the pipeline
    needs — resource {!Budget}, comparison {!Stats}, fault registry, a
    deterministic PRNG, and a heterogeneous slot table for per-run memo
    caches — so that nothing ambient (module-level) is written during a
    diff.  Two diffs running in different domains with different contexts
    never share mutable state; that is the invariant the parallel
    {!Pool}/Batch engine relies on.

    Domain-safety rule: an [Exec.t] is single-owner.  Create one per task
    (or hand each task its own via [Batch.run ~execs]) and never touch the
    same context from two domains at once.  Everything reachable from a
    context is unsynchronised mutable state on purpose — the engine gets
    its parallelism from {e sharding} contexts, not from locking them. *)

module Key : sig
  type 'a t
  (** A typed key naming one slot in a context's memo table.  Create keys at
      module initialisation time ([let k = Exec.Key.create "my.cache"]);
      keys are immutable and freely shared across domains. *)

  val create : string -> 'a t
  (** [create name] is a fresh key; [name] is for diagnostics only and need
      not be unique. *)

  val name : 'a t -> string
end

type t

val create :
  ?budget:Budget.t ->
  ?stats:Stats.t ->
  ?faults:Fault.t ->
  ?seed:int ->
  unit ->
  t
(** Fresh context.  [budget] defaults to {!Budget.unlimited}, [stats] to
    fresh counters, [faults] to [Fault.create ()] (armed from
    [TREEDIFF_FAULT] with zeroed hit counters), [seed] to a fixed default
    so runs are reproducible. *)

val limited :
  ?deadline_ms:float ->
  ?max_comparisons:int ->
  ?max_nodes:int ->
  ?max_depth:int ->
  unit ->
  t
(** Convenience: [create ~budget:(Budget.make …) ()]. *)

val budget : t -> Budget.t
val stats : t -> Stats.t
val faults : t -> Fault.t
val prng : t -> Prng.t

val fault : t -> string -> unit
(** [fault t name] is [Fault.point (faults t) name]. *)

val respawn : t -> t
(** A context for the next degradation-ladder rung: fresh stats, the budget
    {!Budget.rearm}ed (same limits, counters and deadline reset), but the
    {e same} fault registry, PRNG and memo slots.  Sharing the registry
    keeps fault hit counters sticky across rungs — a fired fault keeps
    firing in the fallback attempts, which is what the ladder tests want. *)

val find : t -> 'a Key.t -> 'a option
val set : t -> 'a Key.t -> 'a -> unit
val remove : t -> 'a Key.t -> unit
