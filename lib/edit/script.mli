(** Edit scripts: sequences of edit operations, their application to trees,
    and their cost and weighted-distance measures.

    Application validates every precondition of §3.2 — inserts and deletes
    touch leaves only, positions are in range, moves never take a node into
    its own subtree — and raises {!Apply_error} on violation, so a
    malformed script can never silently corrupt a tree. *)

type t = Op.t list

exception Apply_error of string

(** Aggregate measurements of a script against the tree it applies to. *)
type measure = {
  cost : float;        (** §3.2 script cost under the given model *)
  weighted : int;      (** §5.3 weighted edit distance e: 1 per ins/del, [|x|] per move, 0 per update *)
  inserts : int;
  deletes : int;
  updates : int;
  moves : int;
}

val unweighted : measure -> int
(** The paper's d: total number of operations. *)

val apply_into :
  root:Treediff_tree.Node.t -> index:Treediff_tree.Id_table.t -> Op.t -> unit
(** Apply one operation in place, maintaining [index].
    @raise Apply_error if a precondition fails. *)

(** {1 The dummy root}

    When the roots go unmatched, §4.1 grafts both trees under fresh roots
    labelled [@@root] and writes the script against the dummy-rooted [T1].
    Its root id [d1] travels with the script ([dummy] below): in a diff
    result, a {!Script_io} [ROOT(d1)] line, or a store record. *)

val rooted : ?dummy:int -> Treediff_tree.Node.t -> Treediff_tree.Node.t
(** The tree a script is written against: [t] itself, or with [dummy] a
    copy of [t] grafted under it.  [t] is not modified.
    @raise Apply_error if [dummy] is the id of a node of [t]. *)

val unwrap : Treediff_tree.Node.t -> Treediff_tree.Node.t
(** Detach and return the one child of a dummy root.
    @raise Apply_error if it does not have exactly one. *)

val replay : ?dummy:int -> Treediff_tree.Node.t -> t -> Treediff_tree.Node.t
(** Apply the script {e in place} to [t] (consumed), grafted under [dummy]
    first and unwrapped after when given; returns the transformed root.
    @raise Apply_error if any operation is invalid, or as {!rooted}. *)

val apply : ?dummy:int -> Treediff_tree.Node.t -> t -> Treediff_tree.Node.t
(** {!replay} on a deep copy of [t1]; [t1] is not modified.
    @raise Apply_error if any operation is invalid. *)

val invert : Treediff_tree.Node.t -> t -> t
(** [invert t1 script] is the inverse script: applying it to [apply t1
    script] restores [t1] exactly — labels, values, positions {e and}
    identifiers — so a version store can walk backward from a checkpoint.
    Computed by replaying [script] on a working copy and recording each
    operation's inverse against the pre-operation state.
    @raise Apply_error if [script] is not valid on [t1]. *)

val compose : t -> t -> t
(** [compose s1 s2] fuses two adjacent scripts over one identifier space
    ([s1] carrying a tree [t] to [apply t s1], [s2] carrying that result
    further) into a single script with
    [apply t (compose s1 s2) ≡ apply (apply t s1) s2].  Inserted ids in
    [s2] that collide with ids [s1] created or destroyed are remapped to
    fresh ones so the composition stays lint-clean, and value-carrying
    operations are fused (an update overwritten by a later update is
    dropped; an update of a freshly inserted node folds into the insert).
    Structural operations are never elided: positions are interpreted
    against the tree state at application time, so cancelling them is not
    semantics-preserving in general. *)

val zero : measure
(** The measure of the empty script. *)

val charge :
  Cost.t -> index:Treediff_tree.Id_table.t -> measure -> Op.t -> measure
(** [charge model ~index m op] is [m] plus [op], measured against the tree
    [index] holds {e before} [op] is applied (the old value of an update,
    the subtree leaf count of a move) — the step {!measure} takes per
    operation, for a caller that applies the script itself with
    {!apply_into}.  The model is not {!Cost.check}ed.
    @raise Apply_error if an update or move names an absent id. *)

val measure : ?model:Cost.t -> Treediff_tree.Node.t -> t -> measure
(** [measure t1 script] applies the script to a copy of [t1] (to observe old
    values for update costs and subtree leaf counts for move weights) and
    returns its measurements.  Default model: {!Cost.unit}.
    @raise Apply_error if any operation is invalid. *)

val cost : ?model:Cost.t -> Treediff_tree.Node.t -> t -> float

val pp : Format.formatter -> t -> unit

val to_string : t -> string
