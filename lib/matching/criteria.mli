(** The matching criteria of §5.1 and the node-equality functions of §5.2.

    - {b Criterion 1} (leaves): [(x,y)] may match only if labels agree and
      [compare (v x) (v y) <= f] for the parameter [0 <= f <= 1].
    - {b Criterion 2} (internal): labels agree and
      [|common(x,y)| / max(|x|,|y|) > t] for the parameter [1/2 <= t <= 1],
      where [common(x,y)] counts matched leaf pairs contained in [x] and [y].
    - {b Criterion 3} is a property of the data, not a parameter: each leaf
      has at most one close counterpart ([compare <= 1]) on the other side.
      {!mc3_violations} measures how badly a tree pair violates it.

    A {!ctx} builds, for a fixed (immutable) tree pair, the two dense
    {!Treediff_tree.Index} structures (shared label interner) that make the
    internal-node test cheap, and carries the instrumentation counters the
    §8 experiments report.  {!common} additionally memoizes, per T1 node,
    the sorted T2 preorder ranks of its leaves' partners — stamped with the
    {!Matching.version} — so repeated Criterion 2 tests against different
    candidates cost two binary searches instead of a subtree walk.

    Leaf values are interned by the pair's shared value interner, and a
    node's value id is looked up on its own side: [x] in T1's index, [y] in
    T2's, so trees whose node ids overlap are still told apart.  When the
    compare is {!Treediff_textdiff.Word_compare.distance} (recognised by
    physical equality; the compare the CLI, daemon, LaDiff and the
    benchmark pass), the context tokenizes each distinct value once, on
    first use, into a word-id array, and computes the distance on the
    arrays with {!Treediff_textdiff.Word_compare.distance_tokens}: the same
    result bit for bit, with equal value ids answering [0] at once.  Any
    other compare is called on the two strings for every test. *)

type t = {
  leaf_f : float;       (** parameter f of Matching Criterion 1 *)
  internal_t : float;   (** parameter t of Matching Criterion 2 *)
  compare : string -> string -> float;
  (** leaf-value distance in [\[0,2\]]; must be a pure function of its
      arguments *)
}

val default : t
(** [f = 0.5], [t = 0.6] (the threshold the paper's Table 1 calls low-risk),
    with the all-or-nothing compare. *)

val make : ?leaf_f:float -> ?internal_t:float ->
  ?compare:(string -> string -> float) -> unit -> t
(** @raise Invalid_argument if [leaf_f] is outside [\[0,1\]] or [internal_t]
    outside [\[1/2,1\]]. *)

type ctx

val ctx : ?exec:Treediff_util.Exec.t -> t ->
  t1:Treediff_tree.Node.t -> t2:Treediff_tree.Node.t -> ctx
(** Precompute over a tree pair.  The trees must not be mutated while the
    context is in use.  Stats, budget and fault registry come from [exec]
    (default: a fresh [Exec.create ()], i.e. unlimited budget and faults
    armed from the environment).  Every leaf compare and partner check
    charges one comparison against the exec's budget, so any matcher driven
    through this context is deadline- and cap-bounded.

    The pair's two indexes are also left in [exec]'s memo slots, where
    {!pair_indexes} finds them (EditScript reuses them instead of indexing
    the same trees again).  A later [ctx] on the same exec replaces them. *)

val exec : ctx -> Treediff_util.Exec.t

val stats : ctx -> Treediff_util.Stats.t

val budget : ctx -> Treediff_util.Budget.t

val fault : ctx -> string -> unit
(** Fire the named fault-injection point of the context's registry. *)

val criteria : ctx -> t

val t1_root : ctx -> Treediff_tree.Node.t

val t2_root : ctx -> Treediff_tree.Node.t

val index1 : ctx -> Treediff_tree.Index.t
(** The dense index of T1; label ids agree with {!index2} (shared
    interner). *)

val index2 : ctx -> Treediff_tree.Index.t

val pair_indexes : Treediff_util.Exec.t -> t1:Treediff_tree.Node.t ->
  t2:Treediff_tree.Node.t -> (Treediff_tree.Index.t * Treediff_tree.Index.t) option
(** The indexes the last {!ctx} built on this exec, when their roots are
    physically [t1] and [t2]; [None] when no ctx ran on the exec or it
    indexed a different pair.  The trees must not have been mutated since
    that ctx was built. *)

val equal_leaf : ctx -> Treediff_tree.Node.t -> Treediff_tree.Node.t -> bool
(** Criterion 1 test on a T1 leaf [x] and a T2 leaf [y]; counts one
    leaf-compare (and one budget tick) when labels agree, and then runs the
    compare: on prepared token arrays for the word-LCS compare (see above),
    on the value strings otherwise. *)

val common : ctx -> Matching.t -> Treediff_tree.Node.t -> Treediff_tree.Node.t -> int
(** [common ctx m x y] is [|common(x,y)|] under the current matching [m]:
    the number of pairs [(w,z) ∈ m] with [w] a leaf of [x] and [z] a leaf of
    [y].  Counts one partner check per leaf of [x]. *)

val equal_internal : ctx -> Matching.t -> Treediff_tree.Node.t -> Treediff_tree.Node.t -> bool
(** Criterion 2 test under the current matching. *)

val equal_nodes : ctx -> Matching.t -> Treediff_tree.Node.t -> Treediff_tree.Node.t -> bool
(** Dispatch: both leaves → {!equal_leaf}; both internal → {!equal_internal};
    mixed → false. *)

val leaf_count : ctx -> Treediff_tree.Node.t -> int
(** Cached [|x|] of a node of either tree. *)

val mc3_violating_leaves : ctx -> old_side:bool -> Treediff_tree.Node.t list
(** Leaves of the given side with ≥ 2 close counterparts ([compare <= 1])
    on the other side — the leaves violating Matching Criterion 3.  The scan
    buckets the other side by label and dedupes values by interned id, so
    [compare] runs once per distinct same-label value pair rather than the
    naive O(n₁·n₂) times.  Used by the Table 1 experiment, not by
    matching. *)

val mc3_violations : ctx -> int
(** Total violating leaves across both sides. *)
