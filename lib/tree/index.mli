(** Dense per-tree index: the array substrate the hot paths run on.

    One build walks the tree once and lays every derived fact out in arrays
    keyed by {e preorder rank} (0-based, root = 0): entry/exit preorder
    intervals, postorder numbers, parent and child-position links, subtree
    leaf counts, depth/height, interned label ids, the leaf sequence, and
    per-label node chains (leaves, internals, and all nodes — each in
    preorder).  Node identifiers map to ranks through a direct [id -> rank]
    array while the ids are dense (below four times the node count, as the
    ids one {!Tree.gen} hands a pair are), and through an {!Id_table}
    otherwise, so the index's memory follows the node count, never the
    largest id.

    {!dense_enough} is that rule; [Treediff_matching.Matching] bounds its
    arrays by it too.

    Invariants (checked by [test_index.ml]):
    - preorder intervals nest: for a child [c] of [r],
      [r < c] and [last c <= last r]; sibling intervals are disjoint;
    - [leaf_count r] equals the sum over children, and the subtree's leaves
      occupy the contiguous leaf-order slice
      [first_leaf r .. first_leaf r + leaf_count r - 1];
    - label chains are sorted by preorder rank.

    The index is a snapshot: it must be rebuilt if the tree is mutated.
    Label ids come from the {!Interner}; build the two indexes of a tree
    pair with a shared interner so label ids agree across both. *)

module Interner : sig
  (** String-label interning, shared across the indexes of a tree pair. *)

  type t

  val create : unit -> t

  val intern : t -> string -> int
  (** Id of the label, allocating a fresh dense id on first sight. *)

  val find : t -> string -> int option
  (** Id of the label if already interned. *)

  val count : t -> int

  val name : t -> int -> string
end

val dense_enough : max_id:int -> size:int -> bool
(** [max_id < 4 * (size + 16)]: a direct array over ids [0 .. max_id]
    costs at most a few words per entry when [size] entries fill it. *)

type t

val build : ?interner:Interner.t -> ?values:Interner.t -> Node.t -> t
(** Index the subtree under the given root.  Node ids must be unique and
    non-negative ({!Invariant.check} validates this elsewhere).
    Node values are interned too (in [values]) so that value equality across
    a pair is integer equality — the compare-memo substrate.
    @raise Invalid_argument on a negative id. *)

val pair : ?interner:Interner.t -> t1:Node.t -> t2:Node.t -> unit -> t * t
(** Both indexes of a pair, built over shared label and value interners. *)

val size : t -> int

val root : t -> Node.t

val interner : t -> Interner.t

val node : t -> int -> Node.t
(** Node at a preorder rank. *)

val rank_of_id : t -> int -> int
(** Preorder rank of a node id, [-1] when the id is not in this tree. *)

val mem_id : t -> int -> bool

val max_id : t -> int
(** Largest node id in the tree ([Tree.max_id] of the root, without a
    walk). *)

val node_of_id : t -> int -> Node.t option

val last : t -> int -> int
(** Largest preorder rank inside the subtree at a rank; the subtree is
    exactly the rank interval [[r, last r]]. *)

val postorder_rank : t -> int -> int

val parent_rank : t -> int -> int
(** [-1] for the root. *)

val child_pos : t -> int -> int
(** Position among the parent's children; [0] for the root. *)

val leaf_count : t -> int -> int
(** The paper's [|x|], by rank. *)

val first_leaf : t -> int -> int
(** Leaf-order index of the subtree's leftmost leaf. *)

val depth : t -> int -> int

val height : t -> int -> int

val label_id : t -> int -> int

val label_name : t -> int -> string

val value_id : t -> int -> int
(** Interned id of the node's value as snapshotted at build time; shared
    with the pair's other index, so equal ids ⇔ equal value strings. *)

val value_interner : t -> Interner.t

val contains : t -> int -> int -> bool
(** [contains t a d]: rank [d] lies in the subtree at rank [a]
    (reflexive — an O(1) interval test). *)

val contains_id : t -> ancestor:int -> descendant:int -> bool
(** Same test on node ids; false when either id is out of index. *)

val is_leaf_rank : t -> int -> bool

val leaves : t -> int array
(** Ranks of all leaves in left-to-right order.  Do not mutate. *)

val leaf_at : t -> int -> int
(** Rank of the i-th leaf. *)

val find_label : t -> string -> int option
(** Interned id of a label name, if the pair has seen it. *)

val leaf_chain : t -> int -> int array
(** The paper's [chain_T(l)] restricted to leaves: preorder-sorted ranks.
    Empty for unknown label ids.  Do not mutate. *)

val internal_chain : t -> int -> int array
(** Internal-node chain of a label.  Do not mutate. *)

val chain : t -> int -> int array
(** All nodes of a label, preorder-sorted.  Do not mutate. *)
