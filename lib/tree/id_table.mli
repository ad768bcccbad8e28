(** Node identifier → node table, the one id index of the library.

    Open addressing over int keys: its memory grows with the number of ids
    it holds, never with the largest id, so ids may be sparse, huge (an
    id-preserving binary file carries any varint) or negative.  Lookups
    allocate nothing.

    Every id gets a dense {e entry number} the first time it is added:
    [0], [1], … in order of addition.  Replacing a present id keeps its
    number; a removed id's number is not reused, and re-adding the id
    gives it a fresh one.  Callers that keep a flag or a count per node
    index a flat array by entry number instead of hashing the id again
    ({!entries} bounds the numbers handed out so far). *)

type t

val create : ?size:int -> unit -> t
(** An empty table with room for about [size] ids before it grows
    (default 16). *)

val of_tree : ?size:int -> Node.t -> t
(** Every node of the subtree, added in preorder: a node's entry number is
    its preorder rank when the ids are distinct.  [size] (default: the
    subtree's node count) is passed to {!create}. *)

val replace : t -> int -> Node.t -> unit
(** Bind the id to the node, adding the id if it is absent. *)

val remove : t -> int -> unit
(** Unbind the id; no-op when absent. *)

val mem : t -> int -> bool

val find : t -> int -> Node.t
(** @raise Not_found when the id is absent. *)

val find_opt : t -> int -> Node.t option

val entry : t -> int -> int
(** Entry number of a present id, [-1] when absent. *)

val entries : t -> int
(** Entry numbers handed out so far: every {!entry} is below it. *)

val length : t -> int
(** Ids present. *)
