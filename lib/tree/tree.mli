(** Whole-tree utilities: construction, copying, indexing.

    A tree is represented by its root {!Node.t}; this module adds the
    operations that concern the tree as a value rather than a single node. *)

type gen
(** Identifier generator.  Every tree built for one comparison should draw
    from one generator so identifiers are unique across both trees. *)

val gen : ?start:int -> unit -> gen

val fresh_id : gen -> int

val node : gen -> string -> ?value:string -> Node.t list -> Node.t
(** [node g label ~value children] builds a node with fresh id and attaches
    [children] in order — a compact construction DSL for tests and parsers. *)

val leaf : gen -> string -> string -> Node.t
(** [leaf g label value] is [node g label ~value []]. *)

val copy : Node.t -> Node.t
(** Deep structural copy preserving identifiers, labels and values.  The copy
    shares nothing mutable with the original, so it can be used as the
    edit-script generator's working tree. *)

val max_id : Node.t -> int

val size : Node.t -> int

val find_by_id : Node.t -> int -> Node.t option

val relabel_ids : gen -> Node.t -> Node.t
(** Copy of the tree with all-new identifiers drawn from [gen] — used to
    simulate a "new version" whose identifiers are unrelated to the old
    version's (the keyless-data scenario of §5). *)
