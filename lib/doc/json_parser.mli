(** JSON front end — the semistructured-data direction of §9 on modern
    wire data (compare the OEM mapping used by {!Xml_parser}).  The
    characters are read by the repository's one JSON codec,
    {!Treediff_util.Json}; this module is only the mapping and the
    indented printer.

    Mapping to the label-value tree model:
    - an object becomes an [obj] node whose children are [member] nodes,
      one per key in source order; a [member] carries its key as the node
      value and its value tree as its single child;
    - an array becomes an [arr] node over its element trees;
    - scalars become leaves: [str] (decoded text), [num] (the literal
      spelled exactly as in the source, so [1.50] round-trips), [bool]
      ([true]/[false]) and [null] (empty value).

    Like XML vocabularies, the [obj] > [member] > [obj] nesting violates
    the acyclic-labels condition (§5.1); the pipeline stays correct on such
    data but may report matches between mutually nested labels as
    delete+insert. *)

val parse_result :
  ?lenient:bool ->
  Treediff_tree.Tree.gen ->
  string ->
  (Treediff_tree.Node.t * string list, string) result
(** Read the source with {!Treediff_util.Json.parse_result} and map the
    value onto the tree shape above.  [lenient] (default [false]) selects
    the codec's recovery mode; each recovery comes back as a warning
    string alongside the tree.  Strict mode returns [Error message] on
    anything outside RFC 8259. *)

val print : Treediff_tree.Node.t -> string
(** Serialize a tree built by {!parse_result} (or hand-built in the same shape)
    back to indented JSON.  [parse_result] ∘ [print] is the identity up to node
    identifiers.
    @raise Invalid_argument on labels outside the JSON shape. *)
