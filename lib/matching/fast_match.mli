(** Algorithm FastMatch (§5.3, Fig. 11): the chain-and-LCS matcher,
    O((ne + e²)c + 2lne) where e is the weighted edit distance.

    For each label, bottom-up, the in-order chains of same-label nodes from
    both trees are first aligned with Myers' LCS (equality per §5.2) — which
    matches everything that kept its relative order almost for free — and the
    leftovers are then paired by the Algorithm-Match scan.  On nearly-equal
    trees (the common case for versioned data) almost all pairs come from the
    LCS pass.

    {b A(k): the optimality/efficiency knob.}  §9 sketches a parameterized
    algorithm A(k) trading optimality for speed.  [?window] realises it for
    the straggler scan: an unmatched node at chain position i only examines
    other-chain candidates within k positions of i, so far-moved content may
    be missed (reported as delete+insert — correct, dearer) while the scan
    cost drops from O(d²) to O(d·k).  [window = Some 0] is pure-LCS matching
    (fastest); [None] (default) is the full scan — the paper's FastMatch. *)

val run : ?init:Matching.t -> ?window:int -> Criteria.ctx -> Matching.t
(** [run ctx] matches the context's tree pair; [init] seeds the matching as
    in {!Simple_match.run} and [window] bounds the straggler scan.
    Comparison counts accumulate in the context's
    {!Treediff_util.Stats.t}. *)

val match_label :
  Criteria.ctx -> Matching.t -> ?window:int -> string -> leaf:bool -> unit
(** One label's chain-LCS-then-scan pass, mutating the matching in place —
    the unit {!run} iterates.  Exposed for the phase profiler and tests. *)

val chain : Treediff_tree.Node.t -> string -> leaf:bool -> Treediff_tree.Node.t list
(** [chain t l ~leaf] is the paper's [chain_T(l)]: nodes of [t] with label
    [l] in left-to-right (preorder) order, restricted to leaves or internal
    nodes according to [leaf].  Exposed for tests. *)
