(** Algorithm EditScript (§4, Figs. 8–9): generate a minimum-cost edit script
    conforming to a given matching.

    The five conceptual phases — update, align, insert, move, delete — run as
    one breadth-first scan of the new tree followed by a post-order scan of
    the old tree, exactly as in Fig. 8.  Operations are applied to a private
    working copy of [T1] as they are emitted; the caller's trees are never
    mutated.  On termination the working copy is isomorphic to [T2]
    (Theorem C.2) and the matching has been extended to a total one.

    {b Deviation from Fig. 9 ([FindPos]).}  The paper counts only "in order"
    children when computing a destination index, yet insert/move positions
    index the full child list; we return the full-list position immediately
    after the working-tree partner of the rightmost in-order left sibling
    (excluding the node being moved), which keeps the working tree consistent
    under detach-then-insert semantics.  See DESIGN.md §4.2.

    {b Dummy roots.}  When the roots are unmatched the algorithm (per §4.1)
    grafts both trees under fresh dummy roots ({!Treediff_edit.Script.rooted})
    and matches those; the resulting script is then expressed relative to
    the dummy-rooted [T1].  The result records the dummy pair so callers
    can replay the script (see {!Treediff_edit.Script.apply}). *)

type result = {
  script : Treediff_edit.Script.t;
  total : Treediff_matching.Matching.t;
      (** total matching: working-tree ids (T1 ids plus fresh inserted ids)
          to T2 ids; includes the dummy pair when present *)
  transformed : Treediff_tree.Node.t;
      (** the transformed working tree — isomorphic to [t2]
          (dummy-rooted when [dummy] is set) *)
  dummy : (int * int) option;
      (** [(d1, d2)] fresh dummy-root ids for T1 and T2 when roots were
          unmatched; the script's top-level inserts reference [d1] *)
  measure : Treediff_edit.Script.measure;
      (** the script's measure under [model], taken op by op as the
          script is generated: equal, field for field, to
          {!Treediff_edit.Script.measure} of the script on [t1]
          (dummy-rooted when [dummy] is set) *)
}

val generate :
  ?exec:Treediff_util.Exec.t ->
  ?model:Treediff_edit.Cost.t ->
  matching:Treediff_matching.Matching.t ->
  Treediff_tree.Node.t ->
  Treediff_tree.Node.t ->
  result
(** [generate ~matching t1 t2].  [matching] must be one-to-one between node
    ids of [t1] and [t2] (it is not mutated).  [exec] (default: a fresh
    context — unlimited budget, faults armed from the environment) supplies
    the budget, charged one visit per BFS step and per delete-phase node, so
    a wall-clock deadline also bounds script generation.  [model]
    (default {!Treediff_edit.Cost.unit}) prices the [measure].

    {b Index reuse.}  When a {!Treediff_matching.Criteria.ctx} was built on
    [exec] for these very trees (its indexes' roots are physically [t1] and
    [t2]; see {!Treediff_matching.Criteria.pair_indexes}), generation reuses
    that ctx's two indexes, to validate the matching and, when no dummy root
    is added, as the T2 index.  Otherwise it indexes [t1] and [t2] itself.
    The script is the same either way.
    @raise Invalid_argument if [model] fails {!Treediff_edit.Cost.check}.
    @raise Treediff_check.Diag.Failed if [matching] references unknown ids or
    matches nodes with different labels (updates cannot change labels).
    @raise Treediff_util.Budget.Exceeded on deadline expiry. *)
