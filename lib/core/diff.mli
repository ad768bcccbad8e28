(** The end-to-end change-detection pipeline of §3: good matching, then
    minimum conforming edit script, then delta tree.

    {[
      let result = Diff.diff old_tree new_tree in
      Format.printf "%a@." Treediff_edit.Script.pp result.script;
      print_string (Delta.to_string result.delta)
    ]}

    Input trees are never mutated.  Node identifiers must be unique across
    the two trees (build both from one {!Treediff_tree.Tree.gen}). *)

type rung = Windowed | Keyed | Rebuild
(** Rungs of the degradation ladder, cheapest last:
    {ul
    {- [Windowed] — FastMatch with a tight straggler window ([A(k) = 4]) and
       no §8 post-processing pass;}
    {- [Keyed] — leaf-value keyed matching ({!Treediff_matching.Keyed}): no
       pairwise comparisons at all, so comparison caps cannot trip it;}
    {- [Rebuild] — the empty matching: delete [T1], insert [T2].  Linear and
       unbudgeted, so it terminates under any deadline.}} *)

val rung_name : rung -> string
(** ["windowed"], ["keyed"] or ["rebuild"]. *)

type t = {
  matching : Treediff_matching.Matching.t;
      (** the good matching found (before edit-script extension) *)
  total : Treediff_matching.Matching.t;
      (** the total matching M' the script conforms to *)
  script : Treediff_edit.Script.t;
  delta : Delta.t;
  dummy : (int * int) option;
      (** dummy-root ids when the roots were unmatched; see {!apply} *)
  measure : Treediff_edit.Script.measure;
      (** cost / weighted distance / op counts under the config's cost model *)
  stats : Treediff_util.Stats.t;  (** matching comparison counters (§8) *)
  postprocess_fixes : int;  (** pairs repaired by the §8 pass (0 if disabled) *)
  degraded : rung option;
      (** [None] for a full-quality result; [Some r] when {!diff_result} fell
          back to ladder rung [r] *)
}

type failure_cause =
  | Budget_exhausted of Treediff_util.Budget.exhausted
      (** the primary attempt ran out of budget (and so did every rung) *)
  | Diagnostics of Treediff_check.Diag.t list
      (** the primary attempt produced error-severity findings *)
  | Fault of string  (** an injected fault point fired (argument: its name) *)
  | Exception of string  (** any other exception, printed *)

type failure = {
  cause : failure_cause;  (** why the {e primary} attempt failed *)
  attempts : (string * string) list;
      (** what was tried and how each attempt failed, in order:
          [("primary" | "windowed" | "keyed" | "rebuild",
          reason)] *)
  flat : Treediff_textdiff.Line_diff.hunk list;
      (** last-resort flat line diff of the two trees' outlines — always
          available, computed without budgets or tree matching *)
}

val diff :
  ?config:Config.t ->
  ?exec:Treediff_util.Exec.t ->
  Treediff_tree.Node.t ->
  Treediff_tree.Node.t ->
  t
(** [diff t1 t2] detects changes from old tree [t1] to new tree [t2].
    All per-run mutable state — budget, stats, fault registry, memo
    caches — lives in [exec] (default: a fresh [Exec.create ()], i.e.
    unlimited budget, faults armed from [TREEDIFF_FAULT]).  The exec's
    budget bounds the run: input caps are checked up front, comparison and
    clock checks ride the hot loops.  Concurrent diffs must use distinct
    execs; nothing ambient is written.
    @raise Treediff_util.Budget.Exceeded when a limit trips — use
    {!diff_result} to degrade instead of fail. *)

val diff_with_matching :
  ?config:Config.t ->
  ?exec:Treediff_util.Exec.t ->
  matching:Treediff_matching.Matching.t ->
  Treediff_tree.Node.t ->
  Treediff_tree.Node.t ->
  t
(** Skip the matching phase — for keyed data or externally computed
    matchings (e.g. Zhang–Shasha mappings). *)

val diff_result :
  ?config:Config.t ->
  ?exec:Treediff_util.Exec.t ->
  Treediff_tree.Node.t ->
  Treediff_tree.Node.t ->
  (t, failure) result
(** Resilient front door: run {!diff} under [exec]; on {e any} exception
    (budget exhaustion, injected fault, internal diagnostic — everything
    except [Out_of_memory], which is re-raised) descend the degradation
    ladder [Windowed → Keyed → Rebuild], each rung in a respawned context
    (fresh stats, the same fault registry so fired faults stay sticky, and
    the budget re-armed: each budgeted rung gets the full deadline anew).
    A descent can therefore take up to 3× the deadline — the primary
    attempt, [Windowed] and [Keyed] — plus the unbudgeted [Rebuild] and the
    re-verification of each rung's output.
    Every rung's output is re-verified with the static checker; a rung whose
    result carries error-severity findings is discarded and the descent
    continues, so a degraded result is never wrong-but-silent.  [Ok r] with
    [r.degraded = Some rung] reports which rung produced the result; if even
    [Rebuild] fails, [Error] carries the primary failure's cause, the
    per-attempt failure log, and a flat line diff as a last resort. *)

val apply : t -> Treediff_tree.Node.t -> Treediff_tree.Node.t
(** [apply result t1] replays the script on a copy of [t1] under the dummy
    root, if any, and returns a tree isomorphic to the new tree.
    @raise Treediff_edit.Script.Apply_error if [t1] is not the tree the
    result was computed from. *)

val verify :
  ?config:Config.t ->
  ?audit_data:bool ->
  t ->
  t1:Treediff_tree.Node.t ->
  t2:Treediff_tree.Node.t ->
  Treediff_check.Diag.t list
(** Run the {!Treediff_check} static verifier — script lint, matching
    analysis, conformance audit — on a result, resolving the dummy-root
    convention.  Returns all findings; error-severity findings mean the
    result is invalid.  [audit_data] adds the whole-input data audits
    (Criterion 3 ambiguity, label-schema cycles).  When [config.check] is
    set (or [TREEDIFF_CHECK] is in the environment), {!diff} runs this
    automatically and raises {!Treediff_check.Diag.Failed} on errors. *)

val check : t -> t1:Treediff_tree.Node.t -> t2:Treediff_tree.Node.t -> (unit, string) result
(** Verify the §3 contract on a result: replaying the script transforms [t1]
    into a tree isomorphic to [t2], and the script conforms to the matching
    (no matched node is inserted or deleted).  Used by tests and by the
    [--check] flag of the CLI. *)
