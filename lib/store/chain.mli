(** Per-document delta-chain logic for the corpus store ({!Shard}).

    A chain is the in-memory image of one document's history: a base
    {!Snapshot} followed by {!Delta} records (forward + inverse scripts) with
    periodic full-snapshot {!Checkpoint}s.  This module owns everything that
    is {e per document} and knows nothing about files: record payload
    encode/parse, replay planning and materialization, the checkpoint
    policy, the commit computation (diff → verify → invert → encode), range
    composition and history pruning.  {!Shard} multiplexes many chains into
    hash-bucketed shard files behind a write-ahead manifest. *)

type kind = Snapshot | Delta | Checkpoint

val kind_name : kind -> string

type entry = {
  version : int;
  kind : kind;
  ops : int;  (** forward-script length; [0] for the base snapshot *)
  bytes : int;  (** record payload size on disk *)
  hash : int64;  (** {!Treediff_tree.Iso.hash} of this version's tree *)
  next_id : int;  (** id-generator floor after this version *)
}

(** One fully decoded record.  [snap] stays in its binary form until a
    materialization actually needs it; [raw] is kept verbatim so gc and the
    shard writers can re-append it byte-identically. *)
type parsed = {
  meta : entry;
  dummy : int option;
  fwd : Treediff_edit.Script.t;
  inv : Treediff_edit.Script.t;
  snap : string option;
  raw : Container.record;
}

val tag_snapshot : char
(** The tag of version 0 and of a base {!rebase} forged: the only records a
    chain may start with. *)

val known_tag : char -> bool

val parse_record : Container.record -> (parsed, string) result

val validate : parsed list -> (parsed array, string) result
(** Check that records in file order form a contiguous version chain whose
    first record carries a snapshot. *)

val base_version : parsed array -> int
(** Oldest stored version ([0] unless {!rebase} pruned history). *)

val find : parsed array -> int -> (parsed, string) result

val materialize :
  ?verify:bool ->
  exec:Treediff_util.Exec.t ->
  parsed array ->
  int ->
  (Treediff_tree.Node.t, string) result
(** Reconstruct a version: decode the nearest snapshot-bearing record (in
    either direction) and replay forward deltas or stored inverses toward
    the target, whichever is cheaper in total operations.  The exec's budget
    is charged one visit per replayed operation.  The returned tree is
    fresh — mutating it cannot corrupt the chain.
    @raise Treediff_util.Budget.Exceeded when the budget trips. *)

val rebase :
  exec:Treediff_util.Exec.t -> parsed array -> int -> (parsed array, string) result
(** [rebase ~exec entries p] prunes history below version [p]: a forged
    {!Snapshot} of [p] (materialized, with [p]'s hash and id floor) followed
    by the records above [p] unchanged, so version numbers survive.  The
    chain itself when [p] is already its base; an error when [p] is outside
    the stored versions.
    @raise Treediff_util.Budget.Exceeded when the budget trips. *)

(** {1 Commit computation} *)

type policy = { interval : int; max_replay_ops : int }
(** The checkpoint policy: a checkpoint every [interval] commits ([0]
    disables) or as soon as accumulated replay cost since the last one would
    exceed [max_replay_ops] operations ([0] disables). *)

(** The cursor a writer needs to extend a chain without holding the parsed
    records: the next version number, the persisted id-generator floor, and
    the commits/ops accumulated since the last snapshot-bearing record (the
    checkpoint policy inputs).  The sharded ingest path carries one [state]
    per in-flight document instead of a resident chain. *)
type state = {
  next_version : int;
  prev_next_id : int;
  since_commits : int;
  since_ops : int;
}

val empty_state : state
(** The state of a document with no versions: the next commit is the base
    snapshot. *)

val state_of_entries : parsed array -> state

val advance : state -> parsed -> state
(** The state after appending one more record. *)

val base_record :
  Treediff_tree.Node.t -> (parsed * Treediff_tree.Node.t, string) result
(** [base_record doc] computes version 0: relabel a copy of [doc] into a
    fresh id space (the whole chain's id space starts here) and encode it as
    the base snapshot.  Returns the record and the stored tree (the head the
    next commit diffs against). *)

val next_record :
  ?config:Treediff.Config.t ->
  exec:Treediff_util.Exec.t ->
  policy:policy ->
  state:state ->
  head:Treediff_tree.Node.t ->
  Treediff_tree.Node.t ->
  (parsed * Treediff_tree.Node.t, string) result
(** [next_record ~exec ~policy ~state ~head doc] computes the record
    committing [doc] after [head]: relabel into the chain's id space, diff
    against [head], statically re-verify the delta (refusing one that fails
    the checker), compute its inverse, and encode a delta — or, when the
    policy says so, a checkpoint.  Neither input tree is mutated; the
    returned tree is the new head.
    @raise Treediff_util.Budget.Exceeded when the budget trips. *)

val diff_between :
  exec:Treediff_util.Exec.t ->
  materialize:(int -> (Treediff_tree.Node.t, string) result) ->
  parsed array ->
  from_:int ->
  to_:int ->
  (Treediff_edit.Script.t, string) result
(** One composed script carrying [from_] to [to_] ({!Treediff_edit.Script.compose}
    over the stored chain — forward deltas when [from_ < to_], stored
    inverses when [from_ > to_]), applicable directly to the
    materialization of [from_].  [materialize] is how this chain
    reconstructs a version (budgets and caching are the caller's).

    Output contract, enforced by the interference analyzer
    ({!Treediff_check.Depgraph}) rather than assumed: the returned script
    is in canonical dependence order, §4 phase-ordered, and proved
    equivalent to the raw composition — a divergence (TD501) is returned
    as an [Error], never as a silently wrong script.  The analyzer first
    normalizes the composition (eliding churn that cancels across the
    range, then reordering canonically); when a genuine cross-step
    dependence pins a non-delete after a delete, the script is instead
    re-emitted by Algorithm EditScript under the identity matching on the
    chain's shared id space — same endpoints, and minimal — then
    canonically ordered.  A range crossing a dummy-rooted delta (roots
    unmatched at commit time) is refused with an explanatory error: that
    step is written against its own dummy root, its neighbours against the
    real root, so the steps share no tree to compose over. *)
