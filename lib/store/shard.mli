(** The archive: many documents' delta chains multiplexed into
    hash-bucketed {!Container} files behind a write-ahead {!Manifest}.  A
    one-document archive is simply a 1-shard corpus; the single-file
    archive of older releases is read only by {!migrate}.

    {b Layout.}  A corpus is a directory:

    {v
    corpus/
      MANIFEST          write-ahead manifest (see {!Manifest})
      shard-0000.tdst   ordinary TDST containers; record payload =
      shard-0001.tdst     string(doc) varint(seq) chain-record-payload
      ...
    v}

    A document lives entirely in the shard [fnv1a64(doc) mod shards]; the
    shard count is fixed at {!init} and recorded in the manifest header.
    Shard records reuse the {!Chain} tags and payloads, prefixed with the
    document name and the manifest sequence number of the commit that
    wrote them.  A document's records start at version 0, or — after a
    pruning {!gc} — at a forged {!Chain.Snapshot} base; its catalog count
    stays its next version number either way.

    {b Commit protocol (write-ahead).}  A commit appends [Begin seq] to the
    manifest, then the version records to the owning shards, then
    [End seq].  The commit is durable exactly when [End] lands: on reopen
    the manifest is replayed, torn tails are isolated per file by the
    container's checksum scan, and a [Begin] without its [End] marks an
    aborted commit whose shard records are {e logically invisible} — a
    record for version [v] of [doc] counts only if [v] is below the
    catalog's committed version count, and when aborted-then-retried
    commits leave duplicates for the same [(doc, v)], the last record in
    file order is the committed one (an aborted attempt always precedes
    its retry).  Aborted debris is physically reclaimed by {!gc}.  At most
    the in-flight commit is lost; no manual repair step exists or is
    needed.

    {b Concurrency.}  Multi-writer commits are serialized per shard:
    manifest appends run under the manifest lock, shard appends under that
    shard's lock ([store.shard_lock] fires just before acquisition), and
    catalog updates under the state lock — so concurrent {!commit}s to
    {e distinct documents} from domains holding their own [~exec] are
    safe.  Two writers must not commit to the same document concurrently.
    Readers take a shard lock briefly (never while holding the state
    lock) and are snapshot-isolated: {!snapshot} freezes the committed
    catalog at a manifest epoch, and later commits never change which
    record wins for any version a snapshot can see ({!gc} rewrites files,
    so it invalidates open snapshots — epoch-check before trusting one).

    {b Caching.}  Each shard has an in-memory record index: per document,
    the byte offset and length of the winning record for each version.
    The first use of a shard scans its file once to build the index; every
    append extends it and {!gc} rebuilds it from the records it keeps.  A
    chain load reads only that document's records by positioned reads,
    re-checking each record's checksum and its framed document and version
    against the index slot.  Loaded chains are cached per document with
    MRU eviction, so resident memory stays bounded at corpus scale (plus
    8 bytes per indexed version); {!ingest} keeps only catalog state and
    the index per finished document. *)

type entry = Chain.entry = {
  version : int;
  kind : Chain.kind;
  ops : int;
  bytes : int;
  hash : int64;
  next_id : int;
}

type t

val init :
  ?interval:int ->
  ?max_replay_ops:int ->
  ?exec:Treediff_util.Exec.t ->
  shards:int ->
  string ->
  (t, string) result
(** [init ~shards dir] creates [dir] (which must not already contain a
    corpus) with [shards] empty shard files and a fresh manifest.  The
    checkpoint policy applies to every document chain and is recorded in
    the manifest header: a checkpoint every [interval] commits (default 8,
    [0] disables) or as soon as the replay cost since the last one would
    exceed [max_replay_ops] operations (default 512, [0] disables). *)

val open_ : ?exec:Treediff_util.Exec.t -> string -> (t, string) result
(** Open an existing corpus: replay the manifest (isolating a torn manifest
    tail), rebuild the committed catalog, and report aborted commits via
    {!aborted_commits}.  Shard files are {e not} scanned here — each is
    scanned once on first use to build its record index, where a torn
    shard tail is isolated by the container scan and reclaimed by the next
    append.  O(manifest), not O(corpus).  A single-file archive from an
    older release is refused with an error naming [treediff store
    migrate]. *)

val is_corpus : string -> bool
(** [dir] exists and holds a [MANIFEST]. *)

val dir : t -> string

val shards : t -> int

val interval : t -> int

val max_replay_ops : t -> int

val exec : t -> Treediff_util.Exec.t

val epoch : t -> int
(** Bumped on every durable commit (and on {!gc}).  The version of the
    committed catalog a {!snapshot} freezes. *)

val shard_of : t -> string -> int
(** The shard bucket owning a document: [fnv1a64(doc) mod shards]. *)

val doc_count : t -> int

val total_versions : t -> int

val docs : t -> string list
(** Committed document names, sorted. *)

val aborted_commits : t -> int list
(** Sequence numbers whose [Begin] had no [End] when the corpus was
    opened — commits a crash cut short.  Their shard records are invisible
    and {!gc} reclaims the bytes. *)

val manifest_truncated : t -> bool
(** The manifest itself had a torn tail at open (isolated, not fatal). *)

val versions : t -> string -> int
(** Committed version count for a document; [0] if unknown. *)

val head_hash : t -> string -> int64 option

val log : t -> string -> (entry list, string) result
(** Oldest first, from the document's base; loads its chain. *)

val script_of :
  t -> doc:string -> int -> (int option * Treediff_edit.Script.t, string) result
(** The stored forward delta carrying version [v-1] of [doc] to [v] and its
    dummy root, if any (an error for a snapshot, which has no incoming
    delta). *)

val materialize :
  ?verify:bool ->
  ?exec:Treediff_util.Exec.t ->
  t ->
  doc:string ->
  int ->
  (Treediff_tree.Node.t, string) result
(** Reconstruct version [v] of [doc] through the per-document chain cache:
    decode the nearest snapshot-bearing record and replay toward [v],
    whichever direction is cheaper.  [verify] (default [false]) checks the
    result against the stored hash.  The exec's budget (default: the
    handle's) is charged one visit per replayed operation; the returned
    tree is fresh.  A version below a pruned base is an error.
    @raise Treediff_util.Budget.Exceeded when the budget trips. *)

val diff_between :
  ?exec:Treediff_util.Exec.t ->
  t ->
  doc:string ->
  from_:int ->
  to_:int ->
  (Treediff_edit.Script.t, string) result
(** One composed script carrying version [from_] of [doc] to [to_], with
    the output contract of {!Chain.diff_between}.  [exec] (default: the
    handle's context) carries the caller's budget through composition and
    any materialization it needs. *)

val commit :
  ?config:Treediff.Config.t ->
  ?exec:Treediff_util.Exec.t ->
  t ->
  doc:string ->
  Treediff_tree.Node.t ->
  (entry, string) result
(** Commit the next version of [doc] (creating its chain on first commit)
    under the write-ahead protocol.  On [Error], the manifest records an
    aborted sequence and no version became visible. *)

val commit_many :
  ?config:Treediff.Config.t ->
  ?exec:Treediff_util.Exec.t ->
  t ->
  (string * Treediff_tree.Node.t) list ->
  (entry list, string) result
(** Atomically commit one new version of several {e distinct} documents:
    every record is computed (and statically verified) before [Begin] is
    written, so a rejected delta aborts the whole batch with nothing on
    disk; after that, either the batch's [End] lands and all versions
    become visible together, or none do. *)

(** {1 Snapshot-isolated readers} *)

type snapshot
(** A frozen view of the committed catalog at one epoch.  Reads through a
    snapshot see exactly the versions committed when it was taken, even
    while writers advance.  Single-owner, like every handle.  {!gc}
    rewrites shard files and invalidates open snapshots. *)

val snapshot : t -> snapshot

val snapshot_epoch : snapshot -> int

val snapshot_docs : snapshot -> string list

val snapshot_versions : snapshot -> string -> int

val snapshot_materialize :
  ?verify:bool ->
  ?exec:Treediff_util.Exec.t ->
  snapshot ->
  doc:string ->
  int ->
  (Treediff_tree.Node.t, string) result

(** {1 Bulk ingest} *)

type source = {
  name : string;
  count : int;  (** number of versions the source provides *)
  load : int -> (Treediff_tree.Node.t, string) result;
      (** [load v] produces version [v], [0 <= v < count].  Called from
          pool domains — must be domain-safe for distinct sources. *)
}

type report = {
  docs_ingested : int;  (** documents that gained versions *)
  docs_skipped : int;  (** already held [count] versions (resume) *)
  docs_failed : (string * string) list;
      (** documents skipped whole with the first error (budget, load,
          rejected delta); the rest of the ingest proceeds *)
  versions_appended : int;
  chunks : int;  (** write-ahead commits issued *)
}

val ingest :
  ?config:Treediff.Config.t ->
  ?jobs:int ->
  ?pool:Treediff_util.Pool.t ->
  ?chunk_docs:int ->
  ?budget_ms:float ->
  ?on_chunk:(done_:int -> total:int -> unit) ->
  t ->
  source list ->
  (report, string) result
(** Bulk-load a corpus.  Sources are sorted by name and cut into chunks of
    [chunk_docs] (default 16); each chunk's records are computed in
    parallel on the pool (one fresh context per document, with a
    [budget_ms] wall-clock budget per document), then appended serially in
    sorted order under {e one} write-ahead commit per chunk.  The result
    is deterministic: corpus bytes are identical whatever [jobs] is, and a
    crash loses at most the in-flight chunk.  Re-running the same ingest
    resumes: complete documents are skipped, partial ones continue from
    their committed head.  A document whose budget trips or whose source
    fails is reported in [docs_failed] and skipped whole — ingest keeps
    going. *)

(** {1 Maintenance} *)

val gc :
  ?jobs:int ->
  ?pool:Treediff_util.Pool.t ->
  ?prune_before:string * int ->
  t ->
  (int * int, string) result
(** Compact every shard in parallel (atomic rewrite per shard), dropping
    orphan records of aborted commits and superseded duplicates, then
    checkpoint the manifest down to one catalog record.  With
    [prune_before:(doc, p)], instead rewrite only [doc]'s shard (compacted
    the same way) with [doc]'s history below [p] replaced by one forged
    snapshot of [p] ({!Chain.rebase}); version numbers and the catalog are
    unchanged, and the rewrite runs inside a write-ahead commit that adds
    no version, so the manifest records it.  Returns total
    [(bytes_before, bytes_after)] across the manifest and all shards.  Do
    not run concurrently with commits or ingest; invalidates snapshots. *)

type stats = {
  stat_shards : int;
  stat_docs : int;
  stat_versions : int;
  stat_shard_bytes : int array;  (** current size of each shard file *)
  stat_manifest_bytes : int;
  stat_aborted : int;  (** aborted commits seen at open *)
  stat_epoch : int;
}

val stats : t -> stats
(** O(1) per shard (file sizes by [stat], no scanning). *)

val verify :
  ?jobs:int -> ?pool:Treediff_util.Pool.t -> t -> (int, string) result
(** Materialize {e every} committed version of every document, from its
    base up, with hash verification, in parallel over shards.  Each shard's
    record index is first rebuilt from a fresh scan and must equal the
    resident one, and a committed document missing from its shard is an
    error.  Returns the number of versions verified, or the first failure.
    The crash-recovery acceptance check: after a kill and reopen,
    everything the catalog claims must verify against its stored
    {!Treediff_tree.Iso.hash}. *)

val migrate :
  ?exec:Treediff_util.Exec.t ->
  doc:string ->
  legacy:string ->
  string ->
  (t * int, string) result
(** [migrate ~doc ~legacy dir] converts [legacy], a single-file archive
    from an older release, into a fresh 1-shard corpus at [dir] holding
    one document [doc]: each legacy record's chain payload is appended
    unchanged in one write-ahead commit, under the legacy header's
    checkpoint policy, so version numbers, a pruned base, checkpoints and
    scripts all survive.  Then {!verify} runs; returns the handle and the
    number of versions verified.  A crash leaves the whole document or
    none of it. *)
