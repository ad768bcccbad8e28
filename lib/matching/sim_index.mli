(** Banded LSH candidate index over per-label chains, plus the greedy
    signature matcher behind the [approx] algorithm.

    The index buckets a chain's nodes by the {!Feature.bands} 8-bit bands of
    their subtree SimHash signatures; a query unions the buckets its probe
    signature lands in, ranks survivors by (Hamming distance, chain
    position) and returns the top [k].  Bucket lists are kept in chain order
    and ties break on position, so retrieval — and every matching built on
    it — is deterministic and byte-identical across batch job counts. *)

val signatures : ?exec:Treediff_util.Exec.t -> Treediff_tree.Index.t -> int64 array
(** {!Feature.signatures}, memoized in an {!Treediff_util.Exec} typed slot
    keyed by the index's physical identity (capped LRU-ish list): FastMatch
    asks once per label chain but the bottom-up pass runs once per tree per
    execution context.  Without [?exec] it simply recomputes. *)

type t
(** A candidate index over one label chain of one tree. *)

val build : sigs:int64 array -> int array -> t
(** [build ~sigs ranks] indexes the chain [ranks] (preorder ranks into the
    tree whose signature array is [sigs]). *)

val length : t -> int

val rank : t -> int -> int
(** Preorder rank of the candidate at a position returned by {!query}. *)

val query :
  ?budget:Treediff_util.Budget.t -> ?max_dist:int -> k:int -> t -> int64 -> int list
(** Top-[k] candidate positions for a probe signature: union of its band
    buckets, filtered to Hamming distance [<= max_dist] (default 64, i.e.
    banding only), sorted by (distance, chain position).  Charges one budget
    visit per candidate scored when [?budget] is given. *)

val greedy_indexed :
  ?exec:Treediff_util.Exec.t ->
  ?max_dist:int ->
  ?top_k:int ->
  idx1:Treediff_tree.Index.t ->
  idx2:Treediff_tree.Index.t ->
  unit ->
  Matching.t
(** Greedy signature matching over a prebuilt index pair: per label in
    FastMatch's bottom-up order (leaf chains, then internal chains), each
    unmatched T1 node takes the nearest unmatched T2 candidate within
    [max_dist] bits (default 16); roots pair separately when labels agree.
    No criterion tests run — the result is one-to-one, label-respecting and
    root-consistent, which static verification requires, but pairs may
    violate the similarity criteria (warning severity).  Fires the
    ["sim.greedy"] fault point and charges budget visits. *)

val greedy :
  ?exec:Treediff_util.Exec.t ->
  ?max_dist:int ->
  ?top_k:int ->
  t1:Treediff_tree.Node.t ->
  t2:Treediff_tree.Node.t ->
  unit ->
  Matching.t
(** {!greedy_indexed} over freshly built pair indexes. *)
