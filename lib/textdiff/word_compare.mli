(** LaDiff's sentence comparison function (§7): "first computes the LCS of
    the words in the sentences, then counts the number of words not in the
    LCS."

    The count is normalised so the result lies in the cost model's [\[0,2\]]
    range: with [n₁], [n₂] the word counts and [c] the LCS length,
    [distance = (n₁ + n₂ − 2c) / max(n₁, n₂)].  Identical sentences score 0;
    sentences with no words in common score ≥ 1 (exactly 2 when equal
    length); the [≤ f ≤ 1] matching threshold of Criterion 1 then demands
    that at least about half the words survive.

    The LCS length comes from the bit-parallel
    {!Treediff_lcs.Bitpar.lcs_length} over interned word ids whenever the
    shorter sentence has at most {!Treediff_lcs.Bitpar.max_len} (62) words,
    and from {!Treediff_lcs.Myers.lcs_length} when both are longer.  Both
    are exact, so the distance is the same bit for bit either way.

    Tokenisation and word-interning results, and the kernel's per-word mask
    scratch, live in a {!Cache}: an explicit value, never module state.
    {!distance} uses a per-domain default cache (safe under domains,
    bounded by {!Cache.default_cap}); {!distance_in} scopes the cache to one
    execution context so a batch task's memory is reclaimed with its
    context. *)

val words : string -> string array
(** Tokenise on whitespace, lowercase, stripping punctuation at token edges.
    [words "The cat, the hat!"] = [[|"the"; "cat"; "the"; "hat"|]]. *)

module Cache : sig
  type t
  (** Tokenization + interning memo tables, plus the LCS kernel's mask
      scratch (one int per interned word, all zeros between calls).
      Single-owner: do not share one cache between domains. *)

  val default_cap : int
  (** [65536] memoized strings; when exceeded the cache is flushed wholesale
      before the next lookup (both tables together, keeping interned ids
      generation-consistent). *)

  val create : ?cap:int -> unit -> t
  (** Fresh empty cache.  @raise Invalid_argument if [cap < 1]. *)

  val clear : t -> unit
  (** Drop all memoized entries (explicit reuse point for long-lived
      callers that want to bound retention, e.g. between corpus sets).
      The zeroed mask scratch is kept: word ids restart from 0 and any
      generation can use it. *)

  val size : t -> int
  (** Number of memoized strings. *)

  val cap : t -> int
end

val distance_with : Cache.t -> string -> string -> float
(** Word-LCS distance in [\[0,2\]] memoizing through the given cache.
    Two empty sentences are identical (0). *)

val distance : string -> string -> float
(** [distance_with] through a per-domain default cache.  Keeps the bare
    closure shape used throughout ([~compare:Word_compare.distance]). *)

val similar : ?threshold:float -> string -> string -> bool
(** [distance a b <= threshold] (default [0.5]). *)

val exec_cache : Treediff_util.Exec.t -> Cache.t
(** The cache slot of an execution context (created on first use). *)

val distance_in : Treediff_util.Exec.t -> string -> string -> float
(** [distance_with (exec_cache exec)]. *)
