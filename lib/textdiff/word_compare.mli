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

    Word interning and the kernel's per-word mask scratch live in a
    {!Vocab}; string-keyed token memoization on top of it lives in a
    {!Cache}.  Both are explicit values, never module state.  {!distance}
    uses a per-domain default cache (safe under domains, bounded by
    {!Cache.default_cap}); {!distance_in} scopes the cache to one execution
    context so a batch task's memory is reclaimed with its context.

    Callers that compare the same strings many times and can name them by
    a dense id tokenize each string once with {!Vocab.tokenize} and call
    {!distance_tokens} on the arrays, skipping the per-call string lookups
    (the matching criteria do this per interned leaf value).  The result is
    the same bit for bit: {!distance_with} itself runs {!distance_tokens}. *)

val words : string -> string array
(** Tokenise on whitespace, lowercase, stripping punctuation at token edges.
    [words "The cat, the hat!"] = [[|"the"; "cat"; "the"; "hat"|]]. *)

module Vocab : sig
  type t
  (** Word interner (word string -> dense id) plus the LCS kernel's mask
      scratch (one int per interned word, all zeros between calls).
      Token arrays are comparable only under the vocabulary that made
      them.  Single-owner: do not share one vocabulary between domains. *)

  val create : unit -> t

  val size : t -> int
  (** Number of interned words. *)

  val tokenize : t -> string -> int array
  (** [words s] with each word replaced by its id, interning new words. *)
end

val distance_tokens : Vocab.t -> int array -> int array -> float
(** The word-LCS distance of two token arrays made by {!Vocab.tokenize}
    under the same vocabulary: [(n₁ + n₂ − 2c) / max(n₁, n₂)], and [0] for
    two empty arrays. *)

module Cache : sig
  type t
  (** String-keyed token-array memo over its own {!Vocab}.
      Single-owner: do not share one cache between domains. *)

  val default_cap : int
  (** [65536] memoized strings; when exceeded the cache is flushed wholesale
      before the next lookup (token table and vocabulary together, keeping
      interned ids generation-consistent). *)

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
