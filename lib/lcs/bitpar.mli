(** Bit-parallel LCS length over small-integer tokens (Allison & Dix 1986;
    Hyyrö 2004).

    The shorter array [a] (at most {!max_len} tokens) becomes a bit vector:
    for each token value [t], [masks.(t)] has bit [i] set iff [a.(i) = t].
    One pass over the other array then updates a row vector [V] of the LCS
    dynamic program with one add and three logical operations per token,

    {v V <- ((V + (V land M)) lor (V land lnot M)) land all v}

    starting from [all] ones, and |LCS| is the number of zero bits of the
    final [V].  That is O(n) word operations for any content — in
    particular for unrelated sequences, Myers' worst case (D = n + m).

    The result is exact: it equals {!Dp.lcs_length} and {!Myers.lcs_length}
    with [~equal:Int.equal] on every input the kernel accepts. *)

val max_len : int
(** [Sys.int_size - 1] (62 on 64-bit hosts): the longest shorter side the
    kernel accepts, one bit per position below the sign bit. *)

val popcount : int -> int
(** Number of set bits of a value below [2{^max_len}]: the kernel's final
    count, also used on the word-set signatures of the word-LCS compare. *)

val lcs_length : masks:int array -> int array -> int array -> int
(** [lcs_length ~masks a b] is the length of a longest common subsequence
    of [a] and [b] under integer equality.

    [masks] is caller-owned scratch: it must be all zeros on entry and
    longer than every token of [a] and [b]; it is all zeros again on
    return.  Owning the scratch lets each cache or domain keep its own
    table with no module state.

    @raise Invalid_argument when both arrays are longer than {!max_len}
    (use {!Myers.lcs_length} there), or when a token is out of the
    range of [masks] (the scratch is then left unspecified). *)
