(** Myers' O(ND) longest-common-subsequence algorithm [Mye86].

    This is the LCS procedure the paper relies on for aligning children in
    [AlignChildren] (§4.2) and for the per-label chain matching of
    [FastMatch] (§5.3).  Following §4.2 it is parameterised by an arbitrary
    equality function — the reason the paper cannot reuse the stock UNIX
    diff, which needs ordering comparisons.

    The word-level sentence comparison of LaDiff (§7) compares interned
    word ids with the bit-parallel {!Bitpar.lcs_length}, which is O(n) where
    Myers hits its O((N+M)²) worst case on unrelated sentences.  It falls
    back to {!lcs_length} only when both sentences are longer than
    {!Bitpar.max_len} words.

    Running time is O((N+M)·D) where D is the size of the shortest edit
    script; space is O(D²) for path recovery. *)

val lcs : equal:('a -> 'b -> bool) -> 'a array -> 'b array -> (int * int) list
(** [lcs ~equal a b] is the list of index pairs [(i, j)] (strictly increasing
    in both components) such that [equal a.(i) b.(j)] and the list is a
    longest common subsequence of [a] and [b]. *)

val lcs_pairs : equal:('a -> 'b -> bool) -> 'a array -> 'b array -> ('a * 'b) list
(** Like {!lcs} but returning the elements themselves. *)

val lcs_length : equal:('a -> 'b -> bool) -> 'a array -> 'b array -> int

val edit_distance : equal:('a -> 'b -> bool) -> 'a array -> 'b array -> int
(** [edit_distance ~equal a b] is D = N + M − 2·|LCS|, the number of element
    insertions plus deletions in a shortest edit script. *)
