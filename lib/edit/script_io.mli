(** Textual serialization of edit scripts.

    Deltas are data in the paper's motivating applications — shipped to
    warehouses, stored as versions, replayed elsewhere — so scripts need a
    stable external form.  The format is the paper's own op notation, one
    operation per line:

    {v
    INS((21,S,"g"),3,3)
    UPD(9,"baz")
    MOV(5,11,1)
    DEL(6)
    v}

    Values are double-quoted with OCaml-style escapes.  [INS] with a null
    value may omit it: [INS((21,S),3,3)].  Blank lines and [#]-comment lines
    are ignored on input.

    A script whose roots went unmatched is written against [T1] grafted
    under a dummy root [d1] (§4.1, {!Script.rooted}); its first line,
    [ROOT(d1)], names that root so the script replays.  Only such scripts
    carry it, so matched-root scripts and older files read as before.  The
    new tree's dummy [d2] never occurs in a script. *)

exception Parse_error of string

val to_string : ?dummy:int -> Script.t -> string
(** One op per line, after [ROOT(d1)] when [dummy] is [Some d1]. *)

val of_string : string -> int option * Script.t
(** The [ROOT] line's dummy id (if any) and the ops.
    @raise Parse_error on malformed input.  The message locates the fault
    precisely: the 1-based op ordinal (comment, blank and [ROOT] lines do
    not count), line, column, and the offending token under the cursor. *)

val parse : string -> (int option * Script.t, string) result
(** Exception-free front end to {!of_string}: malformed input — truncated
    lines, bad escapes, out-of-range integers — comes back as [Error] with
    the op-indexed, line-numbered message.  Never raises. *)
