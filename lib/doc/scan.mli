(** Byte-level helpers shared by the text front ends.

    Every test here reads the source in place: none allocates, so a
    scanner may call them at every offset. *)

val prefix_at : string -> int -> string -> bool
(** [prefix_at s i p]: [p] occurs in [s] at offset [i] ([false] when it
    would run past the end). *)

val find_from : string -> int -> string -> int
(** [find_from s i p] is the first offset [>= i] where [p] occurs in [s],
    or [-1].  Requires [0 <= i <= String.length s]. *)

val is_trim_space : char -> bool
(** The bytes [String.trim] strips: [' '], ['\t'], ['\n'], ['\r'] and
    ['\012']. *)

val is_blank : string -> bool
(** Only {!is_trim_space} bytes: [is_blank s = (String.trim s = "")]. *)

val add_trimmed : Buffer.t -> string -> unit
(** [add_trimmed buf s] appends [String.trim s] to [buf] without making
    it. *)
