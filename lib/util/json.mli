(** The repository's one JSON codec (RFC 8259; no external dependency).

    Two readers share it: the daemon's length-prefixed frames
    ([Treediff_serve.Protocol]) and the JSON document front end
    ([Treediff_doc.Json_parser], which maps a {!t} onto the label-value
    tree model).  It covers exactly RFC 8259's value grammar — objects,
    arrays, strings with escapes, numbers, booleans, null — and nothing
    more: no streaming, no comments, no NaN/Infinity literals.

    Numbers keep their validated source literal, so [1.50] and [1e5] stay
    spelled as written; {!num} converts on demand.  [\uXXXX] escapes
    decode to UTF-8, surrogate pairs combine, and every unpaired surrogate
    half becomes U+FFFD, so decoded text is well-formed UTF-8 wherever the
    input was. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** an RFC 8259 number literal, as written *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** member order is preserved *)

val int : int -> t
val float : float -> t
(** Integral floats print without a fractional part, so identifiers
    round-trip textually; others print with 17 significant digits. *)

(** {1 Printing} *)

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val escape : Buffer.t -> string -> unit
(** Append a string as a quoted JSON string literal: quote, backslash and
    control bytes escaped, every other byte verbatim. *)

(** {1 Parsing} *)

val parse_result : ?lenient:bool -> string -> (t * string list, string) result
(** Parse one JSON value.  Never raises; an error message carries a byte
    offset.  With [lenient] (default [false]) common near-JSON is
    recovered from — trailing commas, single-quoted strings, bare object
    keys, containers and strings left open at end of input, trailing
    garbage after the top value, unknown or short escapes (kept
    literally), raw control bytes in strings (kept), and leading zeros
    (dropped) — and each recovery is reported as a warning string.  Strict
    mode returns an error where lenient mode would warn, so its warning
    list is always empty. *)

val parse : string -> (t, string) result
(** Strict {!parse_result} without the (always empty) warning list. *)

val equal : t -> t -> bool
(** Structural equality; numbers compare by literal and object members in
    order (the codec preserves both, so [parse (to_string v)] is [equal]
    to [v]). *)

(** {1 Accessors}

    Total lookups for picking request parameters apart; all return [None]
    on a type mismatch rather than raising. *)

val member : string -> t -> t option
(** First binding of the name in an object; [None] for non-objects. *)

val str : t -> string option
val num : t -> float option
val bool : t -> bool option
val arr : t -> t list option

val mem_str : string -> t -> string option
val mem_num : string -> t -> float option
val mem_bool : string -> t -> bool option
