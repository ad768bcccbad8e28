(* The daemon's frame codec is the repository's one JSON codec; this alias
   keeps the [Treediff_serve.Json] name working for existing callers. *)
include Treediff_util.Json
