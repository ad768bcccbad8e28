(* The daemon's frame codec is the repository's one JSON codec,
   [Treediff_util.Json].  This alias is kept only for the benchmark
   harness, which still names [Treediff_serve.Json]. *)
include Treediff_util.Json
