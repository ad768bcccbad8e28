external now : unit -> (float[@unboxed])
  = "treediff_clock_now" "treediff_clock_now_unboxed"
[@@noalloc]
