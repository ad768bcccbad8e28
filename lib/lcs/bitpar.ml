(* Row [V] of the LCS table, one bit per position of the shorter side [a]:
   a zero bit at position [i] marks where the LCS of [a] and the prefix of
   [b] read so far grows by one.  Per token of [b] with position mask [M],
   the add carries each run of ones in [V land M] into the next zero,
   which is exactly the DP recurrence on all positions at once.  Positions
   stay below bit [max_len], so the add's carry out lands in the sign bit,
   which the [land all] drops. *)

let max_len = Sys.int_size - 1

(* SWAR population count of a value in [0, 2^62): the 64-bit masks with
   their top two bits dropped, and the byte sum read from bits 56..62,
   enough for a count of at most 62. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

let lcs_length ~masks a b =
  let a, b = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let m = Array.length a in
  if m > max_len then invalid_arg "Bitpar.lcs_length: both sides exceed max_len";
  if m = 0 then 0
  else begin
    for i = 0 to m - 1 do
      let t = a.(i) in
      masks.(t) <- masks.(t) lor (1 lsl i)
    done;
    let all = (1 lsl m) - 1 in
    let v = ref all in
    for j = 0 to Array.length b - 1 do
      let mk = masks.(b.(j)) in
      let x = !v in
      v := ((x + (x land mk)) lor (x land lnot mk)) land all
    done;
    for i = 0 to m - 1 do
      masks.(a.(i)) <- 0
    done;
    m - popcount !v
  end
