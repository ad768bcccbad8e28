(* Helpers shared across the test executables. *)

let structural_lower_bound = Treediff_experiments.Optimality.structural_lower_bound

(* LaDiff's §7 sentence distance computed the plain way: the tokenizer and
   Myers' LCS over the words themselves, with no memo, no interning and no
   bit-parallel kernel.  The reference [Word_compare.distance] must equal
   bit for bit. *)
let myers_word_distance a b =
  let words = Treediff_textdiff.Word_compare.words in
  let wa = words a and wb = words b in
  let na = Array.length wa and nb = Array.length wb in
  if na = 0 && nb = 0 then 0.0
  else
    let c = Treediff_lcs.Myers.lcs_length ~equal:String.equal wa wb in
    float_of_int (na + nb - (2 * c)) /. float_of_int (max na nb)
