let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '\'' | '-' -> true
  (* UTF-8 continuation and lead bytes: keep multibyte words whole *)
  | c when Char.code c >= 0x80 -> true
  | _ -> false

(* Lowercasing the whole string once and then slicing equals slicing and
   then lowercasing each word ([lowercase_ascii] is a byte-wise map); the
   two-pass scan fills an exact-size array with no intermediate list. *)
let words s =
  let s = String.lowercase_ascii s in
  let n = String.length s in
  let count = ref 0 and i = ref 0 in
  while !i < n do
    while !i < n && not (is_word_char s.[!i]) do
      incr i
    done;
    if !i < n then begin
      incr count;
      while !i < n && is_word_char s.[!i] do
        incr i
      done
    end
  done;
  let out = Array.make !count "" in
  let j = ref 0 and i = ref 0 in
  while !i < n do
    while !i < n && not (is_word_char s.[!i]) do
      incr i
    done;
    let start = !i in
    while !i < n && is_word_char s.[!i] do
      incr i
    done;
    if !i > start then begin
      out.(!j) <- String.sub s start (!i - start);
      incr j
    end
  done;
  out

(* Word interning for the LCS: word strings become dense int ids, so the
   kernel's probes are integer comparisons.  [masks] is the bit-parallel
   kernel's per-word scratch: indexed by word id, grown with the interner,
   all zeros between calls, and kept across [clear] (ids restart from 0,
   and a zeroed table serves any generation). *)
module Vocab = struct
  type t = { ids : (string, int) Hashtbl.t; mutable masks : int array }

  let create () = { ids = Hashtbl.create 256; masks = Array.make 256 0 }

  let size v = Hashtbl.length v.ids

  let clear v = Hashtbl.reset v.ids

  let intern v w =
    match Hashtbl.find_opt v.ids w with
    | Some i -> i
    | None ->
      let i = Hashtbl.length v.ids in
      Hashtbl.replace v.ids w i;
      i

  let tokenize v s = Array.map (intern v) (words s)
end

(* Word LCS length: the bit-parallel kernel whenever the shorter sentence
   fits one machine word (every word id is below the interner's size, so a
   table that long covers both sides); Myers' O(ND) otherwise. *)
let lcs_length (v : Vocab.t) wa wb =
  if min (Array.length wa) (Array.length wb) <= Treediff_lcs.Bitpar.max_len
  then begin
    let words = Vocab.size v in
    if Array.length v.masks < words then
      v.masks <- Array.make (max words (2 * Array.length v.masks)) 0;
    Treediff_lcs.Bitpar.lcs_length ~masks:v.masks wa wb
  end
  else Treediff_lcs.Myers.lcs_length ~equal:Int.equal wa wb

let distance_tokens v wa wb =
  let na = Array.length wa and nb = Array.length wb in
  if na = 0 && nb = 0 then 0.0
  else
    let c = lcs_length v wa wb in
    float_of_int (na + nb - (2 * c)) /. float_of_int (max na nb)

(* Tokenization memo: [words] is a pure function and versioned documents
   compare the same sentences over and over, so cache token arrays per
   input string.  The cache is flushed wholesale when oversized; the token
   table and the vocabulary are generation-consistent because the flush
   happens only before either string of a call is looked up.

   Caches are values, not module state: each execution context (or domain)
   owns its own, so concurrent diffs never share a table. *)
module Cache = struct
  type t = {
    token_tbl : (string, int array) Hashtbl.t;
    vocab : Vocab.t;
    cap : int;
  }

  let default_cap = 1 lsl 16

  let create ?(cap = default_cap) () =
    if cap < 1 then invalid_arg "Word_compare.Cache.create: cap < 1";
    { token_tbl = Hashtbl.create 1024; vocab = Vocab.create (); cap }

  let clear c =
    Hashtbl.reset c.token_tbl;
    Vocab.clear c.vocab

  let size c = Hashtbl.length c.token_tbl
  let cap c = c.cap
end

let tokens c s =
  match Hashtbl.find_opt c.Cache.token_tbl s with
  | Some a -> a
  | None ->
    let a = Vocab.tokenize c.Cache.vocab s in
    Hashtbl.replace c.Cache.token_tbl s a;
    a

let distance_with cache a b =
  (* Equal strings tokenize identically, so the LCS is total and the
     distance is exactly 0 — skip the tokenization, which dominates the
     cost on mostly-unchanged documents. *)
  if String.equal a b then 0.0
  else begin
    if Cache.size cache > cache.Cache.cap then Cache.clear cache;
    let wa = tokens cache a and wb = tokens cache b in
    distance_tokens cache.Cache.vocab wa wb
  end

(* The default [distance] keeps its historical closure-friendly signature by
   memoizing through a domain-local cache: safe under domains (each gets its
   own tables) and still bounded by [Cache.default_cap].  Pipelines that
   want per-run isolation use [exec_cache]/[distance_in] instead. *)
let domain_cache_key = Domain.DLS.new_key (fun () -> Cache.create ())

let domain_cache () = Domain.DLS.get domain_cache_key

let distance a b = distance_with (domain_cache ()) a b

let similar ?(threshold = 0.5) a b = distance a b <= threshold

let exec_key : Cache.t Treediff_util.Exec.Key.t =
  Treediff_util.Exec.Key.create "word_compare.cache"

let exec_cache exec =
  Treediff_util.Exec.memo exec exec_key (fun () -> Cache.create ())

let distance_in exec a b = distance_with (exec_cache exec) a b
