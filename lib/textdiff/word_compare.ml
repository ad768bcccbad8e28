module Bitpar = Treediff_lcs.Bitpar

let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '\'' | '-' -> true
  (* UTF-8 continuation and lead bytes: keep multibyte words whole *)
  | c when Char.code c >= 0x80 -> true
  | _ -> false

(* [fold.[Char.code c]] is [c] lowercased when [c] is a word byte and
   ['\000'] (not a word byte) otherwise: one load classifies a byte and
   lowercases it. *)
let fold =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if is_word_char c then Char.lowercase_ascii c else '\000')

let fold_at s i = String.unsafe_get fold (Char.code s.[i])

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
   and a zeroed table serves any generation).

   The interner is an open-addressing table over the words' lowercased
   bytes, so [tokenize] looks a word up where it stands in the input and
   makes a string only for a word it has not seen.  Ids are given in
   order of first appearance: the ids that interning [words s] one word
   at a time would give. *)
module Vocab = struct
  type t = {
    mutable slots : int array;  (* word id, or -1 for an empty slot *)
    mutable words : string array;  (* id -> word *)
    mutable hashes : int array;  (* id -> hash of the word *)
    mutable count : int;
    mutable ids : int array;  (* scratch: the ids of the string in hand *)
    mutable masks : int array;
  }

  (* Small, so that a vocabulary starts in the minor heap (a criteria ctx
     makes one per diff); the table doubles as words arrive. *)
  let initial_slots = 64

  let create () =
    {
      slots = Array.make initial_slots (-1);
      words = Array.make (initial_slots / 2) "";
      hashes = Array.make (initial_slots / 2) 0;
      count = 0;
      ids = Array.make 16 0;
      masks = Array.make 256 0;
    }

  let size v = v.count

  let clear v =
    v.slots <- Array.make initial_slots (-1);
    v.words <- Array.make (initial_slots / 2) "";
    v.hashes <- Array.make (initial_slots / 2) 0;
    v.count <- 0

  (* FNV-1a over the lowercased bytes (its 64-bit basis cut to fit an
     OCaml int); [slot] folds the high bits in. *)
  let fnv_basis = 0x0bf29ce484222325

  let fnv_step h c = (h lxor Char.code c) * 0x100000001b3

  let slot v h = (h lxor (h lsr 32)) land (Array.length v.slots - 1)

  (* The table stays at most half full: twice the slots, same words. *)
  let grow v =
    let cap = 2 * Array.length v.slots in
    v.slots <- Array.make cap (-1);
    for id = 0 to v.count - 1 do
      let j = ref (slot v v.hashes.(id)) in
      while v.slots.(!j) >= 0 do
        j := (!j + 1) land (cap - 1)
      done;
      v.slots.(!j) <- id
    done;
    let words = Array.make (cap / 2) "" and hashes = Array.make (cap / 2) 0 in
    Array.blit v.words 0 words 0 v.count;
    Array.blit v.hashes 0 hashes 0 v.count;
    v.words <- words;
    v.hashes <- hashes

  (* [w] equals [s.[start .. stop - 1]] lowercased. *)
  let same_word w s start stop =
    let m = String.length w in
    m = stop - start
    &&
    let k = ref 0 in
    while !k < m && String.unsafe_get w !k = fold_at s (start + !k) do
      incr k
    done;
    !k = m

  (* Intern the lowercased word [s.[start .. stop - 1]], of hash [h], at
     the empty slot [j]. *)
  let add_word v j s start stop h =
    let id = v.count in
    v.slots.(j) <- id;
    v.words.(id) <- String.init (stop - start) (fun k -> fold_at s (start + k));
    v.hashes.(id) <- h;
    v.count <- id + 1;
    if 2 * v.count >= Array.length v.slots then grow v;
    id

  (* The id of the lowercased word [s.[start .. stop - 1]] with hash [h],
     interning it if new.  A loop, not a local recursive function, so a
     lookup allocates nothing. *)
  let intern_slice v s start stop h =
    let mask = Array.length v.slots - 1 in
    let j = ref (slot v h) and found = ref (-1) in
    while !found < 0 do
      let id = v.slots.(!j) in
      if id < 0 then found := add_word v !j s start stop h
      else if v.hashes.(id) = h && same_word v.words.(id) s start stop then found := id
      else j := (!j + 1) land mask
    done;
    !found

  let push v k id =
    if k >= Array.length v.ids then begin
      let ids = Array.make (2 * k) 0 in
      Array.blit v.ids 0 ids 0 k;
      v.ids <- ids
    end;
    v.ids.(k) <- id

  (* One pass: each word is hashed while its end is found, then looked up
     in place. *)
  let tokenize v s =
    let n = String.length s in
    let k = ref 0 and i = ref 0 in
    while !i < n do
      while !i < n && fold_at s !i = '\000' do
        incr i
      done;
      if !i < n then begin
        let start = !i and h = ref fnv_basis in
        while !i < n && fold_at s !i <> '\000' do
          h := fnv_step !h (fold_at s !i);
          incr i
        done;
        push v !k (intern_slice v s start !i !h);
        incr k
      end
    done;
    Array.sub v.ids 0 !k
end

(* Word LCS length: the bit-parallel kernel whenever the shorter sentence
   fits one machine word (every word id is below the interner's size, so a
   table that long covers both sides); Myers' O(ND) otherwise. *)
let lcs_length (v : Vocab.t) wa wb =
  if min (Array.length wa) (Array.length wb) <= Bitpar.max_len then begin
    let words = Vocab.size v in
    if Array.length v.masks < words then
      v.masks <- Array.make (max words (2 * Array.length v.masks)) 0;
    Bitpar.lcs_length ~masks:v.masks wa wb
  end
  else Treediff_lcs.Myers.lcs_length ~equal:Int.equal wa wb

(* The distance of an [na]- and an [nb]-word sentence whose LCS has [c]
   words; it only grows as [c] falls. *)
let distance_of na nb c = float_of_int (na + nb - (2 * c)) /. float_of_int (max na nb)

let distance_tokens v wa wb =
  let na = Array.length wa and nb = Array.length wb in
  if na = 0 && nb = 0 then 0.0 else distance_of na nb (lcs_length v wa wb)

let signature ids =
  let s = ref 0 in
  for i = 0 to Array.length ids - 1 do
    s := !s lor (1 lsl (ids.(i) mod Bitpar.max_len))
  done;
  !s

(* A bit set in [sa] but not in [sb] stands for at least one word of [a]
   (at least one position) that does not occur in [b], so no LCS uses it. *)
let lcs_bound wa sa wb sb =
  min
    (Array.length wa - Bitpar.popcount (sa land lnot sb))
    (Array.length wb - Bitpar.popcount (sb land lnot sa))

let within v ~limit wa sa wb sb =
  let na = Array.length wa and nb = Array.length wb in
  if na = 0 && nb = 0 then 0.0 <= limit
  else
    distance_of na nb (lcs_bound wa sa wb sb) <= limit
    && distance_of na nb (lcs_length v wa wb) <= limit

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
   own tables) and still bounded by [Cache.default_cap]. *)
let domain_cache_key = Domain.DLS.new_key (fun () -> Cache.create ())

let domain_cache () = Domain.DLS.get domain_cache_key

let distance a b = distance_with (domain_cache ()) a b

let similar ?(threshold = 0.5) a b = distance a b <= threshold
