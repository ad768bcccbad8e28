let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* The prefix that is already normalized (no leading space, no tab,
   newline or carriage return, no two spaces in a row, and a space only
   where a word follows) is kept as it is: returned when it is all of [s],
   copied in bulk otherwise.  From there each run of non-space bytes is
   copied in bulk, and a whitespace run between two of them becomes one
   space. *)
let normalize s =
  let n = String.length s in
  let p = ref 0 in
  while
    !p < n
    &&
    match s.[!p] with
    | ' ' -> !p > 0 && s.[!p - 1] <> ' ' && !p + 1 < n
    | '\t' | '\n' | '\r' -> false
    | _ -> true
  do
    incr p
  done;
  if !p = n then s
  else begin
    let buf = Buffer.create n in
    let i = ref (if !p > 0 && s.[!p - 1] = ' ' then !p - 1 else !p) in
    Buffer.add_substring buf s 0 !i;
    while !i < n do
      while !i < n && is_space s.[!i] do
        incr i
      done;
      let start = !i in
      while !i < n && not (is_space s.[!i]) do
        incr i
      done;
      if !i > start then begin
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_substring buf s start (!i - start)
      end
    done;
    Buffer.contents buf
  end

let abbreviations =
  [ "e.g"; "i.e"; "etc"; "cf"; "vs"; "fig"; "sec"; "eq"; "no"; "al"; "dr"; "mr"; "mrs"; "ms"; "prof"; "st" ]

(* [s.[start .. stop - 1]], lowercased, equals [w] (which is lowercase). *)
let slice_is s start stop w =
  let m = String.length w in
  m = stop - start
  &&
  let k = ref 0 in
  while !k < m && Char.lowercase_ascii s.[start + !k] = w.[!k] do
    incr k
  done;
  !k = m

let rec is_one_of s start stop = function
  | [] -> false
  | w :: ws -> slice_is s start stop w || is_one_of s start stop ws

(* Whether the period at [i] ends an abbreviation or a single initial.  The
   word is the lowercased run before [i] back to the previous space, with
   leading punctuation (quotes, parentheses) stripped so "(e.g." is
   recognised as "e.g".  [s] is normalized, so a space is the only
   separator.  Read in place: no substring is made. *)
let abbreviation_before s i =
  let j = ref (i - 1) in
  while !j >= 0 && s.[!j] <> ' ' do
    decr j
  done;
  let k = ref (!j + 1) in
  while
    !k < i && match Char.lowercase_ascii s.[!k] with 'a' .. 'z' | '0' .. '9' -> false | _ -> true
  do
    incr k
  done;
  (i - !k = 1 && match Char.lowercase_ascii s.[!k] with 'a' .. 'z' -> true | _ -> false)
  || is_one_of s !k i abbreviations

let is_closer c = c = '"' || c = '\'' || c = ')' || c = ']'

exception Not_normalized

(* One left-to-right scan of [s].  The word before a terminator is looked
   at only when the terminator sits at a boundary, and the words before
   two boundaries never overlap, so a run of terminators costs linear
   time.  With [check], the scan also meets every byte that [normalize]
   would change (each space, tab, newline or carriage return) and raises
   [Not_normalized] at the first; by then it has read only normalized
   bytes. *)
let sentences ~check s =
  let n = String.length s in
  let sentences = ref [] in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | ('.' | '!' | '?') as punct ->
      (* absorb a run of closing quotes/brackets after the terminator *)
      let j = ref (!i + 1) in
      while !j < n && is_closer s.[!j] do
        incr j
      done;
      let at_boundary = !j >= n || s.[!j] = ' ' in
      if at_boundary && not (punct = '.' && abbreviation_before s !i) then begin
        (* [s] is normalized and [start] follows a space, so the sentence
           has no surrounding whitespace and is never empty *)
        sentences := String.sub s !start (!j - !start) :: !sentences;
        (* the following space is the next byte scanned *)
        start := (if !j < n then !j + 1 else !j);
        i := !j - 1
      end
    | ' ' ->
      if check && (!i = 0 || s.[!i - 1] = ' ' || !i + 1 = n) then raise Not_normalized
    | '\t' | '\n' | '\r' -> if check then raise Not_normalized
    | _ -> ());
    incr i
  done;
  if !start < n then sentences := String.sub s !start (n - !start) :: !sentences;
  List.rev !sentences

(* Text that is already normalized is split in that one scan. *)
let split text =
  match sentences ~check:true text with
  | l -> l
  | exception Not_normalized -> sentences ~check:false (normalize text)
