(* Loops rather than local recursive functions: a local closure that
   captures the strings would be allocated at every call. *)

let prefix_at s i p =
  let m = String.length p in
  if i < 0 || i + m > String.length s then false
  else begin
    let k = ref 0 in
    while !k < m && String.unsafe_get s (i + !k) = String.unsafe_get p !k do
      incr k
    done;
    !k = m
  end

let find_from s i p =
  let last = String.length s - String.length p in
  let j = ref i in
  while !j <= last && not (prefix_at s !j p) do
    incr j
  done;
  if !j <= last then !j else -1

let is_trim_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let is_blank s =
  let i = ref 0 in
  while !i < String.length s && is_trim_space s.[!i] do
    incr i
  done;
  !i = String.length s

let add_trimmed buf s =
  let i = ref 0 and j = ref (String.length s) in
  while !i < !j && is_trim_space s.[!i] do
    incr i
  done;
  while !j > !i && is_trim_space s.[!j - 1] do
    decr j
  done;
  Buffer.add_substring buf s !i (!j - !i)
