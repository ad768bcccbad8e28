type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (string_of_int i)

let float f =
  Num
    (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
     else Printf.sprintf "%.17g" f)

(* ------------------------------------------------------------- printing *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num lit -> Buffer.add_string buf lit
  | Str s -> escape buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* -------------------------------------------------------------- parsing *)

exception Bad of int * string

(* Recursive-descent over the raw string; [pos] is a byte offset carried in
   error messages and warnings.  Depth of recursion follows input nesting —
   daemon frames are size-capped by the protocol layer, so hostile deep
   nesting is bounded there. *)
type state = {
  src : string;
  mutable pos : int;
  lenient : bool;
  mutable warnings : string list;
}

let error st msg = raise (Bad (st.pos, msg))

(* A departure from RFC 8259 that lenient mode repairs: strict mode fails
   with [msg]; lenient mode records it and the caller applies its fix. *)
let recover st msg =
  if st.lenient then
    st.warnings <- Printf.sprintf "at byte %d: %s" st.pos msg :: st.warnings
  else error st msg

let at_end st = st.pos >= String.length st.src

let peek st = if at_end st then None else Some st.src.[st.pos]

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %C, found %C" c c')
  | None -> error st (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then (
    st.pos <- st.pos + n;
    value)
  else error st (Printf.sprintf "expected %s" word)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The four hex digits at [at], or -1 when they are missing or not hex. *)
let hex4 src at =
  if at + 4 > String.length src then -1
  else
    let rec go acc i =
      if i = 4 then acc
      else
        let h = hex_val src.[at + i] in
        if h < 0 then -1 else go ((acc * 16) + h) (i + 1)
    in
    go 0 0

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let is_high u = u >= 0xD800 && u <= 0xDBFF
let is_low u = u >= 0xDC00 && u <= 0xDFFF

(* The body of a [\uXXXX] escape; [pos] is just past the [u].  A high
   surrogate directly followed by an escaped low one is one code point.
   Every unpaired half becomes U+FFFD; an escape after an unpaired high is
   left for the next round, since it may start a pair of its own. *)
let unicode_escape st buf =
  let src = st.src in
  let v = hex4 src st.pos in
  if v < 0 then begin
    recover st
      (if st.pos + 4 > String.length src then
         "truncated \\u escape (kept literally)"
       else "bad \\u escape digit (kept literally)");
    Buffer.add_string buf "\\u"
  end
  else begin
    st.pos <- st.pos + 4;
    let lo =
      if
        is_high v
        && st.pos + 1 < String.length src
        && src.[st.pos] = '\\'
        && src.[st.pos + 1] = 'u'
      then hex4 src (st.pos + 2)
      else -1
    in
    if is_low lo then begin
      add_utf8 buf (0x10000 + ((v - 0xD800) lsl 10) + (lo - 0xDC00));
      st.pos <- st.pos + 6
    end
    else add_utf8 buf (if is_high v || is_low v then 0xFFFD else v)
  end

(* A string body up to its closing [quote]; [pos] is just past the opening
   one.  [quote] is ['"'] except for lenient single-quoted strings.  Runs of
   plain bytes are copied in one piece, and a string with no escapes is a
   single substring. *)
let string_body st quote =
  let src = st.src in
  let n = String.length src in
  let plain c = c <> quote && c <> '\\' && Char.code c >= 0x20 in
  let run () =
    let start = st.pos in
    while st.pos < n && plain src.[st.pos] do
      advance st
    done;
    start
  in
  let start = run () in
  if st.pos < n && src.[st.pos] = quote then begin
    advance st;
    String.sub src start (st.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (2 * (st.pos - start) + 16) in
    Buffer.add_substring buf src start (st.pos - start);
    let rec loop () =
      if st.pos >= n then begin
        recover st "unterminated string (closed at end of input)";
        Buffer.contents buf
      end
      else
        let c = src.[st.pos] in
        if c = quote then begin
          advance st;
          Buffer.contents buf
        end
        else if c = '\\' then begin
          advance st;
          if st.pos >= n then begin
            recover st "dangling escape at end of input";
            Buffer.add_char buf '\\';
            Buffer.contents buf
          end
          else begin
            let e = src.[st.pos] in
            advance st;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' -> unicode_escape st buf
            | e ->
              recover st (Printf.sprintf "bad escape \\%c (kept literally)" e);
              Buffer.add_char buf '\\';
              Buffer.add_char buf e);
            loop ()
          end
        end
        else if plain c then begin
          let start = run () in
          Buffer.add_substring buf src start (st.pos - start);
          loop ()
        end
        else begin
          recover st "raw control byte in string (kept)";
          advance st;
          Buffer.add_char buf c;
          loop ()
        end
    in
    loop ()
  end

(* A quoted string at [pos]: double-quoted, or (lenient) single-quoted. *)
let quoted st =
  match peek st with
  | Some '"' ->
    advance st;
    string_body st '"'
  | Some '\'' ->
    recover st "single-quoted string";
    advance st;
    string_body st '\''
  | Some c -> error st (Printf.sprintf "expected a string, found %C" c)
  | None -> error st "expected a string, found end of input"

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '$' -> true
  | _ -> false

(* An object key: a quoted string, or (lenient) a bare identifier. *)
let key st =
  match peek st with
  | Some c when is_ident_char c && c <> '-' ->
    let start = st.pos in
    while (not (at_end st)) && is_ident_char st.src.[st.pos] do
      advance st
    done;
    let k = String.sub st.src start (st.pos - start) in
    recover st (Printf.sprintf "unquoted object key %S" k);
    k
  | Some _ | None -> quoted st

let digits st =
  let start = st.pos in
  while
    (not (at_end st)) && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
  do
    advance st
  done;
  if st.pos = start then error st "expected digit"

(* RFC 8259 numbers: no leading zeros ("01" is malformed), a fraction and
   an exponent each need digits.  Lenient mode drops redundant leading
   zeros so the kept literal is itself valid. *)
let number st =
  let start = st.pos in
  if peek st = Some '-' then advance st;
  let int_start = st.pos in
  digits st;
  let zeros = ref 0 in
  while int_start + !zeros < st.pos - 1 && st.src.[int_start + !zeros] = '0' do
    incr zeros
  done;
  if !zeros > 0 then recover st "leading zero (dropped)";
  if peek st = Some '.' then begin
    advance st;
    digits st
  end;
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits st
  | _ -> ());
  if !zeros = 0 then Num (String.sub st.src start (st.pos - start))
  else
    let cut = int_start + !zeros in
    Num
      (String.sub st.src start (int_start - start)
      ^ String.sub st.src cut (st.pos - cut))

(* The elements of a container up to its [close] bracket; [pos] is just
   past the opening one. *)
let elements st ~what ~close item =
  let rec go acc =
    skip_ws st;
    match peek st with
    | None ->
      recover st (what ^ " not closed at end of input");
      List.rev acc
    | Some c when c = close ->
      advance st;
      List.rev acc
    | Some _ -> (
      let x = item st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        skip_ws st;
        if peek st = Some close then recover st ("trailing comma in " ^ what);
        go (x :: acc)
      | Some c when c = close ->
        advance st;
        List.rev (x :: acc)
      | None -> go (x :: acc)
      | Some c ->
        error st (Printf.sprintf "expected ',' or %C in %s, found %C" close what c))
  in
  go []

let rec value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some ('"' | '\'') -> Str (quoted st)
  | Some ('-' | '0' .. '9') -> number st
  | Some '[' ->
    advance st;
    Arr (elements st ~what:"array" ~close:']' value)
  | Some '{' ->
    advance st;
    Obj (elements st ~what:"object" ~close:'}' key_value)
  | Some c -> error st (Printf.sprintf "unexpected %C" c)

and key_value st =
  let k = key st in
  skip_ws st;
  expect st ':';
  (k, value st)

let parse_result ?(lenient = false) src =
  let st = { src; pos = 0; lenient; warnings = [] } in
  match
    let v = value st in
    skip_ws st;
    if not (at_end st) then
      recover st "trailing garbage after the top-level value (ignored)";
    v
  with
  | v -> Ok (v, List.rev st.warnings)
  | exception Bad (pos, msg) ->
    Error (Printf.sprintf "json: at byte %d: %s" pos msg)

let parse src = Result.map fst (parse_result src)

(* ------------------------------------------------------------- equality *)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Num a, Num b | Str a, Str b -> String.equal a b
  | Arr a, Arr b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
    List.length a = List.length b
    && List.for_all2
         (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
         a b
  | (Null | Bool _ | Num _ | Str _ | Arr _ | Obj _), _ -> false

(* ------------------------------------------------------------ accessors *)

let member name = function
  | Obj members -> List.assoc_opt name members
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let str = function Str s -> Some s | _ -> None

let num = function Num lit -> float_of_string_opt lit | _ -> None

let bool = function Bool b -> Some b | _ -> None

let arr = function Arr items -> Some items | _ -> None

let bind o f = Option.bind o f

let mem_str name v = bind (member name v) str

let mem_num name v = bind (member name v) num

let mem_bool name v = bind (member name v) bool
