module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node

exception Parse_error of string

(* Labels of the JSON tree shape.  Lower-case on purpose: the document
   schema's labels are capitalized, so the two vocabularies cannot be
   confused by the matcher. *)
let l_obj = "obj"
let l_arr = "arr"
let l_member = "member"
let l_str = "str"
let l_num = "num"
let l_bool = "bool"
let l_null = "null"

type state = {
  src : string;
  mutable pos : int;
  lenient : bool;
  mutable warnings : string list;
}

let fail st fmt =
  Printf.ksprintf
    (fun s -> raise (Parse_error (Printf.sprintf "offset %d: %s" st.pos s)))
    fmt

(* In lenient mode a recovery warns and continues; in strict mode it is an
   error.  [recover] returns true when the caller should apply its fix. *)
let recover st fmt =
  Printf.ksprintf
    (fun s ->
      if st.lenient then begin
        st.warnings <- Printf.sprintf "offset %d: %s" st.pos s :: st.warnings;
        true
      end
      else raise (Parse_error (Printf.sprintf "offset %d: %s" st.pos s)))
    fmt

let eof st = st.pos >= String.length st.src
let peek st = st.src.[st.pos]

let skip_ws st =
  while
    (not (eof st))
    && (match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  if eof st then fail st "expected %C, got end of input" c
  else if peek st <> c then fail st "expected %C, got %C" c (peek st)
  else st.pos <- st.pos + 1

(* --------------------------------------------------------------- strings *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

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

let is_high u = u >= 0xD800 && u <= 0xDBFF
let is_low u = u >= 0xDC00 && u <= 0xDFFF

(* [quote] is ['"'] for JSON strings; lenient mode also reaches here with
   ['\''] for single-quoted strings. *)
let parse_string_body st quote =
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof st then begin
      ignore (recover st "unterminated string (closed at end of input)");
      Buffer.contents buf
    end
    else
      let c = peek st in
      if c = quote then begin
        st.pos <- st.pos + 1;
        Buffer.contents buf
      end
      else if c = '\\' then begin
        st.pos <- st.pos + 1;
        if eof st then begin
          ignore (recover st "dangling escape at end of input");
          Buffer.add_char buf '\\';
          Buffer.contents buf
        end
        else begin
          (match peek st with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if st.pos + 4 < String.length st.src then begin
              let v = hex4 st.src (st.pos + 1) in
              if v < 0 then begin
                ignore (recover st "bad \\u escape (kept literally)");
                Buffer.add_string buf "\\u"
              end
              else begin
                (* A high surrogate directly followed by a \u-escaped low
                   one is one code point.  Every unpaired half becomes
                   U+FFFD, so the text is always well-formed UTF-8; an
                   escape after an unpaired high is left for the next
                   round (it may start a pair of its own). *)
                let next = st.pos + 5 in
                let lo =
                  if
                    is_high v
                    && next + 1 < String.length st.src
                    && st.src.[next] = '\\'
                    && st.src.[next + 1] = 'u'
                  then hex4 st.src (next + 2)
                  else -1
                in
                if is_low lo then begin
                  add_utf8 buf (0x10000 + ((v - 0xD800) lsl 10) + (lo - 0xDC00));
                  st.pos <- st.pos + 10
                end
                else begin
                  add_utf8 buf (if is_high v || is_low v then 0xFFFD else v);
                  st.pos <- st.pos + 4
                end
              end
            end
            else begin
              ignore (recover st "truncated \\u escape (kept literally)");
              Buffer.add_string buf "\\u"
            end
          | c ->
            ignore (recover st "unknown escape \\%C (kept literally)" c);
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
          st.pos <- st.pos + 1;
          loop ()
        end
      end
      else begin
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        loop ()
      end
  in
  loop ()

let parse_quoted st =
  if eof st then fail st "expected a string, got end of input"
  else
    match peek st with
    | '"' ->
      st.pos <- st.pos + 1;
      parse_string_body st '"'
    | '\'' ->
      if recover st "single-quoted string" then begin
        st.pos <- st.pos + 1;
        parse_string_body st '\''
      end
      else assert false (* recover raised in strict mode *)
    | c -> fail st "expected a string, got %C" c

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '$' -> true
  | _ -> false

(* An object key: a quoted string, or (lenient) a bare identifier. *)
let parse_key st =
  if (not (eof st)) && is_ident_char (peek st) && peek st <> '-' then begin
    let start = st.pos in
    while (not (eof st)) && is_ident_char (peek st) do
      st.pos <- st.pos + 1
    done;
    let key = String.sub st.src start (st.pos - start) in
    ignore (recover st "unquoted object key %S" key);
    key
  end
  else parse_quoted st

(* --------------------------------------------------------------- numbers *)

let parse_number st =
  let start = st.pos in
  if (not (eof st)) && peek st = '-' then st.pos <- st.pos + 1;
  let digits () =
    let n0 = st.pos in
    while (not (eof st)) && match peek st with '0' .. '9' -> true | _ -> false do
      st.pos <- st.pos + 1
    done;
    st.pos > n0
  in
  if not (digits ()) then fail st "malformed number";
  if (not (eof st)) && peek st = '.' then begin
    st.pos <- st.pos + 1;
    if not (digits ()) then fail st "malformed number (missing fraction digits)"
  end;
  if (not (eof st)) && (peek st = 'e' || peek st = 'E') then begin
    st.pos <- st.pos + 1;
    if (not (eof st)) && (peek st = '+' || peek st = '-') then
      st.pos <- st.pos + 1;
    if not (digits ()) then fail st "malformed number (missing exponent digits)"
  end;
  String.sub st.src start (st.pos - start)

(* ---------------------------------------------------------------- values *)

let literal st word =
  let n = String.length word in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = word

let rec parse_value st gen =
  skip_ws st;
  if eof st then fail st "expected a value, got end of input"
  else
    match peek st with
    | '{' ->
      st.pos <- st.pos + 1;
      parse_members st gen []
    | '[' ->
      st.pos <- st.pos + 1;
      parse_elements st gen []
    | '"' | '\'' -> Tree.leaf gen l_str (parse_quoted st)
    | 't' when literal st "true" ->
      st.pos <- st.pos + 4;
      Tree.leaf gen l_bool "true"
    | 'f' when literal st "false" ->
      st.pos <- st.pos + 5;
      Tree.leaf gen l_bool "false"
    | 'n' when literal st "null" ->
      st.pos <- st.pos + 4;
      Tree.node gen l_null []
    | '-' | '0' .. '9' -> Tree.leaf gen l_num (parse_number st)
    | c -> fail st "unexpected character %C" c

and parse_members st gen acc =
  skip_ws st;
  if eof st then begin
    ignore (recover st "object not closed at end of input");
    Tree.node gen l_obj (List.rev acc)
  end
  else if peek st = '}' then begin
    st.pos <- st.pos + 1;
    Tree.node gen l_obj (List.rev acc)
  end
  else begin
    let key = parse_key st in
    skip_ws st;
    expect st ':';
    let value = parse_value st gen in
    let member = Tree.node gen l_member ~value:key [ value ] in
    skip_ws st;
    if eof st then parse_members st gen (member :: acc)
    else
      match peek st with
      | ',' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if (not (eof st)) && peek st = '}' then
          ignore (recover st "trailing comma in object");
        parse_members st gen (member :: acc)
      | '}' -> parse_members st gen (member :: acc)
      | c -> fail st "expected ',' or '}' in object, got %C" c
  end

and parse_elements st gen acc =
  skip_ws st;
  if eof st then begin
    ignore (recover st "array not closed at end of input");
    Tree.node gen l_arr (List.rev acc)
  end
  else if peek st = ']' then begin
    st.pos <- st.pos + 1;
    Tree.node gen l_arr (List.rev acc)
  end
  else begin
    let value = parse_value st gen in
    skip_ws st;
    if eof st then parse_elements st gen (value :: acc)
    else
      match peek st with
      | ',' ->
        st.pos <- st.pos + 1;
        skip_ws st;
        if (not (eof st)) && peek st = ']' then
          ignore (recover st "trailing comma in array");
        parse_elements st gen (value :: acc)
      | ']' -> parse_elements st gen (value :: acc)
      | c -> fail st "expected ',' or ']' in array, got %C" c
  end

let parse_toplevel st gen =
  let t = parse_value st gen in
  skip_ws st;
  if not (eof st) then
    ignore (recover st "trailing garbage after the top-level value (ignored)");
  t

let parse gen src =
  parse_toplevel { src; pos = 0; lenient = false; warnings = [] } gen

let parse_result ?(lenient = false) gen src =
  let st = { src; pos = 0; lenient; warnings = [] } in
  match parse_toplevel st gen with
  | t -> Ok (t, List.rev st.warnings)
  | exception Parse_error m -> Error m

(* ----------------------------------------------------------------- print *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
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
  Buffer.add_char buf '"';
  Buffer.contents buf

let print t =
  let buf = Buffer.create 256 in
  let pad depth = String.make (2 * depth) ' ' in
  let rec value depth (n : Node.t) =
    let l = n.Node.label in
    if String.equal l l_str then Buffer.add_string buf (escape_string n.Node.value)
    else if String.equal l l_num || String.equal l l_bool then
      Buffer.add_string buf n.Node.value
    else if String.equal l l_null then Buffer.add_string buf "null"
    else if String.equal l l_arr then container depth '[' ']' (value (depth + 1)) n
    else if String.equal l l_obj then container depth '{' '}' (member (depth + 1)) n
    else
      invalid_arg
        (Printf.sprintf "Json_parser.print: unexpected label %S" l)
  and container depth open_ close render (n : Node.t) =
    if Node.child_count n = 0 then begin
      Buffer.add_char buf open_;
      Buffer.add_char buf close
    end
    else begin
      Buffer.add_char buf open_;
      Buffer.add_char buf '\n';
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (depth + 1));
          render c)
        (Node.children n);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad depth);
      Buffer.add_char buf close
    end
  and member depth (n : Node.t) =
    if not (String.equal n.Node.label l_member) then
      invalid_arg
        (Printf.sprintf "Json_parser.print: expected a member, got %S"
           n.Node.label);
    if Node.child_count n <> 1 then
      invalid_arg "Json_parser.print: a member must have exactly one child";
    Buffer.add_string buf (escape_string n.Node.value);
    Buffer.add_string buf ": ";
    value depth (Node.child n 0)
  in
  value 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf
