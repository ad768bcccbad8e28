exception Parse_error of string

(* Self-consistent escaping (the parser below reads exactly this): printable
   characters verbatim; quote, backslash, newline, tab, CR as named escapes;
   other control bytes as backslash-ddd. *)
let escape v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | ch when Char.code ch < 32 || Char.code ch = 127 ->
        Buffer.add_string buf (Printf.sprintf "\\%03d" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    v;
  Buffer.contents buf

let render op =
  match op with
  | Op.Insert { id; label; value; parent; pos } ->
    if value = "" then Printf.sprintf "INS((%d,%s),%d,%d)" id label parent pos
    else Printf.sprintf "INS((%d,%s,\"%s\"),%d,%d)" id label (escape value) parent pos
  | Op.Delete { id } -> Printf.sprintf "DEL(%d)" id
  | Op.Update { id; value } -> Printf.sprintf "UPD(%d,\"%s\")" id (escape value)
  | Op.Move { id; parent; pos } -> Printf.sprintf "MOV(%d,%d,%d)" id parent pos

let to_string ?dummy script =
  (match dummy with None -> "" | Some d1 -> Printf.sprintf "ROOT(%d)\n" d1)
  ^ String.concat "\n" (List.map render script)
  ^ if script = [] then "" else "\n"

(* ----------------------------------------------------------------- parse *)

(* A tiny cursor over one line.  [opno] is the 1-based ordinal of the
   operation in the script (comment and blank lines do not count), so an
   error in a long stored script names the op to look at, not just a
   file position. *)
type cursor = { line : string; lineno : int; opno : int; mutable pos : int }

(* The token under the cursor, for error messages: a maximal run of
   label/number/string characters, or the single delimiter itself. *)
let token_at c =
  let n = String.length c.line in
  if c.pos >= n then None
  else
    let is_tok = function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '#'
      | '@' | '"' | '\\' ->
        true
      | _ -> false
    in
    if not (is_tok c.line.[c.pos]) then Some (String.make 1 c.line.[c.pos])
    else begin
      let e = ref c.pos in
      while !e < n && is_tok c.line.[!e] do
        incr e
      done;
      Some (String.sub c.line c.pos (!e - c.pos))
    end

let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      let where =
        match token_at c with
        | Some tok -> Printf.sprintf " (offending token %S)" tok
        | None -> " (at end of line)"
      in
      raise
        (Parse_error
           (Printf.sprintf "%sline %d, column %d: %s%s"
              (if c.opno = 0 then "ROOT, " else Printf.sprintf "op %d, " c.opno)
              c.lineno (c.pos + 1) msg where)))
    fmt

let peek c = if c.pos < String.length c.line then Some c.line.[c.pos] else None

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c "expected %C, found %C" ch x
  | None -> fail c "expected %C, found end of line" ch

let int_lit c =
  let start = c.pos in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  while (match peek c with Some ('0' .. '9') -> true | _ -> false) do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected an integer";
  let digits = String.sub c.line start (c.pos - start) in
  match int_of_string_opt digits with
  | Some n -> n
  | None -> fail c "integer literal %s out of range" digits

let ident c =
  let start = c.pos in
  while
    match peek c with
    | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' | '#' | '@') ->
      true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected a label";
  String.sub c.line start (c.pos - start)

let string_lit c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string literal"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
      c.pos <- c.pos + 1;
      match peek c with
      | Some 'n' ->
        Buffer.add_char buf '\n';
        c.pos <- c.pos + 1;
        loop ()
      | Some 't' ->
        Buffer.add_char buf '\t';
        c.pos <- c.pos + 1;
        loop ()
      | Some '\\' ->
        Buffer.add_char buf '\\';
        c.pos <- c.pos + 1;
        loop ()
      | Some '"' ->
        Buffer.add_char buf '"';
        c.pos <- c.pos + 1;
        loop ()
      | Some 'r' ->
        Buffer.add_char buf '\r';
        c.pos <- c.pos + 1;
        loop ()
      | Some ('0' .. '9') ->
        (* \ddd decimal byte *)
        if c.pos + 2 >= String.length c.line then fail c "truncated \\ddd escape";
        let digits = String.sub c.line c.pos 3 in
        (match int_of_string_opt digits with
        | Some code when code >= 0 && code <= 255 ->
          Buffer.add_char buf (Char.chr code);
          c.pos <- c.pos + 3;
          loop ()
        | Some _ | None -> fail c "invalid \\ddd escape %S" digits)
      | Some x -> fail c "unknown escape '\\%c'" x
      | None -> fail c "unterminated escape")
    | Some x ->
      Buffer.add_char buf x;
      c.pos <- c.pos + 1;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_line ~opno lineno line =
  let c = { line; lineno; opno; pos = 0 } in
  let op_name = ident c in
  expect c '(';
  let op =
    match op_name with
    | "INS" ->
      expect c '(';
      let id = int_lit c in
      expect c ',';
      let label = ident c in
      let value = if peek c = Some ',' then begin
          expect c ',';
          string_lit c
        end
        else ""
      in
      expect c ')';
      expect c ',';
      let parent = int_lit c in
      expect c ',';
      let pos = int_lit c in
      Op.Insert { id; label; value; parent; pos }
    | "DEL" ->
      let id = int_lit c in
      Op.Delete { id }
    | "UPD" ->
      let id = int_lit c in
      expect c ',';
      let value = string_lit c in
      Op.Update { id; value }
    | "MOV" ->
      let id = int_lit c in
      expect c ',';
      let parent = int_lit c in
      expect c ',';
      let pos = int_lit c in
      Op.Move { id; parent; pos }
    | other -> fail c "unknown operation %S (INS|DEL|UPD|MOV)" other
  in
  expect c ')';
  if c.pos <> String.length line then fail c "trailing characters after operation";
  op

(* The optional first line [ROOT(d1)]; anywhere else [ROOT] is an unknown
   operation. *)
let root_line lineno line =
  let c = { line; lineno; opno = 0; pos = String.length "ROOT(" } in
  let d1 = int_lit c in
  expect c ')';
  if c.pos <> String.length line then fail c "trailing characters after ROOT(d1)";
  d1

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  in
  let dummy, lines =
    match lines with
    | (lineno, line) :: rest when String.starts_with ~prefix:"ROOT(" line ->
      (Some (root_line lineno line), rest)
    | _ -> (None, lines)
  in
  (dummy, List.mapi (fun i (lineno, line) -> parse_line ~opno:(i + 1) lineno line) lines)

let parse s =
  match of_string s with
  | parsed -> Ok parsed
  | exception Parse_error msg -> Error msg
  | exception exn ->
    (* A parser must never escalate bad input into a crash; anything else
       escaping [of_string] is reported, not propagated. *)
    Error ("unexpected parser failure: " ^ Printexc.to_string exn)
