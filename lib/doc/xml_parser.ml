module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node

exception Parse_error of string

let fail pos fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "at offset %d: %s" pos m)))
    fmt

let text_label = "#text"

(* ------------------------------------------------------------- scanning *)

type t_state = {
  src : string;
  mutable pos : int;
  lenient : bool;
  mutable warnings : string list;  (* reversed *)
}

let warn st pos fmt =
  Printf.ksprintf
    (fun m ->
      st.warnings <- Printf.sprintf "at offset %d: %s" pos m :: st.warnings)
    fmt

(* The scanner reads [st.src] in place: prefix tests compare bytes where
   they stand, text and attribute runs are copied in bulk, and a
   lookahead for a terminator is bounded by what the construct allows. *)

let at_end st = st.pos >= String.length st.src

(* The byte at the cursor; callers check [at_end] first. *)
let byte st = st.src.[st.pos]

let at_byte st c = (not (at_end st)) && byte st = c

let starts_with st s = Scan.prefix_at st.src st.pos s

let advance st n = st.pos <- st.pos + n

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st =
  while (not (at_end st)) && is_ws (byte st) do
    advance st 1
  done

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let at_name st = (not (at_end st)) && is_name_char (byte st)

(* Move past a run of name bytes; [fail] if there is none. *)
let skip_name st =
  let start = st.pos in
  while at_name st do
    advance st 1
  done;
  if st.pos = start then fail start "expected a name"

let name st =
  let start = st.pos in
  skip_name st;
  String.sub st.src start (st.pos - start)

(* The longest entity body is 8 bytes ("#x10FFFF"), so the closing ';'
   is looked for in that window only, never to the end of the input. *)
let max_entity = 8

let decode_entity st =
  (* at '&' *)
  let start = st.pos in
  advance st 1;
  let limit = min (String.length st.src) (st.pos + max_entity + 1) in
  let stop = ref st.pos in
  while !stop < limit && st.src.[!stop] <> ';' do
    incr stop
  done;
  let stop = !stop in
  if stop >= limit then
    if st.lenient then begin
      warn st start "unterminated entity reference";
      "&" (* lenient: keep the ampersand as literal text *)
    end
    else fail start "unterminated entity reference"
  else begin
  let body = String.sub st.src st.pos (stop - st.pos) in
  st.pos <- stop + 1;
  match body with
  | "amp" -> "&"
  | "lt" -> "<"
  | "gt" -> ">"
  | "quot" -> "\""
  | "apos" -> "'"
  | _ ->
    if String.length body > 1 && body.[0] = '#' then begin
      let code =
        if String.length body > 2 && (body.[1] = 'x' || body.[1] = 'X') then
          int_of_string_opt ("0x" ^ String.sub body 2 (String.length body - 2))
        else int_of_string_opt (String.sub body 1 (String.length body - 1))
      in
      match code with
      | Some c when c >= 0 && c < 128 -> String.make 1 (Char.chr c)
      | Some c when c >= 0 && c < 0x110000 ->
        (* UTF-8 encode the code point *)
        let buf = Buffer.create 4 in
        if c < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
        end
        else if c < 0x10000 then begin
          Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xF0 lor (c lsr 18)));
          Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 12) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
        end;
        Buffer.contents buf
      | _ ->
        if st.lenient then begin
          warn st start "invalid character reference &%s;" body;
          "&" ^ body ^ ";"
        end
        else fail start "invalid character reference &%s;" body
    end
    else if st.lenient then begin
      warn st start "unknown entity &%s;" body;
      "&" ^ body ^ ";"
    end
    else fail start "unknown entity &%s;" body
  end

(* Append [s.[start .. stop - 1]] to [buf] escaped for a double-quoted
   attribute value, copying the runs between escapes in bulk. *)
let add_escaped_attr buf s start stop =
  let from = ref start in
  for i = start to stop - 1 do
    match s.[i] with
    | ('&' | '<' | '"') as c ->
      Buffer.add_substring buf s !from (i - !from);
      Buffer.add_string buf
        (match c with '&' -> "&amp;" | '<' -> "&lt;" | _ -> "&quot;");
      from := i + 1
    | _ -> ()
  done;
  Buffer.add_substring buf s !from (stop - !from)

(* Move the cursor to the first byte satisfying [stop] (or the end) and
   append the bytes passed over to [buf], escaped. *)
let copy_run_escaped st buf stop =
  let start = st.pos in
  while (not (at_end st)) && not (stop (byte st)) do
    advance st 1
  done;
  add_escaped_attr buf st.src start st.pos

(* Decode one attribute value into [buf], escaped. *)
let attr_value st buf =
  if at_byte st '"' || at_byte st '\'' then begin
    let quote = byte st in
    advance st 1;
    let rec loop () =
      if at_end st then begin
        if st.lenient then warn st st.pos "unterminated attribute value"
        else fail st.pos "unterminated attribute value"
      end
      else if byte st = quote then advance st 1
      else if byte st = '&' then begin
        let d = decode_entity st in
        add_escaped_attr buf d 0 (String.length d);
        loop ()
      end
      else begin
        copy_run_escaped st buf (fun c -> c = quote || c = '&');
        loop ()
      end
    in
    loop ()
  end
  else if st.lenient then begin
    (* bare attribute value: read up to whitespace or tag end *)
    warn st st.pos "expected a quoted attribute value";
    copy_run_escaped st buf (fun c -> is_ws c || c = '>' || c = '/')
  end
  else fail st.pos "expected a quoted attribute value"

(* The node value of a tag's attributes: [k="v"] pairs in document order,
   one space apart, each value escaped.  Written straight into [buf]
   (cleared first), with no per-attribute string. *)
let attributes st buf =
  Buffer.clear buf;
  let rec loop () =
    skip_ws st;
    if at_name st then begin
      let start = st.pos in
      skip_name st;
      if Buffer.length buf > 0 then Buffer.add_char buf ' ';
      Buffer.add_substring buf st.src start (st.pos - start);
      Buffer.add_string buf "=\"";
      skip_ws st;
      if at_byte st '=' then begin
        advance st 1;
        skip_ws st;
        attr_value st buf
      end;
      Buffer.add_char buf '"';
      loop ()
    end
  in
  loop ();
  if Buffer.length buf = 0 then "" else Buffer.contents buf

(* ------------------------------------------------------------- document *)

let parse_state st gen =
  let src = st.src in
  let skip_misc () =
    (* whitespace, comments, PIs, doctype between markup *)
    let rec loop () =
      skip_ws st;
      if starts_with st "<!--" then begin
        match Scan.find_from src (st.pos + 4) "-->" with
        | -1 ->
          if st.lenient then begin
            warn st st.pos "unterminated comment";
            st.pos <- String.length src
          end
          else fail st.pos "unterminated comment"
        | i ->
          st.pos <- i + 3;
          loop ()
      end
      else if starts_with st "<?" then begin
        match String.index_from_opt src st.pos '>' with
        | Some i ->
          st.pos <- i + 1;
          loop ()
        | None ->
          if st.lenient then begin
            warn st st.pos "unterminated processing instruction";
            st.pos <- String.length src
          end
          else fail st.pos "unterminated processing instruction"
      end
      else if starts_with st "<!DOCTYPE" || starts_with st "<!doctype" then begin
        match String.index_from_opt src st.pos '>' with
        | Some i ->
          st.pos <- i + 1;
          loop ()
        | None ->
          if st.lenient then begin
            warn st st.pos "unterminated DOCTYPE";
            st.pos <- String.length src
          end
          else fail st.pos "unterminated DOCTYPE"
      end
    in
    loop ()
  in
  (* One text buffer and one attribute buffer serve the whole document:
     text is flushed before a child element starts and before an element
     ends, so the buffer is empty whenever control changes elements. *)
  let buf = Buffer.create 64 in
  let attr_buf = Buffer.create 64 in
  let flush_text node =
    if Buffer.length buf > 0 then begin
      let t = Sentence.normalize (Buffer.contents buf) in
      Buffer.clear buf;
      if t <> "" then Node.append_child node (Tree.leaf gen text_label t)
    end
  in
  (* [fill node closer] parses mixed content into [node].  [closer] is
     [Some (tag, open_pos)] inside an element, [None] for the lenient
     top-level forest scan. *)
  let rec element () =
    (* at '<' of an open tag *)
    let open_pos = st.pos in
    advance st 1;
    let tag = name st in
    let value = attributes st attr_buf in
    skip_ws st;
    let node = Tree.node gen tag ~value [] in
    if starts_with st "/>" then begin
      advance st 2;
      node
    end
    else if at_byte st '>' then begin
      advance st 1;
      fill node (Some (tag, open_pos));
      node
    end
    else if st.lenient then begin
      warn st st.pos "expected '>' or '/>' in tag <%s>" tag;
      (match String.index_from_opt src st.pos '>' with
      | Some i ->
        st.pos <- i + 1;
        fill node (Some (tag, open_pos))
      | None -> st.pos <- String.length src);
      node
    end
    else fail st.pos "expected '>' or '/>' in tag <%s>" tag
  and fill node closer =
    let top_level = Option.is_none closer in
    let rec content () =
      if at_end st then begin
        match closer with
        | Some (tag, open_pos) ->
          if st.lenient then begin
            warn st open_pos "element <%s> is never closed" tag;
            flush_text node
          end
          else fail open_pos "element <%s> is never closed" tag
        | None -> flush_text node
      end
      else if starts_with st "</" then begin
        flush_text node;
        let close_pos = st.pos in
        advance st 2;
        if st.lenient && not (at_name st) then begin
          warn st close_pos "malformed closing tag";
          (match String.index_from_opt src st.pos '>' with
          | Some i -> st.pos <- i + 1
          | None -> st.pos <- String.length src);
          content ()
        end
        else begin
          let close = name st in
          skip_ws st;
          (if at_byte st '>' then advance st 1
           else if st.lenient then begin
             warn st st.pos "expected '>' in closing tag";
             match String.index_from_opt src st.pos '>' with
             | Some i -> st.pos <- i + 1
             | None -> st.pos <- String.length src
           end
           else fail st.pos "expected '>' in closing tag");
          match closer with
          | Some (tag, open_pos) ->
            if close <> tag then
              if st.lenient then
                (* mismatched close: end this element here anyway *)
                warn st open_pos "element <%s> closed by </%s>" tag close
              else fail open_pos "element <%s> closed by </%s>" tag close
          | None ->
            (* top level (lenient only): stray closing tag is junk *)
            warn st close_pos "stray closing tag </%s>" close;
            content ()
        end
      end
      else if starts_with st "<![CDATA[" then begin
        advance st 9;
        let limit = String.length src in
        (match Scan.find_from src st.pos "]]>" with
        | -1 ->
          if st.lenient then begin
            warn st st.pos "unterminated CDATA";
            Buffer.add_substring buf src st.pos (limit - st.pos);
            st.pos <- limit
          end
          else fail st.pos "unterminated CDATA"
        | stop ->
          Buffer.add_substring buf src st.pos (stop - st.pos);
          st.pos <- stop + 3);
        content ()
      end
      else if
        starts_with st "<!--" || starts_with st "<?"
        || (top_level
           && (starts_with st "<!DOCTYPE" || starts_with st "<!doctype"))
      then begin
        flush_text node;
        skip_misc ();
        content ()
      end
      else if byte st = '<' then
        if st.lenient && not (st.pos + 1 < String.length src && is_name_char src.[st.pos + 1])
        then begin
          (* stray '<' that opens no tag: literal text *)
          Buffer.add_char buf '<';
          advance st 1;
          content ()
        end
        else begin
          flush_text node;
          Node.append_child node (element ());
          content ()
        end
      else if byte st = '&' then begin
        Buffer.add_string buf (decode_entity st);
        content ()
      end
      else begin
        (* a text run, copied in bulk up to the next markup or entity *)
        let start = st.pos in
        while (not (at_end st)) && byte st <> '<' && byte st <> '&' do
          advance st 1
        done;
        Buffer.add_substring buf src start (st.pos - start);
        content ()
      end
    in
    content ()
  in
  if st.lenient then begin
    (* Lenient: parse a top-level forest; a lone element stays the root,
       anything else is wrapped in a synthetic #document node. *)
    let doc = Tree.node gen "#document" [] in
    fill doc None;
    match Node.children doc with
    | [ only ] when not (String.equal only.Node.label text_label) ->
      Node.detach only;
      only
    | [] ->
      warn st st.pos "expected a root element";
      doc
    | _ ->
      warn st 0 "multiple top-level items wrapped under #document";
      doc
  end
  else begin
    skip_misc ();
    if not (at_byte st '<') then fail st.pos "expected a root element";
    let root = element () in
    skip_misc ();
    if st.pos <> String.length src then
      fail st.pos "content after the root element";
    root
  end

let parse gen src =
  parse_state { src; pos = 0; lenient = false; warnings = [] } gen

let parse_result ?(lenient = false) gen src =
  let st = { src; pos = 0; lenient; warnings = [] } in
  match parse_state st gen with
  | t -> Ok (t, List.rev st.warnings)
  | exception Parse_error m -> Error m

(* ----------------------------------------------------------------- print *)

let escape_text s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print t =
  let buf = Buffer.create 1024 in
  let rec emit (n : Node.t) =
    if String.equal n.Node.label text_label then Buffer.add_string buf (escape_text n.Node.value)
    else begin
      Buffer.add_char buf '<';
      Buffer.add_string buf n.Node.label;
      if n.Node.value <> "" then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf n.Node.value
      end;
      if Node.is_leaf n then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter emit (Node.children n);
        Buffer.add_string buf "</";
        Buffer.add_string buf n.Node.label;
        Buffer.add_char buf '>'
      end
    end
  in
  emit t;
  Buffer.contents buf
