module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type tok = Open of string | Close of string | Text of string

let decode_entities s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '&' then begin
      let j = ref (!i + 1) in
      while !j < n && !j < !i + 8 && s.[!j] <> ';' do
        incr j
      done;
      if !j < n && s.[!j] = ';' then begin
        let name = String.sub s (!i + 1) (!j - !i - 1) in
        (match name with
        | "amp" -> Buffer.add_char buf '&'
        | "lt" -> Buffer.add_char buf '<'
        | "gt" -> Buffer.add_char buf '>'
        | "quot" -> Buffer.add_char buf '"'
        | "apos" -> Buffer.add_char buf '\''
        | "nbsp" -> Buffer.add_char buf ' '
        | _ -> Buffer.add_string buf (String.sub s !i (!j - !i + 1)));
        i := !j + 1
      end
      else begin
        Buffer.add_char buf '&';
        incr i
      end
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let text = Buffer.create 128 in
  let flush () =
    if Buffer.length text > 0 then begin
      let t = decode_entities (Buffer.contents text) in
      Buffer.clear text;
      if String.trim t <> "" then toks := Text t :: !toks
    end
  in
  let i = ref 0 in
  (* Once a search finds no '>', no later '<' has one either: searching
     again for each '<' of a run would take quadratic time. *)
  let no_close = ref false in
  while !i < n do
    if src.[!i] = '<' then begin
      (match if !no_close then None else String.index_from_opt src !i '>' with
      | None ->
        no_close := true;
        Buffer.add_char text '<';
        incr i
      | Some close ->
        let inner = String.sub src (!i + 1) (close - !i - 1) in
        let inner = String.trim inner in
        if inner = "" || inner.[0] = '!' || inner.[0] = '?' then (* comment/doctype *)
          ()
        else begin
          flush ();
          let closing = inner.[0] = '/' in
          let inner = if closing then String.sub inner 1 (String.length inner - 1) else inner in
          let name =
            match String.index_opt inner ' ' with
            | Some sp -> String.sub inner 0 sp
            | None -> inner
          in
          let name = String.lowercase_ascii (String.trim name) in
          let name =
            (* self-closing syntax <br/> *)
            if String.length name > 0 && name.[String.length name - 1] = '/' then
              String.sub name 0 (String.length name - 1)
            else name
          in
          if name <> "" then toks := (if closing then Close name else Open name) :: !toks
        end;
        i := close + 1)
    end
    else begin
      Buffer.add_char text src.[!i];
      incr i
    end
  done;
  flush ();
  List.rev !toks

let skip_tags = [ "script"; "style"; "head"; "title" ]

(* Builder state: a stack of open containers; text accumulates into an
   implicit paragraph flushed at block boundaries. *)
type frame = { node : Node.t; kind : string }

let parse_state ~lenient ~warnings gen src =
  let toks = tokenize src in
  let doc = Tree.node gen Doc_tree.document [] in
  let stack = ref [ { node = doc; kind = "doc" } ] in
  let para = Buffer.create 128 in
  let top () = match !stack with f :: _ -> f | [] -> assert false in
  let flush_para () =
    let text = Buffer.contents para in
    Buffer.clear para;
    let sentences = Sentence.split text in
    if sentences <> [] then begin
      let p =
        Tree.node gen Doc_tree.paragraph
          (List.map (fun s -> Tree.leaf gen Doc_tree.sentence s) sentences)
      in
      Node.append_child (top ()).node p
    end
  in
  let pop_kind kind =
    flush_para ();
    if List.exists (fun f -> f.kind = kind) !stack then
      let rec pop () =
        match !stack with
        | [ _ ] | [] -> () (* never pop the document *)
        | f :: rest ->
          stack := rest;
          if f.kind <> kind then pop ()
      in
      pop ()
  in
  let push label kind =
    flush_para ();
    let n = Tree.node gen label [] in
    Node.append_child (top ()).node n;
    stack := { node = n; kind } :: !stack
  in
  (* implicit closes: a new <li> closes the open <li>; headings close
     paragraphs/sections as appropriate *)
  let close_until kinds =
    flush_para ();
    let rec loop () =
      match !stack with
      | f :: rest when f.kind <> "doc" && List.mem f.kind kinds ->
        stack := rest;
        loop ()
      | _ -> ()
    in
    loop ()
  in
  let heading_text = Buffer.create 64 in
  let in_heading = ref None in
  let in_skip = ref 0 in
  List.iter
    (fun tok ->
      match tok with
      | Open t when List.mem t skip_tags -> incr in_skip
      | Close t when List.mem t skip_tags -> if !in_skip > 0 then decr in_skip
      | _ when !in_skip > 0 -> ()
      | Text t -> (
        match !in_heading with
        | Some _ -> Buffer.add_string heading_text t
        | None ->
          Buffer.add_char para ' ';
          Buffer.add_string para t)
      | Open ("h1" | "h2" | "h3" as h) ->
        close_until [ "para" ];
        flush_para ();
        in_heading := Some h;
        Buffer.clear heading_text
      | Close ("h1" | "h2" | "h3") -> (
        match !in_heading with
        | None -> ()
        | Some h ->
          in_heading := None;
          let title = Sentence.normalize (Buffer.contents heading_text) in
          flush_para ();
          if h = "h1" then begin
            (* close everything back to the document *)
            let rec to_doc () =
              match !stack with
              | [ _ ] | [] -> ()
              | _ :: rest ->
                stack := rest;
                to_doc ()
            in
            to_doc ();
            let n = Tree.node gen Doc_tree.section ~value:title [] in
            Node.append_child doc n;
            stack := { node = n; kind = "section" } :: !stack
          end
          else begin
            (* close up to the enclosing section (or document) *)
            let rec to_section () =
              match !stack with
              | { kind = ("section" | "doc"); _ } :: _ -> ()
              | _ :: rest ->
                stack := rest;
                to_section ()
              | [] -> assert false
            in
            to_section ();
            let n = Tree.node gen Doc_tree.subsection ~value:title [] in
            Node.append_child (top ()).node n;
            stack := { node = n; kind = "subsection" } :: !stack
          end)
      | Open "p" ->
        flush_para ()
      | Close "p" -> flush_para ()
      | Open ("ul" | "ol" | "dl") -> push Doc_tree.list "list"
      | Close ("ul" | "ol" | "dl") ->
        if not (List.exists (fun f -> f.kind = "list" || f.kind = "item") !stack)
        then
          if lenient then
            warnings := "closing list tag with no open list" :: !warnings
          else fail "closing list tag with no open list";
        close_until [ "item" ];
        pop_kind "list"
      | Open ("li" | "dt" | "dd") ->
        close_until [ "item" ];
        if (top ()).kind <> "list" then
          (* tolerate <li> outside a list by opening an implicit one *)
          push Doc_tree.list "list";
        push Doc_tree.item "item"
      | Close ("li" | "dt" | "dd") -> close_until [ "item" ]
      | Open "br" | Close "br" -> Buffer.add_char para ' '
      | Open _ | Close _ -> () (* inline / unknown tags: keep their text *))
    toks;
  flush_para ();
  doc

let parse gen src = parse_state ~lenient:false ~warnings:(ref []) gen src

let parse_result ?(lenient = false) gen src =
  let warnings = ref [] in
  match parse_state ~lenient ~warnings gen src with
  | t -> Ok (t, List.rev !warnings)
  | exception Parse_error m -> Error m

(* --- tree -> HTML -------------------------------------------------------- *)

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
  let sentence_text (p : Node.t) =
    Node.children p
    |> List.map (fun (s : Node.t) -> escape_text s.Node.value)
    |> String.concat " "
  in
  let rec block (n : Node.t) =
    if String.equal n.Node.label Doc_tree.paragraph then
      Buffer.add_string buf (Printf.sprintf "<p>%s</p>\n" (sentence_text n))
    else if String.equal n.Node.label Doc_tree.list then begin
      Buffer.add_string buf "<ul>\n";
      List.iter
        (fun (it : Node.t) ->
          if not (String.equal it.Node.label Doc_tree.item) then
            invalid_arg "Html_parser.print: list children must be items";
          Buffer.add_string buf "<li>";
          List.iter block (Node.children it);
          Buffer.add_string buf "</li>\n")
        (Node.children n);
      Buffer.add_string buf "</ul>\n"
    end
    else if String.equal n.Node.label Doc_tree.section then begin
      Buffer.add_string buf
        (Printf.sprintf "<h1>%s</h1>\n" (escape_text n.Node.value));
      List.iter block (Node.children n)
    end
    else if String.equal n.Node.label Doc_tree.subsection then begin
      Buffer.add_string buf
        (Printf.sprintf "<h2>%s</h2>\n" (escape_text n.Node.value));
      List.iter block (Node.children n)
    end
    else if String.equal n.Node.label Doc_tree.sentence then
      Buffer.add_string buf
        (Printf.sprintf "<p>%s</p>\n" (escape_text n.Node.value))
    else
      invalid_arg
        (Printf.sprintf "Html_parser.print: unexpected label %S" n.Node.label)
  in
  if not (String.equal t.Node.label Doc_tree.document) then
    invalid_arg "Html_parser.print: root must be a Document";
  List.iter block (Node.children t);
  Buffer.contents buf
