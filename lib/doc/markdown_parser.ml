module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ----------------------------------------------------------- line shapes *)

let indent_of line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] = ' ' do
    incr i
  done;
  !i

(* [Some (level, title)] for an ATX heading line. *)
let heading_of line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] = '#' do
    incr i
  done;
  if !i = 0 || !i > 6 then None
  else if !i < n && line.[!i] <> ' ' then None
  else Some (!i, Sentence.normalize (String.sub line !i (n - !i)))

(* [Some rest] when the line (after its indent) is a bullet or [1.] item. *)
let item_text_of line =
  let i = indent_of line in
  let n = String.length line in
  if i + 1 < n && (line.[i] = '-' || line.[i] = '*' || line.[i] = '+')
     && line.[i + 1] = ' '
  then Some (String.sub line (i + 2) (n - i - 2))
  else begin
    let j = ref i in
    while !j < n && match line.[!j] with '0' .. '9' -> true | _ -> false do
      incr j
    done;
    if !j > i && !j + 1 < n && line.[!j] = '.' && line.[!j + 1] = ' ' then
      Some (String.sub line (!j + 2) (n - !j - 2))
    else None
  end

(* The line, trimmed, starts with three backticks. *)
let is_fence line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && Scan.is_trim_space line.[!i] do
    incr i
  done;
  Scan.prefix_at line !i "```"

(* ----------------------------------------------------------------- parse *)

type frame = { indent : int; list_node : Node.t; mutable item : Node.t option }

type env = { lenient : bool; mutable warnings : string list }

let warn env fmt =
  Printf.ksprintf (fun s -> env.warnings <- s :: env.warnings) fmt

let parse_env env gen src =
  let doc = Tree.node gen Doc_tree.document [] in
  let cur_section = ref None in
  let cur_sub = ref None in
  (* innermost open list first *)
  let lists = ref ([] : frame list) in
  let para = Buffer.create 128 in
  (* Paragraph text only feeds [Sentence.split], which collapses
     whitespace; a separator goes before each piece, not after, so a
     one-line paragraph reaches it already normalized. *)
  let add_para s =
    if Buffer.length para > 0 then Buffer.add_char para ' ';
    Scan.add_trimmed para s
  in
  let block_container () =
    match (!cur_sub, !cur_section) with
    | Some s, _ -> s
    | None, Some s -> s
    | None, None -> doc
  in
  let attach_target () =
    match !lists with
    | { item = Some it; _ } :: _ -> it
    | { item = None; list_node; _ } :: _ -> list_node
    | [] -> block_container ()
  in
  let flush_para () =
    let text = Buffer.contents para in
    Buffer.clear para;
    let sentences = Sentence.split text in
    if sentences <> [] then begin
      let p =
        Tree.node gen Doc_tree.paragraph
          (List.map (fun s -> Tree.leaf gen Doc_tree.sentence s) sentences)
      in
      Node.append_child (attach_target ()) p
    end
  in
  (* Pop lists whose bullet sits at or right of [upto]: a line indented at
     [upto] belongs to the innermost list opened strictly left of it. *)
  let pop_lists_to upto =
    let popping = List.exists (fun f -> f.indent >= upto) !lists in
    if popping then flush_para ();
    while match !lists with f :: _ -> f.indent >= upto | [] -> false do
      lists := List.tl !lists
    done
  in
  let close_lists () = pop_lists_to 0 in
  let open_item ~indent text =
    flush_para ();
    (* clamp runaway indents to one step deeper than the innermost list *)
    let indent =
      match !lists with
      | [] -> 0
      | f :: _ -> if indent > f.indent + 2 then f.indent + 2 else indent
    in
    while match !lists with f :: _ -> f.indent > indent | [] -> false do
      lists := List.tl !lists
    done;
    (match !lists with
    | f :: _ when f.indent = indent -> ()
    | frames ->
      let parent =
        match frames with
        | { item = Some it; _ } :: _ -> it
        | { item = None; list_node; _ } :: _ -> list_node
        | [] -> block_container ()
      in
      let l = Tree.node gen Doc_tree.list [] in
      Node.append_child parent l;
      lists := { indent; list_node = l; item = None } :: frames);
    (match !lists with
    | f :: _ ->
      let it = Tree.node gen Doc_tree.item [] in
      Node.append_child f.list_node it;
      f.item <- Some it
    | [] -> assert false);
    add_para text
  in
  let heading level title =
    flush_para ();
    close_lists ();
    if level = 1 then begin
      let n = Tree.node gen Doc_tree.section ~value:title [] in
      Node.append_child doc n;
      cur_section := Some n;
      cur_sub := None
    end
    else begin
      (match !cur_section with
      | Some _ -> ()
      | None ->
        if env.lenient then
          warn env "subsection %S outside any section (kept at top level)"
            title
        else fail "subsection %S outside any section" title);
      let parent =
        match !cur_section with Some s -> s | None -> doc
      in
      let n = Tree.node gen Doc_tree.subsection ~value:title [] in
      Node.append_child parent n;
      cur_sub := Some n
    end
  in
  let in_fence = ref false in
  let lines = String.split_on_char '\n' src in
  List.iter
    (fun line ->
      let line =
        (* tolerate CRLF input *)
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      if is_fence line then begin
        in_fence := not !in_fence
      end
      else if !in_fence then begin
        (* code becomes plain paragraph text: it diffs fine as words *)
        add_para line
      end
      else if Scan.is_blank line then flush_para ()
      else
        match heading_of line with
        | Some (1, title) -> heading 1 title
        | Some (_, title) -> heading 2 title
        | None -> (
          match item_text_of line with
          | Some text -> open_item ~indent:(indent_of line) text
          | None ->
            if !lists <> [] then pop_lists_to (indent_of line);
            add_para line))
    lines;
  if !in_fence then begin
    if env.lenient then warn env "code fence not closed at end of input"
    else fail "code fence not closed at end of input"
  end;
  flush_para ();
  doc

let parse gen src = parse_env { lenient = false; warnings = [] } gen src

let parse_result ?(lenient = false) gen src =
  let env = { lenient; warnings = [] } in
  match parse_env env gen src with
  | t -> Ok (t, List.rev env.warnings)
  | exception Parse_error m -> Error m

(* ----------------------------------------------------------------- print *)

let sentence_text (p : Node.t) =
  Node.children p
  |> List.map (fun (s : Node.t) -> s.Node.value)
  |> String.concat " "

let print t =
  let buf = Buffer.create 1024 in
  let pad n = String.make n ' ' in
  let rec blocks ~indent nodes =
    List.iteri
      (fun i (n : Node.t) ->
        if i > 0 then Buffer.add_char buf '\n';
        block ~indent n)
      nodes
  and block ~indent (n : Node.t) =
    let l = n.Node.label in
    if String.equal l Doc_tree.paragraph then begin
      Buffer.add_string buf (pad indent);
      Buffer.add_string buf (sentence_text n);
      Buffer.add_char buf '\n'
    end
    else if String.equal l Doc_tree.list then list_block ~indent n
    else if String.equal l Doc_tree.section then begin
      Buffer.add_string buf (Printf.sprintf "# %s\n\n" n.Node.value);
      blocks ~indent (Node.children n)
    end
    else if String.equal l Doc_tree.subsection then begin
      Buffer.add_string buf (Printf.sprintf "## %s\n\n" n.Node.value);
      blocks ~indent (Node.children n)
    end
    else if String.equal l Doc_tree.sentence then begin
      (* a stray sentence renders as its own paragraph *)
      Buffer.add_string buf (pad indent);
      Buffer.add_string buf n.Node.value;
      Buffer.add_char buf '\n'
    end
    else
      invalid_arg
        (Printf.sprintf "Markdown_parser.print: unexpected label %S" l)
  and list_block ~indent (n : Node.t) =
    List.iter
      (fun (it : Node.t) ->
        if not (String.equal it.Node.label Doc_tree.item) then
          invalid_arg "Markdown_parser.print: list children must be items";
        Buffer.add_string buf (pad indent);
        Buffer.add_string buf "- ";
        let first_para, rest =
          match Node.children it with
          | (p : Node.t) :: rest
            when String.equal p.Node.label Doc_tree.paragraph ->
            (Some p, rest)
          | l -> (None, l)
        in
        (match first_para with
        | Some p -> Buffer.add_string buf (sentence_text p)
        | None -> ());
        Buffer.add_char buf '\n';
        List.iter
          (fun (b : Node.t) ->
            if String.equal b.Node.label Doc_tree.list then
              block ~indent:(indent + 2) b
            else begin
              Buffer.add_char buf '\n';
              block ~indent:(indent + 2) b
            end)
          rest)
      (Node.children n)
  in
  if not (String.equal t.Node.label Doc_tree.document) then
    invalid_arg "Markdown_parser.print: root must be a Document";
  blocks ~indent:0 (Node.children t);
  Buffer.contents buf
