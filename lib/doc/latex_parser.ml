module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree

exception Parse_error of string

type tok =
  | Sec of string
  | Subsec of string
  | Begin_list
  | End_list
  | Item
  | Text of string
  | Par_break

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Lenient-mode context: recoveries collect here instead of raising. *)
type env = { lenient : bool; mutable warnings : string list (* reversed *) }

let warn env fmt = Printf.ksprintf (fun s -> env.warnings <- s :: env.warnings) fmt

let list_envs = [ "itemize"; "enumerate"; "description" ]

(* Strip comments; keep \% as a literal.  A '%' outside a comment starts
   one unless a backslash precedes it, and a comment runs to the end of
   its line, whose newline is kept.  The text between comments is copied
   in bulk; a source without '%' is returned as it is. *)
let strip_comments s =
  let n = String.length s in
  let rec next_comment i =
    match String.index_from_opt s i '%' with
    | Some p when p > 0 && s.[p - 1] = '\\' -> next_comment (p + 1)
    | Some p -> p
    | None -> n
  in
  let first = next_comment 0 in
  if first = n then s
  else begin
    let buf = Buffer.create n in
    let rec copy from comment =
      Buffer.add_substring buf s from (comment - from);
      if comment < n then
        match String.index_from_opt s comment '\n' with
        | None -> ()
        | Some nl ->
          Buffer.add_char buf '\n';
          if nl + 1 < n then copy (nl + 1) (next_comment (nl + 1))
    in
    copy 0 first;
    Buffer.contents buf
  end

let body s =
  let begin_doc = "\\begin{document}" in
  let end_doc = "\\end{document}" in
  match Scan.find_from s 0 begin_doc with
  | -1 -> s
  | b ->
    let start = b + String.length begin_doc in
    let stop =
      match Scan.find_from s 0 end_doc with
      | e when e >= start -> e
      | _ -> String.length s
    in
    String.sub s start (stop - start)

(* Read a balanced {...} group starting at s.[i] = '{'; returns contents and
   the position after the closing brace. *)
let braced env s i =
  let n = String.length s in
  if i >= n || s.[i] <> '{' then
    if env.lenient then begin
      warn env "expected '{' at offset %d" i;
      ("", i)
    end
    else fail "expected '{' at offset %d" i
  else begin
    let depth = ref 1 in
    let j = ref (i + 1) in
    let buf = Buffer.create 32 in
    while !depth > 0 && !j < n do
      (match s.[!j] with
      | '{' ->
        incr depth;
        if !depth > 1 then Buffer.add_char buf '{'
      | '}' ->
        decr depth;
        if !depth > 0 then Buffer.add_char buf '}'
      | c -> Buffer.add_char buf c);
      incr j
    done;
    if !depth > 0 then
      if env.lenient then warn env "unbalanced '{' at offset %d" i
      else fail "unbalanced '{' at offset %d" i;
    (Buffer.contents buf, !j)
  end

let tokenize env src =
  let s = body (strip_comments src) in
  let n = String.length s in
  let toks = ref [] in
  let text = Buffer.create 128 in
  let flush_text () =
    if Buffer.length text > 0 then begin
      let t = Buffer.contents text in
      Buffer.clear text;
      if not (Scan.is_blank t) then toks := Text t :: !toks
    end
  in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '\n' then begin
      (* blank line (possibly with spaces) = paragraph break *)
      let j = ref (!i + 1) in
      while !j < n && (s.[!j] = ' ' || s.[!j] = '\t') do
        incr j
      done;
      if !j < n && s.[!j] = '\n' then begin
        flush_text ();
        toks := Par_break :: !toks;
        while !j < n && (s.[!j] = '\n' || s.[!j] = ' ' || s.[!j] = '\t') do
          incr j
        done;
        i := !j
      end
      else begin
        Buffer.add_char text ' ';
        incr i
      end
    end
    else if s.[!i] = '\\' then begin
      if Scan.prefix_at s !i "\\section" then begin
        flush_text ();
        let title, j = braced env s (!i + String.length "\\section") in
        toks := Sec (Sentence.normalize title) :: !toks;
        i := j
      end
      else if Scan.prefix_at s !i "\\subsection" then begin
        flush_text ();
        let title, j = braced env s (!i + String.length "\\subsection") in
        toks := Subsec (Sentence.normalize title) :: !toks;
        i := j
      end
      else if Scan.prefix_at s !i "\\begin{" then begin
        let env, j = braced env s (!i + String.length "\\begin") in
        if List.mem env list_envs then begin
          flush_text ();
          toks := Begin_list :: !toks;
          i := j
        end
        else begin
          (* unknown environment: keep the marker as text *)
          Buffer.add_string text (Printf.sprintf "\\begin{%s}" env);
          i := j
        end
      end
      else if Scan.prefix_at s !i "\\end{" then begin
        let env, j = braced env s (!i + String.length "\\end") in
        if List.mem env list_envs then begin
          flush_text ();
          toks := End_list :: !toks;
          i := j
        end
        else begin
          Buffer.add_string text (Printf.sprintf "\\end{%s}" env);
          i := j
        end
      end
      else if Scan.prefix_at s !i "\\item" then begin
        flush_text ();
        toks := Item :: !toks;
        i := !i + String.length "\\item"
      end
      else begin
        (* Unrecognised command: copy the backslash and continue as text. *)
        Buffer.add_char text '\\';
        incr i
      end
    end
    else begin
      (* a text run, copied in bulk up to the next newline or command *)
      let start = !i in
      while !i < n && s.[!i] <> '\n' && s.[!i] <> '\\' do
        incr i
      done;
      Buffer.add_substring text s start (!i - start)
    end
  done;
  flush_text ();
  List.rev !toks

(* --- token stream -> tree ------------------------------------------------ *)

(* Blocks (paragraphs and lists) until a stopper token; returns the built
   child nodes and the remaining tokens (with the stopper still present). *)
let rec parse_blocks env gen toks ~in_list =
  let blocks = ref [] in
  let para = Buffer.create 128 in
  let flush_para () =
    let text = Buffer.contents para in
    Buffer.clear para;
    let sentences = Sentence.split text in
    if sentences <> [] then
      blocks :=
        Tree.node gen Doc_tree.paragraph
          (List.map (fun snt -> Tree.leaf gen Doc_tree.sentence snt) sentences)
        :: !blocks
  in
  let rec loop toks =
    match toks with
    | [] -> []
    | (Sec _ | Subsec _) :: _ ->
      if in_list then
        if env.lenient then
          (* heading terminates the list early; reprocessed by the caller *)
          warn env "section heading inside a list"
        else fail "section heading inside a list";
      toks
    | (End_list | Item) :: _ when in_list -> toks
    | End_list :: rest ->
      if env.lenient then begin
        warn env "\\end{list} without matching \\begin";
        loop rest
      end
      else fail "\\end{list} without matching \\begin"
    | Item :: _ as toks ->
      if env.lenient then begin
        (* open an implicit list around the stray items *)
        warn env "\\item outside of a list environment";
        flush_para ();
        let items, rest = parse_items env gen toks in
        blocks := Tree.node gen Doc_tree.list items :: !blocks;
        loop rest
      end
      else fail "\\item outside of a list environment"
    | Par_break :: rest ->
      flush_para ();
      loop rest
    | Text t :: rest ->
      (* the text only feeds [Sentence.split], which collapses whitespace:
         a separator between pieces is enough *)
      if Buffer.length para > 0 then Buffer.add_char para ' ';
      Buffer.add_string para t;
      loop rest
    | Begin_list :: rest ->
      flush_para ();
      let items, rest = parse_items env gen rest in
      blocks := Tree.node gen Doc_tree.list items :: !blocks;
      loop rest
  in
  let rest = loop toks in
  flush_para ();
  (List.rev !blocks, rest)

and parse_items env gen toks =
  let items = ref [] in
  let rec loop toks =
    match toks with
    | Item :: rest ->
      let blocks, rest = parse_blocks env gen rest ~in_list:true in
      items := Tree.node gen Doc_tree.item blocks :: !items;
      loop rest
    | End_list :: rest -> rest
    | Par_break :: rest -> loop rest (* stray breaks between items *)
    | Text t :: _ ->
      if env.lenient then begin
        (* wrap leading content in an implicit item *)
        warn env "text %S before first \\item" (String.trim t);
        let blocks, rest = parse_blocks env gen toks ~in_list:true in
        items := Tree.node gen Doc_tree.item blocks :: !items;
        loop rest
      end
      else fail "text %S before first \\item" (String.trim t)
    | (Sec _ | Subsec _) :: _ ->
      if env.lenient then begin
        (* heading terminates the unterminated list *)
        warn env "section heading inside a list";
        toks
      end
      else fail "section heading inside a list"
    | Begin_list :: _ ->
      if env.lenient then begin
        warn env "nested list before first \\item";
        let blocks, rest = parse_blocks env gen toks ~in_list:true in
        items := Tree.node gen Doc_tree.item blocks :: !items;
        loop rest
      end
      else fail "nested list before first \\item"
    | [] ->
      if env.lenient then begin
        warn env "unterminated list environment";
        []
      end
      else fail "unterminated list environment"
  in
  let rest = loop toks in
  (List.rev !items, rest)

let rec parse_subsections env gen toks =
  match toks with
  | Subsec title :: rest ->
    let blocks, rest = parse_blocks env gen rest ~in_list:false in
    let subs, rest = parse_subsections env gen rest in
    (Tree.node gen Doc_tree.subsection ~value:title blocks :: subs, rest)
  | _ -> ([], toks)

let rec parse_sections env gen toks =
  match toks with
  | Sec title :: rest ->
    let blocks, rest = parse_blocks env gen rest ~in_list:false in
    let subs, rest = parse_subsections env gen rest in
    let secs, rest = parse_sections env gen rest in
    (Tree.node gen Doc_tree.section ~value:title (blocks @ subs) :: secs, rest)
  | _ -> ([], toks)

let parse_env env gen src =
  let toks = tokenize env src in
  let preamble, rest = parse_blocks env gen toks ~in_list:false in
  let sections, rest = parse_sections env gen rest in
  let trailing =
    if env.lenient then begin
      (* Drain whatever structure is left: top-level subsections are kept as
         section-level children; anything else is dropped one token at a
         time so the scan always terminates. *)
      let rec drain acc toks =
        match toks with
        | [] -> List.rev acc
        | Subsec _ :: _ ->
          warn env "\\subsection outside any section";
          let subs, rest = parse_subsections env gen toks in
          let secs, rest = parse_sections env gen rest in
          drain (List.rev_append secs (List.rev_append subs acc)) rest
        | _ :: rest ->
          warn env "unparsed trailing structure";
          drain acc rest
      in
      drain [] rest
    end
    else begin
      (match rest with
      | [] -> ()
      | Subsec t :: _ -> fail "\\subsection{%s} outside any section" t
      | _ -> fail "unparsed trailing structure");
      []
    end
  in
  Tree.node gen Doc_tree.document (preamble @ sections @ trailing)

let parse gen src = parse_env { lenient = false; warnings = [] } gen src

let parse_result ?(lenient = false) gen src =
  let env = { lenient; warnings = [] } in
  match parse_env env gen src with
  | t -> Ok (t, List.rev env.warnings)
  | exception Parse_error m -> Error m

(* --- tree -> LaTeX ------------------------------------------------------- *)

let print t =
  let buf = Buffer.create 1024 in
  let rec blocks nodes =
    List.iteri
      (fun i (n : Node.t) ->
        if i > 0 then Buffer.add_char buf '\n';
        block n)
      nodes
  and block (n : Node.t) =
    if String.equal n.Node.label Doc_tree.paragraph then begin
      List.iteri
        (fun i (s : Node.t) ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf s.Node.value)
        (Node.children n);
      Buffer.add_char buf '\n'
    end
    else if String.equal n.Node.label Doc_tree.list then begin
      Buffer.add_string buf "\\begin{itemize}\n";
      List.iter
        (fun (it : Node.t) ->
          Buffer.add_string buf "\\item ";
          blocks (Node.children it))
        (Node.children n);
      Buffer.add_string buf "\\end{itemize}\n"
    end
    else if String.equal n.Node.label Doc_tree.section then begin
      Buffer.add_string buf (Printf.sprintf "\\section{%s}\n\n" n.Node.value);
      blocks (Node.children n)
    end
    else if String.equal n.Node.label Doc_tree.subsection then begin
      Buffer.add_string buf (Printf.sprintf "\\subsection{%s}\n\n" n.Node.value);
      blocks (Node.children n)
    end
    else
      invalid_arg (Printf.sprintf "Latex_parser.print: unexpected label %S" n.Node.label)
  in
  if not (String.equal t.Node.label Doc_tree.document) then
    invalid_arg "Latex_parser.print: root must be a Document";
  blocks (Node.children t);
  Buffer.contents buf
