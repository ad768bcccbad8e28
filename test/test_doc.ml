(* Tests for Treediff_doc: sentence segmentation, the LaTeX and HTML
   parsers, mark-up rendering, and the LaDiff pipeline. *)

module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Iso = Treediff_tree.Iso
module Doc = Treediff_doc.Doc_tree
module Sentence = Treediff_doc.Sentence
module Latex = Treediff_doc.Latex_parser
module Html = Treediff_doc.Html_parser
module Codec = Treediff_tree.Codec
module Markup = Treediff_doc.Markup
module Ladiff = Treediff_doc.Ladiff
module P = Treediff_util.Prng

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* -------------------------------------------------------------- sentence *)

let test_normalize () =
  Alcotest.(check string) "collapse whitespace" "a b c" (Sentence.normalize "  a\n b\tc ")

let test_split_simple () =
  Alcotest.(check (list string)) "plain split" [ "One two."; "Three four." ]
    (Sentence.split "One two. Three four.");
  Alcotest.(check (list string)) "question and bang" [ "Really?"; "Yes!"; "Ok." ]
    (Sentence.split "Really? Yes! Ok.");
  Alcotest.(check (list string)) "no terminator" [ "dangling clause" ]
    (Sentence.split "dangling clause");
  Alcotest.(check (list string)) "empty" [] (Sentence.split "   ")

let test_split_abbreviations () =
  Alcotest.(check int) "e.g. does not split" 1
    (List.length (Sentence.split "We use LCS (e.g. the Myers variant) here."));
  Alcotest.(check int) "etc. mid-sentence" 1
    (List.length (Sentence.split "Inserts, deletes, etc. are supported."));
  Alcotest.(check int) "initial does not split" 1
    (List.length (Sentence.split "Written by S. Chawathe and friends."))

let test_split_quotes () =
  Alcotest.(check (list string)) "closing quote attaches"
    [ {|He said "stop." |} |> String.trim; "Then left." ]
    (Sentence.split {|He said "stop." Then left.|})

(* A run of terminators splits in linear time: the word before a
   terminator is read only where the terminator ends a sentence.  Each
   input here is 200 KB; when every dot re-read its word back to the
   previous space, this test ran for over 30 s. *)
let test_split_terminator_run () =
  let dots = String.make 200_000 '.' in
  let mixed = String.init 200_000 (fun i -> ".!?".[i mod 3]) in
  Alcotest.(check (list string)) "dots are one sentence" [ dots ] (Sentence.split dots);
  Alcotest.(check (list string)) "mixed run is one sentence" [ mixed ]
    (Sentence.split mixed);
  let sentences (f : Treediff_doc.Format.t) src =
    match f.Treediff_doc.Format.parse_result ~lenient:false (Tree.gen ()) src with
    | Ok (t, _) -> List.map (fun (l : Node.t) -> l.Node.value) (Node.leaves t)
    | Error e -> Alcotest.failf "%s: %s" f.Treediff_doc.Format.name e
  in
  List.iter
    (fun ((f : Treediff_doc.Format.t), src) ->
      Alcotest.(check (list string)) (f.Treediff_doc.Format.name ^ " paragraph of dots")
        [ dots ] (sentences f src))
    Treediff_doc.Format.
      [ (latex, dots ^ "\n"); (markdown, dots ^ "\n"); (html, "<p>" ^ dots ^ "</p>") ]

(* ----------------------------------------------------------------- latex *)

let sample_latex =
  {|\documentclass{article}
\begin{document}
Preamble paragraph here. It has two sentences.

\section{One}
% a comment line
First para of section one.

Second para. With two sentences.

\subsection{One point one}
Subsection text.

\begin{itemize}
\item First item text.
\item Second item. Two sentences here.
\end{itemize}

\section{Two}
Final text.
\end{document}
|}

let test_latex_structure () =
  let gen = Tree.gen () in
  let t = Latex.parse gen sample_latex in
  Alcotest.(check string) "root" Doc.document t.Node.label;
  (* preamble paragraph + 2 sections *)
  Alcotest.(check int) "root arity" 3 (Node.child_count t);
  let sec1 = Node.child t 1 in
  Alcotest.(check string) "section label" Doc.section sec1.Node.label;
  Alcotest.(check string) "section title" "One" sec1.Node.value;
  (* 2 paragraphs + 1 subsection *)
  Alcotest.(check int) "section children" 3 (Node.child_count sec1);
  let subsec = Node.child sec1 2 in
  Alcotest.(check string) "subsection" Doc.subsection subsec.Node.label;
  (* paragraph + list *)
  let lst = Node.child subsec 1 in
  Alcotest.(check string) "list label" Doc.list lst.Node.label;
  Alcotest.(check int) "items" 2 (Node.child_count lst);
  Alcotest.(check string) "item label" Doc.item (Node.child lst 0).Node.label;
  Alcotest.(check int) "second item sentences" 2
    (Node.leaf_count (Node.child lst 1));
  Treediff_tree.Invariant.check_exn t

let test_latex_comments_stripped () =
  let gen = Tree.gen () in
  let t = Latex.parse gen "Text before. % gone\nMore text here.\n" in
  let values = List.map (fun (n : Node.t) -> n.Node.value) (Node.leaves t) in
  Alcotest.(check bool) "comment dropped" true
    (List.for_all (fun v -> not (contains ~sub:"gone" v)) values)

let test_latex_escaped_percent () =
  let gen = Tree.gen () in
  let t = Latex.parse gen "Fifty \\% of nodes moved today.\n" in
  Alcotest.(check bool) "literal percent kept" true
    (List.exists
       (fun (n : Node.t) -> contains ~sub:"\\%" n.Node.value)
       (Node.leaves t))

let test_latex_unknown_commands_kept () =
  let gen = Tree.gen () in
  let t = Latex.parse gen "Uses \\textbf{bold} words here.\n" in
  Alcotest.(check bool) "command text preserved" true
    (List.exists
       (fun (n : Node.t) -> contains ~sub:"\\textbf{bold}" n.Node.value)
       (Node.leaves t))

let test_latex_errors () =
  let gen = Tree.gen () in
  let fails src =
    match Latex.parse gen src with exception Latex.Parse_error _ -> true | _ -> false
  in
  Alcotest.(check bool) "unbalanced brace" true (fails "\\section{oops");
  Alcotest.(check bool) "item outside list" true (fails "\\item stray");
  Alcotest.(check bool) "unterminated list" true (fails "\\begin{itemize}\\item x");
  Alcotest.(check bool) "end without begin" true (fails "\\end{itemize}")

let test_latex_print_parse_roundtrip () =
  let gen = Tree.gen () in
  let t = Latex.parse gen sample_latex in
  let printed = Latex.print t in
  let t2 = Latex.parse (Tree.gen ()) printed in
  Alcotest.(check bool) "round-trip" true (Iso.equal t t2)

let latex_roundtrip_prop =
  QCheck2.Test.make ~name:"print/parse round-trip on generated documents" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t = Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small in
      let t2 = Latex.parse (Tree.gen ()) (Latex.print t) in
      Iso.equal t t2)

(* ------------------------------------------------------------------ html *)

let sample_html =
  {|<!DOCTYPE html><html><head><title>T</title><style>p{}</style></head>
<body>
<h1>Section &amp; One</h1>
<p>First paragraph. Two sentences.</p>
<h2>Sub</h2>
<p>Some <b>bold</b> text here.</p>
<ul><li>Item one.</li><li>Item two.</li></ul>
<h1>Two</h1>
<p>Closing&nbsp;words.</p>
</body></html>|}

let test_html_structure () =
  let gen = Tree.gen () in
  let t = Html.parse gen sample_html in
  Alcotest.(check string) "root" Doc.document t.Node.label;
  Alcotest.(check int) "two sections" 2 (Node.child_count t);
  let s1 = Node.child t 0 in
  Alcotest.(check string) "entity decoded" "Section & One" s1.Node.value;
  (* paragraph + subsection *)
  Alcotest.(check int) "section children" 2 (Node.child_count s1);
  let sub = Node.child s1 1 in
  Alcotest.(check string) "subsection" Doc.subsection sub.Node.label;
  (* paragraph + list *)
  Alcotest.(check int) "sub children" 2 (Node.child_count sub);
  let lst = Node.child sub 1 in
  Alcotest.(check int) "two items" 2 (Node.child_count lst);
  Alcotest.(check bool) "inline tag stripped, text kept" true
    (List.exists
       (fun (n : Node.t) -> contains ~sub:"bold" n.Node.value)
       (Node.leaves sub));
  Alcotest.(check bool) "head content dropped" true
    (List.for_all
       (fun (n : Node.t) -> not (contains ~sub:"p{}" n.Node.value))
       (Node.leaves t))

let test_html_tag_soup () =
  let gen = Tree.gen () in
  (* unclosed <p> and <li>: must still parse *)
  let t = Html.parse gen "<h1>X</h1><p>one<p>two<ul><li>a<li>b</ul>" in
  Alcotest.(check int) "one section" 1 (Node.child_count t);
  let sec = Node.child t 0 in
  Alcotest.(check bool) "has list" true
    (List.exists
       (fun (n : Node.t) -> String.equal n.Node.label Doc.list)
       (Node.preorder sec))

let test_html_error () =
  let gen = Tree.gen () in
  Alcotest.(check bool) "stray close rejected" true
    (match Html.parse gen "</ul>" with
    | exception Html.Parse_error _ -> true
    | _ -> false)

(* A '<' with no '>' after it is text.  The expected trees and warnings
   on short inputs are the ones the parser gave before the search for '>'
   stopped after its first miss.  The 40 000-'<' run must take linear
   time: a fresh search for '>' at every '<' made it quadratic. *)
let test_html_lt_run () =
  let parse ~lenient src =
    match Html.parse_result ~lenient (Tree.gen ()) src with
    | Ok (t, w) -> Codec.to_string ~indent:false t ^ " " ^ String.concat "|" w
    | Error e -> "error " ^ e
  in
  List.iter
    (fun (src, strict, lenient) ->
      Alcotest.(check string) (src ^ " strict") strict (parse ~lenient:false src);
      Alcotest.(check string) (src ^ " lenient") lenient (parse ~lenient:true src))
    [
      ("<<<", {|(Document (Paragraph (Sentence "<<<"))) |}, {|(Document (Paragraph (Sentence "<<<"))) |});
      ( "<p>one < two. Three <",
        {|(Document (Paragraph (Sentence "one < two.") (Sentence "Three <"))) |},
        {|(Document (Paragraph (Sentence "one < two.") (Sentence "Three <"))) |} );
      ( "a < b <p>c</p> d <<",
        {|(Document (Paragraph (Sentence "a c")) (Paragraph (Sentence "d <<"))) |},
        {|(Document (Paragraph (Sentence "a c")) (Paragraph (Sentence "d <<"))) |} );
      ( "<ul><li>x</ul></ul> <<",
        "error closing list tag with no open list",
        {|(Document (List (Item (Paragraph (Sentence "x")))) (Paragraph (Sentence "<<"))) closing list tag with no open list|}
      );
      ("<h1>T<</h1>", "(Document) ", "(Document) ");
      ("x <b>y</b> <z", {|(Document (Paragraph (Sentence "x y <z"))) |}, {|(Document (Paragraph (Sentence "x y <z"))) |});
    ];
  let lts = String.make 40_000 '<' in
  List.iter
    (fun lenient ->
      match Html.parse_result ~lenient (Tree.gen ()) lts with
      | Ok (t, w) ->
        Alcotest.(check (list string)) "one sentence of '<'" [ lts ]
          (List.map (fun (n : Node.t) -> n.Node.value) (Node.leaves t));
        Alcotest.(check int) "no warnings" 0 (List.length w)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ false; true ]

(* ---------------------------------------------------------------- markup *)

let diff_docs old_src new_src = Ladiff.run ~old_src ~new_src ()

let test_markup_insert_bold () =
  let out =
    diff_docs "\\section{A}\n\nOne two three. Four five six.\n"
      "\\section{A}\n\nOne two three. Brand new sentence. Four five six.\n"
  in
  Alcotest.(check bool) "bold insert" true
    (contains ~sub:"\\textbf{Brand new sentence.}" (Lazy.force out.Ladiff.marked_latex))

let test_markup_delete_small () =
  let out =
    diff_docs "\\section{A}\n\nOne two three. Dead sentence here. Four five six.\n"
      "\\section{A}\n\nOne two three. Four five six.\n"
  in
  Alcotest.(check bool) "small delete" true
    (contains ~sub:"{\\small Dead sentence here.}" (Lazy.force out.Ladiff.marked_latex))

let test_markup_update_italic () =
  let out =
    diff_docs "\\section{A}\n\nThe quick brown fox jumps. Other stays.\n"
      "\\section{A}\n\nThe quick brown fox leaps. Other stays.\n"
  in
  Alcotest.(check bool) "italic update" true
    (contains ~sub:"\\textit{The quick brown fox leaps.}" (Lazy.force out.Ladiff.marked_latex))

let test_markup_move_footnote () =
  let out =
    diff_docs
      "\\section{A}\n\nMoving target sentence. One two three. Four five six.\n"
      "\\section{A}\n\nOne two three. Four five six. Moving target sentence.\n"
  in
  Alcotest.(check bool) "footnote at destination" true
    (contains ~sub:"\\footnote{Moved from S1}" (Lazy.force out.Ladiff.marked_latex));
  Alcotest.(check bool) "label at origin" true
    (contains ~sub:"S1:[" (Lazy.force out.Ladiff.marked_latex))

let test_markup_summary_and_text () =
  let out =
    diff_docs
      "\\section{A}\n\nAlpha beta gamma delta. Second stays put. Third stays too.\n"
      "\\section{A}\n\nAlpha beta gamma delta. Second stays put. Third stays too. \
       Fresh addition to the text.\n"
  in
  Alcotest.(check string) "summary" "1 inserted, 0 deleted, 0 updated, 0 moved"
    (Markup.summary out.Ladiff.result.Treediff.Diff.delta);
  Alcotest.(check bool) "text rendering marks insert" true
    (contains ~sub:"{+ Sentence: Fresh addition to the text.}" out.Ladiff.marked_text)

(* ---------------------------------------------------------------- schema *)

module Schema = Treediff_doc.Schema

let test_schema_accepts_parser_output () =
  let gen = Tree.gen () in
  let t = Latex.parse gen sample_latex in
  Alcotest.(check bool) "latex output valid" true (Schema.validate t = Ok ());
  let h = Html.parse (Tree.gen ()) sample_html in
  Alcotest.(check bool) "html output valid" true (Schema.validate h = Ok ())

let schema_accepts_generated_prop =
  QCheck2.Test.make ~name:"generated and mutated documents stay schema-valid" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = P.create seed in
      let gen = Tree.gen () in
      let t = Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small in
      let t2, _ = Treediff_workload.Mutate.mutate g gen t ~actions:(1 + P.int g 15) in
      Schema.validate t = Ok () && Schema.validate t2 = Ok ())

let test_schema_rejections () =
  let gen = Tree.gen () in
  let reject t = Schema.validate t <> Ok () in
  Alcotest.(check bool) "wrong root" true
    (reject (Tree.node gen Doc.section ~value:"t" []));
  Alcotest.(check bool) "sentence under document" true
    (reject (Tree.node gen Doc.document [ Tree.leaf gen Doc.sentence "x" ]));
  Alcotest.(check bool) "item outside list" true
    (reject (Tree.node gen Doc.document [ Tree.node gen Doc.item [] ]));
  Alcotest.(check bool) "sentence with children" true
    (reject
       (Tree.node gen Doc.document
          [ Tree.node gen Doc.paragraph
              [ Tree.node gen Doc.sentence ~value:"x" [ Tree.leaf gen Doc.sentence "y" ] ] ]));
  Alcotest.(check bool) "block after subsection" true
    (reject
       (Tree.node gen Doc.document
          [ Tree.node gen Doc.section ~value:"s"
              [ Tree.node gen Doc.subsection ~value:"ss" [];
                Tree.node gen Doc.paragraph [ Tree.leaf gen Doc.sentence "late" ] ] ]));
  Alcotest.(check bool) "foreign label" true
    (reject (Tree.node gen Doc.document [ Tree.node gen "Chapter" [] ]))

let test_schema_accepts_nested_lists () =
  let gen = Tree.gen () in
  let t =
    Tree.node gen Doc.document
      [ Tree.node gen Doc.list
          [ Tree.node gen Doc.item
              [ Tree.node gen Doc.list
                  [ Tree.node gen Doc.item
                      [ Tree.node gen Doc.paragraph [ Tree.leaf gen Doc.sentence "deep" ] ] ] ] ] ]
  in
  Alcotest.(check bool) "nested lists allowed (merged label)" true
    (Schema.validate t = Ok ())

(* ------------------------------------------------------------------- xml *)

module Xml = Treediff_doc.Xml_parser

let test_xml_structure () =
  let gen = Tree.gen () in
  let t =
    Xml.parse gen
      {|<?xml version="1.0"?>
<!-- catalog dump -->
<catalog date="2026-07-06">
  <movie id="1"><title>Casablanca</title><director>Curtiz</director></movie>
  <movie id="2"/>
</catalog>|}
  in
  Alcotest.(check string) "root label" "catalog" t.Node.label;
  Alcotest.(check string) "root attrs" {|date="2026-07-06"|} t.Node.value;
  Alcotest.(check int) "two movies" 2 (Node.child_count t);
  let m1 = Node.child t 0 in
  Alcotest.(check string) "attr value" {|id="1"|} m1.Node.value;
  let title = Node.child m1 0 in
  Alcotest.(check string) "element label" "title" title.Node.label;
  Alcotest.(check string) "text leaf" "Casablanca" (Node.child title 0).Node.value;
  Alcotest.(check string) "text label" "#text" (Node.child title 0).Node.label;
  Alcotest.(check bool) "self-closing is leaf" true (Node.is_leaf (Node.child t 1));
  Treediff_tree.Invariant.check_exn t

let test_xml_entities_and_cdata () =
  let gen = Tree.gen () in
  let t = Xml.parse gen {|<a k="x&amp;y">1 &lt; 2 &#65; <![CDATA[<raw> & stuff]]></a>|} in
  Alcotest.(check string) "attr entity" {|k="x&amp;y"|} t.Node.value;
  Alcotest.(check string) "text entities and cdata" "1 < 2 A <raw> & stuff"
    (Node.child t 0).Node.value

let test_xml_errors () =
  let gen = Tree.gen () in
  let fails s =
    match Xml.parse gen s with exception Xml.Parse_error _ -> true | _ -> false
  in
  Alcotest.(check bool) "crossing tags" true (fails "<a><b></a></b>");
  Alcotest.(check bool) "unclosed" true (fails "<a><b></b>");
  Alcotest.(check bool) "no root" true (fails "   just text");
  Alcotest.(check bool) "two roots" true (fails "<a/><b/>");
  Alcotest.(check bool) "bad entity" true (fails "<a>&bogus;</a>");
  Alcotest.(check bool) "unterminated comment" true (fails "<!-- oops <a/>")

(* The closing ';' of an entity is looked for only as far as the longest
   entity body reaches.  A lenient run of bare '&' keeps one warning per
   '&' (1 000 for 1 000, as before the bound) and its text, and takes
   linear time: when each '&' looked for a ';' to the end of the input,
   this test took 18 s. *)
let test_xml_ampersand_run () =
  let warnings n =
    let amps = String.make n '&' in
    match Xml.parse_result ~lenient:true (Tree.gen ()) ("<r>" ^ amps ^ "</r>") with
    | Ok (t, w) ->
      Alcotest.(check string) "ampersands kept as text" amps (Node.child t 0).Node.value;
      List.length w
    | Error e -> Alcotest.failf "lenient parse failed: %s" e
  in
  Alcotest.(check int) "one warning per '&'" 1_000 (warnings 1_000);
  Alcotest.(check int) "200 000 '&'" 200_000 (warnings 200_000)

let test_xml_roundtrip () =
  let gen = Tree.gen () in
  let src = {|<cat a="1"><x b="2">text one</x><y/><z>more &amp; text</z></cat>|} in
  let t = Xml.parse gen src in
  let t2 = Xml.parse (Tree.gen ()) (Xml.print t) in
  Alcotest.(check bool) "parse/print/parse stable" true (Iso.equal t t2)

let test_xml_diff_end_to_end () =
  let gen = Tree.gen () in
  let t1 =
    Xml.parse gen
      {|<library><shelf n="a"><book><t>Alpha beta gamma</t></book><book><t>Delta epsilon</t></book></shelf></library>|}
  in
  let t2 =
    Xml.parse gen
      {|<library><shelf n="a"><book><t>Delta epsilon</t></book><book><t>Alpha beta gamma</t></book></shelf></library>|}
  in
  let r = Treediff.Diff.diff t1 t2 in
  Alcotest.(check bool) "verifies" true (Treediff.Diff.check r ~t1 ~t2 = Ok ());
  Alcotest.(check int) "swap is a single move" 1 (List.length r.Treediff.Diff.script)

(* ------------------------------------------------------------ html markup *)

module Html_markup = Treediff_doc.Html_markup

let test_html_escape () =
  Alcotest.(check string) "entities" "&lt;a&gt; &amp; &quot;b&quot;"
    (Html_markup.escape {|<a> & "b"|})

let test_html_markup_devices () =
  let out =
    diff_docs
      "\\section{A}\n\nMover sentence goes south. One two three. Four five six. \
       Doomed sentence here.\n"
      "\\section{A}\n\nOne two three. Four five six. Mover sentence goes south. \
       Brand new words arrive.\n"
  in
  let html = Html_markup.to_html out.Ladiff.result.Treediff.Diff.delta in
  Alcotest.(check bool) "ins element" true (contains ~sub:"<ins>" html);
  Alcotest.(check bool) "del element" true (contains ~sub:"<del>" html);
  Alcotest.(check bool) "move anchor" true (contains ~sub:"id=\"src-S1\"" html);
  Alcotest.(check bool) "move link" true (contains ~sub:"href=\"#src-S1\"" html);
  Alcotest.(check bool) "escaped content only" true
    (not (contains ~sub:"<script" html))

let test_html_markup_update_tooltip () =
  let out =
    diff_docs "\\section{A}\n\nThe quick brown fox jumps. Other stays here.\n"
      "\\section{A}\n\nThe quick brown fox leaps. Other stays here.\n"
  in
  let html = Html_markup.to_html out.Ladiff.result.Treediff.Diff.delta in
  Alcotest.(check bool) "em with old text tooltip" true
    (contains ~sub:"title=\"was: The quick brown fox jumps.\"" html)

let test_html_markup_full_page () =
  let out =
    diff_docs "\\section{A}\n\nSome words here.\n" "\\section{A}\n\nSome words here.\n"
  in
  let html =
    Html_markup.to_html ~full_page:true ~title:"t<x>" out.Ladiff.result.Treediff.Diff.delta
  in
  Alcotest.(check bool) "doctype" true (contains ~sub:"<!DOCTYPE html>" html);
  Alcotest.(check bool) "style embedded" true (contains ~sub:"<style>" html);
  Alcotest.(check bool) "title escaped" true (contains ~sub:"t&lt;x&gt;" html)

let test_html_markup_escapes_content () =
  let out =
    diff_docs "\\section{A}\n\nSafe sentence with math a < b stays.\n"
      "\\section{A}\n\nSafe sentence with math a < b stays. New one with c > d too.\n"
  in
  let html = Html_markup.to_html out.Ladiff.result.Treediff.Diff.delta in
  Alcotest.(check bool) "lt escaped" true (contains ~sub:"a &lt; b" html);
  Alcotest.(check bool) "gt escaped" true (contains ~sub:"c &gt; d" html)

(* ---------------------------------------------------------------- ladiff *)

let test_ladiff_check () =
  let out =
    diff_docs
      "\\section{A}\n\nSome opening text here. More of the same.\n\n\\section{B}\n\nTail words.\n"
      "\\section{A}\n\nSome opening text here changed. More of the same.\n\n\\section{B}\n\nTail words.\n"
  in
  Alcotest.(check bool) "script verifies" true
    (Treediff.Diff.check out.Ladiff.result ~t1:out.Ladiff.old_tree ~t2:out.Ladiff.new_tree
    = Ok ())

let test_ladiff_html_format () =
  let out =
    Ladiff.run ~format:Treediff_doc.Format.html
      ~old_src:"<h1>A</h1><p>Alpha beta gamma. Delta epsilon.</p>"
      ~new_src:"<h1>A</h1><p>Alpha beta gamma. Delta epsilon zeta.</p>" ()
  in
  Alcotest.(check bool) "html diff verifies" true
    (Treediff.Diff.check out.Ladiff.result ~t1:out.Ladiff.old_tree ~t2:out.Ladiff.new_tree
    = Ok ())

let test_doc_tree_schema () =
  Alcotest.(check bool) "schema membership" true (Doc.is_document_label "Paragraph");
  Alcotest.(check bool) "non-member" false (Doc.is_document_label "Chapter");
  let g = P.create 3 in
  let gen = Tree.gen () in
  let t = Treediff_workload.Docgen.generate g gen Treediff_workload.Docgen.small in
  Alcotest.(check int) "sentence_count = leaves" (List.length (Node.leaves t))
    (Doc.sentence_count t)

let () =
  Alcotest.run "doc"
    [
      ( "sentence",
        [
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "split" `Quick test_split_simple;
          Alcotest.test_case "abbreviations" `Quick test_split_abbreviations;
          Alcotest.test_case "quotes" `Quick test_split_quotes;
          Alcotest.test_case "terminator run, linear" `Quick test_split_terminator_run;
        ] );
      ( "latex",
        [
          Alcotest.test_case "structure" `Quick test_latex_structure;
          Alcotest.test_case "comments stripped" `Quick test_latex_comments_stripped;
          Alcotest.test_case "escaped percent" `Quick test_latex_escaped_percent;
          Alcotest.test_case "unknown commands kept" `Quick test_latex_unknown_commands_kept;
          Alcotest.test_case "errors" `Quick test_latex_errors;
          Alcotest.test_case "round-trip" `Quick test_latex_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest latex_roundtrip_prop;
        ] );
      ( "html",
        [
          Alcotest.test_case "structure" `Quick test_html_structure;
          Alcotest.test_case "tag soup" `Quick test_html_tag_soup;
          Alcotest.test_case "stray close" `Quick test_html_error;
          Alcotest.test_case "lt run, linear" `Quick test_html_lt_run;
        ] );
      ( "markup",
        [
          Alcotest.test_case "insert -> bold" `Quick test_markup_insert_bold;
          Alcotest.test_case "delete -> small" `Quick test_markup_delete_small;
          Alcotest.test_case "update -> italic" `Quick test_markup_update_italic;
          Alcotest.test_case "move -> footnote + label" `Quick test_markup_move_footnote;
          Alcotest.test_case "summary and text" `Quick test_markup_summary_and_text;
        ] );
      ( "schema",
        [
          Alcotest.test_case "parser outputs valid" `Quick test_schema_accepts_parser_output;
          Alcotest.test_case "rejections" `Quick test_schema_rejections;
          Alcotest.test_case "nested lists allowed" `Quick test_schema_accepts_nested_lists;
          QCheck_alcotest.to_alcotest schema_accepts_generated_prop;
        ] );
      ( "xml",
        [
          Alcotest.test_case "structure" `Quick test_xml_structure;
          Alcotest.test_case "entities and cdata" `Quick test_xml_entities_and_cdata;
          Alcotest.test_case "errors" `Quick test_xml_errors;
          Alcotest.test_case "ampersand run, linear" `Quick test_xml_ampersand_run;
          Alcotest.test_case "round-trip" `Quick test_xml_roundtrip;
          Alcotest.test_case "diff end to end" `Quick test_xml_diff_end_to_end;
        ] );
      ( "html-markup",
        [
          Alcotest.test_case "escape" `Quick test_html_escape;
          Alcotest.test_case "devices" `Quick test_html_markup_devices;
          Alcotest.test_case "update tooltip" `Quick test_html_markup_update_tooltip;
          Alcotest.test_case "full page" `Quick test_html_markup_full_page;
          Alcotest.test_case "content escaped" `Quick test_html_markup_escapes_content;
        ] );
      ( "ladiff",
        [
          Alcotest.test_case "script verifies" `Quick test_ladiff_check;
          Alcotest.test_case "html format" `Quick test_ladiff_html_format;
          Alcotest.test_case "schema helpers" `Quick test_doc_tree_schema;
        ] );
    ]
