(* Conformance suite for the format registry (lib/doc/format.ml).

   Every registered format — iterated from [Format.all], so a newly added
   format is covered without touching this file — must:

   - parse its own rendered output back to the same tree (and the render
     of the re-parse must be byte-identical: render is a fixpoint);
   - recover from malformed input in lenient mode iff it advertises
     [caps.lenient], reporting at least one warning when it does;
   - survive a full [treediff check] self-check (diff, verify, apply);
   - round-trip through the version store (commit + materialize) with
     byte-identical rendering.

   The suite also pins the satellite guarantees: CLI and daemon report the
   {e exact same} registry error text for an unknown format name, the
   side-by-side and summary renderers work from both entry points, and
   ladiff accepts any registry format. *)

module Format = Treediff_doc.Format
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node
module Shard = Treediff_store.Shard
module Json = Treediff_util.Json
module Protocol = Treediff_serve.Protocol
module Handler = Treediff_serve.Handler
module Prng = Treediff_util.Prng

(* ---------------------------------------------------------- cli helpers *)
(* Same conventions as test_cli.ml: binaries live at ../bin relative to the
   test's cwd (_build/default/test), and so do the example fixtures. *)

let bin name =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let fixture name =
  let dir = Filename.dirname Sys.executable_name in
  List.fold_left Filename.concat dir [ ".."; "examples"; "pairs"; name ]

let tmp_file contents =
  let path = Filename.temp_file "treediff_fmt" ".txt" in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
  path

let rm_rf path = ignore (Sys.command ("rm -rf " ^ Filename.quote path))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run cmd =
  let out = Filename.temp_file "treediff_out" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>/dev/null" cmd out) in
  let stdout = read_file out in
  Sys.remove out;
  (code, stdout)

(* like [run] but folds stderr in: unknown-format errors land there *)
let run_err cmd =
  let out = Filename.temp_file "treediff_out" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd out) in
  let output = read_file out in
  Sys.remove out;
  (code, output)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* collapse whitespace runs to single spaces: cmdliner reflows long error
   messages at the terminal width, so exact substrings span line breaks *)
let squeeze s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      let c = if c = '\n' || c = '\t' then ' ' else c in
      if c <> ' ' || (Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> ' ')
      then Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ----------------------------------------------------- per-format input *)

let sexp_old = {|(D (P (S "alpha") (S "beta")) (P (S "gamma")) (P (S "delta")))|}
let sexp_new = {|(D (P (S "gamma")) (P (S "alpha") (S "chi")) (P (S "delta")))|}

let xml_old =
  "<doc><entry>one</entry><entry>two</entry><note>keep this</note></doc>\n"

let xml_new =
  "<doc><note>keep this</note><entry>one</entry><entry>2</entry>\
   <extra>brand new</extra></doc>\n"

let html_old =
  "<h1>Title</h1>\n<p>One sentence here. Another sentence follows.</p>\n\
   <ul>\n<li><p>First point.</p></li>\n<li><p>Second point.</p></li>\n</ul>\n"

let html_new =
  "<h1>Title</h1>\n<p>Another sentence follows. One sentence here.</p>\n\
   <ul>\n<li><p>Second point.</p></li>\n<li><p>A third point.</p></li>\n</ul>\n"

let latex_old =
  "\\section{Intro}\n\nAlpha beta gamma delta. Epsilon zeta eta theta.\n"

let latex_new =
  "\\section{Intro}\n\nEpsilon zeta eta theta. Alpha beta gamma delta. \
   Brand new closing words.\n"

let json_old =
  {|{"server": {"host": "db1", "port": 7433}, "tags": ["a", "b"]}|}

let json_new =
  {|{"tags": ["a", "b", "c"], "server": {"host": "db1", "port": 7500}}|}

let md_old = "# Title\n\nOne sentence here. Another sentence follows.\n"

let md_new =
  "# Title\n\nAnother sentence follows. One sentence here. A closing remark.\n"

(* The bin pair is the sexp pair pushed through the id-preserving codec:
   binary sources cannot live in string literals comfortably, and this also
   exercises render-as-source. *)
let pair (f : Format.t) =
  if f == Format.sexp then (sexp_old, sexp_new)
  else if f == Format.xml then (xml_old, xml_new)
  else if f == Format.html then (html_old, html_new)
  else if f == Format.latex then (latex_old, latex_new)
  else if f == Format.json then (json_old, json_new)
  else if f == Format.markdown then (md_old, md_new)
  else begin
    let gen = Tree.gen () in
    let t1 = Format.parse Format.sexp gen sexp_old in
    let t2 = Format.parse Format.sexp gen sexp_new in
    (f.Format.render t1, f.Format.render t2)
  end

(* Malformed inputs that strict mode must reject; for [caps.lenient]
   formats, lenient mode must repair each and say so. *)
let broken (f : Format.t) =
  if f == Format.sexp then [ "(D (P" ]
  else if f == Format.xml then [ "<doc><p>alpha" (* unclosed elements at EOF *) ]
  else if f == Format.html then
    [ "</ul>\n<h1>T</h1>\n<p>One sentence.</p>\n" (* stray closing tag *) ]
  else if f == Format.latex then
    [ "\\section{Intro\n\nAlpha beta.\n" (* unbalanced section-title group *) ]
  else if f == Format.json then
    [
      {|{port: 7433}|} (* bare key *);
      "[01]" (* leading zero *);
      "[\"a\tb\"]" (* raw control byte inside a string *);
    ]
  else if f == Format.markdown then
    [ "## Orphan\n\nBody text here.\n" (* subsection outside any section *) ]
  else [ "not a binary codec stream" ]

let rec same_structure (a : Node.t) (b : Node.t) =
  String.equal a.Node.label b.Node.label
  && String.equal a.Node.value b.Node.value
  &&
  let ca = Node.children a and cb = Node.children b in
  List.length ca = List.length cb && List.for_all2 same_structure ca cb

let ok_or_fail what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

(* ------------------------------------------------------------- registry *)

let test_registry () =
  List.iter
    (fun (f : Format.t) ->
      match Format.find f.Format.name with
      | Ok g ->
        Alcotest.(check bool) (f.Format.name ^ " resolves to itself") true (f == g)
      | Error m -> Alcotest.failf "find %s: %s" f.Format.name m)
    Format.all;
  Alcotest.(check int) "names covers all" (List.length Format.all)
    (List.length Format.names);
  (match Format.find "nope" with
  | Ok _ -> Alcotest.fail "find accepted an unknown name"
  | Error m ->
    Alcotest.(check string) "find error is canonical" (Format.unknown_message "nope") m;
    Alcotest.(check bool) "error lists the supported set" true
      (contains ~sub:Format.supported m));
  match Format.find_exn "nope" with
  | exception Format.Parse_error m ->
    Alcotest.(check string) "find_exn raises the canonical text"
      (Format.unknown_message "nope") m
  | _ -> Alcotest.fail "find_exn accepted an unknown name"

(* ------------------------------------------------- parse/render round-trip *)

let test_roundtrip () =
  List.iter
    (fun (f : Format.t) ->
      let src, _ = pair f in
      let t1 = Format.parse f (Tree.gen ()) src in
      let out = f.Format.render t1 in
      let t2 = Format.parse f (Tree.gen ~start:1000 ()) out in
      Alcotest.(check bool) (f.Format.name ^ " re-parse preserves structure") true
        (same_structure t1 t2);
      Alcotest.(check string) (f.Format.name ^ " render is a fixpoint") out
        (f.Format.render t2);
      if f.Format.caps.Format.id_preserving then
        Alcotest.(check int) (f.Format.name ^ " ids survive") t1.Node.id t2.Node.id)
    Format.all

let test_lenient () =
  List.iter
    (fun (f : Format.t) ->
      List.iter
        (fun src ->
          let what = Printf.sprintf "%s %S" f.Format.name src in
          (match f.Format.parse_result ~lenient:false (Tree.gen ()) src with
          | Ok _ -> Alcotest.failf "%s: strict mode accepted malformed input" what
          | Error _ -> ());
          match f.Format.parse_result ~lenient:true (Tree.gen ()) src with
          | Ok (_, warnings) ->
            if not f.Format.caps.Format.lenient then
              Alcotest.failf "%s: repaired input without advertising caps.lenient"
                what;
            Alcotest.(check bool) (what ^ " lenient repair warns") true
              (warnings <> [])
          | Error m ->
            if f.Format.caps.Format.lenient then
              Alcotest.failf "%s: lenient mode failed to recover: %s" what m)
        (broken f))
    Format.all

(* ------------------------------------------------ json \u surrogate pairs *)

(* One case table for both JSON entry points — the document front end and
   the daemon's request frames read through the same codec.  Pairs
   combine; every unpaired half comes out as U+FFFD (ef bf bd), never as
   raw surrogate bytes (invalid UTF-8). *)
let surrogate_cases =
  let fffd = "\xef\xbf\xbd" in
  [
    ("emoji pair", {|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
    ("emoji pair, upper-case hex", {|"\uD83D\uDE00"|}, "\xf0\x9f\x98\x80");
    ("pair in text", {|"a\ud83d\ude00b"|}, "a\xf0\x9f\x98\x80b");
    ("lone high", {|"\ud83d"|}, fffd);
    ("lone high then text", {|"\ud83dx"|}, fffd ^ "x");
    ("lone high D800 then text", {|"\uD800x"|}, fffd ^ "x");
    ("lone low", {|"\ude00"|}, fffd);
    ("lone low DC00", {|"\uDC00"|}, fffd);
    ("high then non-low", {|"\ud83dA"|}, fffd ^ "A");
    ("high then non-low escape", {|"\ud83d\u0041"|}, fffd ^ "A");
    ("high D800 then non-low escape", {|"\uD800\u0041"|}, fffd ^ "A");
    ("high then high pair", {|"\ud83d\ud83d\ude00"|}, fffd ^ "\xf0\x9f\x98\x80");
    ("high D800 then high pair", {|"\uD800\uD800\uDC00"|},
     fffd ^ "\xf0\x90\x80\x80");
    ("low then high", {|"\ude00\ud83d"|}, fffd ^ fffd);
    ("bmp escape", {|"\u00e9\u20ac"|}, "\xc3\xa9\xe2\x82\xac");
  ]

(* The decoded text of a JSON document that is one string literal. *)
let json_text src =
  match Format.json.Format.parse_result ~lenient:false (Tree.gen ()) src with
  | Ok (n, _) -> n.Node.value
  | Error m -> Alcotest.failf "json %s: %s" src m

(* The same literal decoded as a request parameter. *)
let frame_text src =
  match
    Protocol.parse_request
      (Printf.sprintf {|{"id":1,"verb":"diff","params":{"s":%s}}|} src)
  with
  | Ok r -> (
    match Json.mem_str "s" r.Protocol.params with
    | Some s -> s
    | None -> Alcotest.failf "frame %s: no string param" src)
  | Error m -> Alcotest.failf "frame %s: %s" src m

let test_json_surrogates () =
  List.iter
    (fun (name, src, want) ->
      List.iter
        (fun (entry, got) ->
          let name = Printf.sprintf "%s (%s)" name entry in
          Alcotest.(check string) name want got;
          Alcotest.(check bool) (name ^ ": valid UTF-8") true
            (String.is_valid_utf_8 got))
        [ ("document", json_text src); ("frame", frame_text src) ])
    surrogate_cases

(* ------------------------------------------------- json mutation fuzz *)

(* Seeded byte mutations: each mutant takes one to four edits —
   overwrite, insert or delete one byte, or truncate — drawing new bytes
   mostly from JSON's own punctuation so mutants stay near the grammar. *)
let mutate g src =
  let bytes = "{}[]:,\"'\\u0aeE.+-9tfn \t\n\x00\x1f\x7f\xc3\xff" in
  let byte () =
    if Prng.chance g 0.8 then bytes.[Prng.int g (String.length bytes)]
    else Char.chr (Prng.int g 256)
  in
  let edit s =
    let n = String.length s in
    let i = Prng.int g (n + 1) in
    match Prng.int g 8 with
    | 0 | 1 | 2 when i < n ->
      String.mapi (fun j c -> if j = i then byte () else c) s
    | 3 | 4 | 5 -> String.sub s 0 i ^ String.make 1 (byte ()) ^ String.sub s i (n - i)
    | 6 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ -> String.sub s 0 i
  in
  let rec go k s = if k = 0 then s else go (k - 1) (edit s) in
  go (Prng.int_in g 1 4) src

(* Strict parsing only answers [Ok]/[Error]; a lenient parse either fails
   or yields a tree whose render re-parses strictly to the same structure
   and renders to the same bytes again. *)
let check_document src =
  (match Format.json.Format.parse_result ~lenient:false (Tree.gen ()) src with
  | Ok _ | Error _ -> ());
  match Format.json.Format.parse_result ~lenient:true (Tree.gen ()) src with
  | Error _ -> ()
  | Ok (t, _) -> (
    let out = Format.json.Format.render t in
    match Format.json.Format.parse_result ~lenient:false (Tree.gen ()) out with
    | Error m -> Alcotest.failf "lenient %S rendered %S, rejected: %s" src out m
    | Ok (t', _) ->
      if not (same_structure t t') then
        Alcotest.failf "lenient %S: render %S re-parses differently" src out;
      if not (String.equal out (Format.json.Format.render t')) then
        Alcotest.failf "lenient %S: render %S is not a fixpoint" src out)

(* The frame side: strict decoding of a mutated payload or a mutated whole
   frame (length prefix included) never raises, and a lenient value prints
   to text that re-parses strictly to an equal value. *)
let check_frame frame payload =
  let f = Protocol.Framer.create () in
  Protocol.Framer.feed f frame;
  let rec drain () =
    match Protocol.Framer.next f with
    | Ok (Some p) ->
      ignore (Protocol.parse_request p);
      drain ()
    | Ok None | Error _ -> ()
  in
  drain ();
  ignore (Protocol.parse_request payload);
  match Json.parse_result ~lenient:true payload with
  | Error _ -> ()
  | Ok (v, _) -> (
    match Json.parse (Json.to_string v) with
    | Ok v' when Json.equal v v' -> ()
    | Ok _ -> Alcotest.failf "lenient %S: printed value re-parses differently" payload
    | Error m -> Alcotest.failf "lenient %S: printed value rejected: %s" payload m)

let test_json_fuzz () =
  let docs = [ read_file (fixture "service.old.json"); read_file (fixture "service.new.json") ] in
  let payloads =
    List.map
      (fun (old_src, new_src) ->
        Json.to_string
          (Protocol.request_to_json
             {
               Protocol.id = 1;
               verb = "diff";
               params =
                 Json.Obj
                   [
                     ("old", Json.Str old_src);
                     ("new", Json.Str new_src);
                     ("format", Json.Str "json");
                     ("deadline_ms", Json.float 250.5);
                   ];
             }))
      [ (json_old, json_new); (List.hd docs, List.nth docs 1) ]
  in
  let g = Prng.create 20261017 in
  for _ = 1 to 4000 do
    check_document (mutate g (Prng.pick_list g docs))
  done;
  for _ = 1 to 4000 do
    let payload = Prng.pick_list g payloads in
    check_frame (mutate g (Protocol.encode_frame payload)) (mutate g payload)
  done

(* --------------------------------------------------- diff+check self-check *)

let test_check_self () =
  List.iter
    (fun (f : Format.t) ->
      let src_old, src_new = pair f in
      let o = tmp_file src_old and n = tmp_file src_new in
      let code, out =
        run (Printf.sprintf "%s check -f %s %s %s" (bin "treediff_cli")
               f.Format.name o n)
      in
      Sys.remove o;
      Sys.remove n;
      Alcotest.(check int) (f.Format.name ^ " check exit 0") 0 code;
      Alcotest.(check bool) (f.Format.name ^ " check reports ok") true
        (contains ~sub:"ok" out))
    Format.all

(* ------------------------------------------------------- store round-trip *)

let test_store_roundtrip () =
  List.iter
    (fun (f : Format.t) ->
      let src_old, src_new = pair f in
      let gen = Tree.gen () in
      let t1 = Format.parse f gen src_old in
      let t2 = Format.parse f gen src_new in
      let path = Filename.temp_file "treediff_fmt" ".tda" in
      Sys.remove path;
      let doc = f.Format.name in
      let store = ok_or_fail (f.Format.name ^ " init") (Shard.init ~shards:1 path) in
      ignore (ok_or_fail (f.Format.name ^ " commit v0") (Shard.commit store ~doc t1));
      ignore (ok_or_fail (f.Format.name ^ " commit v1") (Shard.commit store ~doc t2));
      let m0 =
        ok_or_fail (f.Format.name ^ " materialize v0")
          (Shard.materialize ~verify:true store ~doc 0)
      in
      let m1 =
        ok_or_fail (f.Format.name ^ " materialize v1")
          (Shard.materialize ~verify:true store ~doc 1)
      in
      if f.Format.caps.Format.id_preserving then begin
        (* the store relabels into its own id space, so the bytes of an
           id-carrying render legitimately differ; structure must not *)
        Alcotest.(check bool) (f.Format.name ^ " v0 structure") true
          (same_structure t1 m0);
        Alcotest.(check bool) (f.Format.name ^ " v1 structure") true
          (same_structure t2 m1)
      end
      else begin
        Alcotest.(check string) (f.Format.name ^ " v0 bytes") (f.Format.render t1)
          (f.Format.render m0);
        Alcotest.(check string) (f.Format.name ^ " v1 bytes") (f.Format.render t2)
          (f.Format.render m1)
      end;
      rm_rf path)
    Format.all

(* The same round-trip end to end through the CLI store verbs, on the new
   JSON and Markdown example fixtures. *)
let test_store_cli_fixtures () =
  List.iter
    (fun ((f : Format.t), old_fix, new_fix) ->
      let t = bin "treediff_cli" in
      let arch = Filename.temp_file "treediff_fmt" ".tda" in
      Sys.remove arch;
      let code, _ = run (Printf.sprintf "%s store init %s" t arch) in
      Alcotest.(check int) (f.Format.name ^ " store init") 0 code;
      List.iter
        (fun fix ->
          let code, _ =
            run (Printf.sprintf "%s store commit %s %s -f %s --doc d" t arch
                   (fixture fix) f.Format.name)
          in
          Alcotest.(check int) (f.Format.name ^ " store commit " ^ fix) 0 code)
        [ old_fix; new_fix ];
      List.iteri
        (fun v fix ->
          let out = Filename.temp_file "treediff_fmt" ".out" in
          let code, _ =
            run (Printf.sprintf "%s store materialize %s %d --doc d --verify -f %s -o %s"
                   t arch v f.Format.name out)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s materialize v%d" f.Format.name v) 0 code;
          (* materialized render must be byte-identical to the render of the
             committed source (the fixture re-rendered, not its raw bytes) *)
          let want =
            f.Format.render (Format.parse f (Tree.gen ()) (read_file (fixture fix)))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s v%d bytes" f.Format.name v) want (read_file out);
          Sys.remove out)
        [ old_fix; new_fix ];
      rm_rf arch)
    [
      (Format.json, "service.old.json", "service.new.json");
      (Format.markdown, "notes.old.md", "notes.new.md");
    ]

(* --------------------------------------------- unknown-format error parity *)

let req ?(id = 1) verb params = { Protocol.id; verb; params }

let handle h r =
  match
    Handler.handle h ~queue_depth:0 ~pressure:Handler.Full ~draining:false
      ~received_at:(Treediff_util.Clock.now ()) r
  with
  | Handler.Payload p -> Protocol.parse_response p
  | Handler.Shutdown p -> Protocol.parse_response p

let ok_body = function
  | Ok (_, Protocol.Ok_resp body) -> body
  | Ok (_, Protocol.Err_resp { message; _ }) -> Alcotest.failf "error: %s" message
  | Error e -> Alcotest.failf "protocol: %s" e

let test_unknown_format_parity () =
  let canonical = Format.unknown_message "nope" in
  (* daemon: typed bad_request carrying the registry text verbatim *)
  let h = Handler.create () in
  (match
     handle h
       (req "diff"
          (Json.Obj
             [
               ("old", Json.Str sexp_old);
               ("new", Json.Str sexp_new);
               ("format", Json.Str "nope");
             ]))
   with
  | Ok (_, Protocol.Err_resp { kind = Protocol.Bad_request; message; _ }) ->
    Alcotest.(check string) "serve error is the registry text" canonical message
  | Ok (_, Protocol.Ok_resp _) -> Alcotest.fail "serve accepted an unknown format"
  | Ok (_, Protocol.Err_resp { kind; _ }) ->
    Alcotest.failf "serve: wrong error kind %s" (Protocol.error_kind_name kind)
  | Error e -> Alcotest.failf "protocol: %s" e);
  (* both CLIs: same text, via the shared cmdliner converter *)
  let o = tmp_file sexp_old and n = tmp_file sexp_new in
  List.iter
    (fun cli ->
      let code, out =
        run_err (Printf.sprintf "%s %s-f nope %s %s" (bin cli)
                   (if String.equal cli "ladiff" then "" else "diff ") o n)
      in
      Alcotest.(check bool) (cli ^ " rejects unknown format") true (code <> 0);
      Alcotest.(check bool) (cli ^ " prints the registry text") true
        (contains ~sub:canonical (squeeze out)))
    [ "treediff_cli"; "ladiff" ];
  Sys.remove o;
  Sys.remove n

(* ------------------------------------------------------- the new renderers *)

let test_cli_render_modes () =
  List.iter
    (fun (f : Format.t) ->
      let src_old, src_new = pair f in
      let o = tmp_file src_old and n = tmp_file src_new in
      let code, out =
        run (Printf.sprintf "%s diff -f %s --render side-by-side %s %s"
               (bin "treediff_cli") f.Format.name o n)
      in
      Alcotest.(check int) (f.Format.name ^ " side-by-side exit 0") 0 code;
      Alcotest.(check bool) (f.Format.name ^ " side-by-side has columns") true
        (contains ~sub:"|" out);
      let code, out =
        run (Printf.sprintf "%s diff -f %s --render summary %s %s"
               (bin "treediff_cli") f.Format.name o n)
      in
      Alcotest.(check int) (f.Format.name ^ " summary exit 0") 0 code;
      Alcotest.(check bool) (f.Format.name ^ " summary nonempty") true
        (String.length (String.trim out) > 0);
      Sys.remove o;
      Sys.remove n)
    [ Format.latex; Format.html; Format.json; Format.markdown ]

let test_serve_render_modes () =
  let h = Handler.create () in
  let diff mode =
    let body =
      ok_body
        (handle h
           (req "diff"
              (Json.Obj
                 [
                   ("old", Json.Str md_old);
                   ("new", Json.Str md_new);
                   ("format", Json.Str Format.markdown.Format.name);
                   ("mode", Json.Str mode);
                 ])))
    in
    match Json.mem_str "output" body with
    | Some out -> out
    | None -> Alcotest.failf "no output member in %s response" mode
  in
  Alcotest.(check bool) "serve side-by-side has columns" true
    (contains ~sub:"|" (diff "side-by-side"));
  Alcotest.(check bool) "serve summary nonempty" true
    (String.length (String.trim (diff "summary")) > 0)

(* ------------------------------------------------- CLI / daemon parity *)

(* Both front ends run the shared verbs through one executor
   (Treediff_serve.Verb), so for every example pair, in its own format,
   [treediff VERB …]'s stdout and the daemon's answer carry the same text.
   One table row per verb (and per diff output mode); each row turns one
   pair into (what, CLI text, daemon text) triples. *)

type example = { stem : string; fmt : Format.t; old_path : string; new_path : string }

let examples () =
  let dir = Filename.dirname (fixture "x") in
  let olds =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> contains ~sub:".old." n)
    |> List.sort compare
  in
  Alcotest.(check bool) "example pairs found" true (olds <> []);
  List.map
    (fun name ->
      let ext = Filename.extension name in
      let stem = Filename.chop_suffix name (".old" ^ ext) in
      let fmt =
        match ext with
        | ".md" -> Format.markdown
        | ".tex" -> Format.latex
        | e -> Format.find_exn (String.sub e 1 (String.length e - 1))
      in
      {
        stem;
        fmt;
        old_path = Filename.concat dir name;
        new_path = Filename.concat dir (stem ^ ".new" ^ ext);
      })
    olds

let cli fmt args =
  let code, out =
    run (Printf.sprintf "%s %s -f %s" (bin "treediff_cli") args fmt.Format.name)
  in
  (code, out)

let cli_ok what fmt args =
  let code, out = cli fmt args in
  Alcotest.(check int) (what ^ " CLI exit 0") 0 code;
  out

let daemon h verb fields = ok_body (handle h (req verb (Json.Obj fields)))

let pair_fields e =
  [
    ("old", Json.Str (read_file e.old_path));
    ("new", Json.Str (read_file e.new_path));
    ("format", Json.Str e.fmt.Format.name);
  ]

let member_str what key body =
  match Json.mem_str key body with
  | Some s -> s
  | None -> Alcotest.failf "%s: no %S member" what key

let diff_row ~cli_flag mode h e =
  let cli = cli_ok e.stem e.fmt (Printf.sprintf "diff %s %s %s" cli_flag e.old_path e.new_path) in
  let body = daemon h "diff" (pair_fields e @ [ ("mode", Json.Str mode) ]) in
  [ (mode, cli, member_str e.stem "output" body) ]

let batch_row h e =
  let manifest = tmp_file (Printf.sprintf "%s %s\n" e.old_path e.new_path) in
  let dir = Filename.temp_file "treediff_fmt" ".batch" in
  Sys.remove dir;
  ignore (cli_ok e.stem e.fmt (Printf.sprintf "batch -m script -o %s %s" dir manifest));
  let cli = read_file (Filename.concat dir "pair-000.script") in
  Sys.remove manifest;
  rm_rf dir;
  let body =
    daemon h "batch"
      [
        ("pairs",
         Json.Arr
           [
             Json.Obj
               [
                 ("old", Json.Str (read_file e.old_path));
                 ("new", Json.Str (read_file e.new_path));
               ];
           ]);
        ("format", Json.Str e.fmt.Format.name);
      ]
  in
  let output =
    match Option.bind (Json.member "results" body) Json.arr with
    | Some [ r ] -> member_str e.stem "output" r
    | _ -> Alcotest.failf "%s: batch answer without one result" e.stem
  in
  [ ("batch script", cli, output) ]

(* the CLI prints the daemon's diagnostics one per line, then the summary *)
let check_text body =
  let diags =
    match Option.bind (Json.member "diagnostics" body) Json.arr with
    | Some l -> List.filter_map (function Json.Str s -> Some (s ^ "\n") | _ -> None) l
    | None -> []
  in
  String.concat "" diags ^ member_str "check" "summary" body ^ "\n"

let check_row h e =
  let self = cli_ok e.stem e.fmt (Printf.sprintf "check %s %s" e.old_path e.new_path) in
  let script = tmp_file (cli_ok e.stem e.fmt (Printf.sprintf "diff %s %s" e.old_path e.new_path)) in
  let code, stored =
    cli e.fmt (Printf.sprintf "check --script %s %s %s" script e.old_path e.new_path)
  in
  let daemon_self = daemon h "check" (pair_fields e) in
  let daemon_stored =
    daemon h "check" (pair_fields e @ [ ("script", Json.Str (read_file script)) ])
  in
  Sys.remove script;
  Alcotest.(check int) (e.stem ^ " check --script exit")
    (if Json.mem_num "errors" daemon_stored = Some 0. then 0 else 1)
    code;
  [
    ("check", self, check_text daemon_self);
    (* the script label differs by design: a file path vs "script" *)
    ("check --script", stored, check_text daemon_stored);
  ]

(* Each front end commits the pair into its own archive, then reads it
   back: the CLI's tables carry the daemon's fields. *)
let store_row h e =
  let t = bin "treediff_cli" in
  let fresh () =
    let a = Filename.temp_file "treediff_fmt" ".arch" in
    Sys.remove a;
    a
  in
  let ca = fresh () and da = fresh () in
  Alcotest.(check int) "store init" 0 (fst (run (Printf.sprintf "%s store init %s" t ca)));
  ignore (ok_or_fail "init" (Shard.init ~shards:1 da));
  let entry_line body =
    let num k = int_of_float (Option.get (Json.mem_num k body)) in
    Printf.sprintf "committed version %d (%s, %d ops, %d bytes)\n" (num "version")
      (member_str "commit" "kind" body) (num "ops") (num "bytes")
  in
  let commits =
    List.map
      (fun path ->
        let cli = cli_ok "commit" e.fmt (Printf.sprintf "store commit %s %s --doc d" ca path) in
        let body =
          daemon h "store/commit"
            [
              ("archive", Json.Str da);
              ("doc", Json.Str "d");
              ("tree", Json.Str (read_file path));
              ("format", Json.Str e.fmt.Format.name);
            ]
        in
        ("store commit", cli, entry_line body))
      [ e.old_path; e.new_path ]
  in
  let at = [ ("archive", Json.Str da); ("doc", Json.Str "d") ] in
  (* log --doc: version, kind, ops, bytes and hash of each entry *)
  let cli_log =
    run (Printf.sprintf "%s store log %s --doc d" t ca) |> snd
    |> String.split_on_char '\n' |> List.tl
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match String.split_on_char ' ' l |> List.filter (( <> ) "") with
           | [ v; k; o; b; _next_id; h ] -> String.concat " " [ v; k; o; b; h ]
           | _ -> Alcotest.failf "log line %S" l)
    |> String.concat "\n"
  in
  let daemon_log =
    match Option.bind (Json.member "entries" (daemon h "store/log" at)) Json.arr with
    | Some l ->
      List.map
        (fun en ->
          let num k = string_of_int (int_of_float (Option.get (Json.mem_num k en))) in
          String.concat " "
            [ num "version"; member_str "log" "kind" en; num "ops"; num "bytes";
              member_str "log" "hash" en ])
        l
      |> String.concat "\n"
    | None -> Alcotest.fail "log without entries"
  in
  let materialized =
    List.map
      (fun v ->
        let cli =
          cli_ok "materialize" e.fmt
            (Printf.sprintf "store materialize %s %d --doc d --verify" ca v)
        in
        let body =
          daemon h "store/materialize"
            (at @ [ ("version", Json.int v); ("format", Json.Str e.fmt.Format.name) ])
        in
        (Printf.sprintf "store materialize %d" v, cli, member_str "tree" "tree" body))
      [ 0; 1 ]
  in
  (* a dummy-rooted delta is not composable: both refuse, or both answer *)
  let composed =
    let code, cli = run (Printf.sprintf "%s store diff %s --doc d --from 0 --to 1" t ca) in
    match
      handle h
        (req "store/diff"
           (Json.Obj (at @ [ ("from", Json.int 0); ("to", Json.int 1) ])))
    with
    | Ok (_, Protocol.Ok_resp body) ->
      Alcotest.(check int) (e.stem ^ " store diff exit 0") 0 code;
      [ ("store diff", cli, member_str "diff" "script" body) ]
    | _ ->
      Alcotest.(check int) (e.stem ^ " store diff refused") 1 code;
      []
  in
  rm_rf ca;
  rm_rf da;
  commits @ [ ("store log --doc", cli_log, daemon_log) ] @ materialized @ composed

let parity_table =
  [
    ("script mode, CLI and daemon", diff_row ~cli_flag:"-m script" "script");
    ("delta mode, CLI and daemon", diff_row ~cli_flag:"-m delta" "delta");
    ("stats mode, CLI and daemon", diff_row ~cli_flag:"-m stats" "stats");
    ("side-by-side mode, CLI and daemon",
     diff_row ~cli_flag:"--render side-by-side" "side-by-side");
    ("summary mode, CLI and daemon", diff_row ~cli_flag:"--render summary" "summary");
    ("batch, CLI and daemon", batch_row);
    ("check, CLI and daemon", check_row);
    ("store verbs, CLI and daemon", store_row);
  ]

let parity_case (name, row) =
  Alcotest.test_case name `Quick (fun () ->
      let h = Handler.create () in
      List.iter
        (fun e ->
          List.iter
            (fun (what, cli, daemon) ->
              Alcotest.(check string) (Printf.sprintf "%s %s parity" e.stem what) cli daemon)
            (row h e))
        (examples ()))

(* The fixture walkthrough the README documents: markdown summary names the
   moved section, json check verifies. *)
let test_fixture_walkthrough () =
  let t = bin "treediff_cli" in
  let code, out =
    run (Printf.sprintf "%s diff -f markdown --render summary %s %s" t
           (fixture "notes.old.md") (fixture "notes.new.md"))
  in
  Alcotest.(check int) "fixture summary exit 0" 0 code;
  Alcotest.(check bool) "summary speaks of sections" true
    (contains ~sub:"moved \xc2\xa7" out);
  Alcotest.(check bool) "summary counts the rewording" true
    (contains ~sub:"reworded" out);
  let code, _ =
    run (Printf.sprintf "%s check -f json %s %s" t
           (fixture "service.old.json") (fixture "service.new.json"))
  in
  Alcotest.(check int) "json fixture check exit 0" 0 code;
  (* ladiff resolves formats through the same registry: -f xml now works *)
  let o = tmp_file xml_old and n = tmp_file xml_new in
  let code, out =
    run (Printf.sprintf "%s -f xml -m summary %s %s" (bin "ladiff") o n)
  in
  Sys.remove o;
  Sys.remove n;
  Alcotest.(check int) "ladiff -f xml exit 0" 0 code;
  Alcotest.(check bool) "ladiff -f xml produces a summary" true
    (String.length (String.trim out) > 0)

let () =
  Alcotest.run "format registry"
    [
      ( "registry",
        [
          Alcotest.test_case "lookup and canonical errors" `Quick test_registry;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "parse/render round-trip" `Quick test_roundtrip;
          Alcotest.test_case "lenient recovery" `Quick test_lenient;
          Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogates;
          Alcotest.test_case "json mutation fuzz" `Quick test_json_fuzz;
          Alcotest.test_case "treediff check self-check" `Quick test_check_self;
          Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "store CLI fixtures" `Quick test_store_cli_fixtures;
        ] );
      ( "parity",
        [
          Alcotest.test_case "unknown format, CLI and daemon" `Quick
            test_unknown_format_parity;
          Alcotest.test_case "render modes via CLI" `Quick test_cli_render_modes;
          Alcotest.test_case "render modes via daemon" `Quick
            test_serve_render_modes;
          Alcotest.test_case "fixture walkthrough" `Quick test_fixture_walkthrough;
        ]
        @ List.map parity_case parity_table );
    ]
