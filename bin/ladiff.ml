(* The LaDiff command-line tool (§7): compare two versions of a LaTeX (or
   HTML) document and emit a marked-up document highlighting the changes. *)

open Cmdliner

(* The marked-document output modes are named after the document formats
   they emit; take the names from the registry rather than repeating them. *)
let fmt_name (f : Treediff_doc.Format.t) = f.Treediff_doc.Format.name

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit codes, also documented in the man page: 2 = parse error,
   4 = internal diagnostic failure. *)
let exit_parse_error = 2
let exit_internal = 4

let run old_file new_file format lenient threshold leaf_f output mode check =
  try
  let config =
    Treediff_doc.Doc_tree.config_with ~leaf_f ~internal_t:threshold ()
  in
  let old_src = read_file old_file and new_src = read_file new_file in
  let out = Treediff_doc.Ladiff.run ~format ~lenient ~config ~old_src ~new_src () in
  List.iter
    (fun w -> Printf.eprintf "ladiff: warning: %s\n" w)
    out.Treediff_doc.Ladiff.warnings;
  let result = out.Treediff_doc.Ladiff.result in
  (if check then
     match
       Treediff.Diff.check result ~t1:out.Treediff_doc.Ladiff.old_tree
         ~t2:out.Treediff_doc.Ladiff.new_tree
     with
     | Ok () -> prerr_endline "check: edit script transforms old tree into new tree"
     | Error e -> failwith ("check failed: " ^ e));
  (* Table 2 mark-up only exists on the document schema; refuse early with
     the capability flag instead of crashing in the renderer. *)
  let require_schema m =
    if not format.Treediff_doc.Format.caps.Treediff_doc.Format.document_schema
    then
      failwith
        (Printf.sprintf
           "mode %s needs a document-schema format; %s is a generic tree \
            format — use -m text, script, side-by-side or prose"
           m format.Treediff_doc.Format.name)
  in
  let text =
    match mode with
    | m when String.equal m (fmt_name Treediff_doc.Format.latex) ->
      require_schema m;
      Lazy.force out.Treediff_doc.Ladiff.marked_latex
    | m when String.equal m (fmt_name Treediff_doc.Format.html) ->
      require_schema m;
      Treediff_doc.Html_markup.to_html ~full_page:true
        ~title:(Filename.basename new_file) result.Treediff.Diff.delta
    | "text" -> out.Treediff_doc.Ladiff.marked_text
    | "script" -> Treediff_doc.Render_diff.(render Script result)
    | "summary" ->
      Treediff_doc.Markup.summary result.Treediff.Diff.delta ^ "\n"
    | "side-by-side" ->
      Treediff_doc.Render_align.render result.Treediff.Diff.delta
    | "prose" ->
      Treediff_doc.Render_summary.render result.Treediff.Diff.delta
    | m ->
      failwith
        (Printf.sprintf
           "unknown output mode %S \
            (latex|html|text|script|summary|side-by-side|prose)" m)
  in
  (match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc text))
  with
  | Treediff_doc.Format.Parse_error m ->
    Printf.eprintf "ladiff: parse error: %s\n" m;
    exit exit_parse_error
  | Failure m ->
    Printf.eprintf "ladiff: %s\n" m;
    exit exit_internal
  | Treediff_check.Diag.Failed ds ->
    List.iter
      (fun d -> prerr_endline (Treediff_check.Diag.to_string d))
      ds;
    exit exit_internal

let old_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc:"Old version.")

let new_file =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"New version.")

let format_conv =
  let parse s =
    match Treediff_doc.Format.find s with
    | Ok f -> Ok f
    | Error m -> Error (`Msg m)
  in
  let print ppf (f : Treediff_doc.Format.t) =
    Stdlib.Format.pp_print_string ppf f.Treediff_doc.Format.name
  in
  Arg.conv ~docv:"FMT" (parse, print)

let format =
  let doc =
    "Input format, any registered tree format: "
    ^ String.concat ", "
        (List.map
           (fun (f : Treediff_doc.Format.t) ->
             Printf.sprintf "$(b,%s)" f.Treediff_doc.Format.name)
           Treediff_doc.Format.all)
    ^ ".  Document-schema formats get the full mark-up; generic trees \
       render best with $(b,-m text), $(b,-m side-by-side) or $(b,-m prose)."
  in
  Arg.(value & opt format_conv Treediff_doc.Format.latex
       & info [ "f"; "format" ] ~docv:"FMT" ~doc)

let lenient =
  Arg.(value & flag & info [ "lenient" ]
         ~doc:"Recover from malformed input instead of failing: each \
               recovery (unbalanced braces, stray \\\\item, tag soup) is \
               reported as a warning on stderr and parsing continues.")

let threshold =
  Arg.(value & opt float 0.6 & info [ "t"; "threshold" ] ~docv:"T"
         ~doc:"Match threshold t for internal nodes (1/2 <= t <= 1), §5.1.")

let leaf_f =
  Arg.(value & opt float 0.5 & info [ "leaf-threshold" ] ~docv:"F"
         ~doc:"Leaf distance threshold f (0 <= f <= 1), Matching Criterion 1.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the result to $(docv) instead of stdout.")

let mode =
  Arg.(value & opt string (fmt_name Treediff_doc.Format.latex)
       & info [ "m"; "mode" ] ~docv:"MODE"
         ~doc:"Output mode: $(b,latex) (marked-up document), $(b,html) (marked-up web \
               page), $(b,text) (annotated tree), $(b,script) (edit script), \
               $(b,summary) (change tally), $(b,side-by-side) (aligned \
               two-column view), $(b,prose) (natural-language change \
               summary).")

let check =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Verify that the edit script transforms the old tree into the new one.")

let cmd =
  let doc = "detect and mark changes between two structured-document versions" in
  let man =
    [
      `S Manpage.s_description;
      `P "LaDiff parses two versions of a LaTeX (or HTML) document, computes a \
          minimum-cost edit script between their trees (Chawathe, Rajaraman, \
          Garcia-Molina & Widom, SIGMOD 1996), and emits the new version marked \
          up with the changes: inserted sentences in bold, deleted in small \
          font, updates in italics, moves labelled and footnoted.";
    ]
  in
  let exits =
    Cmd.Exit.info ~doc:"on malformed input (parse error)." exit_parse_error
    :: Cmd.Exit.info ~doc:"on an internal diagnostic failure." exit_internal
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "ladiff" ~version:"1.0.0" ~doc ~man ~exits)
    Term.(const run $ old_file $ new_file $ format $ lenient $ threshold $ leaf_f
          $ output $ mode $ check)

(* A closed downstream ([ladiff … | head]) is a normal way to stop consuming
   output: SIGPIPE is ignored so the write surfaces as
   [Sys_error "Broken pipe"], which maps to a clean exit 0. *)
let broken_pipe = function
  | Sys_error m ->
    let needle = "Broken pipe" in
    let n = String.length m and nl = String.length needle in
    let rec scan i = i + nl <= n && (String.sub m i nl = needle || scan (i + 1)) in
    scan 0
  | _ -> false

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Cmd.eval ~catch:false cmd with
  | code -> exit code
  | exception e when broken_pipe e -> exit 0
