(* End-to-end tests of the command-line tools: real process invocations of
   ladiff, treediff and gen_corpus, exercising file I/O, exit codes and the
   composition diff -> ship -> apply.

   The binaries are declared as dune deps of this test, and live at
   ../bin/ relative to the test's cwd (_build/default/test). *)

let bin name =
  (* the binaries sit next to this test in the build tree: _build/default/bin *)
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let tmp_file contents =
  let path = Filename.temp_file "treediff_cli" ".txt" in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run a command, capturing stdout; returns (exit_code, stdout). *)
let run cmd =
  let out = Filename.temp_file "treediff_out" ".txt" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>/dev/null" cmd out) in
  let stdout = read_file out in
  Sys.remove out;
  (code, stdout)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let old_tex =
  "\\section{Intro}\n\nAlpha beta gamma delta. Epsilon zeta eta theta.\n\
   Moving target sentence here.\n"

let new_tex =
  "\\section{Intro}\n\nAlpha beta gamma delta. Brand new closing words. \
   Epsilon zeta eta theta.\nMoving target sentence here.\n"

let test_ladiff_latex () =
  let o = tmp_file old_tex and n = tmp_file new_tex in
  let code, out = run (Printf.sprintf "%s %s %s -m latex --check" (bin "ladiff") o n) in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "bold insert present" true
    (contains ~sub:"\\textbf{Brand new closing words.}" out)

let test_ladiff_modes () =
  let o = tmp_file old_tex and n = tmp_file new_tex in
  let code, summary = run (Printf.sprintf "%s %s %s -m summary" (bin "ladiff") o n) in
  Alcotest.(check int) "summary exit 0" 0 code;
  Alcotest.(check bool) "summary shape" true (contains ~sub:"inserted" summary);
  let code, html = run (Printf.sprintf "%s %s %s -m html" (bin "ladiff") o n) in
  Alcotest.(check int) "html exit 0" 0 code;
  Alcotest.(check bool) "html doctype" true (contains ~sub:"<!DOCTYPE html>" html);
  let code, script = run (Printf.sprintf "%s %s %s -m script" (bin "ladiff") o n) in
  Alcotest.(check int) "script exit 0" 0 code;
  Alcotest.(check bool) "script ops" true
    (contains ~sub:"INS(" script || contains ~sub:"MOV(" script)

let test_ladiff_bad_input () =
  let o = tmp_file "\\begin{itemize} no item ever" and n = tmp_file "fine text.\n" in
  let code, _ = run (Printf.sprintf "%s %s %s" (bin "ladiff") o n) in
  Alcotest.(check bool) "nonzero exit on parse error" true (code <> 0)

let test_treediff_roundtrip_sexp () =
  let o = tmp_file {|(D (P (S "a") (S "b") (S "x")) (P (S "c")))|} in
  let n = tmp_file {|(D (P (S "a") (S "x")) (P (S "c") (S "b")))|} in
  let script = Filename.temp_file "script" ".txt" in
  let code, _ =
    run (Printf.sprintf "%s diff %s %s -m script -o %s" (bin "treediff_cli") o n script)
  in
  Alcotest.(check int) "diff exit 0" 0 code;
  let code, out = run (Printf.sprintf "%s apply %s %s" (bin "treediff_cli") o script) in
  Alcotest.(check int) "apply exit 0" 0 code;
  (* the applied tree equals the new tree structurally *)
  let gen = Treediff_tree.Tree.gen () in
  let applied = Treediff_tree.Codec.parse gen out in
  let expected = Treediff_tree.Codec.parse gen (read_file n) in
  Alcotest.(check bool) "replay matches" true (Treediff_tree.Iso.equal applied expected)

let test_treediff_xml () =
  let o = tmp_file {|<r><a k="1">one two three</a><b>four five</b></r>|} in
  let n = tmp_file {|<r><b>four five</b><a k="1">one two three</a></r>|} in
  let code, out =
    run (Printf.sprintf "%s diff %s %s -f xml -m stats" (bin "treediff_cli") o n)
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "stats show a move" true (contains ~sub:"mov 1" out)

let test_treediff_zs_flag () =
  let o = tmp_file {|(A (B "x"))|} and n = tmp_file {|(A (B "y"))|} in
  let code, out =
    run (Printf.sprintf "%s diff %s %s --zhang-shasha" (bin "treediff_cli") o n)
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports distance" true (contains ~sub:"zhang-shasha distance" out)

let test_gen_corpus_pipeline () =
  let prefix = Filename.temp_file "corpus" "" in
  let code, out =
    run
      (Printf.sprintf "%s --size small --versions 2 --seed 7 -o %s" (bin "gen_corpus")
         prefix)
  in
  Alcotest.(check int) "gen exit 0" 0 code;
  Alcotest.(check bool) "reports files" true (contains ~sub:"sentences" out);
  let v0 = prefix ^ ".v0.tex" and v1 = prefix ^ ".v1.tex" in
  Alcotest.(check bool) "files exist" true (Sys.file_exists v0 && Sys.file_exists v1);
  let code, summary = run (Printf.sprintf "%s %s %s -m summary --check" (bin "ladiff") v0 v1) in
  Alcotest.(check int) "ladiff over generated corpus" 0 code;
  Alcotest.(check bool) "non-empty delta" true (not (contains ~sub:"0 inserted, 0 deleted, 0 updated, 0 moved" summary))

(* --------------------------------------------------------- treediff check *)

(* Fixtures are dune deps, copied next to the test's cwd. *)
let fx name = Filename.concat "fixtures" name

let run_check args =
  run
    (Printf.sprintf "%s check %s %s %s" (bin "treediff_cli")
       (fx "base.old.sexp") (fx "base.new.sexp") args)

let test_check_self () =
  let code, out = run_check "" in
  Alcotest.(check int) "self-check exits 0" 0 code;
  Alcotest.(check bool) "prints ok" true (contains ~sub:"ok" out)

let test_check_good_script () =
  let code, out = run_check ("--script " ^ fx "good.script") in
  Alcotest.(check int) "good script exits 0" 0 code;
  Alcotest.(check bool) "prints ok" true (contains ~sub:"ok" out)

let test_check_use_after_delete () =
  let code, out = run_check ("--script " ^ fx "use_after_delete.script") in
  Alcotest.(check bool) "exits nonzero" true (code <> 0);
  Alcotest.(check bool) "TD101 reported" true (contains ~sub:"TD101" out)

let test_check_phase_order () =
  let code, out = run_check ("--script " ^ fx "phase_order.script") in
  Alcotest.(check bool) "exits nonzero" true (code <> 0);
  Alcotest.(check bool) "TD106 reported" true (contains ~sub:"TD106" out)

let test_check_nonconforming () =
  let code, out = run_check ("--script " ^ fx "nonconforming.script") in
  Alcotest.(check bool) "exits nonzero" true (code <> 0);
  Alcotest.(check bool) "TD301 reported" true (contains ~sub:"TD301" out)

let test_check_parse_error () =
  let truncated = tmp_file "MOV(2,5\n" in
  let code, out = run_check ("--script " ^ truncated) in
  Alcotest.(check bool) "exits nonzero" true (code <> 0);
  Alcotest.(check bool) "TD001 reported" true (contains ~sub:"TD001" out)

let test_check_delta_roundtrip () =
  (* diff -m delta, then check the stored delta against the pair *)
  let delta = Filename.temp_file "delta" ".txt" in
  let code, _ =
    run
      (Printf.sprintf "%s diff %s %s -m delta -o %s" (bin "treediff_cli")
         (fx "base.old.sexp") (fx "base.new.sexp") delta)
  in
  Alcotest.(check int) "diff exits 0" 0 code;
  let code, out = run_check ("--delta " ^ delta) in
  Alcotest.(check int) "stored delta checks out" 0 code;
  Alcotest.(check bool) "prints ok" true (contains ~sub:"ok" out);
  (* a delta for the wrong pair is caught *)
  let bogus = tmp_file "(D (S \"x\" [ins]))" in
  let code, out = run_check ("--delta " ^ bogus) in
  Alcotest.(check bool) "wrong delta exits nonzero" true (code <> 0);
  Alcotest.(check bool) "TD405 reported" true (contains ~sub:"TD405" out)

(* ----------------------------------------------------------------- batch *)

(* `treediff batch` runs each pair through the same diff as `treediff
   diff`: the §7 word-LCS leaf compare, so a one-word rewording is one UPD
   rather than a rebuilt subtree.  For every example pair, in its own
   format, and for such a rewording, [STEM.script] from `batch -o` is
   exactly what `diff` prints. *)
let test_batch_matches_diff () =
  let pairs_dir = Filename.concat (Filename.dirname Sys.executable_name) "../examples/pairs" in
  let format_of ext =
    match ext with ".md" -> "markdown" | ".tex" -> "latex" | e -> String.sub e 1 (String.length e - 1)
  in
  let examples =
    Sys.readdir pairs_dir |> Array.to_list
    |> List.filter (fun n -> contains ~sub:".old." n)
    |> List.sort compare
    |> List.map (fun name ->
           let ext = Filename.extension name in
           let stem = Filename.chop_suffix name (".old" ^ ext) in
           ( stem,
             ext,
             read_file (Filename.concat pairs_dir name),
             read_file (Filename.concat pairs_dir (stem ^ ".new" ^ ext)) ))
  in
  let reworded =
    ( "reworded",
      ".sexp",
      {|(D (P (S "the quick brown fox jumps over the lazy dog")) (P (S "a second paragraph stays")))|},
      {|(D (P (S "the quick brown cat jumps over the lazy dog")) (P (S "a second paragraph stays")))|}
    )
  in
  Alcotest.(check bool) "example pairs found" true (examples <> []);
  List.iter
    (fun (stem, ext, old_src, new_src) ->
      let dir = Filename.temp_file "treediff_batch" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let write name src =
        let path = Filename.concat dir name in
        let oc = open_out_bin path in
        output_string oc src;
        close_out oc;
        path
      in
      let o = write (stem ^ ".old" ^ ext) old_src in
      let n = write (stem ^ ".new" ^ ext) new_src in
      let out = dir ^ ".out" in
      let fmt = format_of ext in
      let code, want =
        run (Printf.sprintf "%s diff -f %s %s %s" (bin "treediff_cli") fmt o n)
      in
      Alcotest.(check int) (stem ^ " diff exit 0") 0 code;
      let code, _ =
        run (Printf.sprintf "%s batch -f %s -o %s %s" (bin "treediff_cli") fmt out dir)
      in
      Alcotest.(check int) (stem ^ " batch exit 0") 0 code;
      Alcotest.(check string) (stem ^ " batch script = diff stdout") want
        (read_file (Filename.concat out (stem ^ ".script")));
      if stem = "reworded" then
        Alcotest.(check string) "a one-word rewording is one update"
          "UPD(1,\"the quick brown cat jumps over the lazy dog\")\n" want;
      ignore (Sys.command (Printf.sprintf "rm -rf %s %s" (Filename.quote dir) (Filename.quote out))))
    (examples @ [ reworded ])

(* ------------------------------------------------------------ exit codes *)

(* 0 = success, 2 = parse error, 3 = budget exceeded (degraded output was
   still produced), 4 = internal failure (here: an injected fault that kills
   every rung, leaving only the flat fallback). *)

let test_exit_parse_error () =
  let bad = tmp_file "<a><b>never closed" and good = tmp_file "<a>ok</a>" in
  let code, _ =
    run (Printf.sprintf "%s diff %s %s -f xml" (bin "treediff_cli") bad good)
  in
  Alcotest.(check int) "exit 2" 2 code

let test_exit_lenient_recovers () =
  let bad = tmp_file "<a><b>never closed" and good = tmp_file "<a>ok</a>" in
  let code, _ =
    run
      (Printf.sprintf "%s diff %s %s -f xml --lenient" (bin "treediff_cli") bad
         good)
  in
  Alcotest.(check int) "exit 0" 0 code

let test_exit_degraded () =
  let o = tmp_file {|(D (P (S "a b") (S "c d")) (P (S "e f")))|} in
  let n = tmp_file {|(D (P (S "a x") (S "c d")) (P (S "e f g")))|} in
  let code, out =
    run
      (Printf.sprintf "%s diff %s %s --max-comparisons 1 -m script"
         (bin "treediff_cli") o n)
  in
  Alcotest.(check int) "exit 3" 3 code;
  (* degraded, but output was still produced *)
  Alcotest.(check bool) "script emitted" true (String.length out > 0)

let test_exit_internal_fault () =
  let o = tmp_file {|(D (P (S "a b")))|} and n = tmp_file {|(D (P (S "a c")))|} in
  (* edit_gen runs in every rung, so a sticky fault there exhausts the
     ladder: flat fallback on stdout, exit 4 *)
  let code, out =
    run
      (Printf.sprintf "TREEDIFF_FAULT=edit_gen.visit:raise %s diff %s %s"
         (bin "treediff_cli") o n)
  in
  Alcotest.(check int) "exit 4" 4 code;
  Alcotest.(check bool) "flat fallback emitted" true (contains ~sub:"a b" out)

let test_exit_budget_fault_is_3 () =
  let o = tmp_file {|(D (P (S "a b")))|} and n = tmp_file {|(D (P (S "a c")))|} in
  let code, _ =
    run
      (Printf.sprintf "TREEDIFF_FAULT=edit_gen.visit:deadline %s diff %s %s"
         (bin "treediff_cli") o n)
  in
  Alcotest.(check int) "deadline-cause failure exits 3" 3 code

let test_ladiff_lenient () =
  let o = tmp_file "\\begin{itemize} no item ever" and n = tmp_file "fine text.\n" in
  let code, _ =
    run (Printf.sprintf "%s %s %s --lenient -m summary" (bin "ladiff") o n)
  in
  Alcotest.(check int) "lenient ladiff exits 0" 0 code;
  let code, _ = run (Printf.sprintf "%s %s %s" (bin "ladiff") o n) in
  Alcotest.(check int) "strict ladiff exits 2" 2 code

let test_experiments_help () =
  let code, out = run (Printf.sprintf "%s --help=plain" (bin "experiments")) in
  Alcotest.(check int) "help exit 0" 0 code;
  Alcotest.(check bool) "mentions experiments" true (contains ~sub:"EXPERIMENT" out)

let () =
  Alcotest.run "cli"
    [
      ( "ladiff",
        [
          Alcotest.test_case "latex mode with check" `Quick test_ladiff_latex;
          Alcotest.test_case "summary/html/script modes" `Quick test_ladiff_modes;
          Alcotest.test_case "parse errors exit nonzero" `Quick test_ladiff_bad_input;
        ] );
      ( "treediff",
        [
          Alcotest.test_case "diff/apply round-trip" `Quick test_treediff_roundtrip_sexp;
          Alcotest.test_case "xml input" `Quick test_treediff_xml;
          Alcotest.test_case "zhang-shasha flag" `Quick test_treediff_zs_flag;
          Alcotest.test_case "batch scripts equal diff output" `Quick
            test_batch_matches_diff;
        ] );
      ( "check",
        [
          Alcotest.test_case "self-check" `Quick test_check_self;
          Alcotest.test_case "good script" `Quick test_check_good_script;
          Alcotest.test_case "use after delete" `Quick test_check_use_after_delete;
          Alcotest.test_case "phase order" `Quick test_check_phase_order;
          Alcotest.test_case "nonconforming" `Quick test_check_nonconforming;
          Alcotest.test_case "parse error" `Quick test_check_parse_error;
          Alcotest.test_case "delta round-trip" `Quick test_check_delta_roundtrip;
        ] );
      ( "exit-codes",
        [
          Alcotest.test_case "parse error is 2" `Quick test_exit_parse_error;
          Alcotest.test_case "lenient recovers to 0" `Quick test_exit_lenient_recovers;
          Alcotest.test_case "degraded output is 3" `Quick test_exit_degraded;
          Alcotest.test_case "exhausted ladder is 4" `Quick test_exit_internal_fault;
          Alcotest.test_case "budget-cause failure is 3" `Quick test_exit_budget_fault_is_3;
          Alcotest.test_case "ladiff lenient flag" `Quick test_ladiff_lenient;
        ] );
      ( "gen-corpus",
        [ Alcotest.test_case "generate then ladiff" `Quick test_gen_corpus_pipeline ] );
      ( "experiments",
        [ Alcotest.test_case "help" `Quick test_experiments_help ] );
    ]
