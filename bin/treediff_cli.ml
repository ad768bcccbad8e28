(* Generic tree differ over the s-expression codec.

   treediff diff OLD NEW [-m script|delta|stats] [--zhang-shasha] …
   treediff apply TREE SCRIPT [-o OUT]

   `diff -m script` emits the Script_io format that `apply` replays — the
   paper's data-warehouse loop: compute the delta once, ship it, apply it
   at the replica. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit codes, also documented in each subcommand's man page:
   2 = parse error, 3 = budget exceeded (degraded output was produced),
   4 = internal diagnostic failure, 1 = store-level failure.  Every failure
   of a shared verb is classified once, by {!Verb.exit_code}. *)
let exit_parse_error = 2
let exit_degraded = 3
let exit_internal = 4

(* Every format resolves through the registry: the supported set, the
   unknown-format error and lenient behaviour are the registry's, shared
   with ladiff and the serve daemon. *)
module Doc_format = Treediff_doc.Format

(* The verbs this tool shares with the daemon run through one typed
   executor: argv -> request -> print. *)
module Verb = Treediff_serve.Verb

let die failure =
  Printf.eprintf "treediff: %s\n" (Verb.message failure);
  exit (Verb.exit_code failure)

let or_die = function Ok v -> v | Error failure -> die failure

let warn_for (fmt : Doc_format.t) w =
  Printf.eprintf "treediff: %s: %s\n" fmt.Doc_format.name w

(* A file as a verb source, labelled with its path for parse errors. *)
let source path = { Verb.label = path; text = read_file path }

let sources old_file new_file =
  let old_src = source old_file in
  let new_src = source new_file in
  (old_src, new_src)

let handle_errors f =
  match f () with
  | v -> v
  | exception e -> (
    (* a TREEDIFF_FAULT crash simulation, a parse error or a failed
       diagnostic reports its class instead of dying uncaught, so the
       resilience sweeps get a stable exit code *)
    match Verb.failure_of_exn e with Some failure -> die failure | None -> raise e)

let format_conv =
  let parse s =
    match Doc_format.find s with Ok f -> Ok f | Error m -> Error (`Msg m)
  in
  let print ppf (f : Doc_format.t) =
    Stdlib.Format.pp_print_string ppf f.Doc_format.name
  in
  Arg.conv ~docv:"FMT" (parse, print)

let format_arg =
  let doc =
    "Tree file format: "
    ^ String.concat ", "
        (List.map
           (fun (f : Doc_format.t) ->
             Printf.sprintf "$(b,%s) — %s" f.Doc_format.name f.Doc_format.doc)
           Doc_format.all)
    ^ ".  Id-preserving formats are required when checking scripts from a \
       $(b,store) archive, whose operations reference node identifiers."
  in
  Cmdliner.Arg.(
    value & opt format_conv Doc_format.sexp
    & info [ "f"; "format" ] ~docv:"FMT" ~doc)

let write_out output text =
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

(* ------------------------------------------------------------------ diff *)

(* [-m] picks the machine-oriented modes and [--render] the human ones;
   both print through the renderer the daemon answers with. *)
module Render_diff = Treediff_doc.Render_diff

let output_mode ~render mode =
  let what, name, allowed =
    match render with
    | None -> ("mode", mode, Render_diff.[ Script; Delta; Stats ])
    | Some kind -> ("rendering", kind, Render_diff.[ Side_by_side; Summary ])
  in
  match List.find_opt (fun m -> Render_diff.mode_name m = name) allowed with
  | Some m -> Ok m
  | None ->
    Error
      (Verb.Bad_input
         (Printf.sprintf "unknown %s %S (%s)" what name
            (String.concat "|" (List.map Render_diff.mode_name allowed))))

let make_exec budget_ms max_comparisons max_nodes =
  if budget_ms = None && max_comparisons = None && max_nodes = None then None
  else
    Some
      (Treediff_util.Exec.create
         ~budget:
           (Treediff_util.Budget.make ?deadline_ms:budget_ms ?max_comparisons
              ?max_nodes ())
         ())

let algorithm_of_name = function
  | "fast" -> Ok Treediff.Config.Fast_match
  | "simple" -> Ok Treediff.Config.Simple_match
  | a -> Error (Verb.Bad_input (Printf.sprintf "unknown algorithm %S (fast|simple)" a))

let run_diff old_file new_file format lenient algorithm threshold leaf_f window
    mode render zs budget_ms max_comparisons max_nodes output =
  handle_errors @@ fun () ->
  let input = { Verb.format; lenient } in
  let t1, t2 =
    or_die (Verb.parse_pair ~warn:(warn_for format) input (sources old_file new_file))
  in
  let exec = make_exec budget_ms max_comparisons max_nodes in
  if zs then begin
    match Treediff_zs.Zhang_shasha.mapping ?exec t1 t2 with
    | r ->
      write_out output
        (Printf.sprintf "zhang-shasha distance: %.2f (%d mapped pairs, %d relabels)\n"
           r.Treediff_zs.Zhang_shasha.dist
           (List.length r.Treediff_zs.Zhang_shasha.pairs)
           r.Treediff_zs.Zhang_shasha.relabels)
    | exception Treediff_util.Budget.Exceeded e ->
      (* no degradation ladder for the baseline; report and stop *)
      die (Verb.Deadline (Treediff_util.Budget.describe e))
  end
  else begin
    let settings =
      {
        Verb.default_settings with
        algorithm = or_die (algorithm_of_name algorithm);
        leaf_f;
        internal_t = threshold;
        window;
      }
    in
    let req = { Verb.input; settings; mode = or_die (output_mode ~render mode) } in
    match Verb.diff ?exec req (t1, t2) with
    | Ok result -> (
      (match Treediff.Diff.check result ~t1 ~t2 with
      | Ok () -> ()
      | Error e -> die (Verb.Internal ("internal check failed: " ^ e)));
      write_out output (Verb.render req result);
      match result.Treediff.Diff.degraded with
      | None -> ()
      | Some rung ->
        Printf.eprintf
          "treediff: budget exceeded; degraded to the %s rung (output verified)\n"
          (Treediff.Diff.rung_name rung);
        exit exit_degraded)
    | Error (Verb.Ladder f as failure) ->
      List.iter
        (fun (attempt, reason) ->
          Printf.eprintf "treediff: %s attempt failed: %s\n" attempt reason)
        f.Treediff.Diff.attempts;
      (* last resort: a flat line diff of the two outlines *)
      write_out output (Treediff_textdiff.Line_diff.render f.Treediff.Diff.flat);
      exit (Verb.exit_code failure)
    | Error failure -> die failure
  end

let old_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc:"Old tree file.")

let new_file =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"New tree file.")

let algorithm =
  Arg.(value & opt string "fast" & info [ "a"; "algorithm" ] ~docv:"ALG"
         ~doc:"Matching algorithm: $(b,fast) (FastMatch, §5.3) or \
               $(b,simple) (Match, §5.2).")

let threshold =
  Arg.(value & opt float 0.6 & info [ "t"; "threshold" ] ~docv:"T"
         ~doc:"Internal-node match threshold t.")

let leaf_f =
  Arg.(value & opt float 0.5 & info [ "leaf-threshold" ] ~docv:"F"
         ~doc:"Leaf distance threshold f (word-LCS distance).")

let window =
  Arg.(value & opt (some int) None & info [ "k"; "window" ] ~docv:"K"
         ~doc:"A(k) scan window: bound FastMatch's straggler scan to $(docv) chain \
               positions (faster, may miss far moves).  Default: unbounded.")

let mode =
  Arg.(value & opt string "script" & info [ "m"; "mode" ] ~docv:"MODE"
         ~doc:"Output: $(b,script) (replayable), $(b,delta) (annotated tree) or $(b,stats).")

let render_arg =
  Arg.(value & opt (some string) None & info [ "render" ] ~docv:"R"
         ~doc:"Render the diff for humans instead of $(b,-m): \
               $(b,side-by-side) (aligned two-column old/new view) or \
               $(b,summary) (terse natural-language change summary, e.g. \
               \"moved \xc2\xa73 under \xc2\xa72; reworded 4 sentences\").")

let zs =
  Arg.(value & flag & info [ "zhang-shasha" ]
         ~doc:"Run the Zhang-Shasha baseline instead of the paper's pipeline.")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write to $(docv) instead of stdout.")

let lenient =
  Arg.(value & flag & info [ "lenient" ]
         ~doc:"Recover from malformed input instead of failing: each \
               recovery is reported as a warning on stderr and parsing \
               continues.  Ignored by formats without a recovery mode \
               (see $(b,--format)).")

let budget_ms =
  Arg.(value & opt (some float) None & info [ "budget-ms" ] ~docv:"MS"
         ~doc:"Wall-clock budget in milliseconds.  When exceeded, the \
               pipeline degrades through cheaper rungs (windowed, keyed, \
               rebuild) and exits with code 3 while still producing verified \
               output.")

let max_comparisons =
  Arg.(value & opt (some int) None & info [ "max-comparisons" ] ~docv:"N"
         ~doc:"Cap the number of leaf/internal node comparisons before \
               degrading (see $(b,--budget-ms)).")

let max_nodes =
  Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N"
         ~doc:"Refuse inputs with more than $(docv) total nodes before \
               degrading (see $(b,--budget-ms)).")

let exit_parse_info =
  Cmd.Exit.info ~doc:"on malformed input (parse error)." exit_parse_error

let exit_internal_info =
  Cmd.Exit.info ~doc:"on an internal diagnostic failure." exit_internal

let diff_exits =
  exit_parse_info
  :: Cmd.Exit.info
       ~doc:"when a resource budget was exceeded: the output was produced by \
             a degraded rung (or a flat line diff) and verified."
       exit_degraded
  :: exit_internal_info :: Cmd.Exit.defaults

let diff_cmd =
  let doc = "compute a minimum-cost edit script between two trees" in
  Cmd.v (Cmd.info "diff" ~doc ~exits:diff_exits)
    Term.(const run_diff $ old_file $ new_file $ format_arg $ lenient
          $ algorithm $ threshold $ leaf_f $ window $ mode $ render_arg $ zs
          $ budget_ms $ max_comparisons $ max_nodes $ output)

(* ----------------------------------------------------------------- apply *)

let run_apply tree_file script_file format lenient jobs output =
  handle_errors @@ fun () ->
  let t =
    or_die
      (Verb.parse ~warn:(warn_for format) { Verb.format; lenient }
         (Treediff_tree.Tree.gen ()) (source tree_file))
  in
  let dummy, script =
    match Treediff_edit.Script_io.parse (read_file script_file) with
    | Ok parsed -> parsed
    | Error msg -> die (Verb.Bad_input (Printf.sprintf "%s: %s" script_file msg))
  in
  let module Script = Treediff_edit.Script in
  match
    match jobs with
    | None -> Script.apply ?dummy t script
    | Some j ->
      (* Parallel replay over the commuting slices of the script's
         dependence graph; byte-identical to the sequential path. *)
      let t' = Treediff_check.Depgraph.apply_parallel ~jobs:j (Script.rooted ?dummy t) script in
      if dummy = None then t' else Script.unwrap t'
  with
  | t' -> write_out output (format.Doc_format.render t')
  | exception Script.Apply_error msg ->
    Printf.eprintf "treediff: script does not apply: %s\n" msg;
    exit exit_internal

let tree_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TREE" ~doc:"Tree to transform.")

let script_file =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"SCRIPT"
         ~doc:"Edit script (Script_io format, as produced by $(b,diff -m script)).")

let apply_jobs =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Replay independent slices of the script's dependence graph \
               in parallel over $(docv) domains.  The result is \
               byte-identical to the sequential replay at any $(docv).")

let apply_cmd =
  let doc = "replay a stored edit script on a tree" in
  let exits = exit_parse_info :: exit_internal_info :: Cmd.Exit.defaults in
  Cmd.v (Cmd.info "apply" ~doc ~exits)
    Term.(const run_apply $ tree_file $ script_file $ format_arg $ lenient
          $ apply_jobs $ output)

(* ----------------------------------------------------------------- batch *)

(* Inputs for one batch item: a display name, a filesystem-safe output stem
   and the two tree files. *)
type batch_item = {
  b_name : string;
  b_stem : string;
  b_old : string;
  b_new : string;
}

let collect_dir dir =
  let entries = Sys.readdir dir in
  Array.sort compare entries;
  Array.to_list entries
  |> List.filter_map (fun entry ->
         match String.index_opt entry '.' with
         | None -> None
         | Some _ ->
           (* accept X.old.EXT and pair it with X.new.EXT *)
           let rec find_marker from =
             match String.index_from_opt entry from '.' with
             | None -> None
             | Some i ->
               if
                 i + 4 < String.length entry
                 && String.sub entry i 5 = ".old."
               then Some i
               else find_marker (i + 1)
           in
           (match find_marker 0 with
           | None -> None
           | Some i ->
             let stem = String.sub entry 0 i in
             let ext = String.sub entry (i + 5) (String.length entry - i - 5) in
             let new_name = Printf.sprintf "%s.new.%s" stem ext in
             Some
               {
                 b_name = stem;
                 b_stem = stem;
                 b_old = Filename.concat dir entry;
                 b_new = Filename.concat dir new_name;
               }))

let collect_manifest path =
  let base = Filename.dirname path in
  let resolve p =
    if Filename.is_relative p then Filename.concat base p else p
  in
  let lines = String.split_on_char '\n' (read_file path) in
  List.filteri (fun _ l -> String.trim l <> "") lines
  |> List.filter (fun l -> (String.trim l).[0] <> '#')
  |> List.mapi (fun i line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
         with
         | [ old_f; new_f ] ->
           {
             b_name = Printf.sprintf "%s -> %s" old_f new_f;
             b_stem = Printf.sprintf "pair-%03d" i;
             b_old = resolve old_f;
             b_new = resolve new_f;
           }
         | _ ->
           die
             (Verb.Bad_input
                (Printf.sprintf "manifest line %d: expected two whitespace-separated paths"
                   (i + 1))))

let run_batch input format lenient jobs mode budget_ms max_comparisons
    max_nodes out_dir =
  handle_errors @@ fun () ->
  let req =
    {
      Verb.input = { Verb.format; lenient };
      settings = Verb.default_settings;
      mode = or_die (output_mode ~render:None mode);
    }
  in
  let items =
    if Sys.is_directory input then collect_dir input else collect_manifest input
  in
  if items = [] then
    die (Verb.Bad_input (Printf.sprintf "batch: no *.old.* pairs found in %s" input));
  (* Parse sequentially (I/O-bound); a malformed pair is reported and scored
     like a `diff` parse error without sinking the rest of the batch. *)
  let parsed =
    List.map
      (fun item ->
        match sources item.b_old item.b_new with
        | s -> Verb.parse_pair ~warn:(warn_for format) req.Verb.input s
        | exception Sys_error m -> Error (Verb.Bad_input m))
      items
  in
  let pairs = Array.of_list (List.filter_map Result.to_option parsed) in
  (* One context per pair, budgets rearmed per pair: a straggler degrades
     alone instead of starving its successors. *)
  let execs _ =
    match make_exec budget_ms max_comparisons max_nodes with
    | Some e -> e
    | None -> Treediff_util.Exec.create ()
  in
  let outcomes = or_die (Verb.batch ~execs ?jobs req pairs) in
  (match out_dir with
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ());
  (* renders only when there is a directory to write the text to *)
  let save item ext text =
    Option.iter
      (fun dir -> write_out (Some (Filename.concat dir (item.b_stem ^ "." ^ ext))) (text ()))
      out_dir
  in
  let next = ref 0 and severity = ref 0 in
  List.iter2
    (fun item parse ->
      let code =
        match parse with
        | Error failure ->
          Printf.printf "parse-error  %s: %s\n" item.b_name (Verb.message failure);
          exit_parse_error
        | Ok _ -> (
          incr next;
          match outcomes.(!next - 1) with
          | Ok ({ Treediff.Diff.measure = m; degraded; _ } as result) ->
            let ops = Treediff_edit.Script.unweighted m in
            save item mode (fun () -> Verb.render req result);
            (match degraded with
            | None ->
              Printf.printf "ok           %s (%d ops, cost %.2f)\n" item.b_name ops
                m.Treediff_edit.Script.cost;
              0
            | Some rung ->
              Printf.printf "degraded     %s (%s rung, %d ops, verified)\n" item.b_name
                (Treediff.Diff.rung_name rung) ops;
              exit_degraded)
          | Error (f : Treediff.Diff.failure) ->
            Printf.printf "failed       %s: %s\n" item.b_name
              (match f.Treediff.Diff.attempts with (_, r) :: _ -> r | [] -> "unknown");
            save item "flat" (fun () ->
                Treediff_textdiff.Line_diff.render f.Treediff.Diff.flat);
            exit_internal)
      in
      severity := max !severity code)
    items parsed;
  Printf.eprintf "treediff: batch: %d pairs (%d parsed), %d degraded, %d failed\n"
    (List.length items) (Array.length pairs)
    (Treediff.Batch.degraded_count outcomes)
    (Treediff.Batch.failed_count outcomes);
  if !severity > 0 then exit !severity

let batch_input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT"
         ~doc:"Either a directory of $(i,X).old.$(i,EXT) / $(i,X).new.$(i,EXT) \
               pairs, or a manifest file with one $(i,OLD NEW) path pair per \
               line (blank lines and $(b,#) comments ignored; relative paths \
               resolve against the manifest's directory).")

let batch_jobs =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Diff $(docv) pairs in parallel (OCaml domains).  Default: the \
               number of cores.  Results are identical at any $(docv): each \
               pair runs in its own execution context.")

let batch_out_dir =
  Arg.(value & opt (some string) None & info [ "o"; "output-dir" ] ~docv:"DIR"
         ~doc:"Write each pair's rendering (see $(b,-m)) to \
               $(docv)/$(i,STEM).$(i,MODE); failed pairs leave a \
               $(i,STEM).flat line diff.  Without it only per-pair status \
               lines are printed.")

let batch_cmd =
  let doc = "diff many tree pairs in parallel" in
  let man =
    [
      `S Manpage.s_description;
      `P "Runs the full diff pipeline over every pair, fanning the pairs out \
          over a domain pool.  Each pair gets its own budget and execution \
          context, so one enormous pair degrades (or fails) alone while the \
          rest complete, and the combined output is byte-identical to a \
          sequential run.  The exit code is the worst per-pair outcome: \
          $(b,0) all clean, $(b,2) some pair failed to parse, $(b,3) some \
          pair degraded, $(b,4) some pair failed outright.";
    ]
  in
  Cmd.v (Cmd.info "batch" ~doc ~man ~exits:diff_exits)
    Term.(const run_batch $ batch_input $ format_arg $ lenient $ batch_jobs
          $ mode $ budget_ms $ max_comparisons $ max_nodes $ batch_out_dir)

(* ----------------------------------------------------------------- check *)

module Diag = Treediff_check.Diag

let run_check old_file new_file format lenient script_file delta_file audit
    exhaustive output =
  handle_errors @@ fun () ->
  let artifact =
    match (script_file, delta_file) with
    | Some _, Some _ -> die (Verb.Bad_input "--script and --delta are mutually exclusive")
    | (Some _, None | None, Some _) when exhaustive ->
      die
        (Verb.Bad_input
           "--audit-exhaustive requires the self-check mode (no --script/--delta)")
    | Some sf, None -> Verb.Stored_script (source sf)
    | None, Some df -> Verb.Stored_delta (source df)
    | None, None -> Verb.Self { audit; exhaustive }
  in
  let { Verb.diags; oracle } =
    or_die
      (Verb.check ~warn:(warn_for format)
         { Verb.input = { Verb.format; lenient }; artifact }
         (sources old_file new_file))
  in
  let buf = Buffer.create 256 in
  List.iter (fun d -> Buffer.add_string buf (Diag.to_string d ^ "\n")) diags;
  Option.iter (fun s -> Buffer.add_string buf (s ^ "\n")) oracle;
  Buffer.add_string buf (Diag.summary diags ^ "\n");
  write_out output (Buffer.contents buf);
  if Diag.errors diags <> [] then exit 1

let check_script =
  Arg.(value & opt (some file) None & info [ "script" ] ~docv:"FILE"
         ~doc:"Verify this stored edit script (Script_io format) against the \
               tree pair instead of diffing.")

let check_delta =
  Arg.(value & opt (some file) None & info [ "delta" ] ~docv:"FILE"
         ~doc:"Verify this stored delta (Delta_io format) against the tree \
               pair instead of diffing.")

let check_audit =
  Arg.(value & flag & info [ "audit" ]
         ~doc:"Also audit the data itself: Matching Criterion 3 ambiguity \
               and label-schema cycles (warnings).")

let check_exhaustive =
  Arg.(value & flag & info [ "audit-exhaustive" ]
         ~doc:"Also prove (or refute) true minimality of the generated \
               script on every maximal matched subtree pair of at most 8 \
               nodes, by exhaustive bidirectional search.  Non-minimal \
               pairs print as TD601 and exhausted searches as TD602 \
               (warnings).  Self-check mode only.")

let check_cmd =
  let doc = "statically verify diff artifacts against a tree pair" in
  let man =
    [
      `S Manpage.s_description;
      `P "Without flags, diffs OLD and NEW and runs the static verifier over \
          the result — script lint, matching analysis and conformance audit. \
          With $(b,--script) or $(b,--delta), verifies a stored artifact \
          instead.  Prints one coded diagnostic per line (TD1xx script lint, \
          TD2xx matching, TD3xx conformance, TD4xx delta structure) and \
          exits non-zero when any error-severity finding is present.";
      `P "With $(b,--audit-exhaustive), the self-check additionally runs the \
          exhaustive minimality oracle over every tiny matched subtree pair \
          and reports where the generated script is provably non-minimal \
          (TD6xx) plus a one-line summary of the audit.";
    ]
  in
  let exits = exit_parse_info :: exit_internal_info :: Cmd.Exit.defaults in
  Cmd.v (Cmd.info "check" ~doc ~man ~exits)
    Term.(const run_check $ old_file $ new_file $ format_arg $ lenient
          $ check_script $ check_delta $ check_audit $ check_exhaustive
          $ output)

(* ----------------------------------------------------------------- store *)

module Shard = Treediff_store.Shard
module Chain = Treediff_store.Chain

(* Store-level errors (missing versions, refused deltas, damaged archives)
   are user-facing operational failures, not internal bugs: exit 1. *)
let ok_or_die = function Ok v -> v | Error msg -> die (Verb.Store msg)

let open_corpus dir =
  let corpus = ok_or_die (Shard.open_ dir) in
  if Shard.manifest_truncated corpus then
    Printf.eprintf
      "treediff: store: %s: manifest had a damaged tail (interrupted commit \
       isolated on replay)\n"
      dir;
  (match Shard.aborted_commits corpus with
  | [] -> ()
  | aborted ->
    Printf.eprintf
      "treediff: store: %s: %d aborted commit(s) from an earlier crash; \
       their versions are invisible and `treediff store gc` reclaims the \
       bytes\n"
      dir (List.length aborted));
  corpus

let policy_string ~interval ~max_replay_ops =
  match (interval, max_replay_ops) with
  | 0, 0 -> "checkpoints disabled"
  | n, 0 -> Printf.sprintf "checkpoint every %d commits" n
  | 0, m -> Printf.sprintf "checkpoint beyond %d replay ops" m
  | n, m -> Printf.sprintf "checkpoint every %d commits or %d replay ops" n m

let plural n = if n = 1 then "" else "s"

let run_store_init archive interval max_replay_ops shards =
  handle_errors @@ fun () ->
  let corpus = ok_or_die (Shard.init ~interval ~max_replay_ops ~shards archive) in
  Printf.printf "initialized %s (%d shard%s, %s)\n" (Shard.dir corpus)
    (Shard.shards corpus) (plural (Shard.shards corpus))
    (policy_string ~interval:(Shard.interval corpus)
       ~max_replay_ops:(Shard.max_replay_ops corpus))

let run_store_commit archive tree_file format lenient doc =
  handle_errors @@ fun () ->
  let tree =
    or_die
      (Verb.parse ~warn:(warn_for format) { Verb.format; lenient }
         (Treediff_tree.Tree.gen ()) (source tree_file))
  in
  let entry = ok_or_die (Shard.commit (open_corpus archive) ~doc tree) in
  Printf.printf "committed version %d (%s, %d ops, %d bytes)\n"
    entry.Shard.version
    (Chain.kind_name entry.Shard.kind)
    entry.Shard.ops entry.Shard.bytes

let print_entries entries =
  Printf.printf "%-8s %-10s %6s %8s %8s  %s\n" "version" "kind" "ops" "bytes"
    "next_id" "hash";
  List.iter
    (fun (e : Shard.entry) ->
      Printf.printf "%-8d %-10s %6d %8d %8d  %016Lx\n" e.Shard.version
        (Chain.kind_name e.Shard.kind)
        e.Shard.ops e.Shard.bytes e.Shard.next_id e.Shard.hash)
    entries

let run_store_log archive doc =
  handle_errors @@ fun () ->
  let corpus = open_corpus archive in
  match doc with
  | Some doc -> print_entries (ok_or_die (Shard.log corpus doc))
  | None ->
    Printf.printf "%-24s %8s %5s  %s\n" "document" "versions" "shard" "head hash";
    List.iter
      (fun d ->
        Printf.printf "%-24s %8d %5d  %s\n" d (Shard.versions corpus d)
          (Shard.shard_of corpus d)
          (match Shard.head_hash corpus d with
          | Some h -> Printf.sprintf "%016Lx" h
          | None -> "-"))
      (Shard.docs corpus)

let run_store_show archive version output doc =
  handle_errors @@ fun () ->
  let corpus = open_corpus archive in
  let entries = ok_or_die (Shard.log corpus doc) in
  let e =
    match List.find_opt (fun (e : Shard.entry) -> e.Shard.version = version) entries with
    | Some e -> e
    | None ->
      ok_or_die
        (Error
           (Printf.sprintf "no version %d of %S (it holds %d..%d)" version doc
              (List.hd entries).Shard.version
              (Shard.versions corpus doc - 1)))
  in
  let header =
    Printf.sprintf "version %d: %s, %d ops, %d bytes, next_id %d, hash %016Lx\n"
      e.Shard.version
      (Chain.kind_name e.Shard.kind)
      e.Shard.ops e.Shard.bytes e.Shard.next_id e.Shard.hash
  in
  let body =
    match e.Shard.kind with
    | Chain.Snapshot -> ""
    | Chain.Delta | Chain.Checkpoint ->
      let dummy, script = ok_or_die (Shard.script_of corpus ~doc version) in
      Treediff_edit.Script_io.to_string ?dummy script
  in
  write_out output (header ^ body)

let run_store_materialize archive version verify budget_ms format output doc =
  handle_errors @@ fun () ->
  let exec = make_exec budget_ms None None in
  let tree = ok_or_die (Shard.materialize ~verify ?exec (open_corpus archive) ~doc version) in
  write_out output (format.Doc_format.render tree)

let run_store_diff archive from_ to_ output doc =
  handle_errors @@ fun () ->
  let script = ok_or_die (Shard.diff_between (open_corpus archive) ~doc ~from_ ~to_) in
  write_out output (Treediff_edit.Script_io.to_string script)

let run_store_gc archive prune_before doc jobs =
  handle_errors @@ fun () ->
  let prune_before =
    match (doc, prune_before) with
    | Some doc, Some p -> Some (doc, p)
    | None, None -> None
    | None, Some _ -> ok_or_die (Error "--prune-before prunes one document: name it with --doc")
    | Some _, None -> ok_or_die (Error "--doc applies to gc only with --prune-before")
  in
  let corpus = open_corpus archive in
  let before, after = ok_or_die (Shard.gc ?jobs ?prune_before corpus) in
  Printf.printf "compacted %s: %d -> %d bytes (%d shard%s)\n" (Shard.dir corpus)
    before after (Shard.shards corpus) (plural (Shard.shards corpus));
  Option.iter
    (fun (doc, p) -> Printf.printf "%s now starts at version %d\n" doc p)
    prune_before

(* An ingest source directory: one subdirectory per document, whose files
   (in lexicographic order) are the successive versions. *)
let sources_of_dir ~format ~lenient docs_dir =
  let entries = Sys.readdir docs_dir in
  Array.sort compare entries;
  let sources =
    Array.to_list entries
    |> List.filter_map (fun name ->
           let dir = Filename.concat docs_dir name in
           if not (Sys.is_directory dir) then None
           else begin
             let files = Sys.readdir dir in
             Array.sort compare files;
             let files =
               Array.to_list files
               |> List.filter (fun f ->
                      let p = Filename.concat dir f in
                      String.length f > 0 && f.[0] <> '.'
                      && not (Sys.is_directory p))
               |> List.map (Filename.concat dir)
               |> Array.of_list
             in
             if Array.length files = 0 then None
             else
               Some
                 {
                   Shard.name;
                   count = Array.length files;
                   load =
                     (fun v ->
                       (* called from pool domains: fresh generator per call,
                          failures reported as typed errors so one bad file
                          skips its document, not the ingest *)
                       match source files.(v) with
                       | src ->
                         Verb.parse ~warn:(warn_for format) { Verb.format; lenient }
                           (Treediff_tree.Tree.gen ()) src
                         |> Result.map_error Verb.message
                       | exception Sys_error m -> Error m);
                 }
           end)
  in
  sources

let run_store_ingest archive docs_dir jobs chunk_docs budget_ms format lenient =
  handle_errors @@ fun () ->
  let corpus = open_corpus archive in
  let sources = sources_of_dir ~format ~lenient docs_dir in
  if sources = [] then
    ok_or_die
      (Error
         (Printf.sprintf "%s has no document subdirectories to ingest" docs_dir));
  let on_chunk ~done_ ~total =
    Printf.eprintf "treediff: store: ingest chunk %d/%d\n%!" done_ total
  in
  let report =
    ok_or_die
      (Shard.ingest ?jobs ?chunk_docs ?budget_ms ~on_chunk corpus sources)
  in
  List.iter
    (fun (doc, msg) ->
      Printf.eprintf "treediff: store: skipped %s: %s\n" doc msg)
    report.Shard.docs_failed;
  Printf.printf
    "ingested %d document(s): %d version(s) appended in %d commit(s), %d \
     already complete, %d failed\n"
    report.Shard.docs_ingested report.Shard.versions_appended
    report.Shard.chunks report.Shard.docs_skipped
    (List.length report.Shard.docs_failed)

let run_store_stats archive =
  handle_errors @@ fun () ->
  let s = Shard.stats (open_corpus archive) in
  let shard_total = Array.fold_left ( + ) 0 s.Shard.stat_shard_bytes in
  let largest = Array.fold_left max 0 s.Shard.stat_shard_bytes in
  Printf.printf "%s: %d shards, %d document(s), %d version(s)\n" archive
    s.Shard.stat_shards s.Shard.stat_docs s.Shard.stat_versions;
  Printf.printf "shard bytes: %d total, %d largest; manifest bytes: %d\n"
    shard_total largest s.Shard.stat_manifest_bytes;
  Printf.printf "epoch %d; %d aborted commit(s) awaiting gc\n" s.Shard.stat_epoch
    s.Shard.stat_aborted

let run_store_verify archive jobs =
  handle_errors @@ fun () ->
  let corpus = open_corpus archive in
  let n = ok_or_die (Shard.verify ?jobs corpus) in
  Printf.printf "verified %d version(s) across %d document(s)\n" n
    (Shard.doc_count corpus)

let run_store_migrate legacy dir doc =
  handle_errors @@ fun () ->
  let corpus, n = ok_or_die (Shard.migrate ~doc ~legacy dir) in
  Printf.printf "migrated %s into %s: %d version(s) of %s verified (%s)\n" legacy
    (Shard.dir corpus) n doc
    (policy_string ~interval:(Shard.interval corpus)
       ~max_replay_ops:(Shard.max_replay_ops corpus))

let archive_new at =
  Arg.(required & pos at (some string) None & info [] ~docv:"ARCHIVE"
         ~doc:"Archive directory to create.")

let archive =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"ARCHIVE"
         ~doc:"Archive directory (created by $(b,store init) or \
               $(b,store migrate)).")

let legacy_pos =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Single-file archive written by an older release.")

let store_interval =
  Arg.(value & opt int 8 & info [ "interval" ] ~docv:"N"
         ~doc:"Take a full-snapshot checkpoint every $(docv) commits \
               ($(b,0) disables the counter).")

let store_max_replay =
  Arg.(value & opt int 512 & info [ "max-replay-ops" ] ~docv:"N"
         ~doc:"Take a checkpoint as soon as replaying the chain from the \
               last one would exceed $(docv) edit operations ($(b,0) \
               disables the cost trigger).")

let store_version_pos =
  Arg.(required & pos 1 (some int) None & info [] ~docv:"VERSION"
         ~doc:"Version number (see $(b,store log)).")

let store_verify =
  Arg.(value & flag & info [ "verify" ]
         ~doc:"Check the materialized tree against the hash stored at \
               commit time.")

let store_from =
  Arg.(required & opt (some int) None & info [ "from" ] ~docv:"I"
         ~doc:"Source version.")

let store_to =
  Arg.(required & opt (some int) None & info [ "to" ] ~docv:"J"
         ~doc:"Target version.")

let store_prune =
  Arg.(value & opt (some int) None & info [ "prune-before" ] ~docv:"P"
         ~doc:"Discard the history of the $(b,--doc) document older than \
               version $(docv); $(docv) becomes its new base snapshot \
               (version numbers are preserved).  Only that document's \
               shard is rewritten.")

let store_shards =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
         ~doc:"Number of hash-bucketed shard files behind the write-ahead \
               manifest.  One suits an archive of a few documents; bulk \
               corpora spread over more.  The shard count is fixed for the \
               archive's lifetime.")

let store_doc_info =
  Arg.info [ "doc" ] ~docv:"DOC" ~doc:"Document name inside the archive."

let store_doc = Arg.(required & opt (some string) None & store_doc_info)

let store_doc_opt = Arg.(value & opt (some string) None & store_doc_info)

let store_jobs =
  Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N"
         ~doc:"Worker domains for the parallel phases (default: the \
               machine's recommendation).")

let store_chunk_docs =
  Arg.(value & opt (some int) None & info [ "chunk-docs" ] ~docv:"N"
         ~doc:"Documents per write-ahead commit during ingest (default 16): \
               a crash loses at most one chunk, and smaller chunks checkpoint \
               progress more often.")

let docs_dir_pos =
  Arg.(required & pos 1 (some dir) None & info [] ~docv:"DOCS"
         ~doc:"Ingest source: a directory with one subdirectory per \
               document, whose files in lexicographic order are the \
               successive versions.")

let tree_file_pos1 =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"TREE"
         ~doc:"Document to commit as the next version.")

let store_exit_info =
  Cmd.Exit.info ~doc:"on a store-level failure: missing version, refused \
                      delta, damaged or incompatible archive." 1

let store_cmds =
  let exits = store_exit_info :: exit_parse_info :: exit_internal_info
              :: Cmd.Exit.defaults in
  [
    Cmd.v
      (Cmd.info "init" ~doc:"create an empty archive" ~exits)
      Term.(const run_store_init $ archive_new 0 $ store_interval
            $ store_max_replay $ store_shards);
    Cmd.v
      (Cmd.info "commit" ~doc:"append a document as its next version" ~exits)
      Term.(const run_store_commit $ archive $ tree_file_pos1 $ format_arg
            $ lenient $ store_doc);
    Cmd.v
      (Cmd.info "log"
         ~doc:"list the archive's documents, or one document's versions \
               with $(b,--doc)"
         ~exits)
      Term.(const run_store_log $ archive $ store_doc_opt);
    Cmd.v
      (Cmd.info "show" ~doc:"print one version's metadata and stored delta"
         ~exits)
      Term.(const run_store_show $ archive $ store_version_pos $ output
            $ store_doc);
    Cmd.v
      (Cmd.info "materialize" ~doc:"reconstruct a stored version" ~exits)
      Term.(const run_store_materialize $ archive $ store_version_pos
            $ store_verify $ budget_ms $ format_arg $ output $ store_doc);
    Cmd.v
      (Cmd.info "diff"
         ~doc:"compose the stored chain into one script between two versions"
         ~exits)
      Term.(const run_store_diff $ archive $ store_from $ store_to $ output
            $ store_doc);
    Cmd.v
      (Cmd.info "gc"
         ~doc:"compact the archive, or prune one document's history" ~exits)
      Term.(const run_store_gc $ archive $ store_prune $ store_doc_opt
            $ store_jobs);
    Cmd.v
      (Cmd.info "ingest"
         ~doc:"bulk-load documents from a directory tree" ~exits)
      Term.(const run_store_ingest $ archive $ docs_dir_pos $ store_jobs
            $ store_chunk_docs $ budget_ms $ format_arg $ lenient);
    Cmd.v
      (Cmd.info "stats" ~doc:"archive shape and on-disk size, without scanning"
         ~exits)
      Term.(const run_store_stats $ archive);
    Cmd.v
      (Cmd.info "verify"
         ~doc:"materialize every stored version against its committed hash"
         ~exits)
      Term.(const run_store_verify $ archive $ store_jobs);
    Cmd.v
      (Cmd.info "migrate"
         ~doc:"convert a single-file archive from an older release into a \
               1-shard archive"
         ~exits)
      Term.(const run_store_migrate $ legacy_pos $ archive_new 1 $ store_doc);
  ]

let store_cmd =
  let doc = "delta-chain version archives" in
  let man =
    [
      `S Manpage.s_description;
      `P "An archive stores each document's history as a base snapshot plus \
          a chain of forward edit scripts, with periodic full-snapshot \
          checkpoints so $(b,materialize) costs O(distance to the nearest \
          checkpoint).  Every commit is re-verified by the static checker \
          before it is written, and each record is checksummed so an \
          interrupted commit is isolated on reopen rather than corrupting \
          the history.";
      `P "An archive is a directory of hash-bucketed shard files \
          ($(b,--shards), default 1) fronted by a checksummed write-ahead \
          manifest, holding any number of documents.  Commits are atomic \
          across documents (a crash loses at most the in-flight commit, and \
          reopen needs no repair step), $(b,ingest) bulk-loads and resumes \
          deterministically, and every per-document verb names its \
          document with $(b,--doc).";
      `P "The single-file archives of older releases are read by \
          $(b,store migrate) alone, which converts one into a 1-shard \
          archive with its version numbers, pruned base, checkpoints and \
          scripts unchanged.";
    ]
  in
  Cmd.group (Cmd.info "store" ~doc ~man) store_cmds

(* ----------------------------------------------------------------- serve *)

module Server = Treediff_serve.Server
module Client = Treediff_serve.Client
module Json = Treediff_util.Json
module Sproto = Treediff_serve.Protocol

let run_serve host port stdio max_queue flat_queue
    default_deadline_ms max_deadline_ms cache_entries allow_crash =
  handle_errors @@ fun () ->
  let config =
    {
      Server.default_config with
      Server.host;
      port;
      max_queue;
      flat_queue;
      default_deadline_ms;
      max_deadline_ms;
      cache_entries;
      allow_crash;
    }
  in
  if stdio then Server.serve_stdio ~config stdin stdout
  else
    Server.run ~config
      ~on_listen:(fun p -> Printf.printf "listening on %s:%d\n%!" host p)
      ()

let serve_host =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind (serve) or connect to (remote).")

let serve_port =
  Arg.(value & opt int 7433 & info [ "port" ] ~docv:"PORT"
         ~doc:"TCP port; $(b,0) binds an ephemeral port and prints it.")

let serve_stdio_flag =
  Arg.(value & flag & info [ "stdio" ]
         ~doc:"Serve frames on stdin/stdout instead of TCP (one request at \
               a time, no admission control); used by the tests.")

let serve_max_queue =
  Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
         ~doc:"Admission bound: requests beyond a queue depth of $(docv) \
               are rejected with a typed $(b,overloaded) answer.")

let serve_flat_queue =
  Arg.(value & opt int 32 & info [ "flat-queue" ] ~docv:"N"
         ~doc:"Queue depth at which structural diffing is bypassed for the \
               flat line diff.")

let serve_default_deadline =
  Arg.(value & opt float 1000. & info [ "default-deadline-ms" ] ~docv:"MS"
         ~doc:"Per-request deadline when the client does not ask for one.")

let serve_max_deadline =
  Arg.(value & opt float 5000. & info [ "max-deadline-ms" ] ~docv:"MS"
         ~doc:"Server-enforced cap on client-requested deadlines.")

let serve_cache_entries =
  Arg.(value & opt int 256 & info [ "cache-entries" ] ~docv:"N"
         ~doc:"LRU result-cache capacity, keyed by the structural hash of \
               the input pair; $(b,0) disables the cache.")

let serve_allow_crash =
  Arg.(value & flag & info [ "allow-crash" ]
         ~doc:"Enable the debug $(b,crash) verb (a handler that raises), \
               used by the crash-isolation tests.")

let serve_cmd =
  let doc = "run the diff daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P "A long-running server answering diff/batch/check/store requests \
          over length-prefixed JSON frames.  Each request runs in its own \
          execution context under its own deadline; queue pressure degrades \
          service (full pipeline, then flat line diffs) before rejecting \
          with typed $(b,overloaded) answers; a \
          request that crashes is answered with a typed $(b,internal) error \
          while the server keeps serving.  SIGINT/SIGTERM drain the queue, \
          flush, and exit 0.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run_serve $ serve_host $ serve_port $ serve_stdio_flag
          $ serve_max_queue $ serve_flat_queue
          $ serve_default_deadline $ serve_max_deadline $ serve_cache_entries
          $ serve_allow_crash)

(* ---------------------------------------------------------------- remote *)

let remote_exit_of_kind = function
  | Sproto.Bad_request -> exit_parse_error
  | Sproto.Deadline -> exit_degraded
  | Sproto.Internal -> exit_internal
  | Sproto.Overloaded | Sproto.Shutting_down -> 1

let run_remote verb old_file new_file host port mode deadline_ms params_json
    attempts base_ms max_ms seed verbose retry_unsafe output =
  handle_errors @@ fun () ->
  let base =
    (match old_file with
    | Some f -> [ ("old", Json.Str (read_file f)) ]
    | None -> [])
    @ (match new_file with
      | Some f -> [ ("new", Json.Str (read_file f)) ]
      | None -> [])
    @ [ ("mode", Json.Str mode) ]
    @
    match deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.float ms) ]
    | None -> []
  in
  let extra =
    match params_json with
    | None -> []
    | Some s -> (
      match Json.parse s with
      | Ok (Json.Obj kvs) -> kvs
      | Ok _ ->
        Printf.eprintf "treediff: remote: --params must be a JSON object\n";
        exit exit_parse_error
      | Error e ->
        Printf.eprintf "treediff: remote: --params: %s\n" e;
        exit exit_parse_error)
  in
  (* --params wins over the derived fields *)
  let params =
    Json.Obj
      (List.filter (fun (k, _) -> not (List.mem_assoc k extra)) base @ extra)
  in
  let req = { Sproto.id = 1; verb; params } in
  let on_attempt (a : Client.attempt) =
    if verbose then
      Printf.eprintf "treediff: remote: attempt %d failed (%s); retrying in %.0fms\n%!"
        a.Client.number a.Client.reason a.Client.delay_ms
  in
  match
    Client.call_with_retry ~attempts ~base_ms ~max_ms ~on_attempt
      ~retry_unsafe
      ~prng:(Treediff_util.Prng.create seed)
      ~connect:(fun () -> Client.connect ~host ~port)
      req
  with
  | Error msg ->
    Printf.eprintf "treediff: remote: %s\n" msg;
    exit 1
  | Ok (Sproto.Err_resp { kind; message; _ }) ->
    Printf.eprintf "treediff: remote: %s: %s\n" (Sproto.error_kind_name kind)
      message;
    exit (remote_exit_of_kind kind)
  | Ok (Sproto.Ok_resp body) ->
    (match Json.mem_str "output" body with
    | Some s -> write_out output s
    | None -> write_out output (Json.to_string body ^ "\n"));
    (match Json.member "degraded" body with
    | Some (Json.Str _) -> exit exit_degraded
    | Some _ | None -> ())

let remote_verb =
  Arg.(value & pos 0 string "diff" & info [] ~docv:"VERB"
         ~doc:"Request verb: $(b,ping), $(b,stats), $(b,diff), $(b,check), \
               $(b,batch), $(b,store/log), $(b,store/materialize), \
               $(b,store/commit), $(b,store/diff) or $(b,shutdown).")

let remote_old =
  Arg.(value & pos 1 (some file) None & info [] ~docv:"OLD"
         ~doc:"Old tree file (diff/check).")

let remote_new =
  Arg.(value & pos 2 (some file) None & info [] ~docv:"NEW"
         ~doc:"New tree file (diff/check).")

let remote_deadline =
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
         ~doc:"Deadline requested from the server (it may cap it; queueing \
               time counts against it).")

let remote_params =
  Arg.(value & opt (some string) None & info [ "params" ] ~docv:"JSON"
         ~doc:"Extra request parameters as a JSON object, merged over the \
               derived ones (e.g. \
               $(b,'{\"archive\":\"docs.tda\",\"version\":3}') for store \
               verbs).")

let remote_attempts =
  Arg.(value & opt int 5 & info [ "attempts" ] ~docv:"N"
         ~doc:"Total tries on $(b,overloaded)/$(b,shutting_down) answers \
               and connection errors.")

let remote_base_ms =
  Arg.(value & opt float 25. & info [ "base-ms" ] ~docv:"MS"
         ~doc:"Base backoff delay; attempt $(i,i) waits up to \
               base * 2^i with jitter.")

let remote_max_ms =
  Arg.(value & opt float 1600. & info [ "max-ms" ] ~docv:"MS"
         ~doc:"Backoff delay cap.")

let remote_seed =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
         ~doc:"PRNG seed for backoff jitter: the retry schedule is a pure \
               function of this seed.")

let remote_verbose =
  Arg.(value & flag & info [ "v"; "verbose" ]
         ~doc:"Report each retry decision on stderr.")

let remote_retry_unsafe =
  Arg.(value & flag & info [ "retry-unsafe" ]
         ~doc:"Also retry connection errors that happen $(i,after) a \
               non-idempotent request ($(b,store/commit), $(b,shutdown)) \
               was sent.  Off by default: the server may already have \
               executed the request, so a blind retry risks a duplicate \
               commit.  Typed $(b,overloaded)/$(b,shutting_down) answers \
               are always retried — the server refused without executing.")

let remote_cmd =
  let doc = "send one request to a running diff daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P "Connects to $(b,treediff serve), sends one framed request, prints \
          the answer.  Typed $(b,overloaded) and $(b,shutting_down) answers \
          and connection failures are retried with exponential backoff and \
          seeded jitter (honouring the server's $(b,retry_after_ms) hint); \
          a connection that drops after a non-idempotent request was sent \
          is not retried unless $(b,--retry-unsafe) is given.  Other errors \
          map to the same exit codes as the local subcommands.";
    ]
  in
  let exits =
    exit_parse_info
    :: Cmd.Exit.info
         ~doc:"when the server answered $(b,deadline) or the result was \
               degraded." exit_degraded
    :: exit_internal_info
    :: Cmd.Exit.info
         ~doc:"on connection failure or an $(b,overloaded) answer that \
               survived all retries." 1
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "remote" ~doc ~man ~exits)
    Term.(const run_remote $ remote_verb $ remote_old $ remote_new
          $ serve_host $ serve_port $ mode $ remote_deadline $ remote_params
          $ remote_attempts $ remote_base_ms $ remote_max_ms $ remote_seed
          $ remote_verbose $ remote_retry_unsafe $ output)

(* ------------------------------------------------------------------ main *)

let cmd =
  let doc = "minimum-cost edit scripts between labeled ordered trees" in
  let man =
    [
      `S Manpage.s_description;
      `P "Trees use the s-expression codec, e.g. \
          (D (P (S \"a\") (S \"b\")) (P (S \"c\"))).  The algorithms are those \
          of Chawathe, Rajaraman, Garcia-Molina & Widom (SIGMOD 1996).";
    ]
  in
  Cmd.group (Cmd.info "treediff" ~version:"1.0.0" ~doc ~man)
    [ diff_cmd; batch_cmd; apply_cmd; check_cmd; store_cmd; serve_cmd;
      remote_cmd ]

(* A closed downstream ([treediff batch … | head]) is a normal way to stop
   consuming output, not a failure: SIGPIPE is ignored so the write surfaces
   as EPIPE / [Sys_error "Broken pipe"], which maps to a clean exit 0. *)
let broken_pipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
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
