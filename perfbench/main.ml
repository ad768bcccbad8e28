(* The repository benchmark.  One run drives all three scenarios —
   [revisions] (local diffs), [archive] (sharded store) and [service]
   (the daemon) — so every run prints every end-to-end metric; the
   workload named on the command line is the focus and gets the full
   measuring window, the other two half of it.  The scenarios take turns
   in ten rounds.

     main.exe --workload revisions|archive|service --seed N --seconds S
              --trace 0|1 --service-rate R --treediff PATH --work DIR
              [--small]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   Any wrong or missing output makes [correct] false and the exit code 1.
   Use run.py, which builds the targets first. *)

open Bu

let workloads = [ "revisions"; "archive"; "service" ]

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable rate : float;
  mutable treediff : string;
  mutable work : string;
  mutable small : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload revisions|archive|service --seed N --seconds S \
     --trace 0|1 --service-rate R --treediff PATH --work DIR [--small]";
  exit 2

let parse_args () =
  let a =
    {
      workload = "";
      seed = 1;
      seconds = 10.;
      trace = false;
      rate = 0.;
      treediff = "";
      work = "";
      small = false;
    }
  in
  let rec go = function
    | "--workload" :: w :: rest -> a.workload <- w; go rest
    | "--seed" :: n :: rest -> a.seed <- int_of_string n; go rest
    | "--seconds" :: s :: rest -> a.seconds <- float_of_string s; go rest
    | "--trace" :: t :: rest -> a.trace <- t = "1"; go rest
    | "--service-rate" :: r :: rest -> a.rate <- float_of_string r; go rest
    | "--treediff" :: p :: rest -> a.treediff <- p; go rest
    | "--work" :: d :: rest -> a.work <- d; go rest
    | "--small" :: rest -> a.small <- true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem a.workload workloads))
    || a.rate <= 0. || a.seconds <= 0. || a.treediff = "" || a.work = ""
  then usage ();
  a

(* Setting up is repeated and the median reported, so work moved into
   set-up shows without one slow start deciding the figure. *)
let setup_reps a = if a.small then 1 else 3

let print_result ~correct =
  let metrics =
    List.map
      (fun r ->
        ( r.name,
          json_obj [ ("value", json_float r.value); ("unit", json_string r.unit_) ] ))
      (emitted ())
  in
  print_string
    (json_obj
       [
         ("correct", if correct then "true" else "false");
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ("metrics", json_obj metrics);
       ]);
  print_newline ()

let () =
  let a = parse_args () in
  (* a stop request exits through [at_exit], which stops the daemon *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let opts_for scenario =
    {
      seed = a.seed;
      seconds = (if scenario = a.workload then a.seconds else a.seconds /. 2.);
      trace = a.trace;
      small = a.small;
    }
  in
  let rev_o = opts_for "revisions" and arc_o = opts_for "archive" and srv_o = opts_for "service" in
  (try Sys.mkdir a.work 0o755 with Sys_error _ -> ());
  (* ---- setup *)
  (* Each part runs between two bursts of the pace kernel, which set the
     host's pace for it; [Pace.scale] applies it once all reps are done. *)
  let paced f =
    Pace.burst 8;
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    Pace.burst 8;
    (r, (t1 -. t0, (t0 +. t1) /. 2.))
  in
  let setup () =
    let rev, t_rev = paced (fun () -> Revisions.setup rev_o) in
    let arc, t_arc = paced (fun () -> Archive.setup ~work:a.work arc_o) in
    let srv, t_srv = paced (fun () -> Service.setup ~treediff:a.treediff srv_o) in
    ((rev, arc, srv), [ t_rev; t_arc; t_srv ])
  in
  let rec reps i acc =
    let st, times = setup () in
    if i < setup_reps a then begin
      let _, _, srv = st in
      Service.stop_daemon srv.Service.daemon;
      reps (i + 1) (times :: acc)
    end
    else (st, times :: acc)
  in
  let (rev, arc, srv), setup_times = reps 1 [] in
  let setup_times =
    List.map (List.map (fun (dt, at) -> Pace.scale ~at dt)) setup_times
  in
  let part k = median_of (List.map (fun t -> List.nth t k) setup_times) in
  let setup_s = median_of (List.map (List.fold_left ( +. ) 0.) setup_times) in
  (* ---- measure: the scenarios take turns in short rounds, so each
     one's samples span the whole run and a burst of outside load lands
     on all of them alike instead of on whichever ran through it *)
  let rounds = if a.small then 2 else 10 in
  Gc.compact ();
  let rv = Revisions.start rev_o rev in
  let ar = Archive.start arc_o arc in
  let sv = Service.start ~rate:a.rate srv_o srv in
  for _ = 1 to rounds do
    let slice (o : opts) = o.seconds /. float_of_int rounds in
    Revisions.step rv (slice rev_o);
    Archive.step ar (slice arc_o);
    Service.step sv (slice srv_o)
  done;
  Revisions.finish rv;
  Archive.finish ar;
  let daemon_rss = Service.finish sv in
  Service.stop_daemon srv.Service.daemon;
  Archive.rm_rf arc.Archive.dir;
  let rss = peak_rss_mb "self" +. daemon_rss in
  if not a.trace then begin
    emit "setup_s" "s" setup_s;
    emit "peak_rss_mb" "MiB" rss;
    emit "ok_share" "ratio"
      (float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted))
  end
  else begin
    emit "setup.revisions_s" "s" (part 0);
    emit "setup.archive_s" "s" (part 1);
    emit "setup.service_s" "s" (part 2);
    let focus =
      List.find (fun r -> r.name = a.workload ^ ".trace_overhead") (emitted ())
    in
    emit "trace.overhead" "ratio" focus.value
  end;
  (* ---- report *)
  note_str "workload" a.workload;
  note_int "seed" a.seed;
  note "seconds" (json_float a.seconds);
  note "trace" (if a.trace then "1" else "0");
  note "small" (if a.small then "true" else "false");
  note_str "git" (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_GIT_REV"));
  note_str "source_digest"
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_SOURCE_DIGEST"));
  note_str "nproc" (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_NPROC"));
  note_int "cpus_used" (Domain.recommended_domain_count ());
  note_str "ocaml" Sys.ocaml_version;
  note "service_rate_per_s" (json_float a.rate);
  note "pace_kernel_median_us" (json_float (Pace.median_us ()));
  note "pace_nominal_us" (json_float (1e6 *. Pace.nominal));
  List.iter
    (fun r -> Printf.printf "%-28s %14.4f %s\n" r.name r.value r.unit_)
    (emitted ());
  print_endline ("provenance: " ^ json_obj (List.rev !provenance));
  let correct = !mismatches = 0 in
  print_result ~correct;
  exit (if correct then 0 else 1)
