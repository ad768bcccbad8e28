(* The [service] scenario: the daemon as users run it.  [treediff serve]
   runs with its default configuration as its own process; one
   single-threaded generator drives it over one loopback connection in two
   phases:
   - steady: an open loop at a fixed absolute rate (never calibrated),
     unique diff pairs (sexp and json) plus about 10% hot-set repeats, each
     request timed from when it was due;
   - capacity: a closed loop of unique pairs holding a fixed window of
     outstanding requests, below the server's degrade depth. *)

open Bu
module Prng = Treediff_util.Prng
module Tree = Treediff_tree.Tree
module Docgen = Treediff_workload.Docgen
module Mutate = Treediff_workload.Mutate
module Json = Treediff_serve.Json
module Protocol = Treediff_serve.Protocol
module Handler = Treediff_serve.Handler

type pair = { fmt : string; old_src : string; new_src : string }

(* Outstanding requests in the capacity phase: below the daemon's default
   [degrade_queue], so every answer is full quality. *)
let window = 4

let hot_set = 8

(* Share of the service window spent in the steady phase: at the fixed
   rate its p99 needs the samples more than the capacity phase's mean
   throughput does. *)
let steady_share = 0.75

(* [steady_p99_ms] is the median over windows of this many steady answers
   (one second at 100/s) of each window's p99.  Stalls of the host's
   virtual CPU hit 0.5-1.5% of steady requests in bursts; a p99 pooled
   over the whole phase sits on the edge of that share and jumped between
   3 and 9 ms from run to run, where the windowed figure kept to 2.7-3.5. *)
let steady_window = 100

type daemon = { pid : int; port : int }

type state = {
  pairs : pair array;  (* unique pairs, used in order *)
  hot : pair array;
  daemon : daemon;
  inputs_digest : string;
}

let make_pair g i =
  let gen = Tree.gen () in
  let doc = Docgen.generate g gen Docgen.small in
  let doc', _ = Mutate.mutate g gen doc ~actions:(Prng.int_in g 2 6) in
  if i mod 2 = 0 then
    {
      fmt = "sexp";
      old_src = Treediff_tree.Codec.to_string doc;
      new_src = Treediff_tree.Codec.to_string doc';
    }
  else
    {
      fmt = "json";
      old_src = Revisions.json_of_doc doc;
      new_src = Revisions.json_of_doc doc';
    }

(* --------------------------------------------------------------- daemon *)

let children : int list ref = ref []

let reap pid =
  match Unix.waitpid [] pid with _ -> () | exception Unix.Unix_error _ -> ()

(* Last resort on abnormal exit: no daemon outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !children)

let spawn ~treediff =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process treediff
      [| treediff; "serve"; "--port"; "0" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  children := pid :: !children;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match Scanf.sscanf line "listening on %s@:%d" (fun _ p -> p) with
  | port -> { pid; port }
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
    failwith (Printf.sprintf "service: daemon did not start (%S)" line)

external quickack : Unix.file_descr -> unit = "perfbench_quickack" [@@noalloc]

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* Blocking single round trip (control verbs). *)
let call fd id verb params =
  let frame =
    Protocol.encode_frame
      (Json.to_string (Protocol.request_to_json { Protocol.id; verb; params }))
  in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  let framer = Protocol.Framer.create () in
  let buf = Bytes.create 65536 in
  let rec wait () =
    match Protocol.Framer.next framer with
    | Ok (Some payload) -> Protocol.parse_response payload
    | Error e -> Error e
    | Ok None ->
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then Error "connection closed"
      else begin
        Protocol.Framer.feed framer (Bytes.sub_string buf 0 n);
        wait ()
      end
  in
  wait ()

let stop_daemon d =
  (match connect d.port with
  | fd ->
    ignore (call fd 1 "shutdown" (Json.Obj []));
    Unix.close fd
  | exception Unix.Unix_error _ -> ());
  (* the drain is quick; a daemon still up after 5 s is killed *)
  let deadline = now () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      reap d.pid
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (( <> ) d.pid) !children

(* ---------------------------------------------------------------- setup *)

let pool_size opts = if opts.small then 64 else 2000

let setup ~treediff opts =
  let g = prng opts 4 in
  let pairs = Array.init (pool_size opts) (fun i -> make_pair (Prng.split g) i) in
  let hot = Array.init hot_set (fun i -> make_pair (Prng.split g) i) in
  let d = Digester.create () in
  Array.iter
    (fun p ->
      Digester.add d p.fmt;
      Digester.add d p.old_src;
      Digester.add d p.new_src)
    (Array.append pairs hot);
  let daemon = spawn ~treediff in
  { pairs; hot; daemon; inputs_digest = Digester.hex d }

let diff_params p =
  Json.Obj
    ([ ("old", Json.Str p.old_src); ("new", Json.Str p.new_src) ]
    @ if p.fmt = "sexp" then [] else [ ("format", Json.Str p.fmt) ])

(* ---------------------------------------------------------------- drive *)

type answer = {
  output : string option;  (* full-quality output, for the sample check *)
  degraded : string option;  (* rung or forced pressure level *)
  cached : bool;
}

type sent = { due : float; pair : pair; traced : bool }

type acc = {
  steady_lat : Samples.t;
  steady_uncached : Samples.t;  (* steady answers computed, not cached *)
  lag : Samples.t;
  encode : Samples.t;
  decode : Samples.t;
  traced_lat : Samples.t;
  untraced_lat : Samples.t;
  mutable full : int;
  mutable steady_answers : int;
  mutable steady_cached : int;  (* only the steady phase repeats pairs *)
  mutable rungs : (string * int) list;
  mutable sample : (pair * string) list;  (* answers to re-check in process *)
}

let parse_answer body =
  let str k = match Json.member k body with Some (Json.Str s) -> Some s | _ -> None in
  let degraded = match str "forced" with Some f -> Some f | None -> str "degraded" in
  {
    output = (if degraded = None then str "output" else None);
    degraded;
    cached = Json.mem_bool "cached" body = Some true;
  }

(* One phase over one connection, single-threaded: [Open rate] sends
   request k when it falls due at [t0 + k/rate]; [Closed w] keeps [w]
   requests outstanding.  New requests stop after [seconds]; answers are
   awaited up to 10 s more, and missing ones count as failed. *)
type mode = Open of float | Closed of int

let drive opts acc ~fd ~mode ~seconds ~next_id ~pick ~steady ~sample =
  let outstanding = Hashtbl.create 64 in
  let framer = Protocol.Framer.create () in
  let buf = Bytes.create 65536 in
  let t0 = now () in
  let stop = t0 +. seconds in
  let k = ref 0 in
  let answered = ref 0 in
  let send due =
    let id = !next_id in
    incr next_id;
    incr attempted;
    let pair = pick !k in
    let traced = opts.trace && !k mod 2 = 1 in
    let req = { Protocol.id; verb = "diff"; params = diff_params pair } in
    let frame, dt =
      timed (fun () ->
          Protocol.encode_frame (Json.to_string (Protocol.request_to_json req)))
    in
    if traced then Samples.add acc.encode dt;
    (* frames are small and the daemon always reads: a blocking write *)
    ignore (Unix.write_substring fd frame 0 (String.length frame));
    if steady then Samples.add acc.lag (now () -. due);
    Hashtbl.replace outstanding id { due; pair; traced };
    incr k
  in
  let receive payload =
    let t_recv = now () in
    let parsed, dt = timed (fun () -> Protocol.parse_response payload) in
    match parsed with
    | Error e -> mismatch "service: undecodable answer: %s" e
    | Ok (id, resp) -> (
      match Hashtbl.find_opt outstanding id with
      | None -> mismatch "service: answer for unknown id %d" id
      | Some s -> (
        Hashtbl.remove outstanding id;
        incr answered;
        let lat = t_recv -. s.due in
        if s.traced then begin
          Samples.add acc.decode dt;
          Samples.add acc.traced_lat lat
        end
        else Samples.add acc.untraced_lat lat;
        if steady then Samples.add acc.steady_lat lat;
        match resp with
        | Protocol.Err_resp { kind; message; _ } ->
          mismatch "service: %s answer: %s" (Protocol.error_kind_name kind) message
        | Protocol.Ok_resp body ->
          let a = parse_answer body in
          if steady then begin
            acc.steady_answers <- acc.steady_answers + 1;
            if a.cached then acc.steady_cached <- acc.steady_cached + 1
            else Samples.add acc.steady_uncached lat
          end;
          (match (a.degraded, a.output) with
          | Some r, _ ->
            acc.rungs <-
              (r, 1 + Option.value ~default:0 (List.assoc_opt r acc.rungs))
              :: List.remove_assoc r acc.rungs
          | None, Some output ->
            acc.full <- acc.full + 1;
            if sample id then acc.sample <- (s.pair, output) :: acc.sample
          | None, None -> mismatch "service: answer %d has no output" id)))
  in
  let finished () =
    let t = now () in
    (t >= stop && Hashtbl.length outstanding = 0) || t >= stop +. 10.
  in
  while not (finished ()) do
    let t = now () in
    (* issue whatever the mode allows now *)
    (match mode with
    | Open rate ->
      let rec due_now () =
        let due = t0 +. (float_of_int !k /. rate) in
        if due <= t && due < stop then begin
          send due;
          due_now ()
        end
      in
      due_now ()
    | Closed w ->
      while t < stop && Hashtbl.length outstanding < w do
        send (now ())
      done);
    let timeout =
      match mode with
      | Open rate ->
        let next = t0 +. (float_of_int !k /. rate) in
        if next < stop then Float.max 0. (next -. now ()) else 0.05
      | Closed _ -> 0.05
    in
    match Unix.select [ fd ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, _, _ ->
      if rs <> [] then begin
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        quickack fd;
        if n = 0 then failwith "service: daemon closed the connection";
        Protocol.Framer.feed framer (Bytes.sub_string buf 0 n);
        let rec frames () =
          match Protocol.Framer.next framer with
          | Ok (Some payload) ->
            receive payload;
            frames ()
          | Ok None -> ()
          | Error e -> failwith ("service: framing: " ^ e)
        in
        frames ()
      end
  done;
  Hashtbl.iter (fun id _ -> mismatch "service: request %d unanswered" id) outstanding;
  (!answered, now () -. t0)

(* ------------------------------------------------------------------ run *)

let stats_degraded fd =
  match call fd 0 "stats" (Json.Obj []) with
  | Ok (_, Protocol.Ok_resp body) -> Option.value ~default:0. (Json.mem_num "degraded" body)
  | Ok (_, Protocol.Err_resp _) | Error _ -> 0.

(* One scenario run, advanced in slices by [step] and closed by [finish].
   Steady and capacity requests draw ids and unique pairs from separate
   counters, so the steady requests (and the answers sampled for the
   output check) are the same on every run of a seed. *)
type run = {
  opts : opts;
  st : state;
  rate : float;
  fd : Unix.file_descr;
  g : Prng.t;
  acc : acc;
  degraded0 : float;
  steady_id : int ref;
  capacity_id : int ref;
  mutable steady_cursor : int;
  mutable capacity_cursor : int;
  mutable cap_answers : int;
  cap_elapsed : Samples.t;  (* per capacity phase, in seconds *)
  mutable requests : int;
}

let capacity_ids = 1_000_000_000

let start ~rate opts st =
  let fd = connect st.daemon.port in
  {
    opts;
    st;
    rate;
    fd;
    g = prng opts 5;
    acc =
      {
        steady_lat = Samples.create ();
        steady_uncached = Samples.create ();
        lag = Samples.create ();
        encode = Samples.create ();
        decode = Samples.create ();
        traced_lat = Samples.create ();
        untraced_lat = Samples.create ();
        full = 0;
        steady_answers = 0;
        steady_cached = 0;
        rungs = [];
        sample = [];
      };
    degraded0 = stats_degraded fd;
    steady_id = ref 1;
    capacity_id = ref capacity_ids;
    steady_cursor = 0;
    capacity_cursor = 0;
    cap_answers = 0;
    cap_elapsed = Samples.create ();
    requests = 0;
  }

(* Steady requests cycle the first half of the pool and capacity requests
   the second: each half outnumbers the daemon's 256-entry LRU cache, so
   only the hot set is ever answered from it. *)
let step r seconds =
  let st = r.st in
  let half = Array.length st.pairs / 2 in
  let steady_pick k =
    if k mod 10 = 9 then st.hot.(Prng.int r.g (Array.length st.hot))
    else begin
      let p = st.pairs.(r.steady_cursor mod half) in
      r.steady_cursor <- r.steady_cursor + 1;
      p
    end
  in
  let capacity_pick _ =
    let p = st.pairs.(half + (r.capacity_cursor mod half)) in
    r.capacity_cursor <- r.capacity_cursor + 1;
    p
  in
  (* The daemon sat idle while the other scenarios ran: two unmeasured
     requests bring it and the generator back to their running state. *)
  for _ = 1 to 2 do
    match call r.fd 0 "diff" (diff_params (capacity_pick ())) with
    | Ok (_, Protocol.Ok_resp _) -> ()
    | Ok (_, Protocol.Err_resp { message; _ }) | Error message ->
      mismatch "service warm-up: %s" message
  done;
  let attempted0 = !attempted in
  ignore
    (drive r.opts r.acc ~fd:r.fd ~mode:(Open r.rate) ~seconds:(seconds *. steady_share)
       ~next_id:r.steady_id ~pick:steady_pick ~steady:true
       ~sample:(fun id -> id mod 7 = 0));
  let answers, elapsed =
    drive r.opts r.acc ~fd:r.fd ~mode:(Closed window)
      ~seconds:(seconds *. (1. -. steady_share))
      ~next_id:r.capacity_id ~pick:capacity_pick ~steady:false ~sample:(fun _ -> false)
  in
  r.cap_answers <- r.cap_answers + answers;
  Samples.add_at r.cap_elapsed ~at:(now () -. (elapsed /. 2.)) elapsed;
  r.requests <- r.requests + (!attempted - attempted0)

(* Closes the run; returns the daemon's peak resident set in MiB. *)
let finish r =
  let acc = r.acc and fd = r.fd and opts = r.opts and st = r.st in
  (* round-trip floor of the daemon: control verb, no work *)
  let pings = Samples.create () in
  for i = 1 to (if opts.trace then 200 else 20) do
    let res, dt = timed (fun () -> call fd (-i) "ping" (Json.Obj [])) in
    match res with
    | Ok (_, Protocol.Ok_resp _) -> Samples.add pings dt
    | Ok (_, Protocol.Err_resp { message; _ }) | Error message ->
      mismatch "service ping: %s" message
  done;
  let degraded1 = stats_degraded fd in
  let rss = peak_rss_mb (string_of_int st.daemon.pid) in
  Unix.close fd;
  (* Output check: a sample of full-quality answers must equal what the
     handler computes in process, at full pressure with the cache off. *)
  let handler = Handler.create ~cache_entries:0 () in
  let parse_us = Samples.create () and exec_ms = Samples.create () in
  let outputs = Digester.create () in
  List.iteri
    (fun i (pair, output) ->
      let payload =
        Json.to_string
          (Protocol.request_to_json
             { Protocol.id = i + 1; verb = "diff"; params = diff_params pair })
      in
      let req, dt_parse = timed (fun () -> Protocol.parse_request payload) in
      Samples.add parse_us dt_parse;
      match req with
      | Error e -> mismatch "service check: %s" e
      | Ok req -> (
        let outcome, dt =
          timed (fun () ->
              Handler.handle handler ~queue_depth:0 ~pressure:Handler.Full
                ~draining:false ~received_at:(now ()) req)
        in
        Samples.add exec_ms dt;
        let body =
          match outcome with
          | Handler.Payload p | Handler.Shutdown p -> Protocol.parse_response p
        in
        match body with
        | Ok (_, Protocol.Ok_resp b) when Json.mem_str "output" b = Some output ->
          Digester.add outputs output
        | Ok _ | Error _ ->
          mismatch "service: daemon answer differs from the in-process handler"))
    (List.rev acc.sample);
  note "service"
    (json_obj
       [
         ("inputs_digest", json_string st.inputs_digest);
         ("checked_outputs_digest", json_string (Digester.hex outputs));
         ("checked_answers", string_of_int (List.length acc.sample));
         ("steady_rate_per_s", json_float r.rate);
         ("capacity_window", string_of_int window);
         ("requests", string_of_int r.requests);
         ( "sizes",
           json_obj
             [ ("unique_pairs", string_of_int (Array.length st.pairs));
               ("hot_pairs", string_of_int hot_set) ] );
       ]);
  let share x = float_of_int x /. float_of_int (max 1 r.requests) in
  if not opts.trace then begin
    let steady = Pace.scaled acc.steady_lat in
    emit "steady_p50_ms" "ms" (1e3 *. pct steady 0.50);
    emit "steady_p99_ms" "ms" (1e3 *. windowed_pct steady ~window:steady_window 0.99);
    emit "service_rps" "1/s"
      (float_of_int r.cap_answers /. Samples.sum (Pace.scaled r.cap_elapsed));
    emit "full_quality_share" "ratio" (share acc.full)
  end
  else begin
    let us s = 1e6 *. Samples.mean s and ms s = 1e3 *. Samples.mean s in
    let rtt_ms = 1e3 *. pct pings 0.5 in
    emit "client.encode_us" "us" (us acc.encode);
    emit "client.decode_us" "us" (us acc.decode);
    emit "protocol.parse_request_us" "us" (us parse_us);
    emit "handler.execute_ms" "ms" (ms exec_ms);
    emit "server.rtt_ms" "ms" rtt_ms;
    (* what a computed steady answer spent beyond the measured parts *)
    emit "server.queue_ms" "ms"
      (ms acc.steady_uncached
      -. ((us acc.encode +. us acc.decode +. us parse_us) /. 1e3)
      -. ms exec_ms -. rtt_ms);
    emit "cache.hit_ratio" "ratio"
      (float_of_int acc.steady_cached /. float_of_int (max 1 acc.steady_answers));
    List.iter
      (fun rung ->
        emit ("service.degraded." ^ rung) "count"
          (float_of_int (Option.value ~default:0 (List.assoc_opt rung acc.rungs))))
      [ "windowed"; "keyed"; "approx"; "rebuild"; "flat" ];
    emit "service.stats_degraded" "count" (degraded1 -. r.degraded0);
    emit "generator.lag_ms" "ms" (1e3 *. pct acc.lag 0.99);
    emit "service.trace_overhead" "ratio"
      (Samples.mean acc.traced_lat /. Samples.mean acc.untraced_lat)
  end;
  rss
