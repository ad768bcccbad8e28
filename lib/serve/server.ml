module Budget = Treediff_util.Budget
module Fault = Treediff_util.Fault
module Clock = Treediff_util.Clock

type config = {
  host : string;
  port : int;
  backlog : int;
  max_queue : int;
  flat_queue : int;
  retry_after_ms : float;
  default_deadline_ms : float;
  max_deadline_ms : float;
  cache_entries : int;
  allow_crash : bool;
  max_pending_out : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7433;
    backlog = 64;
    max_queue = 64;
    flat_queue = 32;
    retry_after_ms = 100.;
    default_deadline_ms = 1000.;
    max_deadline_ms = 5000.;
    cache_entries = 256;
    allow_crash = false;
    max_pending_out = 4 * 1024 * 1024;
  }

(* ---------------------------------------------------------- connections *)

(* A connection's teardown has two independent steps: [closing] stops
   reads (no new requests), while the fd itself is only closed — and the
   conn removed from [st.conns] — once [closed] flips in [close_conn].
   Keeping them separate lets a framing-error answer flush out before the
   hangup without ever leaking the descriptor. *)
type conn = {
  fd : Unix.file_descr;
  framer : Protocol.Framer.t;
  out : Buffer.t;
  mutable out_pos : int;  (* bytes of [out] already written *)
  mutable closing : bool;  (* stop reading; close once [out] is flushed *)
  mutable closed : bool;  (* fd closed, conn removed from [st.conns] *)
}

type state = {
  cfg : config;
  handler : Handler.t;
  faults : Fault.t;
  mutable listen_fd : Unix.file_descr option;
  mutable conns : conn list;
  queue : (conn * float * Protocol.request) Queue.t;
  mutable draining : bool;
  mutable stop : bool;
}

let pending_out c = Buffer.length c.out - c.out_pos

let close_conn st c =
  if not c.closed then begin
    c.closed <- true;
    c.closing <- true;
    (match Unix.close c.fd with
    | () -> ()
    | exception Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c' -> c' != c) st.conns
  end

let enqueue_out st c payload =
  if not c.closed then begin
    Buffer.add_string c.out (Protocol.encode_frame payload);
    (* a client that pipelines requests but never reads answers must not
       grow [out] without bound: admission caps the queue, this caps the
       response side *)
    if pending_out c > st.cfg.max_pending_out then close_conn st c
  end

(* ------------------------------------------------------------- pressure *)

let pressure_of_depth cfg depth =
  if depth >= cfg.flat_queue then Handler.Flat_only else Handler.Full

(* ------------------------------------------------------------ admission *)

(* One decoded frame arrives.  serve.decode makes the decode itself fail;
   an undecodable frame cannot name a request id, so the answer carries
   id 0 and the connection stays up (framing itself is still in sync). *)
let admit st c payload =
  let parsed =
    match
      Fault.point st.faults "serve.decode";
      Protocol.parse_request payload
    with
    | r -> r
    | exception Fault.Injected p -> Error ("injected fault at " ^ p)
    | exception Budget.Exceeded e -> Error (Budget.describe e)
  in
  match parsed with
  | Error msg ->
    enqueue_out st c (Protocol.error_payload ~id:0 Protocol.Bad_request msg)
  | Ok req ->
    (* control verbs are cheap and must work precisely when the server is
       busiest: they bypass the admission bound (but not the queue) *)
    let control =
      match req.Protocol.verb with
      | "ping" | "stats" | "shutdown" -> true
      | _ -> false
    in
    if st.draining then
      enqueue_out st c
        (Protocol.error_payload ~id:req.Protocol.id Protocol.Shutting_down
           "server is draining")
    else if (not control) && Queue.length st.queue >= st.cfg.max_queue then
      enqueue_out st c
        (Protocol.error_payload ~id:req.Protocol.id
           ~retry_after_ms:st.cfg.retry_after_ms Protocol.Overloaded
           (Printf.sprintf "queue full (%d requests)" (Queue.length st.queue)))
    else Queue.add (c, Clock.now (), req) st.queue

(* ---------------------------------------------------------------- drain *)

let begin_drain st =
  if not (st.draining || st.stop) then begin
    match Fault.point st.faults "serve.drain" with
    | () ->
      st.draining <- true;
      (match st.listen_fd with
      | Some fd ->
        st.listen_fd <- None;
        (match Unix.close fd with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
      | None -> ())
    | exception Fault.Injected _ | exception Budget.Exceeded _ ->
      (* crash-during-drain: abandon queued work and stop at once *)
      st.stop <- true
  end

(* ------------------------------------------------------------------ I/O *)

let handle_readable st c =
  let buf = Bytes.create 65536 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn st c
  | n ->
    Protocol.Framer.feed c.framer (Bytes.sub_string buf 0 n);
    let rec drain_frames () =
      match Protocol.Framer.next c.framer with
      | Ok None -> ()
      | Ok (Some payload) ->
        admit st c payload;
        drain_frames ()
      | Error msg ->
        (* framing is out of sync beyond repair: answer and hang up *)
        enqueue_out st c (Protocol.error_payload ~id:0 Protocol.Bad_request msg);
        c.closing <- true (* flushed below, then closed *)
    in
    drain_frames ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn st c
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()

let handle_writable st c =
  let len = pending_out c in
  if len > 0 then begin
    let s = Buffer.sub c.out c.out_pos len in
    match Unix.write_substring c.fd s 0 len with
    | n ->
      c.out_pos <- c.out_pos + n;
      if pending_out c = 0 then begin
        Buffer.clear c.out;
        c.out_pos <- 0
      end
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn st c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
  end

let handle_accept st fd =
  match Unix.accept fd with
  | cfd, _ -> (
    match Fault.point st.faults "serve.accept" with
    | () ->
      Unix.set_nonblock cfd;
      (* Answers are small frames written as soon as they exist; Nagle's
         algorithm would hold one back until the client's delayed ACK for
         the previous segment.  A socket that refuses the option is still
         served. *)
      (try Unix.setsockopt cfd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      st.conns <-
        { fd = cfd; framer = Protocol.Framer.create (); out = Buffer.create 512;
          out_pos = 0; closing = false; closed = false }
        :: st.conns
    | exception Fault.Injected _ | exception Budget.Exceeded _ -> (
      (* the accepted connection is dropped on the floor; accepting first
         keeps a sticky fault from turning select into a busy loop *)
      match Unix.close cfd with
      | () -> ()
      | exception Unix.Unix_error _ -> ()))
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS), _, _)
    ->
    (* out of descriptors/buffers: the listener stays readable, so back off
       briefly instead of letting select spin; existing connections keep
       being served and the accept is retried on the next wakeup *)
    Unix.sleepf 0.05
  | exception Unix.Unix_error _ ->
    (* any other transient accept failure (EINTR, ECONNABORTED, remote
       reset mid-handshake, ...) must never take the daemon down *)
    ()

(* -------------------------------------------------------------- request *)

let run_one st (c, received_at, req) =
  (* depth seen by this request excludes itself: it already left the queue *)
  let depth = Queue.length st.queue in
  let pressure = pressure_of_depth st.cfg depth in
  (* a closing connection still gets answers to requests it already sent;
     only a closed one is past answering *)
  if c.closed then ()
  else
    match
      Handler.deadline_error st.handler ~id:req.Protocol.id ~received_at req
    with
    | Some payload -> enqueue_out st c payload
    | None -> (
      match
        Handler.handle st.handler ~queue_depth:depth ~pressure
          ~draining:st.draining ~received_at req
      with
      | Handler.Payload payload -> enqueue_out st c payload
      | Handler.Shutdown payload ->
        enqueue_out st c payload;
        begin_drain st)

(* ------------------------------------------------------------ main loop *)

let run ?(config = default_config) ?faults ?on_listen () =
  let faults = match faults with Some f -> f | None -> Fault.create () in
  let handler =
    Handler.create ~default_deadline_ms:config.default_deadline_ms
      ~max_deadline_ms:config.max_deadline_ms
      ~cache_entries:config.cache_entries ~allow_crash:config.allow_crash
      ~faults ()
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen listen_fd config.backlog;
  (match on_listen with
  | Some f -> (
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, port) -> f port
    | Unix.ADDR_UNIX _ -> ())
  | None -> ());
  let st =
    {
      cfg = config;
      handler;
      faults;
      listen_fd = Some listen_fd;
      conns = [];
      queue = Queue.create ();
      draining = false;
      stop = false;
    }
  in
  (* Self-pipe: the signal handler only writes one byte; the loop notices
     the pipe in its read set and starts the drain outside signal context. *)
  let sig_r, sig_w = Unix.pipe () in
  Unix.set_nonblock sig_w;
  let on_signal _ =
    match Unix.write_substring sig_w "x" 0 1 with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let restore () =
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    (match Unix.close sig_r with
    | () -> ()
    | exception Unix.Unix_error _ -> ());
    match Unix.close sig_w with
    | () -> ()
    | exception Unix.Unix_error _ -> ()
  in
  let finished () =
    st.stop
    || st.draining
       && Queue.is_empty st.queue
       && List.for_all (fun c -> pending_out c = 0) st.conns
  in
  let loop_body () =
    while not (finished ()) do
      let reads =
        sig_r
        :: (match st.listen_fd with Some fd -> [ fd ] | None -> [])
        @ List.filter_map (fun c -> if c.closing then None else Some c.fd)
            st.conns
      in
      let writes =
        List.filter_map
          (fun c -> if pending_out c > 0 then Some c.fd else None)
          st.conns
      in
      let timeout = if Queue.is_empty st.queue then 0.25 else 0. in
      match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | rs, ws, _ ->
        if List.mem sig_r rs then begin
          let b = Bytes.create 16 in
          (match Unix.read sig_r b 0 16 with
          | _ -> ()
          | exception Unix.Unix_error _ -> ());
          begin_drain st
        end;
        (match st.listen_fd with
        | Some fd when List.mem fd rs -> handle_accept st fd
        | Some _ | None -> ());
        List.iter
          (fun c ->
            if (not c.closing) && (not c.closed) && List.mem c.fd rs then
              handle_readable st c)
          st.conns;
        List.iter
          (fun c -> if (not c.closed) && List.mem c.fd ws then handle_writable st c)
          st.conns;
        (* one request per wakeup keeps the loop responsive to signals and
           keeps queue-depth pressure readings honest *)
        (match Queue.take_opt st.queue with
        | Some item -> run_one st item
        | None -> ());
        (* a connection hung up for a framing error closes once its error
           answer is out *)
        List.iter
          (fun c -> if c.closing && pending_out c = 0 then close_conn st c)
          st.conns
    done
  in
  let cleanup () =
    (match st.listen_fd with
    | Some fd -> (
      st.listen_fd <- None;
      match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
    | None -> ());
    List.iter (fun c -> close_conn st c) st.conns;
    restore ()
  in
  match loop_body () with
  | () -> cleanup ()
  | exception e ->
    cleanup ();
    raise e

(* ---------------------------------------------------------------- stdio *)

let serve_stdio ?(config = default_config) ?faults ic oc =
  let faults = match faults with Some f -> f | None -> Fault.create () in
  let handler =
    Handler.create ~default_deadline_ms:config.default_deadline_ms
      ~max_deadline_ms:config.max_deadline_ms
      ~cache_entries:config.cache_entries ~allow_crash:config.allow_crash
      ~faults ()
  in
  let rec loop () =
    match Protocol.read_frame ic with
    | Ok None -> ()
    | Error msg ->
      (* stream is desynchronized: answer once, then stop *)
      Protocol.write_frame oc
        (Protocol.error_payload ~id:0 Protocol.Bad_request msg)
    | Ok (Some payload) -> (
      let received_at = Clock.now () in
      let parsed =
        match
          Fault.point faults "serve.decode";
          Protocol.parse_request payload
        with
        | r -> r
        | exception Fault.Injected p -> Error ("injected fault at " ^ p)
        | exception Budget.Exceeded e -> Error (Budget.describe e)
      in
      match parsed with
      | Error msg ->
        Protocol.write_frame oc
          (Protocol.error_payload ~id:0 Protocol.Bad_request msg);
        loop ()
      | Ok req -> (
        match
          Handler.handle handler ~queue_depth:0 ~pressure:Handler.Full
            ~draining:false ~received_at req
        with
        | Handler.Payload p ->
          Protocol.write_frame oc p;
          loop ()
        | Handler.Shutdown p -> Protocol.write_frame oc p))
  in
  loop ()
