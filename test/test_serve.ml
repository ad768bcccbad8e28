(* The service layer: JSON codec, framing, LRU cache, handler policy,
   client backoff, and the daemon end to end (in-process over TCP and as a
   subprocess over --stdio / signals).

   When TREEDIFF_FAULT is set (the `make serve-tests` sweep), only the
   env-sweep suite runs: an in-process server under the armed serve.*
   fault must keep answering (typed errors and dropped connections are
   fine) and must still shut down — never hang, never crash. *)

module Budget = Treediff_util.Budget
module Fault = Treediff_util.Fault
module Prng = Treediff_util.Prng
module Json = Treediff_util.Json
module Protocol = Treediff_serve.Protocol
module Cache = Treediff_serve.Cache
module Handler = Treediff_serve.Handler
module Server = Treediff_serve.Server
module Client = Treediff_serve.Client

let bin name =
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let old_sexp = {|(D (P (S "a") (S "b")) (P (S "c")))|}
let new_sexp = {|(D (P (S "a") (S "x")) (P (S "c")) (P (S "d")))|}

(* ------------------------------------------------------------------ json *)

let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        (* integral and fractional floats; NaN/inf are not JSON *)
        map (fun n -> Json.int n) (int_range (-1000000) 1000000);
        map (fun f -> Json.float f) (float_bound_inclusive 1e9);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 20));
        map (fun s -> Json.Str s) (string_size (int_bound 20));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair (string_size ~gen:printable (int_bound 8)) (self (depth - 1)))) );
          ])
    3

let json_roundtrip_prop =
  QCheck2.Test.make ~name:"Json round-trip: parse (to_string v) = v" ~count:500
    json_gen (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error e -> QCheck2.Test.fail_reportf "parse failed: %s" e)

let test_json_parse_cases () =
  let ok src expect =
    match Json.parse src with
    | Ok v -> Alcotest.(check string) src expect (Json.to_string v)
    | Error e -> Alcotest.failf "%s: %s" src e
  in
  (* numbers keep their source literal: -3e2 is not respelled -300 *)
  ok {| { "a" : [1, 2.5, -3e2], "b" : "x\né😀" } |}
    "{\"a\":[1,2.5,-3e2],\"b\":\"x\\n\xc3\xa9\xf0\x9f\x98\x80\"}";
  ok {|[true,false,null]|} "[true,false,null]";
  ok "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"" "\"\\\"\\\\/\\b\\f\\n\\r\\t\"";
  (* surrogate escapes: see the shared table in test_format.ml *)
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed %s" src
      | Error _ -> ())
    [ "{"; "[1,]"; "01"; "\"unterminated"; "[1] trailing"; "nul"; "+1"; "" ]

(* -------------------------------------------------------------- protocol *)

let test_framer_chunked () =
  let payloads = [ "{}"; String.make 5000 'x'; "{\"id\":1}"; "" ] in
  let stream = String.concat "" (List.map Protocol.encode_frame payloads) in
  (* feed one byte at a time: frames must come out intact and in order *)
  let f = Protocol.Framer.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Protocol.Framer.feed f (String.make 1 c);
      let rec drain () =
        match Protocol.Framer.next f with
        | Ok (Some p) ->
          got := p :: !got;
          drain ()
        | Ok None -> ()
        | Error e -> Alcotest.fail e
      in
      drain ())
    stream;
  Alcotest.(check (list string)) "all frames, in order" payloads (List.rev !got);
  Alcotest.(check int) "buffer drained" 0 (Protocol.Framer.buffered f)

let test_framer_oversize () =
  let f = Protocol.Framer.create () in
  (* header alone announces an impossible frame: error before any payload *)
  Protocol.Framer.feed f "\xFF\xFF\xFF\xFF";
  match Protocol.Framer.next f with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize frame accepted"

let test_request_roundtrip () =
  let req =
    { Protocol.id = 42; verb = "diff";
      params = Json.Obj [ ("old", Json.Str old_sexp) ] }
  in
  match
    Protocol.parse_request (Json.to_string (Protocol.request_to_json req))
  with
  | Error e -> Alcotest.fail e
  | Ok req' ->
    Alcotest.(check int) "id" req.Protocol.id req'.Protocol.id;
    Alcotest.(check string) "verb" req.Protocol.verb req'.Protocol.verb;
    Alcotest.(check bool) "params" true
      (Json.equal req.Protocol.params req'.Protocol.params)

let test_response_payloads () =
  (match Protocol.parse_response (Protocol.ok_payload ~id:7 (Json.Bool true)) with
  | Ok (7, Protocol.Ok_resp (Json.Bool true)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "ok payload did not round-trip");
  match
    Protocol.parse_response
      (Protocol.error_payload ~id:9 ~retry_after_ms:50. Protocol.Overloaded
         "queue full")
  with
  | Ok (9, Protocol.Err_resp { kind = Protocol.Overloaded; retry_after_ms = Some ms; _ })
    ->
    Alcotest.(check (float 0.001)) "retry hint" 50. ms
  | Ok _ | Error _ -> Alcotest.fail "error payload did not round-trip"

(* ----------------------------------------------------------------- cache *)

let test_cache_lru () =
  let c = Cache.create 2 in
  Cache.put c "a" 1;
  Cache.put c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.put c "c" 3;
  (* "b" was least recently used (the "a" hit refreshed it) *)
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  Alcotest.(check int) "evictions" 1 (Cache.evictions c);
  Alcotest.(check int) "hits" 3 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c);
  Cache.put c "a" 10;
  Alcotest.(check (option int)) "replace updates value" (Some 10) (Cache.find c "a");
  Alcotest.(check int) "replace does not grow" 2 (Cache.length c)

let test_cache_disabled () =
  let c = Cache.create 0 in
  Cache.put c "a" 1;
  Alcotest.(check (option int)) "never stores" None (Cache.find c "a");
  Alcotest.(check int) "empty" 0 (Cache.length c)

(* --------------------------------------------------------------- handler *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let req ?(id = 1) verb params = { Protocol.id; verb; params }

let diff_params ?deadline_ms () =
  Json.Obj
    ([ ("old", Json.Str old_sexp); ("new", Json.Str new_sexp) ]
    @ match deadline_ms with
      | Some ms -> [ ("deadline_ms", Json.float ms) ]
      | None -> [])

let handle ?(pressure = Handler.Full) h r =
  match
    Handler.handle h ~queue_depth:0 ~pressure ~draining:false
      ~received_at:(Treediff_util.Clock.now ()) r
  with
  | Handler.Payload p -> Protocol.parse_response p
  | Handler.Shutdown p -> Protocol.parse_response p

let ok_body = function
  | Ok (_, Protocol.Ok_resp body) -> body
  | Ok (_, Protocol.Err_resp { message; _ }) -> Alcotest.failf "error: %s" message
  | Error e -> Alcotest.failf "protocol: %s" e

let err_kind = function
  | Ok (_, Protocol.Err_resp { kind; _ }) -> kind
  | Ok (_, Protocol.Ok_resp _) -> Alcotest.fail "expected an error answer"
  | Error e -> Alcotest.failf "protocol: %s" e

let test_handler_diff_and_cache () =
  let h = Handler.create () in
  let body = ok_body (handle h (req "diff" (diff_params ()))) in
  Alcotest.(check bool) "not cached" false
    (Option.value ~default:true (Json.mem_bool "cached" body));
  Alcotest.(check bool) "has output" true (Json.mem_str "output" body <> None);
  let body2 = ok_body (handle h (req "diff" (diff_params ()))) in
  Alcotest.(check bool) "second identical request served from cache" true
    (Option.value ~default:false (Json.mem_bool "cached" body2));
  Alcotest.(check string) "same output"
    (Option.get (Json.mem_str "output" body))
    (Option.get (Json.mem_str "output" body2));
  Alcotest.(check int) "one hit" 1 (Handler.cache_hits h);
  (* the matcher params older clients may still send (approx,
     sim_threshold, sim_top_k) are unknown params, which are ignored: the
     answer is the one above, from the same cache entry or computed anew *)
  let legacy_params =
    match diff_params () with
    | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ("approx", Json.Bool true);
            ("sim_threshold", Json.int 2);
            ("sim_top_k", Json.int 4);
          ])
    | _ -> assert false
  in
  let legacy = ok_body (handle h (req "diff" legacy_params)) in
  Alcotest.(check bool) "legacy params served from the same entry" true
    (Option.value ~default:false (Json.mem_bool "cached" legacy));
  Alcotest.(check (option string)) "legacy params, same output"
    (Json.mem_str "output" body) (Json.mem_str "output" legacy);
  let uncached =
    ok_body (handle (Handler.create ~cache_entries:0 ()) (req "diff" legacy_params))
  in
  Alcotest.(check (option string)) "legacy params, same output uncached"
    (Json.mem_str "output" body) (Json.mem_str "output" uncached);
  Alcotest.(check (option string)) "legacy params, not degraded" None
    (Json.mem_str "degraded" uncached);
  Alcotest.(check int) "two hits" 2 (Handler.cache_hits h)

let test_handler_pressure_levels () =
  let h = Handler.create () in
  let body =
    ok_body (handle ~pressure:Handler.Flat_only h (req "diff" (diff_params ())))
  in
  Alcotest.(check (option string)) "flat mode" (Some "flat")
    (Json.mem_str "mode" body);
  Alcotest.(check (option string)) "flagged degraded" (Some "flat")
    (Json.mem_str "degraded" body);
  Alcotest.(check (option string)) "forced flat" (Some "flat")
    (Json.mem_str "forced" body);
  (* the flat answer may not poison the cache *)
  let body = ok_body (handle h (req "diff" (diff_params ()))) in
  Alcotest.(check bool) "full answer not from cache" false
    (Option.value ~default:true (Json.mem_bool "cached" body))

let test_handler_deadline () =
  let h = Handler.create () in
  (* a request that spent its whole allowance queued: typed deadline *)
  let r = req "diff" (diff_params ~deadline_ms:500. ()) in
  let stale = Treediff_util.Clock.now () -. 10. in
  let answer =
    match
      Handler.handle h ~queue_depth:0 ~pressure:Handler.Full ~draining:false
        ~received_at:stale r
    with
    | Handler.Payload p -> Protocol.parse_response p
    | Handler.Shutdown p -> Protocol.parse_response p
  in
  Alcotest.(check bool) "typed deadline answer" true
    (err_kind answer = Protocol.Deadline);
  Alcotest.(check int) "counted as shed" 1 (Handler.shed_count h);
  (* deadline_error: the shed path for requests that expired while queued *)
  (match Handler.deadline_error h ~id:3 ~received_at:stale r with
  | Some payload ->
    Alcotest.(check bool) "shed payload is typed deadline" true
      (err_kind (Protocol.parse_response payload) = Protocol.Deadline)
  | None -> Alcotest.fail "expired queue entry not shed");
  match
    Handler.deadline_error h ~id:4 ~received_at:(Treediff_util.Clock.now ())
      (req "diff" (diff_params ~deadline_ms:5000. ()))
  with
  | None -> ()
  | Some _ -> Alcotest.fail "fresh request shed"

let test_handler_crash_isolation () =
  let h = Handler.create ~allow_crash:true () in
  Alcotest.(check bool) "crash answered as internal" true
    (err_kind (handle h (req "crash" (Json.Obj []))) = Protocol.Internal);
  (* the same handler keeps serving *)
  let body = ok_body (handle h (req "ping" (Json.Obj []))) in
  Alcotest.(check bool) "still serving" true
    (Option.value ~default:false (Json.mem_bool "pong" body));
  Alcotest.(check int) "internal counted" 1 (Handler.internal_count h);
  (* without the debug gate the verb does not exist *)
  let h' = Handler.create () in
  Alcotest.(check bool) "crash verb gated" true
    (err_kind (handle h' (req "crash" (Json.Obj []))) = Protocol.Bad_request)

let test_handler_bad_requests () =
  let h = Handler.create () in
  Alcotest.(check bool) "unknown verb" true
    (err_kind (handle h (req "frobnicate" (Json.Obj []))) = Protocol.Bad_request);
  Alcotest.(check bool) "missing params" true
    (err_kind (handle h (req "diff" (Json.Obj []))) = Protocol.Bad_request);
  Alcotest.(check bool) "malformed tree" true
    (err_kind (handle h (req "diff" (Json.Obj [ ("old", Json.Str "(((");
                                                ("new", Json.Str new_sexp) ])))
     = Protocol.Bad_request)

let test_handler_cache_fault_absorbed () =
  (* serve.cache fires on every access: the handler must degrade to
     cache-off behaviour, never fail the request *)
  let faults =
    Fault.create
      ~specs:[ { Fault.point = "serve.cache"; action = Fault.Raise; at = 1 } ]
      ()
  in
  let h = Handler.create ~faults () in
  let body = ok_body (handle h (req "diff" (diff_params ()))) in
  Alcotest.(check bool) "first answer fine" true (Json.mem_str "output" body <> None);
  let body2 = ok_body (handle h (req "diff" (diff_params ()))) in
  Alcotest.(check bool) "repeat answered, uncached" false
    (Option.value ~default:true (Json.mem_bool "cached" body2));
  Alcotest.(check int) "no cache hits" 0 (Handler.cache_hits h)

(* The daemon's batch verb parses each pair OLD before NEW, exactly as its
   diff verb does, so every result is the diff verb's answer for that pair,
   and every script names OLD's node ids: `treediff apply OLD` replays it
   to a tree isomorphic to NEW, also when the roots went unmatched (the
   script's ROOT line names the dummy root).  One request per format, over
   the example pairs (plus a one-word rewording). *)
let test_handler_batch_matches_diff () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "../examples/pairs" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let format_of ext =
    match ext with ".md" -> "markdown" | ".tex" -> "latex" | e -> String.sub e 1 (String.length e - 1)
  in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> contains n ".old.")
    |> List.sort compare
    |> List.map (fun name ->
           let ext = Filename.extension name in
           let stem = Filename.chop_suffix name (".old" ^ ext) in
           ( format_of ext,
             read (Filename.concat dir name),
             read (Filename.concat dir (stem ^ ".new" ^ ext)) ))
  in
  let reworded =
    ( "sexp",
      {|(D (P (S "the quick brown fox jumps over the lazy dog")) (P (S "kept")))|},
      {|(D (P (S "the quick brown cat jumps over the lazy dog")) (P (S "kept")))|} )
  in
  let pairs = examples @ [ reworded ] in
  let formats = List.sort_uniq compare (List.map (fun (f, _, _) -> f) pairs) in
  let h = Handler.create () in
  let replayed_count = ref 0 in
  List.iter
    (fun fmt ->
      let group = List.filter (fun (f, _, _) -> f = fmt) pairs in
      let fields o n = [ ("old", Json.Str o); ("new", Json.Str n) ] in
      let body =
        ok_body
          (handle h
             (req "batch"
                (Json.Obj
                   [
                     ("pairs",
                      Json.Arr (List.map (fun (_, o, n) -> Json.Obj (fields o n)) group));
                     ("format", Json.Str fmt);
                   ])))
      in
      let results =
        match Option.bind (Json.member "results" body) Json.arr with
        | Some l -> l
        | None -> Alcotest.fail "batch answer without results"
      in
      Alcotest.(check int) (fmt ^ " one result per pair") (List.length group)
        (List.length results);
      List.iteri
        (fun i ((_, o, n), result) ->
          let what = Printf.sprintf "%s pairs[%d]" fmt i in
          let script = Option.get (Json.mem_str "output" result) in
          let diffed =
            ok_body
              (handle h
                 (req "diff" (Json.Obj (fields o n @ [ ("format", Json.Str fmt) ]))))
          in
          Alcotest.(check (option string)) (what ^ " output = diff output")
            (Json.mem_str "output" diffed) (Some script);
          let format = Treediff_doc.Format.find_exn fmt in
          incr replayed_count;
          let write s =
            let p = Filename.temp_file "treediff_batch" "" in
            Out_channel.with_open_bin p (fun oc -> output_string oc s);
            p
          in
          let old_file = write o and script_file = write script in
          let replayed = Filename.temp_file "treediff_batch" ".out" in
          let code =
            Sys.command
              (Printf.sprintf "%s apply -f %s %s %s -o %s 2>/dev/null" (bin "treediff_cli")
                 fmt old_file script_file replayed)
          in
          Alcotest.(check int) (what ^ " apply OLD SCRIPT exit 0") 0 code;
          let parse src = Treediff_doc.Format.parse format (Treediff_tree.Tree.gen ()) src in
          Alcotest.(check bool) (what ^ " replay is isomorphic to NEW") true
            (Treediff_tree.Iso.equal (parse (read replayed)) (parse n));
          List.iter Sys.remove [ old_file; script_file; replayed ])
        (List.combine group results))
    formats;
  Alcotest.(check int) "every script was replayed" (List.length pairs) !replayed_count

(* -------------------------------------------------- store handle cache *)


module Shard = Treediff_store.Shard

let store_ok what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let parse_sexp src = Treediff_tree.Codec.parse (Treediff_tree.Tree.gen ()) src

let tmp_path name =
  let p = Filename.temp_file ("treediff_serve_" ^ name) "" in
  Sys.remove p;
  p

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let test_store_handle_cache () =
  let archive = tmp_path "archive" in
  let s = store_ok "init" (Shard.init ~shards:1 archive) in
  ignore (store_ok "commit v0" (Shard.commit s ~doc:"d" (parse_sexp old_sexp)));
  let h = Handler.create () in
  let params = Json.Obj [ ("archive", Json.Str archive); ("doc", Json.Str "d") ] in
  let body = ok_body (handle h (req "store/log" params)) in
  Alcotest.(check (option (float 0.))) "one version" (Some 1.)
    (Json.mem_num "versions" body);
  Alcotest.(check int) "cold open is a miss" 0 (Handler.store_handle_hits h);
  ignore (ok_body (handle h (req "store/log" params)));
  Alcotest.(check int) "second request reuses the handle" 1
    (Handler.store_handle_hits h);
  (* a commit through the daemon leaves the handle warm AND current *)
  let commit_params =
    Json.Obj
      [ ("archive", Json.Str archive); ("doc", Json.Str "d"); ("tree", Json.Str new_sexp) ]
  in
  let entry = ok_body (handle h (req "store/commit" commit_params)) in
  Alcotest.(check (option (float 0.))) "committed v1" (Some 1.)
    (Json.mem_num "version" entry);
  let body = ok_body (handle h (req "store/log" params)) in
  Alcotest.(check (option (float 0.))) "both versions visible" (Some 2.)
    (Json.mem_num "versions" body);
  Alcotest.(check int) "commit and log both warm" 3 (Handler.store_handle_hits h);
  Alcotest.(check int) "exactly one open so far" 1
    (Handler.store_handle_misses h);
  (* an external writer changes the fingerprint: reopen, never serve stale *)
  let s = store_ok "reopen" (Shard.open_ archive) in
  ignore (store_ok "external commit" (Shard.commit s ~doc:"d" (parse_sexp old_sexp)));
  let body = ok_body (handle h (req "store/log" params)) in
  Alcotest.(check (option (float 0.))) "external commit picked up" (Some 3.)
    (Json.mem_num "versions" body);
  Alcotest.(check int) "stale handle reopened" 2 (Handler.store_handle_misses h);
  (* a pruning gc rewrites a shard under the warm handle: reopen, never
     read the old file through the stale index *)
  ignore (store_ok "prune" (Shard.gc ~prune_before:("d", 1) s));
  let body = ok_body (handle h (req "store/log" params)) in
  Alcotest.(check (option (float 0.))) "pruned chain picked up" (Some 2.)
    (Json.mem_num "versions" body);
  Alcotest.(check int) "pruned archive reopened" 3 (Handler.store_handle_misses h);
  let body =
    ok_body
      (handle h
         (req "store/materialize"
            (Json.Obj
               [ ("archive", Json.Str archive); ("doc", Json.Str "d"); ("version", Json.int 2) ])))
  in
  Alcotest.(check bool) "head still materializes" true (Json.mem_str "tree" body <> None);
  rm_rf archive

let test_store_corpus_verbs () =
  let dir = tmp_path "corpus" in
  let c = store_ok "init" (Shard.init ~shards:2 dir) in
  ignore (store_ok "a v0" (Shard.commit c ~doc:"a" (parse_sexp old_sexp)));
  ignore (store_ok "a v1" (Shard.commit c ~doc:"a" (parse_sexp new_sexp)));
  ignore (store_ok "b v0" (Shard.commit c ~doc:"b" (parse_sexp old_sexp)));
  let h = Handler.create () in
  let params = Json.Obj [ ("archive", Json.Str dir) ] in
  let body = ok_body (handle h (req "store/log" params)) in
  Alcotest.(check (option (float 0.))) "catalog totals" (Some 3.)
    (Json.mem_num "versions" body);
  Alcotest.(check (option (float 0.))) "shard count" (Some 2.)
    (Json.mem_num "shards" body);
  (* per-document verbs on a corpus need the doc param *)
  Alcotest.(check bool) "materialize without doc refused" true
    (err_kind
       (handle h
          (req "store/materialize"
             (Json.Obj [ ("archive", Json.Str dir); ("version", Json.int 0) ])))
    = Protocol.Bad_request);
  let body =
    ok_body
      (handle h
         (req "store/materialize"
            (Json.Obj
               [
                 ("archive", Json.Str dir);
                 ("doc", Json.Str "a");
                 ("version", Json.int 1);
               ])))
  in
  Alcotest.(check bool) "tree returned" true (Json.mem_str "tree" body <> None);
  let body =
    ok_body
      (handle h
         (req "store/log"
            (Json.Obj [ ("archive", Json.Str dir); ("doc", Json.Str "a") ])))
  in
  Alcotest.(check (option (float 0.))) "doc chain length" (Some 2.)
    (Json.mem_num "versions" body);
  Alcotest.(check int) "corpus handle stayed warm" 3
    (Handler.store_handle_hits h);
  (* a single-file archive from an older release is refused, naming the
     conversion *)
  let legacy = Filename.concat (Filename.dirname Sys.executable_name) "fixtures/legacy_pruned.tdst" in
  (match handle h (req "store/log" (Json.Obj [ ("archive", Json.Str legacy) ])) with
  | Ok (_, Protocol.Err_resp { kind = Protocol.Bad_request; message; _ }) ->
    Alcotest.(check bool) ("names migrate: " ^ message) true
      (contains message "treediff store migrate")
  | _ -> Alcotest.fail "a legacy file was served");
  rm_rf dir

let test_budget_remaining_ms () =
  let b = Budget.make ~deadline_ms:1000. () in
  let r = Budget.remaining_ms b in
  Alcotest.(check bool) "within the allowance" true (r > 0. && r <= 1000.);
  Alcotest.(check bool) "unlimited is infinite" true
    (Budget.remaining_ms (Budget.unlimited ()) = infinity);
  let spent = Budget.make ~deadline_ms:(-1.) () in
  Alcotest.(check (float 0.)) "expired clamps to zero" 0. (Budget.remaining_ms spent)

(* --------------------------------------------------------------- backoff *)

let test_backoff_deterministic () =
  let sched seed =
    Client.backoff_schedule ~attempts:6 ~base_ms:25. ~max_ms:400.
      (Prng.create seed)
  in
  Alcotest.(check int) "five delays for six attempts" 5 (List.length (sched 1));
  Alcotest.(check bool) "same seed, same schedule" true (sched 7 = sched 7);
  Alcotest.(check bool) "different seeds differ" true (sched 7 <> sched 8);
  List.iteri
    (fun i d ->
      let cap = Float.min 400. (25. *. (2. ** float_of_int i)) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in [0.5, 1.5) x cap" i)
        true
        (d >= 0.5 *. cap && d < 1.5 *. cap))
    (sched 3)

let test_retry_replays_schedule () =
  (* every attempt fails to connect; the recorded sleeps must be exactly
     the schedule drawn from an identically seeded PRNG *)
  let slept = ref [] in
  let result =
    Client.call_with_retry ~attempts:4 ~base_ms:10. ~max_ms:80.
      ~sleep:(fun ms -> slept := ms :: !slept)
      ~prng:(Prng.create 99)
      ~connect:(fun () -> Error "connection refused (simulated)")
      (req "ping" (Json.Obj []))
  in
  (match result with
  | Error msg ->
    Alcotest.(check bool) "reports the attempts" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "cannot succeed without a server");
  let expected =
    Client.backoff_schedule ~attempts:4 ~base_ms:10. ~max_ms:80.
      (Prng.create 99)
  in
  Alcotest.(check bool) "sleeps replay the seeded schedule" true
    (List.rev !slept = expected)

let test_retry_honours_server_hint () =
  (* a fake in-process "server": first two calls answer overloaded with a
     hint larger than any backoff delay, then success *)
  let calls = ref 0 in
  let delays = ref [] in
  (* connect against a real listener we answer from a domain *)
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 8;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let answerer =
    Domain.spawn (fun () ->
        for i = 1 to 3 do
          let fd, _ = Unix.accept srv in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          (match Protocol.read_frame ic with
          | Ok (Some _) ->
            let payload =
              if i <= 2 then
                Protocol.error_payload ~id:1 ~retry_after_ms:123.
                  Protocol.Overloaded "busy"
              else Protocol.ok_payload ~id:1 (Json.Bool true)
            in
            Protocol.write_frame oc payload
          | Ok None | Error _ -> ());
          Unix.close fd
        done)
  in
  let result =
    Client.call_with_retry ~attempts:5 ~base_ms:1. ~max_ms:2.
      ~sleep:(fun ms -> delays := ms :: !delays)
      ~on_attempt:(fun _ -> incr calls)
      ~prng:(Prng.create 5)
      ~connect:(fun () -> Client.connect ~host:"127.0.0.1" ~port)
      (req "ping" (Json.Obj []))
  in
  Domain.join answerer;
  Unix.close srv;
  (match result with
  | Ok (Protocol.Ok_resp (Json.Bool true)) -> ()
  | Ok _ | Error _ -> Alcotest.fail "third attempt should succeed");
  Alcotest.(check int) "two retries" 2 !calls;
  List.iter
    (fun d ->
      Alcotest.(check bool) "server hint dominates tiny backoff" true (d >= 123.))
    !delays

(* A listener that accepts and immediately hangs up: every call against it
   is a transport error *after* the request frame went out.  A connection
   is counted before it is closed: the close is what lets the client's
   call return, so the count is complete by the time the test reads it. *)
let with_hangup_server f =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 16;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let accepted = Atomic.make 0 in
  let stop = Atomic.make false in
  let acceptor =
    Domain.spawn (fun () ->
        let rec loop () =
          match Unix.accept srv with
          | fd, _ ->
            let stopping = Atomic.get stop in
            if not stopping then Atomic.incr accepted;
            Unix.close fd;
            if not stopping then loop ()
          | exception Unix.Unix_error _ -> ()
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (* one last connect wakes the blocked accept so the domain can exit *)
      (let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (match
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with
       | () -> ()
       | exception Unix.Unix_error _ -> ());
       match Unix.close fd with
       | () -> ()
       | exception Unix.Unix_error _ -> ());
      Domain.join acceptor;
      Unix.close srv)
    (fun () -> f port accepted)

let test_retry_idempotency_gate () =
  Alcotest.(check bool) "commit is not idempotent" false
    (Client.idempotent_verb "store/commit");
  Alcotest.(check bool) "shutdown is not idempotent" false
    (Client.idempotent_verb "shutdown");
  Alcotest.(check bool) "diff is idempotent" true (Client.idempotent_verb "diff");
  (* a connect failure means the request never left this process: even a
     non-idempotent verb retries *)
  let tries = ref 0 in
  (match
     Client.call_with_retry ~attempts:3 ~base_ms:1. ~max_ms:2.
       ~sleep:(fun _ -> ())
       ~on_attempt:(fun _ -> incr tries)
       ~prng:(Prng.create 1)
       ~connect:(fun () -> Error "connection refused (simulated)")
       (req "store/commit" (Json.Obj []))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cannot succeed without a server");
  Alcotest.(check int) "unsent commit still retries" 2 !tries;
  with_hangup_server (fun port accepted ->
      let connect () = Client.connect ~host:"127.0.0.1" ~port in
      (* the request was sent when the transport failed: the server may
         already have executed it, so store/commit must NOT be re-sent *)
      (match
         Client.call_with_retry ~attempts:4 ~base_ms:1. ~max_ms:2.
           ~sleep:(fun _ -> ()) ~prng:(Prng.create 2) ~connect
           (req "store/commit" (Json.Obj []))
       with
      | Error msg ->
        Alcotest.(check bool) "explains the gate" true (contains msg "not retried")
      | Ok _ -> Alcotest.fail "hangup server cannot answer");
      Alcotest.(check int) "commit sent exactly once" 1 (Atomic.get accepted);
      (* an idempotent verb retries through the same failure *)
      let before = Atomic.get accepted in
      (match
         Client.call_with_retry ~attempts:3 ~base_ms:1. ~max_ms:2.
           ~sleep:(fun _ -> ()) ~prng:(Prng.create 3) ~connect
           (req "ping" (Json.Obj []))
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "hangup server cannot answer");
      Alcotest.(check int) "ping retried" 3 (Atomic.get accepted - before);
      (* retry_unsafe lifts the gate explicitly *)
      let before = Atomic.get accepted in
      (match
         Client.call_with_retry ~attempts:3 ~base_ms:1. ~max_ms:2.
           ~sleep:(fun _ -> ()) ~retry_unsafe:true ~prng:(Prng.create 4)
           ~connect
           (req "store/commit" (Json.Obj []))
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "hangup server cannot answer");
      Alcotest.(check int) "retry_unsafe re-sends" 3 (Atomic.get accepted - before))

(* ------------------------------------------------------------ tcp daemon *)

let best_effort_shutdown port =
  (* used from cleanup paths: a dead server refuses the connection, which
     is exactly what the normal path looks like after an explicit shutdown *)
  match Client.connect ~host:"127.0.0.1" ~port with
  | Error _ -> ()
  | Ok c ->
    (match Client.call c { Protocol.id = 9999; verb = "shutdown"; params = Json.Obj [] } with
    | Ok _ | Error _ -> ());
    Client.close c

let with_server ?(config = Server.default_config) ?faults f =
  let port = Atomic.make 0 in
  let config = { config with Server.port = 0 } in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~config ?faults ~on_listen:(fun p -> Atomic.set port p) ())
  in
  let rec wait n =
    if Atomic.get port = 0 then
      if n > 1000 then failwith "server never came up"
      else begin
        Unix.sleepf 0.005;
        wait (n + 1)
      end
  in
  wait 0;
  (* on a test failure the server is still up: drain it before joining, or
     the join masks the real assertion failure with a deadlock *)
  Fun.protect
    ~finally:(fun () ->
      best_effort_shutdown (Atomic.get port);
      Domain.join srv)
    (fun () -> f (Atomic.get port))

let call_once port r =
  match Client.connect ~host:"127.0.0.1" ~port with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
    let result = Client.call c r in
    Client.close c;
    (match result with
    | Ok resp -> resp
    | Error e -> Alcotest.failf "call: %s" e)

let shutdown port =
  match call_once port (req "shutdown" (Json.Obj [])) with
  | Protocol.Ok_resp _ -> ()
  | Protocol.Err_resp { message; _ } -> Alcotest.failf "shutdown: %s" message

let test_server_e2e () =
  with_server (fun port ->
      (match call_once port (req "ping" (Json.Obj [])) with
      | Protocol.Ok_resp body ->
        Alcotest.(check bool) "pong" true
          (Option.value ~default:false (Json.mem_bool "pong" body))
      | Protocol.Err_resp { message; _ } -> Alcotest.failf "ping: %s" message);
      (* one connection, two pipelined requests: both answered, in order *)
      (match Client.connect ~host:"127.0.0.1" ~port with
      | Error e -> Alcotest.failf "connect: %s" e
      | Ok c ->
        (match Client.call c (req ~id:10 "diff" (diff_params ())) with
        | Ok (Protocol.Ok_resp body) ->
          Alcotest.(check bool) "diff output" true (Json.mem_str "output" body <> None)
        | Ok (Protocol.Err_resp { message; _ }) -> Alcotest.failf "diff: %s" message
        | Error e -> Alcotest.failf "diff: %s" e);
        (match Client.call c (req ~id:11 "diff" (diff_params ())) with
        | Ok (Protocol.Ok_resp body) ->
          Alcotest.(check bool) "second diff cached" true
            (Option.value ~default:false (Json.mem_bool "cached" body))
        | Ok (Protocol.Err_resp { message; _ }) -> Alcotest.failf "diff2: %s" message
        | Error e -> Alcotest.failf "diff2: %s" e);
        Client.close c);
      (* queue wait counts against the client's deadline: pipeline two
         requests in one write so both are decoded together; the second's
         1µs allowance is consumed while the first runs, so it must be
         shed with a typed deadline answer, not started hopelessly late *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let send r =
        output_string oc
          (Protocol.encode_frame (Json.to_string (Protocol.request_to_json r)))
      in
      (* reversed pair: a fresh cache key, so the first request computes *)
      send
        (req ~id:20 "diff"
           (Json.Obj [ ("old", Json.Str new_sexp); ("new", Json.Str old_sexp) ]));
      send (req ~id:21 "diff" (diff_params ~deadline_ms:0.001 ()));
      flush oc;
      (match Protocol.read_frame ic with
      | Ok (Some p) -> (
        match Protocol.parse_response p with
        | Ok (20, Protocol.Ok_resp _) -> ()
        | Ok (_, Protocol.Err_resp { message; _ }) ->
          Alcotest.failf "first pipelined: %s" message
        | Ok _ | Error _ -> Alcotest.fail "first pipelined answer")
      | Ok None | Error _ -> Alcotest.fail "first pipelined frame");
      (match Protocol.read_frame ic with
      | Ok (Some p) -> (
        match Protocol.parse_response p with
        | Ok (21, Protocol.Err_resp { kind = Protocol.Deadline; _ }) -> ()
        | Ok (21, Protocol.Ok_resp _) ->
          Alcotest.fail "expired-in-queue request was run, not shed"
        | Ok _ | Error _ -> Alcotest.fail "second pipelined answer")
      | Ok None | Error _ -> Alcotest.fail "second pipelined frame");
      Unix.close fd;
      shutdown port)

let test_server_overload_rejects () =
  (* max_queue 0: every request is turned away with a typed overloaded
     answer carrying a retry hint — service declines, never breaks *)
  let config = { Server.default_config with Server.max_queue = 0 } in
  with_server ~config (fun port ->
      (match call_once port (req "diff" (diff_params ())) with
      | Protocol.Err_resp { kind = Protocol.Overloaded; retry_after_ms; _ } ->
        Alcotest.(check bool) "carries retry hint" true (retry_after_ms <> None)
      | Protocol.Err_resp { message; _ } ->
        Alcotest.failf "expected overloaded: %s" message
      | Protocol.Ok_resp _ -> Alcotest.fail "expected overloaded");
      (* shutdown must still get through: it is admission-exempt *)
      shutdown port)

let test_server_crash_isolation () =
  let config = { Server.default_config with Server.allow_crash = true } in
  with_server ~config (fun port ->
      (match call_once port (req "crash" (Json.Obj [])) with
      | Protocol.Err_resp { kind = Protocol.Internal; message; _ } ->
        Alcotest.(check bool) "diagnostic in the answer" true
          (String.length message > 0)
      | Protocol.Err_resp _ | Protocol.Ok_resp _ ->
        Alcotest.fail "expected a typed internal answer");
      (* the daemon survived: later requests on fresh connections work *)
      (match call_once port (req "diff" (diff_params ())) with
      | Protocol.Ok_resp _ -> ()
      | Protocol.Err_resp { message; _ } -> Alcotest.failf "after crash: %s" message);
      shutdown port)

let test_server_bad_frame_closes () =
  (* a desynchronized frame gets one typed answer and then the connection
     is actually closed — the fd must not linger half-dead in the loop *)
  with_server (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc "\xFF\xFF\xFF\xFF";
      flush oc;
      (match Protocol.read_frame ic with
      | Ok (Some p) -> (
        match Protocol.parse_response p with
        | Ok (0, Protocol.Err_resp { kind = Protocol.Bad_request; _ }) -> ()
        | Ok _ | Error _ -> Alcotest.fail "typed bad_request expected")
      | Ok None | Error _ -> Alcotest.fail "error answer expected first");
      (* the error answer was the last frame: the server hangs up *)
      (match Protocol.read_frame ic with
      | Ok None -> ()
      | Error _ -> ()
      | Ok (Some _) -> Alcotest.fail "frame after a framing error"
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
      | exception Unix.Unix_error _ -> ());
      Unix.close fd;
      (* and keeps serving fresh connections *)
      (match call_once port (req "ping" (Json.Obj [])) with
      | Protocol.Ok_resp _ -> ()
      | Protocol.Err_resp { message; _ } ->
        Alcotest.failf "after bad frame: %s" message);
      shutdown port)

let test_server_output_cap () =
  (* a cap below any answer size: the first response overflows it at
     enqueue and the connection is dropped instead of buffering forever *)
  let config = { Server.default_config with Server.max_pending_out = 16 } in
  with_server ~config (fun port ->
      let probe () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        output_string oc
          (Protocol.encode_frame
             (Json.to_string (Protocol.request_to_json (req "ping" (Json.Obj [])))));
        flush oc;
        let dropped =
          match Protocol.read_frame ic with
          | Ok None | Error _ -> true
          | Ok (Some _) -> false
          | exception End_of_file -> true
          | exception Sys_error _ -> true
          | exception Unix.Unix_error _ -> true
        in
        Unix.close fd;
        dropped
      in
      Alcotest.(check bool) "over-cap answer drops the connection" true (probe ());
      (* the server is still alive and applies the same policy afresh *)
      Alcotest.(check bool) "still serving (and still capping)" true (probe ()))

let test_stdio_subprocess () =
  let cmd = Printf.sprintf "%s serve --stdio" (bin "treediff_cli") in
  let ic, oc = Unix.open_process cmd in
  let send r =
    output_string oc (Protocol.encode_frame (Json.to_string (Protocol.request_to_json r)));
    flush oc
  in
  send (req ~id:1 "ping" (Json.Obj []));
  send (req ~id:2 "diff" (diff_params ()));
  send (req ~id:3 "shutdown" (Json.Obj []));
  let r1 = Protocol.read_frame ic in
  let r2 = Protocol.read_frame ic in
  let r3 = Protocol.read_frame ic in
  let status = Unix.close_process (ic, oc) in
  (match (r1, r2, r3) with
  | Ok (Some p1), Ok (Some p2), Ok (Some p3) ->
    (match Protocol.parse_response p1 with
    | Ok (1, Protocol.Ok_resp _) -> ()
    | _ -> Alcotest.fail "ping answer");
    (match Protocol.parse_response p2 with
    | Ok (2, Protocol.Ok_resp body) ->
      Alcotest.(check bool) "diff output over stdio" true
        (Json.mem_str "output" body <> None)
    | _ -> Alcotest.fail "diff answer");
    (match Protocol.parse_response p3 with
    | Ok (3, Protocol.Ok_resp _) -> ()
    | _ -> Alcotest.fail "shutdown answer")
  | _ -> Alcotest.fail "three framed answers expected");
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "stdio server exited %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Alcotest.failf "stdio server killed by %d" n

let test_sigterm_drains () =
  (* a real daemon process: SIGTERM must drain and exit 0, not die 143 *)
  let out = Filename.temp_file "treediff_serve" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process (bin "treediff_cli")
      [| bin "treediff_cli"; "serve"; "--port"; "0" |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  (* wait for the listening line so the signal lands after setup *)
  let rec wait_listening n =
    let s = try
        let ic = open_in out in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error _ -> ""
    in
    if String.length s = 0 then
      if n > 1000 then Alcotest.fail "daemon never announced its port"
      else begin
        Unix.sleepf 0.005;
        wait_listening (n + 1)
      end
  in
  wait_listening 0;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Sys.remove out;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "exit %d after SIGTERM" n
  | Unix.WSIGNALED n -> Alcotest.failf "killed by signal %d" n
  | Unix.WSTOPPED n -> Alcotest.failf "stopped by signal %d" n

let test_batch_closed_pipe () =
  (* `treediff batch … | head -c 1`: the writer must exit 0 on EPIPE.
     The batch output (hundreds of scripts) overflows any pipe buffer, so
     the closed read end is guaranteed to be hit. *)
  let dir = Filename.temp_file "treediff_bdir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  for i = 1 to 300 do
    let write path s =
      let oc = open_out path in
      output_string oc s;
      close_out oc
    in
    write
      (Filename.concat dir (Printf.sprintf "f%d.old.sexp" i))
      (Printf.sprintf {|(A (P (S "aaaaaaaaaaaaaaaa%d") (S "bbb")) (P (S "ccc")))|} i);
    write
      (Filename.concat dir (Printf.sprintf "f%d.new.sexp" i))
      (Printf.sprintf
         {|(A (P (S "zzzzzzzzzzzzzzzz%d") (S "bbb")) (P (S "ddd")) (P (S "eee")))|}
         i)
  done;
  (* pipefail makes the writer's status the pipeline's: a SIGPIPE death
     would surface as 141, a crash as its exit code *)
  let code =
    Sys.command
      (Printf.sprintf
         "bash -c 'set -o pipefail; %s batch -m script %s 2>/dev/null | head -c 16 >/dev/null'"
         (Filename.quote (bin "treediff_cli"))
         (Filename.quote dir))
  in
  Alcotest.(check int) "writer exits 0 on closed pipe" 0 code

(* ------------------------------------------------------------- env sweep *)

(* Under an armed serve.* fault the daemon must answer (typed errors and
   dropped connections allowed), keep running, and still shut down. *)
let test_env_sweep () =
  let config =
    { Server.default_config with Server.allow_crash = true; max_queue = 4 }
  in
  with_server ~config (fun port ->
      for i = 1 to 6 do
        match Client.connect ~host:"127.0.0.1" ~port with
        | Error _ -> () (* accept fault: dropped connection is acceptable *)
        | Ok c ->
          (match
             Client.call c
               (req ~id:i (if i mod 2 = 0 then "ping" else "diff") (diff_params ()))
           with
          | Ok _ -> () (* typed answer, any kind *)
          | Error _ -> () (* connection dropped mid-flight: acceptable *));
          Client.close c
      done;
      (* drain via SIGTERM through the self-pipe: works even when the armed
         fault drops every new connection, and the serve.drain fault must
         still stop the server rather than hang it *)
      Unix.kill (Unix.getpid ()) Sys.sigterm)

(* ------------------------------------------------------------------ main *)

let () =
  (* several tests write frames to sockets the peer already closed; the
     write must surface as an error value, not a SIGPIPE death *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let quick name f = Alcotest.test_case name `Quick f in
  match Sys.getenv_opt Fault.env_var with
  | Some s when s <> "" ->
    Alcotest.run "serve(env)"
      [ ("env-sweep", [ quick ("armed " ^ s) test_env_sweep ]) ]
  | _ ->
    Alcotest.run "serve"
      [
        ( "json",
          [
            QCheck_alcotest.to_alcotest json_roundtrip_prop;
            quick "parse cases and rejections" test_json_parse_cases;
          ] );
        ( "protocol",
          [
            quick "framer survives 1-byte chunking" test_framer_chunked;
            quick "oversize frame refused" test_framer_oversize;
            quick "request round-trip" test_request_roundtrip;
            quick "response payloads" test_response_payloads;
          ] );
        ( "cache",
          [
            quick "LRU order, counters, replace" test_cache_lru;
            quick "capacity 0 disables" test_cache_disabled;
          ] );
        ( "handler",
          [
            quick "diff + result cache" test_handler_diff_and_cache;
            quick "pressure levels degrade" test_handler_pressure_levels;
            quick "deadlines: typed answers and queue shedding"
              test_handler_deadline;
            quick "crash isolation" test_handler_crash_isolation;
            quick "bad requests are typed" test_handler_bad_requests;
            quick "cache fault absorbed" test_handler_cache_fault_absorbed;
            quick "batch: each result is the diff answer, replayable"
              test_handler_batch_matches_diff;
            quick "store handle cache: warm, revalidated, never stale"
              test_store_handle_cache;
            quick "store verbs on a corpus (doc param)" test_store_corpus_verbs;
            quick "Budget.remaining_ms" test_budget_remaining_ms;
          ] );
        ( "backoff",
          [
            quick "schedule is seed-deterministic" test_backoff_deterministic;
            quick "retries replay the seeded schedule" test_retry_replays_schedule;
            quick "server retry hint dominates" test_retry_honours_server_hint;
            quick "non-idempotent verbs are not re-sent"
              test_retry_idempotency_gate;
          ] );
        ( "daemon",
          [
            quick "e2e: ping, diff, cache, deadline" test_server_e2e;
            quick "overload rejects with typed answers" test_server_overload_rejects;
            quick "handler crash leaves the daemon serving" test_server_crash_isolation;
            quick "framing error answers then closes the fd"
              test_server_bad_frame_closes;
            quick "unread answers over the cap drop the connection"
              test_server_output_cap;
          ] );
        ( "process",
          [
            quick "--stdio over pipes" test_stdio_subprocess;
            quick "SIGTERM drains to exit 0" test_sigterm_drains;
            quick "batch to a closed pipe exits 0" test_batch_closed_pipe;
          ] );
      ]
