let max_frame = 16 * 1024 * 1024

let encode_frame payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Protocol.encode_frame: %d bytes > max_frame" n);
  let b = Bytes.create (4 + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

module Framer = struct
  (* Accumulate into one buffer; [start] marks how much has already been
     consumed.  The buffer is compacted when the consumed prefix dominates,
     so a long-lived connection does not grow it without bound. *)
  type t = { mutable buf : Buffer.t; mutable start : int }

  let create () = { buf = Buffer.create 512; start = 0 }

  let feed t s = Buffer.add_string t.buf s

  let buffered t = Buffer.length t.buf - t.start

  let compact t =
    if t.start > 4096 && t.start * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.start (Buffer.length t.buf - t.start) in
      let buf = Buffer.create (String.length rest + 512) in
      Buffer.add_string buf rest;
      t.buf <- buf;
      t.start <- 0
    end

  let next t =
    let avail = buffered t in
    if avail < 4 then Ok None
    else begin
      let byte i = Char.code (Buffer.nth t.buf (t.start + i)) in
      let n = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
      if n > max_frame then
        Error (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n max_frame)
      else if avail < 4 + n then Ok None
      else begin
        let payload = Buffer.sub t.buf (t.start + 4) n in
        t.start <- t.start + 4 + n;
        compact t;
        Ok (Some payload)
      end
    end
end

let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> Ok None
  | header ->
    let byte i = Char.code header.[i] in
    let n = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
    if n > max_frame then
      Error (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n max_frame)
    else (
      match really_input_string ic n with
      | payload -> Ok (Some payload)
      | exception End_of_file ->
        Error (Printf.sprintf "truncated frame (wanted %d bytes)" n))

let write_frame oc payload =
  output_string oc (encode_frame payload);
  flush oc

(* ------------------------------------------------------------- requests *)

type request = { id : int; verb : string; params : Json.t }

let parse_request payload =
  match Json.parse payload with
  | Error e -> Error e
  | Ok v -> (
    let id =
      match Json.mem_num "id" v with
      | Some f when Float.is_integer f -> Some (int_of_float f)
      | Some _ | None -> None
    in
    match (id, Json.mem_str "verb" v) with
    | None, _ -> Error "request: missing or non-integer \"id\""
    | _, None -> Error "request: missing \"verb\""
    | Some id, Some verb ->
      let params =
        match Json.member "params" v with
        | Some (Json.Obj _ as p) -> p
        | Some _ | None -> Json.Obj []
      in
      Ok { id; verb; params })

let request_to_json r =
  Json.Obj
    [
      ("id", Json.int r.id);
      ("verb", Json.Str r.verb);
      ("params", r.params);
    ]

(* ------------------------------------------------------------ responses *)

type error_kind = Bad_request | Overloaded | Deadline | Internal | Shutting_down

let error_kind_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Internal -> "internal"
  | Shutting_down -> "shutting_down"

let error_kind_of_name = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "deadline" -> Some Deadline
  | "internal" -> Some Internal
  | "shutting_down" -> Some Shutting_down
  | _ -> None

type response =
  | Ok_resp of Json.t
  | Err_resp of {
      kind : error_kind;
      message : string;
      retry_after_ms : float option;
    }

let ok_payload ~id body =
  Json.to_string
    (Json.Obj [ ("id", Json.int id); ("ok", body) ])

let error_payload ~id ?retry_after_ms kind message =
  let fields =
    [
      ("kind", Json.Str (error_kind_name kind)); ("message", Json.Str message);
    ]
    @
    match retry_after_ms with
    | None -> []
    | Some ms -> [ ("retry_after_ms", Json.float ms) ]
  in
  Json.to_string
    (Json.Obj [ ("id", Json.int id); ("error", Json.Obj fields) ])

let parse_response payload =
  match Json.parse payload with
  | Error e -> Error e
  | Ok v -> (
    match Json.mem_num "id" v with
    | None -> Error "response: missing \"id\""
    | Some idf -> (
      let id = int_of_float idf in
      match (Json.member "ok" v, Json.member "error" v) with
      | Some body, None -> Ok (id, Ok_resp body)
      | None, Some err -> (
        let message = Option.value ~default:"" (Json.mem_str "message" err) in
        let retry_after_ms = Json.mem_num "retry_after_ms" err in
        match
          Option.bind (Json.mem_str "kind" err) error_kind_of_name
        with
        | Some kind -> Ok (id, Err_resp { kind; message; retry_after_ms })
        | None -> Error "response: unknown error kind")
      | Some _, Some _ -> Error "response: both \"ok\" and \"error\""
      | None, None -> Error "response: neither \"ok\" nor \"error\""))
