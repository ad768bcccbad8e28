module B = Treediff_util.Binio
module Fault = Treediff_util.Fault

let magic = "TDST"

let format_version = 1

type error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int
  | Bad_record of int * string

let error_to_string = function
  | Io msg -> msg
  | Bad_magic -> "not a treediff store (bad magic)"
  | Unsupported_version v ->
    Printf.sprintf "unsupported store format version %d (this build reads %d)" v
      format_version
  | Bad_record (off, reason) -> Printf.sprintf "record at byte %d: %s" off reason

type record = { tag : char; payload : string }

type opened = {
  records : record list;
  valid_end : int;
  truncated_tail : bool;
  interval : int;
  max_replay_ops : int;
}

let guard_io f =
  match f () with
  | v -> Ok v
  | exception Sys_error msg -> Error (Io msg)
  | exception Failure msg -> Error (Io msg)
  | exception Unix.Unix_error (e, fn, arg) ->
    Error (Io (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let header ~interval ~max_replay_ops =
  let buf = Buffer.create 16 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr format_version);
  B.add_varint buf interval;
  B.add_varint buf max_replay_ops;
  Buffer.contents buf

let header_length ~interval ~max_replay_ops =
  String.length (header ~interval ~max_replay_ops)

(* tag, payload length, checksum, payload — see the .mli wire grammar. *)
let record_bytes { tag; payload } =
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_char buf tag;
  B.add_varint buf (String.length payload);
  B.add_i64 buf (B.fnv1a64 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let record_size { payload; _ } =
  let n = String.length payload in
  let rec varint k v = if v < 0x80 then k else varint (k + 1) (v lsr 7) in
  1 + varint 1 n + 8 + n

(* One record at the reader's position, its checksum checked. *)
let read_record r =
  let start = r.B.pos in
  let tag = Char.chr (B.read_byte r) in
  let len = B.read_varint r in
  let sum = B.read_i64 r in
  if B.remaining r < len then raise (B.Truncated r.B.pos);
  let payload = String.sub r.B.src r.B.pos len in
  r.B.pos <- r.B.pos + len;
  if not (Int64.equal sum (B.fnv1a64 payload)) then
    raise (B.Malformed (start, "record checksum mismatch"));
  { tag; payload }

(* Records until the data runs out or stops checksumming.  A damaged
   record poisons everything after it: with no resync marker, the
   remainder of an append-only file cannot be trusted, so it is reported
   as a truncated tail. *)
let scan_records r =
  let records = ref [] in
  let valid_end = ref r.B.pos in
  let damaged = ref false in
  (try
     while B.remaining r > 0 do
       records := read_record r :: !records;
       valid_end := r.B.pos
     done
   with B.Truncated _ | B.Malformed _ -> damaged := true);
  (List.rev !records, !valid_end, !damaged)

let create ~path ~interval ~max_replay_ops =
  if Sys.file_exists path then
    Error (Io (Printf.sprintf "%s already exists" path))
  else
    guard_io @@ fun () ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (header ~interval ~max_replay_ops))

let scan path =
  let read () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match guard_io read with
  | Error _ as e -> e
  | Ok src -> (
    let r = B.reader src in
    if not (B.expect r magic) then Error Bad_magic
    else
      match B.read_byte r with
      | exception B.Truncated _ -> Error Bad_magic
      | v when v <> format_version -> Error (Unsupported_version v)
      | _ -> (
        match
          let interval = B.read_varint r in
          let max_replay_ops = B.read_varint r in
          (interval, max_replay_ops)
        with
        | exception (B.Truncated _ | B.Malformed _) -> Error Bad_magic
        | interval, max_replay_ops ->
          let records, valid_end, truncated_tail = scan_records r in
          Ok { records; valid_end; truncated_tail; interval; max_replay_ops }))

exception Bad_span of int * string

let read_records path spans =
  let n = Array.length spans / 2 in
  let records = Array.make n { tag = '\000'; payload = "" } in
  let read fd =
    let i = ref 0 in
    while !i < n do
      (* A run of records laid back to back costs one read. *)
      let j = ref (!i + 1) in
      while !j < n && spans.(2 * !j) = spans.(2 * !j - 2) + spans.(2 * !j - 1) do
        incr j
      done;
      let first = spans.(2 * !i) in
      let buf = Bytes.create (spans.(2 * !j - 2) + spans.(2 * !j - 1) - first) in
      ignore (Unix.lseek fd first Unix.SEEK_SET);
      let rec fill off =
        if off < Bytes.length buf then
          match Unix.read fd buf off (Bytes.length buf - off) with
          | 0 -> raise (Bad_span (first + off, "record runs past the end of the file"))
          | k -> fill (off + k)
      in
      fill 0;
      let src = Bytes.unsafe_to_string buf in
      for k = !i to !j - 1 do
        let off = spans.(2 * k) in
        let r = B.reader ~pos:(off - first) src in
        match read_record r with
        | record when r.B.pos - (off - first) = spans.((2 * k) + 1) ->
          records.(k) <- record
        | _ -> raise (Bad_span (off, "record length differs from its index span"))
        | exception B.Truncated _ -> raise (Bad_span (off, "record truncated"))
        | exception B.Malformed (_, reason) -> raise (Bad_span (off, reason))
      done;
      i := !j
    done;
    records
  in
  match
    guard_io @@ fun () ->
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> read fd)
  with
  | result -> result
  | exception Bad_span (off, reason) -> Error (Bad_record (off, reason))

let append ?faults ?(point = "store.append") ~path ~valid_end record =
  let fault name =
    match faults with
    | Some f -> Fault.point f name
    | None -> Fault.point (Fault.create ()) name
  in
  guard_io @@ fun () ->
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* Drop any damaged tail left by an earlier interrupted append, then
         write the record in two halves around the crash fault point.  A
         file already [valid_end] long is not truncated: ext4, for one,
         runs a journaled truncate even when the length does not change. *)
      if (Unix.fstat fd).Unix.st_size <> valid_end then Unix.ftruncate fd valid_end;
      ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
      let bytes = record_bytes record in
      let write s off len =
        if Unix.write_substring fd s off len <> len then failwith "short write"
      in
      let half = String.length bytes / 2 in
      write bytes 0 half;
      (* Simulated crash: part of the record is on disk, the rest never
         lands.  Scan must isolate the damage on reopen. *)
      fault point;
      write bytes half (String.length bytes - half);
      valid_end + String.length bytes)

let rewrite ~path ~interval ~max_replay_ops records =
  guard_io @@ fun () ->
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc (header ~interval ~max_replay_ops);
     List.iter (fun r -> output_string oc (record_bytes r)) records
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path;
  (Unix.stat path).Unix.st_size
