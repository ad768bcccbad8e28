module B = Treediff_util.Binio

let magic = "TDSM"

let format_version = 1

type error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int

let error_to_string = function
  | Io msg -> msg
  | Bad_magic -> "not a treediff corpus manifest (bad magic)"
  | Unsupported_version v ->
    Printf.sprintf "unsupported manifest format version %d (this build reads %d)"
      v format_version

type doc_info = { doc : string; shard : int; versions : int; head_hash : int64 }

type replayed = {
  shards : int;
  interval : int;
  max_replay_ops : int;
  catalog : (string, doc_info) Hashtbl.t;
  next_seq : int;
  aborted : int list;
  valid_end : int;
  truncated_tail : bool;
}

let tag_begin = 'B'

let tag_end = 'E'

let tag_catalog = 'K'

let guard_io f =
  match f () with
  | v -> Ok v
  | exception Sys_error msg -> Error (Io msg)
  | exception Failure msg -> Error (Io msg)
  | exception Unix.Unix_error (e, fn, arg) ->
    Error (Io (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let header ~shards ~interval ~max_replay_ops =
  let buf = Buffer.create 16 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr format_version);
  B.add_varint buf shards;
  B.add_varint buf interval;
  B.add_varint buf max_replay_ops;
  Buffer.contents buf

let create ~path ~shards ~interval ~max_replay_ops =
  if Sys.file_exists path then
    Error (Io (Printf.sprintf "%s already exists" path))
  else
    guard_io @@ fun () ->
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (header ~shards ~interval ~max_replay_ops))

(* --------------------------------------------------------------- payloads *)

let begin_payload ~seq docs =
  let buf = Buffer.create 64 in
  B.add_varint buf seq;
  B.add_varint buf (List.length docs);
  List.iter
    (fun (doc, shard) ->
      B.add_string buf doc;
      B.add_varint buf shard)
    docs;
  Buffer.contents buf

let end_payload ~seq infos =
  let buf = Buffer.create 64 in
  B.add_varint buf seq;
  B.add_varint buf (List.length infos);
  List.iter
    (fun { doc; shard; versions; head_hash } ->
      B.add_string buf doc;
      B.add_varint buf shard;
      B.add_varint buf versions;
      B.add_i64 buf head_hash)
    infos;
  Buffer.contents buf

let catalog_payload ~next_seq infos =
  let buf = Buffer.create 256 in
  B.add_varint buf next_seq;
  B.add_varint buf (List.length infos);
  List.iter
    (fun { doc; shard; versions; head_hash } ->
      B.add_string buf doc;
      B.add_varint buf shard;
      B.add_varint buf versions;
      B.add_i64 buf head_hash)
    infos;
  Buffer.contents buf

let read_infos r =
  let n = B.read_varint r in
  List.init n (fun _ ->
      let doc = B.read_string r in
      let shard = B.read_varint r in
      let versions = B.read_varint r in
      let head_hash = B.read_i64 r in
      { doc; shard; versions; head_hash })

(* ----------------------------------------------------------------- replay *)

let replay path =
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
          let shards = B.read_varint r in
          let interval = B.read_varint r in
          let max_replay_ops = B.read_varint r in
          (shards, interval, max_replay_ops)
        with
        | exception (B.Truncated _ | B.Malformed _) -> Error Bad_magic
        | shards, interval, max_replay_ops ->
          let records, valid_end, truncated_tail = Container.scan_records r in
          let catalog = Hashtbl.create 256 in
          let pending = Hashtbl.create 4 in
          let next_seq = ref 0 in
          let fold (record : Container.record) =
            let r = B.reader record.Container.payload in
            if record.Container.tag = tag_begin then begin
              let seq = B.read_varint r in
              Hashtbl.replace pending seq ();
              next_seq := max !next_seq (seq + 1)
            end
            else if record.Container.tag = tag_end then begin
              let seq = B.read_varint r in
              Hashtbl.remove pending seq;
              next_seq := max !next_seq (seq + 1);
              List.iter
                (fun info -> Hashtbl.replace catalog info.doc info)
                (read_infos r)
            end
            else if record.Container.tag = tag_catalog then begin
              Hashtbl.reset catalog;
              Hashtbl.reset pending;
              let seq = B.read_varint r in
              next_seq := max !next_seq seq;
              List.iter
                (fun info -> Hashtbl.replace catalog info.doc info)
                (read_infos r)
            end
            (* Unknown tags are skipped, not fatal: the checksum already
               proved the record intact, and a newer writer may add kinds
               an older reader can ignore. *)
          in
          (match List.iter fold records with
          | () ->
            let aborted =
              List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) pending [])
            in
            Ok
              {
                shards;
                interval;
                max_replay_ops;
                catalog;
                next_seq = !next_seq;
                aborted;
                valid_end;
                truncated_tail;
              }
          | exception (B.Truncated _ | B.Malformed _) ->
            Error (Io (path ^ ": malformed manifest record payload")))))

(* ----------------------------------------------------------------- append *)

let point = "store.manifest"

let of_container = function
  | Container.Io m -> Io m
  | Container.Bad_magic -> Bad_magic
  | Container.Unsupported_version v -> Unsupported_version v
  | Container.Bad_record _ as e -> Io (Container.error_to_string e)

let append_begin ?faults ~path ~valid_end ~seq docs =
  Result.map_error of_container
    (Container.append ?faults ~point ~path ~valid_end
       { Container.tag = tag_begin; payload = begin_payload ~seq docs })

let append_end ?faults ~path ~valid_end ~seq infos =
  Result.map_error of_container
    (Container.append ?faults ~point ~path ~valid_end
       { Container.tag = tag_end; payload = end_payload ~seq infos })

let checkpoint ~path ~shards ~interval ~max_replay_ops ~next_seq infos =
  guard_io @@ fun () ->
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc (header ~shards ~interval ~max_replay_ops);
     output_string oc
       (Container.record_bytes
          {
            Container.tag = tag_catalog;
            payload = catalog_payload ~next_seq infos;
          })
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path;
  (Unix.stat path).Unix.st_size
