(** The version archive's on-disk container: a header followed by an
    append-only sequence of checksummed records.

    Wire format (version 1):

    {v
    header  := "TDST" version-byte(1) varint(interval) varint(max_replay_ops)
    record  := tag-byte varint(payload-length) fnv64(payload, 8 bytes LE) payload
    v}

    The container refuses files whose magic or format version it does not
    know ({!Bad_magic} / {!Unsupported_version}) instead of misreading them.
    Records are self-delimiting and checksummed, so a crash mid-append
    leaves a tail {!scan} detects and isolates: every record before the tail
    stays readable, [truncated_tail] reports the damage, and the next
    {!append} truncates the garbage before writing.  Payload semantics
    (snapshots, delta chains) live one layer up, in {!Chain}. *)

type error =
  | Io of string
  | Bad_magic
  | Unsupported_version of int  (** header version byte this build cannot read *)
  | Bad_record of int * string
      (** a positioned read found no intact record at this byte offset *)

val error_to_string : error -> string

val format_version : int

type record = { tag : char; payload : string }

val record_bytes : record -> string
(** One record in wire form (tag, length, checksum, payload) — what
    {!append} writes.  {!Manifest} and the shard writers frame their own
    records with this so every file in a corpus shares one checksum
    discipline. *)

val record_size : record -> int
(** Length of {!record_bytes}, without building it. *)

val header_length : interval:int -> max_replay_ops:int -> int
(** Byte offset of the first record in a container with this header:
    {!scan} and {!rewrite} lay records back to back from here. *)

type opened = {
  records : record list;  (** every well-formed record, in file order *)
  valid_end : int;  (** byte offset just past the last well-formed record *)
  truncated_tail : bool;  (** bytes after [valid_end] were damaged/partial *)
  interval : int;  (** checkpoint policy persisted at [create] time *)
  max_replay_ops : int;
}

val create :
  path:string -> interval:int -> max_replay_ops:int -> (unit, error) result
(** Write a fresh header-only container.  Refuses an existing file. *)

val scan : string -> (opened, error) result
(** Read and validate the whole container.  Never raises. *)

val scan_records : Treediff_util.Binio.reader -> record list * int * bool
(** Scan checksummed records from the reader's current position to the end
    of its source: [(records, valid_end, truncated_tail)].  The shared tail
    of {!scan} and {!Manifest}'s replay — any file framed with
    {!record_bytes} gets the same damaged-tail isolation. *)

val read_records : string -> int array -> (record array, error) result
(** Positioned reads: [spans] holds [offset; wire length] pairs, flat, and
    the result holds the record at each, in order.  Every record's
    checksum is re-checked and it must fill its span exactly, else
    {!Bad_record}; a run of spans laid back to back is read at once.
    Never raises. *)

val append :
  ?faults:Treediff_util.Fault.t ->
  ?point:string ->
  path:string ->
  valid_end:int ->
  record ->
  (int, error) result
(** Truncate the file to [valid_end] (dropping any damaged tail), append one
    record and return the new end offset.  [faults] is the fault registry to
    fire (default: a fresh environment-armed one).  Carries the [point]
    fault point (default [store.append]; the manifest writer passes
    [store.manifest]) mid-write, after part of the payload has reached the
    file — the crash the scan layer must survive. *)

val rewrite :
  path:string ->
  interval:int ->
  max_replay_ops:int ->
  record list ->
  (int, error) result
(** Atomically replace the container (write a sibling temp file, rename
    over) with a fresh header and the given records; returns the new file
    size.  The [gc] path. *)
