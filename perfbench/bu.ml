(* Shared plumbing for the benchmark scenarios: clock, sample statistics,
   the metric rows a run prints, output checks and provenance. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------- samples *)

(* Values in the order taken, each with the time it was taken ([at]). *)
module Samples = struct
  type t = { mutable a : float array; mutable at : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; at = Array.make 256 0.; n = 0 }

  let grow a n =
    let b = Array.make (2 * n) 0. in
    Array.blit a 0 b 0 n;
    b

  let add_at t ~at x =
    if t.n = Array.length t.a then begin
      t.a <- grow t.a t.n;
      t.at <- grow t.at t.n
    end;
    t.a.(t.n) <- x;
    t.at.(t.n) <- at;
    t.n <- t.n + 1

  let add t x = add_at t ~at:(now ()) x

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let pct samples q = quantile (Samples.sorted samples) q

let median_of list = quantile (Array.of_list (List.sort compare list)) 0.5

(* The median, over consecutive windows of [window] samples in the order
   they were taken, of each window's [q]-quantile (all samples when there
   are fewer than [window]).  A host stall of a few milliseconds lifts the
   tail of the window it falls in and leaves the median window alone, so
   the figure follows the program rather than how many stalls one run
   happened to catch. *)
let windowed_pct (t : Samples.t) ~window q =
  let n = t.Samples.n / window in
  if n = 0 then pct t q
  else
    median_of
      (List.init n (fun k ->
           let w = Array.sub t.Samples.a (k * window) window in
           Array.sort compare w;
           quantile w q))

(* ----------------------------------------------------------- host pace *)

(* The 2-vCPU VM this benchmark was written on ran a fixed CPU loop up to
   1.7x slower in episodes lasting from one to tens of seconds, with no
   steal time reported, and such an episode can outlast a whole run.  So
   every end-to-end timing is reported at a reference pace: each sample is
   multiplied by [nominal / local], where [local] is the median time of a
   fixed reference kernel over the [nearest] runs of it closest in time to
   the sample.  The kernel runs between operations, about every
   [interval], never while the daemon is working, and calls nothing in the
   library: a change to the program moves the paced figures as it moves
   the raw ones, while a slow spell of the host moves the kernel too. *)
module Pace = struct
  (* The kernel's median time on the VM above in its usual state. *)
  let nominal = 900e-6

  let interval = 0.05

  let nearest = 16

  let refs = Samples.create ()

  let last = ref neg_infinity

  (* Hashing, allocation and sorting, as diffing does. *)
  let kernel () =
    let h = Hashtbl.create 64 in
    for i = 0 to 1499 do
      Hashtbl.replace h (string_of_int (i * 7919 mod 10007)) i
    done;
    let a = Array.init 1500 (fun i -> i * 7919 mod 1511) in
    Array.sort compare a;
    ignore (Sys.opaque_identity (Hashtbl.length h + a.(0)))

  let sample () =
    let t0 = now () in
    kernel ();
    let t1 = now () in
    Samples.add_at refs ~at:((t0 +. t1) /. 2.) (t1 -. t0);
    last := t1

  (* Between operations: one kernel run if [interval] has passed. *)
  let tick () = if now () -. !last >= interval then sample ()

  let burst n =
    for _ = 1 to n do
      sample ()
    done

  (* How much slower than nominal the host ran at time [t]. *)
  let factor t =
    let n = refs.Samples.n and at = refs.Samples.at in
    if n = 0 then 1.
    else begin
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if at.(mid) < t then lo := mid + 1 else hi := mid
      done;
      let l = ref (!lo - 1) and r = ref !lo and picked = ref [] in
      for _ = 1 to min nearest n do
        if !r >= n || (!l >= 0 && t -. at.(!l) <= at.(!r) -. t) then begin
          picked := refs.Samples.a.(!l) :: !picked;
          decr l
        end
        else begin
          picked := refs.Samples.a.(!r) :: !picked;
          incr r
        end
      done;
      median_of !picked /. nominal
    end

  let scale ~at x = x /. factor at

  (* [s] at the reference pace, in the order taken. *)
  let scaled (s : Samples.t) =
    let o = Samples.create () in
    for i = 0 to s.Samples.n - 1 do
      Samples.add_at o ~at:s.Samples.at.(i) (scale ~at:s.Samples.at.(i) s.Samples.a.(i))
    done;
    o

  (* The median kernel time over the run, in microseconds (provenance). *)
  let median_us () = 1e6 *. quantile (Samples.sorted refs) 0.5
end

(* ------------------------------------------------------------ metrics *)

type row = { name : string; value : float; unit_ : string }

let rows : row list ref = ref []

let emit name unit_ value = rows := { name; value; unit_ } :: !rows

let emitted () = List.rev !rows

(* ---------------------------------------------------- output checking *)

let attempted = ref 0

let failed = ref 0

let mismatches = ref 0

(* An operation that ran and produced a wrong or missing answer: counted in
   [failed], reported on stderr (first few only), and it makes the run
   exit non-zero. *)
let mismatch fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      incr mismatches;
      if !mismatches <= 10 then Printf.eprintf "perfbench: mismatch: %s\n%!" msg)
    fmt

(* --------------------------------------------------------- provenance *)

let provenance : (string * string) list ref = ref []

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* [note key json] records one provenance field; [json] is already JSON. *)
let note key json = provenance := (key, json) :: !provenance

let note_str key s = note key (json_string s)

let note_int key n = note key (string_of_int n)

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

(* Digests let two runs with one seed be checked for identical inputs and
   outputs. *)
module Digester = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  (* Fold each item into a running MD5 so memory stays bounded. *)
  let add t s =
    Buffer.add_string t (Digest.string s);
    if Buffer.length t >= 4096 then begin
      let d = Digest.string (Buffer.contents t) in
      Buffer.clear t;
      Buffer.add_string t d
    end

  let hex t = Digest.to_hex (Digest.string (Buffer.contents t))
end

(* ------------------------------------------------------------- memory *)

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* ------------------------------------------------------------ options *)

(* One scenario's run parameters, fixed by the command line. *)
type opts = {
  seed : int;
  seconds : float;  (** measuring window of this scenario *)
  trace : bool;
  small : bool;  (** reduced input sizes (the benchmark's own tests) *)
}

(* Derive an independent stream per scenario from the run seed. *)
let prng opts salt = Treediff_util.Prng.create ((opts.seed * 1_000_003) + salt)
