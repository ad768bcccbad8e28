type reason = Deadline | Comparisons | Nodes | Depth

let reason_name = function
  | Deadline -> "deadline"
  | Comparisons -> "comparison cap"
  | Nodes -> "node cap"
  | Depth -> "depth cap"

type exhausted = {
  phase : string;
  reason : reason;
  comparisons : int;
  visits : int;
  elapsed_ms : float;
}

exception Exceeded of exhausted

let describe e =
  Printf.sprintf "%s hit in phase %s (%d comparisons, %d visits, %.1f ms)"
    (reason_name e.reason) e.phase e.comparisons e.visits e.elapsed_ms

type t = {
  deadline_ms : float;           (* allowance, for rearm; infinity = none *)
  mutable deadline : float;      (* absolute Clock.now seconds *)
  mutable started : float;
  max_comparisons : int;         (* max_int = none *)
  max_nodes : int;
  max_depth : int;
  mutable comparisons : int;
  mutable visits : int;
  mutable phase : string;
}

let now () = Clock.now ()

let make ?deadline_ms ?max_comparisons ?max_nodes ?max_depth () =
  let deadline_ms = Option.value deadline_ms ~default:infinity in
  let started = now () in
  {
    deadline_ms;
    deadline =
      (if deadline_ms = infinity then infinity else started +. (deadline_ms /. 1000.));
    started;
    max_comparisons = Option.value max_comparisons ~default:max_int;
    max_nodes = Option.value max_nodes ~default:max_int;
    max_depth = Option.value max_depth ~default:max_int;
    comparisons = 0;
    visits = 0;
    phase = "setup";
  }

let unlimited () = make ()

let is_limited b =
  b.deadline < infinity || b.max_comparisons < max_int || b.max_nodes < max_int
  || b.max_depth < max_int

let rearm b =
  let started = now () in
  {
    b with
    started;
    deadline =
      (if b.deadline_ms = infinity then infinity
       else started +. (b.deadline_ms /. 1000.));
    comparisons = 0;
    visits = 0;
    phase = "setup";
  }

let phase b = b.phase

let set_phase b p = b.phase <- p

let comparisons b = b.comparisons

let visits b = b.visits

let exhausted_of b reason =
  {
    phase = b.phase;
    reason;
    comparisons = b.comparisons;
    visits = b.visits;
    elapsed_ms = (now () -. b.started) *. 1000.;
  }

let exceeded b reason = raise (Exceeded (exhausted_of b reason))

let poll b = if b.deadline < infinity && now () > b.deadline then exceeded b Deadline

let remaining_ms b =
  if b.deadline = infinity then infinity
  else Float.max 0. ((b.deadline -. now ()) *. 1000.)

(* The deadline clock is only read every 256 events, so the hot-loop cost of
   a budget check is an increment, a compare and a mask. *)
let mask = 255

let tick b =
  b.comparisons <- b.comparisons + 1;
  if b.comparisons > b.max_comparisons then exceeded b Comparisons;
  if b.comparisons land mask = 0 then poll b

let visit b =
  b.visits <- b.visits + 1;
  if b.visits land mask = 0 then poll b

let visit_n b n =
  b.visits <- b.visits + n;
  poll b

let admit b ~nodes ~depth =
  if nodes > b.max_nodes then exceeded b Nodes;
  if depth > b.max_depth then exceeded b Depth;
  poll b
