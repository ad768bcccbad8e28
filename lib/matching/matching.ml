(* Array-backed one-to-one matching.  Each direction keeps a plain
   [id -> partner] array over a window of ids [base, base + length), -1
   meaning "unmatched", and a hashtable for every other id.  The window's
   length follows the number of pairs, not the ids: it doubles to cover a
   new id only while {!Index.dense_enough} holds for its new length and the
   pair count (the rule Index uses for its [id -> rank] array), so three
   pairs with an id near 2^20 cost a few hundred bytes.  The ids one
   [Tree.gen] hands a pair, and the fresh ids EditScript gives inserted
   nodes, come in runs, so each side's partners fall in a window about as
   long as its pair count.  Invariant: the hashtable holds only ids outside
   the window, so a lookup reads one or the other.  [version] counts
   mutations, letting callers (the Criteria common-leaf cache) invalidate
   derived state in O(1). *)

module Index = Treediff_tree.Index

type side = {
  mutable base : int;
  mutable arr : int array; (* id - base -> partner, -1 = unmatched *)
  ext : (int, int) Hashtbl.t; (* ids outside the window *)
}

type t = {
  fwd : side; (* T1 id -> T2 id *)
  bwd : side; (* T2 id -> T1 id *)
  mutable card : int;
  mutable version : int;
}

let side () = { base = 0; arr = [||]; ext = Hashtbl.create 8 }

let create () = { fwd = side (); bwd = side (); card = 0; version = 0 }

let copy_side s = { base = s.base; arr = Array.copy s.arr; ext = Hashtbl.copy s.ext }

let copy m =
  { fwd = copy_side m.fwd; bwd = copy_side m.bwd; card = m.card; version = m.version }

let version m = m.version

let rec next_size want have = if have >= want then have else next_size want (2 * have)

(* Windows hold ids below 2^60 only, so [base + length] cannot overflow. *)
let windowed id = id < 1 lsl 60

(* Widens [s]'s window to cover [id] when [pairs] pairs keep it dense
   enough, moving the hashtable's ids inside the new window into it. *)
let grow s id ~pairs =
  let len = Array.length s.arr in
  let lo = if len = 0 then id else min s.base id in
  let hi = if len = 0 then id + 1 else max (s.base + len) (id + 1) in
  let len' = next_size (hi - lo) (max 64 len) in
  if Index.dense_enough ~max_id:(len' - 1) ~size:pairs then begin
    (* a window grown downwards keeps its top, one grown upwards its base *)
    let base' = if len > 0 && id < s.base then max 0 (hi - len') else lo in
    let arr' = Array.make len' (-1) in
    if len > 0 then Array.blit s.arr 0 arr' (s.base - base') len;
    Hashtbl.filter_map_inplace
      (fun k v ->
        if k >= base' && k < base' + len' then begin
          arr'.(k - base') <- v;
          None
        end
        else Some v)
      s.ext;
    s.base <- base';
    s.arr <- arr'
  end

let inside s id = id >= s.base && id < s.base + Array.length s.arr

let set s id v ~pairs =
  if (not (inside s id)) && windowed id then grow s id ~pairs;
  if inside s id then s.arr.(id - s.base) <- v else Hashtbl.replace s.ext id v

let get s id =
  if inside s id then s.arr.(id - s.base)
  else if Hashtbl.length s.ext = 0 then -1
  else match Hashtbl.find_opt s.ext id with Some v -> v | None -> -1

let unset s id = if inside s id then s.arr.(id - s.base) <- -1 else Hashtbl.remove s.ext id

let lookup_old m x = get m.fwd x

let lookup_new m y = get m.bwd y

let add m x y =
  if x < 0 || y < 0 then invalid_arg "Matching.add: negative node id";
  let x' = lookup_old m x in
  if x' >= 0 && x' <> y then
    invalid_arg (Printf.sprintf "Matching.add: T1 node %d already matched to %d" x x');
  let y' = lookup_new m y in
  if y' >= 0 && y' <> x then
    invalid_arg (Printf.sprintf "Matching.add: T2 node %d already matched to %d" y y');
  if x' < 0 then begin
    (* fresh pair (one-to-one: x' < 0 iff y' < 0 here) *)
    let pairs = m.card + 1 in
    set m.fwd x y ~pairs;
    set m.bwd y x ~pairs;
    m.card <- pairs;
    m.version <- m.version + 1
  end

let remove m x y =
  if lookup_old m x = y && y >= 0 then begin
    unset m.fwd x;
    unset m.bwd y;
    m.card <- m.card - 1;
    m.version <- m.version + 1
  end

let mem m x y = y >= 0 && lookup_old m x = y

let partner_of_old m x =
  let y = lookup_old m x in
  if y < 0 then None else Some y

let partner_of_new m y =
  let x = lookup_new m y in
  if x < 0 then None else Some x

let matched_old m x = lookup_old m x >= 0

let matched_new m y = lookup_new m y >= 0

let cardinal m = m.card

let pairs m =
  let acc = ref [] in
  Hashtbl.iter (fun x y -> acc := (x, y) :: !acc) m.fwd.ext;
  Array.iteri (fun i y -> if y >= 0 then acc := (m.fwd.base + i, y) :: !acc) m.fwd.arr;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let equal a b =
  cardinal a = cardinal b && List.for_all (fun (x, y) -> mem b x y) (pairs a)

let pp ppf m =
  Format.fprintf ppf "{";
  List.iteri
    (fun i (x, y) -> Format.fprintf ppf "%s(%d,%d)" (if i > 0 then ", " else "") x y)
    (pairs m);
  Format.fprintf ppf "}"
