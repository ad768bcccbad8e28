(* Open addressing with linear probing.  [slots] holds, per hash position,
   an entry number plus one (0 marks an empty position); the entries are
   dense, numbered in the order their ids were first added, and carry the id
   and the node.  Removal shifts the rest of the probe run back instead of
   leaving a tombstone, so a probe stops at the first empty position.

   The nodes sit in chunks small enough for the minor heap.  One array of
   them all would live in the major heap, and every young node stored in it
   would be promoted at the next minor collection: the working copies the
   tables index are mostly garbage by then.  With one flat array,
   perfbench's revisions workload diffed about 5% fewer pairs per second
   (one CPU of a 2-CPU host). *)

type t = {
  mutable slots : int array;            (* hash position -> entry + 1, 0 = empty *)
  mutable shift : int;                  (* 63 - log2 (length slots) *)
  mutable ids : int array;              (* entry -> id *)
  mutable nodes : Node.t array array;   (* entry -> node, [chunk] per array *)
  mutable entries : int;                (* entry numbers handed out *)
  mutable count : int;                  (* ids present *)
}

(* 256 words, the largest block the minor heap takes. *)
let chunk_bits = 8

let chunk = 1 lsl chunk_bits

(* Fills unused chunk slots: an old block, because [Array.make] with a
   young initial value promotes it at once. *)
let filler = Node.make ~id:min_int ~label:"" ()

(* An odd multiplier near 2^62 / phi: consecutive ids land far apart, and
   the top bits of the product are the hash position. *)
let golden = 0x278DDE6E5FD29F05

let rec log2_at_least n b = if 1 lsl b >= n then b else log2_at_least n (b + 1)

let create ?(size = 16) () =
  let size = max 4 size in
  (* at most half full *)
  let bits = log2_at_least (2 * size) 3 in
  {
    slots = Array.make (1 lsl bits) 0;
    shift = 63 - bits;
    ids = Array.make size 0;
    nodes = [||];
    entries = 0;
    count = 0;
  }

let home t id = (id * golden) lsr t.shift

let rec probe slots ids mask id i =
  let s = slots.(i) in
  if s = 0 then -1
  else if ids.(s - 1) = id then i
  else probe slots ids mask id ((i + 1) land mask)

let position t id = probe t.slots t.ids (Array.length t.slots - 1) id (home t id)

let node_at t e = t.nodes.(e lsr chunk_bits).(e land (chunk - 1))

let entry t id =
  let p = position t id in
  if p < 0 then -1 else t.slots.(p) - 1

let mem t id = position t id >= 0

let find t id =
  let p = position t id in
  if p < 0 then raise Not_found else node_at t (t.slots.(p) - 1)

let find_opt t id =
  let p = position t id in
  if p < 0 then None else Some (node_at t (t.slots.(p) - 1))

let length t = t.count

let entries t = t.entries

let rec first_empty slots mask i =
  if slots.(i) = 0 then i else first_empty slots mask ((i + 1) land mask)

let place t s =
  let slots = t.slots in
  slots.(first_empty slots (Array.length slots - 1) (home t t.ids.(s - 1))) <- s

let grow_slots t =
  let old = t.slots in
  let bits = 64 - t.shift in
  t.slots <- Array.make (1 lsl bits) 0;
  t.shift <- 63 - bits;
  Array.iter (fun s -> if s <> 0 then place t s) old

(* Room for entry [e]: its id slot and its node chunk. *)
let reserve t e =
  if e = Array.length t.ids then begin
    let ids = Array.make (2 * e) 0 in
    Array.blit t.ids 0 ids 0 e;
    t.ids <- ids
  end;
  if e lsr chunk_bits = Array.length t.nodes then
    t.nodes <- Array.append t.nodes [| Array.make chunk filler |]

let set_node t e n = t.nodes.(e lsr chunk_bits).(e land (chunk - 1)) <- n

let replace t id n =
  let p = position t id in
  if p >= 0 then set_node t (t.slots.(p) - 1) n
  else begin
    if 2 * (t.count + 1) > Array.length t.slots then grow_slots t;
    let e = t.entries in
    reserve t e;
    t.ids.(e) <- id;
    set_node t e n;
    t.entries <- e + 1;
    t.count <- t.count + 1;
    place t (e + 1)
  end

(* Backward-shift deletion: walk the probe run after the emptied position
   and move back every entry whose home does not lie strictly between the
   hole and its current position. *)
let remove t id =
  let p = position t id in
  if p >= 0 then begin
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let hole = ref p and j = ref ((p + 1) land mask) in
    while slots.(!j) <> 0 do
      let s = slots.(!j) in
      let h = home t t.ids.(s - 1) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        slots.(!hole) <- s;
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    slots.(!hole) <- 0;
    t.count <- t.count - 1
  end

(* Counting the nodes first costs one walk; growing into them would
   allocate and rehash every smaller table on the way. *)
let of_tree ?size root =
  let size = match size with Some s -> s | None -> Node.size root in
  let t = create ~size () in
  Node.iter_preorder (fun (x : Node.t) -> replace t x.id x) root;
  t
