module Op = Treediff_edit.Op
module Script = Treediff_edit.Script
module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Id_table = Treediff_tree.Id_table
module Exec = Treediff_util.Exec
module Budget = Treediff_util.Budget
module Pool = Treediff_util.Pool

(* Per-operation facts, resolved against the application-time state by a
   symbolic replay: [old_parent] is the parent the subject had when the op
   ran, which the op text does not carry.  [touched] lists every node whose
   child list the op rewrites — the resource the position encoding makes
   order-sensitive. *)
type info = {
  op : Op.t;
  index : int;
  subject : int;
  dest : int option;        (* INS/MOV destination parent *)
  old_parent : int option;  (* application-time parent, for MOV/DEL *)
  touched : int list;       (* child lists written (dest and/or old parent) *)
}

type t = {
  infos : info array;
  succs : int list array;   (* forward dependence edges i -> j, i < j *)
  indeg : int array;
  nedges : int;
  comp : int array;         (* component representative (min op index) *)
  writers : (int, int list) Hashtbl.t;  (* id -> list-writer ops, ascending *)
  subj_structural : (int, int list) Hashtbl.t;
  movs : int list;          (* ascending *)
}

let length g = Array.length g.infos
let edges g = g.nedges
let info g i = g.infos.(i)
let ops g = Array.to_list (Array.map (fun x -> x.op) g.infos)

let is_structural i = Op.is_structural i.op
let is_kill i = match i.op with Op.Delete _ -> true | _ -> false
let is_move i = match i.op with Op.Move _ -> true | _ -> false
let is_delete = is_kill

(* ------------------------------------------------------- decision procedure *)

(* Classify one op pair.  Two ops commute when their effects touch disjoint
   state and neither can invalidate the other's preconditions:

   - same subject: always interfering (def-use, anti- and output
     dependences) except the UPD/MOV mix, which writes disjoint fields
     (value vs. position);
   - shared child list: positions are literal 1-based indices into one
     sibling vector, so any two writes to the same list are order-sensitive;
   - existence: an op whose destination is the other's subject must keep its
     order relative to any structural op on that subject (creation,
     deletion, and — conservatively — relocation, because moving a
     destination can flip an ancestry precondition);
   - deletion: DEL requires its subject to be a leaf, so it must follow
     every op that edits the subject's child list;
   - MOV/MOV: declared interfering wholesale.  Ancestry ("move into own
     subtree") is a transitive property two id sets cannot see — a pair of
     individually valid moves can become invalid when swapped if one
     relocates a subtree the other lands in — so moves keep their relative
     order.  This is the one deliberately conservative rule. *)
let pair_interferes a b =
  let mem x l = List.mem x l in
  let upd_mov =
    match (a.op, b.op) with
    | Op.Update _, Op.Move _ | Op.Move _, Op.Update _ -> true
    | _ -> false
  in
  (a.subject = b.subject && not upd_mov)
  || List.exists (fun x -> mem x b.touched) a.touched
  || (match b.dest with Some d -> d = a.subject && is_structural a | None -> false)
  || (match a.dest with Some d -> d = b.subject && is_structural b | None -> false)
  || (is_kill b && mem b.subject a.touched)
  || (is_kill a && mem a.subject b.touched)
  || (is_move a && is_move b)

let interferes g i j = i <> j && pair_interferes g.infos.(i) g.infos.(j)
let commutes g i j = i = j || not (interferes g i j)

(* ------------------------------------------------------------------ build *)

let resolve_info sim op =
  let subject, dest =
    match op with
    | Op.Insert { id; parent; _ } -> (id, Some parent)
    | Op.Delete { id } -> (id, None)
    | Op.Update { id; _ } -> (id, None)
    | Op.Move { id; parent; _ } -> (id, Some parent)
  in
  let old_parent =
    match op with
    | Op.Move _ | Op.Delete _ -> (
      match Sim.find sim subject with
      | Some n when n.Sim.parent >= 0 -> Some n.Sim.parent
      | Some _ | None -> None)
    | Op.Insert _ | Op.Update _ -> None
  in
  let touched =
    List.sort_uniq compare
      (List.filter_map Fun.id [ dest; old_parent ])
  in
  (* Advance the symbolic state; preconditions are the linter's business
     (callers analyze lint-clean scripts), so unresolved ids are skipped. *)
  (match op with
  | Op.Insert { id; label; value; parent; pos } ->
    if Sim.mem sim parent && pos >= 1 && pos <= Sim.arity sim parent + 1 then
      Sim.insert sim ~id ~label ~value ~parent ~pos
  | Op.Delete { id } -> if Sim.mem sim id then Sim.delete sim id
  | Op.Update { id; value } -> if Sim.mem sim id then Sim.update sim id value
  | Op.Move { id; parent; pos } ->
    if
      Sim.mem sim id && Sim.mem sim parent
      && not (Sim.in_subtree sim ~root:id parent)
      && pos >= 1
    then Sim.move sim ~id ~parent ~pos);
  { op; index = 0; subject; dest; old_parent; touched }

(* Union-find over op indices, for the commuting-slice decomposition. *)
let uf_find parent i =
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  let r = root i in
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let uf_union parent i j =
  let ri = uf_find parent i and rj = uf_find parent j in
  if ri <> rj then if ri < rj then parent.(rj) <- ri else parent.(ri) <- rj

let build ?(exec = Exec.create ()) ~tree script =
  Exec.fault exec "check.depgraph";
  let budget = Exec.budget exec in
  let sim = Sim.of_tree tree in
  let arr = Array.of_list script in
  let n = Array.length arr in
  let infos =
    Array.mapi
      (fun i op ->
        Budget.visit budget;
        let inf = resolve_info sim op in
        { inf with index = i })
      arr
  in
  let succs = Array.make n [] in
  let indeg = Array.make n 0 in
  let nedges = ref 0 in
  let parent = Array.init n Fun.id in
  (* Chain state per resource.  For node id [x]:
     - [c1]: the structural/list chain — INS/DEL/MOV of x and every op
       writing x's child list, totally ordered;
     - [c2]: the value chain — INS/UPD of x, closed by DEL of x.
     UPD-vs-MOV and UPD-vs-list-writer pairs commute, so the two chains
     only join at creation and deletion.  A global chain serializes MOVs
     (see [pair_interferes]).  Reachability in the resulting DAG covers
     every interfering pair; it may also order some commuting pairs (a
     conservative over-approximation that costs parallelism, never
     soundness). *)
  let c1 : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let c2 : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let writers : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let subj_structural : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let movs = ref [] in
  let last_mov = ref None in
  let note tbl id i =
    Hashtbl.replace tbl id (i :: (Option.value ~default:[] (Hashtbl.find_opt tbl id)))
  in
  for j = 0 to n - 1 do
    let inf = infos.(j) in
    let preds = ref [] in
    let from_chain tbl id =
      match Hashtbl.find_opt tbl id with
      | Some i when i <> j -> preds := i :: !preds
      | Some _ | None -> ()
    in
    (match inf.op with
    | Op.Insert _ ->
      from_chain c1 inf.subject;
      from_chain c2 inf.subject;
      Hashtbl.replace c1 inf.subject j;
      Hashtbl.replace c2 inf.subject j;
      note subj_structural inf.subject j
    | Op.Delete _ ->
      from_chain c1 inf.subject;
      from_chain c2 inf.subject;
      Hashtbl.replace c1 inf.subject j;
      Hashtbl.replace c2 inf.subject j;
      note subj_structural inf.subject j
    | Op.Update _ ->
      from_chain c2 inf.subject;
      Hashtbl.replace c2 inf.subject j
    | Op.Move _ ->
      from_chain c1 inf.subject;
      Hashtbl.replace c1 inf.subject j;
      note subj_structural inf.subject j;
      (match !last_mov with Some i -> preds := i :: !preds | None -> ());
      last_mov := Some j;
      movs := j :: !movs);
    List.iter
      (fun p ->
        from_chain c1 p;
        Hashtbl.replace c1 p j;
        note writers p j)
      inf.touched;
    List.iter
      (fun i ->
        Budget.tick budget;
        succs.(i) <- j :: succs.(i);
        indeg.(j) <- indeg.(j) + 1;
        incr nedges;
        uf_union parent i j)
      (List.sort_uniq compare !preds)
  done;
  let comp = Array.init n (fun i -> uf_find parent i) in
  let rev_values tbl =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
    List.iter (fun k -> Hashtbl.replace tbl k (List.rev (Hashtbl.find tbl k))) keys
  in
  rev_values writers;
  rev_values subj_structural;
  {
    infos;
    succs;
    indeg;
    nedges = !nedges;
    comp;
    writers;
    subj_structural;
    movs = List.rev !movs;
  }

(* ------------------------------------------------------------- components *)

let components g =
  let n = length g in
  let by_rep = Hashtbl.create 16 in
  for i = n - 1 downto 0 do
    let r = g.comp.(i) in
    Hashtbl.replace by_rep r (i :: (Option.value ~default:[] (Hashtbl.find_opt by_rep r)))
  done;
  let reps = Hashtbl.fold (fun r _ acc -> r :: acc) by_rep [] in
  List.map
    (fun r -> Array.of_list (Hashtbl.find by_rep r))
    (List.sort compare reps)
  |> Array.of_list

(* -------------------------------------------------------- canonical order *)

(* Deterministic Kahn topological sort.  Among ready ops the least
   (delete-phase, kind, subject, original index) key is emitted first, so
   the order is a pure function of the dependence graph: deletes sink to
   the end (§4's phase convention — reachable because in a valid script no
   non-DEL ever depends on a DEL), and independent ops sort by kind then
   subject id. *)
module Ready = Set.Make (struct
  type t = int * int * int * int

  let compare = Stdlib.compare
end)

let kind_rank = function
  | Op.Insert _ -> 0
  | Op.Update _ -> 1
  | Op.Move _ -> 2
  | Op.Delete _ -> 3

let key g i =
  let inf = g.infos.(i) in
  ((if is_delete inf then 1 else 0), kind_rank inf.op, inf.subject, i)

let canonical_order g =
  let n = length g in
  let indeg = Array.copy g.indeg in
  let ready = ref Ready.empty in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then ready := Ready.add (key g i) !ready
  done;
  let out = Array.make n 0 in
  let k = ref 0 in
  while not (Ready.is_empty !ready) do
    let ((_, _, _, i) as kmin) = Ready.min_elt !ready in
    ready := Ready.remove kmin !ready;
    out.(!k) <- i;
    incr k;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready := Ready.add (key g j) !ready)
      g.succs.(i)
  done;
  if !k <> n then
    Diag.fail
      (Diag.make Internal_invariant
         "dependence graph has a cycle (%d of %d ops ordered)" !k n);
  out

let reorder g order = List.map (fun i -> g.infos.(i).op) (Array.to_list order)

let canonicalize ?exec ~tree script =
  let g = build ?exec ~tree script in
  reorder g (canonical_order g)

let is_canonical ?exec ~tree script =
  let g = build ?exec ~tree script in
  let order = canonical_order g in
  let n = length g in
  let rec same i = i >= n || (order.(i) = i && same (i + 1)) in
  same 0

(* --------------------------------------------------------------- dead ops *)

(* Provably dead structural ops ("false dependences": later ops appear to
   depend on them, but no observation separates the script from the one
   with the op removed).

   Rule A — overwritten move.  MOV x (A -> B) followed by the next
   structural op on x (MOV or DEL) is dead when no op strictly between the
   two writes A's or B's child list and no intervening op is a MOV (an
   intervening move could observe x's position through ancestry).  After
   the later op, membership of A, B and x's location agree with the
   i-less script, so every subsequent op sees identical state.

   Rule B — cancelled insert.  INS x under P whose next structural op is
   DEL x is dead (both ops are) when nothing in between references x or
   writes P's child list: x is a leaf throughout, so no other state ever
   depended on it. *)
let in_open_range lst lo hi = List.exists (fun k -> k > lo && k < hi) lst

let dead_ops g =
  let n = length g in
  let found = ref [] in
  let writers_between p lo hi =
    match Hashtbl.find_opt g.writers p with
    | Some l -> in_open_range l lo hi
    | None -> false
  in
  let mov_between lo hi = in_open_range g.movs lo hi in
  for i = 0 to n - 1 do
    let inf = g.infos.(i) in
    let next_structural =
      match Hashtbl.find_opt g.subj_structural inf.subject with
      | Some l -> List.find_opt (fun k -> k > i) l
      | None -> None
    in
    match (inf.op, next_structural) with
    | Op.Move _, Some j ->
      let clean =
        List.for_all (fun p -> not (writers_between p i j)) inf.touched
        && not (mov_between i j)
      in
      if clean then
        found :=
          ( i,
            Diag.warn ~op:i ~nodes:[ inf.subject ] False_dependence
              "MOV of node %d is dead: op %d re-moves or deletes it before \
               any op observes the affected child lists"
              inf.subject j )
          :: !found
    | Op.Insert { parent; _ }, Some j when is_delete g.infos.(j) ->
      let used_between =
        (match Hashtbl.find_opt g.subj_structural inf.subject with
        | Some l -> in_open_range l i j
        | None -> false)
        || writers_between inf.subject i j
        || (match Hashtbl.find_opt g.writers parent with
           | Some l -> in_open_range l i j
           | None -> false)
        ||
        (* value chain: an UPD of x between INS and DEL *)
        Array.exists
          (fun k ->
            k.index > i && k.index < j && k.subject = inf.subject
            && not (Op.is_structural k.op))
          g.infos
      in
      if not used_between then
        found :=
          ( i,
            Diag.warn ~op:i ~nodes:[ inf.subject ] False_dependence
              "INS of node %d is dead: op %d deletes it and nothing in \
               between observes it"
              inf.subject j )
        :: !found
    | _ -> ()
  done;
  List.rev !found

(* [normalize] elides dead ops to a fixpoint, then canonicalizes.  A dead
   MOV is dropped alone; a dead INS is dropped together with its DEL.  One
   victim per round: each TD503 finding is individually sound, but two
   dead moves of the same node are not simultaneously elidable (dropping
   the first changes the second's application-time source parent), so the
   script is re-analyzed after every drop. *)
let elide_dead g =
  match dead_ops g with
  | [] -> None
  | (i, _) :: _ ->
    let drop = Hashtbl.create 4 in
    Hashtbl.replace drop i ();
    (match g.infos.(i).op with
    | Op.Insert _ -> (
      match Hashtbl.find_opt g.subj_structural g.infos.(i).subject with
      | Some l -> (
        match List.find_opt (fun k -> k > i) l with
        | Some j -> Hashtbl.replace drop j ()
        | None -> ())
      | None -> ())
    | _ -> ());
    Some
      (Array.to_list g.infos
      |> List.filter_map (fun inf ->
             if Hashtbl.mem drop inf.index then None else Some inf.op))

let normalize ?exec ~tree script =
  let budget =
    match exec with Some e -> Exec.budget e | None -> Budget.unlimited ()
  in
  let rec fix script =
    Budget.tick budget;
    let g = build ?exec ~tree script in
    match elide_dead g with None -> reorder g (canonical_order g) | Some s -> fix s
  in
  fix script

(* ------------------------------------------------------------ equivalence *)

let replay_sim sim script =
  let bad i fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "op %d: %s" i m)) fmt
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest -> (
      match op with
      | Op.Insert { id; label; value; parent; pos } ->
        if Sim.mem sim id then bad i "INS of existing id %d" id
        else if not (Sim.mem sim parent) then bad i "INS into unknown node %d" parent
        else if pos < 1 || pos > Sim.arity sim parent + 1 then
          bad i "INS position %d out of range at node %d" pos parent
        else begin
          Sim.insert sim ~id ~label ~value ~parent ~pos;
          go (i + 1) rest
        end
      | Op.Delete { id } ->
        if not (Sim.mem sim id) then bad i "DEL of unknown node %d" id
        else if Sim.arity sim id > 0 then bad i "DEL of non-leaf %d" id
        else begin
          Sim.delete sim id;
          go (i + 1) rest
        end
      | Op.Update { id; value } ->
        if not (Sim.mem sim id) then bad i "UPD of unknown node %d" id
        else begin
          Sim.update sim id value;
          go (i + 1) rest
        end
      | Op.Move { id; parent; pos } ->
        if not (Sim.mem sim id) then bad i "MOV of unknown node %d" id
        else if not (Sim.mem sim parent) then bad i "MOV into unknown node %d" parent
        else if Sim.in_subtree sim ~root:id parent then
          bad i "MOV of node %d into its own subtree" id
        else if
          pos < 1
          || pos
             > Sim.arity sim parent + 1
               - (match Sim.find sim id with
                 | Some n when n.Sim.parent = parent -> 1
                 | Some _ | None -> 0)
        then bad i "MOV position %d out of range at node %d" pos parent
        else begin
          Sim.move sim ~id ~parent ~pos;
          go (i + 1) rest
        end)
  in
  go 0 script

let equivalent ?exec ~tree a b =
  (match exec with
  | Some e ->
    Exec.fault e "check.depgraph";
    Budget.visit_n (Exec.budget e) (List.length a + List.length b)
  | None -> ());
  let sa = Sim.of_tree tree and sb = Sim.of_tree tree in
  match (replay_sim sa a, replay_sim sb b) with
  | Error m, _ -> Error (Printf.sprintf "left script invalid (%s)" m)
  | _, Error m -> Error (Printf.sprintf "right script invalid (%s)" m)
  | Ok (), Ok () -> (
    match Sim.first_difference_sims sa sb with
    | None -> Ok ()
    | Some msg -> Error msg)

let verify_rewrite ?exec ~tree ~original ~rewritten () =
  let fusion =
    match equivalent ?exec ~tree original rewritten with
    | Ok () -> []
    | Error msg ->
      [
        Diag.make Illegal_fusion
          "rewritten script is not equivalent to the original: %s" msg;
      ]
  in
  let canon =
    if fusion <> [] then []
    else if is_canonical ?exec ~tree rewritten then []
    else
      [
        Diag.warn Non_canonical
          "script is not in canonical dependence order (%d ops)"
          (List.length rewritten);
      ]
  in
  fusion @ canon

(* ------------------------------------------------------------------ audit *)

let audit ?exec ?(dead = false) ~tree script =
  let g = build ?exec ~tree script in
  let canon = reorder g (canonical_order g) in
  let fusion =
    match equivalent ?exec ~tree script canon with
    | Ok () -> []
    | Error msg ->
      [
        Diag.make Illegal_fusion
          "canonical reordering changed the script's result: %s" msg;
      ]
  in
  let dead_diags = if dead then List.map snd (dead_ops g) else [] in
  fusion @ dead_diags

(* --------------------------------------------------------- parallel apply *)

let apply_slice infos index slice =
  let overlay = Id_table.create () in
  let find id =
    match Id_table.find overlay id with
    | n -> n
    | exception Not_found -> (
      match Id_table.find index id with
      | n -> n
      | exception Not_found ->
        raise (Script.Apply_error (Printf.sprintf "parallel apply: unknown node %d" id)))
  in
  Array.iter
    (fun i ->
      match infos.(i).op with
      | Op.Insert { id; label; value; parent; pos } ->
        let p = find parent in
        let n = Node.make ~id ~label ~value () in
        Node.insert_child p (pos - 1) n;
        Id_table.replace overlay id n
      | Op.Delete { id } -> Node.detach (find id)
      | Op.Update { id; value } -> (find id).Node.value <- value
      | Op.Move { id; parent; pos } ->
        let n = find id and p = find parent in
        Node.detach n;
        Node.insert_child p (pos - 1) n)
    slice

let apply_parallel ?exec ?pool ?jobs tree script =
  (match List.filter Diag.is_error (Script_lint.run ~tree script).Script_lint.diags with
  | [] -> ()
  | d :: _ ->
    raise (Script.Apply_error ("parallel apply: invalid script: " ^ Diag.to_string d)));
  let g = build ?exec ~tree script in
  let slices = components g in
  let root = Tree.copy tree in
  let index = Id_table.of_tree root in
  let n = Array.length slices in
  let jobs =
    match (jobs, pool) with
    | Some j, _ -> j
    | None, Some p -> Pool.jobs p
    | None, None -> 1
  in
  (* Slices touch pairwise-disjoint mutable state (that is what a
     cross-component pair commuting means), so any schedule — including the
     slice-by-slice sequential one — produces the identical tree. *)
  if n <= 1 || jobs <= 1 then Array.iter (apply_slice g.infos index) slices
  else begin
    match pool with
    | Some p -> Pool.run p n (fun i -> apply_slice g.infos index slices.(i))
    | None ->
      Pool.with_pool ~jobs (fun p ->
          Pool.run p n (fun i -> apply_slice g.infos index slices.(i)))
  end;
  root
