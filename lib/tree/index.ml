module Vec = Treediff_util.Vec

module Interner = struct
  type t = { mutable names : string Vec.t; ids : (string, int) Hashtbl.t }

  let create () = { names = Vec.create (); ids = Hashtbl.create 16 }

  let intern t name =
    match Hashtbl.find_opt t.ids name with
    | Some id -> id
    | None ->
      let id = Vec.length t.names in
      Vec.push t.names name;
      Hashtbl.replace t.ids name id;
      id

  let find t name = Hashtbl.find_opt t.ids name

  let count t = Vec.length t.names

  let name t id = Vec.get t.names id
end

(* id -> preorder rank: a direct array while the ids are dense (as those
   one [Tree.gen] hands out to a pair are), an id table otherwise, so an
   index never costs more than a few words per node whatever its ids.  The
   direct array stays for speed: with the table alone, perfbench's
   revisions workload diffed about 5% fewer pairs per second on one CPU
   of a 2-CPU host (matching reads [rank_of_id] in its inner loops). *)
type ranks =
  | Dense of int array           (* node id -> preorder rank, -1 if absent *)
  | Sparse of Id_table.t         (* entry number = preorder rank *)

let dense_enough ~max_id ~size = max_id < 4 * (size + 16)

type t = {
  root : Node.t;
  interner : Interner.t;
  values : Interner.t;
  size : int;
  nodes : Node.t array;          (* preorder rank -> node *)
  ranks : ranks;
  max_id : int;
  last : int array;              (* rank -> last preorder rank inside the subtree *)
  post : int array;              (* rank -> postorder number *)
  parent : int array;            (* rank -> parent's rank, -1 for the root *)
  child_pos : int array;         (* rank -> index among the parent's children *)
  leaf_count : int array;        (* rank -> number of leaf descendants *)
  first_leaf : int array;        (* rank -> leaf-order index of the subtree's first leaf *)
  depth : int array;
  height : int array;
  label : int array;             (* rank -> interned label id *)
  value_id : int array;          (* rank -> interned value id (snapshot at build) *)
  leaves : int array;            (* leaf-order index -> rank *)
  leaf_chains : int array array;     (* label id -> leaf ranks, preorder *)
  internal_chains : int array array; (* label id -> internal ranks, preorder *)
  chains : int array array;          (* label id -> all ranks, preorder *)
}

let build ?interner ?values (root : Node.t) =
  let interner = match interner with Some i -> i | None -> Interner.create () in
  let values = match values with Some i -> i | None -> Interner.create () in
  let n = Node.size root in
  let nodes = Array.make n root in
  let last = Array.make n 0 in
  let post = Array.make n 0 in
  let parent = Array.make n (-1) in
  let child_pos = Array.make n 0 in
  let leaf_count = Array.make n 0 in
  let first_leaf = Array.make n 0 in
  let depth = Array.make n 0 in
  let height = Array.make n 0 in
  let label = Array.make n 0 in
  let value_id = Array.make n 0 in
  let leaves = Vec.create () in
  let pre = ref 0 and postc = ref 0 and max_id = ref 0 in
  (* Explicit-stack traversal (deep trees must not overflow the call stack):
     [Enter] assigns the preorder rank, [Exit] finalizes the subtree extent
     and folds leaf_count/height into the parent — exactly the work the old
     recursion did before and after its child loop. *)
  let module Ev = struct
    type t = Enter of int * int * int * Node.t | Exit of int
  end in
  let stack = ref [ Ev.Enter (-1, 0, 0, root) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | Ev.Exit r :: rest ->
      stack := rest;
      last.(r) <- !pre - 1;
      post.(r) <- !postc;
      incr postc;
      let p = parent.(r) in
      if p >= 0 then begin
        leaf_count.(p) <- leaf_count.(p) + leaf_count.(r);
        if height.(r) + 1 > height.(p) then height.(p) <- height.(r) + 1
      end
    | Ev.Enter (p, cp, d, x) :: rest ->
      stack := rest;
      if x.Node.id < 0 then invalid_arg "Index.build: negative node id";
      if x.Node.id > !max_id then max_id := x.Node.id;
      let r = !pre in
      incr pre;
      nodes.(r) <- x;
      parent.(r) <- p;
      child_pos.(r) <- cp;
      depth.(r) <- d;
      label.(r) <- Interner.intern interner x.Node.label;
      value_id.(r) <- Interner.intern values x.Node.value;
      first_leaf.(r) <- Vec.length leaves;
      if Node.is_leaf x then Vec.push leaves r;
      leaf_count.(r) <- (if Node.is_leaf x then 1 else 0);
      stack := Ev.Exit r :: !stack;
      (* children pushed above the Exit, leftmost on top *)
      let rev = ref [] in
      Vec.iteri (fun i c -> rev := Ev.Enter (r, i, d + 1, c) :: !rev) x.Node.children;
      List.iter (fun ev -> stack := ev :: !stack) !rev
  done;
  let ranks =
    if dense_enough ~max_id:!max_id ~size:n then begin
      let rank_of = Array.make (!max_id + 1) (-1) in
      Array.iteri (fun r (x : Node.t) -> rank_of.(x.Node.id) <- r) nodes;
      Dense rank_of
    end
    else begin
      let tbl = Id_table.create ~size:n () in
      Array.iter (fun (x : Node.t) -> Id_table.replace tbl x.Node.id x) nodes;
      Sparse tbl
    end
  in
  (* Per-label chains: exact-size arrays, filled in preorder. *)
  let nlabels = Interner.count interner in
  let leaf_n = Array.make nlabels 0
  and int_n = Array.make nlabels 0
  and all_n = Array.make nlabels 0 in
  for r = 0 to n - 1 do
    let l = label.(r) in
    all_n.(l) <- all_n.(l) + 1;
    if Node.is_leaf nodes.(r) then leaf_n.(l) <- leaf_n.(l) + 1
    else int_n.(l) <- int_n.(l) + 1
  done;
  let leaf_chains = Array.init nlabels (fun l -> Array.make leaf_n.(l) 0)
  and internal_chains = Array.init nlabels (fun l -> Array.make int_n.(l) 0)
  and chains = Array.init nlabels (fun l -> Array.make all_n.(l) 0) in
  Array.fill leaf_n 0 nlabels 0;
  Array.fill int_n 0 nlabels 0;
  Array.fill all_n 0 nlabels 0;
  for r = 0 to n - 1 do
    let l = label.(r) in
    chains.(l).(all_n.(l)) <- r;
    all_n.(l) <- all_n.(l) + 1;
    if Node.is_leaf nodes.(r) then begin
      leaf_chains.(l).(leaf_n.(l)) <- r;
      leaf_n.(l) <- leaf_n.(l) + 1
    end
    else begin
      internal_chains.(l).(int_n.(l)) <- r;
      int_n.(l) <- int_n.(l) + 1
    end
  done;
  {
    root;
    interner;
    values;
    size = n;
    nodes;
    ranks;
    max_id = !max_id;
    last;
    post;
    parent;
    child_pos;
    leaf_count;
    first_leaf;
    depth;
    height;
    label;
    value_id;
    leaves = Vec.to_array leaves;
    leaf_chains;
    internal_chains;
    chains;
  }

let pair ?interner ~t1 ~t2 () =
  let interner = match interner with Some i -> i | None -> Interner.create () in
  let values = Interner.create () in
  (build ~interner ~values t1, build ~interner ~values t2)

let size t = t.size

let root t = t.root

let interner t = t.interner

let node t r = t.nodes.(r)

let rank_of_id t id =
  match t.ranks with
  | Dense rank_of -> if id >= 0 && id < Array.length rank_of then rank_of.(id) else -1
  | Sparse tbl -> Id_table.entry tbl id

let mem_id t id = rank_of_id t id >= 0

let max_id t = t.max_id

let node_of_id t id =
  let r = rank_of_id t id in
  if r < 0 then None else Some t.nodes.(r)

let last t r = t.last.(r)

let postorder_rank t r = t.post.(r)

let parent_rank t r = t.parent.(r)

let child_pos t r = t.child_pos.(r)

let leaf_count t r = t.leaf_count.(r)

let first_leaf t r = t.first_leaf.(r)

let depth t r = t.depth.(r)

let height t r = t.height.(r)

let label_id t r = t.label.(r)

let value_id t r = t.value_id.(r)

let value_interner t = t.values

let label_name t r = Interner.name t.interner t.label.(r)

let contains t a d = d >= a && d <= t.last.(a)

let contains_id t ~ancestor ~descendant =
  let a = rank_of_id t ancestor and d = rank_of_id t descendant in
  a >= 0 && d >= 0 && contains t a d

let is_leaf_rank t r = t.leaf_count.(r) = 1 && t.last.(r) = r

let leaves t = t.leaves

let leaf_at t i = t.leaves.(i)

let find_label t name = Interner.find t.interner name

let chain_or_empty a lid = if lid >= 0 && lid < Array.length a then a.(lid) else [||]

let leaf_chain t lid = chain_or_empty t.leaf_chains lid

let internal_chain t lid = chain_or_empty t.internal_chains lid

let chain t lid = chain_or_empty t.chains lid
