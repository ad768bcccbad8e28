module Vec = Treediff_util.Vec

type t = {
  id : int;
  label : string;
  mutable value : string;
  mutable parent : t option;
  children : t Vec.t;
}

let make ~id ~label ?(value = "") () =
  { id; label; value; parent = None; children = Vec.create () }

let is_leaf n = Vec.is_empty n.children

let is_root n = match n.parent with None -> true | Some _ -> false

let children n = Vec.to_list n.children

let child_count n = Vec.length n.children

let child n i = Vec.get n.children i

let child_index n =
  match n.parent with
  | None -> invalid_arg "Node.child_index: node has no parent"
  | Some p -> (
    match Vec.index (fun c -> c.id = n.id) p.children with
    | Some i -> i
    | None -> invalid_arg "Node.child_index: node not found among parent's children")

let insert_child parent i c =
  (match c.parent with
  | Some _ -> invalid_arg "Node.insert_child: child is already attached"
  | None -> ());
  Vec.insert parent.children i c;
  c.parent <- Some parent

let append_child parent c = insert_child parent (child_count parent) c

let detach n =
  match n.parent with
  | None -> ()
  | Some p ->
    let i = child_index n in
    ignore (Vec.remove p.children i);
    n.parent <- None

let rec root n = match n.parent with None -> n | Some p -> root p

let rec is_ancestor a n =
  match n.parent with
  | None -> false
  | Some p -> p.id = a.id || is_ancestor a p

let depth n =
  let d = ref 0 and cur = ref n in
  let continue = ref true in
  while !continue do
    match !cur.parent with
    | Some p ->
      incr d;
      cur := p
    | None -> continue := false
  done;
  !d

let iter_children f n = Vec.iter f n.children

let iteri_children f n = Vec.iteri f n.children

let fold_children f acc n = Vec.fold f acc n.children

let find_child p n =
  match Vec.index p n.children with
  | Some i -> Some (Vec.get n.children i)
  | None -> None

(* All whole-tree walks use explicit stacks: trees can be deeper than the
   OCaml call stack (100k-node paths appear in the resilience tests). *)
let iter_preorder f n =
  let rec loop = function
    | [] -> ()
    | x :: rest ->
      f x;
      (* push children by index so the leftmost ends up on top *)
      let stack = ref rest in
      for i = Vec.length x.children - 1 downto 0 do
        stack := Vec.get x.children i :: !stack
      done;
      loop !stack
  in
  loop [ n ]

let iter_postorder f n =
  (* frames: a node paired with its not-yet-visited children *)
  let stack = ref [ (n, children n) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (x, []) :: rest ->
      stack := rest;
      f x
    | (x, c :: cs) :: rest -> stack := (c, children c) :: (x, cs) :: rest
  done

let iter_bfs f n =
  let q = Queue.create () in
  Queue.add n q;
  while not (Queue.is_empty q) do
    let x = Queue.take q in
    f x;
    Vec.iter (fun c -> Queue.add c q) x.children
  done

let size n =
  let c = ref 0 in
  iter_preorder (fun _ -> incr c) n;
  !c

let leaf_count n =
  let c = ref 0 in
  iter_preorder (fun x -> if is_leaf x then incr c) n;
  !c

let height n =
  let h = ref 0 in
  let stack = ref [ (n, 0) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (x, d) :: rest ->
      stack := rest;
      if d > !h then h := d;
      Vec.iter (fun c -> stack := (c, d + 1) :: !stack) x.children
  done;
  !h

let collect iter n =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) n;
  List.rev !acc

let preorder n = collect iter_preorder n

(* Children pushed left to right, so the walk visits each node's subtrees
   right to left, and consing each visited node onto the result reverses
   that into postorder. *)
let postorder n =
  let rec loop acc = function
    | [] -> acc
    | x :: rest ->
      let stack = ref rest in
      for i = 0 to Vec.length x.children - 1 do
        stack := Vec.get x.children i :: !stack
      done;
      loop (x :: acc) !stack
  in
  loop [] [ n ]

let bfs n = collect iter_bfs n

let leaves n = List.filter is_leaf (preorder n)

let rec pp ppf n =
  if is_leaf n then Format.fprintf ppf "(%s:%d %S)" n.label n.id n.value
  else begin
    Format.fprintf ppf "(%s:%d" n.label n.id;
    if n.value <> "" then Format.fprintf ppf " %S" n.value;
    Vec.iter (fun c -> Format.fprintf ppf "@ %a" pp c) n.children;
    Format.fprintf ppf ")"
  end
