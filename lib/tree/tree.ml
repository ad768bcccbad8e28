type gen = { mutable next : int }

let gen ?(start = 1) () = { next = start }

let fresh_id g =
  let id = g.next in
  g.next <- g.next + 1;
  id

let node g label ?(value = "") children =
  let n = Node.make ~id:(fresh_id g) ~label ~value () in
  List.iter (Node.append_child n) children;
  n

let leaf g label value = node g label ~value []

(* Explicit-stack preorder clone: copies must survive trees deeper than the
   call stack.  Nodes are created in preorder (so [relabel_ids] numbers them
   exactly as the old recursive version did) and appended to their parent
   copy as they are visited.  A frame per internal node walks its children
   by index. *)
type frame = { src : Node.t; dst : Node.t; mutable next : int }

let clone_with make_node (n : Node.t) =
  let root = make_node n in
  let rec loop = function
    | [] -> ()
    | fr :: rest as stack ->
      if fr.next = Node.child_count fr.src then loop rest
      else begin
        let src = Node.child fr.src fr.next in
        fr.next <- fr.next + 1;
        let dst = make_node src in
        Node.append_child fr.dst dst;
        if Node.is_leaf src then loop stack
        else loop ({ src; dst; next = 0 } :: stack)
      end
  in
  loop [ { src = n; dst = root; next = 0 } ];
  root

let copy (n : Node.t) =
  clone_with
    (fun (x : Node.t) -> Node.make ~id:x.id ~label:x.label ~value:x.value ())
    n

let max_id n =
  let m = ref 0 in
  Node.iter_preorder (fun x -> if x.Node.id > !m then m := x.Node.id) n;
  !m

let size = Node.size

let find_by_id n id =
  let found = ref None in
  (try
     Node.iter_preorder
       (fun x ->
         if x.Node.id = id then begin
           found := Some x;
           raise Exit
         end)
       n
   with Exit -> ());
  !found

let relabel_ids g (n : Node.t) =
  clone_with
    (fun (x : Node.t) -> Node.make ~id:(fresh_id g) ~label:x.label ~value:x.value ())
    n
