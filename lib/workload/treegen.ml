module P = Treediff_util.Prng
module Tree = Treediff_tree.Tree
module Node = Treediff_tree.Node

let random_labeled g gen ~max_depth ~max_width ~labels ~vocab =
  let nlabels = Array.length labels in
  let rec build depth =
    let label = labels.(min depth (nlabels - 1)) in
    let leaf = depth >= max_depth || (depth > 0 && P.chance g 0.2) in
    if leaf then Tree.leaf gen label (Printf.sprintf "v%d" (P.int g vocab))
    else
      let width = 1 + P.int g max_width in
      Tree.node gen label (List.init width (fun _ -> build (depth + 1)))
  in
  build 0

let random_document g gen ~paragraphs ~vocab =
  let para _ =
    let ns = 1 + P.int g 5 in
    Tree.node gen "P"
      (List.init ns (fun _ -> Tree.leaf gen "S" (Printf.sprintf "s%d" (P.int g vocab))))
  in
  Tree.node gen "D" (List.init (max 1 paragraphs) para)

let perturb g gen ?ops t =
  let t = Tree.relabel_ids gen t in
  let ops = match ops with Some n -> n | None -> 1 + P.int g 8 in
  let nodes () = Node.preorder t in
  let internals () = List.filter (fun n -> not (Node.is_leaf n)) (nodes ()) in
  for _ = 1 to ops do
    match P.int g 5 with
    | 0 -> (
      (* shuffle the children of a random internal node *)
      match internals () with
      | [] -> ()
      | l ->
        let n = P.pick g (Array.of_list l) in
        let cs = Array.of_list (Node.children n) in
        Array.iter Node.detach cs;
        P.shuffle g cs;
        Array.iter (Node.append_child n) cs)
    | 1 -> (
      (* move a random non-root subtree under another internal node *)
      let candidates = List.filter (fun (n : Node.t) -> n.parent <> None) (nodes ()) in
      match candidates with
      | [] -> ()
      | l -> (
        let x = P.pick g (Array.of_list l) in
        let dests =
          List.filter
            (fun (d : Node.t) -> d.id <> x.Node.id && not (Node.is_ancestor x d))
            (internals ())
        in
        match dests with
        | [] -> ()
        | ds ->
          let d = P.pick g (Array.of_list ds) in
          Node.detach x;
          Node.insert_child d (P.int g (Node.child_count d + 1)) x))
    | 2 -> (
      match Node.leaves t with
      | [] -> ()
      | ls -> (P.pick g (Array.of_list ls)).Node.value <- Printf.sprintf "upd%d" (P.int g 1000))
    | 3 -> (
      match internals () with
      | [] -> ()
      | is ->
        let p = P.pick g (Array.of_list is) in
        Node.insert_child p
          (P.int g (Node.child_count p + 1))
          (Tree.leaf gen "S" (Printf.sprintf "new%d" (P.int g 1000))))
    | _ -> (
      match List.filter (fun (l : Node.t) -> l.parent <> None) (Node.leaves t) with
      | [] -> ()
      | ls -> Node.detach (P.pick g (Array.of_list ls)))
  done;
  t

(* -------------------------------------------- adversarial long chain *)

(* Twelve words per sentence: four shared across the whole chain (similar
   enough that every cross-pair compare runs the full word-LCS DP, and no
   length heuristic can bail early) and eight carrying the sentence index
   (so cross-pairs score (24-8)/12 = 4/3 > f and stay unmatchable, while a
   one-word rewording scores 2/12 and stays well inside f = 0.5).  All
   values are distinct, so interned-value-id shortcuts never fire. *)
let sentence ~reworded i =
  let b = Buffer.create 96 in
  Buffer.add_string b "alpha beta gamma delta";
  for k = 0 to 7 do
    if k = 7 && reworded then Buffer.add_string b (Printf.sprintf " r%dx" i)
    else Buffer.add_string b (Printf.sprintf " q%dw%d" i k)
  done;
  Buffer.contents b

let long_chain_pair ?(seed = 11) ?(reword = 0.3) ~n gen =
  let g = P.create seed in
  let t1 =
    Tree.node gen "D"
      (List.init n (fun i -> Tree.leaf gen "S" (sentence ~reworded:false i)))
  in
  let order = Array.init n Fun.id in
  P.shuffle g order;
  let t2 =
    Tree.node gen "D"
      (List.init n (fun k ->
           let i = order.(k) in
           Tree.leaf gen "S" (sentence ~reworded:(P.chance g reword) i)))
  in
  (t1, t2)
