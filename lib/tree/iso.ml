(* Explicit-stack walks: isomorphism checks run on the resilience tests'
   100k-deep trees, where recursion would overflow. *)

let node_agrees (a : Node.t) (b : Node.t) =
  String.equal a.label b.label
  && String.equal a.value b.value
  && Node.child_count a = Node.child_count b

let equal (a : Node.t) (b : Node.t) =
  (* two stacks in step, children pushed by index, leftmost on top *)
  let rec loop xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys ->
      node_agrees x y
      &&
      let xs = ref xs and ys = ref ys in
      for i = Node.child_count x - 1 downto 0 do
        xs := Node.child x i :: !xs;
        ys := Node.child y i :: !ys
      done;
      loop !xs !ys
    | _ -> true
  in
  loop [ a ] [ b ]

(* Structural hash: fold an open/close-bracketed preorder token stream, so
   two trees hash equally iff they emit the same stream — exactly the
   [equal] relation (up to 64-bit collisions).  Labels and values are
   length-prefixed into the fold to keep the stream self-delimiting. *)
let hash (t : Node.t) =
  let module B = Treediff_util.Binio in
  let h = ref B.fnv_init in
  let enter (n : Node.t) =
    h := B.fnv_byte !h 0x01;
    h := B.fnv_int !h (String.length n.label);
    h := B.fnv_string !h n.label;
    h := B.fnv_int !h (String.length n.value);
    h := B.fnv_string !h n.value
  in
  let stack = ref [ [ t ] ] in
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | [] :: rest ->
      h := B.fnv_byte !h 0x02;
      stack := rest
    | (n :: siblings) :: rest ->
      enter n;
      stack := Node.children n :: siblings :: rest
  done;
  !h

let first_difference a b =
  let diff = ref None in
  let stack = ref [ ("", a, b) ] in
  while !diff = None && !stack <> [] do
    match !stack with
    | [] -> ()
    | (path, (x : Node.t), (y : Node.t)) :: rest ->
      stack := rest;
      if not (String.equal x.label y.label) then
        diff := Some (Printf.sprintf "%s: label %S vs %S" path x.label y.label)
      else if not (String.equal x.value y.value) then
        diff := Some (Printf.sprintf "%s: value %S vs %S" path x.value y.value)
      else if Node.child_count x <> Node.child_count y then
        diff :=
          Some
            (Printf.sprintf "%s: child count %d vs %d" path (Node.child_count x)
               (Node.child_count y))
      else begin
        (* push child pairs so the leftmost is examined first *)
        let frames = ref [] in
        let i = ref 0 in
        List.iter2
          (fun cx cy ->
            frames := (Printf.sprintf "%s/%d" path !i, cx, cy) :: !frames;
            incr i)
          (Node.children x) (Node.children y);
        List.iter (fun f -> stack := f :: !stack) !frames
      end
  done;
  !diff
