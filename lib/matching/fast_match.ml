module Node = Treediff_tree.Node
module Index = Treediff_tree.Index

(* The paper's chain_T(l), walking the tree.  Kept for callers that hold a
   bare tree (tests); [run] itself reads the precomputed index chains. *)
let chain t l ~leaf =
  List.filter
    (fun (n : Node.t) -> String.equal n.label l && Node.is_leaf n = leaf)
    (Node.preorder t)

(* Ranks of the label's chain whose nodes are still unmatched, in
   preorder. *)
let unmatched_chain idx matched l ~leaf =
  let ranks =
    match Index.find_label idx l with
    | None -> [||]
    | Some lid -> (if leaf then Index.leaf_chain else Index.internal_chain) idx lid
  in
  let n = Array.length ranks in
  let kept = Array.make n false in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if not (matched (Index.node idx ranks.(i)).Node.id) then begin
      kept.(i) <- true;
      incr count
    end
  done;
  if !count = n then ranks
  else begin
    let out = Array.make !count 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if kept.(i) then begin
        out.(!j) <- ranks.(i);
        incr j
      end
    done;
    out
  end

(* Steps 2a-2e over the chains [s1], [s2], compared through their keys
   [k1], [k2] (one per chain position): the LCS pass, then the stragglers
   paired as in Algorithm Match, within the A(k) window around the node's
   own chain position when one is set.  Both chains start unmatched and
   only this pass matches their nodes, so it marks what it pairs by chain
   position instead of asking the matching. *)
let lcs_then_scan ctx m ?window ~equal k1 k2 (s1 : Node.t array) (s2 : Node.t array) =
  Criteria.fault ctx "fast_match.lcs";
  let lcs = Treediff_lcs.Myers.lcs ~equal k1 k2 in
  let paired1 = Array.make (Array.length s1) false
  and paired2 = Array.make (Array.length s2) false in
  let pair i j =
    Matching.add m s1.(i).id s2.(j).id;
    paired1.(i) <- true;
    paired2.(j) <- true
  in
  List.iter (fun (i, j) -> pair i j) lcs;
  Criteria.fault ctx "fast_match.scan";
  let budget = Criteria.budget ctx in
  for i = 0 to Array.length s1 - 1 do
    if not paired1.(i) then begin
      Treediff_util.Budget.visit budget;
      let lo, hi =
        match window with
        | None -> (0, Array.length s2 - 1)
        | Some k -> (max 0 (i - k), min (Array.length s2 - 1) (i + k))
      in
      let rec scan j =
        if j <= hi then
          if (not paired2.(j)) && equal k1.(i) k2.(j) then pair i j
          else scan (j + 1)
      in
      scan lo
    end
  done

let match_label ctx m ?window l ~leaf =
  let budget = Criteria.budget ctx in
  Criteria.fault ctx "fast_match.chain";
  Treediff_util.Budget.poll budget;
  (* Only unmatched nodes take part; seeded pairs (keys) must stay intact. *)
  let idx1 = Criteria.index1 ctx and idx2 = Criteria.index2 ctx in
  let r1 = unmatched_chain idx1 (Matching.matched_old m) l ~leaf in
  let r2 = unmatched_chain idx2 (Matching.matched_new m) l ~leaf in
  let s1 = Array.map (Index.node idx1) r1 and s2 = Array.map (Index.node idx2) r2 in
  let equal (x : Node.t) (y : Node.t) = Criteria.equal_nodes ctx m x y in
  if leaf then
    (* A leaf chain has one label, so Criterion 1 is a test on value ids. *)
    lcs_then_scan ctx m ?window ~equal:(Criteria.equal_leaf_ids ctx)
      (Array.map (Index.value_id idx1) r1)
      (Array.map (Index.value_id idx2) r2)
      s1 s2
  else lcs_then_scan ctx m ?window ~equal s1 s2 s1 s2

let run ?init ?window ctx =
  let m = match init with Some m -> Matching.copy m | None -> Matching.create () in
  Treediff_util.Budget.set_phase (Criteria.budget ctx) "fast_match";
  let idx1 = Criteria.index1 ctx and idx2 = Criteria.index2 ctx in
  List.iter
    (fun l -> match_label ctx m ?window l ~leaf:true)
    (Label_order.leaf_labels_of_indexes idx1 idx2);
  List.iter
    (fun l -> match_label ctx m ?window l ~leaf:false)
    (Label_order.internal_labels_of_indexes idx1 idx2);
  m
