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
   own chain position when one is set. *)
let lcs_then_scan ctx m ?window ~equal k1 k2 (s1 : Node.t array) (s2 : Node.t array) =
  Criteria.fault ctx "fast_match.lcs";
  let lcs = Treediff_lcs.Myers.lcs ~equal k1 k2 in
  List.iter (fun (i, j) -> Matching.add m s1.(i).id s2.(j).id) lcs;
  Criteria.fault ctx "fast_match.scan";
  let budget = Criteria.budget ctx in
  Array.iteri
    (fun i (x : Node.t) ->
      if not (Matching.matched_old m x.id) then begin
        Treediff_util.Budget.visit budget;
        let lo, hi =
          match window with
          | None -> (0, Array.length s2 - 1)
          | Some k -> (max 0 (i - k), min (Array.length s2 - 1) (i + k))
        in
        let rec scan j =
          if j <= hi then
            let y = s2.(j) in
            if (not (Matching.matched_new m y.id)) && equal k1.(i) k2.(j) then
              Matching.add m x.id y.id
            else scan (j + 1)
        in
        scan lo
      end)
    s1

(* Similarity-indexed path for over-threshold chains.  Both FastMatch passes
   — Myers LCS and the straggler scan — go near-quadratic when a long chain's
   nodes are mutually similar, so past the threshold the chain skips them
   entirely: an exact value-id queue pass first (equal values pair in chain
   order at O(1) amortized per node — the LCS of the common case), then one
   LSH top-k probe per leftover, each candidate still verified with the real
   criterion so the matching stays criterion-sound. *)
let match_label_sim ctx m ~top_k ~equal s1 s2 ~leaf =
  let budget = Criteria.budget ctx in
  Criteria.fault ctx "fast_match.sim";
  let exec = Criteria.exec ctx in
  let idx1 = Criteria.index1 ctx and idx2 = Criteria.index2 ctx in
  let sigs1 = Sim_index.signatures ~exec idx1
  and sigs2 = Sim_index.signatures ~exec idx2 in
  (* Pass 1 (leaves): Myers LCS over interned value ids — integer equality,
     no criterion calls inside the LCS itself.  Value ids are shared across
     the pair's indexes, so equal ids ⇔ byte-equal values; on versioned data
     the sequences are near-identical and Myers is near-linear.  Running the
     same LCS FastMatch would run (restricted to byte-equal values) keeps
     pair choices for repeated values aligned with the exact matcher's,
     which is what the recall property measures.  Each LCS pair is still
     confirmed with the real criterion — memoized per value id, so a
     pathological compare with d(v,v) > f rejects byte-equal pairs exactly
     as the exact scan would, at one compare per distinct value. *)
  if leaf then begin
    let vid1 = Array.map (fun (x : Node.t) -> Index.value_id idx1 (Index.rank_of_id idx1 x.id)) s1
    and vid2 = Array.map (fun (y : Node.t) -> Index.value_id idx2 (Index.rank_of_id idx2 y.id)) s2 in
    Treediff_util.Budget.visit_n budget (Array.length s1 + Array.length s2);
    let lcs =
      Treediff_lcs.Myers.lcs ~equal:(fun a b -> a = b : int -> int -> bool) vid1 vid2
    in
    List.iter
      (fun (i, j) -> if equal s1.(i) s2.(j) then Matching.add m s1.(i).Node.id s2.(j).Node.id)
      lcs
  end;
  (* Pass 2: banded LSH over the still-unmatched tail of s2; every retrieved
     candidate is criterion-checked before pairing.  A node whose true match
     shares no signature band goes unmatched (delete+insert — correct,
     dearer), the same contract as the A(k) window. *)
  let ranks2 =
    Array.to_list s2
    |> List.filter (fun (y : Node.t) -> not (Matching.matched_new m y.id))
    |> List.map (fun (y : Node.t) -> Index.rank_of_id idx2 y.id)
    |> Array.of_list
  in
  if Array.length ranks2 > 0 then begin
    let t = Sim_index.build ~sigs:sigs2 ranks2 in
    Array.iter
      (fun (x : Node.t) ->
        if not (Matching.matched_old m x.id) then begin
          Treediff_util.Budget.visit budget;
          let r1 = Index.rank_of_id idx1 x.id in
          let cands = Sim_index.query ~budget ~k:top_k t sigs1.(r1) in
          let rec pair = function
            | [] -> ()
            | pos :: rest ->
              let y = Index.node idx2 (Sim_index.rank t pos) in
              if (not (Matching.matched_new m y.Node.id)) && equal x y then
                Matching.add m x.id y.Node.id
              else pair rest
          in
          pair cands
        end)
      s1
  end

let match_label ctx m ?window ?sim l ~leaf =
  let budget = Criteria.budget ctx in
  Criteria.fault ctx "fast_match.chain";
  Treediff_util.Budget.poll budget;
  (* Only unmatched nodes take part; seeded pairs (keys) must stay intact. *)
  let idx1 = Criteria.index1 ctx and idx2 = Criteria.index2 ctx in
  let r1 = unmatched_chain idx1 (Matching.matched_old m) l ~leaf in
  let r2 = unmatched_chain idx2 (Matching.matched_new m) l ~leaf in
  let s1 = Array.map (Index.node idx1) r1 and s2 = Array.map (Index.node idx2) r2 in
  let equal (x : Node.t) (y : Node.t) = Criteria.equal_nodes ctx m x y in
  let use_sim =
    match sim with
    | Some (threshold, _) ->
      min (Array.length s1) (Array.length s2) > threshold
    | None -> false
  in
  if use_sim then begin
    let top_k = match sim with Some (_, k) -> max 1 k | None -> 1 in
    match_label_sim ctx m ~top_k ~equal s1 s2 ~leaf
  end
  else if leaf then
    (* A leaf chain has one label, so Criterion 1 is a test on value ids. *)
    lcs_then_scan ctx m ?window ~equal:(Criteria.equal_leaf_ids ctx)
      (Array.map (Index.value_id idx1) r1)
      (Array.map (Index.value_id idx2) r2)
      s1 s2
  else lcs_then_scan ctx m ?window ~equal s1 s2 s1 s2

let run ?init ?window ?sim ctx =
  let m = match init with Some m -> Matching.copy m | None -> Matching.create () in
  Treediff_util.Budget.set_phase (Criteria.budget ctx) "fast_match";
  let idx1 = Criteria.index1 ctx and idx2 = Criteria.index2 ctx in
  List.iter
    (fun l -> match_label ctx m ?window ?sim l ~leaf:true)
    (Label_order.leaf_labels_of_indexes idx1 idx2);
  List.iter
    (fun l -> match_label ctx m ?window ?sim l ~leaf:false)
    (Label_order.internal_labels_of_indexes idx1 idx2);
  m
