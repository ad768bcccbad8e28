module Node = Treediff_tree.Node
module Index = Treediff_tree.Index
module Stats = Treediff_util.Stats
module Budget = Treediff_util.Budget
module Exec = Treediff_util.Exec
module Word_compare = Treediff_textdiff.Word_compare

type t = {
  leaf_f : float;
  internal_t : float;
  compare : string -> string -> float;
}

let all_or_nothing a b = if String.equal a b then 0.0 else 2.0

let make ?(leaf_f = 0.5) ?(internal_t = 0.6) ?(compare = all_or_nothing) () =
  if leaf_f < 0.0 || leaf_f > 1.0 then
    invalid_arg "Criteria.make: leaf_f must be in [0,1]";
  if internal_t < 0.5 || internal_t > 1.0 then
    invalid_arg "Criteria.make: internal_t must be in [1/2,1]";
  { leaf_f; internal_t; compare }

let default = make ()

(* Per-T1-rank cache for [common]: the sorted T2 preorder ranks of the
   partners of the subtree's leaves, stamped with the Matching.version it was
   computed at.  While a matcher scans candidates for one x the matching does
   not change, so every comparison after the first is two binary searches
   instead of a subtree walk — O(1) amortized per comparison. *)
type common_entry = { mutable stamp : int; mutable partners : int array }

(* Leaf-value distance by interned value id.  The value interner is shared
   by the pair's two indexes, so one id names one string on either side.
   When the criteria's compare is [Word_compare.distance] (recognised by
   physical equality) each distinct value is tokenized once per ctx, on
   first use, together with its word-set signature, and the threshold test
   runs on the word-id arrays through [Word_compare.within]: the arithmetic
   of [Word_compare.distance_with], so the same answer, without its
   per-call string lookups and with the signature bound rejecting most
   unrelated pairs before the LCS kernel.  Any other compare is called on
   the strings. *)
type leaf_distance =
  | Strings
  | Words of {
      vocab : Word_compare.Vocab.t;
      tokens : int array array;  (* value id -> word ids *)
      sigs : int array;  (* value id -> signature of its word ids *)
    }

let untokenized : int array = [| -1 |] (* sentinel, compared with [==] *)

type ctx = {
  crit : t;
  ex : Exec.t;
  st : Stats.t;
  bgt : Budget.t;
  idx1 : Index.t;
  idx2 : Index.t;
  common_cache : common_entry array; (* indexed by T1 preorder rank *)
  values : Index.Interner.t; (* the pair's shared value interner *)
  leaf_distance : leaf_distance;
}

let indexes_key : (Index.t * Index.t) Exec.Key.t =
  Exec.Key.create "criteria.indexes"

let pair_indexes ex ~t1 ~t2 =
  match Exec.find ex indexes_key with
  | Some ((idx1, idx2) as p) when Index.root idx1 == t1 && Index.root idx2 == t2
    ->
    Some p
  | Some _ | None -> None

let ctx ?exec crit ~t1 ~t2 =
  let ex = match exec with Some e -> e | None -> Exec.create () in
  let stats = Exec.stats ex and bgt = Exec.budget ex in
  let idx1, idx2 = Index.pair ~t1 ~t2 () in
  Exec.set ex indexes_key (idx1, idx2);
  let common_cache =
    Array.init (Index.size idx1) (fun _ -> { stamp = -1; partners = [||] })
  in
  let values = Index.value_interner idx1 in
  let leaf_distance =
    if crit.compare == Word_compare.distance then
      let nvalues = Index.Interner.count values in
      Words
        {
          vocab = Word_compare.Vocab.create ();
          tokens = Array.make nvalues untokenized;
          sigs = Array.make nvalues 0;
        }
    else Strings
  in
  { crit; ex; st = stats; bgt; idx1; idx2; common_cache; values; leaf_distance }

(* Preorder rank of a node in one side's index; [-1] for a node that is not
   that index's own (an id shared with the other tree, or a foreign node). *)
let rank_in idx (n : Node.t) =
  let r = Index.rank_of_id idx n.id in
  if r >= 0 && Index.node idx r == n then r else -1

let vid_in idx n =
  let r = rank_in idx n in
  if r >= 0 then Index.value_id idx r else -1

(* The word ids of value [v], tokenized (and signed) on first use. *)
let tokens_of c vocab tokens sigs v =
  let t = tokens.(v) in
  if t != untokenized then t
  else begin
    let t = Word_compare.Vocab.tokenize vocab (Index.Interner.name c.values v) in
    tokens.(v) <- t;
    sigs.(v) <- Word_compare.signature t;
    t
  end

(* [compare a b <= limit] for the values with ids [va], [vb]. *)
let values_close c ~limit va vb =
  match c.leaf_distance with
  | Words { vocab; tokens; sigs } ->
    va = vb
    ||
    let wa = tokens_of c vocab tokens sigs va in
    let wb = tokens_of c vocab tokens sigs vb in
    Word_compare.within vocab ~limit wa sigs.(va) wb sigs.(vb)
  | Strings ->
    c.crit.compare (Index.Interner.name c.values va) (Index.Interner.name c.values vb)
    <= limit

let stats c = c.st

let budget c = c.bgt

let fault c name = Exec.fault c.ex name

let criteria c = c.crit

let t1_root c = Index.root c.idx1

let t2_root c = Index.root c.idx2

let index1 c = c.idx1

let index2 c = c.idx2

let leaf_count_in idx n =
  let r = rank_in idx n in
  if r >= 0 then Index.leaf_count idx r
  else Node.leaf_count n (* node outside the index; degrade gracefully *)

let leaf_count c n =
  let r1 = rank_in c.idx1 n in
  if r1 >= 0 then Index.leaf_count c.idx1 r1 else leaf_count_in c.idx2 n

(* Every leaf compare counts and ticks, the ones the signature bound
   rejects too: Fig. 13's comparison counts and the comparison caps do not
   depend on how cheaply a compare was answered. *)
let count_compare c =
  c.st.Stats.leaf_compares <- c.st.Stats.leaf_compares + 1;
  Budget.tick c.bgt

let equal_leaf_ids c va vb =
  count_compare c;
  values_close c ~limit:c.crit.leaf_f va vb

let equal_leaf c (x : Node.t) (y : Node.t) =
  String.equal x.label y.label
  &&
  let va = vid_in c.idx1 x and vb = vid_in c.idx2 y in
  if va >= 0 && vb >= 0 then equal_leaf_ids c va vb
  else begin
    (* a node outside the index has no value id: compare its string *)
    count_compare c;
    c.crit.compare x.value y.value <= c.crit.leaf_f
  end

(* Out-of-index fallback: the seed's subtree walk, containment via the T2
   interval when y is indexed (a foreign y contains no indexed partner). *)
let common_walk c m (x : Node.t) ry =
  let count = ref 0 in
  let contained zid =
    ry >= 0
    &&
    let rz = Index.rank_of_id c.idx2 zid in
    rz >= 0 && Index.contains c.idx2 ry rz
  in
  Node.iter_preorder
    (fun (w : Node.t) ->
      if Node.is_leaf w then begin
        c.st.Stats.partner_checks <- c.st.Stats.partner_checks + 1;
        Budget.tick c.bgt;
        match Matching.partner_of_old m w.id with
        | Some z when contained z -> incr count
        | Some _ | None -> ()
      end)
    x;
  !count

(* Number of entries of the sorted array inside [lo, hi]. *)
let count_in_range (a : int array) lo hi =
  let n = Array.length a in
  let lower bound =
    (* first index with a.(i) >= bound *)
    let l = ref 0 and r = ref n in
    while !l < !r do
      let mid = (!l + !r) / 2 in
      if a.(mid) >= bound then r := mid else l := mid + 1
    done;
    !l
  in
  let first = lower lo and beyond = lower (hi + 1) in
  beyond - first

let common c m (x : Node.t) (y : Node.t) =
  let rx = Index.rank_of_id c.idx1 x.id
  and ry = Index.rank_of_id c.idx2 y.id in
  if rx < 0 || ry < 0 then common_walk c m x ry
  else begin
    let entry = c.common_cache.(rx) in
    let v = Matching.version m in
    if entry.stamp <> v then begin
      let fl = Index.first_leaf c.idx1 rx and lc = Index.leaf_count c.idx1 rx in
      let buf = Array.make lc 0 in
      let k = ref 0 in
      for i = fl to fl + lc - 1 do
        c.st.Stats.partner_checks <- c.st.Stats.partner_checks + 1;
        Budget.tick c.bgt;
        let w = Index.node c.idx1 (Index.leaf_at c.idx1 i) in
        match Matching.partner_of_old m w.Node.id with
        | Some z ->
          let rz = Index.rank_of_id c.idx2 z in
          if rz >= 0 then begin
            buf.(!k) <- rz;
            incr k
          end
        | None -> ()
      done;
      let partners = Array.sub buf 0 !k in
      Array.sort (fun (a : int) b -> compare a b) partners;
      entry.stamp <- v;
      entry.partners <- partners
    end;
    count_in_range entry.partners ry (Index.last c.idx2 ry)
  end

let equal_internal c m (x : Node.t) (y : Node.t) =
  String.equal x.label y.label
  &&
  let nx = leaf_count_in c.idx1 x and ny = leaf_count_in c.idx2 y in
  let cm = common c m x y in
  float_of_int cm /. float_of_int (max nx ny) > c.crit.internal_t

let equal_nodes c m x y =
  match (Node.is_leaf x, Node.is_leaf y) with
  | true, true -> equal_leaf c x y
  | false, false -> equal_internal c m x y
  | true, false | false, true -> false

(* Leaves with >= 2 close counterparts on the other side.  Same-label values
   are the only candidates, so bucket the other side's leaf values by
   interned label id first — the cross-label compares of the seed's pairwise
   scan contribute nothing and are dropped. *)
let mc3_violating_leaves c ~old_side =
  let mine, theirs = if old_side then (c.idx1, c.idx2) else (c.idx2, c.idx1) in
  (* Per label: the other side's distinct leaf values with multiplicities —
     duplicated sentences hit [compare] once instead of once per copy. *)
  let bucket_of lid =
    let chain = Index.leaf_chain theirs lid in
    let counts = Hashtbl.create 16 in
    let order = ref [] in
    Array.iter
      (fun r ->
        let v = Index.value_id theirs r in
        match Hashtbl.find_opt counts v with
        | Some n -> Hashtbl.replace counts v (n + 1)
        | None ->
          Hashtbl.replace counts v 1;
          order := v :: !order)
      chain;
    Array.of_list (List.rev_map (fun v -> (v, Hashtbl.find counts v)) !order)
  in
  let buckets = Hashtbl.create 16 in
  let bucket lid =
    match Hashtbl.find_opt buckets lid with
    | Some b -> b
    | None ->
      let b = bucket_of lid in
      Hashtbl.replace buckets lid b;
      b
  in
  (* Close-counterpart count per (label, value) of [mine]: leaves sharing
     both share the answer, so each distinct pair is compared once. *)
  let closes = Hashtbl.create 64 in
  let close_count lid xv =
    match Hashtbl.find_opt closes (lid, xv) with
    | Some n -> n
    | None ->
      let n =
        Array.fold_left
          (fun acc (v, mult) ->
            if values_close c ~limit:1.0 xv v then acc + mult else acc)
          0 (bucket lid)
      in
      Hashtbl.replace closes (lid, xv) n;
      n
  in
  let violating = ref [] in
  let ls = Index.leaves mine in
  for i = Array.length ls - 1 downto 0 do
    let r = ls.(i) in
    if close_count (Index.label_id mine r) (Index.value_id mine r) >= 2 then
      violating := Index.node mine r :: !violating
  done;
  !violating

let mc3_violations c =
  List.length (mc3_violating_leaves c ~old_side:true)
  + List.length (mc3_violating_leaves c ~old_side:false)
