module Index = Treediff_tree.Index
module Node = Treediff_tree.Node
module Exec = Treediff_util.Exec
module Budget = Treediff_util.Budget

(* ---------------------------------------------------- signature memo *)

(* Per-execution-context memo of whole-index signature arrays, keyed by the
   index's physical identity: FastMatch asks once per label chain and the
   ladder's respawned contexts share slots, so the bottom-up signature pass
   runs once per tree per run.  The list is capped; entries for indexes of
   finished rungs age out. *)
let signatures_key : (Index.t * int64 array) list Exec.Key.t =
  Exec.Key.create "sim.signatures"

let memo_cap = 8

let signatures ?exec idx =
  match exec with
  | None -> Feature.signatures idx
  | Some ex -> (
    let entries = Option.value ~default:[] (Exec.find ex signatures_key) in
    match List.find_opt (fun (i, _) -> i == idx) entries with
    | Some (_, sigs) -> sigs
    | None ->
      let sigs = Feature.signatures idx in
      let entries = (idx, sigs) :: entries in
      let entries =
        if List.length entries > memo_cap then List.filteri (fun i _ -> i < memo_cap) entries
        else entries
      in
      Exec.set ex signatures_key entries;
      sigs)

(* ------------------------------------------------------- banded index *)

type t = {
  ranks : int array;    (* candidate preorder ranks, chain order *)
  sigs : int64 array;   (* candidate position -> signature *)
  tables : (int, int list) Hashtbl.t array;
      (* one per band: band key -> candidate positions, ascending *)
}

let build ~sigs ranks =
  let m = Array.length ranks in
  let csigs = Array.map (fun r -> sigs.(r)) ranks in
  let tables =
    Array.init Feature.bands (fun _ -> Hashtbl.create (max 16 (2 * m)))
  in
  (* descending fill so each bucket's list comes out in ascending chain
     order — candidate order (and hence matching) is deterministic *)
  for i = m - 1 downto 0 do
    for b = 0 to Feature.bands - 1 do
      let key = Feature.band_key csigs.(i) b in
      let tbl = tables.(b) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (i :: prev)
    done
  done;
  { ranks; sigs = csigs; tables }

let length t = Array.length t.ranks

let rank t pos = t.ranks.(pos)

let query ?budget ?(max_dist = 64) ~k t sg =
  if k <= 0 then []
  else begin
    (* union of the band buckets, deduplicated *)
    let seen = Hashtbl.create 32 in
    let cands = ref [] in
    for b = 0 to Feature.bands - 1 do
      match Hashtbl.find_opt t.tables.(b) (Feature.band_key sg b) with
      | None -> ()
      | Some positions ->
        List.iter
          (fun pos ->
            if not (Hashtbl.mem seen pos) then begin
              Hashtbl.replace seen pos ();
              (match budget with Some bgt -> Budget.visit bgt | None -> ());
              let d = Feature.hamming sg t.sigs.(pos) in
              if d <= max_dist then cands := (d, pos) :: !cands
            end)
          positions
    done;
    let sorted = List.sort compare !cands in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | (_, pos) :: rest -> pos :: take (n - 1) rest
    in
    take k sorted
  end

(* ----------------------------------------------------- greedy matcher *)

(* The matcher behind [Config.Approx_match]: per label (bottom-up, leaves
   first, exactly FastMatch's label order), greedily pair chain nodes whose
   subtree signatures sit within [max_dist] bits of each other — no string
   comparisons, no criterion tests, one LSH probe per node.  The result is
   one-to-one, label- and kind-respecting and root-consistent, which is all
   the static verifier requires of a matching (criterion misses are
   warning-severity); the conforming script generated from it is correct by
   construction, merely less minimal than FastMatch's. *)

let drop_root root ranks =
  if Array.exists (fun r -> r = root) ranks then
    Array.of_list (List.filter (fun r -> r <> root) (Array.to_list ranks))
  else ranks

let greedy_indexed ?exec ?(max_dist = 16) ?(top_k = 4) ~idx1 ~idx2 () =
  let budget = match exec with Some e -> Exec.budget e | None -> Budget.unlimited () in
  (match exec with Some e -> Exec.fault e "sim.greedy" | None -> ());
  Budget.set_phase budget "approx_match";
  let sigs1 = signatures ?exec idx1 and sigs2 = signatures ?exec idx2 in
  let m = Matching.create () in
  let match_chains chain_of l =
    let ranks1 =
      match Index.find_label idx1 l with
      | None -> [||]
      | Some lid -> drop_root 0 (chain_of idx1 lid)
    in
    let ranks2 =
      match Index.find_label idx2 l with
      | None -> [||]
      | Some lid -> drop_root 0 (chain_of idx2 lid)
    in
    if Array.length ranks1 > 0 && Array.length ranks2 > 0 then begin
      let t = build ~sigs:sigs2 ranks2 in
      Array.iter
        (fun r1 ->
          Budget.visit budget;
          let x = Index.node idx1 r1 in
          if not (Matching.matched_old m x.Node.id) then begin
            let cands = query ~budget ~max_dist ~k:top_k t sigs1.(r1) in
            let rec pair = function
              | [] -> ()
              | pos :: rest ->
                let y = Index.node idx2 t.ranks.(pos) in
                if not (Matching.matched_new m y.Node.id) then
                  Matching.add m x.Node.id y.Node.id
                else pair rest
            in
            pair cands
          end)
        ranks1
    end
  in
  List.iter
    (match_chains Index.leaf_chain)
    (Label_order.leaf_labels_of_indexes idx1 idx2);
  List.iter
    (match_chains Index.internal_chain)
    (Label_order.internal_labels_of_indexes idx1 idx2);
  let root1 = Index.root idx1 and root2 = Index.root idx2 in
  if
    String.equal root1.Node.label root2.Node.label
    && (not (Matching.matched_old m root1.Node.id))
    && not (Matching.matched_new m root2.Node.id)
  then Matching.add m root1.Node.id root2.Node.id;
  m

let greedy ?exec ?max_dist ?top_k ~t1 ~t2 () =
  let idx1, idx2 = Index.pair ~t1 ~t2 () in
  greedy_indexed ?exec ?max_dist ?top_k ~idx1 ~idx2 ()
