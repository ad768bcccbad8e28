module Node = Treediff_tree.Node
module Tree = Treediff_tree.Tree
module Id_table = Treediff_tree.Id_table
module Matching = Treediff_matching.Matching
module Exec = Treediff_util.Exec
module Budget = Treediff_util.Budget
module Diag = Treediff_check.Diag
module Oracle = Treediff_check.Oracle

type audit = {
  old_root : int;
  new_root : int;
  nodes : int;
  generated : int;
  verdict : Oracle.verdict;
}

type report = {
  audited : int;
  proved_minimal : int;
  non_minimal : int;
  unproven : int;
  audits : audit list;
  diags : Diag.t list;
}

let subtree_ids x =
  let ids = Hashtbl.create 16 in
  Node.iter_preorder (fun n -> Hashtbl.replace ids n.Node.id ()) x;
  ids

(* The global matching restricted to the subtree pair, provided the pair is
   {e closed} under it: every matched node of either subtree has its
   partner in the other.  A pair crossing the boundary makes the
   standalone instance lie — the global script moves such a node across,
   while a standalone regeneration must delete and re-insert it, inflating
   the upper bound the oracle would then "refute".  Non-closed pairs
   return [None] and are skipped. *)
let restricted_matching m x y =
  let ids2 = subtree_ids y in
  let m' = Matching.create () in
  let closed = ref true in
  Node.iter_preorder
    (fun n ->
      match Matching.partner_of_old m n.Node.id with
      | Some b when Hashtbl.mem ids2 b -> Matching.add m' n.Node.id b
      | Some _ -> closed := false
      | None -> ())
    x;
  Node.iter_preorder
    (fun n ->
      match Matching.partner_of_new m n.Node.id with
      | Some a when not (Matching.mem m' a n.Node.id) -> closed := false
      | _ -> ())
    y;
  if !closed then Some m' else None

let run ?(exec = Exec.create ()) ?(max_nodes = 8) ?max_states ~matching ~t1
    ~t2 () =
  let budget = Exec.budget exec in
  let index2 = Id_table.of_tree t2 in
  let audits = ref [] in
  (* Top-down walk: audit each maximal matched pair whose subtrees both fit
     the node budget, and do not descend into audited subtrees — the
     audited regions are disjoint and jointly cover every small matched
     fragment. *)
  let rec go x =
    let descend () = List.iter go (Node.children x) in
    match Matching.partner_of_old matching x.Node.id with
    | Some yid when Node.size x <= max_nodes -> (
      match Id_table.find_opt index2 yid with
      | Some y when Node.size y <= max_nodes -> (
        match restricted_matching matching x y with
        | None -> descend ()
        | Some m ->
          Budget.visit budget;
          (* Detached, id-preserving copies: the originals carry parent
             pointers into the full trees, which would make Edit_gen treat
             them as non-roots. *)
          let sub1 = Tree.copy x and sub2 = Tree.copy y in
          let r = Edit_gen.generate ~exec ~matching:m sub1 sub2 in
          let ub = List.length r.Edit_gen.script in
          let verdict = Oracle.search ~exec ?max_states ~ub sub1 sub2 in
          audits :=
            {
              old_root = x.Node.id;
              new_root = yid;
              nodes = Node.size x;
              generated = ub;
              verdict;
            }
            :: !audits)
      | _ -> descend ())
    | _ -> descend ()
  in
  go t1;
  let audits = List.rev !audits in
  let diags =
    List.concat_map
      (fun a ->
        Oracle.diags ~nodes:[ a.old_root; a.new_root ] ~ub:a.generated
          a.verdict)
      audits
  in
  let count p = List.length (List.filter p audits) in
  {
    audited = List.length audits;
    proved_minimal =
      count (fun a ->
          match a.verdict with Oracle.Proved d -> d = a.generated | _ -> false);
    non_minimal =
      count (fun a ->
          match a.verdict with Oracle.Proved d -> d < a.generated | _ -> false);
    unproven =
      count (fun a -> match a.verdict with Oracle.Unproven _ -> true | _ -> false);
    audits;
    diags;
  }

let summary r =
  Printf.sprintf
    "oracle audit: %d subtree pair%s audited, %d proved minimal, %d \
     non-minimal, %d unproven"
    r.audited
    (if r.audited = 1 then "" else "s")
    r.proved_minimal r.non_minimal r.unproven
