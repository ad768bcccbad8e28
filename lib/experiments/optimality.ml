module Table = Treediff_util.Table
module Node = Treediff_tree.Node
module Matching = Treediff_matching.Matching
module Criteria = Treediff_matching.Criteria
module Corpus = Treediff_workload.Corpus
module Docgen = Treediff_workload.Docgen
module Doc = Treediff_doc.Doc_tree
module Stats = Treediff_util.Stats

type agreement_row = {
  pair_name : string;
  fast_cost : float;
  simple_cost : float;
  agree : bool;
  fast_comparisons : int;
  simple_comparisons : int;
}

type ablation_row = {
  duplicate_rate : float;
  cost_with_postprocess : float;
  cost_without : float;
  fixes : int;
}

type bound_row = {
  pair_name : string;
  structural_ops : int;
  lower_bound : int;
  meets_bound : bool;
}

type data = {
  agreement : agreement_row list;
  ablation : ablation_row list;
  bounds : bound_row list;
}

(* Theorem C.2's structural lower bound for scripts conforming to M. *)
let structural_lower_bound ~matching t1 t2 =
  let unmatched_new = ref 0 in
  Node.iter_preorder
    (fun (y : Node.t) -> if not (Matching.matched_new matching y.id) then incr unmatched_new)
    t2;
  let unmatched_old = ref 0 in
  Node.iter_preorder
    (fun (x : Node.t) -> if not (Matching.matched_old matching x.id) then incr unmatched_old)
    t1;
  let idx2 = Treediff_tree.Id_table.of_tree t2 in
  let inter_moves = ref 0 in
  Node.iter_preorder
    (fun (x : Node.t) ->
      match Matching.partner_of_old matching x.id with
      | None -> ()
      | Some yid -> (
        let y = Treediff_tree.Id_table.find idx2 yid in
        match (x.Node.parent, y.Node.parent) with
        | None, None -> ()
        | Some px, Some py ->
          if not (Matching.mem matching px.Node.id py.Node.id) then incr inter_moves
        | None, Some _ | Some _, None -> incr inter_moves))
    t1;
  (* Minimal intra-parent moves per matched parent pair: |S1| - |LCS|. *)
  let intra = ref 0 in
  Node.iter_preorder
    (fun (x : Node.t) ->
      match Matching.partner_of_old matching x.id with
      | None -> ()
      | Some yid ->
        let y = Treediff_tree.Id_table.find idx2 yid in
        let s1 =
          List.filter
            (fun (a : Node.t) ->
              match Matching.partner_of_old matching a.id with
              | Some bid -> (
                match Treediff_tree.Id_table.find_opt idx2 bid with
                | Some b -> (
                  match b.Node.parent with Some p -> p.Node.id = y.Node.id | None -> false)
                | None -> false)
              | None -> false)
            (Node.children x)
        in
        let s2 =
          List.filter
            (fun (b : Node.t) ->
              match Matching.partner_of_new matching b.id with
              | Some aid -> List.exists (fun (a : Node.t) -> a.id = aid) s1
              | None -> false)
            (Node.children y)
        in
        let lcs =
          Treediff_lcs.Myers.lcs_length
            ~equal:(fun (a : Node.t) (b : Node.t) -> Matching.mem matching a.id b.id)
            (Array.of_list s1) (Array.of_list s2)
        in
        intra := !intra + (List.length s1 - lcs))
    t1;
  !unmatched_new + !unmatched_old + !inter_moves + !intra

let compute () =
  let sets = Corpus.standard () in
  let agreement =
    List.concat_map
      (fun set ->
        List.mapi
          (fun i (t1, t2) ->
            let run algorithm =
              let stats = Stats.create () in
              let exec = Treediff_util.Exec.create ~stats () in
              let ctx = Criteria.ctx ~exec Doc.criteria ~t1 ~t2 in
              let m =
                match algorithm with
                | `Fast -> Treediff_matching.Fast_match.run ctx
                | `Simple -> Treediff_matching.Simple_match.run ctx
              in
              let r =
                Treediff.Diff.diff_with_matching ~config:Doc.config ~matching:m t1 t2
              in
              (m, r.Treediff.Diff.measure.Treediff_edit.Script.cost, Stats.total stats)
            in
            let mf, fast_cost, fast_comparisons = run `Fast in
            let ms, simple_cost, simple_comparisons = run `Simple in
            {
              pair_name = Printf.sprintf "%s v%d-v%d" set.Corpus.name i (i + 1);
              fast_cost;
              simple_cost;
              agree = Matching.equal mf ms;
              fast_comparisons;
              simple_comparisons;
            })
          (Corpus.consecutive_pairs set))
      sets
  in
  let ablation =
    List.map
      (fun duplicate_rate ->
        let profile = { Docgen.medium with Docgen.duplicate_rate } in
        let set =
          Corpus.make ~name:"ablate" ~seed:909 ~profile ~versions:4 ~edits_per_version:15
        in
        let costs =
          List.map
            (fun (t1, t2) ->
              let with_pp =
                Treediff.Diff.diff
                  ~config:{ Doc.config with Treediff.Config.postprocess = true } t1 t2
              in
              let without =
                Treediff.Diff.diff
                  ~config:{ Doc.config with Treediff.Config.postprocess = false } t1 t2
              in
              ( with_pp.Treediff.Diff.measure.Treediff_edit.Script.cost,
                without.Treediff.Diff.measure.Treediff_edit.Script.cost,
                with_pp.Treediff.Diff.postprocess_fixes ))
            (Corpus.consecutive_pairs set)
        in
        let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 costs in
        {
          duplicate_rate;
          cost_with_postprocess = sum (fun (w, _, _) -> w);
          cost_without = sum (fun (_, wo, _) -> wo);
          fixes = List.fold_left (fun acc (_, _, f) -> acc + f) 0 costs;
        })
      [ 0.0; 0.02; 0.05; 0.10 ]
  in
  let bounds =
    List.concat_map
      (fun set ->
        List.mapi
          (fun i (t1, t2) ->
            let _, result = Measure.pair t1 t2 in
            let m = result.Treediff.Diff.measure in
            let structural_ops =
              m.Treediff_edit.Script.inserts + m.Treediff_edit.Script.deletes
              + m.Treediff_edit.Script.moves
            in
            let lower_bound =
              structural_lower_bound ~matching:result.Treediff.Diff.matching t1 t2
            in
            {
              pair_name = Printf.sprintf "%s v%d-v%d" set.Corpus.name i (i + 1);
              structural_ops;
              lower_bound;
              meets_bound = structural_ops = lower_bound;
            })
          (Corpus.consecutive_pairs set))
      sets
  in
  { agreement; ablation; bounds }

let print data =
  print_endline "== Optimality: matcher agreement, post-process ablation, C.2 bound ==";
  let t =
    Table.create
      ~headers:[ "pair"; "Fast cost"; "Match cost"; "same matching"; "Fast cmps"; "Match cmps" ]
  in
  List.iter
    (fun (r : agreement_row) ->
      Table.add_row t
        [
          r.pair_name;
          Table.cell_float r.fast_cost;
          Table.cell_float r.simple_cost;
          (if r.agree then "yes" else "NO");
          Table.cell_int r.fast_comparisons;
          Table.cell_int r.simple_comparisons;
        ])
    data.agreement;
  Table.print t;
  print_newline ();
  print_endline "-- SS8 post-processing ablation (duplicate-rich corpora) --";
  let a =
    Table.create
      ~headers:[ "duplicate rate"; "cost with post-process"; "cost without"; "fixes" ]
  in
  List.iter
    (fun (r : ablation_row) ->
      Table.add_row a
        [
          Table.cell_float r.duplicate_rate;
          Table.cell_float r.cost_with_postprocess;
          Table.cell_float r.cost_without;
          Table.cell_int r.fixes;
        ])
    data.ablation;
  Table.print a;
  print_newline ();
  print_endline "-- Theorem C.2 structural lower bound --";
  let b = Table.create ~headers:[ "pair"; "structural ops"; "lower bound"; "meets" ] in
  List.iter
    (fun (r : bound_row) ->
      Table.add_row b
        [
          r.pair_name; Table.cell_int r.structural_ops; Table.cell_int r.lower_bound;
          (if r.meets_bound then "yes" else "NO");
        ])
    data.bounds;
  Table.print b;
  print_newline ()

let run () =
  let data = compute () in
  print data;
  data
