module Diff = Treediff.Diff
module Script = Treediff_edit.Script
module Stats = Treediff_util.Stats

type mode = Script | Delta | Stats | Side_by_side | Summary

let modes =
  [
    ("script", Script);
    ("delta", Delta);
    ("stats", Stats);
    ("side-by-side", Side_by_side);
    ("summary", Summary);
  ]

let mode_of_name name = List.assoc_opt name modes
let mode_name mode = fst (List.find (fun (_, m) -> m = mode) modes)

let stats (result : Diff.t) =
  let m = result.Diff.measure in
  Printf.sprintf
    "ops: %d (ins %d, del %d, upd %d, mov %d)\ncost: %.2f\nweighted distance e: %d\n\
     matching: %d pairs\ncomparisons: %d leaf compares, %d partner checks\n"
    (Script.unweighted m) m.Script.inserts m.Script.deletes m.Script.updates
    m.Script.moves m.Script.cost m.Script.weighted
    (Treediff_matching.Matching.cardinal result.Diff.matching)
    result.Diff.stats.Stats.leaf_compares result.Diff.stats.Stats.partner_checks

let render mode (result : Diff.t) =
  match mode with
  | Script -> Treediff_edit.Script_io.to_string result.Diff.script
  | Delta -> Treediff.Delta_io.to_string result.Diff.delta ^ "\n"
  | Stats -> stats result
  | Side_by_side -> Render_align.render result.Diff.delta
  | Summary -> Render_summary.render result.Diff.delta
