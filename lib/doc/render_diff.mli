(** The five output modes of a diff, rendered in one place for every
    entry point: [treediff diff] ([-m] and [--render]), [treediff batch]
    and the daemon's [diff]/[batch] verbs, so the local tool and the
    daemon print the same bytes for the same result. *)

type mode =
  | Script  (** the replayable {!Treediff_edit.Script_io} text *)
  | Delta  (** the annotated delta tree ({!Treediff.Delta_io}) *)
  | Stats  (** operation counts, cost, matching size, comparison counters *)
  | Side_by_side  (** {!Render_align} *)
  | Summary  (** {!Render_summary} *)

val mode_of_name : string -> mode option
(** ["script"], ["delta"], ["stats"], ["side-by-side"] or ["summary"]. *)

val render : mode -> Treediff.Diff.t -> string
