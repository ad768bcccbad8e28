(** Configuration of the end-to-end change-detection pipeline. *)

(** The matcher that builds the good matching: one of the paper's two
    algorithms.  Both test every pair they match against the §5.1
    criteria; FastMatch's only speed knob is A(k) ([scan_window]). *)
type algorithm =
  | Fast_match    (** Algorithm FastMatch (§5.3) — the default *)
  | Simple_match  (** Algorithm Match (§5.2) — the O(n²) reference *)

type t = {
  criteria : Treediff_matching.Criteria.t;
      (** matching parameters f, t and the leaf compare function *)
  algorithm : algorithm;
  postprocess : bool;
      (** run the §8 repair pass after matching (default true) *)
  cost : Treediff_edit.Cost.t;  (** §3.2 cost model, for script measurement *)
  scan_window : int option;
      (** the A(k) knob (§9): bound FastMatch's straggler scan to k chain
          positions; [None] (default) is the paper's full scan.  Smaller k is
          faster but may report far-moved content as delete+insert.  Ignored
          by [Simple_match]. *)
  check : bool;
      (** run the {!Treediff_check} static verifier on every {!Diff.diff}
          result and raise {!Treediff_check.Diag.Failed} on error-severity
          findings — the always-on sanitizer.  Defaults to the
          [TREEDIFF_CHECK] environment variable (see
          {!Treediff_check.Check.env_enabled}), so an entire test suite can
          opt in without code changes. *)
}

val default : t

val with_criteria : Treediff_matching.Criteria.t -> t

val with_compare : (string -> string -> float) -> t
(** Default config with a custom leaf-value distance used both for matching
    (criterion 1) and for update costs. *)

val with_check : bool -> t -> t
(** Force the sanitizer on or off, overriding the environment default. *)
