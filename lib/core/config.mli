(** Configuration of the end-to-end change-detection pipeline. *)

type algorithm =
  | Fast_match    (** Algorithm FastMatch (§5.3) — the default *)
  | Simple_match  (** Algorithm Match (§5.2) — the O(n²) reference *)
  | Approx_match
      (** Greedy SimHash matching ({!Treediff_matching.Sim_index.greedy}):
          no criterion tests at all, least minimal scripts.  It is faster
          than FastMatch only on long same-label chains of near-duplicate
          leaves (long-chain 800: 62 ms against 89 ms end to end); on
          documents it runs about 10× slower, so no degradation rung uses
          it.  Selected only explicitly. *)

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
  sim_threshold : int option;
      (** enable FastMatch's similarity prefilter: label chains longer than
          this skip the near-quadratic LCS+scan for exact value-id pairing
          plus banded-LSH top-k retrieval (see {!Fast_match.run}).  [None]
          (default) leaves the prefilter off. *)
  sim_top_k : int;
      (** candidates retrieved per LSH probe when the prefilter or
          [Approx_match] runs (default 8). *)
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
