(** The verbs [treediff] and the daemon share — [diff], [batch] and
    [check] — as typed requests with one run function each, plus the
    parsing and failure classification their store verbs share.

    A front end maps its input to a request (the CLI from argv, {!Handler}
    from JSON), runs it here and prints the typed answer its own way.
    Reading sources through the {!Treediff_doc.Format} registry (OLD before
    NEW), building the diff {!Treediff.Config.t}, running the pipeline
    under the caller's {!Treediff_util.Exec.t}, rendering through
    {!Treediff_doc.Render_diff} and classifying failures happen here once,
    so both front ends answer a request the same way by construction.
    The store verbs call {!Treediff_store.Shard} directly; an archive's
    refusal is a {!Store} failure.

    A run function returns its input and configuration failures; an
    exception it raises (budget, fault, diagnostic) is for the front end's
    barrier to classify with {!failure_of_exn}. *)

module Node = Treediff_tree.Node
module Exec = Treediff_util.Exec
module Diff = Treediff.Diff
module Doc_format = Treediff_doc.Format
module Render_diff = Treediff_doc.Render_diff
module Diag = Treediff_check.Diag

(** {1 Failures} *)

type failure =
  | Bad_input of string  (** malformed input or request *)
  | Deadline of string  (** a budget ran out *)
  | Internal of string  (** a failed diagnostic, an injected fault, a bug *)
  | Store of string  (** an archive refused the operation *)
  | Ladder of Diff.failure
      (** every rung of the diff's degradation ladder failed (a deadline
          when the primary attempt ran out of budget); carries the attempt
          log and the flat line diff *)

val message : failure -> string

val exit_code : failure -> int
(** The CLI's: [2] bad input, [3] deadline, [4] internal, [1] store. *)

val error_kind : failure -> Protocol.error_kind
(** The daemon's: a store failure is a [bad_request]. *)

val failure_of_exn : exn -> failure option
(** Parse errors, budget exhaustion, injected faults and failed
    diagnostics; [None] for anything else. *)

(** {1 Inputs} *)

type source = { label : string; text : string }
(** A document's text; [label] names it in parse errors. *)

type input = { format : Doc_format.t; lenient : bool }
type pair = Node.t * Node.t

val parse :
  ?warn:(string -> unit) ->
  input ->
  Treediff_tree.Tree.gen ->
  source ->
  (Node.t, failure) result
(** [warn] receives lenient-mode repair warnings. *)

val parse_pair :
  ?warn:(string -> unit) -> input -> source * source -> (pair, failure) result
(** OLD, then NEW, with one id generator. *)

(** {1 diff and batch} *)

type settings = {
  algorithm : Treediff.Config.algorithm;
  leaf_f : float;  (** §5.1 leaf threshold f of the word-LCS compare *)
  internal_t : float;  (** §5.1 internal-node threshold t *)
  window : int option;  (** A(k) scan window *)
  sanitize : bool;  (** run the static verifier inside the diff *)
}

val default_settings : settings
(** FastMatch, f = 0.5, t = 0.6, no window, and the
    sanitizer as [TREEDIFF_CHECK] says. *)

val mode_of_name : string -> (Render_diff.mode, failure) result

type diff = { input : input; settings : settings; mode : Render_diff.mode }

val diff_key : diff -> pair -> string
(** Result-cache key: every field of the request plus both trees'
    structural hashes. *)

val diff : ?exec:Exec.t -> diff -> pair -> (Diff.t, failure) result
(** {!Treediff.Diff.diff_result} on a pair the caller parsed (so it can
    consult a cache or a pressure policy first). *)

val batch :
  ?execs:(int -> Exec.t) ->
  ?jobs:int ->
  diff ->
  pair array ->
  ((Diff.t, Diff.failure) result array, failure) result
(** {!Treediff.Batch.run}, pair [i] under [execs i], in pair order: a
    pair's failure is its own. *)

val render : diff -> Diff.t -> string
(** The request's output mode; a front end renders a result only when it
    needs the text. *)

(** {1 check} *)

type artifact =
  | Self of { audit : bool; exhaustive : bool }
      (** diff the pair under the [diff] verb's default configuration and
          verify the result; [audit] adds the data audits, [exhaustive]
          the minimality oracle *)
  | Stored_script of source
  | Stored_delta of source

type check = { input : input; artifact : artifact }
type verdict = { diags : Diag.t list; oracle : string option }

val check :
  ?exec:Exec.t ->
  ?warn:(string -> unit) ->
  check ->
  source * source ->
  (verdict, failure) result
