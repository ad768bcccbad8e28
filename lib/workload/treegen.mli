(** Generic random trees and perturbations — the raw material for property
    tests, independent of the document schema. *)

val random_labeled :
  Treediff_util.Prng.t ->
  Treediff_tree.Tree.gen ->
  max_depth:int ->
  max_width:int ->
  labels:string array ->
  vocab:int ->
  Treediff_tree.Node.t
(** A random tree; each node's label is drawn from [labels] (indexed by depth,
    wrapping, so the acyclic-labels condition holds), values from a [vocab]-
    sized pool (small pools produce duplicates — MC3 stress). *)

val random_document :
  Treediff_util.Prng.t ->
  Treediff_tree.Tree.gen ->
  paragraphs:int ->
  vocab:int ->
  Treediff_tree.Node.t
(** Flat D/P/S document with values ["s<k>"] drawn from a [vocab]-sized pool. *)

val perturb :
  Treediff_util.Prng.t ->
  Treediff_tree.Tree.gen ->
  ?ops:int ->
  Treediff_tree.Node.t ->
  Treediff_tree.Node.t
(** A fresh-id copy perturbed by random shuffles, subtree moves, leaf
    updates, inserts and deletes — exercising every phase of EditScript. *)

val long_chain_pair :
  ?seed:int ->
  ?reword:float ->
  n:int ->
  Treediff_tree.Tree.gen ->
  (Treediff_tree.Node.t * Treediff_tree.Node.t)
(** FastMatch's worst case: a flat document whose [n] sentences share a
    third of their words (mutually similar — every cross-pair costs a full
    word-LCS compare — yet below the Criterion 1 bar), each with distinct
    distinguishing words (so value-id shortcuts never fire).  The new
    version shuffles the chain and rewords a [reword] fraction (default
    0.3) of sentences by one word.  The chain LCS degenerates and the
    straggler scan probes about half the chain per node, so exact FastMatch
    goes near-quadratic here. *)
