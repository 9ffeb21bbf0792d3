(** The iterative customized-gates generator (Algorithm 1).

    Each iteration enumerates two-gate merge candidates on the current
    circuit, prunes them by criticality, ranks them by estimated
    critical-path reduction, and commits up to [top_k] span-disjoint
    merges. A commit generates the merged gate's pulse (through the shared
    generator — this is where QOC time is actually spent), rewrites the
    circuit, and is {e rolled back} if the measured whole-circuit latency
    regressed — enforcing the paper's invariant that every merge step
    monotonically decreases (never increases) circuit latency. The loop
    ends when no candidate scores non-negatively or nothing can be
    committed. *)

type config = {
  max_n : int;  (** qubit cap for customized gates (the paper's maxN) *)
  top_k : int;  (** merges committed per iteration (the paper's topK) *)
  max_iterations : int;  (** safety bound; the loop normally exits early *)
  prune_noncritical : bool;
      (** the paper's Case-III pruning; disable only to measure its value *)
}

val default_config : config

type stats = {
  iterations : int;
  merges_committed : int;
  merges_rolled_back : int;
  initial_latency : float;
  final_latency : float;
}

(** [run ?config ?jobs gen c] returns the latency-optimised grouped
    circuit and the search statistics.

    This is the incremental search: criticality state is maintained by
    {!Criticality.Engine} on a DAG edited in place, repricing only what
    an edit or a pulse-database write changed instead of re-analysing
    the whole circuit per merge step. Candidate content (merged key,
    qubit-union size and latency estimate) is computed once per
    distinct content in a {!Pair_table}; a pair wider than [max_n] is
    dropped before its key is rendered. Each pass scores the eligible
    edges in descending order of a bound with no critical-path term
    ({!Ranking.bound}) and stops as soon as the best candidate beats
    every bound left, so it scores the edges that can win, not every
    edge; one [merger.scored] count per search records how many it
    scored. Each candidate is kept as its pair and score alone, and
    validity checks run allocation-free. The search runs on the calling
    domain; [jobs] is accepted and ignored, kept so existing callers
    still compile. The decision sequence, the generated pulse keys and
    order, the returned circuit and the statistics are all exactly
    those of the original full-reanalysis loop (one analysis per
    iteration and per attempted contraction), which the test suite
    keeps as its oracle ([test/reference_search.ml]) and holds
    bit-identical to this one. *)
val run :
  ?config:config ->
  ?jobs:int ->
  Paqoc_pulse.Generator.t ->
  Paqoc_circuit.Circuit.t ->
  Paqoc_circuit.Circuit.t * stats

(** {1 The candidate walk}

    What {!run} scores its candidates with, exposed so the test suite
    can hold it to a scorer that prices and scores every edge
    afresh. *)

(** [pair_content gen gu gv] is the pair's merged key, qubit-union size
    and Observations 1/2 latency estimate, computed afresh: the merged
    group's key is rendered and priced by the model, and a merge that
    grows past both gates' widths is priced at least at the corpus
    average for its size. *)
val pair_content :
  Paqoc_pulse.Generator.t ->
  Paqoc_circuit.Gate.app ->
  Paqoc_circuit.Gate.app ->
  string * int * float

(** The per-search pair table and the bound-ordered walk over it.

    An entry holds a pair's union size, estimate and the blacklist
    state of its merged key, and is keyed on the two nodes' interned key
    ids ({!Criticality.Engine.key_ids}) plus the wire of each of the
    second gate's operands in the merged numbering: the merged key is a
    function of those, and the estimate of the key, so each distinct
    content is computed once. Every eligible edge (no wider than
    [max_n], its merged key not blacklisted) sits in a {!Ranking.buffer}
    by its bound, keyed by its nodes' uids ({!Criticality.Engine.uids});
    the table adds the edges of a merged node and of a repriced node
    when a pass starts after a commit or a refresh, reading the ids the
    engine names ({!Criticality.Engine.take_changed}), and the walk
    skips an entry whose node died, moved latency or was
    blacklisted. *)
module Pair_table : sig
  type t

  (** [create config eng ~content] is a table over [eng]'s committed
      state, for [config]'s [max_n] and Case III pruning; [eng] must
      have committed nothing yet, so each node's uid is its id. [content]
      computes a missing entry: {!run} passes [pair_content gen]. It is
      called only for pairs no wider than [max_n]. The first {!start}
      adds every edge. *)
  val create :
    config ->
    Criticality.Engine.e ->
    content:
      (Paqoc_circuit.Gate.app ->
      Paqoc_circuit.Gate.app ->
      string * int * float) ->
    t

  (** [start t] begins a pass over the engine's committed state: it
      brings the ordered edges up to date and forgets the previous
      pass's candidates. *)
  val start : t -> unit

  (** [next t] is the index in {!candidates} of the pass's next
      candidate, or [-1]: the candidates are the edges Case III pruning
      keeps, eligible and scoring above [1e-9] by {!Ranking.score_value},
      in score-descending, then [(u, v)]-ascending order
      ({!Ranking.next}). *)
  val next : t -> int

  (** The buffer {!next}'s indices point into. *)
  val candidates : t -> Ranking.buffer

  (** The exact scores computed since [t] was made. *)
  val scored : t -> int

  (** [blacklist t u v] blocks the merged key of the committed edge
      [u -> v], and so every pair with that merged key. *)
  val blacklist : t -> int -> int -> unit
end
