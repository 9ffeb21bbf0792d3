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
    the whole circuit per merge step; candidate content (merged keys and
    latency estimates) is memoized on stable node uids, each candidate
    is kept as its pair and score alone, and validity checks run
    allocation-free. The search runs on the calling domain;
    [jobs] is accepted and ignored, kept so existing callers still
    compile. The decision sequence, the generated pulse keys and order,
    the returned circuit and the statistics are all exactly those of the
    original full-reanalysis loop (one analysis per iteration and per
    attempted contraction), which the test suite keeps as its oracle
    ([test/reference_search.ml]) and holds bit-identical to this one. *)
val run :
  ?config:config ->
  ?jobs:int ->
  Paqoc_pulse.Generator.t ->
  Paqoc_circuit.Circuit.t ->
  Paqoc_circuit.Circuit.t * stats
