(** Merge-candidate generation and criticality pruning (Section V-A-1).

    Candidates are pairs of directly dependent gates (DAG edges — the
    "two-gate grouping" of each hierarchical search level). The pruning
    pipeline applies, in order:

    + the pre-processing rule from Observation 1 — consecutive gates whose
      union introduces no new qubit are merged outright (they can only
      help and create no false dependencies);
    + the validity rule — pairs with an indirect dependence path are
      dropped (merging them would deadlock the schedule);
    + the size cap [maxN];
    + the criticality rule — Case III pairs (neither gate on the critical
      path) are dropped: merging them cannot shorten the circuit.

    This module holds the first rule; the merge search applies the
    other three as it scores and selects. *)

(** [preprocess c ~maxN] exhaustively applies the Observation-1 rule
    (bounded by [maxN]) and returns the simplified circuit. Each round
    merges a greedy span-disjoint set of compatible DAG edges, walking
    each gate's successors in ascending id order. The walk reads
    {!Paqoc_circuit.Dag.succs} back to front, since the DAG keeps every
    adjacency list largest first, and each compatibility test counts
    qubits against stamps, so neither copies a list. *)
val preprocess : Paqoc_circuit.Circuit.t -> maxN:int -> Paqoc_circuit.Circuit.t
