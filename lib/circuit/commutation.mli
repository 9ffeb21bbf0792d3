(** Commutativity-aware gate reordering (the paper's Section VII future
    work, after Shi et al.'s CLS).

    Program order over-constrains pulse aggregation: [RZ] slides through a
    CX control, [X] through a CX target, CXs sharing a control (or a
    target) commute, diagonal gates commute among themselves. Reordering
    along such commutations brings gates with identical qubit sets next to
    each other, which widens the Observation-1 pre-processing and the
    merge search.

    Soundness: two adjacent gates may be swapped exactly when their
    unitaries commute, and any reordering reachable by such adjacent swaps
    preserves the circuit unitary; [normalize] only ever applies commuting
    adjacent transpositions. Commutation is decided by a rule table for
    the hot cases, falling back to an exact unitary commutator check on
    the (small) union space, memoised by gate labels. The reordered
    circuit is the whole product: the search then builds the ordinary
    dependence DAG ({!Dag.of_circuit}) of it, never a DAG with the
    commuting dependences dropped. *)

(** [commute a b] — do the two gate applications commute as operators?
    Disjoint-qubit gates always do. *)
val commute : Gate.app -> Gate.app -> bool

(** [normalize c] reorders [c] by commuting adjacent swaps so that gates
    sharing a qubit set become adjacent where possible (runs to a
    fixpoint, bounded). The result is unitarily equal — not just
    equivalent up to phase — to the input. *)
val normalize : Circuit.t -> Circuit.t
