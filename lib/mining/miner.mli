(** The frequent-subcircuits miner (the GraMi stand-in of Section III-A).

    Pattern-growth mining over the circuit's dependence DAG: start from
    single gates, repeatedly extend each embedding by a DAG-adjacent gate
    while the embedding stays convex (replaceable by one gate), within the
    qubit and size caps, and keep patterns whose {e disjoint} support
    clears the threshold.

    Angle handling follows the paper: rotation parameters are rendered
    {e symbolically} (angle-blind), so the QFT's
    [h]-on-[cu1]-target pattern recurs even though each CU1 carries a
    different constant angle, and parameterised circuits mine before their
    parameters are bound. *)

(** Patterns of fewer than two gates are never returned, and at most 32
    patterns are. *)
type config = {
  min_support : int;  (** disjoint occurrences required; paper uses > 2 *)
  max_qubits : int;  (** the APA-gate size knob (maxN), default 3 *)
  max_gates : int;  (** pattern size cap, default 6 *)
}

val default_config : config

type found = {
  pattern : Pattern.t;
  occurrences : Pattern.occurrence list;
      (** all embeddings, possibly overlapping, sorted by first node *)
  support : int;  (** size of a maximal disjoint subset *)
  coverage : int;  (** [support * pattern.size] — original gates covered *)
}

(** [mine ?config c] returns frequent patterns sorted by decreasing
    coverage (the paper's selection criterion), ties broken by size then
    code. *)
val mine : ?config:config -> Paqoc_circuit.Circuit.t -> found list

(** [label_of k] is the angle-blind node label mining uses: the gate's
    name, with each parameter rendered as [~] (exposed so APA
    substitution canonicalises occurrences identically). *)
val label_of : Paqoc_circuit.Gate.kind -> string
