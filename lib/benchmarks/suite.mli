(** The seventeen evaluation benchmarks of Table I, plus the subcircuit
    corpus behind Fig 6 / Observations 1-2. *)

type entry = {
  name : string;
  description : string;
  build : unit -> Paqoc_circuit.Circuit.t;  (** logical circuit *)
  paper_qubits : int;  (** qubit count reported in Table I *)
  paper_1q : int;  (** 1q-gate count reported in Table I *)
  paper_2q : int;  (** 2q-gate count reported in Table I *)
}

(** All seventeen, in Table I order. *)
val all : entry list

(** Additional structured workloads beyond Table I (Grover, GHZ, W state,
    hidden shift, a VQE ansatz) — they widen the Fig 6 observation corpus
    the way the paper's 150-benchmark pool did, and serve the mining and
    variational tests. *)
val extras : entry list

(** [find name] — @raise Not_found on unknown names. *)
val find : string -> entry

(** A parameterised (symbolic-angle) benchmark served by the variational
    sweep fast path ([compile-sweep], the sweep golden, the end-to-end
    benchmark's [sweep] workload).
    The build yields the {e logical} symbolic circuit; callers transpile
    and {!Paqoc.Variational.freeze} it themselves. *)
type sweep_entry = {
  sweep_name : string;
  sweep_description : string;
  sweep_build : unit -> Paqoc_circuit.Circuit.t;
}

(** The three parameterised sweep benchmarks: [qaoa] (10 qubits, 6
    angles), [vqe] (8 qubits, 64 angles), [dnn] (4 qubits, 8 weights). *)
val sweeps : sweep_entry list

(** [sweep_find name] — @raise Not_found on unknown names. *)
val sweep_find : string -> sweep_entry

(** The six benchmarks the paper pulse-simulates in Table II. *)
val table2_names : string list

(** The five benchmarks whose mined patterns Table III reports. *)
val table3_names : string list

(** [transpiled entry] routes the logical circuit onto the paper's 5x5
    grid and lowers it to the hardware basis; results are memoised. *)
val transpiled : entry -> Paqoc_topology.Transpile.t

(** [small_grid entry] is the smallest near-square [(rows, cols)] grid
    that fits the benchmark's logical qubits. *)
val small_grid : entry -> int * int

(** [transpiled_small entry] routes onto the {!small_grid} device, used
    where whole-circuit unitaries or state vectors must stay
    tractable; results are memoised. *)
val transpiled_small : entry -> Paqoc_topology.Transpile.t

(** [observation_corpus ()] extracts, from all transpiled benchmarks
    (Table I and extras), the
    maximal consecutive same-qubit-set subcircuits of up to three qubits —
    the corpus behind Fig 6 (at least 150 groups). Each item is the gate
    list over local wires. *)
val observation_corpus : unit -> Paqoc_pulse.Generator.group list
