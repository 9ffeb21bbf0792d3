(** Whole-circuit pricing through a pulse generator.

    A compiled circuit is a sequence of pulse episodes (one per gate
    application — merged customized gates included). Its latency is the
    critical path of the dependence DAG under per-episode pulse durations,
    and its ESP is Eq. 2's product. Both AccQOC and PAQOC report through
    these helpers so comparisons share one definition. *)

(** [episode t g] prices one gate application as a pulse episode (pulls
    from / fills the pulse database). *)
val episode : Generator.t -> Paqoc_circuit.Gate.app -> Generator.outcome

(** [episode_latency_estimate t g] is the latency of [g]'s episode without
    generating a pulse: the pulse-table latency when present
    ({!Generator.table_latency}), the analytic estimate otherwise
    ({!Generator.estimate_latency}), a fallback row's price included.
    This is what the criticality search schedules with (Algorithm 1
    only runs QOC for committed merges); the search's engine prices
    each key the same way, once. *)
val episode_latency_estimate : Generator.t -> Paqoc_circuit.Gate.app -> float

(** [circuit_latency t c] is the critical-path latency of [c] in device
    dt. *)
val circuit_latency : Generator.t -> Paqoc_circuit.Circuit.t -> float

(** [circuit_esp t c] is [Π (1 - ε_i)] over the episodes of [c]. *)
val circuit_esp : Generator.t -> Paqoc_circuit.Circuit.t -> float

(** [schedule t c] exposes the underlying schedule for reporting. *)
val schedule : Generator.t -> Paqoc_circuit.Circuit.t -> Paqoc_circuit.Dag.schedule
