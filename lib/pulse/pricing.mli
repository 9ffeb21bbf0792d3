(** Whole-circuit pricing through a pulse generator.

    A compiled circuit is a sequence of pulse episodes (one per gate
    application — merged customized gates included). Its latency is the
    critical path of the dependence DAG under per-episode pulse durations,
    and its ESP is Eq. 2's product. Both AccQOC and PAQOC report through
    {!price}, so comparisons share one definition, and each episode is
    looked up once. *)

(** [episode_latency_estimate t g] is the latency of [g]'s episode without
    generating a pulse: the pulse-table latency when present
    ({!Generator.table_latency}), the analytic estimate otherwise
    ({!Generator.estimate_latency}), a fallback row's price included.
    This is what the criticality search schedules with (Algorithm 1
    only runs QOC for committed merges); the search's engine prices
    each key the same way, once. *)
val episode_latency_estimate : Generator.t -> Paqoc_circuit.Gate.app -> float

type priced = {
  schedule : Paqoc_circuit.Dag.schedule;
      (** the dependence DAG's schedule under the episodes' latencies;
          its [total] is the circuit latency in device dt *)
  esp : float;  (** [Π (1 - ε_i)] over the episodes, in gate order *)
}

(** [price ?jobs t c] generates the episodes of [c] as one
    {!Generator.generate_batch} over its gates, in gate order ([jobs]
    as there, default 1), and prices the circuit from the outcomes.
    A batch outcome carries the latency and error of the table row a
    later {!Generator.generate} of that episode returns — for a table
    hit, an in-batch duplicate, a class replay and a synthesis alike —
    and the batch's determinism guarantee makes [jobs] change nothing
    but wall time, so the result equals pricing each episode on its
    own, bit for bit. Each episode counts one {!Generator.cache_hits}
    or one synthesis. *)
val price : ?jobs:int -> Generator.t -> Paqoc_circuit.Circuit.t -> priced

(** [circuit_latency t c] is [(price t c).schedule.total]: the
    critical-path latency of [c] in device dt. *)
val circuit_latency : Generator.t -> Paqoc_circuit.Circuit.t -> float

(** [circuit_esp t c] is [(price t c).esp]. *)
val circuit_esp : Generator.t -> Paqoc_circuit.Circuit.t -> float
