(** The AccQOC baseline, end to end.

    [compile] slices the physical circuit into fixed-size customized gates,
    orders the distinct subcircuits along the similarity MST, generates (or
    prices) a pulse per subcircuit through the shared {!Paqoc_pulse.Generator}
    interface, and reports whole-circuit latency, ESP and compilation
    cost — the three quantities Figs 10-12 compare. *)

type report = {
  grouped : Paqoc_circuit.Circuit.t;  (** circuit of customized gates *)
  latency : float;  (** critical-path latency, device dt *)
  esp : float;  (** Eq. 2 estimated success probability *)
  compile_seconds : float;  (** pulse-generation cost charged *)
  n_groups : int;  (** customized gates in the schedule *)
  pulses_generated : int;  (** distinct QOC runs *)
  cache_hits : int;
      (** lookups answered without a synthesis: the MST batch's repeated
          slices, plus one per slice when
          {!Paqoc_pulse.Pricing.price} prices the schedule *)
  fallbacks : int;  (** slices that degraded to decomposed-basis pulses *)
}

(** [compile ?slicer ?jobs gen c] runs the baseline on physical
    circuit [c] through generator [gen]. Default slicing is
    [accqoc_n3d3]. [jobs] (default 1) parallelises slice pricing across
    worker domains; the MST warm-start order is preserved and the result
    is identical to the serial run. A shared cross-run
    {!Paqoc_pulse.Cache} is the generator's: attach it with
    {!Paqoc_pulse.Generator.set_shared_cache} before compiling. *)
val compile :
  ?slicer:Slicer.config ->
  ?jobs:int ->
  Paqoc_pulse.Generator.t ->
  Paqoc_circuit.Circuit.t ->
  report
