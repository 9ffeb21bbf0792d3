(** PAQOC — the program-aware QOC pulse-generation framework (Fig 7).

    [compile] runs the full pipeline on a physical circuit:

    + {b frequent subcircuits miner} — mine recurring patterns and replace
      them with APA-basis gates, governed by the [M] knob
      ({!Paqoc_mining.Apa.mode});
    + {b criticality-aware customized gates generator} — Observation-1
      pre-processing, then the iterative top-k merge search
      ({!Merger});
    + {b control pulses generator} — every committed group is priced /
      synthesised through the shared {!Paqoc_pulse.Generator} (which owns
      the pulse database with permutation-aware lookup and warm starts).

    The report carries the three quantities the paper's evaluation
    compares (latency, compilation cost, ESP) plus search diagnostics. *)

type scheme = {
  apa_mode : Paqoc_mining.Apa.mode;
  miner : Paqoc_mining.Miner.config;
  merger : Merger.config;
  commutation_aware : bool;
      (** reorder commuting gates before the search (the paper's stated
          future-work extension, off by default); widens the
          Observation-1 pre-processing and the merge space while
          preserving the circuit unitary exactly *)
}

(** [paqoc_m0] and [paqoc_minf]: the paper's M = 0 and M = inf
    configurations (maxN = 3, topK = 1). Its third, M-tuned, is
    [{ paqoc_m0 with apa_mode = M_tuned }]. *)
val paqoc_m0 : scheme

val paqoc_minf : scheme

type report = {
  grouped : Paqoc_circuit.Circuit.t;  (** final circuit of pulse episodes *)
  latency : float;  (** critical-path latency, device dt *)
  esp : float;  (** Eq. 2 *)
  compile_seconds : float;
      (** [qoc_seconds +. search_seconds]: the paper's compilation cost *)
  qoc_seconds : float;
      (** pulse-generation cost: the generator's charged seconds
          ({!Paqoc_pulse.Generator.total_seconds}) over the compile —
          modelled GRAPE time on the analytic backend, measured
          synthesis time on the QOC backend *)
  search_seconds : float;
      (** the rest of the compile. On the analytic backend generation
          cost is virtual, so this is the whole wall time. On the QOC
          backend the wall time already holds every synthesis, so this
          is the wall time minus [qoc_seconds] (at least 0): exact at
          [jobs] 1, and a lower bound at [jobs > 1], where parallel
          syntheses charge more seconds than they take of the wall *)
  n_groups : int;
  pulses_generated : int;
  cache_hits : int;
      (** generator lookups answered from the pulse table (or by an
          in-batch duplicate or class replay) over the compile: one per
          offline APA group, per merge attempt's group and per final
          episode that it did not synthesise. So with [pulses_generated]
          it counts every generation request once:
          [cache_hits + pulses_generated] is the offline batch's size
          plus one per attempted group plus [n_groups] *)
  fallbacks : int;
      (** groups that degraded to decomposed default-basis pulses because
          every QOC attempt failed; 0 on a healthy compile *)
  apa : Paqoc_mining.Apa.result;  (** miner outcome *)
  merge_stats : Merger.stats;
}

(** [compile ?scheme ?jobs ?deadline gen c] compiles physical
    circuit [c]. Default scheme is [paqoc_m0]. [jobs] (default 1) is the
    worker-domain count for the two batch pulse-generation stages — the
    offline APA pulse pre-computation and the final episodes, which
    {!Paqoc_pulse.Pricing.price} generates and prices in one batch;
    results are identical to the serial run
    ({!Paqoc_pulse.Generator.generate_batch}'s determinism guarantee).
    The merge search between them runs on the calling domain: its one
    costly step, synthesising the pulse of each group it tries, is a
    single generation at a time.

    The shared cross-run {!Paqoc_pulse.Cache} and the
    equivalence-class tier are the generator's settings, made by its
    creator before the compile
    ({!Paqoc_pulse.Generator.set_shared_cache},
    {!Paqoc_pulse.Generator.set_canonical}): groups already priced in
    the cache skip synthesis and freshly synthesised groups are
    published back (compile-suite's cross-benchmark dedup), and with
    the class tier on, groups locally equivalent to an already-priced
    class representative replay its pulse instead of synthesising.

    [deadline] is an absolute {!Paqoc_obs.Clock.now_s} time; when it
    passes, the pipeline raises {!Paqoc_pulse.Protocol.Deadline_exceeded}
    at the next stage boundary (mining, offline batch, search,
    finalize) instead of completing — the compile-daemon's per-request
    budget. The check sits between stages, not inside them, so a
    deadline never yields a half-committed generator state: every stage
    either ran to completion (its pulses are in the database and usable
    by the next request) or never started. *)
val compile :
  ?scheme:scheme ->
  ?jobs:int ->
  ?deadline:float ->
  Paqoc_pulse.Generator.t ->
  Paqoc_circuit.Circuit.t ->
  report
