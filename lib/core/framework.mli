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

(** [paqoc_m0], [paqoc_mtuned], [paqoc_minf]: the three configurations
    evaluated in the paper (maxN = 3, topK = 1). *)
val paqoc_m0 : scheme

val paqoc_mtuned : scheme
val paqoc_minf : scheme

type report = {
  grouped : Paqoc_circuit.Circuit.t;  (** final circuit of pulse episodes *)
  latency : float;  (** critical-path latency, device dt *)
  esp : float;  (** Eq. 2 *)
  compile_seconds : float;  (** QOC cost + search wall time *)
  qoc_seconds : float;  (** pulse-generation part of the above *)
  search_seconds : float;  (** criticality search part *)
  n_groups : int;
  pulses_generated : int;
  cache_hits : int;
  fallbacks : int;
      (** groups that degraded to decomposed default-basis pulses because
          every QOC attempt failed; 0 on a healthy compile *)
  apa : Paqoc_mining.Apa.result;  (** miner outcome *)
  merge_stats : Merger.stats;
}

(** [compile ?scheme ?jobs ?cache gen c] compiles physical
    circuit [c]. Default scheme is [paqoc_m0]. [jobs] (default 1) is the
    worker-domain count for the two batch pulse-generation stages — the
    offline APA pulse pre-computation and the final episode sweep;
    results are identical to the serial run
    ({!Paqoc_pulse.Generator.generate_batch}'s determinism guarantee).
    The merge search between them runs on the calling domain: its one
    costly step, synthesising the pulse of each group it tries, is a
    single generation at a time.

    [cache] scopes a shared cross-run {!Paqoc_pulse.Cache} to this
    compile: groups already priced there skip synthesis, and freshly
    synthesised groups are published back — the suite driver's
    cross-benchmark dedup. The generator's previous attachment is
    restored when the compile returns.

    [canonical] (with a [cache]) additionally enables the
    equivalence-class tier for this compile
    ({!Paqoc_pulse.Generator.set_canonical}): groups locally equivalent
    to an already-priced class representative replay its pulse instead
    of synthesising. The generator's previous setting is restored when
    the compile returns; omitted, the setting is left untouched.

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
  ?cache:Paqoc_pulse.Cache.t ->
  ?canonical:bool ->
  ?deadline:float ->
  Paqoc_pulse.Generator.t ->
  Paqoc_circuit.Circuit.t ->
  report
