module Circuit = Paqoc_circuit.Circuit
module Generator = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Protocol = Paqoc_pulse.Protocol
module Apa = Paqoc_mining.Apa
module Miner = Paqoc_mining.Miner
module Obs = Paqoc_obs.Obs
module Clock = Paqoc_obs.Clock

type scheme = {
  apa_mode : Apa.mode;
  miner : Miner.config;
  merger : Merger.config;
  commutation_aware : bool;
}

let base_scheme mode =
  { apa_mode = mode;
    miner = Miner.default_config;
    merger = Merger.default_config;
    commutation_aware = false
  }

let paqoc_m0 = base_scheme Apa.M_zero
let paqoc_minf = base_scheme Apa.M_inf

type report = {
  grouped : Circuit.t;
  latency : float;
  esp : float;
  compile_seconds : float;
  qoc_seconds : float;
  search_seconds : float;
  n_groups : int;
  pulses_generated : int;
  cache_hits : int;
  fallbacks : int;
  apa : Apa.result;
  merge_stats : Merger.stats;
}

let compile ?(scheme = paqoc_m0) ?(jobs = 1) ?deadline gen (c : Circuit.t) =
  Obs.with_span "paqoc.compile" @@ fun () ->
  Protocol.check_deadline deadline;
  (* wall time on the monotonic clock — [Sys.time] (CPU time) would count
     every worker domain's work again on top of the elapsed time *)
  let wall0 = Clock.now_s () in
  let seconds0 = Generator.total_seconds gen in
  let generated0 = Generator.pulses_generated gen in
  let hits0 = Generator.cache_hits gen in
  let fallbacks0 = Generator.fallbacks gen in
  (* 0. optional commutativity-aware reordering (future-work extension) *)
  let c =
    if scheme.commutation_aware then Paqoc_circuit.Commutation.normalize c
    else c
  in
  (* 1. frequent subcircuits miner -> APA-basis substitution *)
  let apa =
    Obs.with_span "paqoc.apa" (fun () ->
        Apa.apply ~miner:scheme.miner ~mode:scheme.apa_mode c)
  in
  (* 1b. offline APA phase: every substituted APA gate is committed by
     definition, and the candidates are mutually independent, so their
     pulses are synthesised up front as one parallel batch (the paper's
     offline pre-computation; the criticality search then hits the
     table) *)
  let apa_names = List.map fst apa.Apa.apa_gates in
  let apa_groups =
    List.filter_map
      (fun (g : Paqoc_circuit.Gate.app) ->
        match g.Paqoc_circuit.Gate.kind with
        | Paqoc_circuit.Gate.Custom cu
          when List.mem cu.Paqoc_circuit.Gate.cname apa_names ->
          Some (fst (Generator.group_of_apps [ g ]))
        | _ -> None)
      apa.Apa.circuit.Circuit.gates
  in
  Protocol.check_deadline deadline;
  Obs.with_span "paqoc.offline_batch" (fun () ->
      ignore (Generator.generate_batch ~jobs gen apa_groups));
  Protocol.check_deadline deadline;
  (* 2. Observation-1 pre-processing, then the criticality search *)
  let pre = Candidates.preprocess apa.Apa.circuit ~maxN:scheme.merger.Merger.max_n in
  let grouped, merge_stats =
    Obs.with_span "paqoc.search" (fun () ->
        Merger.run ~config:scheme.merger gen pre)
  in
  Protocol.check_deadline deadline;
  (* 3. price the final schedule: one batch over its episodes, which
     also synthesises the leftover (non-merged, non-APA) ones, in
     parallel since they are independent *)
  let priced =
    Obs.with_span "paqoc.finalize" (fun () -> Pricing.price ~jobs gen grouped)
  in
  let qoc_seconds = Generator.total_seconds gen -. seconds0 in
  let wall = Clock.now_s () -. wall0 in
  (* the analytic backend's generation cost is virtual, so the whole
     wall time is search; a real-QOC compile's wall time already holds
     its syntheses, so they come off it *)
  let search_seconds =
    if Generator.pricing_is_analytic gen then Float.max 0.0 wall
    else Float.max 0.0 (wall -. qoc_seconds)
  in
  { grouped;
    latency = priced.Pricing.schedule.Paqoc_circuit.Dag.total;
    esp = priced.Pricing.esp;
    compile_seconds = qoc_seconds +. search_seconds;
    qoc_seconds;
    search_seconds;
    n_groups = Circuit.n_gates grouped;
    pulses_generated = Generator.pulses_generated gen - generated0;
    cache_hits = Generator.cache_hits gen - hits0;
    fallbacks = Generator.fallbacks gen - fallbacks0;
    apa;
    merge_stats
  }
