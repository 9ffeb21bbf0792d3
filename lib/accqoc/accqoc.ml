module Circuit = Paqoc_circuit.Circuit
module Generator = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing

type report = {
  grouped : Circuit.t;
  latency : float;
  esp : float;
  compile_seconds : float;
  n_groups : int;
  pulses_generated : int;
  cache_hits : int;
  fallbacks : int;
}

let compile ?(slicer = Slicer.accqoc_n3d3) ?(jobs = 1) ?cache gen
    (c : Circuit.t) =
  Generator.with_shared_cache ?cache gen @@ fun () ->
  Paqoc_obs.Obs.with_span "accqoc.compile" @@ fun () ->
  let seconds0 = Generator.total_seconds gen in
  let generated0 = Generator.pulses_generated gen in
  let hits0 = Generator.cache_hits gen in
  let fallbacks0 = Generator.fallbacks gen in
  let grouped =
    Paqoc_obs.Obs.with_span "accqoc.slice" (fun () ->
        Slicer.group_circuit slicer c)
  in
  (* similarity-MST generation order maximises warm starts; the batch
     planner keeps that seeding (each slice still warm-starts from its
     MST neighbour) while letting independent MST branches synthesise in
     parallel *)
  let groups =
    List.map
      (fun g -> fst (Generator.group_of_apps [ g ]))
      grouped.Circuit.gates
  in
  let ordered = Similarity.generation_order groups in
  ignore (Generator.generate_batch ~jobs gen ordered);
  let latency = Pricing.circuit_latency gen grouped in
  let esp = Pricing.circuit_esp gen grouped in
  { grouped;
    latency;
    esp;
    compile_seconds = Generator.total_seconds gen -. seconds0;
    n_groups = Circuit.n_gates grouped;
    pulses_generated = Generator.pulses_generated gen - generated0;
    cache_hits = Generator.cache_hits gen - hits0;
    fallbacks = Generator.fallbacks gen - fallbacks0
  }
