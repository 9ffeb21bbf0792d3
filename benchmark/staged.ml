(* The stage-by-stage compile driver of the traced run.

   It performs the work of [Service.handle] for a PAQOC request by
   calling each layer's public function in order — Suite build,
   Service.resolve_device, Transpile.run, Apa.apply,
   Generator.generate_batch (offline APA batch), Candidates.preprocess,
   Merger.run, Generator.generate_batch (finalize), Pricing — and times
   every call from outside as a span. Its [compile_result] must equal
   the product's field for field (all but the wall-clock
   [compile_seconds]); the traced run checks that on every request, so
   a compile-path change that this driver does not mirror shows up as
   [trace.staged_mismatch] instead of as silently wrong stage times. *)

module Protocol = Paqoc_pulse.Protocol
module Cache = Paqoc_pulse.Cache
module Gen = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Circuit = Paqoc_circuit.Circuit
module Gate = Paqoc_circuit.Gate
module Qasm = Paqoc_circuit.Qasm
module Coupling = Paqoc_topology.Coupling
module Device = Paqoc_topology.Device
module Transpile = Paqoc_topology.Transpile
module Apa = Paqoc_mining.Apa
module Suite = Paqoc_benchmarks.Suite
module Service = Paqoc_service.Service
module Merger = Paqoc.Merger
module Candidates = Paqoc.Candidates
module Clock = Paqoc_obs.Clock

type outcome = {
  result : Protocol.compile_result;
  times : (string * float) list;  (** seconds per stage, in call order *)
  minor_words : (string * float) list;  (** minor words per stage *)
  qoc_s : float;  (** Generator.total_seconds delta of the compile *)
  search_qoc_s : float;  (** the part of [qoc_s] spent inside Merger.run *)
  apa_gates : int;
  merge : Merger.stats;
}

let resolve = function
  | Protocol.Benchmark name -> (Suite.find name).Suite.build ()
  | Protocol.Qasm src -> Qasm.parse src

let compile ~spans ?cache (req : Protocol.compile_request) =
  let times = ref [] and words = ref [] in
  let stage name f =
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_s () in
    let r = Spans.with_span spans name f in
    times := (name, Clock.now_s () -. t0) :: !times;
    words := (name, Gc.minor_words () -. w0) :: !words;
    r
  in
  let scheme =
    let apa_mode =
      match req.Protocol.scheme with
      | Protocol.M0 -> Apa.M_zero
      | Protocol.Mtuned -> Apa.M_tuned
      | Protocol.Minf -> Apa.M_inf
      | Protocol.Acc3 | Protocol.Acc5 ->
        invalid_arg "Staged.compile: only the PAQOC schemes are staged"
    in
    { Paqoc.paqoc_m0 with
      apa_mode;
      merger =
        { Merger.default_config with
          max_n = req.Protocol.max_n;
          top_k = req.Protocol.top_k
        }
    }
  in
  let jobs = req.Protocol.jobs in
  Spans.with_span spans "service.handle" @@ fun () ->
  let logical = stage "circuit.resolve" (fun () -> resolve req.Protocol.circuit) in
  let dev =
    stage "topology.device" (fun () ->
        Service.resolve_device ~device:req.Protocol.device
          ~rows:req.Protocol.rows ~cols:req.Protocol.cols
          ~drift_seed:req.Protocol.drift_seed
          ~drift_epoch:req.Protocol.drift_epoch)
  in
  let coupling = Device.coupling dev in
  let t = stage "topology.transpile" (fun () -> Transpile.run ~coupling logical) in
  let gen =
    stage "service.generator" (fun () ->
        let gen =
          match req.Protocol.backend with
          | Protocol.Model -> Gen.model_default ()
          | Protocol.Qoc -> Gen.qoc_default ()
        in
        Gen.set_canonical gen req.Protocol.canonical;
        Gen.set_device gen dev;
        Gen.set_shared_cache gen cache;
        gen)
  in
  let stats0 = Option.map Cache.stats cache in
  let grouped, latency, esp, apa, merge, qoc_s, search_qoc_s, wall =
    Spans.with_span spans "paqoc.compile" @@ fun () ->
    let wall0 = Clock.now_s () in
    let seconds0 = Gen.total_seconds gen in
    let apa =
      stage "mining.apa" (fun () ->
          Apa.apply ~miner:scheme.Paqoc.miner ~mode:scheme.Paqoc.apa_mode
            t.Transpile.physical)
    in
    let apa_names = List.map fst apa.Apa.apa_gates in
    let apa_groups =
      List.filter_map
        (fun (g : Gate.app) ->
          match g.Gate.kind with
          | Gate.Custom cu when List.mem cu.Gate.cname apa_names ->
            Some (fst (Gen.group_of_apps [ g ]))
          | _ -> None)
        apa.Apa.circuit.Circuit.gates
    in
    stage "pulse.offline_batch" (fun () ->
        ignore (Gen.generate_batch ~jobs gen apa_groups));
    let pre =
      stage "core.preprocess" (fun () ->
          Candidates.preprocess apa.Apa.circuit
            ~maxN:scheme.Paqoc.merger.Merger.max_n)
    in
    let search0 = Gen.total_seconds gen in
    let grouped, merge =
      stage "core.search" (fun () ->
          Merger.run ~config:scheme.Paqoc.merger ~jobs gen pre)
    in
    let search_qoc_s = Gen.total_seconds gen -. search0 in
    stage "pulse.finalize" (fun () ->
        ignore
          (Gen.generate_batch ~jobs gen
             (List.map
                (fun g -> fst (Gen.group_of_apps [ g ]))
                grouped.Circuit.gates)));
    let latency, esp =
      stage "core.price" (fun () ->
          (Pricing.circuit_latency gen grouped, Pricing.circuit_esp gen grouped))
    in
    ( grouped, latency, esp, apa, merge,
      Gen.total_seconds gen -. seconds0, search_qoc_s,
      Clock.now_s () -. wall0 )
  in
  let result =
    stage "service.result" (fun () ->
        let cache_hits, cache_misses =
          match (cache, stats0) with
          | Some c, Some s0 ->
            let s1 = Cache.stats c in
            (s1.Cache.hits - s0.Cache.hits, s1.Cache.misses - s0.Cache.misses)
          | _ -> (0, 0)
        in
        { Protocol.latency;
          esp;
          compile_seconds = qoc_s +. Float.max 0.0 wall;
          episodes = Circuit.n_gates grouped;
          fallbacks = Gen.fallbacks gen;
          synthesized = Gen.pulses_generated gen;
          cache_hits;
          cache_misses;
          logical_qubits = logical.Circuit.n_qubits;
          device_qubits = Coupling.n_qubits coupling;
          physical_gates = Circuit.n_gates t.Transpile.physical;
          swaps_added = t.Transpile.swaps_added
        })
  in
  { result;
    times = List.rev !times;
    minor_words = List.rev !words;
    qoc_s;
    search_qoc_s;
    apa_gates = List.length apa.Apa.apa_gates;
    merge
  }

(* every field but the wall-clock compile_seconds *)
let same (a : Protocol.compile_result) (b : Protocol.compile_result) =
  { a with Protocol.compile_seconds = 0.0 }
  = { b with Protocol.compile_seconds = 0.0 }
