(* Bechamel micro-benchmarks (one Test.make per table / figure, each
   timing the hot kernel that experiment leans on), the worker-scaling
   run and the BENCH_devices.json emitter. *)

open Bechamel
open Toolkit
module Gate = Paqoc_circuit.Gate
module Angle = Paqoc_circuit.Angle
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Cmat = Paqoc_linalg.Cmat
module Expm = Paqoc_linalg.Expm
module H = Paqoc_pulse.Hamiltonian
module Pulse = Paqoc_pulse.Pulse
module Grape = Paqoc_pulse.Grape
module LM = Paqoc_pulse.Latency_model
module Gen = Paqoc_pulse.Generator
module Suite = Paqoc_benchmarks.Suite
module Clock = Paqoc_obs.Clock
module Json = Paqoc_obs.Json

let qaoa_physical =
  lazy
    (Suite.transpiled (Suite.find "qaoa")).Paqoc_topology.Transpile.physical

let simon_physical =
  lazy
    (Suite.transpiled (Suite.find "simon")).Paqoc_topology.Transpile.physical

let h3 = lazy (H.make ~n_qubits:3 ~coupled_pairs:[ (0, 1); (1, 2) ] ())

let group3 =
  lazy
    (fst
       (Gen.group_of_apps
          [ Gate.app2 Gate.CX 0 1;
            Gate.app1 (Gate.RZ (Angle.const 0.4)) 1;
            Gate.app2 Gate.CX 1 2 ]))

let tests =
  [ (* table1: circuit statistics over a transpiled benchmark *)
    Test.make ~name:"table1/circuit-stats"
      (Staged.stage (fun () ->
           let c = Lazy.force qaoa_physical in
           ignore (Circuit.depth c + Circuit.n_1q c + Circuit.n_2q c)));
    (* fig2: one GRAPE gradient step on a 2-qubit target *)
    Test.make ~name:"fig2/grape-steps"
      (Staged.stage
         (let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
          let target = Gate.unitary Gate.CX in
          let config = { Grape.default_config with max_iters = 3; target_fidelity = 1.1 } in
          fun () -> ignore (Grape.optimize ~config h ~target ~n_slices:40 ~dt:2.0 ())));
    (* fig6: analytic latency of a 3-qubit group *)
    Test.make ~name:"fig6/model-latency"
      (Staged.stage (fun () ->
           let g = Lazy.force group3 in
           ignore
             (LM.group_latency LM.default ~n_qubits:g.Gen.n_qubits ~key:"k"
                g.Gen.gates)));
    (* fig10: criticality analysis of a full physical circuit *)
    Test.make ~name:"fig10/criticality-analysis"
      (Staged.stage
         (let gen = Gen.model_default () in
          fun () ->
            let c = Lazy.force qaoa_physical in
            ignore (Paqoc.Criticality.Engine.create gen c)));
    (* fig11: pulse-database pricing of a cached episode *)
    Test.make ~name:"fig11/pulse-db-lookup"
      (Staged.stage
         (let gen = Gen.model_default () in
          let g = Lazy.force group3 in
          ignore (Gen.generate gen g);
          fun () -> ignore (Gen.generate gen g)));
    (* fig12: whole-circuit ESP pricing *)
    Test.make ~name:"fig12/esp-pricing"
      (Staged.stage
         (let gen = Gen.model_default () in
          fun () ->
            ignore
              (Paqoc_pulse.Pricing.circuit_esp gen (Lazy.force simon_physical))));
    (* fig13: AccQOC slicing of the qaoa circuit *)
    Test.make ~name:"fig13/accqoc-slicing"
      (Staged.stage (fun () ->
           ignore
             (Paqoc_accqoc.Slicer.slice Paqoc_accqoc.Slicer.accqoc_n3d3
                (Lazy.force qaoa_physical))));
    (* fig14: DAG schedule (the per-iteration cost the scaling fit sums) *)
    Test.make ~name:"fig14/dag-schedule"
      (Staged.stage
         (let d = Dag.of_circuit (Lazy.force qaoa_physical) in
          let latency = Array.make (Dag.n_nodes d) 1.0 in
          fun () -> ignore (Dag.schedule d ~latency)));
    (* table2: slice propagator (the pulse simulator's inner loop) *)
    Test.make ~name:"table2/pulse-propagator"
      (Staged.stage
         (let h = Lazy.force h3 in
          let p = Pulse.make ~dt:2.0 ~slices:20 ~n_controls:(H.n_controls h) in
          fun () -> ignore (Pulse.propagator h p)));
    (* table3: frequent-subcircuit mining of a small physical circuit *)
    Test.make ~name:"table3/miner"
      (Staged.stage (fun () ->
           ignore
             (Paqoc_mining.Miner.mine
                ~config:{ Paqoc_mining.Miner.default_config with min_support = 2 }
                (Lazy.force simon_physical))))
  ]

(* ------------------------------------------------------------------ *)
(* Worker-scaling benchmark: the same QOC batch at 1/2/4 domains        *)
(* ------------------------------------------------------------------ *)

(* Structurally distinct 2-qubit groups (pairwise shape distance above the
   similarity threshold) so the batch is embarrassingly parallel: every
   synthesis is a cold GRAPE run with no in-batch seed dependency. *)
let scaling_batch () =
  let rz a = Gate.app1 (Gate.RZ (Angle.const a)) in
  List.map
    (fun apps -> fst (Gen.group_of_apps apps))
    [ [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ];
      [ Gate.app1 Gate.X 0; Gate.app1 Gate.X 1; Gate.app2 Gate.CX 0 1;
        rz 0.3 0 ];
      [ Gate.app1 Gate.SX 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.SX 1;
        Gate.app2 Gate.CX 0 1 ];
      [ Gate.app1 Gate.T 0; Gate.app1 Gate.T 1; Gate.app2 Gate.CX 0 1;
        Gate.app1 Gate.X 0 ];
      [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 0; Gate.app2 Gate.CX 0 1 ];
      [ Gate.app1 Gate.H 0; Gate.app1 Gate.H 1; Gate.app2 Gate.CX 0 1;
        Gate.app1 Gate.T 1 ];
      [ rz 1.1 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1;
        Gate.app1 Gate.X 1 ];
      [ Gate.app1 Gate.SX 1; Gate.app1 Gate.T 0; Gate.app2 Gate.CX 0 1;
        Gate.app1 Gate.H 0 ]
    ]

let db_bytes gen =
  let path = Filename.temp_file "paqoc_scaling" ".db" in
  Gen.save_database gen path;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let run_scaling ?(workers = [ 1; 2; 4 ]) () =
  Printf.printf "\n%s\nSCALING  parallel pulse generation (QOC backend)\n%s\n"
    (String.make 78 '=') (String.make 78 '=');
  Printf.printf "host: %d recommended domain(s)\n"
    (Domain.recommended_domain_count ());
  let batch = scaling_batch () in
  Printf.printf "batch: %d independent 2-qubit gate groups\n%!"
    (List.length batch);
  let runs =
    List.map
      (fun jobs ->
        let gen = Gen.qoc_default () in
        let t0 = Unix.gettimeofday () in
        let outs = Gen.generate_batch ~jobs gen batch in
        let wall = Unix.gettimeofday () -. t0 in
        (jobs, wall, outs, db_bytes gen))
      workers
  in
  (match runs with
  | (_, base, _, base_db) :: _ ->
    List.iter
      (fun (jobs, wall, outs, db) ->
        Printf.printf
          "  jobs=%d  wall %6.2f s  speedup %5.2fx  (%d pulses, db %s)\n%!"
          jobs wall (base /. wall) (List.length outs)
          (if String.equal db base_db then "identical" else "DIVERGED"))
      runs
  | [] -> ());
  Printf.printf
    "  (speedup tracks physical cores; determinism holds at any count)\n"

(* ------------------------------------------------------------------ *)
(* BENCH_devices.json: per-device suite compile + cache isolation      *)
(* ------------------------------------------------------------------ *)

(* Compiles all 17 Table I benchmarks on each registry device against
   ONE shared cache (model backend): a cold pass publishes every priced
   group under the device's namespace, a warm pass with fresh generators
   must then be answered entirely by the cache. Because the four devices
   share the cache file, the per-device cold passes double as the
   isolation measurement — a namespacing bug would let a later device
   replay an earlier device's pulses and show up as a depressed cold
   synthesis count. Two gates must hold or the entry is refused: every
   warm-pass miss must be a regenerated pulse (fallbacks are never
   published, so [misses = pulses_generated] — a surplus miss means a
   synthesized pulse was lost), and a final drift-perturbed lattice pass
   (seed 1, epoch 1) against the fully warmed cache must miss exactly as
   often as the pristine lattice's cold pass did — a drifted device may
   never have a lookup answered by its own stale pulses (intra-pass hits
   under the drifted namespace are fine and expected). *)
let run_bench_devices ?(path = "BENCH_devices.json") () =
  Printf.printf "\n%s\nDEVICES  per-device suite compile (17 benchmarks)\n%s\n"
    (String.make 78 '=') (String.make 78 '=');
  let module Cache = Paqoc_pulse.Cache in
  let module Device = Paqoc_topology.Device in
  let module Drift = Paqoc_topology.Drift in
  let pass ~label ~dev cache =
    let t0 = Clock.now_s () in
    let totals =
      List.fold_left
        (fun (synth, hits, misses) (e : Suite.entry) ->
          let physical =
            (Paqoc_topology.Transpile.run ~coupling:(Device.coupling dev)
               (e.Suite.build ()))
              .Paqoc_topology.Transpile.physical
          in
          let gen = Gen.model_default () in
          Gen.set_device gen dev;
          Gen.set_shared_cache gen (Some cache);
          Gen.set_canonical gen true;
          let s0 = Cache.stats cache in
          let r = Paqoc.compile gen physical in
          let s1 = Cache.stats cache in
          ( synth + r.Paqoc.pulses_generated,
            hits + (s1.Cache.hits - s0.Cache.hits),
            misses + (s1.Cache.misses - s0.Cache.misses) ))
        (0, 0, 0) Suite.all
    in
    let wall = Clock.now_s () -. t0 in
    let synth, hits, misses = totals in
    Printf.printf
      "  %-18s wall %6.2f s  %4d synthesized  %4d hits / %4d misses\n%!"
      label wall synth hits misses;
    (wall, synth, hits, misses)
  in
  let rate h m =
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let cache_path = Filename.temp_file "paqoc_bench" ".cache" in
  let per_device, drift =
    Fun.protect
      ~finally:(fun () -> try Sys.remove cache_path with Sys_error _ -> ())
      (fun () ->
        Cache.with_file cache_path (fun cache ->
            let per_device =
              List.map
                (fun dev ->
                  let name = Device.name dev in
                  let cold = pass ~label:(name ^ " cold") ~dev cache in
                  let warm = pass ~label:(name ^ " warm") ~dev cache in
                  (dev, cold, warm))
                Device.all
            in
            let drifted = Drift.apply ~seed:1 ~epoch:1 Device.lattice in
            let drift = pass ~label:"lattice@drift cold" ~dev:drifted cache in
            (per_device, drift)))
  in
  (* Gates: refuse to emit an entry that would record broken isolation. *)
  List.iter
    (fun (dev, _, (_, warm_synth, _, warm_misses)) ->
      if warm_misses <> warm_synth then (
        Printf.eprintf
          "bench-devices: %s warm pass recorded %d cache misses but \
           regenerated %d pulses (a synthesized pulse was lost)\n"
          (Device.name dev) warm_misses warm_synth;
        exit 1))
    per_device;
  let lattice_cold_misses =
    match per_device with
    | (_, (_, _, _, m), _) :: _ -> m
    | [] -> 0
  in
  let _, _, _, drift_misses = drift in
  if drift_misses <> lattice_cold_misses then (
    Printf.eprintf
      "bench-devices: drifted lattice recorded %d cache misses vs %d for the \
       pristine cold pass (stale pulses answered %d lookups)\n"
      drift_misses lattice_cold_misses
      (lattice_cold_misses - drift_misses);
    exit 1);
  Printf.printf
    "  gates: every warm miss regenerated (no lost pulses); drift forced a \
     full cold resynthesis\n%!";
  let run_json (phase, (wall, synth, hits, misses)) =
    Json.Obj
      [ ("phase", Json.Str phase);
        ("wall_s", Json.Num wall);
        ("synthesized", Json.int synth);
        ("cache_hits", Json.int hits);
        ("cache_misses", Json.int misses);
        ("hit_rate", Json.Num (rate hits misses))
      ]
  in
  let drift_wall, drift_synth, drift_hits, drift_misses = drift in
  let doc =
    Json.Obj
      [ ("schema", Json.Str "paqoc-bench v1");
        ("bench", Json.Str "devices");
        ("benchmarks", Json.int (List.length Suite.all));
        ( "devices",
          Json.Arr
            (List.map
               (fun (dev, cold, warm) ->
                 Json.Obj
                   [ ("name", Json.Str (Device.name dev));
                     ("hash", Json.Str (Device.hash dev));
                     ("qubits", Json.int (Device.n_qubits dev));
                     ( "runs",
                       Json.Arr
                         [ run_json ("cold", cold); run_json ("warm", warm) ] )
                   ])
               per_device) );
        ( "drift",
          Json.Obj
            [ ("seed", Json.int 1);
              ("epoch", Json.int 1);
              ("wall_s", Json.Num drift_wall);
              ("synthesized", Json.int drift_synth);
              ("cache_hits", Json.int drift_hits);
              ("cache_misses", Json.int drift_misses)
            ] );
        ("isolated", Json.Bool true)
      ]
  in
  (* atomic, so a failed run never truncates the committed entry *)
  Paqoc_obs.Atomic_file.write ~what:"bench-devices" path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "  bench entry written to %s\n%!" path

let run () =
  Printf.printf "\n%s\nMICRO  bechamel kernels (one per table/figure)\n%s\n"
    (String.make 78 '=') (String.make 78 '=');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "  %-28s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests
