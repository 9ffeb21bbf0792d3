(* Ablation studies for the design choices DESIGN.md calls out: the topK
   knob (Section V-A-2's tradeoff discussion), the maxN cap, the M knob's
   latency/compile-time tradeoff curve (Section VI-F), Case-III criticality
   pruning (Fig 8/9), and the commutativity-aware extension (Section VII
   future work). *)

open Common
module Miner = Paqoc_mining.Miner
module Apa = Paqoc_mining.Apa
module Merger = Paqoc.Merger

let bench_set = [ "qaoa"; "rd32_270"; "ham7_104"; "qft" ]

let physical_of name =
  (Suite.transpiled (Suite.find name)).Transpile.physical

let compile_with scheme name =
  let gen = Gen.model_default () in
  let r = Paqoc.compile ~scheme gen (physical_of name) in
  (r, gen)

(* ------------------------------------------------------------------ *)
(* topK                                                                *)
(* ------------------------------------------------------------------ *)

let ablation_topk () =
  heading "ablation_topk"
    "topK: merges per iteration vs final latency and search effort";
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun k ->
            let scheme =
              { Paqoc.paqoc_m0 with
                merger = { Merger.default_config with top_k = k }
              }
            in
            let r, _ = compile_with scheme name in
            [ name; string_of_int k;
              Printf.sprintf "%.0f" r.Paqoc.latency;
              string_of_int r.Paqoc.merge_stats.Merger.iterations;
              string_of_int r.Paqoc.merge_stats.Merger.merges_committed;
              Printf.sprintf "%.1f" r.Paqoc.compile_seconds ])
          [ 1; 2; 4; 8 ])
      bench_set
  in
  table
    ~columns:
      [ "benchmark"; "topK"; "latency (dt)"; "iterations"; "merges";
        "compile (s)" ]
    ~rows;
  note "paper (Section V-A-2): larger k converges in fewer iterations but";
  note "may settle on a slightly worse latency, since each batch commits";
  note "against a stale critical path."

(* ------------------------------------------------------------------ *)
(* maxN                                                                *)
(* ------------------------------------------------------------------ *)

let ablation_maxn () =
  heading "ablation_maxn" "maxN: customized-gate qubit cap";
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun n ->
            let scheme =
              { Paqoc.paqoc_m0 with
                merger = { Merger.default_config with max_n = n }
              }
            in
            let r, _ = compile_with scheme name in
            [ name; string_of_int n;
              Printf.sprintf "%.0f" r.Paqoc.latency;
              string_of_int r.Paqoc.n_groups;
              Printf.sprintf "%.1f" r.Paqoc.compile_seconds ])
          [ 2; 3; 4 ])
      bench_set
  in
  table
    ~columns:[ "benchmark"; "maxN"; "latency (dt)"; "episodes"; "compile (s)" ]
    ~rows;
  note "the paper fixes maxN = 3: bigger groups keep shortening the";
  note "schedule but QOC cost per pulse grows with the Hilbert dimension."

(* ------------------------------------------------------------------ *)
(* the M knob                                                          *)
(* ------------------------------------------------------------------ *)

let ablation_m () =
  heading "ablation_m"
    "The M knob: latency vs compilation-time tradeoff (Section VI-F)";
  let modes =
    [ ("M=0", Apa.M_zero); ("M=1", Apa.M_limit 1); ("M=2", Apa.M_limit 2);
      ("M=4", Apa.M_limit 4); ("M=8", Apa.M_limit 8);
      ("M=tuned", Apa.M_tuned); ("M=inf", Apa.M_inf) ]
  in
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun (label, mode) ->
            let scheme =
              { Paqoc.paqoc_m0 with
                apa_mode = mode;
                miner = { Miner.default_config with min_support = 3 }
              }
            in
            let r, _ = compile_with scheme name in
            [ name; label;
              string_of_int r.Paqoc.apa.Apa.m_used;
              string_of_int r.Paqoc.apa.Apa.gates_covered;
              Printf.sprintf "%.0f" r.Paqoc.latency;
              Printf.sprintf "%.1f" r.Paqoc.compile_seconds ])
          modes)
      [ "qaoa"; "adder" ]
  in
  table
    ~columns:
      [ "benchmark"; "M"; "APA used"; "gates covered"; "latency (dt)";
        "compile (s)" ]
    ~rows;
  note "more APA gates -> more of the circuit pre-grouped -> cheaper";
  note "compilation, at a (small) latency cost vs the unrestricted search."

(* ------------------------------------------------------------------ *)
(* Case-III pruning                                                    *)
(* ------------------------------------------------------------------ *)

let ablation_pruning () =
  heading "ablation_pruning" "Criticality pruning (Cases I/II vs all pairs)";
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun (label, prune) ->
            let scheme =
              { Paqoc.paqoc_m0 with
                merger = { Merger.default_config with prune_noncritical = prune }
              }
            in
            let t0 = Sys.time () in
            let r, _ = compile_with scheme name in
            let wall = Sys.time () -. t0 in
            [ name; label;
              Printf.sprintf "%.0f" r.Paqoc.latency;
              string_of_int r.Paqoc.merge_stats.Merger.merges_committed;
              Printf.sprintf "%.1f" r.Paqoc.compile_seconds;
              Printf.sprintf "%.2f" wall ])
          [ ("pruned (paper)", true); ("unpruned", false) ])
      bench_set
  in
  table
    ~columns:
      [ "benchmark"; "candidates"; "latency (dt)"; "merges"; "compile (s)";
        "search wall (s)" ]
    ~rows;
  note "Section V-A: dropping Case III cannot hurt the final latency —";
  note "non-critical merges never shorten the schedule — but skipping them";
  note "avoids pulse generations and candidate evaluations."

(* ------------------------------------------------------------------ *)
(* commutativity                                                       *)
(* ------------------------------------------------------------------ *)

let ablation_commutation () =
  heading "ablation_commutation"
    "Commutativity-aware reordering (the paper's future-work extension)";
  let rows =
    List.concat_map
      (fun name ->
        List.map
          (fun (label, flag) ->
            let scheme = { Paqoc.paqoc_m0 with commutation_aware = flag } in
            let r, _ = compile_with scheme name in
            [ name; label;
              Printf.sprintf "%.0f" r.Paqoc.latency;
              string_of_int r.Paqoc.n_groups;
              Printf.sprintf "%.4f" r.Paqoc.esp ])
          [ ("program order", false); ("commutation-aware", true) ])
      bench_set
  in
  table
    ~columns:[ "benchmark"; "ordering"; "latency (dt)"; "episodes"; "ESP" ]
    ~rows;
  note "sliding diagonal gates through CX controls (etc.) before the";
  note "search lengthens same-qubit runs, giving Observation-1";
  note "pre-processing and the merger more room."

(* ------------------------------------------------------------------ *)
(* variational amortisation                                            *)
(* ------------------------------------------------------------------ *)

let ablation_variational () =
  heading "ablation_variational"
    "Offline/online split on a parameterised QAOA ansatz";
  let ansatz = Paqoc_benchmarks.Qaoa.circuit ~symbolic:true ~n:8 ~p:2 () in
  let prepared = Paqoc.Variational.prepare ansatz in
  note "offline phase fixed %d APA gates"
    (List.length (Paqoc.Variational.apa_gates prepared));
  let gen = Gen.model_default () in
  let rows =
    List.map
      (fun k ->
        let bindings =
          [ ("gamma_0", 0.3 +. (0.05 *. float_of_int k));
            ("beta_0", 0.9 -. (0.03 *. float_of_int k));
            ("gamma_1", 0.5 +. (0.04 *. float_of_int k));
            ("beta_1", 0.7) ]
        in
        let r = Paqoc.Variational.compile prepared gen bindings in
        [ string_of_int k;
          Printf.sprintf "%.0f" r.Paqoc.latency;
          Printf.sprintf "%.1f" r.Paqoc.compile_seconds;
          string_of_int r.Paqoc.pulses_generated;
          string_of_int r.Paqoc.cache_hits ])
      [ 1; 2; 3; 4; 5 ]
  in
  table
    ~columns:
      [ "iteration"; "latency (dt)"; "online compile (s)"; "new pulses";
        "db hits" ]
    ~rows;
  note "the shared pulse database makes later optimiser iterations cheaper";
  note "— the paper's offline/online split for variational algorithms."

(* ------------------------------------------------------------------ *)
(* decoherence                                                         *)
(* ------------------------------------------------------------------ *)

let ablation_decoherence () =
  heading "ablation_decoherence"
    "Latency reduction under finite coherence time (the paper's motivation)";
  let noise t2 = { Paqoc_pulse.Simulator.default_noise with t2 } in
  let rows =
    List.concat_map
      (fun name ->
        let rows, cols = Suite.small_grid (Suite.find name) in
        List.map
          (fun scheme ->
            let c = compile ~rows ~cols scheme name in
            let f t2 =
              Paqoc_pulse.Simulator.noisy_fidelity ~noise:(noise t2)
                c.Service.gen c.Service.grouped
            in
            [ name; scheme_name scheme;
              Printf.sprintf "%.0f" c.Service.result.Protocol.latency;
              Printf.sprintf "%.3f" (f 60_000.0);
              Printf.sprintf "%.3f" (f 20_000.0);
              Printf.sprintf "%.3f" (f 8_000.0) ])
          [ Protocol.Acc3; Protocol.M0 ])
      [ "simon"; "rd32_270"; "bb84" ]
  in
  table
    ~columns:
      [ "benchmark"; "scheme"; "latency (dt)"; "F @ T2=60k"; "F @ T2=20k";
        "F @ T2=8k" ]
    ~rows;
  note "stochastic Pauli noise along the compiled schedule: the shorter";
  note "PAQOC schedule retains more fidelity at every coherence time, and";
  note "the gap widens as T2 shrinks — the latency-fidelity link the";
  note "paper's introduction argues from."
