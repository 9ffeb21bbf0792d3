open Test_util
module Crit = Reference_criticality
module Engine = Paqoc.Criticality.Engine
module Cand = Paqoc.Candidates
module Merger = Paqoc.Merger
module Gen = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Apa = Paqoc_mining.Apa
module Dag = Paqoc_circuit.Dag

(* Fig 4's running example: A and B sequential on shared qubits (critical),
   C in parallel off the critical path. *)
let fig4 =
  Circuit.make ~n_qubits:3
    [ Gate.app2 Gate.CX 0 1;  (* A: critical *)
      Gate.app2 Gate.CX 0 1;  (* B: critical *)
      Gate.app1 Gate.H 2      (* C: off-path *) ]

let crit_tests =
  [ case "criticality classification" (fun () ->
        let gen = Gen.model_default () in
        let e = Engine.create gen fig4 in
        check_true "A critical" (Engine.is_critical e 0);
        check_true "B critical" (Engine.is_critical e 1);
        check_true "C off-path" (not (Engine.is_critical e 2));
        check_true "total positive" (Engine.total e > 0.0));
    case "merge cases" (fun () ->
        let gen = Gen.model_default () in
        let e = Engine.create gen fig4 in
        check_true "A,B case I" (Engine.case_of e 0 1 = `I);
        check_true "A,C case II" (Engine.case_of e 0 2 = `II);
        check_true "C,C case III would be III" (Engine.case_of e 2 2 = `III));
    case "cp_after in model units" (fun () ->
        let gen = Gen.model_default () in
        let e = Engine.create gen fig4 in
        check_float "cp after B" 0.0 (Engine.cp_after e 1);
        check_float "cp after A = L(B)" (Engine.latency e 1)
          (Engine.cp_after e 0))
  ]

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

let cand_tests =
  [ case "case III pairs are pruned" (fun () ->
        (* two parallel 2-gate chains of different weight: the lighter
           chain's internal pair is case III and must not appear *)
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1;
              Gate.app2 Gate.CX 0 1;
              Gate.app1 Gate.H 2; Gate.app1 Gate.X 3 ]
        in
        let gen = Gen.model_default () in
        let t = Crit.analyze gen c in
        let cands = Reference_search.enumerate t ~maxN:3 in
        List.iter
          (fun (cand : Reference_search.candidate) ->
            check_true "at least one critical endpoint"
              (Crit.is_critical t cand.Reference_search.u
              || Crit.is_critical t cand.Reference_search.v))
          cands);
    case "size cap enforced" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 2 3; Gate.app2 Gate.CX 1 2 ]
        in
        let gen = Gen.model_default () in
        let t = Crit.analyze gen c in
        List.iter
          (fun (cand : Reference_search.candidate) ->
            check_true "<= 3 qubits" (cand.Reference_search.n_qubits <= 3))
          (Reference_search.enumerate t ~maxN:3);
        (* with maxN = 2 the 0-1/1-2 merges (3 qubits) disappear *)
        List.iter
          (fun (cand : Reference_search.candidate) ->
            check_true "<= 2 qubits" (cand.Reference_search.n_qubits <= 2))
          (Reference_search.enumerate t ~maxN:2));
    case "cycle-creating pairs invalid" (fun () ->
        (* u -> w -> v and u -> v: merging (u,v) would orphan w *)
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1; Gate.app2 Gate.CX 0 1 ]
        in
        let gen = Gen.model_default () in
        let t = Crit.analyze gen c in
        let cands = Reference_search.enumerate t ~maxN:3 in
        check_true "no (0,2) candidate"
          (not
             (List.exists
                (fun (x : Reference_search.candidate) ->
                  x.Reference_search.u = 0 && x.Reference_search.v = 2)
                cands)));
    case "preprocess merges same-qubit runs" (fun () ->
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app1 (Gate.RZ (Angle.const 0.3)) 1;
              Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 0 ]
        in
        let p = Cand.preprocess c ~maxN:3 in
        check_true "fewer gates" (Circuit.n_gates p < Circuit.n_gates c);
        check_true "equivalent" (Circuit.equivalent c (Circuit.flatten p)));
    case "preprocess never grows qubit sets" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let p = Cand.preprocess c ~maxN:3 in
        (* different pairs: nothing to merge *)
        check_int "untouched" 2 (Circuit.n_gates p))
  ]

(* ------------------------------------------------------------------ *)
(* Ranking                                                             *)
(* ------------------------------------------------------------------ *)

let ranking_tests =
  [ case "case I chain merge scores positive" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let gen = Gen.model_default () in
        let t = Crit.analyze gen c in
        let scored = Reference_search.rank gen t (Reference_search.enumerate t ~maxN:3) in
        check_true "has candidates" (scored <> []);
        check_true "top score positive"
          ((List.hd scored).Reference_search.score > 0.0));
    case "fig 4: merging A,C does not elongate" (fun () ->
        let gen = Gen.model_default () in
        let t = Crit.analyze gen fig4 in
        let cands = Reference_search.enumerate t ~maxN:3 in
        let scored = Reference_search.rank gen t cands in
        (* all surviving candidates estimate a non-elongating merge or a
           negative score that the merger will filter *)
        List.iter
          (fun (s : Reference_search.scored) ->
            check_true "estimate present"
              (s.Reference_search.est_merged_latency > 0.0))
          scored);
    case "rank is sorted descending" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let gen = Gen.model_default () in
        let t = Crit.analyze gen c in
        let scored = Reference_search.rank gen t (Reference_search.enumerate t ~maxN:3) in
        let rec sorted = function
          | (a : Reference_search.scored) :: (b :: _ as rest) ->
            a.Reference_search.score >= b.Reference_search.score && sorted rest
          | _ -> true
        in
        check_true "sorted" (sorted scored))
  ]

(* ------------------------------------------------------------------ *)
(* Merger (Algorithm 1)                                                *)
(* ------------------------------------------------------------------ *)

let merger_tests =
  [ case "monotonic latency on a chain" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2;
              Gate.app1 Gate.H 2 ]
        in
        let gen = Gen.model_default () in
        let merged, stats = Merger.run gen c in
        check_true "latency decreased"
          (stats.Merger.final_latency <= stats.Merger.initial_latency);
        check_true "merges happened" (stats.Merger.merges_committed > 0);
        check_true "equivalent" (Circuit.equivalent c (Circuit.flatten merged)));
    case "respects max_n" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2; Gate.app2 Gate.CX 2 3 ]
        in
        let gen = Gen.model_default () in
        let merged, _ =
          Merger.run ~config:{ Merger.default_config with max_n = 2 } gen c
        in
        List.iter
          (fun (g : Gate.app) ->
            check_true "<= 2 operands" (List.length g.Gate.qubits <= 2))
          merged.Circuit.gates);
    case "top_k > 1 also terminates and improves" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1;
              Gate.app2 Gate.CX 2 3; Gate.app2 Gate.CX 2 3 ]
        in
        let gen = Gen.model_default () in
        let merged, stats =
          Merger.run ~config:{ Merger.default_config with top_k = 2 } gen c
        in
        check_true "improved" (stats.Merger.final_latency < stats.Merger.initial_latency);
        check_true "equivalent" (Circuit.equivalent c (Circuit.flatten merged)))
  ]

(* ------------------------------------------------------------------ *)
(* Paqoc facade                                                        *)
(* ------------------------------------------------------------------ *)

let qaoa_small =
  let c = Paqoc_benchmarks.Qaoa.circuit ~n:4 ~p:1 () in
  (Paqoc_topology.Transpile.run ~coupling:(Paqoc_topology.Coupling.line 4) c)
    .Paqoc_topology.Transpile.physical

let paqoc_tests =
  [ case "compile M=0: valid, equivalent, improving" (fun () ->
        let gen = Gen.model_default () in
        let fixed = Pricing.circuit_latency (Gen.model_default ()) qaoa_small in
        let r = Paqoc.compile gen qaoa_small in
        check_true "latency < fixed-gate schedule" (r.Paqoc.latency < fixed);
        check_true "esp bounds" (r.Paqoc.esp > 0.0 && r.Paqoc.esp <= 1.0);
        check_true "equivalent"
          (Circuit.equivalent qaoa_small (Circuit.flatten r.Paqoc.grouped)));
    case "compile M=inf substitutes patterns" (fun () ->
        let gen = Gen.model_default () in
        let scheme =
          { Paqoc.paqoc_minf with
            miner = { Paqoc_mining.Miner.default_config with min_support = 2 }
          }
        in
        let r = Paqoc.compile ~scheme gen qaoa_small in
        check_true "equivalent"
          (Circuit.equivalent qaoa_small (Circuit.flatten r.Paqoc.grouped));
        check_true "latency sane" (r.Paqoc.latency > 0.0));
    case "commutation-aware compile preserves semantics" (fun () ->
        let gen = Gen.model_default () in
        let plain = Paqoc.compile (Gen.model_default ()) qaoa_small in
        let scheme = { Paqoc.paqoc_m0 with commutation_aware = true } in
        let r = Paqoc.compile ~scheme gen qaoa_small in
        check_true "equivalent"
          (Circuit.equivalent qaoa_small (Circuit.flatten r.Paqoc.grouped));
        check_true "never worse than program order"
          (r.Paqoc.latency <= plain.Paqoc.latency *. 1.05));
    case "beats accqoc_n3d3 on the small qaoa" (fun () ->
        let acc =
          Paqoc_accqoc.Accqoc.compile (Gen.model_default ()) qaoa_small
        in
        let r = Paqoc.compile (Gen.model_default ()) qaoa_small in
        check_true
          (Printf.sprintf "paqoc %.0f <= accqoc %.0f" r.Paqoc.latency
             acc.Paqoc_accqoc.Accqoc.latency)
          (r.Paqoc.latency <= acc.Paqoc_accqoc.Accqoc.latency))
  ]

let ablation_tests =
  [ case "pruning keeps quality while shrinking the search" (fun () ->
        (* both searches are greedy, so neither strictly dominates on any
           one circuit; the paper's claim is that pruning does not
           systematically hurt quality while evaluating fewer candidates *)
        let c = qaoa_small in
        let pruned, pstats = Merger.run (Gen.model_default ()) c in
        let unpruned, ustats =
          Merger.run
            ~config:{ Merger.default_config with prune_noncritical = false }
            (Gen.model_default ()) c
        in
        let lat circuit = Pricing.circuit_latency (Gen.model_default ()) circuit in
        check_true "both monotone"
          (ustats.Merger.final_latency <= ustats.Merger.initial_latency +. 1e-6
          && pstats.Merger.final_latency <= pstats.Merger.initial_latency +. 1e-6);
        check_true "same quality ballpark (within 10%)"
          (lat pruned <= 1.1 *. lat unpruned);
        check_true "unpruned still equivalent"
          (Circuit.equivalent c (Circuit.flatten unpruned)));
    case "unpruned search sees Case III candidates" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1;
              Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 2; Gate.app1 Gate.H 3;
              Gate.app2 Gate.CX 2 3 ]
        in
        let gen = Gen.model_default () in
        let t = Crit.analyze gen c in
        let pruned = Reference_search.enumerate t ~maxN:3 in
        let all = Reference_search.enumerate ~include_case_iii:true t ~maxN:3 in
        check_true "more candidates without pruning"
          (List.length all > List.length pruned);
        check_true "extra ones are Case III"
          (List.for_all
             (fun (x : Reference_search.candidate) ->
               x.Reference_search.case <> `III
               || not
                    (List.exists
                       (fun (y : Reference_search.candidate) ->
                         y.Reference_search.u = x.Reference_search.u
                         && y.Reference_search.v = x.Reference_search.v)
                       pruned))
             all))
  ]

let prop_tests =
  [ qcheck
      (QCheck.Test.make ~count:15 ~name:"merger: monotone + semantics (random)"
         (arb_circuit ~n:3 ~max_gates:12 ())
         (fun c ->
           let gen = Gen.model_default () in
           let merged, stats = Merger.run gen c in
           stats.Merger.final_latency <= stats.Merger.initial_latency +. 1e-6
           && Circuit.equivalent c (Circuit.flatten merged)));
    qcheck
      (QCheck.Test.make ~count:15 ~name:"preprocess: semantics preserved (random)"
         (arb_circuit ~n:3 ~max_gates:14 ())
         (fun c ->
           Circuit.equivalent c (Circuit.flatten (Cand.preprocess c ~maxN:3))));
    qcheck
      (QCheck.Test.make ~count:10 ~name:"full pipeline: semantics (random)"
         (arb_circuit ~n:3 ~max_gates:12 ())
         (fun c ->
           let gen = Gen.model_default () in
           let scheme =
             { Paqoc.paqoc_minf with
               miner = { Paqoc_mining.Miner.default_config with min_support = 2 }
             }
           in
           let r = Paqoc.compile ~scheme gen c in
           Circuit.equivalent c (Circuit.flatten r.Paqoc.grouped)))
  ]

(* ------------------------------------------------------------------ *)
(* What a compile report counts                                        *)
(* ------------------------------------------------------------------ *)

module Suite = Paqoc_benchmarks.Suite

let physical e = (Suite.transpiled e).Paqoc_topology.Transpile.physical

(* On the QOC backend a compile's wall time already holds every GRAPE
   run that [qoc_seconds] sums, so [compile_seconds] must not add them
   a second time: at jobs 1 it is at most the wall time measured around
   the call. *)
let qoc_compile_seconds =
  case "QOC compile_seconds counts each synthesis once (bb84)" (fun () ->
      let c = physical (Suite.find "bb84") in
      let t0 = Paqoc_obs.Clock.now_s () in
      let r = Paqoc.compile (Gen.qoc_default ()) c in
      let wall = Paqoc_obs.Clock.now_s () -. t0 in
      check_true
        (Printf.sprintf "qoc_seconds %.6f <= compile_seconds %.6f"
           r.Paqoc.qoc_seconds r.Paqoc.compile_seconds)
        (r.Paqoc.qoc_seconds > 0.0
        && r.Paqoc.qoc_seconds <= r.Paqoc.compile_seconds);
      check_true
        (Printf.sprintf "compile_seconds %.6f <= wall %.6f"
           r.Paqoc.compile_seconds wall)
        (r.Paqoc.compile_seconds <= wall))

(* Each generation request of a compile is answered once, by the table
   or by a synthesis. Under paqoc-m0 at top-k 1 a PAQOC compile makes
   one per merge attempt (one group each, committed or rolled back) and
   one per final episode; M = 0 substitutes no APA gate, so its offline
   batch is empty. An AccQOC compile makes one per distinct slice (its
   MST batch) and one per slice (pricing the schedule). *)
let lookup_identity =
  case "one generator lookup per attempt and final episode (Table I)"
    (fun () ->
      List.iter
        (fun (e : Suite.entry) ->
          let c = physical e in
          let r = Paqoc.compile (Gen.model_default ()) c in
          let m = r.Paqoc.merge_stats in
          check_int
            (e.Suite.name ^ ": paqoc-m0 hits + synthesized")
            (m.Merger.merges_committed + m.Merger.merges_rolled_back
           + r.Paqoc.n_groups)
            (r.Paqoc.cache_hits + r.Paqoc.pulses_generated);
          let a = Paqoc_accqoc.Accqoc.compile (Gen.model_default ()) c in
          let keys = Hashtbl.create 64 in
          List.iter
            (fun g ->
              Hashtbl.replace keys (Gen.key (fst (Gen.group_of_apps [ g ]))) ())
            a.Paqoc_accqoc.Accqoc.grouped.Circuit.gates;
          check_int
            (e.Suite.name ^ ": accqoc hits + synthesized")
            (Hashtbl.length keys + a.Paqoc_accqoc.Accqoc.n_groups)
            (a.Paqoc_accqoc.Accqoc.cache_hits
           + a.Paqoc_accqoc.Accqoc.pulses_generated))
        Suite.all)

let suite =
  crit_tests @ cand_tests @ ranking_tests @ merger_tests @ paqoc_tests
  @ ablation_tests @ prop_tests
  @ [ qoc_compile_seconds; lookup_identity ]
