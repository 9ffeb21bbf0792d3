open Test_util
module Crit = Reference_criticality
module Engine = Paqoc.Criticality.Engine
module Cand = Paqoc.Candidates
module Ranking = Paqoc.Ranking
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
          (fun (cand : Cand.t) ->
            check_true "at least one critical endpoint"
              (Crit.is_critical t cand.Cand.u || Crit.is_critical t cand.Cand.v))
          cands);
    case "size cap enforced" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 2 3; Gate.app2 Gate.CX 1 2 ]
        in
        let gen = Gen.model_default () in
        let t = Crit.analyze gen c in
        List.iter
          (fun (cand : Cand.t) -> check_true "<= 3 qubits" (cand.Cand.n_qubits <= 3))
          (Reference_search.enumerate t ~maxN:3);
        (* with maxN = 2 the 0-1/1-2 merges (3 qubits) disappear *)
        List.iter
          (fun (cand : Cand.t) -> check_true "<= 2 qubits" (cand.Cand.n_qubits <= 2))
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
          (not (List.exists (fun (x : Cand.t) -> x.Cand.u = 0 && x.Cand.v = 2) cands)));
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
        check_true "top score positive" ((List.hd scored).Ranking.score > 0.0));
    case "fig 4: merging A,C does not elongate" (fun () ->
        let gen = Gen.model_default () in
        let t = Crit.analyze gen fig4 in
        let cands = Reference_search.enumerate t ~maxN:3 in
        let scored = Reference_search.rank gen t cands in
        (* all surviving candidates estimate a non-elongating merge or a
           negative score that the merger will filter *)
        List.iter
          (fun (s : Ranking.scored) ->
            check_true "estimate present" (s.Ranking.est_merged_latency > 0.0))
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
          | (a : Ranking.scored) :: (b :: _ as rest) ->
            a.Ranking.score >= b.Ranking.score && sorted rest
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
             (fun (x : Cand.t) ->
               x.Cand.case <> `III
               || not
                    (List.exists
                       (fun (y : Cand.t) -> y.Cand.u = x.Cand.u && y.Cand.v = x.Cand.v)
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

let suite =
  crit_tests @ cand_tests @ ranking_tests @ merger_tests @ paqoc_tests
  @ ablation_tests @ prop_tests
