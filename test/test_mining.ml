open Test_util
module LG = Paqoc_mining.Labeled_graph
module Pattern = Paqoc_mining.Pattern
module Miner = Paqoc_mining.Miner
module Apa = Paqoc_mining.Apa
module Dag = Paqoc_circuit.Dag

let swap_cx a b = [ Gate.app2 Gate.CX a b; Gate.app2 Gate.CX b a; Gate.app2 Gate.CX a b ]

(* Fig 5's "similar but not identical" pair: cx;rz(t);cx where the rz sits
   on the target vs on the control. *)
let block_rz_on_target a b =
  [ Gate.app2 Gate.CX a b; Gate.app1 (Gate.RZ (Angle.const 0.5)) b;
    Gate.app2 Gate.CX a b ]

let block_rz_on_control a b =
  [ Gate.app2 Gate.CX a b; Gate.app1 (Gate.RZ (Angle.const 0.5)) a;
    Gate.app2 Gate.CX a b ]

(* ------------------------------------------------------------------ *)
(* Labeled graph                                                       *)
(* ------------------------------------------------------------------ *)

let graph_tests =
  [ case "nodes, edges, labels" (fun () ->
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app1 (Gate.RZ (Angle.const 0.5)) 1 ]
        in
        let g = LG.of_circuit c in
        check_int "nodes" 2 g.LG.n_nodes;
        Alcotest.(check string) "node label" "cx" (g.LG.node_label 0);
        (match g.LG.edges with
        | [ e ] ->
          check_int "src" 0 e.LG.src;
          check_int "dst" 1 e.LG.dst;
          (* shared qubit is cx's target (operand 2) and rz's operand 1:
             the paper's "2-1" label *)
          Alcotest.(check string) "edge label" "2-1" (LG.edge_label e)
        | es -> Alcotest.failf "expected 1 edge, got %d" (List.length es)));
    case "parallel edges for doubly-shared qubits" (fun () ->
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 0 ]
        in
        let g = LG.of_circuit c in
        check_int "two labeled edges" 2 (List.length g.LG.edges))
  ]

(* ------------------------------------------------------------------ *)
(* Pattern canonicalisation                                            *)
(* ------------------------------------------------------------------ *)

let code_of gates ~n =
  let c = Circuit.make ~n_qubits:n gates in
  let d = Dag.of_circuit c in
  let p, _ = Pattern.of_nodes d (List.init (List.length gates) Fun.id) in
  p.Pattern.code

let pattern_tests =
  [ case "same pattern on different qubits -> same code" (fun () ->
        Alcotest.(check string) "codes match"
          (code_of (swap_cx 0 1) ~n:2)
          (code_of (swap_cx 3 1) ~n:4));
    case "control/target roles distinguish codes (Fig 5)" (fun () ->
        check_true "different codes"
          (not
             (String.equal
                (code_of (block_rz_on_target 0 1) ~n:2)
                (code_of (block_rz_on_control 0 1) ~n:2))));
    case "program order of parallel gates does not change the code" (fun () ->
        let a = [ Gate.app1 Gate.H 0; Gate.app1 Gate.X 1; Gate.app2 Gate.CX 0 1 ] in
        let b = [ Gate.app1 Gate.X 1; Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ] in
        Alcotest.(check string) "codes match" (code_of a ~n:2) (code_of b ~n:2));
    case "angle-blind labeler unifies rotations" (fun () ->
        let mk theta =
          let c =
            Circuit.make ~n_qubits:1
              [ Gate.app1 (Gate.RZ (Angle.const theta)) 0; Gate.app1 Gate.H 0 ]
          in
          let d = Dag.of_circuit c in
          let p, _ = Pattern.of_nodes ~label:Miner.label_of d [ 0; 1 ] in
          p.Pattern.code
        in
        Alcotest.(check string) "codes match" (mk 0.3) (mk 2.9));
    case "occurrence keeps its own angles" (fun () ->
        let c =
          Circuit.make ~n_qubits:1 [ Gate.app1 (Gate.RZ (Angle.const 0.77)) 0 ]
        in
        let d = Dag.of_circuit c in
        let p, _ = Pattern.of_nodes ~label:Miner.label_of d [ 0 ] in
        match p.Pattern.gates with
        | [ { Gate.kind = Gate.RZ (Angle.Const f); _ } ] ->
          check_float "angle preserved" 0.77 f
        | _ -> Alcotest.fail "lost the concrete angle");
    case "to_custom builds a valid gate" (fun () ->
        let c = Circuit.make ~n_qubits:2 (swap_cx 0 1) in
        let d = Dag.of_circuit c in
        let p, occ = Pattern.of_nodes d [ 0; 1; 2 ] in
        let cu = Pattern.to_custom p ~name:"swp" in
        let app = Gate.app (Gate.Custom cu) (Array.to_list occ.Pattern.wire_map) in
        check_true "equivalent to swap"
          (Circuit.equivalent c (Circuit.make ~n_qubits:2 [ app ])))
  ]

(* ------------------------------------------------------------------ *)
(* Miner                                                               *)
(* ------------------------------------------------------------------ *)

let swap_train k =
  (* k sequential H+SWAP blocks along a line *)
  Circuit.make ~n_qubits:(k + 1)
    (List.concat
       (List.init k (fun i -> Gate.app1 Gate.H i :: swap_cx i (i + 1))))

let miner_cfg = { Miner.default_config with min_support = 2 }

let miner_tests =
  [ case "finds the repeated SWAP block" (fun () ->
        let found = Miner.mine ~config:miner_cfg (swap_train 4) in
        check_true "something found" (found <> []);
        let top = List.hd found in
        check_true "support >= 4" (top.Miner.support >= 4);
        check_true "covers most of the circuit" (top.Miner.coverage >= 12));
    case "respects the qubit cap" (fun () ->
        let found = Miner.mine ~config:{ miner_cfg with max_qubits = 2 } (swap_train 4) in
        List.iter
          (fun (f : Miner.found) ->
            check_true "<= 2 wires" (f.Miner.pattern.Pattern.arity <= 2))
          found);
    case "respects the size cap" (fun () ->
        let found = Miner.mine ~config:{ miner_cfg with max_gates = 3 } (swap_train 4) in
        List.iter
          (fun (f : Miner.found) ->
            check_true "<= 3 gates" (f.Miner.pattern.Pattern.size <= 3))
          found);
    case "no patterns in a pattern-free circuit" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1;
              Gate.app1 (Gate.RZ (Angle.const 0.3)) 2 ]
        in
        check_true "nothing frequent"
          (Miner.mine ~config:miner_cfg c = []));
    case "disjoint support: overlapping embeddings counted once" (fun () ->
        (* h h h: pattern "h;h" has 2 overlapping embeddings but support 2
           requires disjointness -> {0,1} only, support 1 -> filtered *)
        let c =
          Circuit.make ~n_qubits:1
            [ Gate.app1 Gate.H 0; Gate.app1 Gate.H 0; Gate.app1 Gate.H 0 ]
        in
        let found = Miner.mine ~config:miner_cfg c in
        List.iter
          (fun (f : Miner.found) ->
            check_true "support is disjoint" (f.Miner.support <= 1))
          found;
        check_true "hence nothing frequent" (found = []));
    case "occurrences are convex" (fun () ->
        let c = swap_train 3 in
        let d = Dag.of_circuit c in
        let found = Miner.mine ~config:miner_cfg c in
        List.iter
          (fun (f : Miner.found) ->
            List.iter
              (fun (o : Pattern.occurrence) ->
                check_true "convex"
                  (Paqoc_circuit.Dag.is_convex d o.Pattern.nodes))
              f.Miner.occurrences)
          found)
  ]

(* ------------------------------------------------------------------ *)
(* APA                                                                 *)
(* ------------------------------------------------------------------ *)

let apa_tests =
  [ case "M=0 leaves the circuit alone" (fun () ->
        let c = swap_train 3 in
        let r = Apa.apply ~mode:Apa.M_zero c in
        check_int "no substitutions" 0 r.Apa.substitutions;
        check_true "same circuit" (r.Apa.circuit == c));
    case "M=inf substitutes and preserves semantics" (fun () ->
        let c = swap_train 4 in
        let r = Apa.apply ~miner:miner_cfg ~mode:Apa.M_inf c in
        check_true "substituted" (r.Apa.substitutions >= 4);
        check_true "fewer gates"
          (Circuit.n_gates r.Apa.circuit < Circuit.n_gates c);
        check_true "equivalent" (Circuit.equivalent c (Circuit.flatten r.Apa.circuit)));
    case "M=1 admits a single pattern" (fun () ->
        let c = swap_train 4 in
        let r = Apa.apply ~miner:miner_cfg ~mode:(Apa.M_limit 1) c in
        check_true "at most one apa gate" (r.Apa.m_used <= 1));
    case "M=tuned reaches majority coverage" (fun () ->
        let c = swap_train 5 in
        let r = Apa.apply ~miner:miner_cfg ~mode:Apa.M_tuned c in
        check_true "majority covered"
          (r.Apa.gates_covered > Circuit.n_gates c - r.Apa.gates_covered));
    case "parameterised circuits mine before binding" (fun () ->
        (* the same symbolic rz(g) block twice *)
        let block q =
          [ Gate.app2 Gate.CX q (q + 1);
            Gate.app1 (Gate.RZ (Angle.sym "g")) (q + 1);
            Gate.app2 Gate.CX q (q + 1) ]
        in
        let c = Circuit.make ~n_qubits:4 (block 0 @ block 2 @ block 0 @ block 2) in
        let r = Apa.apply ~miner:miner_cfg ~mode:Apa.M_inf c in
        check_true "substituted" (r.Apa.substitutions >= 2);
        (* binding afterwards yields an equivalent concrete circuit *)
        let bound_orig = Circuit.bind_params [ ("g", 0.81) ] c in
        let bound_apa =
          Circuit.bind_params [ ("g", 0.81) ] (Circuit.flatten r.Apa.circuit)
        in
        check_true "equivalent when bound"
          (Circuit.equivalent bound_orig bound_apa))
  ]

let prop_tests =
  [ qcheck
      (QCheck.Test.make ~count:30 ~name:"APA substitution preserves unitary"
         (arb_circuit ~n:3 ~max_gates:16 ())
         (fun c ->
           let r = Apa.apply ~miner:miner_cfg ~mode:Apa.M_inf c in
           Circuit.equivalent c (Circuit.flatten r.Apa.circuit)));
    qcheck
      (QCheck.Test.make ~count:30 ~name:"mined patterns within caps"
         (arb_circuit ~n:3 ~max_gates:16 ())
         (fun c ->
           List.for_all
             (fun (f : Miner.found) ->
               f.Miner.pattern.Pattern.arity <= miner_cfg.Miner.max_qubits
               && f.Miner.pattern.Pattern.size <= miner_cfg.Miner.max_gates
               && f.Miner.support >= miner_cfg.Miner.min_support)
             (Miner.mine ~config:miner_cfg c)))
  ]

let suite = graph_tests @ pattern_tests @ miner_tests @ apa_tests @ prop_tests
