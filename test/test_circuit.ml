open Test_util
module Dag = Paqoc_circuit.Dag
module Qasm = Paqoc_circuit.Qasm
module Decompose = Paqoc_circuit.Decompose
module Rewrite = Paqoc_circuit.Rewrite

let pi = Angle.pi

(* ------------------------------------------------------------------ *)
(* Angle                                                               *)
(* ------------------------------------------------------------------ *)

let angle_tests =
  [ case "pi labels" (fun () ->
        Alcotest.(check string) "pi/2" "1pi/2" (Angle.label (Angle.const (pi /. 2.)));
        Alcotest.(check string) "-pi/4" "-1pi/4" (Angle.label (Angle.const (-.pi /. 4.)));
        Alcotest.(check string) "zero" "0" (Angle.label (Angle.const 0.));
        Alcotest.(check string) "sym" "$gamma" (Angle.label (Angle.sym "gamma")));
    case "label stability across float noise" (fun () ->
        let a = Angle.const (pi /. 3.0) in
        let b = Angle.const (pi /. 3.0 +. 1e-13) in
        Alcotest.(check string) "same label" (Angle.label a) (Angle.label b));
    case "bind substitutes" (fun () ->
        let a = Angle.bind [ ("g", 1.5) ] (Angle.Sym "g") in
        check_float "bound value" 1.5 (Angle.value a));
    case "scaled evaluation" (fun () ->
        check_float "0.5 * g" 0.75
          (Angle.value ~bindings:[ ("g", 1.5) ] (Angle.Scaled ("g", 0.5))));
    case "unbound symbol raises" (fun () ->
        Alcotest.check_raises "unbound"
          (Failure "Angle.value: unbound symbol g") (fun () ->
            ignore (Angle.value (Angle.Sym "g"))))
  ]

(* ------------------------------------------------------------------ *)
(* Gate unitaries                                                      *)
(* ------------------------------------------------------------------ *)

let u k = Gate.unitary k

let gate_tests =
  [ case "H^2 = I" (fun () ->
        check_mat "h2" (Cmat.identity 2) (Cmat.mul (u Gate.H) (u Gate.H)));
    case "S^2 = Z, T^2 = S" (fun () ->
        check_mat "s2" (u Gate.Z) (Cmat.mul (u Gate.S) (u Gate.S));
        check_mat "t2" (u Gate.S) (Cmat.mul (u Gate.T) (u Gate.T)));
    case "SX^2 = X" (fun () ->
        check_mat "sx2" (u Gate.X) (Cmat.mul (u Gate.SX) (u Gate.SX)));
    case "rotations compose" (fun () ->
        check_mat_phase "rz(a)rz(b) = rz(a+b)"
          (u (Gate.RZ (Angle.const 1.1)))
          (Cmat.mul (u (Gate.RZ (Angle.const 0.4))) (u (Gate.RZ (Angle.const 0.7)))));
    case "RX via H RZ H" (fun () ->
        let t = 0.83 in
        check_mat_phase "conjugation"
          (u (Gate.RX (Angle.const t)))
          (Cmat.mul (u Gate.H)
             (Cmat.mul (u (Gate.RZ (Angle.const t))) (u Gate.H))));
    case "U3 special cases" (fun () ->
        check_mat_phase "u3(pi/2,0,pi) = H"
          (u Gate.H)
          (u (Gate.U3 (Angle.const (pi /. 2.), Angle.const 0., Angle.const pi)));
        check_mat_phase "u3(t,-pi/2,pi/2) = RX(t)"
          (u (Gate.RX (Angle.const 0.9)))
          (u (Gate.U3 (Angle.const 0.9, Angle.const (-.pi /. 2.), Angle.const (pi /. 2.)))));
    case "CX action on basis" (fun () ->
        let cx = u Gate.CX in
        check_float "CX|10> = |11>" 1.0 (Cx.re (Cmat.get cx 3 2));
        check_float "CX|00> = |00>" 1.0 (Cx.re (Cmat.get cx 0 0)));
    case "SWAP = 3 CX" (fun () ->
        let cx01 = Cmat.embed ~n_qubits:2 (u Gate.CX) ~on:[ 0; 1 ] in
        let cx10 = Cmat.embed ~n_qubits:2 (u Gate.CX) ~on:[ 1; 0 ] in
        check_mat "swap" (u Gate.SWAP) (Cmat.mul cx01 (Cmat.mul cx10 cx01)));
    case "CPhase diagonal" (fun () ->
        let cp = u (Gate.CPhase (Angle.const 0.7)) in
        check_float "phase on |11>" 0.7
          (atan2 (Cx.im (Cmat.get cp 3 3)) (Cx.re (Cmat.get cp 3 3))));
    case "CCX flips only |11x>" (fun () ->
        let m = u Gate.CCX in
        check_float "110->111" 1.0 (Cx.re (Cmat.get m 7 6));
        check_float "101 fixed" 1.0 (Cx.re (Cmat.get m 5 5)));
    case "dagger inverts" (fun () ->
        List.iter
          (fun k ->
            check_mat_phase
              (Gate.mining_label k ^ " dagger")
              (Cmat.identity (1 lsl Gate.arity k))
              (Cmat.mul (u (Gate.dagger k)) (u k)))
          [ Gate.H; Gate.S; Gate.T; Gate.SX; Gate.RX (Angle.const 0.3);
            Gate.RZ (Angle.const 1.2); Gate.CX; Gate.SWAP;
            Gate.CPhase (Angle.const 0.5); Gate.CCX;
            Gate.U3 (Angle.const 0.3, Angle.const 0.7, Angle.const 1.9) ]);
    case "custom gate unitary" (fun () ->
        let bell =
          Gate.make_custom ~name:"bell" ~arity:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        let direct =
          Cmat.mul
            (Cmat.embed ~n_qubits:2 (u Gate.CX) ~on:[ 0; 1 ])
            (Cmat.embed ~n_qubits:2 (u Gate.H) ~on:[ 0 ])
        in
        check_mat "bell" direct (u (Gate.Custom bell)));
    case "interaction weights" (fun () ->
        check_float "cx" 1.0 (Gate.interaction_weight Gate.CX);
        check_float "swap" 3.0 (Gate.interaction_weight Gate.SWAP);
        check_float "h" 0.0 (Gate.interaction_weight Gate.H);
        check_true "cphase partial"
          (Gate.interaction_weight (Gate.CPhase (Angle.const (pi /. 2.))) < 1.0));
    case "operand validation" (fun () ->
        Alcotest.check_raises "duplicate"
          (Invalid_argument "Gate.app: duplicate qubit operand") (fun () ->
            ignore (Gate.app2 Gate.CX 1 1)))
  ]

(* ------------------------------------------------------------------ *)
(* Circuit                                                             *)
(* ------------------------------------------------------------------ *)

let ghz3 =
  Circuit.make ~n_qubits:3
    [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]

let circuit_tests =
  [ case "stats" (fun () ->
        check_int "gates" 3 (Circuit.n_gates ghz3);
        check_int "1q" 1 (Circuit.n_1q ghz3);
        check_int "2q" 2 (Circuit.n_2q ghz3);
        check_int "depth" 3 (Circuit.depth ghz3));
    case "depth counts parallelism" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app1 Gate.H 0; Gate.app1 Gate.H 1; Gate.app2 Gate.CX 2 3 ]
        in
        check_int "depth 1" 1 (Circuit.depth c));
    case "flatten inlines customs" (fun () ->
        let bell =
          Gate.make_custom ~name:"bell" ~arity:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        let c = Circuit.make ~n_qubits:3 [ Gate.app (Gate.Custom bell) [ 2; 0 ] ] in
        let f = Circuit.flatten c in
        check_int "2 gates" 2 (Circuit.n_gates f);
        check_true "equivalent" (Circuit.equivalent c f));
    case "dagger gives inverse" (fun () ->
        let c = ghz3 in
        let id = Circuit.append c (Circuit.dagger c) in
        check_mat_phase "c c† = I" (Cmat.identity 8) (Circuit.unitary id));
    case "map_qubits relabels" (fun () ->
        let m = Circuit.map_qubits (fun q -> 2 - q) ghz3 ~n_qubits:3 in
        match m.Circuit.gates with
        | [ g1; _; _ ] -> check_int "h on 2" 2 (List.hd g1.Gate.qubits)
        | _ -> Alcotest.fail "wrong shape");
    case "bind_params makes concrete" (fun () ->
        let c =
          Circuit.make ~n_qubits:1 [ Gate.app1 (Gate.RZ (Angle.sym "g")) 0 ]
        in
        check_true "symbolic" (Circuit.is_symbolic c);
        let b = Circuit.bind_params [ ("g", 0.5) ] c in
        check_true "concrete" (not (Circuit.is_symbolic b)));
    case "unitary cap" (fun () ->
        let c = Circuit.empty 20 in
        Alcotest.check_raises "cap"
          (Invalid_argument
             "Circuit.unitary: 20 qubits is too large for a dense unitary \
              (cap is 12)") (fun () -> ignore (Circuit.unitary c)));
    case "out-of-range operand rejected" (fun () ->
        check_true "raises"
          (try
             ignore (Circuit.make ~n_qubits:2 [ Gate.app1 Gate.H 5 ]);
             false
           with Invalid_argument _ -> true))
  ]

(* ------------------------------------------------------------------ *)
(* Dag                                                                 *)
(* ------------------------------------------------------------------ *)

let unit_latency d = Array.make (Dag.n_nodes d) 1.0

let dag_tests =
  [ case "ghz dependencies" (fun () ->
        let d = Dag.of_circuit ghz3 in
        check_int "nodes" 3 (Dag.n_nodes d);
        Alcotest.(check (list int)) "succ h" [ 1 ] (Dag.succs d 0);
        Alcotest.(check (list int)) "succ cx01" [ 2 ] (Dag.succs d 1));
    case "schedule and critical path" (fun () ->
        let d = Dag.of_circuit ghz3 in
        let s = Dag.schedule d ~latency:(unit_latency d) in
        check_float "total" 3.0 s.Dag.total;
        check_true "all critical" (Array.for_all Fun.id s.Dag.critical));
    case "cp_after excludes the node itself" (fun () ->
        let d = Dag.of_circuit ghz3 in
        let s = Dag.schedule d ~latency:(unit_latency d) in
        check_float "cp(0)" 2.0 s.Dag.cp_after.(0);
        check_float "cp(2)" 0.0 s.Dag.cp_after.(2));
    case "parallel branch not critical" (fun () ->
        (* q0: H CX(0,1); parallel q2: H -- the lone H is off-path *)
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 2 ]
        in
        let d = Dag.of_circuit c in
        let s = Dag.schedule d ~latency:(unit_latency d) in
        check_true "h2 off-path" (not s.Dag.critical.(2));
        check_true "cx critical" s.Dag.critical.(1));
    case "has_indirect_path" (fun () ->
        (* a -> b -> c with a -> c only through b *)
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ]
        in
        let d = Dag.of_circuit c in
        check_true "0 ->> 2 indirect"
          (Reference_search.has_indirect_path d 0 2);
        check_true "0 -> 1 direct only"
          (not (Reference_search.has_indirect_path d 0 1)));
    case "reachable" (fun () ->
        let d = Dag.of_circuit ghz3 in
        check_true "0 ->* 2" (Reference_search.reachable d 0 2);
        check_true "2 not ->* 0" (not (Reference_search.reachable d 2 0)));
    case "to_circuit roundtrip" (fun () ->
        let d = Dag.of_circuit ghz3 in
        check_true "same gates"
          (Circuit.equivalent ghz3 (Dag.to_circuit d)))
  ]

(* ------------------------------------------------------------------ *)
(* Decompose                                                           *)
(* ------------------------------------------------------------------ *)

let lower_equiv name kind qubits n =
  case name (fun () ->
      let g = Gate.app kind qubits in
      let orig = Circuit.make ~n_qubits:n [ g ] in
      let lowered = Circuit.make ~n_qubits:n (Decompose.lower_app g) in
      check_true "basis only"
        (List.for_all
           (fun (x : Gate.app) -> Decompose.is_basis x.Gate.kind)
           lowered.Circuit.gates);
      check_true "equivalent" (Circuit.equivalent orig lowered))

let decompose_tests =
  [ lower_equiv "lower H" Gate.H [ 0 ] 1;
    lower_equiv "lower Y" Gate.Y [ 0 ] 1;
    lower_equiv "lower Z" Gate.Z [ 0 ] 1;
    lower_equiv "lower SXdg" Gate.SXdg [ 0 ] 1;
    lower_equiv "lower RX" (Gate.RX (Angle.const 1.234)) [ 0 ] 1;
    lower_equiv "lower RY" (Gate.RY (Angle.const (-0.77))) [ 0 ] 1;
    lower_equiv "lower U3"
      (Gate.U3 (Angle.const 0.3, Angle.const 1.1, Angle.const (-2.0)))
      [ 0 ] 1;
    lower_equiv "lower CZ" Gate.CZ [ 0; 1 ] 2;
    lower_equiv "lower SWAP" Gate.SWAP [ 1; 0 ] 2;
    lower_equiv "lower CPhase" (Gate.CPhase (Angle.const 0.9)) [ 0; 1 ] 2;
    lower_equiv "lower CCX" Gate.CCX [ 0; 1; 2 ] 3;
    lower_equiv "lower CCX permuted" Gate.CCX [ 2; 0; 1 ] 3;
    case "ccx_textbook equivalent" (fun () ->
        let c = Circuit.make ~n_qubits:3 (Decompose.ccx_textbook 0 1 2) in
        check_true "equiv"
          (Circuit.equivalent c
             (Circuit.make ~n_qubits:3 [ Gate.app3 Gate.CCX 0 1 2 ])));
    case "symbolic RZ survives lowering" (fun () ->
        let g = Gate.app1 (Gate.RZ (Angle.sym "g")) 0 in
        match Decompose.lower_app g with
        | [ g' ] -> check_true "still rz" (Gate.equal_app g g')
        | _ -> Alcotest.fail "should stay one gate");
    case "symbolic CPhase lowers with scaled angles" (fun () ->
        let g = Gate.app2 (Gate.CPhase (Angle.sym "g")) 0 1 in
        let lowered = Decompose.lower_app g in
        check_int "5 gates" 5 (List.length lowered);
        let c = Circuit.make ~n_qubits:2 lowered in
        let bound = Circuit.bind_params [ ("g", 1.3) ] c in
        check_true "equiv when bound"
          (Circuit.equivalent bound
             (Circuit.make ~n_qubits:2
                [ Gate.app2 (Gate.CPhase (Angle.const 1.3)) 0 1 ])));
    case "peephole cancels CX pairs" (fun () ->
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1 ]
        in
        check_int "empty" 0 (Circuit.n_gates (Decompose.peephole c)));
    case "peephole fuses RZ" (fun () ->
        let c =
          Circuit.make ~n_qubits:1
            [ Gate.app1 (Gate.RZ (Angle.const 0.4)) 0;
              Gate.app1 (Gate.RZ (Angle.const 0.6)) 0 ]
        in
        let p = Decompose.peephole c in
        check_int "one gate" 1 (Circuit.n_gates p);
        check_true "equiv" (Circuit.equivalent c p));
    case "peephole keeps interposed gates" (fun () ->
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.X 1; Gate.app2 Gate.CX 0 1 ]
        in
        check_int "nothing cancelled" 3 (Circuit.n_gates (Decompose.peephole c)))
  ]

(* ------------------------------------------------------------------ *)
(* Qasm                                                                *)
(* ------------------------------------------------------------------ *)

let qasm_tests =
  [ case "parse basic program" (fun () ->
        let src =
          "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
           h q[0];\ncx q[0],q[1];\nrz(pi/4) q[2];\nmeasure q[0] -> c[0];\n"
        in
        let c = Qasm.parse src in
        check_int "qubits" 3 c.Circuit.n_qubits;
        check_int "gates" 3 (Circuit.n_gates c));
    case "parameter expressions" (fun () ->
        let c = Qasm.parse "qreg q[1]; rz(2*pi/8) q[0]; rx(-0.5) q[0];" in
        match c.Circuit.gates with
        | [ { Gate.kind = Gate.RZ a; _ }; { Gate.kind = Gate.RX b; _ } ] ->
          check_float "2pi/8" (pi /. 4.) (Angle.value a);
          check_float "-0.5" (-0.5) (Angle.value b)
        | _ -> Alcotest.fail "wrong gates");
    case "symbolic parameters" (fun () ->
        let c = Qasm.parse "qreg q[1]; rz(gamma) q[0]; rz(0.5*beta) q[0];" in
        check_true "symbolic" (Circuit.is_symbolic c));
    case "u2 and cu1" (fun () ->
        let c = Qasm.parse "qreg q[2]; u2(0,pi) q[0]; cu1(pi/2) q[0],q[1];" in
        check_int "2 gates" 2 (Circuit.n_gates c));
    case "roundtrip through printer" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0;
              Gate.app1 (Gate.RZ (Angle.const 0.25)) 1;
              Gate.app2 Gate.CX 0 2;
              Gate.app2 (Gate.CPhase (Angle.const 0.5)) 1 2 ]
        in
        let c' = Qasm.parse (Qasm.to_qasm c) in
        check_true "equivalent" (Circuit.equivalent c c'));
    case "errors carry line numbers" (fun () ->
        check_true "raises"
          (try
             ignore (Qasm.parse "qreg q[2];\nbadgate q[0];");
             false
           with Qasm.Parse_error msg ->
             check_true "mentions line 2"
               (String.length msg >= 6 && String.sub msg 0 6 = "line 2");
             true));
    case "user gate definitions" (fun () ->
        let src =
          "qreg q[3];\n\
           gate maj a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n\
           gate zz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\n\
           maj q[0],q[1],q[2];\n\
           zz(0.7) q[1],q[2];\n"
        in
        let c = Qasm.parse src in
        check_int "two applications" 2 (Circuit.n_gates c);
        (* the defined gates mean what their bodies mean *)
        let expected =
          Circuit.make ~n_qubits:3
            [ Gate.app2 Gate.CX 2 1; Gate.app2 Gate.CX 2 0;
              Gate.app3 Gate.CCX 0 1 2;
              Gate.app2 Gate.CX 1 2;
              Gate.app1 (Gate.RZ (Angle.const 0.7)) 2;
              Gate.app2 Gate.CX 1 2 ]
        in
        check_true "semantics" (Circuit.equivalent c expected));
    case "nested gate definitions" (fun () ->
        let src =
          "qreg q[2];\n\
           gate mycx a,b { cx a,b; }\n\
           gate bell a,b { h a; mycx a,b; }\n\
           bell q[0],q[1];\n"
        in
        let c = Qasm.parse src in
        let expected =
          Circuit.make ~n_qubits:2 [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        check_true "nested" (Circuit.equivalent c expected));
    case "defined-gate errors" (fun () ->
        check_true "wrong arity param"
          (try ignore (Qasm.parse "qreg q[2]; gate g(a) x { rz(a) x; } g q[0];"); false
           with Qasm.Parse_error _ -> true);
        check_true "unknown wire"
          (try ignore (Qasm.parse "qreg q[2]; gate g a { h b; } g(0.1) q[0];"); false
           with Qasm.Parse_error _ -> true));
    case "unknown register" (fun () ->
        check_true "raises"
          (try ignore (Qasm.parse "qreg q[2]; h r[0];"); false
           with Qasm.Parse_error _ -> true))
  ]

(* ------------------------------------------------------------------ *)
(* Rewrite                                                             *)
(* ------------------------------------------------------------------ *)

let rewrite_tests =
  [ case "custom_of_nodes packages gates" (fun () ->
        let d = Dag.of_circuit ghz3 in
        let app = Rewrite.custom_of_nodes d [ 0; 1 ] ~name:"g" in
        check_int "arity 2" 2 (List.length app.Gate.qubits));
    case "is_convex" (fun () ->
        (* H(0); CX(0,1); H(1): {0,2} is not convex (path through 1) *)
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ]
        in
        let d = Dag.of_circuit c in
        check_true "{0,2} not convex" (not (Dag.is_convex d [ 0; 2 ]));
        check_true "{0,1} convex" (Dag.is_convex d [ 0; 1 ]);
        check_true "{0,1,2} convex" (Dag.is_convex d [ 0; 1; 2 ]));
    case "contract preserves unitary" (fun () ->
        let d = Dag.of_circuit ghz3 in
        let app = Rewrite.custom_of_nodes d [ 0; 1 ] ~name:"g" in
        let c' = Rewrite.contract ghz3 [ ([ 0; 1 ], app) ] in
        check_int "2 gates" 2 (Circuit.n_gates c');
        check_true "equiv" (Circuit.equivalent ghz3 c'));
    case "contract rejects overlap" (fun () ->
        let d = Dag.of_circuit ghz3 in
        let a1 = Rewrite.custom_of_nodes d [ 0; 1 ] ~name:"a" in
        let a2 = Rewrite.custom_of_nodes d [ 1; 2 ] ~name:"b" in
        check_true "raises"
          (try
             ignore (Rewrite.contract ghz3 [ ([ 0; 1 ], a1); ([ 1; 2 ], a2) ]);
             false
           with Invalid_argument _ -> true));
    case "contract rejects non-convex" (fun () ->
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ]
        in
        let d = Dag.of_circuit c in
        let app = Rewrite.custom_of_nodes d [ 0; 2 ] ~name:"bad" in
        check_true "raises"
          (try ignore (Rewrite.contract c [ ([ 0; 2 ], app) ]); false
           with Invalid_argument _ -> true))
  ]

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_tests =
  [ qcheck
      (QCheck.Test.make ~count:80 ~name:"peephole preserves unitary"
         (arb_circuit ~n:3 ~max_gates:14 ())
         (fun c -> Circuit.equivalent c (Decompose.peephole c)));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"to_basis preserves unitary"
         (arb_circuit ~n:3 ~max_gates:10 ())
         (fun c -> Circuit.equivalent c (Decompose.to_basis c)));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"to_basis emits only basis gates"
         (arb_circuit ~n:3 ~max_gates:10 ())
         (fun c ->
           List.for_all
             (fun (g : Gate.app) -> Decompose.is_basis g.Gate.kind)
             (Decompose.to_basis c).Circuit.gates));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"qasm roundtrip"
         (arb_circuit ~n:3 ~max_gates:10 ())
         (fun c -> Circuit.equivalent c (Qasm.parse (Qasm.to_qasm c))));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"dagger . dagger = id"
         (arb_circuit ~n:3 ~max_gates:10 ())
         (fun c -> Circuit.equivalent c (Circuit.dagger (Circuit.dagger c))));
    qcheck
      (QCheck.Test.make ~count:40 ~name:"schedule total >= depth-1 lower bound"
         (arb_circuit ~n:3 ~max_gates:12 ())
         (fun c ->
           let d = Dag.of_circuit c in
           let s = Dag.schedule d ~latency:(unit_latency d) in
           s.Dag.total >= float_of_int (Circuit.depth c) -. 1e-9))
  ]

(* ------------------------------------------------------------------ *)
(* in-place contraction vs the global-Kahn oracle                      *)
(* ------------------------------------------------------------------ *)

(* a random set of groups over [dag]'s nodes: DAG-edge pairs, grown
   connected sets (convex or not), arbitrary node sets (whose windows
   interleave with the others'), and now and then a node reused from an
   earlier group (overlap) *)
let random_groups st dag =
  let n = Dag.n_nodes dag in
  let used = Array.make n false in
  let fresh () =
    let free = List.filter (fun v -> not used.(v)) (List.init n Fun.id) in
    match free with
    | [] -> None
    | _ -> Some (List.nth free (Random.State.int st (List.length free)))
  in
  let pick () =
    if Random.State.int st 12 = 0 then Some (Random.State.int st n) else fresh ()
  in
  let neighbours v = Dag.succs dag v @ Dag.preds dag v in
  let grow start size =
    let rec go set k =
      if k = 0 then set
      else
        let frontier =
          List.concat_map neighbours set
          |> List.filter (fun w -> (not (List.mem w set)) && not used.(w))
        in
        match frontier with
        | [] -> set
        | _ ->
          go (List.nth frontier (Random.State.int st (List.length frontier)) :: set)
            (k - 1)
    in
    go [ start ] (size - 1)
  in
  let k = 1 + Random.State.int st 3 in
  List.filter_map
    (fun i ->
      let nodes =
        match pick () with
        | None -> []
        | Some v -> (
          match Random.State.int st 3 with
          | 0 -> (
            match List.filter (fun w -> not used.(w)) (Dag.succs dag v) with
            | [] -> [ v ]
            | ws -> [ v; List.nth ws (Random.State.int st (List.length ws)) ])
          | 1 -> grow v (2 + Random.State.int st 3)
          | _ ->
            v
            :: List.filter_map
                 (fun _ -> pick ())
                 (List.init (Random.State.int st 3) Fun.id)
            |> List.sort_uniq compare)
      in
      if nodes = [] then None
      else begin
        List.iter (fun v -> used.(v) <- true) nodes;
        Some
          ( nodes,
            Rewrite.custom_of_nodes dag nodes ~name:(Printf.sprintf "w%d" i) )
      end)
    (List.init k Fun.id)

let raises f = try ignore (f ()); false with Invalid_argument _ -> true

(* everything an edit may write, per id *)
let snapshot d =
  Array.init (Dag.n_nodes d) (fun v ->
      (Dag.is_live d v, Dag.gate d v, Dag.succs d v, Dag.preds d v))

let same_snapshot a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (l, g, s, p) (l', g', s', p') ->
         l = l' && g == g' && s = s' && p = p')
       a b

(* In-place edits held to the global-Kahn oracle
   ([Reference_search.contract_mapped]), [steps] edits on one DAG: the
   first on the fresh DAG, each later one on the ids with the holes the
   earlier ones left. Every edit raises exactly when the oracle does on
   the dense equivalent, and a refused edit writes nothing. Otherwise
   the gates come out in the oracle's order; the live ids, compacted,
   carry the lists [of_circuit] builds from the oracle's circuit, in
   list order; what each live id holds (its own node, an edited
   window's survivor or a replacement) is the oracle's [old_of_new];
   and an undo restores the DAG. *)
let check_edit_oracle st c ~steps =
  let d = Dag.of_circuit c in
  let ed = Dag.editor d in
  for _ = 1 to steps do
    let live = Array.of_list (Dag.nodes d) in
    let dense_of = Array.make (Dag.n_nodes d) (-1) in
    Array.iteri (fun i v -> dense_of.(v) <- i) live;
    let dense = Dag.to_circuit d in
    let groups = random_groups st (Dag.of_circuit dense) in
    let holed =
      List.map (fun (ns, app) -> (List.map (Array.get live) ns, app)) groups
    in
    let before = snapshot d in
    match Reference_search.contract_mapped dense groups with
    | exception Invalid_argument _ ->
      if not (raises (fun () -> Dag.edit ed holed)) then
        Alcotest.fail "the oracle raises, Dag.edit does not";
      check_true "a refused edit writes nothing"
        (same_snapshot before (snapshot d))
    | oc, old_of_new ->
      if raises (fun () -> Dag.edit ed holed) then
        Alcotest.fail "Dag.edit raises, the oracle does not";
      check_true "gate order"
        (Circuit.to_string (Dag.to_circuit d) = Circuit.to_string oc);
      let now = Array.of_list (Dag.nodes d) in
      let pos = Array.make (Dag.n_nodes d) (-1) in
      Array.iteri (fun i v -> pos.(v) <- i) now;
      let od = Dag.of_circuit oc in
      check_int "node count" (Dag.n_nodes od) (Array.length now);
      let relabel = List.map (Array.get pos) in
      Array.iteri
        (fun i v ->
          if relabel (Dag.succs d v) <> Dag.succs od i then
            Alcotest.failf "succs of %d differ from the oracle's" v;
          if relabel (Dag.preds d v) <> Dag.preds od i then
            Alcotest.failf "preds of %d differ from the oracle's" v)
        now;
      (* an id outside the windows still holds its own node *)
      let origin = Array.map (Array.get dense_of) now in
      for i = 0 to Dag.edit_size ed - 1 do
        let j = Dag.edit_id ed i and o = Dag.edit_origin ed i in
        if o = Dag.hole then
          check_true "a freed id is dead" (not (Dag.is_live d j))
        else origin.(pos.(j)) <- (if o >= 0 then dense_of.(o) else o)
      done;
      if origin <> old_of_new then
        Alcotest.fail "origins differ from the oracle's old_of_new";
      if Random.State.bool st then begin
        Dag.undo ed;
        check_true "undo restores the DAG" (same_snapshot before (snapshot d))
      end
      else Dag.keep ed
  done

(* In the case names, [Dag.contract] is the contraction of a fresh DAG:
   [Dag.edit] on [of_circuit]'s ids, as [Rewrite.contract] runs it. The
   second case holds edits on holed ids to the same oracle, on the
   dense equivalent, and so to that contraction. *)
let contract_tests =
  [ qcheck
      (QCheck.Test.make ~count:150
         ~name:"Dag.contract == global-Kahn oracle on random groups"
         (arb_circuit ~n:4 ~max_gates:16 ())
         (fun c ->
           (* seed the groups from the circuit so failures replay *)
           let st = Random.State.make [| 0xc0de; Circuit.n_gates c |] in
           for _ = 1 to 8 do
             check_edit_oracle st c ~steps:1
           done;
           true));
    qcheck
      (QCheck.Test.make ~count:150
         ~name:"Dag.edit in place == Dag.contract, holes and undo"
         (arb_circuit ~n:4 ~max_gates:16 ())
         (fun c ->
           let st = Random.State.make [| 0xed17; Circuit.n_gates c |] in
           check_edit_oracle st c ~steps:6;
           true))
  ]

(* Every adjacency list is strictly descending (largest id first), the
   order pre-merging's ascending walk reads back to front. *)
let check_descending what d =
  let rec strictly = function
    | a :: (b :: _ as rest) -> a > b && strictly rest
    | _ -> true
  in
  for v = 0 to Dag.n_nodes d - 1 do
    if not (strictly (Dag.succs d v)) then
      Alcotest.failf "%s: succs of %d are not strictly descending" what v;
    if not (strictly (Dag.preds d v)) then
      Alcotest.failf "%s: preds of %d are not strictly descending" what v
  done

let order_case =
  qcheck
    (QCheck.Test.make ~count:150
       ~name:"adjacency lists stay strictly descending through every edit"
       (arb_circuit ~n:4 ~max_gates:16 ())
       (fun c ->
         check_descending "of_circuit" (Dag.of_circuit c);
         let st = Random.State.make [| 0xde5c; Circuit.n_gates c |] in
         let d = Dag.of_circuit c in
         let ed = Dag.editor d in
         for _ = 1 to 6 do
           let live = Array.of_list (Dag.nodes d) in
           let dense = Dag.of_circuit (Dag.to_circuit d) in
           let groups = random_groups st dense in
           let holed =
             List.map (fun (ns, app) -> (List.map (Array.get live) ns, app))
               groups
           in
           match Dag.edit ed holed with
           | exception Invalid_argument _ -> ()
           | () ->
             check_descending "edit" d;
             if Random.State.bool st then begin
               Dag.undo ed;
               check_descending "undo" d
             end
             else begin
               Dag.keep ed;
               check_descending "keep" d
             end
         done;
         true))

(* The critical test's relative 1e-9 slack. On a one-wire chain priced
   0.1, 0.2, 0.3 the total is (0.1 + 0.2) + 0.3 = 0.6000000000000001,
   but the first node's est + latency + cp_after is 0.1 + (0.2 + 0.3) =
   0.6: the two sums associate differently, so an exact comparison
   would drop a node that lies on the only path. *)
let slack_case =
  case "critical flags absorb the rounding of a three-gate chain" (fun () ->
      let c =
        Circuit.make ~n_qubits:1
          [ Gate.app1 Gate.H 0; Gate.app1 Gate.X 0; Gate.app1 Gate.SX 0 ]
      in
      let s = Dag.schedule (Dag.of_circuit c) ~latency:[| 0.1; 0.2; 0.3 |] in
      check_true "total is (0.1 + 0.2) + 0.3"
        (Int64.bits_of_float s.Dag.total
        = Int64.bits_of_float 0.6000000000000001);
      check_true "node 0's path sums to 0.6"
        (s.Dag.est.(0) +. s.Dag.latency.(0) +. s.Dag.cp_after.(0) = 0.6);
      Array.iteri
        (fun v critical ->
          if not critical then Alcotest.failf "node %d is not critical" v)
        s.Dag.critical)

let suite =
  angle_tests @ gate_tests @ circuit_tests @ dag_tests @ decompose_tests
  @ qasm_tests @ rewrite_tests @ prop_tests @ contract_tests
  @ [ order_case; slack_case ]
