open Test_util
module Coupling = Paqoc_topology.Coupling
module Layout = Paqoc_topology.Layout
module Sabre = Paqoc_topology.Sabre
module Transpile = Paqoc_topology.Transpile
module Decompose = Paqoc_circuit.Decompose
module Device = Paqoc_topology.Device
module Suite = Paqoc_benchmarks.Suite

(* ------------------------------------------------------------------ *)
(* Coupling                                                            *)
(* ------------------------------------------------------------------ *)

let coupling_tests =
  [ case "grid neighbours" (fun () ->
        let g = Coupling.grid ~rows:3 ~cols:3 in
        Alcotest.(check (list int)) "corner" [ 1; 3 ] (Coupling.neighbors g 0);
        Alcotest.(check (list int)) "centre" [ 1; 3; 5; 7 ] (Coupling.neighbors g 4));
    case "grid distances" (fun () ->
        let g = Coupling.grid ~rows:3 ~cols:3 in
        check_int "manhattan corner-corner" 4 (Coupling.distance g 0 8);
        check_int "adjacent" 1 (Coupling.distance g 0 1);
        check_int "self" 0 (Coupling.distance g 4 4));
    case "line and ring" (fun () ->
        let l = Coupling.line 5 and r = Coupling.ring 5 in
        check_int "line end-to-end" 4 (Coupling.distance l 0 4);
        check_int "ring wraps" 1 (Coupling.distance r 0 4));
    case "edges symmetric and deduped" (fun () ->
        let g = Coupling.of_edges ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
        check_int "2 edges" 2 (List.length (Coupling.edges g)));
    case "heavy-hex lattice" (fun () ->
        let g = Coupling.heavy_hex ~distance:3 in
        check_true "non-trivial" (Coupling.n_qubits g > 15);
        (* connected *)
        for q = 1 to Coupling.n_qubits g - 1 do
          check_true "connected" (Coupling.distance g 0 q < max_int)
        done;
        (* the heavy-hex degree bound: no qubit exceeds degree 3 *)
        for q = 0 to Coupling.n_qubits g - 1 do
          check_true "degree <= 3" (List.length (Coupling.neighbors g q) <= 3)
        done;
        check_true "even distance rejected"
          (try ignore (Coupling.heavy_hex ~distance:4); false
           with Invalid_argument _ -> true));
    case "invalid edges rejected" (fun () ->
        check_true "self loop"
          (try ignore (Coupling.of_edges ~n:2 [ (0, 0) ]); false
           with Invalid_argument _ -> true);
        check_true "out of range"
          (try ignore (Coupling.of_edges ~n:2 [ (0, 5) ]); false
           with Invalid_argument _ -> true))
  ]

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let layout_tests =
  [ case "trivial layout" (fun () ->
        let l = Layout.trivial ~n_logical:3 ~n_physical:5 in
        check_int "phys 2" 2 (Layout.phys l 2);
        check_int "log 2" 2 (Layout.log l 2);
        check_int "unoccupied" (-1) (Layout.log l 4));
    case "swap_physical" (fun () ->
        let l = Layout.trivial ~n_logical:2 ~n_physical:3 in
        Layout.swap_physical l 0 2;
        check_int "logical 0 moved" 2 (Layout.phys l 0);
        check_int "phys 0 empty" (-1) (Layout.log l 0);
        Layout.swap_physical l 2 1;
        check_int "logical 0 again" 1 (Layout.phys l 0);
        check_int "logical 1 moved" 2 (Layout.phys l 1));
    case "duplicate assignment rejected" (fun () ->
        check_true "raises"
          (try ignore (Layout.of_array [| 1; 1 |] ~n_physical:3); false
           with Invalid_argument _ -> true))
  ]

(* ------------------------------------------------------------------ *)
(* Sabre                                                               *)
(* ------------------------------------------------------------------ *)

(* The routed circuit must be semantically the original conjugated by the
   initial/final layout permutations: for a state prepared on physical
   wires, routed = embed(final) . original(logical) . embed(initial)^-1.
   We verify by comparing unitaries on small devices. *)
let check_routing_semantics (c : Circuit.t) device =
  let r = Sabre.route c device in
  let np = Coupling.n_qubits device in
  check_true "all 2q gates coupled"
    (List.for_all
       (fun (g : Gate.app) ->
         match g.Gate.qubits with
         | [ a; b ] -> Coupling.are_coupled device a b
         | _ -> true)
       r.Sabre.physical.Circuit.gates);
  if np <= 4 then begin
    (* routed unitary, with logical wires traced through the layouts *)
    let routed_u = Circuit.unitary r.Sabre.physical in
    (* build the expected unitary: logical circuit embedded at the initial
       layout, then a wire permutation from initial to final placement *)
    let embedded =
      Gate.unitary_of_apps ~n_qubits:np
        (List.map
           (fun (g : Gate.app) ->
             { g with
               Gate.qubits =
                 List.map (Layout.phys r.Sabre.initial) g.Gate.qubits
             })
           c.Circuit.gates)
    in
    (* permutation taking initial placement to final placement *)
    let perm_gates = ref [] in
    let current = Layout.copy r.Sabre.initial in
    (* realise the final layout with explicit SWAP unitaries *)
    for l = 0 to Layout.n_logical current - 1 do
      let want = Layout.phys r.Sabre.final l in
      let have = Layout.phys current l in
      if want <> have then begin
        perm_gates := Gate.app2 Gate.SWAP have want :: !perm_gates;
        Layout.swap_physical current have want
      end
    done;
    let perm_u = Gate.unitary_of_apps ~n_qubits:np (List.rev !perm_gates) in
    let expected = Cmat.mul perm_u embedded in
    check_mat_phase "routing semantics" expected routed_u
  end

let sabre_tests =
  [ case "already-routable circuit untouched" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let r = Sabre.route c (Coupling.line 3) in
        check_int "no swaps" 0 r.Sabre.swaps_added);
    case "distant pair needs swaps" (fun () ->
        let c = Circuit.make ~n_qubits:4 [ Gate.app2 Gate.CX 0 3 ] in
        let r = Sabre.route c (Coupling.line 4) in
        check_true "swaps added" (r.Sabre.swaps_added >= 2));
    case "semantics on line 3" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 2; Gate.app1 Gate.T 1;
              Gate.app2 Gate.CX 2 1 ]
        in
        check_routing_semantics c (Coupling.line 3));
    case "semantics on line 4" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 3; Gate.app2 Gate.CX 1 2;
              Gate.app2 Gate.CX 3 1; Gate.app1 Gate.H 2;
              Gate.app2 Gate.CX 0 2 ]
        in
        check_routing_semantics c (Coupling.line 4));
    case "semantics on 2x2 grid" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 3; Gate.app2 Gate.CX 2 1;
              Gate.app2 Gate.CX 1 3; Gate.app2 Gate.CX 0 1 ]
        in
        check_routing_semantics c (Coupling.grid ~rows:2 ~cols:2));
    case "3q gates rejected" (fun () ->
        let c = Circuit.make ~n_qubits:3 [ Gate.app3 Gate.CCX 0 1 2 ] in
        check_true "raises"
          (try ignore (Sabre.route c (Coupling.line 3)); false
           with Invalid_argument _ -> true));
    case "device too small rejected" (fun () ->
        let c = Circuit.empty 5 in
        check_true "raises"
          (try ignore (Sabre.route c (Coupling.line 3)); false
           with Invalid_argument _ -> true));
    case "routing is deterministic" (fun () ->
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 3; Gate.app2 Gate.CX 1 2; Gate.app2 Gate.CX 0 2 ]
        in
        let r1 = Sabre.route c (Coupling.line 4) in
        let r2 = Sabre.route c (Coupling.line 4) in
        check_true "same output"
          (List.for_all2 Gate.equal_app r1.Sabre.physical.Circuit.gates
             r2.Sabre.physical.Circuit.gates))
  ]

(* ------------------------------------------------------------------ *)
(* Transpile                                                           *)
(* ------------------------------------------------------------------ *)

let transpile_tests =
  [ case "output is basis-only" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app3 Gate.CCX 0 1 2; Gate.app1 Gate.H 0;
              Gate.app2 (Gate.CPhase (Angle.const 0.5)) 1 2 ]
        in
        let t = Transpile.run c in
        check_true "basis gates"
          (List.for_all
             (fun (g : Gate.app) -> Decompose.is_basis g.Gate.kind)
             t.Transpile.physical.Circuit.gates));
    case "small-device transpile preserves semantics" (fun () ->
        (* on a matching line device with trivial layout we can compare
           unitaries directly when no swaps were inserted *)
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let t = Transpile.run ~coupling:(Coupling.line 3) c in
        check_int "no swaps" 0 t.Transpile.swaps_added;
        check_true "equiv" (Circuit.equivalent c t.Transpile.physical));
    case "default device is the paper's 5x5 grid" (fun () ->
        check_int "25 qubits" 25 (Coupling.n_qubits Transpile.default_device))
  ]

let prop_tests =
  [ qcheck
      (QCheck.Test.make ~count:30 ~name:"routing semantics (random, line 3)"
         (arb_circuit ~n:3 ~max_gates:8 ())
         (fun c ->
           check_routing_semantics c (Coupling.line 3);
           true));
    qcheck
      (QCheck.Test.make ~count:20 ~name:"transpile emits only coupled 2q gates"
         (arb_circuit ~n:4 ~max_gates:10 ())
         (fun c ->
           let t = Transpile.run ~coupling:(Coupling.grid ~rows:2 ~cols:2) c in
           List.for_all
             (fun (g : Gate.app) ->
               match g.Gate.qubits with
               | [ a; b ] -> Coupling.are_coupled t.Transpile.coupling a b
               | _ -> true)
             t.Transpile.physical.Circuit.gates))
  ]

(* ------------------------------------------------------------------ *)
(* The router against its oracle                                       *)
(* ------------------------------------------------------------------ *)

(* what Transpile.run hands the router: every gate with three or more
   operands (and every custom body) lowered, SWAP kept *)
let lowered (c : Circuit.t) =
  let rec lower (g : Gate.app) =
    match g.Gate.kind with
    | Gate.Custom _ | Gate.CCX -> List.concat_map lower (Decompose.lower_app g)
    | _ -> [ g ]
  in
  { c with Circuit.gates = List.concat_map lower c.Circuit.gates }

let same_layout (a : Layout.t) (b : Layout.t) =
  Layout.n_logical a = Layout.n_logical b
  && Layout.n_physical a = Layout.n_physical b
  && List.for_all
       (fun l -> Layout.phys a l = Layout.phys b l)
       (List.init (Layout.n_logical a) Fun.id)
  && List.for_all
       (fun p -> Layout.log a p = Layout.log b p)
       (List.init (Layout.n_physical a) Fun.id)

(* [Sabre.route] and the test-side oracle agree on a routing: the same
   physical gate list, both layouts and the swap count, or both refuse
   the circuit with the same exception constructor *)
let check_against_oracle what c cg =
  let outcome f =
    match f () with
    | r -> Ok r
    | exception Invalid_argument _ -> Error "Invalid_argument"
    | exception Failure _ -> Error "Failure"
  in
  match
    ( outcome (fun () -> Sabre.route c cg),
      outcome (fun () -> Reference_sabre.route c cg) )
  with
  | Error a, Error b ->
    if a <> b then Alcotest.failf "%s: raises %s, the oracle %s" what a b
  | Ok _, Error b -> Alcotest.failf "%s: the oracle raises %s" what b
  | Error a, Ok _ -> Alcotest.failf "%s: Sabre.route raises %s" what a
  | Ok r, Ok o ->
    if r.Sabre.swaps_added <> o.Reference_sabre.swaps_added then
      Alcotest.failf "%s: %d swaps, the oracle %d" what r.Sabre.swaps_added
        o.Reference_sabre.swaps_added;
    if Circuit.to_string r.Sabre.physical
       <> Circuit.to_string o.Reference_sabre.physical
    then Alcotest.failf "%s: the physical gate list differs" what;
    if not (same_layout r.Sabre.initial o.Reference_sabre.initial) then
      Alcotest.failf "%s: the initial layout differs" what;
    if not (same_layout r.Sabre.final o.Reference_sabre.final) then
      Alcotest.failf "%s: the final layout differs" what

let oracle_case =
  slow_case "Sabre.route == the oracle router on benchmarks and random circuits"
    (fun () ->
      List.iter
        (fun dev ->
          List.iter
            (fun (e : Suite.entry) ->
              check_against_oracle
                (Printf.sprintf "%s on %s" e.Suite.name (Device.name dev))
                (lowered (e.Suite.build ()))
                (Device.coupling dev))
            (Suite.all @ Suite.extras))
        Device.all;
      let devices =
        [ ("line 5", Coupling.line 5); ("ring 6", Coupling.ring 6);
          ("grid 2x3", Coupling.grid ~rows:2 ~cols:3);
          ("grid 3x3", Coupling.grid ~rows:3 ~cols:3)
        ]
      in
      List.iter
        (fun (name, cg) ->
          let np = Coupling.n_qubits cg in
          for seed = 1 to 40 do
            let rand = Random.State.make [| 0x5ab7e; seed; np |] in
            let n = 2 + Random.State.int rand (np - 1) in
            let c =
              QCheck.Gen.generate1 ~rand (gen_circuit ~n ~max_gates:40 ())
            in
            check_against_oracle
              (Printf.sprintf "random circuit %d on %s" seed name)
              c cg
          done)
        devices)

(* Routing dnn's lowered circuit on the 5x5 lattice (1,200 gates, 690
   SWAPs) allocates 167,947 minor words: the front and extended-set
   operand pairs live in route-level arrays and each candidate is scored
   once, summing int distances. The router that sorted the candidates
   with a rescoring comparator and folded float distances through
   closures (test/reference_sabre.ml) spent 3,084,140. The budget is
   about twice the measured figure. *)
let route_budget_words = 340_000.0

let route_budget_case =
  case "routing dnn stays under the minor-word budget" (fun () ->
      let c = lowered ((Suite.find "dnn").Suite.build ()) in
      let cg = Transpile.default_device in
      let swaps = (Sabre.route c cg).Sabre.swaps_added in
      let reps = 5 in
      let before = Gc.minor_words () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (Sabre.route c cg))
      done;
      let per = (Gc.minor_words () -. before) /. float_of_int reps in
      if per > route_budget_words then
        Alcotest.failf
          "routing dnn (%d gates, %d swaps) allocates %.0f minor words, over \
           the %.0f budget"
          (Circuit.n_gates c) swaps per route_budget_words)

let suite =
  coupling_tests @ layout_tests @ sabre_tests @ transpile_tests @ prop_tests
  @ [ oracle_case; route_budget_case ]

