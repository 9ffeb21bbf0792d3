open Test_util
module Comm = Paqoc_circuit.Commutation

let cx a b = Gate.app2 Gate.CX a b
let rz t q = Gate.app1 (Gate.RZ (Angle.const t)) q
let xg q = Gate.app1 Gate.X q
let hg q = Gate.app1 Gate.H q

let commute_tests =
  [ case "disjoint gates commute" (fun () ->
        check_true "h0 / x1" (Comm.commute (hg 0) (xg 1));
        check_true "cx01 / cx23" (Comm.commute (cx 0 1) (cx 2 3)));
    case "diagonal gates commute" (fun () ->
        check_true "rz / rz" (Comm.commute (rz 0.3 0) (rz 0.9 0));
        check_true "rz / cz" (Comm.commute (rz 0.3 0) (Gate.app2 Gate.CZ 0 1));
        check_true "t / cphase"
          (Comm.commute (Gate.app1 Gate.T 1)
             (Gate.app2 (Gate.CPhase (Angle.const 0.4)) 0 1)));
    case "rz slides through a CX control, not its target" (fun () ->
        check_true "control" (Comm.commute (rz 0.7 0) (cx 0 1));
        check_true "target" (not (Comm.commute (rz 0.7 1) (cx 0 1))));
    case "x slides through a CX target, not its control" (fun () ->
        check_true "target" (Comm.commute (xg 1) (cx 0 1));
        check_true "control" (not (Comm.commute (xg 0) (cx 0 1))));
    case "CX pairs" (fun () ->
        check_true "shared control" (Comm.commute (cx 0 1) (cx 0 2));
        check_true "shared target" (Comm.commute (cx 0 2) (cx 1 2));
        check_true "control-target chain" (not (Comm.commute (cx 0 1) (cx 1 2)));
        check_true "self" (Comm.commute (cx 0 1) (cx 0 1)));
    case "exact fallback agrees with matrices" (fun () ->
        (* sx on the target of a CZ does not commute; the rule table has no
           entry, so this exercises the unitary check *)
        check_true "sx vs cz"
          (not (Comm.commute (Gate.app1 Gate.SX 1) (Gate.app2 Gate.CZ 0 1)));
        check_true "swap symmetric commute"
          (Comm.commute (Gate.app2 Gate.SWAP 0 1) (Gate.app2 Gate.SWAP 1 0)));
    case "symbolic parameters are conservative" (fun () ->
        let sym = Gate.app1 (Gate.RX (Angle.sym "b")) 1 in
        (* rx on a CX target commutes by rule even when symbolic *)
        check_true "rule still fires" (Comm.commute sym (cx 0 1));
        (* but an unknown-case symbolic pair must refuse rather than guess *)
        let symz = Gate.app1 (Gate.RZ (Angle.sym "g")) 1 in
        check_true "conservative"
          (not (Comm.commute symz (Gate.app2 Gate.SWAP 0 1))))
  ]

let normalize_tests =
  [ case "normalize regroups around a sliding RZ" (fun () ->
        (* cx01; rz(control 0); cx01 — the rz commutes through, so the two
           CXs can become adjacent (and later cancel) *)
        let c = Circuit.make ~n_qubits:2 [ cx 0 1; rz 0.4 0; cx 0 1 ] in
        let n = Comm.normalize c in
        check_true "unitary preserved (exactly)"
          (Cmat.equal ~tol:1e-9 (Circuit.unitary c) (Circuit.unitary n));
        (* the two CXs are now adjacent *)
        let kinds = List.map (fun (g : Gate.app) -> Gate.name g.Gate.kind) n.Circuit.gates in
        check_true "cx adjacent"
          (kinds = [ "cx"; "cx"; "rz" ] || kinds = [ "rz"; "cx"; "cx" ]));
    case "normalize never reorders non-commuting gates" (fun () ->
        let c = Circuit.make ~n_qubits:2 [ cx 0 1; hg 1; cx 0 1 ] in
        let n = Comm.normalize c in
        check_true "unchanged"
          (List.for_all2 Gate.equal_app c.Circuit.gates n.Circuit.gates));
    case "normalize is idempotent" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ cx 0 1; rz 0.4 0; xg 1; cx 0 1; hg 2; cx 1 2; rz 0.2 1 ]
        in
        let n1 = Comm.normalize c in
        let n2 = Comm.normalize n1 in
        check_true "fixpoint"
          (List.for_all2 Gate.equal_app n1.Circuit.gates n2.Circuit.gates))
  ]

let prop_tests =
  [ qcheck
      (QCheck.Test.make ~count:60 ~name:"normalize preserves the unitary exactly"
         (arb_circuit ~n:3 ~max_gates:16 ())
         (fun c ->
           Cmat.equal ~tol:1e-8 (Circuit.unitary c)
             (Circuit.unitary (Comm.normalize c))));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"commute is symmetric"
         (QCheck.make
            (QCheck.Gen.pair (gen_gate 3) (gen_gate 3)))
         (fun (a, b) -> Comm.commute a b = Comm.commute b a));
    qcheck
      (QCheck.Test.make ~count:60
         ~name:"commute agrees with the unitary commutator"
         (QCheck.make (QCheck.Gen.pair (gen_gate 3) (gen_gate 3)))
         (fun (a, b) ->
           let union = List.sort_uniq compare (a.Gate.qubits @ b.Gate.qubits) in
           let tbl = Hashtbl.create 8 in
           List.iteri (fun i q -> Hashtbl.add tbl q i) union;
           let loc (g : Gate.app) =
             { g with Gate.qubits = List.map (Hashtbl.find tbl) g.Gate.qubits }
           in
           let n = List.length union in
           let ua = Gate.unitary_of_apps ~n_qubits:n [ loc a ] in
           let ub = Gate.unitary_of_apps ~n_qubits:n [ loc b ] in
           let really =
             Cmat.equal ~tol:1e-9 (Cmat.mul ua ub) (Cmat.mul ub ua)
           in
           (* the decision procedure may be conservative (false when the
              matrices commute) but must never claim commutation wrongly *)
           (not (Comm.commute a b)) || really))
  ]

let suite = commute_tests @ normalize_tests @ prop_tests
