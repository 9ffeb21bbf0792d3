(* Shared helpers for the PAQOC test suite. *)

module Cx = Paqoc_linalg.Cx
module Cmat = Paqoc_linalg.Cmat
module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Angle = Paqoc_circuit.Angle

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

let check_true msg b = Alcotest.check Alcotest.bool msg true b
let check_int msg a b = Alcotest.check Alcotest.int msg a b

let check_mat ?(tol = 1e-9) msg expected actual =
  if not (Cmat.equal ~tol expected actual) then
    Alcotest.failf "%s:@.expected:@.%s@.got:@.%s" msg
      (Cmat.to_string expected) (Cmat.to_string actual)

let check_mat_phase ?(tol = 1e-8) msg expected actual =
  if not (Cmat.equal_up_to_phase ~tol expected actual) then
    Alcotest.failf "%s (up to phase):@.expected:@.%s@.got:@.%s" msg
      (Cmat.to_string expected) (Cmat.to_string actual)

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* [gen] configured as a product caller configures a fresh generator:
   [cache] attached, the equivalence-class tier on when [canonical] *)
let attached ?(canonical = false) cache gen =
  Paqoc_pulse.Generator.set_shared_cache gen (Some cache);
  Paqoc_pulse.Generator.set_canonical gen canonical;
  gen

(* one gate application's pulse episode, generated (or looked up) on its
   own: the per-episode path that [Pricing.price] batches *)
let episode gen g =
  Paqoc_pulse.Generator.generate gen
    (fst (Paqoc_pulse.Generator.group_of_apps [ g ]))

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck prop = QCheck_alcotest.to_alcotest prop

(* random concrete gate on [n] qubits *)
let gen_gate n =
  let open QCheck.Gen in
  let q = int_bound (n - 1) in
  let angle = map (fun f -> Angle.const f) (float_bound_inclusive 6.28) in
  let distinct2 =
    map2
      (fun a d -> (a, (a + 1 + d) mod n))
      q
      (int_bound (max 0 (n - 2)))
  in
  frequency
    [ (2, map (fun i -> Gate.app1 Gate.H i) q);
      (2, map (fun i -> Gate.app1 Gate.X i) q);
      (1, map (fun i -> Gate.app1 Gate.T i) q);
      (1, map (fun i -> Gate.app1 Gate.SX i) q);
      (2, map2 (fun i a -> Gate.app1 (Gate.RZ a) i) q angle);
      (1, map2 (fun i a -> Gate.app1 (Gate.RX a) i) q angle);
      (3, map (fun (a, b) -> Gate.app2 Gate.CX a b) distinct2);
      (1, map (fun (a, b) -> Gate.app2 Gate.CZ a b) distinct2);
      (1, map2 (fun (a, b) t -> Gate.app2 (Gate.CPhase t) a b) distinct2 angle)
    ]

(* random circuit on [n] qubits with up to [max_gates] gates *)
let gen_circuit ?(n = 3) ?(max_gates = 12) () =
  let open QCheck.Gen in
  map
    (fun gates -> Circuit.make ~n_qubits:n gates)
    (list_size (int_range 1 max_gates) (gen_gate n))

let arb_circuit ?n ?max_gates () =
  QCheck.make
    ?print:(Some Circuit.to_string)
    (gen_circuit ?n ?max_gates ())
