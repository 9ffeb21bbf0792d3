(* Exact open-system simulation on density matrices: the test oracle
   for the quantum-trajectory sampler in [Simulator.noisy_fidelity].

   The sampler is fast but stochastic; this module evolves the full
   density matrix through the compiled schedule with per-qubit Pauli
   channels applied exactly, giving the trajectory average in closed
   form (at [4^n] memory, so capped at 6 qubits). Channel model
   (matching the sampler): over a window of length [t] a qubit suffers
   an error with probability [p = 1 - exp(-t/T2)], which is [Z] with
   weight 2/3 and [X] with weight 1/3. *)

module Cx = Paqoc_linalg.Cx
module Cmat = Paqoc_linalg.Cmat
module Cvec = Paqoc_linalg.Cvec
module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Generator = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Simulator = Paqoc_pulse.Simulator

type t = Cmat.t

let of_pure psi =
  let n = Cvec.dim psi in
  Cmat.init n n (fun r c -> Cx.mul (Cvec.get psi r) (Cx.conj (Cvec.get psi c)))

let dim rho = Cmat.rows rho

let trace rho = Cx.re (Cmat.trace rho)

(* conjugate by [u] lifted onto [wires] *)
let apply_unitary rho u ~wires ~n_qubits =
  let full = Cmat.embed ~n_qubits u ~on:wires in
  Cmat.mul full (Cmat.mul rho (Cmat.adjoint full))

(* (1-p) rho + p (2/3 Z rho Z + 1/3 X rho X) on one qubit *)
let apply_pauli_channel rho ~qubit ~n_qubits ~p =
  if p <= 0.0 then rho
  else begin
    let z = Gate.unitary Gate.Z and x = Gate.unitary Gate.X in
    let kraus op = apply_unitary rho op ~wires:[ qubit ] ~n_qubits in
    let zterm = kraus z and xterm = kraus x in
    Cmat.add
      (Cmat.scale_re (1.0 -. p) rho)
      (Cmat.add
         (Cmat.scale_re (p *. 2.0 /. 3.0) zterm)
         (Cmat.scale_re (p /. 3.0) xterm))
  end

let fidelity_to_pure rho psi =
  let n = Cvec.dim psi in
  (* <psi| rho |psi> *)
  let acc = ref Cx.zero in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      acc :=
        Cx.add !acc
          (Cx.mul
             (Cx.conj (Cvec.get psi r))
             (Cx.mul (Cmat.get rho r c) (Cvec.get psi c)))
    done
  done;
  Cx.re !acc

(* the exact counterpart of [Simulator.noisy_fidelity]: evolve |0..0>
   through [c]'s compiled schedule with the Pauli channel applied per
   busy/idle window, and report fidelity to the ideal final state *)
let noisy_fidelity ?(t2 = Simulator.default_noise.Simulator.t2) gen
    (c : Circuit.t) =
  let n = c.Circuit.n_qubits in
  if n > 6 then invalid_arg "Density.noisy_fidelity: capped at 6 qubits";
  let dim_v = 1 lsl n in
  let dag = Dag.of_circuit c in
  let sched =
    Dag.schedule dag
      ~latency:
        (Array.of_list
           (List.map
              (fun g -> (Test_util.episode gen g).Generator.latency)
              c.Circuit.gates))
  in
  let est = sched.Dag.est and lat = sched.Dag.latency in
  let total = sched.Dag.total in
  let clock = Array.make n 0.0 in
  let p_of elapsed =
    if elapsed <= 0.0 then 0.0 else 1.0 -. exp (-.elapsed /. t2)
  in
  let rho = ref (of_pure (Cvec.basis ~dim:dim_v 0)) in
  let gates = Array.of_list c.Circuit.gates in
  Array.iteri
    (fun v (g : Gate.app) ->
      List.iter
        (fun q ->
          rho :=
            apply_pauli_channel !rho ~qubit:q ~n_qubits:n
              ~p:(p_of (est.(v) -. clock.(q)));
          clock.(q) <- est.(v))
        g.Gate.qubits;
      rho := apply_unitary !rho (Gate.unitary g.Gate.kind) ~wires:g.Gate.qubits ~n_qubits:n;
      List.iter
        (fun q ->
          rho := apply_pauli_channel !rho ~qubit:q ~n_qubits:n ~p:(p_of lat.(v));
          clock.(q) <- est.(v) +. lat.(v))
        g.Gate.qubits)
    gates;
  for q = 0 to n - 1 do
    rho := apply_pauli_channel !rho ~qubit:q ~n_qubits:n ~p:(p_of (total -. clock.(q)))
  done;
  let ideal = Simulator.ideal_state c (Cvec.basis ~dim:dim_v 0) in
  fidelity_to_pure !rho ideal
