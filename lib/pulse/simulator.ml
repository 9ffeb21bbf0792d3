module Cx = Paqoc_linalg.Cx
module Cmat = Paqoc_linalg.Cmat
module Cvec = Paqoc_linalg.Cvec
module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Angle = Paqoc_circuit.Angle

let apply_local psi op ~wires ~n_qubits =
  let k = List.length wires in
  let dk = 1 lsl k in
  if Cmat.rows op <> dk || Cmat.cols op <> dk then
    invalid_arg "Simulator.apply_local: operator/wire mismatch";
  if Cvec.dim psi <> 1 lsl n_qubits then
    invalid_arg "Simulator.apply_local: state dimension mismatch";
  let wires = Array.of_list wires in
  let bitpos q = n_qubits - 1 - q in
  let env_wires =
    List.filter
      (fun q -> not (Array.exists (( = ) q) wires))
      (List.init n_qubits Fun.id)
    |> Array.of_list
  in
  let n_env = Array.length env_wires in
  let out = Cvec.create (1 lsl n_qubits) in
  let sub_re = Array.make dk 0.0 and sub_im = Array.make dk 0.0 in
  let idx_of env sub =
    let i = ref 0 in
    for e = 0 to n_env - 1 do
      if (env lsr (n_env - 1 - e)) land 1 = 1 then
        i := !i lor (1 lsl bitpos env_wires.(e))
    done;
    for b = 0 to Array.length wires - 1 do
      if (sub lsr (k - 1 - b)) land 1 = 1 then
        i := !i lor (1 lsl bitpos wires.(b))
    done;
    !i
  in
  for env = 0 to (1 lsl n_env) - 1 do
    (* gather *)
    for sub = 0 to dk - 1 do
      let z = Cvec.get psi (idx_of env sub) in
      sub_re.(sub) <- Cx.re z;
      sub_im.(sub) <- Cx.im z
    done;
    (* multiply *)
    let res_re, res_im = Cmat.matvec op ~re:sub_re ~im:sub_im in
    (* scatter *)
    for sub = 0 to dk - 1 do
      Cvec.set out (idx_of env sub) (Cx.make res_re.(sub) res_im.(sub))
    done
  done;
  out

let ideal_state (c : Circuit.t) psi0 =
  List.fold_left
    (fun psi (g : Gate.app) ->
      apply_local psi (Gate.unitary g.Gate.kind) ~wires:g.Gate.qubits
        ~n_qubits:c.Circuit.n_qubits)
    psi0 c.Circuit.gates

let pulse_state gen (c : Circuit.t) psi0 =
  List.fold_left
    (fun psi (g : Gate.app) ->
      let group, wires = Generator.group_of_apps [ g ] in
      let outcome = Generator.generate gen group in
      match outcome.Generator.pulse with
      | None ->
        invalid_arg
          "Simulator.pulse_state: generator backend produces no waveforms"
      | Some p ->
        let h = Generator.hamiltonian_of group in
        let u = Pulse.propagator h p in
        apply_local psi u ~wires ~n_qubits:c.Circuit.n_qubits)
    psi0 c.Circuit.gates

let probe_states ~n_qubits =
  let dim = 1 lsl n_qubits in
  let zeros = Cvec.basis ~dim 0 in
  let alternating =
    let idx = ref 0 in
    for q = 0 to n_qubits - 1 do
      if q mod 2 = 0 then idx := !idx lor (1 lsl (n_qubits - 1 - q))
    done;
    Cvec.basis ~dim !idx
  in
  let uniform =
    let a = 1.0 /. sqrt (float_of_int dim) in
    Cvec.init dim (fun _ -> Cx.of_float a)
  in
  let random seed =
    let rng = Random.State.make [| seed; n_qubits |] in
    let v =
      Cvec.init dim (fun _ ->
          (* Box-Muller keeps the distribution rotation-invariant *)
          let u1 = Random.State.float rng 1.0 +. 1e-12 in
          let u2 = Random.State.float rng 1.0 in
          let r = sqrt (-2.0 *. log u1) in
          Cx.make (r *. cos (2.0 *. Angle.pi *. u2)) (r *. sin (2.0 *. Angle.pi *. u2)))
    in
    Cvec.normalize v
  in
  [ zeros; alternating; uniform; random 11; random 23 ]

let circuit_fidelity gen (c : Circuit.t) =
  let probes = probe_states ~n_qubits:c.Circuit.n_qubits in
  let total =
    List.fold_left
      (fun acc psi0 ->
        let ideal = ideal_state c psi0 in
        let pulsed = pulse_state gen c psi0 in
        acc +. Cvec.overlap2 ideal pulsed)
      0.0 probes
  in
  total /. float_of_int (List.length probes)

let process_fidelity gen (c : Circuit.t) =
  let n = c.Circuit.n_qubits in
  if n > 6 then
    invalid_arg "Simulator.process_fidelity: capped at 6 qubits";
  let dim = 1 lsl n in
  let pulse_u = ref (Cmat.identity dim) in
  List.iter
    (fun (g : Gate.app) ->
      let group, wires = Generator.group_of_apps [ g ] in
      let outcome = Generator.generate gen group in
      match outcome.Generator.pulse with
      | None ->
        invalid_arg
          "Simulator.process_fidelity: generator backend produces no waveforms"
      | Some p ->
        let h = Generator.hamiltonian_of group in
        let u = Pulse.propagator h p in
        pulse_u := Cmat.mul (Cmat.embed ~n_qubits:n u ~on:wires) !pulse_u)
    c.Circuit.gates;
  Paqoc_linalg.Fidelity.gate_fidelity (Circuit.unitary c) !pulse_u

(* ------------------------------------------------------------------ *)
(* Decoherence                                                         *)
(* ------------------------------------------------------------------ *)

type noise = { t2 : float; trajectories : int; seed : int }

let default_noise = { t2 = 20_000.0; trajectories = 48; seed = 2029 }

let noisy_fidelity ?(noise = default_noise) gen (c : Circuit.t) =
  let n = c.Circuit.n_qubits in
  let dim = 1 lsl n in
  if noise.t2 <= 0.0 || noise.trajectories <= 0 then
    invalid_arg "Simulator.noisy_fidelity: bad noise parameters";
  let gates = Array.of_list c.Circuit.gates in
  (* schedule: start time and duration of each episode *)
  let sched = (Pricing.price gen c).Pricing.schedule in
  let est = sched.Paqoc_circuit.Dag.est in
  let lat = sched.Paqoc_circuit.Dag.latency in
  let total = sched.Paqoc_circuit.Dag.total in
  let ideal = ideal_state c (Cvec.basis ~dim 0) in
  let pauli_x = Gate.unitary Gate.X and pauli_z = Gate.unitary Gate.Z in
  let run_trajectory k =
    let rng = Random.State.make [| noise.seed; k; n |] in
    let clock = Array.make n 0.0 in
    let psi = ref (Cvec.basis ~dim 0) in
    let maybe_error q elapsed =
      if elapsed > 0.0 then begin
        let p = 1.0 -. exp (-.elapsed /. noise.t2) in
        if Random.State.float rng 1.0 < p then begin
          (* dephasing twice as likely as a bit flip *)
          let op = if Random.State.int rng 3 < 2 then pauli_z else pauli_x in
          psi := apply_local !psi op ~wires:[ q ] ~n_qubits:n
        end
      end
    in
    Array.iteri
      (fun v (g : Gate.app) ->
        (* idle decay up to this episode's start, then the gate, then the
           busy window's decay *)
        List.iter
          (fun q ->
            maybe_error q (est.(v) -. clock.(q));
            clock.(q) <- est.(v))
          g.Gate.qubits;
        psi := apply_local !psi (Gate.unitary g.Gate.kind) ~wires:g.Gate.qubits
                 ~n_qubits:n;
        List.iter
          (fun q ->
            maybe_error q lat.(v);
            clock.(q) <- est.(v) +. lat.(v))
          g.Gate.qubits)
      gates;
    (* trailing idle window until the schedule ends *)
    for q = 0 to n - 1 do
      maybe_error q (total -. clock.(q))
    done;
    Cvec.overlap2 ideal !psi
  in
  let acc = ref 0.0 in
  for k = 0 to noise.trajectories - 1 do
    acc := !acc +. run_trajectory k
  done;
  !acc /. float_of_int noise.trajectories
