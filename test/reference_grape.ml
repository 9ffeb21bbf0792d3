(* The dense GRAPE objective/gradient evaluation, kept as the oracle of
   the product's zero-pattern kernels. Nothing in the product calls it.
   [Paqoc_pulse.Grape.evaluate] skips the Hamiltonian's exact zeros in
   slice assembly, in the Padé products of each propagator, in the
   backward products and in the gradient traces; this evaluation
   computes every one of those terms, through the dense reference
   forms [Hamiltonian.at], [Expm.expm_i_h], [Cmat.mul] and a full trace
   of a product, in the same order. test_kernels holds the two to the
   same bits in the objective, the fidelity and every gradient cell. *)
module Cmat = Paqoc_linalg.Cmat
module Cx = Paqoc_linalg.Cx
module Expm = Paqoc_linalg.Expm
module Hamiltonian = Paqoc_pulse.Hamiltonian
module Grape = Paqoc_pulse.Grape

(* Tr(a * b) over every (r, c) in row-major order, through the public
   cell accessors *)
let trace_prod a b =
  let n = Cmat.rows a in
  let acc_re = ref 0.0 and acc_im = ref 0.0 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let xr = Cmat.get_re a r c and xi = Cmat.get_im a r c in
      let yr = Cmat.get_re b c r and yi = Cmat.get_im b c r in
      acc_re := !acc_re +. (xr *. yr) -. (xi *. yi);
      acc_im := !acc_im +. (xr *. yi) +. (xi *. yr)
    done
  done;
  (!acc_re, !acc_im)

(* [evaluate config h target ~dt ~n_slices x] is
   [(objective, fidelity, grad)] for the unconstrained parameters [x],
   with [grad.(j).(k)] = d(objective)/d[x.(j).(k)]. *)
let evaluate (config : Grape.config) h target ~dt ~n_slices x =
  let controls = h.Hamiltonian.controls in
  let nc = Array.length controls in
  let d = float_of_int h.Hamiltonian.dim in
  let amps =
    Array.map
      (fun xj ->
        Array.mapi (fun k v -> controls.(k).Hamiltonian.bound *. tanh v) xj)
      x
  in
  let us = Array.map (fun aj -> Expm.expm_i_h ~dt (Hamiltonian.at h aj)) amps in
  let xs = Array.copy us in
  for j = 1 to n_slices - 1 do
    xs.(j) <- Cmat.mul us.(j) xs.(j - 1)
  done;
  let tr = Cmat.trace (Cmat.mul_adjoint_left target xs.(n_slices - 1)) in
  let sphi = 1.0 /. d in
  let phi_re = sphi *. Cx.re tr and phi_im = sphi *. Cx.im tr in
  let fidelity = (phi_re *. phi_re) +. (phi_im *. phi_im) in
  let power = ref 0.0 in
  Array.iter (Array.iter (fun u -> power := !power +. (u *. u))) amps;
  let objective = fidelity -. (config.Grape.power_penalty *. !power) in
  let grad = Array.make_matrix n_slices nc 0.0 in
  (* A_j = target† U_N ... U_{j+1} *)
  let back = ref (Cmat.adjoint target) in
  for j = n_slices - 1 downto 0 do
    let prod = Cmat.mul xs.(j) !back in
    for k = 0 to nc - 1 do
      let t_re, t_im = trace_prod controls.(k).Hamiltonian.op prod in
      (* dphi = (-i dt / d) * t, with the 0-weighted products kept *)
      let w_im = -.dt /. d in
      let dphi_re = (0.0 *. t_re) -. (w_im *. t_im) in
      let dphi_im = (0.0 *. t_im) +. (w_im *. t_re) in
      let df = 2.0 *. ((phi_re *. dphi_re) +. (phi_im *. dphi_im)) in
      let bound = controls.(k).Hamiltonian.bound in
      let th = tanh x.(j).(k) in
      let du_dx = bound *. (1.0 -. (th *. th)) in
      let u = bound *. th in
      grad.(j).(k) <-
        (df -. (2.0 *. config.Grape.power_penalty *. u)) *. du_dx
    done;
    back := Cmat.mul !back us.(j)
  done;
  (objective, fidelity, grad)
