module Cmat = Paqoc_linalg.Cmat
module Expm = Paqoc_linalg.Expm
module Obs = Paqoc_obs.Obs

type config = { max_iters : int; target_fidelity : float; seed : int }

let default_config = { max_iters = 300; target_fidelity = 0.999; seed = 7 }

(* ADAM's step size on the squashed parameters *)
let learning_rate = 0.08

type result = {
  pulse : Pulse.t;
  fidelity : float;
  iterations : int;
  converged : bool;
  injected : bool;
}

(* Bit-determinism reference: renders amplitudes as hexadecimal floats so
   the golden pins every mantissa bit, not a rounded decimal. *)
let render_amplitudes (p : Pulse.t) =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun j row ->
      Printf.bprintf buf "%03d" j;
      Array.iter (fun u -> Printf.bprintf buf " %h" u) row;
      Buffer.add_char buf '\n')
    p.Pulse.amplitudes;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Per-optimize workspace                                              *)

module Workspace = struct
  (* Every buffer one [evaluate] needs, preallocated once per
     [optimize] call (or once per generator, for callers that loop):
     per-slice propagators [us], forward products [xs], the backward
     accumulator pair, the product scratch, the assembled Hamiltonian,
     amplitude/gradient planes and the expm scratch — plus the zero
     patterns of the Hamiltonian it was built for: each control's
     nonzeros [ctrl_nz], and [reads], the entries of [xs(j) * back] the
     gradient traces read. The workspace owns its buffers; [amps]/[grad]
     expose the planes the last [evaluate] filled, and callers must copy
     anything they keep. Single-threaded: give each domain its own. *)
  type t = {
    h : Hamiltonian.t;
    n_slices : int;
    bounds : float array;
    ctrl_nz : Cmat.pattern array;
    reads : Cmat.pattern;
    amps : float array array;
    grad : float array array;
    us : Cmat.t array;
    xs : Cmat.t array;
    mutable back : Cmat.t;
    mutable back_tmp : Cmat.t;
    prod : Cmat.t;
    hmat : Cmat.t;
    tp : float array;  (* trace_prod_into accumulator *)
    ew : Expm.Workspace.t;
  }

  let create h ~n_slices =
    if n_slices <= 0 then invalid_arg "Grape.Workspace.create: need slices";
    let dim = h.Hamiltonian.dim in
    let nc = Hamiltonian.n_controls h in
    let m () = Cmat.create dim dim in
    let ops = Array.map (fun c -> c.Hamiltonian.op) h.Hamiltonian.controls in
    (* Tr(op * prod) pairs op's (r, c) with prod's (c, r) *)
    let read r c =
      Array.exists
        (fun op -> Cmat.get_re op c r <> 0.0 || Cmat.get_im op c r <> 0.0)
        ops
    in
    { h;
      n_slices;
      bounds =
        Array.map (fun c -> c.Hamiltonian.bound) h.Hamiltonian.controls;
      ctrl_nz = Array.map Cmat.nonzeros ops;
      reads =
        Cmat.nonzeros
          (Cmat.init dim dim (fun r c ->
               if read r c then Paqoc_linalg.Cx.one else Paqoc_linalg.Cx.zero));
      amps = Array.init n_slices (fun _ -> Array.make nc 0.0);
      grad = Array.init n_slices (fun _ -> Array.make nc 0.0);
      us = Array.init n_slices (fun _ -> m ());
      xs = Array.init n_slices (fun _ -> m ());
      back = m ();
      back_tmp = m ();
      prod = m ();
      hmat = m ();
      tp = Array.make 2 0.0;
      ew = Expm.Workspace.create dim
    }

  let amps ws = ws.amps
  let grad ws = ws.grad
end

(* One fidelity/gradient evaluation. Parameters are the unconstrained
   [x]; amplitudes are [u = bound * tanh x]. Returns the trace fidelity;
   [ws.grad] receives d(fidelity)/dx and [ws.amps] the amplitudes. The
   backward pass stops one product short: [back * us(0)] would only feed
   a next step that does not exist. Every matrix lives in
   the workspace: after the workspace's own warm-up this performs zero
   matrix allocation. Slice assembly, each propagator's Padé products,
   the backward products and the gradient traces skip the Hamiltonian's
   exact zeros, which the tanh-bounded (finite) amplitudes make exact:
   the results round identically to the dense formulation that
   test/reference_grape.ml keeps (pinned against it and by the
   goldens). *)
let evaluate ?ws h target ~dt ~n_slices x =
  Obs.count "grape.evaluations";
  let ws =
    match ws with Some ws -> ws | None -> Workspace.create h ~n_slices
  in
  if ws.Workspace.h != h then
    invalid_arg "Grape.evaluate: workspace built for another Hamiltonian";
  if ws.Workspace.n_slices <> n_slices then
    invalid_arg "Grape.evaluate: workspace does not match the problem";
  let dim = h.Hamiltonian.dim in
  if Cmat.rows target <> dim || Cmat.cols target <> dim then
    invalid_arg "Grape.evaluate: target dimension mismatch";
  if Array.length x <> n_slices then
    invalid_arg "Grape.evaluate: slice count mismatch";
  let open Workspace in
  let nc = Hamiltonian.n_controls h in
  let d = float_of_int dim in
  (* forward pass: amplitudes, slice propagators, running products *)
  for j = 0 to n_slices - 1 do
    let xj = x.(j) and aj = ws.amps.(j) in
    if Array.length xj <> nc then
      invalid_arg "Grape.evaluate: control count mismatch";
    for k = 0 to nc - 1 do
      aj.(k) <- ws.bounds.(k) *. tanh xj.(k)
    done;
    Hamiltonian.at_into h ~nz:ws.ctrl_nz aj ~dst:ws.hmat;
    Expm.expm_i_h_into ws.ew ~dt ws.hmat ~dst:ws.us.(j)
  done;
  Cmat.blit ~src:ws.us.(0) ~dst:ws.xs.(0);
  for j = 1 to n_slices - 1 do
    Cmat.mul_into ~dst:ws.xs.(j) ws.us.(j) ws.xs.(j - 1)
  done;
  Cmat.mul_adjoint_left_into ~dst:ws.prod target ws.xs.(n_slices - 1);
  let tr = Cmat.trace ws.prod in
  let sphi = 1.0 /. d in
  let phi_re = sphi *. Paqoc_linalg.Cx.re tr
  and phi_im = sphi *. Paqoc_linalg.Cx.im tr in
  let fidelity = (phi_re *. phi_re) +. (phi_im *. phi_im) in
  (* backward pass: A_j = target† U_N ... U_{j+1}; of X_j A_j only the
     entries the traces read *)
  Cmat.adjoint_into ~dst:ws.back target;
  for j = n_slices - 1 downto 0 do
    Cmat.mul_entries_into ~dst:ws.prod ws.xs.(j) ws.back ~at:ws.reads;
    for k = 0 to nc - 1 do
      Cmat.trace_prod_into ws.tp h.Hamiltonian.controls.(k).Hamiltonian.op
        ~nz:ws.ctrl_nz.(k) ws.prod;
      let t_re = ws.tp.(0) and t_im = ws.tp.(1) in
      (* dphi = (-i dt / d) * t, written with the same component products
         (including the 0-weighted ones, for signed-zero fidelity) as the
         boxed complex multiply it replaced *)
      let w_im = -.dt /. d in
      let dphi_re = (0.0 *. t_re) -. (w_im *. t_im) in
      let dphi_im = (0.0 *. t_im) +. (w_im *. t_re) in
      let df =
        2.0 *. ((phi_re *. dphi_re) +. (phi_im *. dphi_im))
      in
      let th = tanh x.(j).(k) in
      let du_dx = ws.bounds.(k) *. (1.0 -. (th *. th)) in
      ws.grad.(j).(k) <- df *. du_dx
    done;
    if j > 0 then begin
      Cmat.mul_into ~dst:ws.back_tmp ws.back ws.us.(j);
      let t = ws.back in
      ws.back <- ws.back_tmp;
      ws.back_tmp <- t
    end
  done;
  fidelity

let optimize ?(config = default_config) ?init h ~target ~n_slices ~dt () =
  let dim = h.Hamiltonian.dim in
  if Cmat.rows target <> dim || Cmat.cols target <> dim then
    invalid_arg "Grape.optimize: target dimension mismatch";
  if n_slices <= 0 then invalid_arg "Grape.optimize: need slices";
  Obs.with_span "grape.optimize" @@ fun () ->
  if Faultin.fire Faultin.Grape_diverge then begin
    (* injected divergence: report a failed run without burning iterations
       so fault-injection sweeps stay fast *)
    Obs.count "grape.diverged.injected";
    let nc = Hamiltonian.n_controls h in
    { pulse = Pulse.make ~dt ~slices:n_slices ~n_controls:nc;
      fidelity = 0.0;
      iterations = 0;
      converged = false;
      injected = true
    }
  end
  else begin
  Obs.count "grape.start.adam";
  let nc = Hamiltonian.n_controls h in
  let ws = Workspace.create h ~n_slices in
  let bounds = ws.Workspace.bounds in
  let rng = Random.State.make [| config.seed; n_slices; dim |] in
  let x = Array.init n_slices (fun _ -> Array.make nc 0.0) in
  (match init with
  (* a warm start is only usable when it was optimised against the same
     control channels; otherwise fall back to the random initial guess *)
  | Some p when Pulse.n_controls p = nc ->
    let p = Pulse.resample p ~slices:n_slices in
    for j = 0 to n_slices - 1 do
      for k = 0 to nc - 1 do
        let u = p.Pulse.amplitudes.(j).(k) /. bounds.(k) in
        let u = Float.max (-0.999) (Float.min 0.999 u) in
        (* atanh *)
        x.(j).(k) <- 0.5 *. log ((1.0 +. u) /. (1.0 -. u))
      done
    done
  | Some _ | None ->
    for j = 0 to n_slices - 1 do
      for k = 0 to nc - 1 do
        x.(j).(k) <- (Random.State.float rng 1.0 -. 0.5) *. 0.6
      done
    done);
  let best_f = ref neg_infinity in
  let best_set = ref false in
  let best_amps = Array.init n_slices (fun _ -> Array.make nc 0.0) in
  let iters = ref 0 in
  let converged = ref false in
  (* snapshots the workspace's amplitude plane on improvement — a blit
     into owned rows, not a reference to the reused buffers *)
  let note_best fidelity =
    if fidelity > !best_f then begin
      best_f := fidelity;
      best_set := true;
      for j = 0 to n_slices - 1 do
        Array.blit ws.Workspace.amps.(j) 0 best_amps.(j) 0 nc
      done
    end;
    if fidelity >= config.target_fidelity then converged := true
  in
  let m = Array.init n_slices (fun _ -> Array.make nc 0.0) in
  let v = Array.init n_slices (fun _ -> Array.make nc 0.0) in
  let beta1 = 0.9 and beta2 = 0.999 and adam_eps = 1e-8 in
  (try
     for it = 1 to config.max_iters do
       iters := it;
       let fidelity = evaluate ~ws h target ~dt ~n_slices x in
       note_best fidelity;
       if !converged then raise Exit;
       let grad = ws.Workspace.grad in
       let b1t = 1.0 -. (beta1 ** float_of_int it) in
       let b2t = 1.0 -. (beta2 ** float_of_int it) in
       for j = 0 to n_slices - 1 do
         for k = 0 to nc - 1 do
           let g = grad.(j).(k) in
           m.(j).(k) <- (beta1 *. m.(j).(k)) +. ((1.0 -. beta1) *. g);
           v.(j).(k) <- (beta2 *. v.(j).(k)) +. ((1.0 -. beta2) *. g *. g);
           let mhat = m.(j).(k) /. b1t and vhat = v.(j).(k) /. b2t in
           x.(j).(k) <-
             x.(j).(k) +. (learning_rate *. mhat /. (sqrt vhat +. adam_eps))
         done
       done
     done
   with Exit -> ());
  let amplitudes =
    if not !best_set then
      Array.map
        (fun row -> Array.mapi (fun k v -> bounds.(k) *. tanh v) row)
        x
    else Array.map Array.copy best_amps
  in
  let pulse = { Pulse.dt; amplitudes } in
  Obs.count ~n:!iters "grape.iterations";
  if !converged then Obs.count "grape.converged";
  { pulse;
    fidelity = !best_f;
    iterations = !iters;
    converged = !converged;
    injected = false
  }
  end

(* The fixed 2-qubit CX reference optimisation pinned bitwise by
   test/golden/grape_amplitudes.txt. Runs with an unreachable target
   fidelity so every configured iteration executes: any change to a
   single rounding step anywhere in the GRAPE hot path shows up as a
   mantissa diff in the golden. *)
let reference_golden () =
  let module Gate = Paqoc_circuit.Gate in
  let h = Hamiltonian.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
  let target = Gate.unitary Gate.CX in
  let config = { default_config with max_iters = 40; target_fidelity = 1.1 } in
  let r = optimize ~config h ~target ~n_slices:24 ~dt:2.0 () in
  Printf.sprintf "[adam] iterations=%d fidelity=%h\n%s" r.iterations
    r.fidelity (render_amplitudes r.pulse)
