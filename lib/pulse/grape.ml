module Cmat = Paqoc_linalg.Cmat
module Expm = Paqoc_linalg.Expm
module Obs = Paqoc_obs.Obs

type optimizer = Adam | Lbfgs of int

type config = {
  max_iters : int;
  target_fidelity : float;
  learning_rate : float;
  seed : int;
  power_penalty : float;
  optimizer : optimizer;
}

let default_config =
  { max_iters = 300;
    target_fidelity = 0.999;
    learning_rate = 0.08;
    seed = 7;
    power_penalty = 0.0;
    optimizer = Adam
  }

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
(* L-BFGS curvature history: a bounded deque over preallocated slots    *)

module History = struct
  (* Circular buffer of (s, y) pairs, newest first. [push] copies into
     the slot it overwrites, so after warm-up the history performs zero
     allocation per iteration — unlike the list-based trimming it
     replaces, which rebuilt both lists with [List.combine]/
     [List.filteri] every accepted step. *)
  type t = {
    window : int;
    dim : int;
    s_slots : float array array;
    y_slots : float array array;
    mutable head : int;  (* slot index of the newest pair *)
    mutable length : int;
  }

  let create ~window ~dim =
    if window <= 0 then invalid_arg "Grape.History.create: need a window";
    if dim < 0 then invalid_arg "Grape.History.create: negative dimension";
    { window;
      dim;
      s_slots = Array.init window (fun _ -> Array.make dim 0.0);
      y_slots = Array.init window (fun _ -> Array.make dim 0.0);
      head = 0;
      length = 0
    }

  let window t = t.window
  let length t = t.length

  let push t ~s ~y =
    if Array.length s <> t.dim || Array.length y <> t.dim then
      invalid_arg "Grape.History.push: dimension mismatch";
    let slot = if t.length = 0 then t.head else (t.head + t.window - 1) mod t.window in
    Array.blit s 0 t.s_slots.(slot) 0 t.dim;
    Array.blit y 0 t.y_slots.(slot) 0 t.dim;
    t.head <- slot;
    if t.length < t.window then t.length <- t.length + 1

  let slot_exn t i =
    if i < 0 || i >= t.length then invalid_arg "Grape.History: index out of range";
    (t.head + i) mod t.window

  (* [s t 0] is the newest pair's s; [s t (length - 1)] the oldest.
     Returns the live slot — callers must not hold it across a push. *)
  let s t i = t.s_slots.(slot_exn t i)
  let y t i = t.y_slots.(slot_exn t i)
end

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

(* One objective/gradient evaluation. Parameters are the unconstrained
   [x]; amplitudes are [u = bound * tanh x]. The objective is the trace
   fidelity minus the power regulariser; [ws.grad] receives
   d(objective)/dx and [ws.amps] the amplitudes. Every matrix lives in
   the workspace: after the workspace's own warm-up this performs zero
   matrix allocation. Slice assembly, each propagator's Padé products,
   the backward products and the gradient traces skip the Hamiltonian's
   exact zeros, which the tanh-bounded (finite) amplitudes make exact:
   the results round identically to the dense formulation that
   test/reference_grape.ml keeps (pinned against it and by the
   goldens). *)
let evaluate ?ws config h target ~dt ~n_slices x =
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
  let power = ref 0.0 in
  for j = 0 to n_slices - 1 do
    let aj = ws.amps.(j) in
    for k = 0 to nc - 1 do
      power := !power +. (aj.(k) *. aj.(k))
    done
  done;
  let objective = fidelity -. (config.power_penalty *. !power) in
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
      let u = ws.bounds.(k) *. th in
      ws.grad.(j).(k) <- (df -. (2.0 *. config.power_penalty *. u)) *. du_dx
    done;
    Cmat.mul_into ~dst:ws.back_tmp ws.back ws.us.(j);
    let t = ws.back in
    ws.back <- ws.back_tmp;
    ws.back_tmp <- t
  done;
  (objective, fidelity)

(* allocation-free dot product (the closure-based Array.iteri fold it
   replaced rounds identically: same order, same ops) *)
let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

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
  Obs.count
    (match config.optimizer with
    | Adam -> "grape.start.adam"
    | Lbfgs _ -> "grape.start.lbfgs");
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
  (match config.optimizer with
  | Adam ->
    let m = Array.init n_slices (fun _ -> Array.make nc 0.0) in
    let v = Array.init n_slices (fun _ -> Array.make nc 0.0) in
    let beta1 = 0.9 and beta2 = 0.999 and adam_eps = 1e-8 in
    (try
       for it = 1 to config.max_iters do
         iters := it;
         let _, fidelity = evaluate ~ws config h target ~dt ~n_slices x in
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
               x.(j).(k)
               +. (config.learning_rate *. mhat /. (sqrt vhat +. adam_eps))
           done
         done
       done
     with Exit -> ())
  | Lbfgs history ->
    let window = max 1 history in
    let nv = n_slices * nc in
    (* flat-vector working set, preallocated once: parameter/candidate
       pair, gradient pair (both swapped by reference on acceptance),
       the two-loop scratch and the curvature staging buffers *)
    let xv = ref (Array.make nv 0.0) in
    let cand = ref (Array.make nv 0.0) in
    let grad_cur = ref (Array.make nv 0.0) in
    let grad_new = ref (Array.make nv 0.0) in
    let q = Array.make nv 0.0 in
    let dir_buf = Array.make nv 0.0 in
    let s_tmp = Array.make nv 0.0 in
    let y_tmp = Array.make nv 0.0 in
    let alphas = Array.make window 0.0 in
    let rhos = Array.make window 0.0 in
    let hist = History.create ~window ~dim:nv in
    let xm = Array.init n_slices (fun _ -> Array.make nc 0.0) in
    for j = 0 to n_slices - 1 do
      Array.blit x.(j) 0 !xv (j * nc) nc
    done;
    (* evaluates the flat vector [v]: objective and fidelity returned,
       gradient flattened into [grad_new] *)
    let eval_flat v =
      for j = 0 to n_slices - 1 do
        Array.blit v (j * nc) xm.(j) 0 nc
      done;
      let obj, fidelity = evaluate ~ws config h target ~dt ~n_slices xm in
      for j = 0 to n_slices - 1 do
        Array.blit ws.Workspace.grad.(j) 0 !grad_new (j * nc) nc
      done;
      (obj, fidelity)
    in
    (* maximise the objective: two-loop recursion on the flattened vector
       with Armijo backtracking *)
    (try
       let obj, fidelity = eval_flat !xv in
       note_best fidelity;
       if !converged then raise Exit;
       let t = !grad_cur in
       grad_cur := !grad_new;
       grad_new := t;
       let obj = ref obj in
       while !iters < config.max_iters do
         incr iters;
         (* two-loop recursion: direction = H * grad (ascent), newest
            pair first *)
         Array.blit !grad_cur 0 q 0 nv;
         let len = History.length hist in
         for i = 0 to len - 1 do
           let s = History.s hist i and y = History.y hist i in
           let rho = 1.0 /. Float.max 1e-12 (dot y s) in
           let alpha = rho *. dot s q in
           for idx = 0 to nv - 1 do
             q.(idx) <- q.(idx) -. (alpha *. y.(idx))
           done;
           alphas.(i) <- alpha;
           rhos.(i) <- rho
         done;
         (* initial Hessian scaling from the newest curvature pair *)
         if len > 0 then begin
           let s = History.s hist 0 and y = History.y hist 0 in
           let gamma = dot s y /. Float.max 1e-12 (dot y y) in
           for idx = 0 to nv - 1 do
             q.(idx) <- q.(idx) *. abs_float gamma
           done
         end
         else
           for idx = 0 to nv - 1 do
             q.(idx) <- q.(idx) *. config.learning_rate
           done;
         for i = len - 1 downto 0 do
           let s = History.s hist i and y = History.y hist i in
           let beta = rhos.(i) *. dot y q in
           for idx = 0 to nv - 1 do
             q.(idx) <- q.(idx) +. ((alphas.(i) -. beta) *. s.(idx))
           done
         done;
         (* Armijo backtracking along the ascent direction *)
         let g_dot_d = dot !grad_cur q in
         let direction, g_dot_d =
           if g_dot_d > 0.0 then (q, g_dot_d)
           else begin
             Array.blit !grad_cur 0 dir_buf 0 nv;
             (dir_buf, dot !grad_cur !grad_cur)
           end
         in
         let step = ref 1.0 and accepted = ref false in
         let backtracks = ref 0 in
         while (not !accepted) && !backtracks < 15 do
           let c = !cand and xv' = !xv in
           for idx = 0 to nv - 1 do
             c.(idx) <- xv'.(idx) +. (!step *. direction.(idx))
           done;
           let obj', fidelity' = eval_flat c in
           if obj' >= !obj +. (1e-4 *. !step *. g_dot_d) then begin
             accepted := true;
             note_best fidelity';
             (* curvature pair for gradient ascent: flip the gradient
                difference's sign so the standard minimisation update
                applies *)
             let gc = !grad_cur and gn = !grad_new in
             for idx = 0 to nv - 1 do
               s_tmp.(idx) <- c.(idx) -. xv'.(idx);
               y_tmp.(idx) <- -.(gn.(idx) -. gc.(idx))
             done;
             if dot s_tmp y_tmp > 1e-12 then
               History.push hist ~s:s_tmp ~y:y_tmp;
             let t = !xv in
             xv := !cand;
             cand := t;
             obj := obj';
             let t = !grad_cur in
             grad_cur := !grad_new;
             grad_new := t;
             if !converged then raise Exit
           end
           else begin
             step := !step /. 2.0;
             incr backtracks
           end
         done;
         if not !accepted then raise Exit
       done
     with Exit -> ());
    if not !best_set then begin
      let _, fidelity = eval_flat !xv in
      note_best fidelity
    end);
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
   test/golden/grape_amplitudes.txt. Runs both optimiser code paths with
   an unreachable target fidelity so every configured iteration executes:
   any change to a single rounding step anywhere in the GRAPE hot path
   shows up as a mantissa diff in the golden. *)
let reference_golden () =
  let module Gate = Paqoc_circuit.Gate in
  let h = Hamiltonian.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
  let target = Gate.unitary Gate.CX in
  let buf = Buffer.create 8192 in
  List.iter
    (fun (name, optimizer, max_iters) ->
      let config =
        { default_config with optimizer; max_iters; target_fidelity = 1.1 }
      in
      let r = optimize ~config h ~target ~n_slices:24 ~dt:2.0 () in
      Printf.bprintf buf "[%s] iterations=%d fidelity=%h\n%s" name
        r.iterations r.fidelity (render_amplitudes r.pulse))
    [ ("adam", Adam, 40); ("lbfgs-5", Lbfgs 5, 25) ];
  Buffer.contents buf
