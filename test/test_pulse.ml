open Test_util
module H = Paqoc_pulse.Hamiltonian
module Pulse = Paqoc_pulse.Pulse
module Grape = Paqoc_pulse.Grape
module DS = Paqoc_pulse.Duration_search
module LM = Paqoc_pulse.Latency_model
module Gen = Paqoc_pulse.Generator
module Sim = Paqoc_pulse.Simulator
module Pricing = Paqoc_pulse.Pricing
module Dag = Paqoc_circuit.Dag
module Fidelity = Paqoc_linalg.Fidelity
module Cvec = Paqoc_linalg.Cvec

let is_hermitian m =
  Cmat.equal ~tol:1e-12 m (Cmat.adjoint m)

(* ------------------------------------------------------------------ *)
(* Hamiltonian                                                         *)
(* ------------------------------------------------------------------ *)

let hamiltonian_tests =
  [ case "control counts" (fun () ->
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        check_int "2 drives/qubit + 1 exchange" 5 (H.n_controls h);
        check_int "dim" 4 h.H.dim);
    case "controls are hermitian" (fun () ->
        let h = H.make ~n_qubits:3 ~coupled_pairs:[ (0, 1); (1, 2) ] () in
        Array.iter
          (fun c -> check_true (c.H.label ^ " hermitian") (is_hermitian c.H.op))
          h.H.controls);
    case "bounds follow the paper's ratio" (fun () ->
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let drive = h.H.controls.(0).H.bound in
        let exchange = h.H.controls.(4).H.bound in
        check_float "5x" 5.0 (drive /. exchange));
    case "assembled H is hermitian" (fun () ->
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let amps = Array.init (H.n_controls h) (fun k -> 0.01 *. float_of_int (k + 1)) in
        let hmat = Cmat.create h.H.dim h.H.dim in
        let nz = Array.map (fun c -> Cmat.nonzeros c.H.op) h.H.controls in
        H.at_into h ~nz amps ~dst:hmat;
        check_true "H(t) hermitian" (is_hermitian hmat));
    case "bad pair rejected" (fun () ->
        check_true "raises"
          (try ignore (H.make ~n_qubits:2 ~coupled_pairs:[ (0, 2) ] ()); false
           with Invalid_argument _ -> true))
  ]

(* ------------------------------------------------------------------ *)
(* Pulse                                                               *)
(* ------------------------------------------------------------------ *)

let pulse_tests =
  [ case "zero pulse propagates to identity" (fun () ->
        let h = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        let p = Pulse.make ~dt:2.0 ~slices:5 ~n_controls:(H.n_controls h) in
        check_mat "identity" (Cmat.identity 2) (Pulse.propagator h p));
    case "propagator is unitary" (fun () ->
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let p = Pulse.make ~dt:2.0 ~slices:8 ~n_controls:(H.n_controls h) in
        Array.iteri
          (fun j row ->
            Array.iteri (fun k _ -> row.(k) <- 0.01 *. float_of_int ((j + k) mod 3)) row)
          p.Pulse.amplitudes;
        check_true "unitary" (Cmat.is_unitary ~tol:1e-9 (Pulse.propagator h p)));
    case "constant X drive rotates" (fun () ->
        (* amplitude a on sigma_x/2 for time T gives RX(a*T) *)
        let h = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        let a = 0.05 and slices = 10 and dt = 2.0 in
        let p = Pulse.make ~dt ~slices ~n_controls:2 in
        Array.iter (fun row -> row.(0) <- a) p.Pulse.amplitudes;
        let angle = a *. dt *. float_of_int slices in
        check_mat_phase "RX(aT)"
          (Gate.unitary (Gate.RX (Angle.const angle)))
          (Pulse.propagator h p));
    case "clamp respects bounds" (fun () ->
        let h = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        let p = Pulse.make ~dt:1.0 ~slices:2 ~n_controls:2 in
        p.Pulse.amplitudes.(0).(0) <- 99.0;
        let c = Pulse.clamp h p in
        check_float "clamped" H.drive_max c.Pulse.amplitudes.(0).(0));
    case "resample preserves envelope ends" (fun () ->
        let p = Pulse.make ~dt:1.0 ~slices:4 ~n_controls:1 in
        List.iteri (fun i v -> p.Pulse.amplitudes.(i).(0) <- v) [ 1.; 2.; 3.; 4. ];
        let r = Pulse.resample p ~slices:8 in
        check_int "slices" 8 (Pulse.slices r);
        check_true "monotone"
          (r.Pulse.amplitudes.(0).(0) < r.Pulse.amplitudes.(7).(0)))
  ]

(* ------------------------------------------------------------------ *)
(* GRAPE + duration search                                             *)
(* ------------------------------------------------------------------ *)

let grape_converges name kind qubits pairs fid =
  slow_case name (fun () ->
      let n = List.length qubits in
      let h = H.make ~n_qubits:n ~coupled_pairs:pairs () in
      let target =
        Gate.unitary_of_apps ~n_qubits:n [ Gate.app kind qubits ]
      in
      let config = { Grape.default_config with target_fidelity = fid } in
      let r = Grape.optimize ~config h ~target ~n_slices:40 ~dt:2.0 () in
      check_true
        (Printf.sprintf "converged (got %.5f)" r.Grape.fidelity)
        (r.Grape.fidelity >= fid -. 0.002))

let grape_tests =
  [ grape_converges "GRAPE X" Gate.X [ 0 ] [] 0.999;
    grape_converges "GRAPE H" Gate.H [ 0 ] [] 0.999;
    grape_converges "GRAPE RZ" (Gate.RZ (Angle.const 1.1)) [ 0 ] [] 0.999;
    slow_case "GRAPE CX via duration search" (fun () ->
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let target = Gate.unitary Gate.CX in
        let r = DS.minimal_duration h ~target ~lower_bound:60.0 () in
        check_true "fidelity" (r.DS.fidelity >= 0.999 -. 1e-3);
        check_true "latency sane" (r.DS.latency > 40.0 && r.DS.latency < 200.0);
        (* the pulse's propagator really implements CX *)
        let u = Pulse.propagator h r.DS.pulse in
        check_true "implements CX"
          (Fidelity.gate_fidelity target u >= 0.999 -. 1e-3));
    slow_case "merged H;CX beats stitched pulses" (fun () ->
        let h2 = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let h1 = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        let merged_target =
          Gate.unitary_of_apps ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        let merged = DS.minimal_duration h2 ~target:merged_target ~lower_bound:60.0 () in
        let cx = DS.minimal_duration h2 ~target:(Gate.unitary Gate.CX) ~lower_bound:60.0 () in
        let hh = DS.minimal_duration h1 ~target:(Gate.unitary Gate.H) ~lower_bound:20.0 () in
        check_true
          (Printf.sprintf "merged %.0f < stitched %.0f" merged.DS.latency
             (cx.DS.latency +. hh.DS.latency))
          (merged.DS.latency < cx.DS.latency +. hh.DS.latency));
    slow_case "reported fidelity is the pulse's own fidelity" (fun () ->
        (* GRAPE maximises the fidelity alone and returns the best pulse it
           evaluated: re-propagating that pulse gives back its fidelity,
           for a converged run and for one stopped by the iteration cap *)
        List.iter
          (fun (name, n, pairs, kind, qubits, config) ->
            let h = H.make ~n_qubits:n ~coupled_pairs:pairs () in
            let target =
              Gate.unitary_of_apps ~n_qubits:n [ Gate.app kind qubits ]
            in
            let r = Grape.optimize ~config h ~target ~n_slices:24 ~dt:2.0 () in
            let again =
              Fidelity.gate_fidelity target (Pulse.propagator h r.Grape.pulse)
            in
            check_true
              (Printf.sprintf "%s: reported %.12f, re-propagated %.12f" name
                 r.Grape.fidelity again)
              (abs_float (r.Grape.fidelity -. again) < 1e-9))
          [ ("h converged", 1, [], Gate.H, [ 0 ], Grape.default_config);
            ( "cx capped", 2, [ (0, 1) ], Gate.CX, [ 0; 1 ],
              { Grape.default_config with max_iters = 15;
                target_fidelity = 1.1 } ) ]);
    case "gradient is d(fidelity)/dx" (fun () ->
        (* central differences of [evaluate]'s fidelity against its
           gradient plane; GRAPE's first-order propagator derivative is
           accurate to O(dt * |H|), so a short slice keeps it tight *)
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let nc = H.n_controls h and n_slices = 5 and dt = 0.25 in
        let target = Gate.unitary Gate.CX in
        let x =
          Array.init n_slices (fun j ->
              Array.init nc (fun k ->
                  0.3 *. sin (float_of_int ((3 * j) + k + 1))))
        in
        let ws = Grape.Workspace.create h ~n_slices in
        ignore (Grape.evaluate ~ws h target ~dt ~n_slices x);
        let grad = Array.map Array.copy (Grape.Workspace.grad ws) in
        let scale =
          Array.fold_left
            (Array.fold_left (fun acc g -> Float.max acc (abs_float g)))
            0.0 grad
        in
        check_true "gradient is not zero" (scale > 0.0);
        let eps = 1e-6 in
        Array.iteri
          (fun j row ->
            Array.iteri
              (fun k g ->
                let at delta =
                  let x' = Array.map Array.copy x in
                  x'.(j).(k) <- x.(j).(k) +. delta;
                  Grape.evaluate h target ~dt ~n_slices x'
                in
                let fd = (at eps -. at (-.eps)) /. (2.0 *. eps) in
                check_true
                  (Printf.sprintf "(%d,%d): gradient %.6g, differences %.6g" j
                     k g fd)
                  (abs_float (g -. fd) <= 0.02 *. scale))
              row)
          grad);
    slow_case "process fidelity agrees with probe-state fidelity" (fun () ->
        let t = Gen.qoc_default () in
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1;
              Gate.app1 (Gate.RZ (Angle.const 0.4)) 1 ]
        in
        let probe = Sim.circuit_fidelity t c in
        let exact = Sim.process_fidelity t c in
        check_true
          (Printf.sprintf "probe %.4f ~ exact %.4f" probe exact)
          (abs_float (probe -. exact) < 0.02);
        check_true "both high" (exact > 0.97));
    slow_case "ADAM converges on X, H and CX" (fun () ->
        List.iter
          (fun (name, n, pairs, kind, qubits) ->
            let h = H.make ~n_qubits:n ~coupled_pairs:pairs () in
            let target =
              Gate.unitary_of_apps ~n_qubits:n [ Gate.app kind qubits ]
            in
            let r = Grape.optimize h ~target ~n_slices:60 ~dt:2.0 () in
            check_true
              (Printf.sprintf "%s fidelity %.5f" name r.Grape.fidelity)
              (r.Grape.fidelity >= 0.995))
          [ ("x", 1, [], Gate.X, [ 0 ]); ("h", 1, [], Gate.H, [ 0 ]);
            ("cx", 2, [ (0, 1) ], Gate.CX, [ 0; 1 ]) ];
        (* and H at 40 slices reaches the default target *)
        let h = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        let r =
          Grape.optimize h ~target:(Gate.unitary Gate.H) ~n_slices:40 ~dt:2.0
            ()
        in
        check_true "h at 40 slices converged" r.Grape.converged);
    slow_case "warm start does not hurt" (fun () ->
        let h = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        let target = Gate.unitary Gate.H in
        let cold = Grape.optimize h ~target ~n_slices:30 ~dt:2.0 () in
        let warm =
          Grape.optimize ~init:cold.Grape.pulse h ~target ~n_slices:30 ~dt:2.0 ()
        in
        check_true "warm converges at least as fast"
          (warm.Grape.iterations <= cold.Grape.iterations))
  ]

(* ------------------------------------------------------------------ *)
(* Latency model                                                       *)
(* ------------------------------------------------------------------ *)

let lat gates =
  let g, _ = Gen.group_of_apps gates in
  LM.group_latency LM.default ~n_qubits:g.Gen.n_qubits ~key:"" g.Gen.gates

let model_tests =
  [ case "diagonal-only groups are free" (fun () ->
        check_float "rz" 0.0 (lat [ Gate.app1 (Gate.RZ (Angle.const 0.4)) 0 ]);
        check_float "rz;cz... cphase partial is not free" 0.0
          (lat [ Gate.app1 Gate.T 0; Gate.app1 (Gate.RZ (Angle.const 1.0)) 0 ]));
    case "anchors near GRAPE measurements" (fun () ->
        check_true "X ~ 32" (abs_float (lat [ Gate.app1 Gate.X 0 ] -. 32.0) <= 4.0);
        check_true "CX ~ 96" (abs_float (lat [ Gate.app2 Gate.CX 0 1 ] -. 96.0) <= 8.0));
    case "observation 1: merged <= stitched" (fun () ->
        let merged = lat [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ] in
        let stitched = lat [ Gate.app1 Gate.H 0 ] +. lat [ Gate.app2 Gate.CX 0 1 ] in
        check_true "obs1" (merged <= stitched));
    case "observation 1 on same-pair runs" (fun () ->
        let cx = Gate.app2 Gate.CX 0 1 and xc = Gate.app2 Gate.CX 1 0 in
        let merged = lat [ cx; xc; cx ] in
        check_true "swap merged below 3 CX"
          (merged < 3.0 *. lat [ cx ]));
    case "observation 2: more qubits, more latency" (fun () ->
        let l1 = lat [ Gate.app1 Gate.X 0 ] in
        let l2 = lat [ Gate.app2 Gate.CX 0 1 ] in
        let l3 = lat [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ] in
        check_true "1q < 2q" (l1 < l2);
        check_true "2q < 3q" (l2 < l3);
        check_true "avg sizes ordered"
          (LM.avg_latency_for_size LM.default 1 < LM.avg_latency_for_size LM.default 2
           && LM.avg_latency_for_size LM.default 2 < LM.avg_latency_for_size LM.default 3));
    case "jitter is deterministic and bounded" (fun () ->
        let g, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1 ] in
        let l1 = LM.group_latency LM.default ~n_qubits:2 ~key:"k1" g.Gen.gates in
        let l1' = LM.group_latency LM.default ~n_qubits:2 ~key:"k1" g.Gen.gates in
        let l0 = LM.group_latency LM.default ~n_qubits:2 ~key:"" g.Gen.gates in
        check_float "deterministic" l1 l1';
        check_true "within 5%" (abs_float (l1 -. l0) /. l0 <= 0.05));
    case "interaction path weight parallel vs serial" (fun () ->
        (* two CXs on disjoint pairs run in parallel: W = 1 not 2 *)
        let serial =
          LM.interaction_path_weight ~n_qubits:3
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let parallel =
          LM.interaction_path_weight ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 2 3 ]
        in
        check_float "serial 2" 2.0 serial;
        check_float "parallel 1" 1.0 parallel);
    case "fixed-gate table pricing" (fun () ->
        check_float "rz virtual" 0.0
          (LM.fixed_gate_latency LM.default (Gate.app1 (Gate.RZ (Angle.const 1.)) 0));
        check_true "cx episode"
          (LM.fixed_gate_latency LM.default (Gate.app2 Gate.CX 0 1) > 90.0));
    case "error grows with latency and size" (fun () ->
        let e1 = LM.group_error LM.default ~latency:100.0 ~n_qubits:2 in
        let e2 = LM.group_error LM.default ~latency:400.0 ~n_qubits:2 in
        let e3 = LM.group_error LM.default ~latency:100.0 ~n_qubits:3 in
        check_true "latency" (e2 > e1);
        check_true "size" (e3 > e1);
        check_float "free is exact" 0.0
          (LM.group_error LM.default ~latency:0.0 ~n_qubits:1));
    case "generation cost: seeding discounts" (fun () ->
        let c = LM.generation_cost LM.default ~latency:200.0 ~n_qubits:3 ~seeded:false in
        let s = LM.generation_cost LM.default ~latency:200.0 ~n_qubits:3 ~seeded:true in
        check_true "discount" (s < c))
  ]

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let generator_tests =
  [ case "cache hit on repetition" (fun () ->
        let t = Gen.model_default () in
        let g, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 3 7 ] in
        let o1 = Gen.generate t g in
        let o2 = Gen.generate t g in
        check_true "first misses" (not o1.Gen.cache_hit);
        check_true "second hits" o2.Gen.cache_hit;
        check_float "same latency" o1.Gen.latency o2.Gen.latency;
        check_int "one generated" 1 (Gen.pulses_generated t);
        check_int "one hit" 1 (Gen.cache_hits t));
    case "permuted qubits hit the cache" (fun () ->
        let t = Gen.model_default () in
        let g1, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 2 5 ] in
        let g2, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 9 1 ] in
        ignore (Gen.generate t g1);
        let o = Gen.generate t g2 in
        check_true "permutation detected" o.Gen.cache_hit);
    case "keys distinguish operand roles" (fun () ->
        let g1, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 0 ] in
        let g2, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ] in
        check_true "different" (not (String.equal (Gen.key g1) (Gen.key g2))));
    case "shape signature ignores angles" (fun () ->
        let g1, _ = Gen.group_of_apps [ Gate.app1 (Gate.RZ (Angle.const 0.1)) 0 ] in
        let g2, _ = Gen.group_of_apps [ Gate.app1 (Gate.RZ (Angle.const 0.9)) 0 ] in
        check_true "same shape"
          (String.equal (Gen.shape_signature g1) (Gen.shape_signature g2));
        check_true "different keys" (not (String.equal (Gen.key g1) (Gen.key g2))));
    case "similar group is seeded" (fun () ->
        let t = Gen.model_default () in
        let g1, _ = Gen.group_of_apps [ Gate.app1 (Gate.RZ (Angle.const 0.1)) 0 ] in
        let g2, _ = Gen.group_of_apps [ Gate.app1 (Gate.RZ (Angle.const 0.9)) 0 ] in
        ignore (Gen.generate t g1);
        let o = Gen.generate t g2 in
        check_true "seeded" o.Gen.seeded);
    case "prefix seeding for incremental merges" (fun () ->
        let t = Gen.model_default () in
        let g1, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1 ] in
        let g2, _ =
          Gen.group_of_apps [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        ignore (Gen.generate t g1);
        let o = Gen.generate t g2 in
        check_true "seeded from prefix" o.Gen.seeded);
    case "estimate is free" (fun () ->
        let t = Gen.model_default () in
        let g, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1 ] in
        ignore (Gen.estimate_latency t g);
        check_int "nothing generated" 0 (Gen.pulses_generated t);
        check_float "no cost" 0.0 (Gen.total_seconds t));
    case "database save/load round-trip" (fun () ->
        let t = Gen.model_default () in
        let g1, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ] in
        let g2, _ = Gen.group_of_apps [ Gate.app1 Gate.SX 0 ] in
        let o1 = Gen.generate t g1 in
        ignore (Gen.generate t g2);
        let path = Filename.temp_file "paqoc_db" ".txt" in
        Gen.save_database t path;
        let t' = Gen.model_default () in
        Gen.load_database t' path;
        Sys.remove path;
        check_int "entries survive" (Gen.database_size t) (Gen.database_size t');
        let o1' = Gen.generate t' g1 in
        check_true "cache hit after load" o1'.Gen.cache_hit;
        check_float "same latency" o1.Gen.latency o1'.Gen.latency;
        check_int "nothing regenerated" 0 (Gen.pulses_generated t'));
    case "load rejects malformed files" (fun () ->
        let path = Filename.temp_file "paqoc_db" ".txt" in
        let oc = open_out path in
        output_string oc "not a database\n";
        close_out oc;
        let t = Gen.model_default () in
        let raised =
          try
            Gen.load_database t path;
            false
          with Failure _ -> true
        in
        Sys.remove path;
        check_true "raises" raised);
    case "reset keeps the database" (fun () ->
        let t = Gen.model_default () in
        let g, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1 ] in
        ignore (Gen.generate t g);
        Gen.reset_accounting t;
        check_int "counters zeroed" 0 (Gen.pulses_generated t);
        let o = Gen.generate t g in
        check_true "db survived" o.Gen.cache_hit)
  ]

(* ------------------------------------------------------------------ *)
(* Pricing                                                             *)
(* ------------------------------------------------------------------ *)

let pricing_tests =
  [ case "serial circuit latency adds up" (fun () ->
        let t = Gen.model_default () in
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1 ]
        in
        let l = Pricing.circuit_latency t c in
        let single = (episode t (Gate.app2 Gate.CX 0 1)).Gen.latency in
        check_float "2x" (2.0 *. single) l);
    case "parallel gates share the clock" (fun () ->
        let t = Gen.model_default () in
        let c =
          Circuit.make ~n_qubits:4
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 2 3 ]
        in
        let single = (episode t (Gate.app2 Gate.CX 0 1)).Gen.latency in
        check_float "1x" single (Pricing.circuit_latency t c));
    case "esp in (0,1]" (fun () ->
        let t = Gen.model_default () in
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let esp = Pricing.circuit_esp t c in
        check_true "bounds" (esp > 0.0 && esp <= 1.0))
  ]

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let sim_tests =
  [ case "apply_local matches embed" (fun () ->
        let psi = Cvec.normalize (Cvec.of_list
          [ Cx.one; Cx.i; Cx.of_float 0.5; Cx.make 0.3 (-0.2);
            Cx.zero; Cx.one; Cx.i; Cx.of_float (-1.0) ]) in
        let op = Gate.unitary Gate.CX in
        let via_local = Sim.apply_local psi op ~wires:[ 2; 0 ] ~n_qubits:3 in
        let via_embed =
          Cvec.apply (Cmat.embed ~n_qubits:3 op ~on:[ 2; 0 ]) psi
        in
        check_float "same state" 1.0 (Cvec.overlap2 via_local via_embed));
    case "ideal_state runs ghz" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let psi = Sim.ideal_state c (Cvec.basis ~dim:8 0) in
        check_float ~eps:1e-9 "amp |000>" (1.0 /. sqrt 2.0) (Cx.re (Cvec.get psi 0));
        check_float ~eps:1e-9 "amp |111>" (1.0 /. sqrt 2.0) (Cx.re (Cvec.get psi 7)));
    case "probe states are normalised" (fun () ->
        List.iter
          (fun v -> check_float ~eps:1e-9 "unit" 1.0 (Paqoc_linalg.Cvec.norm v))
          (Sim.probe_states ~n_qubits:3));
    case "model backend rejects pulse simulation" (fun () ->
        let t = Gen.model_default () in
        let c = Circuit.make ~n_qubits:1 [ Gate.app1 Gate.X 0 ] in
        check_true "raises"
          (try ignore (Sim.pulse_state t c (Cvec.basis ~dim:2 0)); false
           with Invalid_argument _ -> true));
    slow_case "pulse simulation fidelity on a bell circuit" (fun () ->
        let t = Gen.qoc_default () in
        let c =
          Circuit.make ~n_qubits:2 [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        let f = Sim.circuit_fidelity t c in
        check_true (Printf.sprintf "fidelity %.4f >= 0.98" f) (f >= 0.98))
  ]

let noise_tests =
  [ case "noiseless limit recovers unit fidelity" (fun () ->
        let gen = Gen.model_default () in
        let c =
          Circuit.make ~n_qubits:2 [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        let f =
          Sim.noisy_fidelity
            ~noise:{ Sim.default_noise with t2 = 1e12 } gen c
        in
        check_float ~eps:1e-9 "no decoherence" 1.0 f);
    case "fidelity decays as T2 shrinks" (fun () ->
        let gen = Gen.model_default () in
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2;
              Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ]
        in
        let f t2 = Sim.noisy_fidelity ~noise:{ Sim.default_noise with t2 } gen c in
        check_true "monotone-ish" (f 100_000.0 >= f 2_000.0));
    case "noisy fidelity is deterministic" (fun () ->
        let gen = Gen.model_default () in
        let c = Circuit.make ~n_qubits:2 [ Gate.app2 Gate.CX 0 1 ] in
        check_float "seeded" (Sim.noisy_fidelity gen c) (Sim.noisy_fidelity gen c));
    case "bad noise parameters rejected" (fun () ->
        let gen = Gen.model_default () in
        let c = Circuit.make ~n_qubits:1 [ Gate.app1 Gate.X 0 ] in
        check_true "raises"
          (try
             ignore
               (Sim.noisy_fidelity ~noise:{ Sim.default_noise with t2 = -1.0 }
                  gen c);
             false
           with Invalid_argument _ -> true))
  ]

let density_tests =
  [ case "pure-state density matrix basics" (fun () ->
        let psi = Cvec.normalize (Cvec.of_list [ Cx.one; Cx.i ]) in
        let rho = Density.of_pure psi in
        check_int "dim" 2 (Density.dim rho);
        check_float ~eps:1e-12 "unit trace" 1.0 (Density.trace rho);
        check_float ~eps:1e-12 "self fidelity" 1.0
          (Density.fidelity_to_pure rho psi));
    case "unitary conjugation preserves trace" (fun () ->
        let rho = Density.of_pure (Cvec.basis ~dim:4 1) in
        let rho' =
          Density.apply_unitary rho (Gate.unitary Gate.CX) ~wires:[ 0; 1 ]
            ~n_qubits:2
        in
        check_float ~eps:1e-12 "trace" 1.0 (Density.trace rho'));
    case "pauli channel is trace-preserving and contractive" (fun () ->
        let plus = Cvec.normalize (Cvec.of_list [ Cx.one; Cx.one ]) in
        let rho = Density.of_pure plus in
        let rho' = Density.apply_pauli_channel rho ~qubit:0 ~n_qubits:1 ~p:0.3 in
        check_float ~eps:1e-12 "trace" 1.0 (Density.trace rho');
        check_true "fidelity dropped"
          (Density.fidelity_to_pure rho' plus < 1.0));
    case "exact channel matches the trajectory sampler" (fun () ->
        let gen = Gen.model_default () in
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1;
              Gate.app1 Gate.H 1 ]
        in
        let t2 = 3_000.0 in
        let exact = Density.noisy_fidelity ~t2 gen c in
        let sampled =
          Sim.noisy_fidelity
            ~noise:{ Sim.default_noise with t2; trajectories = 600 } gen c
        in
        check_true
          (Printf.sprintf "exact %.4f ~ sampled %.4f" exact sampled)
          (abs_float (exact -. sampled) < 0.04));
    case "exact noisy fidelity decays with schedule length" (fun () ->
        let gen = Gen.model_default () in
        let short = Circuit.make ~n_qubits:2 [ Gate.app2 Gate.CX 0 1 ] in
        let long =
          Circuit.make ~n_qubits:2
            [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1;
              Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 0;
              Gate.app2 Gate.CX 0 1 ]
        in
        let f c = Density.noisy_fidelity ~t2:5_000.0 gen c in
        check_true "longer schedule, lower fidelity" (f long < f short))
  ]

(* [Pricing.price] against the per-episode path it replaced: one
   [episode] per node, in node order, scheduled by the oracle's
   own folds ([Reference_criticality.schedule]), then the ESP folded
   over a second [episode] per gate. Seeded random circuits,
   each priced on a fresh generator (syntheses and in-batch duplicates)
   and again once it is warm (table hits), at jobs 1 and 4: the total,
   every node's latency and the ESP agree bit for bit, and the one
   batch answers exactly one lookup per episode fewer than the two
   per-episode passes. *)
let price_case =
  case "Pricing.price == per-episode pricing, bit for bit" (fun () ->
      let bits = Int64.bits_of_float in
      let st = Random.State.make [| 0x9121 |] in
      for trial = 1 to 40 do
        let c =
          QCheck.Gen.generate1 ~rand:st (gen_circuit ~n:4 ~max_gates:24 ())
        in
        let n = Circuit.n_gates c in
        List.iter
          (fun jobs ->
            let fast = Gen.model_default () and slow = Gen.model_default () in
            List.iter
              (fun pass ->
                let what field =
                  Printf.sprintf "trial %d, jobs %d, %s: %s" trial jobs pass
                    field
                in
                let hits0 = Gen.cache_hits fast
                and slow0 = Gen.cache_hits slow in
                let p = Pricing.price ~jobs fast c in
                let s =
                  Reference_criticality.schedule (Dag.of_circuit c) (fun g ->
                      (episode slow g).Gen.latency)
                in
                let esp =
                  Reference_linalg.esp
                    (List.map (fun g -> (episode slow g).Gen.error)
                       c.Circuit.gates)
                in
                let sched = p.Pricing.schedule in
                check_true (what "total")
                  (bits sched.Dag.total = bits s.Dag.total);
                for v = 0 to n - 1 do
                  if bits sched.Dag.latency.(v) <> bits s.Dag.latency.(v) then
                    Alcotest.fail (what (Printf.sprintf "latency of %d" v))
                done;
                check_true (what "esp") (bits p.Pricing.esp = bits esp);
                check_int (what "one lookup per episode fewer")
                  (Gen.cache_hits slow - slow0 - n)
                  (Gen.cache_hits fast - hits0);
                check_int (what "synthesized") (Gen.pulses_generated slow)
                  (Gen.pulses_generated fast))
              [ "fresh"; "warm" ])
          [ 1; 4 ]
      done)

(* The nearest-shape scan's integer edit distance, held to the string DP
   it replaced (test/reference_distance.ml) on seeded random token
   sequences. Small alphabets make ties and repeats common; lengths 0-40
   and edited copies put many pairs near the scan's 2/5 threshold, where
   a distance one off would change the warm start it picks. *)
let distance_case =
  case "token_distance == the string DP oracle on random token arrays"
    (fun () ->
      let alphabet = [| "2"; "cx@0,1"; "cx@1,0"; "rz@0"; "sx@1" |] in
      let rng = Random.State.make [| 0x70ce |] in
      let draw k =
        Array.init (Random.State.int rng 41) (fun _ -> Random.State.int rng k)
      in
      (* [a] after up to eight random deletions, insertions and
         substitutions *)
      let edit k a =
        let b = ref a in
        for _ = 1 to Random.State.int rng 9 do
          let n = Array.length !b in
          let at = Random.State.int rng (n + 1) in
          let c = Random.State.int rng k in
          b :=
            match Random.State.int rng 3 with
            | 0 when at < n ->
              Array.append (Array.sub !b 0 at)
                (Array.sub !b (at + 1) (n - at - 1))
            | 1 ->
              Array.concat
                [ Array.sub !b 0 at; [| c |]; Array.sub !b at (n - at) ]
            | _ when at < n ->
              let b' = Array.copy !b in
              b'.(at) <- c;
              b'
            | _ -> !b
        done;
        !b
      in
      let names = Array.map (fun c -> alphabet.(c)) in
      for i = 1 to 4000 do
        let k = 1 + Random.State.int rng (Array.length alphabet) in
        let a = draw k in
        let b = if i mod 2 = 0 then draw k else edit k a in
        let expected = Reference_distance.token_distance (names a) (names b) in
        let got = Gen.token_distance a b in
        if got <> expected then
          Alcotest.failf
            "pair %d (lengths %d, %d): token_distance %d, oracle %d" i
            (Array.length a) (Array.length b) got expected
      done)

let suite =
  hamiltonian_tests @ pulse_tests @ grape_tests @ model_tests
  @ generator_tests @ pricing_tests @ sim_tests @ noise_tests @ density_tests
  @ [ price_case; distance_case ]
