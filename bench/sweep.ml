(* BENCH_sweep.json: the parametric recompilation fast path.

   Phase 1 (model backend, the headline): freeze the qaoa sweep
   benchmark's compile plan once, then drive a seeded 32-point angle
   sweep twice — the full online path (Variational.compile: bind, run
   the criticality search, price every group) and the frozen-plan fast
   path (Variational.recompile: table lookup + anchor interpolation).
   The headline number is the per-iteration speedup, gated at 10x.

   Phase 2 (QOC backend, the correctness gate): a small DNN ansatz with
   real GRAPE anchors, swept through the fast path twice. The strict
   pass runs at the default 1e-6 tolerance: every interpolation whose
   re-simulated drift exceeds it must fall back to real synthesis, so
   the shipped drift is bounded by construction — the gate checks that
   the accounting covers every parameter slot and that no accepted check
   exceeds the bound. The loose pass runs at 1e-2, where interpolations
   actually get accepted; the bench re-simulates every stored check
   pulse and refuses to write an entry unless the replay reproduces the
   stored measured fidelity — or if no interpolation was accepted at
   all, which would make the differential vacuous.

   All gates failwith before any file is written, so a regression can
   never leave a healthy-looking BENCH_sweep.json behind. *)

module V = Paqoc.Variational
module Gen = Paqoc_pulse.Generator
module Gate = Paqoc_circuit.Gate
module Pulse = Paqoc_pulse.Pulse
module Fidelity = Paqoc_linalg.Fidelity
module Suite = Paqoc_benchmarks.Suite
module Dnn = Paqoc_benchmarks.Dnn
module Coupling = Paqoc_topology.Coupling
module Transpile = Paqoc_topology.Transpile
module Clock = Paqoc_obs.Clock
module Json = Paqoc_obs.Json

let seed = 11
let model_iterations = 32
let qoc_iterations = 2
let qoc_anchors = 9
let drift_tol = 1e-6
let loose_tol = 1e-2

(* the sweep benchmark exactly as compile-sweep serves it: transpiled
   onto the paper's 5x5 grid *)
let prepared_qaoa () =
  let e = Suite.sweep_find "qaoa" in
  let t =
    Transpile.run
      ~coupling:(Coupling.grid ~rows:5 ~cols:5)
      (e.Suite.sweep_build ())
  in
  V.prepare t.Transpile.physical

type fast_pass = {
  fast_wall_s : float;
  interp : int;
  fallback : int;
  resynth : int;
  max_drift : float;  (** over accepted interpolation checks *)
  n_checks : int;
}

let run_fast ~interp_tol plan gen sweep =
  let t0 = Clock.now_s () in
  let interp = ref 0 and fallback = ref 0 and resynth = ref 0 in
  let max_drift = ref 0.0 and n_checks = ref 0 in
  let checks = ref [] in
  List.iter
    (fun angles ->
      let it = V.recompile ~interp_tol plan gen ~angles in
      interp := !interp + it.V.interp;
      fallback := !fallback + it.V.fallback;
      resynth := !resynth + it.V.resynth;
      List.iter
        (fun (c : V.check) ->
          incr n_checks;
          checks := c :: !checks;
          max_drift :=
            Float.max !max_drift (Float.abs (c.V.predicted -. c.V.measured)))
        it.V.checks)
    sweep;
  ( { fast_wall_s = Clock.now_s () -. t0;
      interp = !interp;
      fallback = !fallback;
      resynth = !resynth;
      max_drift = !max_drift;
      n_checks = !n_checks
    },
    List.rev !checks )

(* the differential replay: re-simulate the stored interpolated pulse
   under the group's Hamiltonian and hold the result against the
   [measured] fidelity recompile recorded at acceptance time *)
let replay_drift (c : V.check) =
  let grp = c.V.check_group in
  let target =
    Gate.unitary_of_apps ~n_qubits:grp.Gen.n_qubits grp.Gen.gates
  in
  let resim =
    Fidelity.gate_fidelity target
      (Pulse.propagator (Gen.hamiltonian_of grp) c.V.check_pulse)
  in
  Float.abs (resim -. c.V.measured)

let run_bench_sweep ?(path = "BENCH_sweep.json") () =
  Printf.printf
    "\n%s\nSWEEP  parametric recompilation fast path, %d-point qaoa sweep\n%s\n"
    (String.make 78 '=') model_iterations (String.make 78 '=');

  (* phase 1: model backend, full-recompile baseline vs fast path *)
  let prepared = prepared_qaoa () in
  let t0 = Clock.now_s () in
  let plan = V.freeze ~anchors:5 (prepared) (Gen.model_default ()) in
  let freeze_s = Clock.now_s () -. t0 in
  let sweep = V.sweep_angles ~seed ~n:model_iterations (V.plan_params plan) in
  let t0 = Clock.now_s () in
  let base_gen = Gen.model_default () in
  List.iter (fun angles -> ignore (V.compile prepared base_gen angles)) sweep;
  let full_wall_s = Clock.now_s () -. t0 in
  let fast, _ = run_fast ~interp_tol:drift_tol plan (Gen.model_default ()) sweep in
  let n = float_of_int model_iterations in
  let full_iter_s = full_wall_s /. n in
  let fast_iter_s = fast.fast_wall_s /. n in
  let speedup = full_iter_s /. Float.max fast_iter_s 1e-12 in
  let hit_rate =
    if fast.interp + fast.fallback = 0 then 0.0
    else float_of_int fast.interp /. float_of_int (fast.interp + fast.fallback)
  in
  Printf.printf
    "  freeze %6.3f s  full %8.2f ms/iter  fast %8.3f ms/iter  \
     (%.0fx, gate 10x)\n"
    freeze_s (1000.0 *. full_iter_s) (1000.0 *. fast_iter_s) speedup;
  Printf.printf
    "  fast path: %d interp / %d fallback / %d resynth  (hit rate %.1f%%)\n%!"
    fast.interp fast.fallback fast.resynth (100.0 *. hit_rate);
  if speedup < 10.0 then
    failwith
      (Printf.sprintf
         "fast path is only %.1fx the full per-iteration recompile (gate \
          10x) — refusing to write %s"
         speedup path);

  (* phase 2: QOC backend, drift gates over real interpolated waveforms *)
  let qoc_prepared =
    V.prepare (Dnn.circuit ~symbolic:true ~n:3 ~blocks:1 ())
  in
  let qoc_plan =
    V.freeze ~anchors:qoc_anchors qoc_prepared (Gen.qoc_default ())
  in
  let _, qoc_param, qoc_multi = V.plan_slot_kinds qoc_plan in
  let qoc_sweep =
    V.sweep_angles ~seed ~n:qoc_iterations (V.plan_params qoc_plan)
  in
  (* strict pass at the shipping tolerance: excessive drift must have
     fallen back to real synthesis, so the output drift is bounded by
     construction — check the accounting covers every parameter slot *)
  let strict, strict_checks =
    run_fast ~interp_tol:drift_tol qoc_plan (Gen.qoc_default ()) qoc_sweep
  in
  Printf.printf
    "  qoc strict : %d interp / %d fallback, %d checks, max drift %.3g \
     (gate %.0e)\n%!"
    strict.interp strict.fallback (List.length strict_checks)
    strict.max_drift drift_tol;
  if strict.max_drift > drift_tol then
    failwith
      (Printf.sprintf
         "strict pass accepted an interpolation with drift %.3g > %.0e — \
          refusing to write %s"
         strict.max_drift drift_tol path);
  if
    strict.interp + strict.fallback <> qoc_param * qoc_iterations
    || strict.resynth <> qoc_multi * qoc_iterations
  then
    failwith
      (Printf.sprintf
         "strict pass accounting does not cover the plan's slots \
          (%d interp + %d fallback over %d param slots x %d iterations) — \
          refusing to write %s"
         strict.interp strict.fallback qoc_param qoc_iterations path);
  (* loose pass: interpolations actually get accepted here, making the
     differential non-vacuous — replay every stored check pulse. The
     pass needs its own frozen plan: the strict pass's fallbacks adopted
     anchors at exactly these sweep angles, so reusing its plan would
     serve every slot as an exact anchor hit and interpolate nothing. *)
  let loose_plan =
    V.freeze ~anchors:qoc_anchors qoc_prepared (Gen.qoc_default ())
  in
  let loose, loose_checks =
    run_fast ~interp_tol:loose_tol loose_plan (Gen.qoc_default ()) qoc_sweep
  in
  let replay_err =
    List.fold_left
      (fun acc c -> Float.max acc (replay_drift c))
      0.0 loose_checks
  in
  Printf.printf
    "  qoc loose  : %d interp / %d fallback, %d checks, max drift %.3g \
     (gate %.0e), replay err %.3g\n%!"
    loose.interp loose.fallback (List.length loose_checks) loose.max_drift
    loose_tol replay_err;
  if loose_checks = [] then
    failwith
      (Printf.sprintf
         "loose pass accepted no interpolations — the differential is \
          vacuous; refusing to write %s"
         path);
  if loose.max_drift > loose_tol then
    failwith
      (Printf.sprintf
         "loose pass accepted an interpolation with drift %.3g > %.0e — \
          refusing to write %s"
         loose.max_drift loose_tol path);
  if replay_err > 1e-12 then
    failwith
      (Printf.sprintf
         "re-simulating a stored check pulse diverges from its recorded \
          measured fidelity by %.3g — refusing to write %s"
         replay_err path);

  let run_json phase tol iters (p : fast_pass) =
    Json.Obj
      [ ("phase", Json.Str phase);
        ("tol", Json.Num tol);
        ("iterations", Json.int iters);
        ("interp", Json.int p.interp);
        ("fallback", Json.int p.fallback);
        ("resynth", Json.int p.resynth);
        ("checks", Json.int p.n_checks);
        ("max_drift", Json.Num p.max_drift)
      ]
  in
  Common.write_entry path ~bench:"sweep"
    [ ("seed", Json.int seed);
      ("anchors", Json.int 5);
      ("qoc_anchors", Json.int qoc_anchors);
      ("freeze_s", Json.Num freeze_s);
      ("full_iter_s", Json.Num full_iter_s);
      ("fast_iter_s", Json.Num fast_iter_s);
      ("speedup", Json.Num speedup);
      ("interp_hit_rate", Json.Num hit_rate);
      ( "runs",
        Json.Arr
          [ run_json "model" drift_tol model_iterations fast;
            run_json "qoc-strict" drift_tol qoc_iterations strict;
            run_json "qoc-loose" loose_tol qoc_iterations loose
          ] );
      ("qoc_replay_err", Json.Num replay_err)
    ]
