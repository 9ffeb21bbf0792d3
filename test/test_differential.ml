(* Differential verification: the fidelity the generator records in its
   pulse database must be reproducible from the committed waveform alone.
   Every check re-simulates a pulse under the exact Hamiltonian it was
   optimised against and compares with the recorded number at 1e-6 — a
   drift here means the database is lying about its own pulses.

   The interpolation-fidelity battery extends the same discipline to the
   variational fast path: every interpolated pulse an accepted sweep
   iteration ships is replayed under its group's Hamiltonian, and the
   result must reproduce the [measured] fidelity recompile recorded at
   acceptance time — while |predicted - measured| stays within the
   tolerance the acceptance claimed. *)
open Test_util
module Gen = Paqoc_pulse.Generator
module Pulse = Paqoc_pulse.Pulse
module Sim = Paqoc_pulse.Simulator
module Fidelity = Paqoc_linalg.Fidelity
module Cache = Paqoc_pulse.Cache
module Hamiltonian = Paqoc_pulse.Hamiltonian
module Suite = Paqoc_benchmarks.Suite
module V = Paqoc.Variational
module Qaoa = Paqoc_benchmarks.Qaoa
module Dnn = Paqoc_benchmarks.Dnn

let group apps = fst (Gen.group_of_apps apps)

(* re-derive a committed outcome's fidelity from its waveform *)
let resimulate (g : Gen.group) (o : Gen.outcome) =
  match o.Gen.pulse with
  | None -> Alcotest.fail "outcome carries no waveform to verify"
  | Some p ->
    let h = Gen.hamiltonian_of g in
    let target =
      Gate.unitary_of_apps ~n_qubits:g.Gen.n_qubits g.Gen.gates
    in
    Fidelity.gate_fidelity target (Pulse.propagator h p)

let check_consistent name g o =
  let replayed = resimulate g o in
  let drift = abs_float (replayed -. o.Gen.fidelity) in
  check_true
    (Printf.sprintf "%s: recorded %.8f vs replayed %.8f (drift %.2e)" name
       o.Gen.fidelity replayed drift)
    (drift < 1e-6)

let suite =
  [ slow_case "recorded fidelities replay from the waveform (1e-6)"
      (fun () ->
        let gen = Gen.qoc_default () in
        List.iter
          (fun (name, apps) ->
            let g = group apps in
            let o = Gen.generate gen g in
            check_true (name ^ " carries a pulse") (o.Gen.pulse <> None);
            check_consistent name g o)
          [ ("x", [ Gate.app1 Gate.X 0 ]);
            ("h", [ Gate.app1 Gate.H 0 ]);
            ("cx", [ Gate.app2 Gate.CX 0 1 ]);
            ("merged h;cx", [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ])
          ]);
    slow_case "batch-committed pulses verify against the database" (fun () ->
        (* parallel generation must commit pulses whose recorded fidelity
           is just as replayable as serial ones; read them back through
           the database (peek), not the in-flight outcomes *)
        let gen = Gen.qoc_default () in
        let groups =
          [ group [ Gate.app2 Gate.CX 0 1 ];
            group [ Gate.app1 Gate.X 0; Gate.app1 Gate.H 1 ];
            group [ Gate.app2 Gate.CZ 0 1; Gate.app1 Gate.X 0 ]
          ]
        in
        ignore (Gen.generate_batch ~jobs:2 gen groups);
        List.iteri
          (fun i g ->
            match Gen.peek gen g with
            | None -> Alcotest.failf "group %d missing from the database" i
            | Some o ->
              check_consistent (Printf.sprintf "group %d" i) g o)
          groups);
    slow_case "whole-circuit pulse evolution matches recorded errors"
      (fun () ->
        (* the recorded per-group infidelities must predict the simulator's
           measured whole-circuit fidelity: 1 - sum(eps) is a first-order
           lower bound, so the measurement may exceed it but never
           undershoot materially *)
        let gen = Gen.qoc_default () in
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        let measured = Sim.process_fidelity gen c in
        let predicted =
          List.fold_left
            (fun acc a -> acc -. (Gen.generate gen (group [ a ])).Gen.error)
            1.0 c.Circuit.gates
        in
        check_true
          (Printf.sprintf "measured %.5f >= predicted %.5f - 1e-3" measured
             predicted)
          (measured >= predicted -. 1e-3));
    case "model-backend outcomes are self-consistent" (fun () ->
        (* the analytic backend has no waveform, but its recorded fidelity
           must still equal 1 - error exactly, and peek must return the
           committed entry unchanged *)
        let gen = Gen.model_default () in
        let g =
          group [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
        in
        let o = Gen.generate gen g in
        check_float "fidelity = 1 - error" (1.0 -. o.Gen.error) o.Gen.fidelity;
        match Gen.peek gen g with
        | None -> Alcotest.fail "committed entry not peekable"
        | Some p ->
          check_float "peek latency" o.Gen.latency p.Gen.latency;
          check_float "peek error" o.Gen.error p.Gen.error;
          check_true "peek provenance"
            (p.Gen.provenance = o.Gen.provenance));
    (* ---- canonicalization: replayed class-mate pulses ---- *)
    slow_case "canonical replays re-simulate within 1e-6 (qoc)" (fun () ->
        (* a class hit replays the representative's waveform under the
           local-frame correction recorded alongside it; re-simulating
           that corrected pulse against the CLASS-MATE's target must
           reproduce the recorded fidelity (which is the representative's
           — the trace fidelity is invariant under the correction) *)
        let cache = Cache.create () in
        let gen = Gen.qoc_default () in
        Gen.set_shared_cache gen (Some cache);
        Gen.set_canonical gen true;
        let groups =
          [ group [ Gate.app1 Gate.H 0 ];
            group [ Gate.app1 Gate.SX 0 ];
            group [ Gate.app2 Gate.CX 0 1 ];
            group [ Gate.app2 Gate.CZ 0 1 ];
            group
              [ Gate.app1 Gate.T 0; Gate.app1 Gate.H 1;
                Gate.app2 Gate.CX 0 1; Gate.app1 Gate.SX 1 ]
          ]
        in
        ignore (Gen.generate_batch ~jobs:1 gen groups);
        let replays = Gen.canonical_replays gen in
        (* SX replays H; CZ and the dressed block replay CX *)
        check_int "three class-mates replayed" 3 (List.length replays);
        List.iter
          (fun g ->
            match List.assoc_opt (Gen.key g) replays with
            | None -> () (* a representative, not a replay *)
            | Some rp -> (
              let o =
                match Gen.peek gen g with
                | Some o -> o
                | None -> Alcotest.fail "replayed outcome not committed"
              in
              check_true "committed as a cache hit" o.Gen.cache_hit;
              check_mat_phase ~tol:1e-9 "recorded target is the group's"
                (Gate.unitary_of_apps ~n_qubits:g.Gen.n_qubits g.Gen.gates)
                rp.Gen.target;
              match rp.Gen.rep_pulse with
              | None -> Alcotest.fail "replay carries no waveform"
              | Some p ->
                let u_p = Pulse.propagator (Gen.hamiltonian_of g) p in
                let corrected =
                  Cmat.mul rp.Gen.correction_l
                    (Cmat.mul u_p rp.Gen.correction_r)
                in
                let f = Fidelity.gate_fidelity rp.Gen.target corrected in
                let drift = abs_float (f -. o.Gen.fidelity) in
                check_true
                  (Printf.sprintf
                     "%s: recorded %.8f vs replayed %.8f (drift %.2e)"
                     (Gen.key g) o.Gen.fidelity f drift)
                  (drift < 1e-6)))
          groups);
    slow_case "bb84 canonical compile: every replayed pulse re-simulates"
      (fun () ->
        (* end-to-end through Paqoc.compile with --canonical-cache
           semantics: bb84's merged 1q groups collapse to a few classes,
           so the batch replays class-mates of pulses synthesized moments
           earlier. Each replay must survive re-simulation. *)
        let physical =
          (Suite.transpiled (Suite.find "bb84"))
            .Paqoc_topology.Transpile.physical
        in
        let cache = Cache.create () in
        let gen = Gen.qoc_default () in
        ignore (Paqoc.compile (attached ~canonical:true cache gen) physical);
        let replays = Gen.canonical_replays gen in
        check_true "bb84 replayed at least one class-mate"
          (List.length replays > 0);
        List.iter
          (fun (key, rp) ->
            check_int "bb84 replays are 1-qubit" 2 (Cmat.rows rp.Gen.target);
            let rep =
              match Cache.probe cache rp.Gen.rep_key with
              | Some e -> e
              | None -> Alcotest.failf "%s: representative not published" key
            in
            match rp.Gen.rep_pulse with
            | None -> Alcotest.failf "%s: replay carries no waveform" key
            | Some p ->
              let h =
                Hamiltonian.make ~n_qubits:1 ~coupled_pairs:[] ()
              in
              let corrected =
                Cmat.mul rp.Gen.correction_l
                  (Cmat.mul (Pulse.propagator h p) rp.Gen.correction_r)
              in
              let f = Fidelity.gate_fidelity rp.Gen.target corrected in
              let drift = abs_float (f -. rep.Cache.fidelity) in
              check_true
                (Printf.sprintf
                   "%s: recorded %.8f vs replayed %.8f (drift %.2e)" key
                   rep.Cache.fidelity f drift)
                (drift < 1e-6))
          replays);
    slow_case "canonical publishes are jobs-invariant over the suite"
      (fun () ->
        (* the v4 class section must be byte-identical between --jobs 1
           and --jobs 4, and so must every compile result row: the
           first-publisher-wins representative choice may not depend on
           worker scheduling *)
        let with_tmp f =
          let path = Filename.temp_file "paqoc_canon_suite" ".db" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () -> f path)
        in
        let read_file path =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let run jobs path =
          let rows =
            Cache.with_file path (fun cache ->
                List.map
                  (fun e ->
                    let gen =
                      attached ~canonical:true cache (Gen.model_default ())
                    in
                    let r =
                      Paqoc.compile ~jobs gen
                        (Suite.transpiled e).Paqoc_topology.Transpile
                          .physical
                    in
                    (e.Suite.name, r.Paqoc.latency, r.Paqoc.esp,
                     r.Paqoc.pulses_generated))
                  Suite.all)
          in
          (rows, read_file path)
        in
        with_tmp @@ fun p1 ->
        with_tmp @@ fun p4 ->
        let rows1, bytes1 = run 1 p1 in
        let rows4, bytes4 = run 4 p4 in
        check_true "result rows identical across jobs" (rows1 = rows4);
        check_true "cache bytes identical across jobs"
          (String.equal bytes1 bytes4);
        check_true "the suite cache is a v4 file"
          (String.sub bytes1 0 17 = "paqoc-pulse-db v4"))
    (* ---- the interpolation-fidelity battery (parametric fast path) ---- *);
    slow_case "interpolation battery: three ansatz sweeps replay exactly"
      (fun () ->
        (* freeze each parameterised ansatz on its anchor grid and sweep
           it at a tolerance loose enough that interpolations are actually
           accepted; then hold every shipped check pulse to the database's
           own standard — re-simulating it must reproduce the recorded
           measured fidelity, and the recorded predicted-vs-measured drift
           must stay within the accepted tolerance *)
        List.iter
          (fun (name, anchors, interp_tol, circ) ->
            let gen = Gen.qoc_default () in
            let plan = V.freeze ~anchors (V.prepare circ) gen in
            let sweep = V.sweep_angles ~seed:7 ~n:2 (V.plan_params plan) in
            let checks =
              List.concat_map
                (fun angles ->
                  (V.recompile ~interp_tol plan gen ~angles).V.checks)
                sweep
            in
            check_true (name ^ ": battery is not vacuous") (checks <> []);
            List.iter
              (fun (c : V.check) ->
                let drift = abs_float (c.V.predicted -. c.V.measured) in
                check_true
                  (Printf.sprintf
                     "%s %s: accepted drift %.2e within tol %.0e" name
                     c.V.check_key drift interp_tol)
                  (drift <= interp_tol);
                let grp = c.V.check_group in
                let target =
                  Gate.unitary_of_apps ~n_qubits:grp.Gen.n_qubits
                    grp.Gen.gates
                in
                let resim =
                  Fidelity.gate_fidelity target
                    (Pulse.propagator (Gen.hamiltonian_of grp)
                       c.V.check_pulse)
                in
                let replay = abs_float (resim -. c.V.measured) in
                check_true
                  (Printf.sprintf
                     "%s %s: recorded %.8f vs replayed %.8f (drift %.2e)"
                     name c.V.check_key c.V.measured resim replay)
                  (replay <= 1e-12))
              checks)
          (* three shapes with genuinely interpolatable (single-parameter)
             slots: logical qaoa, the same ansatz re-shaped by grid
             transpilation, and the dense QNN, each on a sparse 3-anchor
             grid at 0.1; then the QNN on a 9-anchor grid at 1e-2. VQE is
             absent by necessity: its Rx·Rz-per-qubit layers always merge
             into multi-parameter groups, which resynthesise instead of
             interpolating. *)
          [ ("qaoa", 3, 0.1, Qaoa.circuit ~symbolic:true ~n:6 ~p:1 ());
            ( "qaoa-grid",
              3,
              0.1,
              (Paqoc_topology.Transpile.run
                 ~coupling:(Paqoc_topology.Coupling.grid ~rows:5 ~cols:5)
                 (Qaoa.circuit ~symbolic:true ~n:4 ~p:1 ()))
                .Paqoc_topology.Transpile.physical );
            ("dnn", 3, 0.1, Dnn.circuit ~symbolic:true ~n:3 ~blocks:1 ());
            ("dnn-9", 9, 1e-2, Dnn.circuit ~symbolic:true ~n:3 ~blocks:1 ())
          ]);
    slow_case "a hostile angle falls back, publishes and adopts" (fun () ->
        (* 7.0 lies above the [0, 2pi] anchor hull, so every single-
           parameter slot must refuse to extrapolate: real synthesis,
           published to the generator's shared cache, adopted as a new
           anchor — so the repeat iteration is served from the table *)
        let cache = Cache.create () in
        let gen = Gen.qoc_default () in
        Gen.set_shared_cache gen (Some cache);
        let plan =
          V.freeze ~anchors:3
            (V.prepare (Dnn.circuit ~symbolic:true ~n:3 ~blocks:1 ()))
            gen
        in
        let before = (Cache.stats cache).Cache.publishes in
        let angles = List.map (fun p -> (p, 7.0)) (V.plan_params plan) in
        let it = V.recompile plan gen ~angles in
        check_true "hull violation forces fallbacks" (it.V.fallback > 0);
        check_int "nothing interpolates outside the hull" 0 it.V.interp;
        check_true "fallback syntheses publish to the shared cache"
          ((Cache.stats cache).Cache.publishes > before);
        let it2 = V.recompile plan gen ~angles in
        check_int "adopted anchors serve the repeat" 0 it2.V.fallback;
        check_true "the repeat comes from the anchor table"
          (it2.V.interp > 0))
  ]
