(* Failure injection: every layer must fail loudly and informatively when
   driven outside its envelope, never silently produce wrong schedules. *)
open Test_util
module DS = Paqoc_pulse.Duration_search
module H = Paqoc_pulse.Hamiltonian
module Gen = Paqoc_pulse.Generator
module Coupling = Paqoc_topology.Coupling
module Sabre = Paqoc_topology.Sabre
module Miner = Paqoc_mining.Miner
module V = Paqoc.Variational

(* shared by the unbound-parameter cases and the qcheck property: a
   4-parameter plan is enough for every subset shape, and the model
   backend freezes it in milliseconds. Lazy so the binary's load time
   stays free of compile work. *)
let unbound_fixture =
  lazy
    (let prepared =
       V.prepare (Paqoc_benchmarks.Dnn.circuit ~symbolic:true ~n:4 ~blocks:1 ())
     in
     let gen = Gen.model_default () in
     let plan = V.freeze ~anchors:2 prepared gen in
     (prepared, plan, gen, List.sort compare (V.plan_params plan)))

let suite =
  [ case "duration search reports unreachable targets" (fun () ->
        (* a CX cannot be realised in 4 dt at fidelity 0.999; the typed
           error must carry what was searched, how far and how close *)
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let config = { DS.default_config with max_duration = 4.0 } in
        check_true "raises Search_failed"
          (try
             ignore
               (DS.minimal_duration ~config ~gate:"cx" h
                  ~target:(Gate.unitary Gate.CX) ~lower_bound:2.0 ());
             false
           with DS.Search_failed e ->
             check_true "status is unreachable" (e.DS.status = DS.Unreachable);
             check_true "carries the gate name" (String.equal e.DS.gate "cx");
             check_int "carries the qubit count" 2 e.DS.n_qubits;
             check_true "max duration tried is within the bound"
               (e.DS.max_duration_tried > 0.0
               && e.DS.max_duration_tried <= config.DS.max_duration);
             check_true "counted its probes" (e.DS.failed_probes > 0);
             check_true "best fidelity below target"
               (e.DS.best_fidelity >= 0.0 && e.DS.best_fidelity < 1.0);
             let msg = DS.error_to_string e in
             let contains hay needle =
               let lh = String.length hay and ln = String.length needle in
               let rec go i =
                 i + ln <= lh
                 && (String.equal (String.sub hay i ln) needle || go (i + 1))
               in
               go 0
             in
             check_true "rendered error names the gate" (contains msg "cx");
             true));
    case "duration search surfaces a non-raising result" (fun () ->
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let config = { DS.default_config with max_duration = 4.0 } in
        (match
           DS.search ~config h ~target:(Gate.unitary Gate.CX) ~lower_bound:2.0
             ()
         with
        | Ok _ -> check_true "should not converge in 4 dt" false
        | Error e -> check_true "typed status" (e.DS.status = DS.Unreachable)));
    case "duration search iteration budget exhausts typed" (fun () ->
        (* a budget of 1 total GRAPE iteration cannot converge anything *)
        let h = H.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] () in
        let config = { DS.default_config with max_total_iters = 1 } in
        match
          DS.search ~config ~gate:"cx" h ~target:(Gate.unitary Gate.CX)
            ~lower_bound:80.0 ()
        with
        | Ok _ -> check_true "should not converge on 1 iteration" false
        | Error e ->
          check_true "budget-exhausted" (e.DS.status = DS.Budget_exhausted);
          check_true "named" (String.equal (DS.status_name e.DS.status)
                                "budget-exhausted"));
    case "QOC backend rejects symbolic groups" (fun () ->
        let gen = Gen.qoc_default () in
        let group, _ =
          Gen.group_of_apps [ Gate.app1 (Gate.RZ (Angle.sym "g")) 0 ]
        in
        check_true "raises"
          (try ignore (Gen.generate gen group); false with Failure _ -> true));
    case "routing on a disconnected device fails loudly" (fun () ->
        (* two components: {0,1} and {2,3}; a CX across them is
           unroutable *)
        let device = Coupling.of_edges ~n:4 [ (0, 1); (2, 3) ] in
        let c = Circuit.make ~n_qubits:4 [ Gate.app2 Gate.CX 0 2 ] in
        check_true "raises"
          (try ignore (Sabre.route c device); false with Failure _ -> true));
    case "grape rejects dimension mismatches" (fun () ->
        let h = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        check_true "raises"
          (try
             ignore
               (Paqoc_pulse.Grape.optimize h ~target:(Gate.unitary Gate.CX)
                  ~n_slices:10 ~dt:2.0 ());
             false
           with Invalid_argument _ -> true));
    case "miner configs are validated by construction" (fun () ->
        (* a min_support below 1 finds everything exactly once — must not
           loop or crash *)
        let c = Circuit.make ~n_qubits:2 [ Gate.app2 Gate.CX 0 1 ] in
        let found =
          Miner.mine ~config:{ Miner.default_config with min_support = 1 } c
        in
        check_true "terminates" (List.length found >= 0));
    case "empty-ish circuits flow through the whole pipeline" (fun () ->
        (* a circuit of only virtual RZs: zero-latency schedule, ESP 1 *)
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 (Gate.RZ (Angle.const 0.3)) 0;
              Gate.app1 (Gate.RZ (Angle.const 0.7)) 1 ]
        in
        let gen = Gen.model_default () in
        let r = Paqoc.compile gen c in
        check_float "zero latency" 0.0 r.Paqoc.latency;
        check_float "perfect esp" 1.0 r.Paqoc.esp);
    case "single-gate circuit compiles" (fun () ->
        let c = Circuit.make ~n_qubits:2 [ Gate.app2 Gate.CX 0 1 ] in
        let gen = Gen.model_default () in
        let r = Paqoc.compile gen c in
        check_int "one episode" 1 r.Paqoc.n_groups;
        check_true "equivalent" (Circuit.equivalent c (Circuit.flatten r.Paqoc.grouped)));
    case "pulse database rejects malformed files" (fun () ->
        (* every corruption class must raise Failure, never load junk *)
        let attempt content =
          let path = Filename.temp_file "paqoc_db" ".txt" in
          let oc = open_out path in
          output_string oc content;
          close_out oc;
          let t = Gen.model_default () in
          let raised =
            try
              Gen.load_database t path;
              false
            with Failure _ -> true
          in
          Sys.remove path;
          raised
        in
        let header = "paqoc-pulse-db v1\n" in
        check_true "empty file" (attempt "");
        check_true "wrong header" (attempt "paqoc-pulse-db v9\nK 1 2 3 k\n");
        check_true "K line missing fields" (attempt (header ^ "K 1.0 2.0\n"));
        check_true "K line with bad float"
          (attempt (header ^ "K 1.0 nope 3.0 2;cx@0,1\n"));
        check_true "unrecognised record"
          (attempt (header ^ "X something\n"));
        (* a well-formed file still loads after all those rejections *)
        check_true "control: valid file loads"
          (not (attempt (header ^ "K 96 0.001 0.999 2;cx@0,1\nS 2;cx@0,1\n"))));
    case "pulse DB save fails loudly on an unwritable path" (fun () ->
        let gen = Gen.model_default () in
        check_true "raises Failure"
          (try
             Gen.save_database gen "/nonexistent_paqoc_dir/pulse.db";
             false
           with Failure msg -> String.length msg > 0));
    case "a failing save never corrupts an existing database" (fun () ->
        (* force the write to fail after the target exists: the atomic
           save goes through <path>.tmp, so planting a directory there
           makes open_out fail while <path> must stay intact *)
        let path = Filename.temp_file "paqoc_db" ".txt" in
        let tmp = path ^ ".tmp" in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists tmp then Sys.rmdir tmp;
            Sys.remove path)
          (fun () ->
            let gen = Gen.model_default () in
            ignore
              (Gen.generate gen
                 (fst (Gen.group_of_apps [ Gate.app2 Gate.CX 0 1 ])));
            Gen.save_database gen path;
            let read () =
              let ic = open_in_bin path in
              let s = really_input_string ic (in_channel_length ic) in
              close_in ic;
              s
            in
            let before = read () in
            Sys.mkdir tmp 0o755;
            check_true "raises Failure"
              (try
                 Gen.save_database gen path;
                 false
               with Failure _ -> true);
            check_true "existing database untouched"
              (String.equal before (read ()))));
    case "successful save leaves no temporary file" (fun () ->
        let path = Filename.temp_file "paqoc_db" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let gen = Gen.model_default () in
            Gen.save_database gen path;
            check_true "no .tmp left" (not (Sys.file_exists (path ^ ".tmp")));
            let gen2 = Gen.model_default () in
            Gen.load_database gen2 path;
            check_int "round-trips" (Gen.database_size gen)
              (Gen.database_size gen2)));
    case "metrics dumps fail loudly on an unwritable path" (fun () ->
        let module Obs = Paqoc_obs.Obs in
        Fun.protect ~finally:Obs.reset (fun () ->
            Obs.enable ();
            Obs.count "c";
            check_true "report raises Failure"
              (try
                 Obs.write_report "/nonexistent_paqoc_dir/metrics.json";
                 false
               with Failure _ -> true);
            check_true "trace raises Failure"
              (try
                 Obs.write_trace "/nonexistent_paqoc_dir/trace.json";
                 false
               with Failure _ -> true)));
    case "merger max_iterations bound is honoured" (fun () ->
        let c =
          Circuit.make ~n_qubits:3
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2; Gate.app2 Gate.CX 0 1 ]
        in
        let gen = Gen.model_default () in
        let _, stats =
          Paqoc.Merger.run
            ~config:{ Paqoc.Merger.default_config with max_iterations = 1 }
            gen c
        in
        check_true "stopped at the bound" (stats.Paqoc.Merger.iterations <= 1));
    (* ---- the variational fast path's typed binding errors ---- *)
    case "unbound parameters raise the sorted typed error" (fun () ->
        let prepared, plan, gen, sorted = Lazy.force unbound_fixture in
        check_true "the fixture has several parameters"
          (List.length sorted >= 3);
        let expect_missing missing f =
          try
            ignore (f ());
            check_true "raised Unbound_parameters" false
          with V.Unbound_parameters m ->
            check_true
              (Printf.sprintf "missing = [%s]" (String.concat "; " m))
              (m = missing)
        in
        (* empty bindings: every entry point reports everything, sorted *)
        expect_missing sorted (fun () -> V.compile prepared gen []);
        expect_missing sorted (fun () -> V.recompile plan gen ~angles:[]);
        expect_missing sorted (fun () ->
            V.recompile_full plan gen ~angles:[]);
        (* a partial binding names exactly what was dropped *)
        (match sorted with
        | keep :: rest ->
          expect_missing rest (fun () ->
              V.recompile plan gen ~angles:[ (keep, 1.0) ])
        | [] -> ());
        (* unknown names are not bindings; they never mask a missing one *)
        expect_missing sorted (fun () ->
            V.recompile plan gen ~angles:[ ("nonexistent", 0.5) ]));
    qcheck
      (QCheck.Test.make ~count:40
         ~name:"any partial binding reports exactly the sorted unbound subset"
         (QCheck.int_bound 15)
         (fun mask ->
           let _, plan, gen, sorted = Lazy.force unbound_fixture in
           let keep =
             List.filteri (fun i _ -> mask land (1 lsl i) <> 0) sorted
           in
           let omitted =
             List.filter (fun p -> not (List.mem p keep)) sorted
           in
           let angles = List.map (fun p -> (p, 1.0)) keep in
           if omitted = [] then (
             (* the complete binding must not raise at all *)
             ignore (V.recompile plan gen ~angles);
             true)
           else
             try
               ignore (V.recompile plan gen ~angles);
               false
             with V.Unbound_parameters m -> m = omitted));
    (* ---- every file writer fails the same way ---- *)
    case "every file writer refuses a directory at its path the same way"
      (fun () ->
        (* a non-empty directory at PATH: the write to PATH.tmp succeeds
           and only the final rename fails, so each writer must clean
           its temporary up and name PATH in a Failure *)
        let module Obs = Paqoc_obs.Obs in
        let module Cache = Paqoc_pulse.Cache in
        let module Ir = Paqoc_service.Pulse_ir in
        let dir = Filename.temp_file "paqoc_writer" ".d" in
        let inner = Filename.concat dir "keep" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        Out_channel.with_open_bin inner (fun oc -> output_string oc "kept");
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists (dir ^ ".tmp") then Sys.remove (dir ^ ".tmp");
            Sys.remove inner;
            Sys.rmdir dir)
          (fun () ->
            let _, plan, _, _ = Lazy.force unbound_fixture in
            let ir =
              { Ir.backend = "model";
                device_name = "lattice";
                device_hash = "";
                device_qubits = 25;
                synthesis_mu = 0.0;
                drive_bound = 0.0;
                latency = 0.0;
                esp = 1.0;
                schedule = []
              }
            in
            List.iter
              (fun (name, write) ->
                (match write dir with
                | () -> Alcotest.failf "%s wrote over a directory" name
                | exception Failure msg ->
                  check_true
                    (Printf.sprintf "%s names the path: %s" name msg)
                    (String.ends_with ~suffix:(" (" ^ dir ^ ")") msg));
                check_true (name ^ " leaves no .tmp")
                  (not (Sys.file_exists (dir ^ ".tmp")));
                check_true (name ^ " leaves the directory")
                  (Sys.is_directory dir
                  && In_channel.with_open_bin inner In_channel.input_all
                     = "kept"))
              [ ("Gen.save_database", Gen.save_database (Gen.model_default ()));
                ("Cache.save", Cache.save (Cache.create ()));
                ("Obs.write_report", Obs.write_report);
                ("Obs.write_trace", Obs.write_trace);
                ("Pulse_ir.save", Ir.save ir);
                ("Variational.save_plan", V.save_plan plan)
              ]));
    case "an atomic write whose callback raises leaves nothing behind"
      (fun () ->
        let module Atomic_file = Paqoc_obs.Atomic_file in
        let path = Filename.temp_file "paqoc_atomic" ".txt" in
        Sys.remove path;
        let exception Boom in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
          (fun () ->
            check_true "the callback's exception reaches the caller"
              (match
                 Atomic_file.write ~what:"test" path (fun oc ->
                     output_string oc "partial";
                     flush oc;
                     raise Boom)
               with
              | () -> false
              | exception Boom -> true);
            check_true "no .tmp left" (not (Sys.file_exists (path ^ ".tmp")));
            check_true "no target created" (not (Sys.file_exists path))));
    case "routing across two device components fails in milliseconds"
      (fun () ->
        (* two disjoint 4x4 grids; 20 CX gates route inside them, the
           21st joins them. A router that waits for its (n+1)·np²·4
           iteration fuel to run out took 0.79 s here; the component
           check refuses the circuit before routing anything *)
        let grid = Coupling.edges (Coupling.grid ~rows:4 ~cols:4) in
        let device =
          Coupling.of_edges ~n:32
            (grid @ List.map (fun (a, b) -> (a + 16, b + 16)) grid)
        in
        let inside =
          List.init 20 (fun i ->
              let base = if i mod 2 = 0 then 0 else 16 in
              Gate.app2 Gate.CX (base + (i / 2)) (base + 15 - (i / 2)))
        in
        let c =
          Circuit.make ~n_qubits:32 (inside @ [ Gate.app2 Gate.CX 3 19 ])
        in
        let t0 = Unix.gettimeofday () in
        let msg =
          try
            ignore (Sabre.route c device);
            None
          with Failure m -> Some m
        in
        let seconds = Unix.gettimeofday () -. t0 in
        (match msg with
        | None -> Alcotest.fail "a cross-component CX was routed"
        | Some m ->
          check_true
            (Printf.sprintf "the refusal names gate 20: %s" m)
            (String.starts_with ~prefix:"Sabre.route: gate 20 (" m));
        if seconds > 0.1 then
          Alcotest.failf "the refusal took %.3f s, over 0.1 s" seconds)
  ]
