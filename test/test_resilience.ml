(* Resilience: deterministic fault injection, retry policies, graceful
   degradation to decomposed-basis pulses, worker-crash recovery, and the
   provenance-carrying pulse database. Every failure path the generator
   can take is driven here on purpose — none of them fire organically. *)
open Test_util
module F = Paqoc_pulse.Faultin
module Gen = Paqoc_pulse.Generator
module DS = Paqoc_pulse.Duration_search
module Obs = Paqoc_obs.Obs
module Accqoc = Paqoc_accqoc.Accqoc

let cx_group () = fst (Gen.group_of_apps [ Gate.app2 Gate.CX 0 1 ])

(* a merged (non-table) group: synthesis always pays *)
let merged_group () =
  fst
    (Gen.group_of_apps
       [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 0 1 ])

let small_batch () =
  List.map
    (fun apps -> fst (Gen.group_of_apps apps))
    [ [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ];
      [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 0 ];
      [ Gate.app1 Gate.X 0; Gate.app1 Gate.H 1; Gate.app2 Gate.CZ 0 1 ];
      [ Gate.app2 Gate.CX 0 1 ]
    ]

let save_to_string gen =
  let path = Filename.temp_file "paqoc_res" ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Gen.save_database gen path;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s)

let faultin_tests =
  [ case "nothing armed: fire is a no-op" (fun () ->
        F.reset ();
        check_true "does not fire" (not (F.fire F.Grape_diverge));
        check_int "no count kept unarmed" 0 (F.call_count F.Grape_diverge));
    case "first=n fires exactly n times" (fun () ->
        F.with_faults [ (F.Grape_diverge, F.First 2) ] (fun () ->
            let fired = List.init 4 (fun _ -> F.fire F.Grape_diverge) in
            check_true "pattern 1100"
              (fired = [ true; true; false; false ]);
            check_int "counted every call" 4 (F.call_count F.Grape_diverge)));
    case "every=n fires on multiples of n" (fun () ->
        F.with_faults [ (F.Timeout, F.Every 3) ] (fun () ->
            let fired = List.init 6 (fun _ -> F.fire F.Timeout) in
            check_true "pattern 001001"
              (fired = [ false; false; true; false; false; true ])));
    case "prob trigger is a pure function of seed and call" (fun () ->
        let run () =
          F.with_faults [ (F.Db_save_error, F.Prob (0.5, 42)) ] (fun () ->
              List.init 32 (fun _ -> F.fire F.Db_save_error))
        in
        let a = run () and b = run () in
        check_true "same seed, same pattern" (a = b);
        check_true "some calls fire" (List.mem true a);
        check_true "some calls pass" (List.mem false a));
    case "configure replaces, reset disarms" (fun () ->
        F.configure [ (F.Grape_diverge, F.Always) ];
        check_true "armed" (F.fire F.Grape_diverge);
        F.configure [ (F.Timeout, F.Always) ];
        check_true "previous point disarmed" (not (F.fire F.Grape_diverge));
        check_true "new point armed" (F.fire F.Timeout);
        F.reset ();
        check_true "disarmed" (not (F.fire F.Timeout));
        check_int "nothing active" 0 (List.length (F.active ())));
    case "with_faults restores the previous configuration" (fun () ->
        F.configure [ (F.Timeout, F.Always) ];
        F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
            check_true "inner armed" (F.fire F.Grape_diverge);
            check_true "outer masked" (not (F.fire F.Timeout)));
        check_true "outer restored" (F.fire F.Timeout);
        F.reset ());
    case "spec parsing round-trips and rejects junk" (fun () ->
        (match F.parse_spec "grape-diverge:first=2,timeout" with
        | Ok pts ->
          check_int "two points" 2 (List.length pts);
          (match F.parse_spec (F.spec_to_string pts) with
          | Ok pts' -> check_true "round-trips" (pts = pts')
          | Error m -> Alcotest.failf "re-parse failed: %s" m)
        | Error m -> Alcotest.failf "parse failed: %s" m);
        (match F.parse_spec "db-save-error:prob=0.25:seed=7" with
        | Ok [ (F.Db_save_error, F.Prob (p, 7)) ] ->
          check_float "probability" 0.25 p
        | _ -> Alcotest.fail "prob spec mis-parsed");
        List.iter
          (fun bad ->
            match F.parse_spec bad with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad)
          [ "bogus-point"; "grape-diverge:prob=2.0"; "timeout:first=x";
            "timeout:first=0"; ""; "grape-diverge:every=-1" ])
  ]

let retry_tests =
  [ case "create rejects max_attempts < 1" (fun () ->
        check_true "raises"
          (try
             ignore
               (Gen.model_default
                  ~retry:{ Gen.default_retry with Gen.max_attempts = 0 }
                  ());
             false
           with Invalid_argument _ -> true));
    case "transient fault: retry succeeds, no fallback" (fun () ->
        (* the first attempt diverges, the retry sails through *)
        let clean =
          let gen = Gen.model_default () in
          Gen.generate gen (merged_group ())
        in
        let gen = Gen.model_default () in
        let o =
          F.with_faults [ (F.Grape_diverge, F.First 1) ] (fun () ->
              Gen.generate gen (merged_group ()))
        in
        check_true "synthesized" (o.Gen.provenance = Gen.Synthesized);
        check_int "two attempts" 2 o.Gen.attempts;
        check_int "no fallback" 0 (Gen.fallbacks gen);
        check_float "same latency as a clean run" clean.Gen.latency
          o.Gen.latency;
        check_true "wasted attempt is charged"
          (o.Gen.gen_seconds > clean.Gen.gen_seconds));
    case "persistent fault: degrades to decomposed-basis fallback" (fun () ->
        let gen =
          Gen.model_default
            ~retry:{ Gen.default_retry with Gen.max_attempts = 2 } ()
        in
        let o =
          F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
              Gen.generate gen (merged_group ()))
        in
        check_true "fallback provenance" (o.Gen.provenance = Gen.Fallback);
        check_int "spent every attempt" 2 o.Gen.attempts;
        check_true "no pulse recorded" (o.Gen.pulse = None);
        check_true "schedule still priced" (o.Gen.latency > 0.0);
        check_int "counted" 1 (Gen.fallbacks gen);
        (* the fallback forfeits the merged pulse's latency win *)
        let clean = Gen.generate (Gen.model_default ()) (merged_group ()) in
        check_true
          (Printf.sprintf "penalty surfaced: %.0f > %.0f" o.Gen.latency
             clean.Gen.latency)
          (o.Gen.latency > clean.Gen.latency));
    case "max_attempts = 1 disables retries" (fun () ->
        let gen =
          Gen.model_default
            ~retry:{ Gen.default_retry with Gen.max_attempts = 1 } ()
        in
        let o =
          F.with_faults [ (F.Grape_diverge, F.First 1) ] (fun () ->
              Gen.generate gen (merged_group ()))
        in
        check_true "straight to fallback" (o.Gen.provenance = Gen.Fallback);
        check_int "one attempt" 1 o.Gen.attempts);
    case "task deadline stops retrying" (fun () ->
        (* the smallest positive budget: the deadline rounds to the
           task's own start time, so it has passed once an attempt ran *)
        let gen =
          Gen.model_default
            ~retry:{ Gen.max_attempts = 5; task_seconds = Some Float.min_float }
            ()
        in
        let o =
          F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
              Gen.generate gen (merged_group ()))
        in
        check_true "fallback" (o.Gen.provenance = Gen.Fallback);
        check_int "no retries past the deadline" 1 o.Gen.attempts);
    case "fallback counter feeds the compile report and metrics" (fun () ->
        Fun.protect ~finally:Obs.reset (fun () ->
            Obs.enable ();
            let gen = Gen.model_default () in
            let c =
              Circuit.make ~n_qubits:3
                [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1;
                  Gate.app2 Gate.CX 1 2; Gate.app2 Gate.CX 0 1 ]
            in
            let r =
              F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
                  Paqoc.compile gen c)
            in
            check_true "compile still succeeds" (r.Paqoc.latency > 0.0);
            check_true "esp stays a probability"
              (r.Paqoc.esp > 0.0 && r.Paqoc.esp <= 1.0);
            check_true "report counts fallbacks" (r.Paqoc.fallbacks > 0);
            check_int "report matches the generator" (Gen.fallbacks gen)
              r.Paqoc.fallbacks;
            check_int "metrics counter agrees" (Gen.fallbacks gen)
              (Obs.counter_value "generator.fallback");
            check_true "injection firings were counted"
              (Obs.counter_value "faultin.grape-diverge" > 0)));
    case "accqoc report carries fallbacks too" (fun () ->
        let gen = Gen.model_default () in
        let c =
          Circuit.make ~n_qubits:2
            [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1;
              Gate.app2 Gate.CX 0 1 ]
        in
        let r =
          F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
              Accqoc.compile gen c)
        in
        check_true "still compiles" (r.Accqoc.latency > 0.0);
        check_true "fallbacks surfaced" (r.Accqoc.fallbacks > 0));
    slow_case "qoc backend: injected divergence degrades, typed" (fun () ->
        (* the injected GRAPE result short-circuits optimisation, so the
           whole bracket fails fast with Injected_fault and the task lands
           on the fallback *)
        let gen = Gen.qoc_default () in
        let o =
          F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
              Gen.generate gen (cx_group ()))
        in
        check_true "fallback" (o.Gen.provenance = Gen.Fallback);
        check_true "no pulse" (o.Gen.pulse = None);
        check_int "all attempts spent"
          (Gen.default_retry.Gen.max_attempts) o.Gen.attempts;
        check_true "priced from the calibration table" (o.Gen.latency > 0.0))
  ]

let pool_tests =
  [ case "worker crash recovers with identical results" (fun () ->
        let groups = small_batch () in
        let clean_gen = Gen.model_default () in
        let clean = Gen.generate_batch ~jobs:1 clean_gen groups in
        let crash_gen = Gen.model_default () in
        let crashed =
          F.with_faults [ (F.Pool_task_crash, F.Always) ] (fun () ->
              Gen.generate_batch ~jobs:4 crash_gen groups)
        in
        check_int "same count" (List.length clean) (List.length crashed);
        List.iter2
          (fun (a : Gen.outcome) (b : Gen.outcome) ->
            check_float "latency" a.Gen.latency b.Gen.latency;
            check_true "provenance" (a.Gen.provenance = b.Gen.provenance))
          clean crashed;
        check_true "databases byte-identical"
          (String.equal (save_to_string clean_gen) (save_to_string crash_gen)));
    case "injected faults stay jobs-independent" (fun () ->
        (* Always triggers are the documented deterministic-under-jobs
           contract: serial and 4-way runs must commit identical bytes *)
        let run jobs =
          let gen = Gen.model_default () in
          ignore
            (F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
                 Gen.generate_batch ~jobs gen (small_batch ())));
          save_to_string gen
        in
        check_true "byte-identical databases"
          (String.equal (run 1) (run 4)))
  ]

let db_tests =
  [ case "fallback provenance survives a save/load round trip" (fun () ->
        let gen = Gen.model_default () in
        let g = merged_group () in
        ignore
          (F.with_faults [ (F.Grape_diverge, F.Always) ] (fun () ->
               Gen.generate gen g));
        let bytes = save_to_string gen in
        check_true "v2 header"
          (String.length bytes >= 17
          && String.equal (String.sub bytes 0 17) "paqoc-pulse-db v2");
        let path = Filename.temp_file "paqoc_res" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Gen.save_database gen path;
            let gen2 = Gen.model_default () in
            Gen.load_database gen2 path;
            check_int "same size" (Gen.database_size gen)
              (Gen.database_size gen2);
            match Gen.peek gen2 g with
            | Some o ->
              check_true "provenance preserved"
                (o.Gen.provenance = Gen.Fallback)
            | None -> Alcotest.fail "entry lost in round trip"));
    case "v1 database files still load" (fun () ->
        let path = Filename.temp_file "paqoc_res" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc
              "paqoc-pulse-db v1\nK 96 0.001 0.999 2;cx@0,1\nS 2;cx@0,1\n";
            close_out oc;
            let gen = Gen.model_default () in
            Gen.load_database gen path;
            check_int "one entry" 1 (Gen.database_size gen);
            match Gen.peek gen (cx_group ()) with
            | Some o ->
              check_true "v1 entries read as synthesized"
                (o.Gen.provenance = Gen.Synthesized)
            | None -> Alcotest.fail "v1 entry not found"));
    case "injected save fault fails loudly, leaves nothing behind" (fun () ->
        let gen = Gen.model_default () in
        ignore (Gen.generate gen (cx_group ()));
        let path = Filename.temp_file "paqoc_res" ".db" in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists path then Sys.remove path;
            if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
          (fun () ->
            Gen.save_database gen path;
            let ic = open_in_bin path in
            let before = really_input_string ic (in_channel_length ic) in
            close_in ic;
            check_true "raises Failure"
              (F.with_faults [ (F.Db_save_error, F.Always) ] (fun () ->
                   try
                     Gen.save_database gen path;
                     false
                   with Failure msg ->
                     check_true "names the injection"
                       (String.length msg > 0);
                     true));
            check_true "no temporary left"
              (not (Sys.file_exists (path ^ ".tmp")));
            let ic = open_in_bin path in
            let after = really_input_string ic (in_channel_length ic) in
            close_in ic;
            check_true "existing database untouched"
              (String.equal before after)))
  ]

let budget_tests =
  [ case "create rejects a non-positive or NaN task budget" (fun () ->
        List.iter
          (fun s ->
            check_true
              (Printf.sprintf "task_seconds = %g raises" s)
              (try
                 ignore
                   (Gen.model_default
                      ~retry:{ Gen.default_retry with task_seconds = Some s }
                      ());
                 false
               with Invalid_argument _ -> true))
          [ 0.0; -1.0; Float.nan ]);
    case "--inject spec under the mutation harness" (fun () ->
        Mutation.check
          { Mutation.name = "--inject spec";
            parse = F.parse_spec;
            print = F.spec_to_string;
            numbers =
              (* each option's value, after its '=' *)
              (fun spec ->
                List.filter_map
                  (fun (off, len) ->
                    match String.index_from_opt spec off '=' with
                    | Some i when i < off + len ->
                      Some (i + 1, off + len - i - 1)
                    | _ -> None)
                  (Mutation.tokens ~sep:",:" spec ~off:0
                     ~len:(String.length spec)));
            alphabet = Mutation.line_alphabet
          }
          [ "grape-diverge:first=2,timeout";
            "journal-append-error:prob=0.25:seed=7,db-save-error:every=3";
            "pool-task-crash:prob=1:seed=-4,drift-shock:first=12" ])
  ]

let suite = faultin_tests @ retry_tests @ pool_tests @ db_tests @ budget_tests
