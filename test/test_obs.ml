(* Observability layer: span nesting, cross-domain merging, the
   disabled-sink no-op guarantee and the deterministic JSON report
   structure the CLI's --metrics/--trace dumps are built on. *)
open Test_util
module Obs = Paqoc_obs.Obs
module Clock = Paqoc_obs.Clock
module Json = Paqoc_obs.Json
module Pool = Paqoc_pulse.Pool

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec go i = i + nh <= lh && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

let finally_reset f = Fun.protect ~finally:Obs.reset f

(* Random JSON values with finite numbers (integral, fractional and the
   extremes) and strings of arbitrary bytes: quotes, backslashes,
   control bytes and bytes >= 0x80 all occur. *)
let gen_json =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_bound 12) in
  let finite =
    oneof
      [ map float_of_int int;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        oneofl
          [ 0.0; -0.0; 1e15; 1e17; 0.1; max_float; min_float;
            Float.succ 0.0; -.max_float ] ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [ pure Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun v -> Json.Num v) finite;
               map (fun s -> Json.Str s) bytes ]
         in
         if depth = 0 then leaf
         else
           frequency
             [ (2, leaf);
               ( 1,
                 map (fun l -> Json.Arr l)
                   (list_size (int_bound 4) (self (depth - 1))) );
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair bytes (self (depth - 1))))
               ) ])

let suite =
  [ case "spans nest and are recorded per name" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        let v =
          Obs.with_span "outer" (fun () ->
              Obs.with_span "inner" (fun () -> 41) + 1)
        in
        check_int "value flows through" 42 v;
        check_int "outer recorded" 1 (Obs.span_count "outer");
        check_int "inner recorded" 1 (Obs.span_count "inner");
        check_true "trace has both"
          (let t = Obs.trace_json () in
           contains ~needle:"\"outer\"" t && contains ~needle:"\"inner\"" t));
    case "spans are recorded even when the body raises" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        (try Obs.with_span "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        check_int "span recorded" 1 (Obs.span_count "boom"));
    case "counters merge across domains" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        Obs.count ~n:2 "shared";
        let ds =
          List.init 3 (fun _ ->
              Domain.spawn (fun () -> Obs.count ~n:5 "shared"))
        in
        List.iter Domain.join ds;
        check_int "merged sum" 17 (Obs.counter_value "shared"));
    case "worker-domain spans survive the domain's death" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        Domain.join
          (Domain.spawn (fun () -> Obs.with_span "worker" (fun () -> ())));
        check_int "span survived" 1 (Obs.span_count "worker"));
    case "disabled sink is a no-op" (fun () ->
        finally_reset @@ fun () ->
        Obs.reset ();
        check_true "disabled" (not (Obs.enabled ()));
        Obs.count "c";
        Obs.gauge "g" 1.0;
        Obs.observe "h" 1.0;
        check_int "no span, value intact" 7 (Obs.with_span "s" (fun () -> 7));
        check_int "no counter" 0 (Obs.counter_value "c");
        check_true "no gauge" (Obs.gauge_last "g" = None);
        check_int "no histogram" 0 (Obs.hist_count "h");
        check_int "no span" 0 (Obs.span_count "s"));
    case "enable clears previously recorded data" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        Obs.count ~n:9 "c";
        Obs.enable ();
        check_int "fresh" 0 (Obs.counter_value "c"));
    case "json report golden (deterministic subset)" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        Obs.count ~n:2 "a.b";
        Obs.count "a.b";
        Obs.gauge "q" 2.5;
        Obs.observe "h" 1.0;
        Obs.observe "h" 3.0;
        let expected =
          Printf.sprintf
            "{\"schema\":\"paqoc-metrics v1\",\"counters\":{\"a.b\":3},\
             \"gauges\":{\"q\":{\"last\":2.5,\"max\":2.5}},\
             \"histograms\":{\"h\":{\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\
             \"mean\":2}},\"spans\":{},\"domains\":[%d]}"
            (Domain.self () :> int)
        in
        Alcotest.check Alcotest.string "golden report" expected
          (Obs.report_json ()));
    case "report dumps are atomic files" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        Obs.count "c";
        let path = Filename.temp_file "paqoc_obs" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Obs.write_report path;
            check_true "no tmp left" (not (Sys.file_exists (path ^ ".tmp")));
            let ic = open_in path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            check_true "is the report" (String.equal s (Obs.report_json ()))));
    case "pool reports per-worker busy/idle and task spans" (fun () ->
        finally_reset @@ fun () ->
        Obs.enable ();
        Pool.with_pool ~jobs:2 (fun p ->
            ignore (Pool.map p (fun x -> x * x) (Array.init 8 Fun.id)));
        check_int "one busy total per worker" 2
          (Obs.hist_count "pool.worker.busy_s");
        check_int "one idle total per worker" 2
          (Obs.hist_count "pool.worker.idle_s");
        check_int "every task became a span" 8 (Obs.span_count "pool.task");
        check_true "queue depth was gauged"
          (Obs.gauge_last "pool.queue_depth" <> None));
    case "clock measures wall time, not process CPU time" (fun () ->
        (* the Sys.time bug this repo shipped with: a sleeping task burns
           no CPU, so CPU-clock accounting reports ~0 for it; wall-clock
           accounting must report the elapsed time *)
        let w0 = Clock.now_s () in
        let c0 = Sys.time () in
        Unix.sleepf 0.05;
        let wall = Clock.now_s () -. w0 in
        let cpu = Sys.time () -. c0 in
        check_true "wall clock saw the sleep" (wall >= 0.045);
        check_true "cpu clock (the old bug) did not" (cpu < wall));
    qcheck
      (QCheck.Test.make ~count:500
         ~name:"json: of_string (to_string j) = Ok j"
         (QCheck.make ~print:Json.to_string gen_json)
         (fun j -> Json.of_string (Json.to_string j) = Ok j))
  ]
