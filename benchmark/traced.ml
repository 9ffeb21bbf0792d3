(* The traced run: one reduced-size pass per workload that times each
   layer from outside and prints the per-layer metrics.

   Three probes, each driving the layers' public functions directly:

   - stages: the workload's compile requests, cold then warm against a
     fresh on-disk cache, once through [Service.handle] (the untraced
     reference) and once through {!Staged} (one span per stage). The
     staged result must equal the reference field for field, and the
     staged wall must reconcile with the reference wall;
   - server: a [paqoc serve] child, pings, then the same requests cold
     and warm over one client connection;
   - variational: the qaoa sweep, [Service.sweep_handle] against a
     direct [Variational.recompile] on a directly frozen plan.

   The spans go to [DIR/<workload>.trace.json] (Chrome trace-event
   format). Staged mismatches and unreconciled requests are reported as
   metrics, never as failed requests: a later compile-path change may
   break this driver without failing the benchmark. *)

module Protocol = Paqoc_pulse.Protocol
module Server = Paqoc_pulse.Server
module Cache = Paqoc_pulse.Cache
module Gen = Paqoc_pulse.Generator
module Service = Paqoc_service.Service
module Suite = Paqoc_benchmarks.Suite
module Circuit = Paqoc_circuit.Circuit
module Qasm = Paqoc_circuit.Qasm
module Device = Paqoc_topology.Device
module Transpile = Paqoc_topology.Transpile
module V = Paqoc.Variational
module Clock = Paqoc_obs.Clock
module W = Workload

(* name, unit — the per-layer metrics, in print order *)
let metrics =
  [ ("circuit.resolve_ms", "ms"); ("topology.device_ms", "ms");
    ("topology.transpile_ms", "ms"); ("topology.swaps", "count");
    ("mining.apa_ms", "ms"); ("mining.apa_gates", "count");
    ("pulse.offline_batch_ms", "ms"); ("core.preprocess_ms", "ms");
    ("core.search_ms", "ms"); ("core.search_max_ms", "ms");
    ("core.search_iterations", "count"); ("core.merges_committed", "count");
    ("core.merges_rolled_back", "count"); ("core.merge_commit_ratio", "ratio");
    ("pulse.finalize_ms", "ms"); ("core.price_ms", "ms");
    ("pulse.synthesized", "count"); ("pulse.fallbacks", "count");
    ("pulse.qoc_s", "s"); ("pulse.qoc_ms_per_pulse", "ms");
    ("pulse.search_synth_share", "ratio"); ("cache.hits", "count");
    ("cache.misses", "count"); ("cache.canonical_hits", "count");
    ("cache.publishes", "count"); ("cache.appends", "count");
    ("cache.compactions", "count"); ("cache.hit_rate", "ratio");
    ("cache.open_ms", "ms"); ("cache.close_ms", "ms");
    ("cache.entries", "count"); ("service.handle_ms", "ms");
    ("service.glue_ms", "ms"); ("service.sweep_glue_ms", "ms");
    ("server.ping_rtt_us", "us"); ("server.overhead_ms", "ms");
    ("server.overhead_ratio", "ratio"); ("server.served", "count");
    ("server.errors", "count"); ("server.rss_end_mb", "MiB");
    ("variational.freeze_ms", "ms"); ("variational.recompile_ms", "ms");
    ("variational.interp", "count"); ("variational.fallback", "count");
    ("variational.resynth", "count"); ("variational.interp_hit_rate", "ratio");
    ("gc.transpile.minor_mwords", "Mwords"); ("gc.apa.minor_mwords", "Mwords");
    ("gc.offline_batch.minor_mwords", "Mwords");
    ("gc.search.minor_mwords", "Mwords"); ("gc.finalize.minor_mwords", "Mwords");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MiB");
    ("trace.staged_mismatch", "count"); ("trace.unreconciled", "count");
    ("trace.overhead_pct", "%"); ("trace.spans", "count")
  ]

(* the compile requests each workload's traced run stages *)
let staged_set (cfg : W.config) workload =
  match workload with
  | "suite" | "daemon" ->
    List.map (fun n -> (n, W.compile_req (Protocol.Benchmark n))) (W.suite_names cfg)
  | "qoc" ->
    let set = List.map (fun (n, c) -> (n, W.qoc_req c)) (W.qoc_set cfg) in
    (* simon is the smallest Table I circuit with multi-qubit GRAPE
       syntheses: too slow for the timed loop, checked here *)
    if cfg.W.smoke then set else set @ [ ("simon", W.qoc_req (Protocol.Benchmark "simon")) ]
  | _ ->
    (* the swept circuit bound at seeded angles: one full recompile
       each, the cost the sweep fast path avoids *)
    let sym = (Suite.sweep_find "qaoa").Suite.sweep_build () in
    let params = List.sort compare (Circuit.free_params sym) in
    List.mapi
      (fun i angles ->
        ( Printf.sprintf "qaoa-sweep#%d" i,
          W.compile_req (Protocol.Qasm (Qasm.to_qasm (Circuit.bind_params angles sym))) ))
      (V.sweep_angles ~seed:cfg.W.seed ~n:(if cfg.W.smoke then 2 else 4) params)

(* the reference each workload's untraced results are held to; the
   bound sweep circuits have none beyond the staged and daemon
   comparisons *)
let reference_check (cfg : W.config) acc = function
  | "suite" | "daemon" -> W.check_golden acc (W.latency_golden cfg)
  | "qoc" -> W.check_expected acc (W.parse_expected (W.read_file (W.expected_path cfg)))
  | _ -> fun _ _ -> ()

type staged_row = {
  name : string;
  warm : bool;
  reference : Protocol.compile_result;
  handle_s : float;
  staged : Staged.outcome;
  staged_s : float;
}

let stage_time (o : Staged.outcome) name = List.assoc name o.Staged.times
let ms_median l = Stats.median l *. 1000.0

(* ------------------------------------------------------------------ *)
(* Probe 1: stages                                                     *)
(* ------------------------------------------------------------------ *)

let stages_probe (cfg : W.config) spans acc ~check set =
  let ref_path = Filename.concat cfg.W.work "trace-ref.db" in
  let st_path = Filename.concat cfg.W.work "trace-staged.db" in
  List.iter W.remove_file [ ref_path; st_path ];
  let request = ref 0 in
  let pass ~warm ref_cache st_cache =
    List.filter_map
      (fun (name, req) ->
        incr request;
        Spans.set_request spans !request;
        match
          W.timed acc (fun () -> Service.handle ~cache:ref_cache ~deadline:None req)
        with
        | Error e ->
          W.request_failed acc "%s: %s" name e;
          None
        | Ok (reference, handle_s) ->
          check name reference;
          let t0 = Clock.now_s () in
          let staged = Staged.compile ~spans ~cache:st_cache req in
          Some
            { name; warm; reference; handle_s; staged; staged_s = Clock.now_s () -. t0 })
      set
  in
  let gc0 = Gc.quick_stat () in
  let ref_cache = Cache.open_file ref_path in
  let st_cache = Cache.open_file st_path in
  let cold = pass ~warm:false ref_cache st_cache in
  let entries = Cache.size st_cache in
  Cache.close ref_cache;
  let t0 = Clock.now_s () in
  Spans.with_span spans "cache.close" (fun () -> Cache.close st_cache);
  let close_s = Clock.now_s () -. t0 in
  let cold_stats = Cache.stats st_cache in
  let ref_cache = Cache.open_file ref_path in
  let t0 = Clock.now_s () in
  let st_cache = Spans.with_span spans "cache.open" (fun () -> Cache.open_file st_path) in
  let open_s = Clock.now_s () -. t0 in
  let warm = pass ~warm:true ref_cache st_cache in
  Cache.close ref_cache;
  Cache.close st_cache;
  let warm_stats = Cache.stats st_cache in
  let gc1 = Gc.quick_stat () in
  List.iter W.remove_file [ ref_path; st_path ];
  (cold @ warm, cold_stats, warm_stats, entries, open_s, close_s,
   gc1.Gc.major_collections - gc0.Gc.major_collections)

(* ------------------------------------------------------------------ *)
(* Probe 2: a paqoc serve child over one client connection             *)
(* ------------------------------------------------------------------ *)

type server_probe = {
  ping_us : float list;
  overhead_ms : float list;  (** warm round trip minus compile_seconds *)
  ratios : float list;  (** warm round trip over in-process handle *)
  served : int;
  errors : int;
  rss_end_mb : float;
}

let server_probe (cfg : W.config) spans acc set rows =
  let socket = Filename.concat cfg.W.work "trace.sock" in
  let cache_file = Filename.concat cfg.W.work "trace-daemon.db" in
  let child = Child.spawn ~paqoc:cfg.W.paqoc ~socket ~cache_file ~jobs:2 in
  Fun.protect ~finally:(fun () -> if not child.Child.reaped then ignore (Child.reap child))
  @@ fun () ->
  let result =
    Server.with_connection socket (fun fd ->
        let ping_us =
          List.init (if cfg.W.smoke then 20 else 200) (fun _ ->
              let t0 = Clock.now_s () in
              Spans.with_span spans "client.ping" (fun () ->
                  match Server.rpc fd Protocol.Ping with
                  | Protocol.Pong -> ()
                  | _ -> failwith "daemon did not answer ping");
              (Clock.now_s () -. t0) *. 1e6)
        in
        let round ~warm =
          List.filter_map
            (fun (name, req) ->
              match
                W.timed acc (fun () ->
                    Spans.with_span spans "client.rpc" (fun () -> W.rpc_compile fd req))
              with
              | Error e ->
                W.request_failed acc "%s over the daemon: %s" name e;
                None
              | Ok (r, rtt) ->
                (* the daemon must answer exactly what in-process does *)
                (match
                   List.find_opt (fun row -> row.name = name && row.warm = warm) rows
                 with
                | Some row when not (Staged.same row.reference r) ->
                  W.request_failed acc "%s: daemon result differs from in-process" name
                | _ -> ());
                Some (name, r, rtt))
            set
        in
        ignore (round ~warm:false);
        let warm = round ~warm:true in
        let s =
          match Server.rpc fd Protocol.Stats with
          | Protocol.Stats_reply s -> s
          | _ -> failwith "daemon stats: unexpected response"
        in
        { ping_us;
          overhead_ms =
            List.map (fun (_, r, rtt) -> (rtt -. r.Protocol.compile_seconds) *. 1000.0) warm;
          ratios =
            List.filter_map
              (fun (name, _, rtt) ->
                List.find_opt (fun row -> row.name = name && row.warm) rows
                |> Option.map (fun row -> rtt /. row.handle_s))
              warm;
          served = s.Protocol.served;
          errors =
            s.Protocol.errors + s.Protocol.rejected_overload + s.Protocol.rejected_deadline;
          rss_end_mb = Child.rss_mb ~pid:child.Child.pid ()
        })
  in
  (match Child.stop child with
  | Ok () -> ()
  | Error e -> W.problem acc "traced daemon: %s" e);
  result

(* ------------------------------------------------------------------ *)
(* Probe 3: variational, service against direct                        *)
(* ------------------------------------------------------------------ *)

type sweep_probe = {
  freeze_s : float;
  service_s : float list;
  direct_s : float list;
  interp : int;
  fallback : int;
  resynth : int;
  mismatches : int;
}

let sweep_probe (cfg : W.config) spans acc =
  let req = Protocol.default_recompile in
  let dev =
    Service.resolve_device ~device:None ~rows:req.Protocol.rc_rows
      ~cols:req.Protocol.rc_cols ~drift_seed:0 ~drift_epoch:0
  in
  let fresh_gen () =
    let gen = Gen.model_default () in
    Gen.set_device gen dev;
    gen
  in
  let physical =
    (Transpile.run ~coupling:(Device.coupling dev)
       ((Suite.sweep_find "qaoa").Suite.sweep_build ()))
      .Transpile.physical
  in
  let t0 = Clock.now_s () in
  let plan =
    Spans.with_span spans "variational.freeze" (fun () ->
        V.freeze ~anchors:req.Protocol.rc_anchors (V.prepare physical) (fresh_gen ()))
  in
  let freeze_s = Clock.now_s () -. t0 in
  (* the service's own freeze, so it stays out of the timed requests *)
  (match
     W.timed acc (fun () ->
         Spans.with_span spans "service.sweep_freeze" (fun () ->
             Service.sweep_handle ~deadline:None req))
   with
  | Ok _ -> ()
  | Error e -> W.request_failed acc "sweep freeze: %s" e);
  let angles =
    V.sweep_angles ~seed:cfg.W.seed ~n:(if cfg.W.smoke then 8 else 100) (V.plan_params plan)
  in
  let rows =
    List.filter_map
      (fun a ->
        match
          W.timed acc (fun () ->
              Spans.with_span spans "service.sweep_handle" (fun () ->
                  Service.sweep_handle ~deadline:None (W.sweep_req a)))
        with
        | Error e ->
          W.request_failed acc "sweep iteration: %s" e;
          None
        | Ok (s, handle_s) ->
          let t0 = Clock.now_s () in
          let it =
            Spans.with_span spans "variational.recompile" (fun () ->
                V.recompile ~interp_tol:req.Protocol.rc_interp_tol plan (fresh_gen ())
                  ~angles:a)
          in
          Some (s, handle_s, it, Clock.now_s () -. t0))
      angles
  in
  let sum f = List.fold_left (fun n (_, _, it, _) -> n + f it) 0 rows in
  { freeze_s;
    service_s = List.map (fun (_, h, _, _) -> h) rows;
    direct_s = List.map (fun (_, _, _, d) -> d) rows;
    interp = sum (fun it -> it.V.interp);
    fallback = sum (fun it -> it.V.fallback);
    resynth = sum (fun it -> it.V.resynth);
    mismatches =
      List.length
        (List.filter
           (fun ((s : Protocol.sweep_result), _, (it : V.iteration), _) ->
             match s.Protocol.iterations with
             | [ x ] ->
               x.Protocol.it_latency <> it.V.latency
               || x.Protocol.it_esp <> it.V.esp
               || x.Protocol.it_interp <> it.V.interp
               || x.Protocol.it_fallback <> it.V.fallback
               || x.Protocol.it_resynth <> it.V.resynth
             | _ -> true)
           rows)
  }

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* staged within 5% (or 0.2 ms) of the untraced reference *)
let reconciles row =
  Float.abs (row.staged_s -. row.handle_s) <= Float.max (0.05 *. row.handle_s) 2e-4

let print_self_times spans =
  let totals = Hashtbl.create 32 in
  List.iter
    (fun ((s : Spans.span), self) ->
      let prev = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals s.Spans.name) in
      Hashtbl.replace totals s.Spans.name (fst prev +. self, snd prev + 1))
    (Spans.self_times spans);
  let rows = Hashtbl.fold (fun name (t, n) l -> (name, t, n) :: l) totals [] in
  let rows = List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) rows in
  let total = List.fold_left (fun acc (_, t, _) -> acc +. t) 0.0 rows in
  Printf.printf "  self time by span (%.3f s traced):\n" total;
  List.iter
    (fun (name, t, n) ->
      Printf.printf "    %-24s %10.3f ms %6.1f%%  (n=%d)\n" name (t *. 1000.0)
        (100.0 *. t /. total) n)
    rows

let run (cfg : W.config) ~dir workload acc =
  let spans = Spans.create () in
  let set = staged_set cfg workload in
  let rows, cold_stats, warm_stats, entries, open_s, close_s, majors =
    stages_probe cfg spans acc ~check:(reference_check cfg acc workload) set
  in
  let server_set =
    if workload = "qoc" then List.filter (fun (n, _) -> n <> "simon") set else set
  in
  let server = server_probe cfg spans acc server_set rows in
  let sweep = sweep_probe cfg spans acc in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let trace_file = Filename.concat dir (workload ^ ".trace.json") in
  Spans.write_chrome spans trace_file;
  let staged = List.map (fun r -> r.staged) rows in
  let cold_rows = List.filter (fun r -> not r.warm) rows in
  let stage_ms name = ms_median (List.map (fun o -> stage_time o name) staged) in
  let sum_cold f = List.fold_left (fun n r -> n + f r.staged) 0 cold_rows in
  let sumf f = List.fold_left (fun n o -> n +. f o) 0.0 staged in
  let words stage =
    sumf (fun o -> List.assoc stage o.Staged.minor_words) /. 1e6
  in
  let core_stages =
    [ "circuit.resolve"; "topology.device"; "topology.transpile"; "mining.apa";
      "pulse.offline_batch"; "core.preprocess"; "core.search"; "pulse.finalize";
      "core.price" ]
  in
  let mismatches =
    List.length (List.filter (fun r -> not (Staged.same r.reference r.staged.Staged.result)) rows)
  in
  let committed = sum_cold (fun o -> o.Staged.merge.Paqoc.Merger.merges_committed) in
  let rolled = sum_cold (fun o -> o.Staged.merge.Paqoc.Merger.merges_rolled_back) in
  let synthesized = List.fold_left (fun n o -> n + o.Staged.result.Protocol.synthesized) 0 staged in
  let qoc_s = sumf (fun o -> o.Staged.qoc_s) in
  let hits = cold_stats.Cache.hits + warm_stats.Cache.hits in
  let misses = cold_stats.Cache.misses + warm_stats.Cache.misses in
  let add f = f cold_stats + f warm_stats in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let handle_total = List.fold_left (fun t r -> t +. r.handle_s) 0.0 rows in
  let staged_total = List.fold_left (fun t r -> t +. r.staged_s) 0.0 rows in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let f = float_of_int in
  let values =
    [ ("circuit.resolve_ms", stage_ms "circuit.resolve");
      ("topology.device_ms", stage_ms "topology.device");
      ("topology.transpile_ms", stage_ms "topology.transpile");
      ("topology.swaps", f (List.fold_left (fun n r -> n + r.reference.Protocol.swaps_added) 0 cold_rows));
      ("mining.apa_ms", stage_ms "mining.apa");
      ("mining.apa_gates", f (sum_cold (fun o -> o.Staged.apa_gates)));
      ("pulse.offline_batch_ms", stage_ms "pulse.offline_batch");
      ("core.preprocess_ms", stage_ms "core.preprocess");
      ("core.search_ms", stage_ms "core.search");
      ( "core.search_max_ms",
        1000.0 *. List.fold_left (fun m o -> Float.max m (stage_time o "core.search")) 0.0 staged );
      ("core.search_iterations", f (sum_cold (fun o -> o.Staged.merge.Paqoc.Merger.iterations)));
      ("core.merges_committed", f committed);
      ("core.merges_rolled_back", f rolled);
      ("core.merge_commit_ratio", ratio committed (committed + rolled));
      ("pulse.finalize_ms", stage_ms "pulse.finalize");
      ("core.price_ms", stage_ms "core.price");
      ("pulse.synthesized", f synthesized);
      ("pulse.fallbacks", f (List.fold_left (fun n o -> n + o.Staged.result.Protocol.fallbacks) 0 staged));
      ("pulse.qoc_s", qoc_s);
      ("pulse.qoc_ms_per_pulse", if synthesized = 0 then 0.0 else 1000.0 *. qoc_s /. f synthesized);
      ( "pulse.search_synth_share",
        if qoc_s > 0.0 then sumf (fun o -> o.Staged.search_qoc_s) /. qoc_s else 0.0 );
      ("cache.hits", f hits);
      ("cache.misses", f misses);
      ("cache.canonical_hits", f (add (fun s -> s.Cache.canonical_hits)));
      ("cache.publishes", f (add (fun s -> s.Cache.publishes)));
      ("cache.appends", f (add (fun s -> s.Cache.appends)));
      ("cache.compactions", f (add (fun s -> s.Cache.compactions)));
      ("cache.hit_rate", ratio hits (hits + misses));
      ("cache.open_ms", open_s *. 1000.0);
      ("cache.close_ms", close_s *. 1000.0);
      ("cache.entries", f entries);
      ("service.handle_ms", ms_median (List.map (fun r -> r.handle_s) rows));
      ( "service.glue_ms",
        ms_median
          (List.map
             (fun r ->
               r.handle_s
               -. List.fold_left (fun t s -> t +. stage_time r.staged s) 0.0 core_stages)
             rows) );
      ( "service.sweep_glue_ms",
        ms_median sweep.service_s -. ms_median sweep.direct_s );
      ("server.ping_rtt_us", Stats.median server.ping_us);
      ("server.overhead_ms", Stats.median server.overhead_ms);
      ("server.overhead_ratio", Stats.geomean server.ratios);
      ("server.served", f server.served);
      ("server.errors", f server.errors);
      ("server.rss_end_mb", server.rss_end_mb);
      ("variational.freeze_ms", sweep.freeze_s *. 1000.0);
      ("variational.recompile_ms", ms_median sweep.direct_s);
      ("variational.interp", f sweep.interp);
      ("variational.fallback", f sweep.fallback);
      ("variational.resynth", f sweep.resynth);
      ("variational.interp_hit_rate", ratio sweep.interp (sweep.interp + sweep.fallback));
      ("gc.transpile.minor_mwords", words "topology.transpile");
      ("gc.apa.minor_mwords", words "mining.apa");
      ("gc.offline_batch.minor_mwords", words "pulse.offline_batch");
      ("gc.search.minor_mwords", words "core.search");
      ("gc.finalize.minor_mwords", words "pulse.finalize");
      ("gc.major_collections", f majors);
      ("gc.top_heap_mb", top_heap_mb);
      ("trace.staged_mismatch", f (mismatches + sweep.mismatches));
      ("trace.unreconciled", f (List.length (List.filter (fun r -> not (reconciles r)) rows)));
      ("trace.overhead_pct", 100.0 *. (staged_total -. handle_total) /. handle_total);
      ("trace.spans", f (Spans.count spans))
    ]
  in
  if not cfg.W.smoke then begin
    Printf.printf "  trace written to %s (%d spans)\n" trace_file (Spans.count spans);
    Printf.printf
      "  tracing overhead: %+.3f ms over %d requests (%+.2f%%: staged %.3f s, untraced %.3f s)\n"
      ((staged_total -. handle_total) *. 1000.0) (List.length rows)
      (100.0 *. (staged_total -. handle_total) /. handle_total)
      staged_total handle_total;
    print_self_times spans
  end;
  List.map (fun (name, unit) -> (name, unit, List.assoc name values, List.length rows)) metrics
