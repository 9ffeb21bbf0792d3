(* Standalone entry point for the worker-scaling benchmark:

     dune exec bench/micro_main.exe               -- scale at 1/2/4 workers
     dune exec bench/micro_main.exe -- 1 2 4 8    -- custom worker counts
     dune exec bench/micro_main.exe -- --kernels  -- also run the bechamel
                                                     kernels
     dune exec bench/micro_main.exe -- --bench-json[=PATH]
                                                  -- emit a BENCH_*.json
                                                     perf-trajectory entry
                                                     from the metrics layer
                                                     (default
                                                     BENCH_scaling.json)
                                                     instead of the
                                                     human-readable run
     dune exec bench/micro_main.exe -- --bench-grape[=PATH]
                                                  -- emit the GRAPE
                                                     per-iteration entry
                                                     (default
                                                     BENCH_grape.json);
                                                     tune with
                                                     --phase=NAME,
                                                     --iters=N,
                                                     --repeats=N
     dune exec bench/micro_main.exe -- --bench-cache[=PATH]
                                                  -- emit the cold-vs-warm
                                                     shared-cache suite
                                                     entry (default
                                                     BENCH_cache.json)
     dune exec bench/micro_main.exe -- --bench-serve[=PATH]
                                                  -- emit the resident-daemon
                                                     entry: warm requests/sec,
                                                     p50/p95 request latency,
                                                     warm hit rate and the
                                                     lazy-pool jobs-4 gate
                                                     (default
                                                     BENCH_serve.json)
     dune exec bench/micro_main.exe -- --bench-devices[=PATH]
                                                  -- emit the per-device
                                                     suite entry: cold/warm
                                                     compile of all four
                                                     registry devices on one
                                                     shared cache, plus the
                                                     drift-isolation gate
                                                     (default
                                                     BENCH_devices.json)
     dune exec bench/micro_main.exe -- --bench-sweep[=PATH]
                                                  -- emit the variational
                                                     fast-path entry:
                                                     per-iteration speedup
                                                     vs full recompile,
                                                     interp hit rate and
                                                     the QOC drift gate
                                                     (default
                                                     BENCH_sweep.json) *)

let flag_value name args =
  let eq = "--" ^ name ^ "=" in
  List.find_map
    (fun a ->
      if String.equal a ("--" ^ name) then Some None
      else if
        String.length a > String.length eq && String.starts_with ~prefix:eq a
      then Some (Some (String.sub a (String.length eq)
                         (String.length a - String.length eq)))
      else None)
    args

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let kernels = List.mem "--kernels" args in
  let bench_json = flag_value "bench-json" args in
  let bench_grape = flag_value "bench-grape" args in
  let bench_cache = flag_value "bench-cache" args in
  let bench_serve = flag_value "bench-serve" args in
  let bench_sweep = flag_value "bench-sweep" args in
  let bench_devices = flag_value "bench-devices" args in
  let phase = Option.join (flag_value "phase" args) in
  let iters = Option.bind (Option.join (flag_value "iters" args))
      int_of_string_opt in
  let repeats = Option.bind (Option.join (flag_value "repeats" args))
      int_of_string_opt in
  let workers =
    match List.filter_map int_of_string_opt args with
    | [] -> [ 1; 2; 4 ]
    | ws -> ws
  in
  (match
     (bench_devices, bench_sweep, bench_serve, bench_cache, bench_grape,
      bench_json)
   with
  | Some path, _, _, _, _, _ -> Micro.run_bench_devices ?path ()
  | None, Some path, _, _, _, _ -> Sweep.run_bench_sweep ?path ()
  | None, None, Some path, _, _, _ -> Serve.run_bench_serve ?path ()
  | None, None, None, Some path, _, _ -> Micro.run_bench_cache ?path ()
  | None, None, None, None, Some path, _ ->
    Micro.run_bench_grape ?path ?phase ?iters ?repeats ()
  | None, None, None, None, None, Some path ->
    Micro.run_bench_json ?path ~workers ()
  | None, None, None, None, None, None -> Micro.run_scaling ~workers ());
  if kernels then Micro.run ()
