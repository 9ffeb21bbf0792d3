(* Standalone entry point for the worker-scaling benchmark:

     dune exec bench/micro_main.exe               -- scale at 1/2/4 workers
     dune exec bench/micro_main.exe -- 1 2 4 8    -- custom worker counts
     dune exec bench/micro_main.exe -- --kernels  -- also run the bechamel
                                                     kernels
     dune exec bench/micro_main.exe -- --bench-devices[=PATH]
                                                  -- emit the per-device
                                                     suite entry: cold/warm
                                                     compile of all four
                                                     registry devices on one
                                                     shared cache, plus the
                                                     drift-isolation gate
                                                     (default
                                                     BENCH_devices.json)

   The end-to-end benchmark (benchmark/, BENCHMARK.json) measures the
   suite, daemon, GRAPE and sweep paths; this entry point keeps only what
   it does not cover. *)

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
  let workers =
    match List.filter_map int_of_string_opt args with
    | [] -> [ 1; 2; 4 ]
    | ws -> ws
  in
  (match flag_value "bench-devices" args with
  | Some path -> Micro.run_bench_devices ?path ()
  | None -> Micro.run_scaling ~workers ());
  if kernels then Micro.run ()
