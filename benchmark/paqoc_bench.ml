(* paqoc-bench: the PAQOC end-to-end benchmark.

     paqoc_bench --workload suite|daemon|qoc|sweep [--seed N] [--seconds S]
                 [--trace 0|1|DIR]
     paqoc_bench --smoke
     paqoc_bench --print-expected

   Untraced (--trace 0, the default) it runs one workload and prints
   every end-to-end metric; traced it runs the workload's reduced-size
   layer probe (see Traced) and prints every per-layer metric, writing
   the spans under DIR (--trace 1: .bench_run/traces). Either way the
   last line of stdout is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   The exit status is 0 only when every output check passed; bad
   arguments exit 2. See benchmark/README.md. *)

module Protocol = Paqoc_pulse.Protocol
module Clock = Paqoc_obs.Clock
module W = Workload

let usage =
  "usage: paqoc_bench --workload suite|daemon|qoc|sweep [--seed N] [--seconds S]\n\
  \                   [--trace 0|1|DIR] [--root DIR] [--work DIR] [--paqoc EXE]\n\
  \       paqoc_bench --smoke [--root DIR] [--work DIR] [--paqoc EXE]\n\
  \       paqoc_bench --print-expected\n"

let bad_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_string ("paqoc_bench: " ^ msg ^ "\n" ^ usage);
      exit 2)
    fmt

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string option;
  mutable smoke : bool;
  mutable print_expected : bool;
  mutable setup_only : bool;
  mutable root : string;
  mutable work : string option;
  mutable paqoc : string option;
}

let parse_args argv =
  let a =
    { workload = None; seed = 1; seconds = 20.0; trace = None; smoke = false;
      print_expected = false; setup_only = false; root = "."; work = None; paqoc = None }
  in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest -> a.smoke <- true; go rest
    | "--print-expected" :: rest -> a.print_expected <- true; go rest
    | "--setup-only" :: rest -> a.setup_only <- true; go rest
    | ("--help" | "-h") :: _ -> print_string usage; exit 0
    | flag :: value :: rest
      when List.mem flag
             [ "--workload"; "--seed"; "--seconds"; "--trace"; "--root"; "--work"; "--paqoc" ]
      ->
      (match flag with
      | "--workload" ->
        if not (List.mem value W.names) then
          bad_usage "unknown workload %S (expected %s)" value (String.concat ", " W.names);
        a.workload <- Some value
      | "--seed" -> (
        match int_of_string_opt value with
        | Some s -> a.seed <- s
        | None -> bad_usage "--seed wants an integer, got %S" value)
      | "--seconds" -> (
        match float_of_string_opt value with
        | Some s when s >= 0.0 && Float.is_finite s -> a.seconds <- s
        | _ -> bad_usage "--seconds wants a number >= 0, got %S" value)
      | "--trace" -> a.trace <- (match value with "0" -> None | "1" -> Some "" | dir -> Some dir)
      | "--root" -> a.root <- value
      | "--work" -> a.work <- Some value
      | _ -> a.paqoc <- Some value);
      go rest
    | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      bad_usage "%s needs a value" flag
    | arg :: _ -> bad_usage "unknown argument %S" arg
  in
  go (List.tl (Array.to_list argv));
  if (not a.smoke) && (not a.print_expected) && a.workload = None then
    bad_usage "--workload is required";
  a

(* ------------------------------------------------------------------ *)
(* The declared metrics (BENCHMARK.json) and the printed ones           *)
(* ------------------------------------------------------------------ *)

let declared root key =
  let field name = function
    | Protocol.Obj kv -> List.assoc_opt name kv
    | _ -> None
  in
  let text = W.read_file (Filename.concat root "BENCHMARK.json") in
  match Protocol.json_of_string text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j -> (
    match field key j with
    | Some (Protocol.Arr items) ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some (Protocol.Str n), Some (Protocol.Str u) -> (n, u)
          | _ -> failwith ("BENCHMARK.json: bad entry in " ^ key))
        items
    | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list"))

(* every declared metric printed once, with its declared unit and a
   finite value (a JSON number) *)
let validate acc ~declared metrics =
  let printed = List.map (fun (n, u, _, _) -> (n, u)) metrics in
  if printed <> declared then
    W.problem acc "printed metrics %s differ from BENCHMARK.json's %s"
      (String.concat "," (List.map fst printed))
      (String.concat "," (List.map fst declared));
  List.iter
    (fun (name, _, v, _) ->
      if not (Float.is_finite v) then W.problem acc "%s is not finite" name)
    metrics

let print_metrics metrics =
  List.iter
    (fun (name, unit, v, n) -> Printf.printf "  %-30s %16.6g %-7s n=%d\n" name v unit n)
    metrics

let result_json (acc : W.acc) metrics =
  Protocol.json_to_string
    (Protocol.Obj
       [ ("correct", Protocol.Bool (acc.W.problems = []));
         ("attempted", Protocol.Num (float_of_int acc.W.attempted));
         ("failed", Protocol.Num (float_of_int acc.W.failed));
         ( "metrics",
           Protocol.Obj
             (List.filter_map
                (fun (name, unit, v, _) ->
                  if Float.is_finite v then
                    Some (name, Protocol.Obj [ ("value", Protocol.Num v); ("unit", Protocol.Str unit) ])
                  else None)
                metrics) )
       ])

let print_problems (acc : W.acc) =
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) (List.rev acc.W.problems)

(* one workload, untraced or traced *)
let measure (cfg : W.config) ~trace workload acc =
  match trace with
  | None ->
    let m = W.run cfg acc workload in
    (* context the gated metrics leave out: the request tail, the pass
       quartiles and the closed-loop rate *)
    let req = Stats.sorted m.W.requests in
    (match Stats.tail req with
    | Some (p, v) ->
      Printf.printf "  request latency: n=%d, median %.3f ms, p%g %.3f ms (highest with %d beyond)\n"
        (Array.length req) (Stats.median m.W.requests *. 1000.0) p (v *. 1000.0)
        Stats.min_beyond
    | None -> ());
    let spread what l =
      if List.length l >= 2 then
        let q1, q2, q3 = Stats.quartiles l in
        Printf.printf "  %s passes: n=%d, quartiles %.4f / %.4f / %.4f s\n" what
          (List.length l) q1 q2 q3
    in
    spread "cold" m.W.cold;
    spread "warm" m.W.warm;
    Printf.printf "  closed loop: %d requests in %.3f s, %.3f req/s\n" m.W.loop_requests
      m.W.loop_wall
      (float_of_int m.W.loop_requests /. m.W.loop_wall);
    W.end_to_end m
  | Some dir -> Traced.run cfg ~dir workload acc

let run_one (cfg : W.config) ~trace workload =
  let acc = W.new_acc () in
  Printf.printf "paqoc-bench  workload %s  seed %d  seconds %g  %s\n%!" workload cfg.W.seed
    cfg.W.seconds (if trace = None then "untraced" else "traced");
  let t0 = Clock.now_s () in
  let metrics = measure cfg ~trace workload acc in
  let key = if trace = None then "end_to_end" else "per_layer" in
  validate acc ~declared:(declared cfg.W.root key) metrics;
  print_metrics metrics;
  Printf.printf "  %d requests, %d failed, %.1f s\n" acc.W.attempted acc.W.failed
    (Clock.now_s () -. t0);
  print_problems acc;
  print_endline (result_json acc metrics);
  if acc.W.problems = [] then 0 else 1

(* every workload at tiny size, untraced and traced, with every output
   check and the metric names and units held to BENCHMARK.json *)
let smoke (cfg : W.config) =
  let t0 = Clock.now_s () in
  let dir = Filename.concat cfg.W.work "smoke-traces" in
  let ok =
    List.for_all
      (fun workload ->
        List.for_all
          (fun (trace, key) ->
            let acc = W.new_acc () in
            let metrics = measure cfg ~trace workload acc in
            validate acc ~declared:(declared cfg.W.root key) metrics;
            let failed = acc.W.problems <> [] in
            Printf.printf "smoke %-6s %-10s %3d requests  %s\n%!" workload key
              acc.W.attempted (if failed then "FAILED" else "ok");
            if failed then begin
              print_metrics metrics;
              print_problems acc
            end;
            not failed)
          [ (None, "end_to_end"); (Some dir, "per_layer") ])
      W.names
  in
  List.iter (fun w -> W.remove_file (Filename.concat dir (w ^ ".trace.json"))) W.names;
  List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) [ dir; cfg.W.work ];
  Printf.printf "smoke %s in %.1f s\n" (if ok then "passed" else "FAILED") (Clock.now_s () -. t0);
  if ok then 0 else 1

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let () =
  let a = parse_args Sys.argv in
  let work = Option.value a.work ~default:(Filename.concat a.root ".bench_run") in
  let cfg =
    { W.root = a.root;
      work;
      paqoc =
        Option.value a.paqoc
          ~default:(Filename.concat a.root "_build/default/bin/paqoc_cli.exe");
      seed = a.seed;
      seconds = (if a.smoke then 0.0 else a.seconds);
      smoke = a.smoke
    }
  in
  Child.install_signal_cleanup ();
  let code =
    try
      if a.print_expected then (W.print_expected cfg; 0)
      else if a.setup_only then (W.setup_only cfg (Option.get a.workload); 0)
      else begin
        mkdir_p work;
        if a.smoke then smoke cfg
        else
          let trace =
            Option.map (fun d -> if d = "" then Filename.concat work "traces" else d) a.trace
          in
          Option.iter mkdir_p trace;
          run_one cfg ~trace (Option.get a.workload)
      end
    with e ->
      Printf.eprintf "paqoc_bench: %s\n%!" (Printexc.to_string e);
      1
  in
  exit code
