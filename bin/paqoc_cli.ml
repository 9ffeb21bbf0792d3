(* paqoc — compile quantum circuits to pulse schedules from the command
   line.

   Subcommands:
     compile       transpile + compile a benchmark or QASM file under a scheme
     compile-suite batch-compile every Table I benchmark against one shared
                   pulse cache
     compile-sweep recompile a parameterised benchmark across a sweep of
                   angles through the frozen-plan fast path
     export-ir     compile and export the pulse program as paqoc-ir v1 JSON
     mine          show the frequent subcircuits of a circuit
     benchmarks    list the built-in Table I benchmarks
     pulse         run GRAPE for a named gate and print the waveform summary

   Every compile goes through Service.compile, in-process or inside a
   paqoc serve daemon (--connect): the subcommands only build the
   Protocol request and print the result. *)

open Cmdliner
module Circuit = Paqoc_circuit.Circuit
module Gate = Paqoc_circuit.Gate
module Device = Paqoc_topology.Device
module Transpile = Paqoc_topology.Transpile
module Gen = Paqoc_pulse.Generator
module Pulse_ir = Paqoc_service.Pulse_ir
module Protocol = Paqoc_pulse.Protocol
module Server = Paqoc_pulse.Server
module Service = Paqoc_service.Service
module Suite = Paqoc_benchmarks.Suite
module Miner = Paqoc_mining.Miner
module Obs = Paqoc_obs.Obs
module Clock = Paqoc_obs.Clock

(* Shared --metrics/--trace plumbing: enable the sink before the work,
   dump the reports after it. Dumps are atomic (tmp + rename); a bad path
   is a clean CLI error, not a half-written file. *)
let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write an aggregated JSON metrics report (spans, counters, \
           gauges, histograms; schema paqoc-metrics v1) to $(docv) after \
           the run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event span dump to $(docv) after the run \
           (open in about:tracing or ui.perfetto.dev; one track per \
           domain).")

(* Shared --inject plumbing: arm the fault-injection layer before the work
   runs. A malformed spec is a clean CLI error. *)
let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Arm deterministic fault injection: comma-separated \
           point[:first=N|:every=N|:prob=P:seed=S] clauses, e.g. \
           $(b,grape-diverge) or $(b,timeout:first=2). Points: \
           grape-diverge, db-save-error, journal-append-error, \
           pool-task-crash, timeout, drift-shock. Injected QOC failures \
           are retried and then degrade to decomposed default-basis \
           pulses, so compilation still succeeds; drift-shock resolves \
           the device one calibration epoch later than requested.")

let arm_injection = function
  | None -> ()
  | Some spec -> (
    match Paqoc_pulse.Faultin.parse_spec spec with
    | Ok pts ->
      Paqoc_pulse.Faultin.configure pts;
      Printf.printf "fault injection : %s\n"
        (Paqoc_pulse.Faultin.spec_to_string pts)
    | Error msg ->
      Printf.eprintf "error: --inject: %s\n" msg;
      exit 1)

let with_observability ~metrics ~trace f =
  if metrics <> None || trace <> None then Obs.enable ();
  let r = f () in
  (match metrics with
  | Some path -> (
    try
      Obs.write_report path;
      Printf.printf "metrics report  : %s\n" path
    with Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1)
  | None -> ());
  (match trace with
  | Some path -> (
    try
      Obs.write_trace path;
      Printf.printf "trace dump      : %s\n" path
    with Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1)
  | None -> ());
  r

(* Run [f], reporting what a compile can raise: a request the compiler
   cannot serve exits 1 with the same text the daemon refuses it with, a
   blown budget exits 124, any other reported failure exits 1. *)
let or_exit f =
  try f () with
  | Protocol.Bad_request msg | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Protocol.Deadline_exceeded ->
    Printf.eprintf "error: deadline exceeded\n";
    exit 124

(* A file path becomes inline QASM — the daemon never reads client
   paths; anything else is a benchmark name Service resolves. A path
   that cannot be read (a directory, say) exits 1 naming it. *)
let request_circuit input =
  if not (Sys.file_exists input) then Protocol.Benchmark input
  else
    match
      if Sys.is_directory input then Error "is a directory"
      else Ok (In_channel.with_open_bin input In_channel.input_all)
    with
    | Ok qasm -> Protocol.Qasm qasm
    | Error msg | (exception Sys_error msg) ->
      Printf.eprintf "error: cannot read circuit: %s (%s)\n" msg input;
      exit 1

let grid_of_spec = function
  | "5x5" -> (5, 5)
  | spec -> (
    match String.split_on_char 'x' spec with
    | [ r; c ] -> (
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some r, Some c when r > 0 && c > 0 -> (r, c)
      | _ ->
        Printf.eprintf "error: bad device spec %s (want RxC)\n" spec;
        exit 1)
    | _ ->
      Printf.eprintf "error: bad device spec %s (want RxC)\n" spec;
      exit 1)

(* --device accepts a registry device name first (lattice, heavy-hex,
   square, ring), then a bare RxC grid spec. The request carries the
   name (or the grid dimensions) and Service.resolve_device resolves it
   on either transport, so the CLI and the daemon cannot disagree. *)
let device_spec_parts spec =
  match Device.find spec with
  | Some _ -> (Some spec, 5, 5)
  | None ->
    let rows, cols = grid_of_spec spec in
    (None, rows, cols)

let device_label (req : Protocol.compile_request) =
  match req.Protocol.device with
  | Some name -> name
  | None -> Printf.sprintf "%dx%d" req.Protocol.rows req.Protocol.cols

(* Printed only when the resolved device differs physically from the
   paper's lattice, so default-device output stays byte-identical. *)
let print_device dev =
  if Device.cache_namespace dev <> "" then
    Printf.printf "device          : %s (hash %s)\n" (Device.name dev)
      (Device.hash dev)

let drift_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "drift-seed" ] ~docv:"S"
        ~doc:
          "Calibration-drift seed: with $(b,--drift-epoch) E > 0 the \
           device's couplings and bounds are perturbed by the seeded, \
           deterministic drift model before compiling. The drifted \
           device hashes differently, so cached pulses from other \
           epochs never replay. With $(b,--connect) the seed travels \
           with the request.")

let drift_epoch_arg =
  Arg.(
    value & opt int 0
    & info [ "drift-epoch" ] ~docv:"E"
        ~doc:
          "Calibration-drift epoch (0 = pristine calibration). Epochs \
           are independent draws, not cumulative: epoch E is the same \
           device for any job count and any earlier history.")

(* Shared --cache plumbing: open (or create) the journaled shared pulse
   cache around the work, always closing it — close compacts any pending
   journal so the file converges back to its sorted snapshot form. *)
let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"FILE"
        ~doc:
          "Shared cross-run pulse cache, a journaled paqoc-pulse-db v3 \
           file: created if missing, consulted before any synthesis, and \
           appended to (crash-safely) as new pulses are priced, so one \
           cache file can back many compilations. An older v1/v2 \
           pulse-database file is migrated in place.")

let canonical_arg =
  Arg.(
    value & flag
    & info [ "canonical-cache" ]
        ~doc:
          "Add the equivalence-class tier to the shared $(b,--cache) \
           lookups: gate groups whose unitaries differ only by \
           single-qubit local rotations (and global phase) replay a \
           class representative's already-priced pulse instead of \
           synthesising, and fresh syntheses publish their class record \
           (upgrading the cache file to paqoc-pulse-db v4). With \
           $(b,--connect) the flag travels with the request and applies \
           to the daemon's cache. Without this flag the cache bytes, \
           counters and tables are identical to previous releases. See \
           docs/canonicalization.md.")

let with_cache cache_file f =
  match cache_file with
  | None -> f None
  | Some path ->
    Paqoc_pulse.Cache.with_file path (fun c ->
        (* a Ctrl-C / SIGTERM mid-run must still compact-and-close the
           journal: register the cache with the interrupt-cleanup
           registry for the duration of the work (close is idempotent,
           so the normal with_file close after an un-fired handler is
           fine) *)
        Server.Cleanup.register_cache c;
        Server.Cleanup.install_handlers ();
        Fun.protect
          ~finally:(fun () -> Server.Cleanup.unregister_cache c)
          (fun () ->
            let r = f (Some c) in
            let s = Paqoc_pulse.Cache.stats c in
            Printf.printf
              "pulse cache     : %s (%d entries; %d hits / %d misses, %d \
               published)\n"
              path
              (Paqoc_pulse.Cache.size c)
              s.Paqoc_pulse.Cache.hits s.Paqoc_pulse.Cache.misses
              s.Paqoc_pulse.Cache.publishes;
            r))

(* ------------------------------------------------------------------ *)
(* Daemon client plumbing (--connect)                                  *)
(* ------------------------------------------------------------------ *)

let refusal_to_string = function
  | Protocol.Overloaded -> "daemon overloaded (admission queue full)"
  | Protocol.Deadline_exceeded -> "deadline exceeded"
  | Protocol.Shutting_down -> "daemon is shutting down"
  | Protocol.Bad_request msg -> "bad request: " ^ msg
  | Protocol.Internal msg -> "internal daemon error: " ^ msg

(* timeout(1)-style 124 for a blown budget, EX_TEMPFAIL for back-pressure
   a client can retry, plain 1 for everything else *)
let refusal_exit : Protocol.error_kind -> int = function
  | Protocol.Deadline_exceeded -> 124
  | Protocol.Overloaded | Protocol.Shutting_down -> 75
  | Protocol.Bad_request _ | Protocol.Internal _ -> 1

let rpc_compile fd req =
  match Server.rpc fd (Protocol.Compile req) with
  | Protocol.Result r -> r
  | Protocol.Refused e ->
    Printf.eprintf "error: %s\n" (refusal_to_string e);
    exit (refusal_exit e)
  | Protocol.Pong | Protocol.Stats_reply _ | Protocol.Shutdown_ack
  | Protocol.Sweep _ ->
    Printf.eprintf "error: unexpected daemon response to a compile\n";
    exit 1

let rpc_sweep fd req =
  match Server.rpc fd (Protocol.Recompile req) with
  | Protocol.Sweep s -> s
  | Protocol.Refused e ->
    Printf.eprintf "error: %s\n" (refusal_to_string e);
    exit (refusal_exit e)
  | Protocol.Pong | Protocol.Stats_reply _ | Protocol.Shutdown_ack
  | Protocol.Result _ ->
    Printf.eprintf "error: unexpected daemon response to a sweep\n";
    exit 1

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Send the compilation to a resident $(b,paqoc serve) daemon on \
           Unix-domain socket $(docv) instead of compiling in-process. \
           The daemon's shared pulse cache serves all requests, so warm \
           circuits come back without any synthesis.")

(* --cache and --inject configure the daemon process (paqoc serve takes
   them); every other rejected flag only means something in-process *)
let reject_with_connect flags =
  match List.find_opt snd flags with
  | Some (name, _) ->
    Printf.eprintf "error: %s cannot be combined with --connect (%s)\n" name
      (if name = "--cache" || name = "--inject" then
         "it belongs to the daemon process; pass it to paqoc serve"
       else "it is in-process only");
    exit 1
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The compile request                                                 *)
(* ------------------------------------------------------------------ *)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-seconds" ] ~docv:"S"
        ~doc:
          "Wall-clock budget for the whole compile or sweep (exit 124 \
           once exceeded): a compile aborts at its next stage boundary, \
           a sweep before its next iteration. With $(b,--connect) the \
           budget travels with the request and is enforced by the \
           daemon (queue time counts).")

(* --device/--drift-seed/--drift-epoch/--jobs/--backend, shared by every
   compiling subcommand: the default request with those fields set *)
let target_term =
  let device =
    Arg.(
      value & opt string "5x5"
      & info [ "d"; "device" ] ~docv:"DEV"
          ~doc:
            "Target device: a registry name ($(b,lattice), \
             $(b,heavy-hex), $(b,square), $(b,ring)) or a bare RxC grid \
             spec of at most 1024 qubits, e.g. 5x5 (the paper's platform) \
             or 2x4. Non-default \
             devices namespace every shared-cache key with their content \
             hash, so pulses never leak across devices.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel pulse generation (deterministic: \
             any N produces the same schedules, cache bytes, sweep plans \
             and IR as N=1).")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("model", Protocol.Model); ("qoc", Protocol.Qoc) ])
          Protocol.Model
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "Pulse engine: $(b,model) (analytic latency model, instant; \
             exported IR carries prices only) or $(b,qoc) (real GRAPE \
             searches; slow, small circuits only; exported IR carries \
             sampled waveforms and is self-verifying).")
  in
  let make spec drift_seed drift_epoch jobs backend =
    if jobs < 1 then begin
      Printf.eprintf "error: --jobs must be >= 1 (got %d)\n" jobs;
      exit 1
    end;
    if drift_seed < 0 || drift_epoch < 0 then begin
      Printf.eprintf
        "error: --drift-seed/--drift-epoch must be >= 0 (got %d/%d)\n"
        drift_seed drift_epoch;
      exit 1
    end;
    let device, rows, cols = device_spec_parts spec in
    { Protocol.default_compile with
      Protocol.backend;
      rows;
      cols;
      jobs;
      device;
      drift_seed;
      drift_epoch
    }
  in
  Term.(
    const make $ device $ drift_seed_arg $ drift_epoch_arg $ jobs $ backend)

(* The request compile, compile-suite and export-ir send (the caller
   fills in the circuit); only compile exposes the search knobs and the
   deadline ([knobs]). *)
let request_term ~knobs =
  let scheme =
    Arg.(
      value
      & opt
          (enum
             [ ("paqoc-m0", Protocol.M0); ("paqoc-mtuned", Protocol.Mtuned);
               ("paqoc-minf", Protocol.Minf); ("accqoc-n3d3", Protocol.Acc3);
               ("accqoc-n3d5", Protocol.Acc5) ])
          Protocol.M0
      & info [ "s"; "scheme" ] ~docv:"SCHEME"
          ~doc:
            "Compilation scheme: paqoc-m0, paqoc-mtuned, paqoc-minf, \
             accqoc-n3d3 or accqoc-n3d5.")
  in
  let knobs =
    if not knobs then Term.const Fun.id
    else
      let d = Protocol.default_compile in
      let max_n =
        Arg.(
          value & opt int d.Protocol.max_n
          & info [ "max-qubits" ] ~docv:"N"
              ~doc:"Qubit cap for customized/APA gates (the paper's maxN).")
      in
      let top_k =
        Arg.(
          value & opt int d.Protocol.top_k
          & info [ "top-k" ] ~docv:"K"
              ~doc:"Merges committed per search iteration (the paper's topK).")
      in
      Term.(
        const (fun max_n top_k deadline_s req ->
            { req with Protocol.max_n; top_k; deadline_s })
        $ max_n $ top_k $ deadline_arg)
  in
  let make scheme canonical knobs target =
    knobs { target with Protocol.scheme; canonical }
  in
  Term.(const make $ scheme $ canonical_arg $ knobs $ target_term)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CIRCUIT" ~doc:"QASM file or built-in benchmark name.")
  in
  let show_groups =
    Arg.(value & flag & info [ "show-groups" ] ~doc:"Print the final gate groups.")
  in
  let retries =
    Arg.(
      value & opt int Gen.default_retry.Gen.max_attempts
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Synthesis attempts per gate group before degrading to \
             decomposed default-basis pulses (>= 1; 1 disables retries). \
             Retries restart QOC with deterministically perturbed seeds.")
  in
  let task_seconds =
    Arg.(
      value & opt (some float) None
      & info [ "task-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock budget per synthesis task, in seconds (> 0); once \
             exceeded the task degrades to the fallback instead of \
             retrying.")
  in
  let emit_ir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-ir" ] ~docv:"FILE"
          ~doc:
            "Export the compiled pulse program as a paqoc-ir v1 JSON \
             document to $(docv) (byte-deterministic at any \
             $(b,--jobs); on the qoc backend it carries the sampled \
             waveforms and is self-verifying — see $(b,paqoc \
             export-ir) and docs/pulse-ir.md). In-process only.")
  in
  let print_result ?device ~backend input (r : Protocol.compile_result) =
    Printf.printf
      "transpiled %s: %d logical qubits -> %d-qubit device, %d physical \
       gates (%d swaps inserted)\n"
      input r.Protocol.logical_qubits r.Protocol.device_qubits
      r.Protocol.physical_gates r.Protocol.swaps_added;
    Option.iter print_device device;
    Printf.printf "circuit latency : %.0f dt\n" r.Protocol.latency;
    Printf.printf "estimated ESP   : %.4f\n" r.Protocol.esp;
    Printf.printf "compile cost    : %.3f s (%s)\n" r.Protocol.compile_seconds
      (match backend with
      | Protocol.Model -> "model backend: modeled QOC time + search"
      | Protocol.Qoc -> "qoc backend: measured GRAPE time + search");
    Printf.printf "pulse episodes  : %d\n" r.Protocol.episodes;
    if r.Protocol.fallbacks > 0 then
      Printf.printf
        "fallback groups : %d (QOC failed; decomposed default-basis pulses, \
         latency penalty included above)\n"
        r.Protocol.fallbacks
  in
  let run input req show_groups cache_file retries task_seconds connect
      emit_ir inject metrics trace =
    if retries < 1 then begin
      Printf.eprintf "error: --retries must be >= 1 (got %d)\n" retries;
      exit 1
    end;
    (match task_seconds with
    | Some s when not (s > 0.0) ->
      Printf.eprintf "error: --task-seconds must be > 0 (got %g)\n" s;
      exit 1
    | _ -> ());
    let req = { req with Protocol.circuit = request_circuit input } in
    match connect with
    | Some sock ->
      reject_with_connect
        [ ("--cache", cache_file <> None); ("--show-groups", show_groups);
          ("--inject", inject <> None); ("--emit-ir", emit_ir <> None);
          ("--retries", retries <> Gen.default_retry.Gen.max_attempts);
          ("--task-seconds", task_seconds <> None) ];
      with_observability ~metrics ~trace @@ fun () ->
      or_exit @@ fun () ->
      Server.with_connection sock (fun fd ->
          print_result ~backend:req.Protocol.backend input
            (rpc_compile fd req))
    | None ->
      arm_injection inject;
      with_observability ~metrics ~trace @@ fun () ->
      or_exit @@ fun () ->
      with_cache cache_file @@ fun cache ->
      let retry = { Gen.max_attempts = retries; task_seconds } in
      let deadline =
        Option.map (fun s -> Clock.now_s () +. s) req.Protocol.deadline_s
      in
      let c = Service.compile ?cache ~retry ~deadline req in
      print_result ~device:c.Service.device ~backend:req.Protocol.backend input
        c.Service.result;
      if show_groups then
        List.iteri
          (fun i (g : Gate.app) ->
            Printf.printf "  group %3d: %s\n" i (Gate.app_to_string g))
          c.Service.grouped.Circuit.gates;
      Option.iter
        (fun file ->
          let ir = Pulse_ir.of_compiled c in
          Pulse_ir.save ir file;
          Printf.printf "pulse IR        : %s (%d instructions)\n" file
            (List.length ir.Pulse_ir.schedule))
        emit_ir
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Transpile and compile a circuit to a pulse schedule.")
    Term.(
      const run $ input $ request_term ~knobs:true $ show_groups $ cache_arg
      $ retries $ task_seconds $ connect_arg $ emit_ir_arg $ inject_arg
      $ metrics_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* compile-suite                                                       *)
(* ------------------------------------------------------------------ *)

(* Batch-compile every Table I benchmark against one shared pulse cache.
   Each benchmark gets a fresh generator, so all cross-benchmark reuse
   flows through the cache — the per-benchmark hit rate is exactly the
   fraction of its pulse lookups answered by earlier compilations (or a
   previous run of the suite, when --cache names an existing file). *)
let compile_suite_cmd =
  let run req cache_file connect inject metrics trace =
    let mk_req (e : Suite.entry) =
      { req with Protocol.circuit = Protocol.Benchmark e.Suite.name }
    in
    (* both paths print through Service's formatters from the same
       result record, so the table bytes cannot depend on the transport *)
    let print_table compile_one =
      print_string Service.suite_header;
      let tot_synth = ref 0 and tot_hits = ref 0 and tot_misses = ref 0 in
      List.iter
        (fun (e : Suite.entry) ->
          let r = compile_one e in
          tot_synth := !tot_synth + r.Protocol.synthesized;
          tot_hits := !tot_hits + r.Protocol.cache_hits;
          tot_misses := !tot_misses + r.Protocol.cache_misses;
          print_string (Service.suite_row e.Suite.name r))
        Suite.all;
      print_string
        (Service.suite_totals ~synthesized:!tot_synth ~hits:!tot_hits
           ~misses:!tot_misses)
    in
    match connect with
    | Some sock ->
      reject_with_connect
        [ ("--cache", cache_file <> None); ("--inject", inject <> None) ];
      with_observability ~metrics ~trace @@ fun () ->
      Printf.printf "compiling %d benchmarks via daemon %s (jobs %d)\n"
        (List.length Suite.all) sock req.Protocol.jobs;
      or_exit @@ fun () ->
      Server.with_connection sock (fun fd ->
          print_table (fun e -> rpc_compile fd (mk_req e)))
    | None ->
      arm_injection inject;
      with_observability ~metrics ~trace @@ fun () ->
      or_exit @@ fun () ->
      with_cache cache_file @@ fun cache ->
      Printf.printf "compiling %d benchmarks on %s (jobs %d%s)\n"
        (List.length Suite.all) (device_label req) req.Protocol.jobs
        (match cache_file with
        | Some p -> Printf.sprintf ", cache %s" p
        | None -> ", no cache");
      print_table (fun e -> Service.handle ?cache ~deadline:None (mk_req e))
  in
  Cmd.v
    (Cmd.info "compile-suite"
       ~doc:
         "Compile every Table I benchmark against one shared pulse cache \
          and report per-benchmark cache hit rates.")
    Term.(
      const run $ request_term ~knobs:false $ cache_arg $ connect_arg
      $ inject_arg $ metrics_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* compile-sweep                                                       *)
(* ------------------------------------------------------------------ *)

(* Variational sweep over a parameterised benchmark: freeze the compile
   plan once, then serve every iteration through the parametric fast
   path (anchor interpolation with drift-checked fallback). The angle
   vectors are always generated client-side — seeded or from a file — so
   the in-process and --connect paths answer the exact same request. *)
let compile_sweep_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCH"
          ~doc:
            "Parameterised sweep benchmark ($(b,qaoa), $(b,vqe), \
             $(b,dnn)) or a QASM file (which, having no symbolic \
             angles, degenerates to all-static slots).")
  in
  let sweep_n =
    Arg.(
      value & opt int 8
      & info [ "sweep" ] ~docv:"N"
          ~doc:
            "Number of seeded sweep iterations (ignored when \
             $(b,--angles-file) is given).")
  in
  let seed =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"S" ~doc:"Seed for the generated sweep angles.")
  in
  let angles_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "angles-file" ] ~docv:"FILE"
          ~doc:
            "Explicit sweep iterations, one per line: whitespace-separated \
             $(i,param=value) bindings (blank lines and $(b,#) comments \
             ignored). Overrides $(b,--sweep).")
  in
  let interp_tol =
    Arg.(
      value & opt float 1e-6
      & info [ "interp-tol" ] ~docv:"T"
          ~doc:
            "Max |predicted - resimulated| trace-fidelity drift accepted \
             from an interpolated pulse; beyond it the slot falls back to \
             real synthesis (and adopts the result as a new anchor).")
  in
  let anchors =
    Arg.(
      value & opt int 5
      & info [ "anchors" ] ~docv:"N"
          ~doc:"Seeded anchor angles per parameter slot (>= 2).")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Plan-persistence sidecar (paqoc-plan v1): the frozen compile \
             plan is loaded from $(docv) when it exists and saved back \
             after the sweep, so fallback-adopted anchors survive across \
             runs. In-process only.")
  in
  let parse_angles_file path =
    let parse_binding lineno tok =
      match String.index_opt tok '=' with
      | Some i when i > 0 -> (
        let name = String.sub tok 0 i in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match float_of_string_opt v with
        | Some v -> (name, v)
        | None ->
          Printf.ksprintf failwith "%s:%d: bad angle value in %s" path lineno
            tok)
      | _ ->
        Printf.ksprintf failwith "%s:%d: expected param=value bindings, got %s"
          path lineno tok
    in
    let lines =
      try In_channel.with_open_text path In_channel.input_lines
      with Sys_error msg -> failwith msg
    in
    let iterations =
      List.concat
        (List.mapi
           (fun i line ->
             let line = String.trim line in
             if line = "" || line.[0] = '#' then []
             else
               [ List.map
                   (parse_binding (i + 1))
                   (List.filter
                      (fun t -> t <> "")
                      (String.split_on_char ' ' line)) ])
           lines)
    in
    if iterations = [] then
      Printf.ksprintf failwith "%s holds no sweep iterations" path;
    iterations
  in
  let print_sweep (s : Protocol.sweep_result) =
    Printf.printf "sweep plan      : %d free parameters, %d anchors, %d \
                   slots (%d static / %d param / %d multi)\n"
      (List.length s.Protocol.sweep_params)
      (List.length s.Protocol.anchor_values)
      (s.Protocol.static_slots + s.Protocol.param_slots
     + s.Protocol.multi_slots)
      s.Protocol.static_slots s.Protocol.param_slots s.Protocol.multi_slots;
    print_string Service.sweep_header;
    List.iteri
      (fun i it -> print_string (Service.sweep_row i it))
      s.Protocol.iterations;
    print_string (Service.sweep_totals s)
  in
  let run input sweep_n seed angles_file interp_tol anchors target cache_file
      plan connect deadline_s inject metrics trace =
    if sweep_n < 0 then begin
      Printf.eprintf "error: --sweep must be >= 0 (got %d)\n" sweep_n;
      exit 1
    end;
    if anchors < 2 then begin
      Printf.eprintf "error: --anchors must be >= 2 (got %d)\n" anchors;
      exit 1
    end;
    if interp_tol <= 0.0 then begin
      Printf.eprintf "error: --interp-tol must be > 0 (got %g)\n" interp_tol;
      exit 1
    end;
    let circuit = request_circuit input in
    (* angles are generated client-side in both transports: the circuit's
       free parameters are a pure function of the benchmark, so the
       daemon request carries exactly the bindings an in-process run
       would use *)
    let angles =
      or_exit @@ fun () ->
      match angles_file with
      | Some path -> parse_angles_file path
      | None ->
        let params =
          Circuit.free_params (Service.resolve_sweep_circuit circuit)
        in
        Paqoc.Variational.sweep_angles ~seed ~n:sweep_n params
    in
    let req =
      { Protocol.rc_circuit = circuit;
        rc_backend = target.Protocol.backend;
        rc_rows = target.Protocol.rows;
        rc_cols = target.Protocol.cols;
        rc_jobs = target.Protocol.jobs;
        rc_anchors = anchors;
        rc_interp_tol = interp_tol;
        rc_angles = angles;
        rc_device = target.Protocol.device;
        rc_drift_seed = target.Protocol.drift_seed;
        rc_drift_epoch = target.Protocol.drift_epoch;
        rc_deadline_s = deadline_s
      }
    in
    match connect with
    | Some sock ->
      reject_with_connect
        [ ("--cache", cache_file <> None); ("--plan", plan <> None);
          ("--inject", inject <> None) ];
      with_observability ~metrics ~trace @@ fun () ->
      Printf.printf "sweeping %s via daemon %s (%d iterations)\n" input sock
        (List.length angles);
      or_exit @@ fun () ->
      Server.with_connection sock (fun fd -> print_sweep (rpc_sweep fd req))
    | None -> (
      arm_injection inject;
      with_observability ~metrics ~trace @@ fun () ->
      or_exit @@ fun () ->
      with_cache cache_file @@ fun cache ->
      Printf.printf "sweeping %s on %s (%d iterations, tol %g%s)\n" input
        (device_label target) (List.length angles) interp_tol
        (match plan with
        | Some p -> Printf.sprintf ", plan %s" p
        | None -> "");
      let deadline = Option.map (fun s -> Clock.now_s () +. s) deadline_s in
      match Service.sweep_handle ?cache ?plan_path:plan ~deadline req with
      | s -> print_sweep s
      | exception Paqoc.Variational.Unbound_parameters missing ->
        Printf.eprintf "error: sweep bindings miss plan parameters: %s\n"
          (String.concat ", " missing);
        exit 1)
  in
  Cmd.v
    (Cmd.info "compile-sweep"
       ~doc:
         "Sweep a parameterised benchmark through the variational fast \
          path: freeze the compile plan once, then recompile every \
          iteration by anchor interpolation with drift-checked fallback \
          to real synthesis.")
    Term.(
      const run $ input $ sweep_n $ seed $ angles_file $ interp_tol
      $ anchors $ target_term $ cache_arg $ plan_arg $ connect_arg
      $ deadline_arg $ inject_arg $ metrics_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* export-ir                                                           *)
(* ------------------------------------------------------------------ *)

(* Compile in-process and export the pulse program as paqoc-ir v1. The
   subcommand form of compile's --emit-ir, with a --check pass that
   re-reads the written file and re-simulates every waveform. *)
let export_ir_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CIRCUIT" ~doc:"QASM file or built-in benchmark name.")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output paqoc-ir v1 JSON file.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "After writing, re-read the file, parse it back and \
             re-simulate every waveform: the achieved fidelity must \
             agree with the recorded one to within $(b,--tol).")
  in
  let tol =
    Arg.(
      value & opt float 1e-9
      & info [ "tol" ] ~docv:"T"
          ~doc:"Max |recorded - re-simulated| fidelity drift $(b,--check) \
                accepts.")
  in
  let run input output req cache_file check tol =
    or_exit @@ fun () ->
    let req = { req with Protocol.circuit = request_circuit input } in
    let c =
      with_cache cache_file (fun cache ->
          Service.compile ?cache ~deadline:None req)
    in
    Pulse_ir.save (Pulse_ir.of_compiled c) output;
    Printf.printf
      "pulse IR        : %s (%d instructions, %d fallbacks, device %s)\n"
      output c.Service.result.Protocol.episodes
      c.Service.result.Protocol.fallbacks
      (Device.name c.Service.device);
    if check then begin
      match Pulse_ir.load output with
      | Error e ->
        Printf.eprintf "error: %s: %s\n" output (Pulse_ir.error_to_string e);
        exit 1
      | Ok ir -> (
        match Pulse_ir.verify ~tol ir with
        | Error msg ->
          Printf.eprintf "error: %s: %s\n" output msg;
          exit 1
        | Ok r ->
          Printf.printf
            "IR verified     : %d waveforms re-simulated, %d skipped \
             (model-priced), max fidelity drift %.3g\n"
            r.Pulse_ir.checked r.Pulse_ir.skipped r.Pulse_ir.max_drift)
    end
  in
  Cmd.v
    (Cmd.info "export-ir"
       ~doc:
         "Compile a circuit and export its pulse program as a \
          byte-deterministic paqoc-ir v1 JSON document; with \
          $(b,--check), parse the file back and re-simulate every \
          waveform against its recorded fidelity.")
    Term.(
      const run $ input $ output $ request_term ~knobs:false $ cache_arg
      $ check $ tol)

(* ------------------------------------------------------------------ *)
(* mine                                                                *)
(* ------------------------------------------------------------------ *)

let mine_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CIRCUIT" ~doc:"QASM file or built-in benchmark name.")
  in
  let support =
    Arg.(
      value & opt int 3
      & info [ "support" ] ~docv:"S" ~doc:"Minimum disjoint occurrences.")
  in
  let transpile_first =
    Arg.(
      value & flag
      & info [ "physical" ]
          ~doc:"Mine the transpiled physical circuit (5x5 grid) instead of \
                the logical one.")
  in
  let run input support transpile_first =
    let c =
      or_exit (fun () -> Service.resolve_circuit (request_circuit input))
    in
    let c =
      if transpile_first then (Transpile.run c).Transpile.physical else c
    in
    let found =
      Miner.mine ~config:{ Miner.default_config with min_support = support } c
    in
    if found = [] then print_endline "no frequent subcircuits found"
    else
      List.iteri
        (fun i (f : Miner.found) ->
          Printf.printf "#%d support=%d coverage=%d (%d gates, %d wires)\n"
            (i + 1) f.Miner.support f.Miner.coverage
            f.Miner.pattern.Paqoc_mining.Pattern.size
            f.Miner.pattern.Paqoc_mining.Pattern.arity;
          List.iter
            (fun g -> Printf.printf "    %s\n" (Gate.app_to_string g))
            f.Miner.pattern.Paqoc_mining.Pattern.gates)
        found
  in
  Cmd.v
    (Cmd.info "mine" ~doc:"Show the frequent subcircuits of a circuit.")
    Term.(const run $ input $ support $ transpile_first)

(* ------------------------------------------------------------------ *)
(* benchmarks                                                          *)
(* ------------------------------------------------------------------ *)

let benchmarks_cmd =
  let run () =
    let show (e : Suite.entry) =
      let c = e.Suite.build () in
      Printf.printf "%-14s %2d qubits  %4d gates  -- %s\n" e.Suite.name
        c.Circuit.n_qubits (Circuit.n_gates c) e.Suite.description
    in
    print_endline "Table I benchmarks:";
    List.iter show Suite.all;
    print_endline "extras:";
    List.iter show Suite.extras
  in
  Cmd.v
    (Cmd.info "benchmarks" ~doc:"List the built-in Table I benchmarks.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* pulse                                                               *)
(* ------------------------------------------------------------------ *)

let pulse_cmd =
  let gate =
    Arg.(
      value & pos 0 string "cx"
      & info [] ~docv:"GATE" ~doc:"Gate name: x, h, sx, cx, cz, swap.")
  in
  let fidelity =
    Arg.(
      value & opt float 0.999
      & info [ "fidelity" ] ~docv:"F" ~doc:"Target gate fidelity.")
  in
  let dump =
    Arg.(
      value & opt (some string) None
      & info [ "dump" ] ~docv:"FILE" ~doc:"Write the waveform as CSV.")
  in
  let plot =
    Arg.(value & flag & info [ "plot" ] ~doc:"Render an ASCII waveform plot.")
  in
  let run gate fidelity dump plot inject metrics trace =
    arm_injection inject;
    with_observability ~metrics ~trace @@ fun () ->
    let kind, qubits, pairs =
      match gate with
      | "x" -> (Gate.X, [ 0 ], [])
      | "h" -> (Gate.H, [ 0 ], [])
      | "sx" -> (Gate.SX, [ 0 ], [])
      | "cx" -> (Gate.CX, [ 0; 1 ], [ (0, 1) ])
      | "cz" -> (Gate.CZ, [ 0; 1 ], [ (0, 1) ])
      | "swap" -> (Gate.SWAP, [ 0; 1 ], [ (0, 1) ])
      | g ->
        Printf.eprintf "error: unsupported gate %s\n" g;
        exit 1
    in
    let n = List.length qubits in
    let h = Paqoc_pulse.Hamiltonian.make ~n_qubits:n ~coupled_pairs:pairs () in
    let target = Gate.unitary kind in
    let config =
      { Paqoc_pulse.Duration_search.default_config with
        grape =
          { Paqoc_pulse.Grape.default_config with target_fidelity = fidelity }
      }
    in
    let r =
      match
        Paqoc_pulse.Duration_search.search ~config ~gate h ~target
          ~lower_bound:30.0 ()
      with
      | Ok r -> r
      | Error e ->
        Printf.eprintf "error: %s\n"
          (Paqoc_pulse.Duration_search.error_to_string e);
        exit 1
    in
    Printf.printf "gate %s: latency %.0f dt, fidelity %.5f (%d GRAPE probes, \
                   %d iterations)\n"
      gate r.Paqoc_pulse.Duration_search.latency
      r.Paqoc_pulse.Duration_search.fidelity
      r.Paqoc_pulse.Duration_search.probes
      r.Paqoc_pulse.Duration_search.grape_iterations;
    let p = r.Paqoc_pulse.Duration_search.pulse in
    Printf.printf "pulse: %d slices x %d controls, max amplitude %.4f rad/dt\n"
      (Paqoc_pulse.Pulse.slices p)
      (Paqoc_pulse.Pulse.n_controls p)
      (Paqoc_pulse.Pulse.max_amplitude p);
    (match dump with
    | None -> ()
    | Some file ->
      or_exit (fun () ->
          Paqoc_obs.Atomic_file.write ~what:"pulse --dump" file (fun oc ->
              output_string oc (Paqoc_pulse.Pulse.to_csv h p)));
      Printf.printf "waveform written to %s\n" file);
    if plot then begin
      (* one row of blocks per control channel, amplitude mapped to a
         9-level glyph around zero *)
      let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '@' |] in
      let slices = Paqoc_pulse.Pulse.slices p in
      Array.iteri
        (fun k (c : Paqoc_pulse.Hamiltonian.control) ->
          let b = c.Paqoc_pulse.Hamiltonian.bound in
          let line =
            String.init slices (fun j ->
                let u = p.Paqoc_pulse.Pulse.amplitudes.(j).(k) in
                let level =
                  int_of_float (abs_float u /. b *. 8.0 +. 0.5)
                in
                glyphs.(max 0 (min 8 level)))
          in
          Printf.printf "  %-8s |%s|\n" c.Paqoc_pulse.Hamiltonian.label line)
        h.Paqoc_pulse.Hamiltonian.controls;
      Printf.printf "  %-8s  %s\n" "" (String.make slices '-');
      Printf.printf "  (|amplitude| vs time; full block = channel bound)\n"
    end
  in
  Cmd.v
    (Cmd.info "pulse" ~doc:"Run GRAPE for a single gate and summarise the pulse.")
    Term.(
      const run $ gate $ fidelity $ dump $ plot $ inject_arg $ metrics_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* serve / stop                                                        *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"SOCK"
        ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains serving compile requests (shared by all \
             connections; spawned lazily on the first compile).")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission bound: at most $(docv) compiles queued-or-running; \
             requests beyond that are refused with the typed \
             $(b,overloaded) error instead of growing the queue.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-seconds" ] ~docv:"S"
          ~doc:
            "Default per-request budget for requests that name none; \
             measured from admission, so time spent queueing counts.")
  in
  let idle =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"S"
          ~doc:
            "Drain and exit after $(docv) seconds with no connection and \
             no in-flight work.")
  in
  let run socket jobs queue_cap deadline idle cache_file inject metrics trace =
    if jobs < 1 then begin
      Printf.eprintf "error: --jobs must be >= 1 (got %d)\n" jobs;
      exit 1
    end;
    if queue_cap < 1 then begin
      Printf.eprintf "error: --queue-cap must be >= 1 (got %d)\n" queue_cap;
      exit 1
    end;
    arm_injection inject;
    with_observability ~metrics ~trace @@ fun () ->
    let cache =
      match cache_file with
      | None -> None
      | Some path -> (
        try Some (Paqoc_pulse.Cache.open_file path)
        with Failure msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1)
    in
    let on_close () =
      match (cache, cache_file) with
      | Some c, Some path ->
        (* the drain is done: compact the journal back to its snapshot
           form (atomic tmp + rename) so the next open is warm *)
        (try
           Paqoc_pulse.Cache.close c;
           Printf.printf "pulse cache     : %s (%d entries persisted)\n%!"
             path (Paqoc_pulse.Cache.size c)
         with Failure msg -> Printf.eprintf "error: %s\n" msg)
      | _ -> ()
    in
    let config =
      { Server.socket_path = socket;
        jobs;
        queue_cap;
        default_deadline_s = deadline;
        idle_timeout_s = idle
      }
    in
    let t =
      try
        Server.create ?cache ~on_close
          ~sweep:(Service.sweep_handler ?cache ())
          config
          (Service.handler ?cache ())
      with Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        (match cache with
        | Some c -> ( try Paqoc_pulse.Cache.close c with Failure _ -> ())
        | None -> ());
        exit 1
    in
    Server.install_stop_signals t;
    Printf.printf "paqoc daemon listening on %s (jobs %d, queue cap %d%s)\n%!"
      socket jobs queue_cap
      (match cache_file with
      | Some p -> Printf.sprintf ", cache %s" p
      | None -> ", no cache");
    Server.run t;
    let s = Server.stats t in
    Printf.printf
      "daemon exiting  : served %d, overloaded %d, deadline-exceeded %d, \
       errors %d\n"
      s.Protocol.served s.Protocol.rejected_overload
      s.Protocol.rejected_deadline s.Protocol.errors
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident compile daemon: one shared in-memory pulse \
          cache, bounded concurrent admission, per-request deadlines, \
          graceful drain-and-persist on SIGTERM or shutdown request.")
    Term.(
      const run $ socket_arg $ jobs $ queue_cap $ deadline $ idle $ cache_arg
      $ inject_arg $ metrics_arg $ trace_arg)

let stop_cmd =
  let run socket =
    try
      Server.with_connection socket (fun fd ->
          match Server.rpc fd Protocol.Shutdown with
          | Protocol.Shutdown_ack ->
            Printf.printf "daemon at %s is draining\n" socket
          | _ ->
            Printf.eprintf "error: unexpected daemon response\n";
            exit 1)
    with Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "stop"
       ~doc:
         "Ask a running daemon to drain in-flight work, persist its \
          cache and exit.")
    Term.(const run $ socket_arg)

let () =
  let doc = "PAQOC: program-aware QOC pulse generation" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "paqoc" ~doc)
          [ compile_cmd; compile_suite_cmd; compile_sweep_cmd; export_ir_cmd;
            serve_cmd; stop_cmd; mine_cmd; benchmarks_cmd; pulse_cmd ]))
