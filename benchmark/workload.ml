(* The four untraced workloads and what they share.

   Every workload runs through the product entry points with Obs off —
   [Service.handle] in-process (suite, qoc), a real [paqoc serve] child
   over its socket (daemon), [Service.sweep_handle] (sweep) — and
   checks every output against a reference. A run is: setup (repeated,
   the median is reported), then closed-loop rounds until [seconds]
   have passed and a minimum round count is met, so a fast build does
   more rounds but never fewer than the statistics need. *)

module Protocol = Paqoc_pulse.Protocol
module Server = Paqoc_pulse.Server
module Cache = Paqoc_pulse.Cache
module Service = Paqoc_service.Service
module Suite = Paqoc_benchmarks.Suite
module Latency_table = Paqoc_benchmarks.Latency_table
module Sweep_table = Paqoc_benchmarks.Sweep_table
module Qasm = Paqoc_circuit.Qasm
module Circuit = Paqoc_circuit.Circuit
module V = Paqoc.Variational
module Clock = Paqoc_obs.Clock

type config = {
  root : string;  (** repository checkout the references are read from *)
  work : string;  (** scratch directory for caches, sockets, traces *)
  paqoc : string;  (** the paqoc CLI, for the daemon child *)
  seed : int;
  seconds : float;
  smoke : bool;  (** tiny sizes for the runtest smoke check *)
}

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let new_acc () = { attempted = 0; failed = 0; problems = [] }

let problem acc fmt =
  Printf.ksprintf (fun s -> acc.problems <- s :: acc.problems) fmt

(* one request whose output failed its check (or that failed outright) *)
let request_failed acc fmt =
  acc.failed <- acc.failed + 1;
  problem acc fmt

(* [timed acc f] runs one product request, counting it as attempted *)
let timed acc f =
  acc.attempted <- acc.attempted + 1;
  let t0 = Clock.now_s () in
  match f () with
  | r -> Ok (r, Clock.now_s () -. t0)
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* What a run measures                                                 *)
(* ------------------------------------------------------------------ *)

type measured = {
  setup : float list;  (** seconds per setup *)
  cold : float list;  (** seconds per cold pass *)
  warm : float list;  (** seconds per warm pass *)
  requests : float list;  (** seconds per measured request *)
  loop_requests : int;  (** requests of the closed-loop phase ... *)
  loop_wall : float;  (** ... and its wall time, for throughput *)
  rss_mb : float list;  (** VmHWM of the compiling process(es) *)
  quality : (float * float) list;  (** (latency dt, ESP) per output *)
}

(* The end-to-end metrics: (name, unit, value, samples). Passes report
   the fastest one: contention from other tenants of the host comes and
   goes within a run, so the best pass is what the code costs, while a
   median pass or a request percentile moves with the neighbours (those
   are printed for context, not gated). *)
let end_to_end m =
  let best l = List.fold_left Float.min infinity l in
  let count l = List.length l in
  [ ("setup_s", "s", Stats.median m.setup, count m.setup);
    ("cold_pass_s", "s", best m.cold, count m.cold);
    ("warm_pass_s", "s", best m.warm, count m.warm);
    ("peak_rss_mb", "MiB", Stats.median m.rss_mb, count m.rss_mb);
    ("schedule_latency_dt", "dt", Stats.mean (List.map fst m.quality), count m.quality);
    ("esp_mean", "prob", Stats.mean (List.map snd m.quality), count m.quality)
  ]

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let remove_file path = try Sys.remove path with Sys_error _ -> ()

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* how many times setup is timed; setup_s is their median *)
let setup_samples cfg = if cfg.smoke then 1 else 9

(* Setup is timed in fresh processes: this executable re-run with
   --setup-only, from exec to exit — runtime and library initialisation
   plus the workload's setup — so setup_s is the time a new process
   needs before its first request. *)
let fresh_setups cfg workload =
  List.init (setup_samples cfg) (fun _ ->
      let t0 = Clock.now_s () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--setup-only"; "--workload"; workload;
             "--root"; cfg.root |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      let rec reap () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      in
      match reap () with
      | Unix.WEXITED 0 -> Clock.now_s () -. t0
      | _ -> failwith (workload ^ ": --setup-only failed"))

(* closed-loop rounds: at least [min] of them, and until [seconds] have
   passed since the first started *)
let rounds cfg ~min f =
  let t0 = Clock.now_s () in
  let rec go i =
    if i < min || Clock.now_s () -. t0 < cfg.seconds then begin
      f i;
      go (i + 1)
    end
  in
  go 0;
  Clock.now_s () -. t0

(* every output of one circuit must be the same (latency, ESP) *)
let quality_tracker acc =
  let seen = Hashtbl.create 32 in
  let note name latency esp =
    match Hashtbl.find_opt seen name with
    | None -> Hashtbl.replace seen name (latency, esp)
    | Some (l, e) ->
      if l <> latency || e <> esp then
        request_failed acc "%s: output changed between passes (%.17g/%.17g vs %.17g/%.17g)"
          name latency esp l e
  in
  let values () = Hashtbl.fold (fun _ v l -> v :: l) seen [] in
  (note, values)

let golden_path cfg name = Filename.concat cfg.root ("test/golden/" ^ name)

let latency_golden cfg =
  Latency_table.parse (read_file (golden_path cfg "latency_table.txt"))

let check_golden acc golden name (r : Protocol.compile_result) =
  match
    List.find_opt (fun (row : Latency_table.row) -> row.Latency_table.name = name) golden
  with
  | None -> request_failed acc "%s: no row in latency_table.txt" name
  | Some row ->
    if r.Protocol.latency <> row.Latency_table.latency
       || r.Protocol.episodes <> row.Latency_table.n_groups
    then
      request_failed acc "%s: latency %.17g / %d episodes, golden %.17g / %d" name
        r.Protocol.latency r.Protocol.episodes row.Latency_table.latency
        row.Latency_table.n_groups

let suite_names cfg =
  if cfg.smoke then [ "bb84"; "simon"; "mod5d2_64" ]
  else List.map (fun (e : Suite.entry) -> e.Suite.name) Suite.all

let compile_req circuit = { Protocol.default_compile with Protocol.circuit }

(* every request of [order] once through in-process Service.handle,
   timing each into [requests] and handing each result to [check] *)
let handle_pass acc ~cache requests order check =
  List.iter
    (fun (name, req) ->
      match timed acc (fun () -> Service.handle ~cache ~deadline:None req) with
      | Error e -> request_failed acc "%s: %s" name e
      | Ok (r, dt) ->
        requests := dt :: !requests;
        check name r)
    order

(* ------------------------------------------------------------------ *)
(* suite: Table I through in-process Service.handle, on-disk cache     *)
(* ------------------------------------------------------------------ *)

let suite_setup cfg () =
  let golden = latency_golden cfg in
  let jobs =
    List.map
      (fun name ->
        (* resolve every circuit once, so a bad name fails in setup *)
        ignore ((Suite.find name).Suite.build ());
        (name, compile_req (Protocol.Benchmark name)))
      (suite_names cfg)
  in
  (golden, jobs)

let suite cfg acc =
  let golden, jobs = suite_setup cfg () in
  let setup_times = fresh_setups cfg "suite" in
  let rng = Random.State.make [| cfg.seed; 0x5717e |] in
  let note, quality = quality_tracker acc in
  let cold = ref [] and warm = ref [] and requests = ref [] in
  (* one pass = open the cache file, every circuit once, close it: the
     cold pass publishes, appends and compacts on close; the warm pass
     replays the journal on open and must be all hits *)
  let pass ~warm_pass path order =
    let t0 = Clock.now_s () in
    let cache = Cache.open_file path in
    handle_pass acc ~cache requests order (fun name r ->
        check_golden acc golden name r;
        note name r.Protocol.latency r.Protocol.esp;
        if warm_pass && (r.Protocol.synthesized > 0 || r.Protocol.cache_misses > 0)
        then
          request_failed acc "%s: warm pass synthesized %d (%d misses)" name
            r.Protocol.synthesized r.Protocol.cache_misses);
    (try Cache.close cache with Failure e -> problem acc "cache close: %s" e);
    Clock.now_s () -. t0
  in
  let wall =
    rounds cfg ~min:(if cfg.smoke then 1 else 3) (fun i ->
        let path = Filename.concat cfg.work (Printf.sprintf "suite-%d.db" i) in
        remove_file path;
        cold := pass ~warm_pass:false path (shuffle rng jobs) :: !cold;
        warm := pass ~warm_pass:true path (shuffle rng jobs) :: !warm;
        remove_file path)
  in
  { setup = setup_times;
    cold = !cold;
    warm = !warm;
    requests = !requests;
    loop_requests = List.length !requests;
    loop_wall = wall;
    rss_mb = [ Child.peak_rss_mb () ];
    quality = quality ()
  }

(* ------------------------------------------------------------------ *)
(* qoc: real GRAPE through in-process Service.handle                   *)
(* ------------------------------------------------------------------ *)

let qasm c = Protocol.Qasm (Qasm.to_qasm c)

(* bb84 from Table I plus reduced members of Table I families: every
   request synthesises real GRAPE pulses (one 3-qubit, four 2-qubit,
   the rest 1-qubit), and a cold pass fits a few seconds *)
let qoc_set cfg =
  let module B = Paqoc_benchmarks in
  if cfg.smoke then [ ("bb84", Protocol.Benchmark "bb84") ]
  else
    [ ("bb84", Protocol.Benchmark "bb84");
      ("bv-2q", qasm (B.Bv.circuit ~n_data:1 ()));
      ("qft-2q", qasm (B.Qft.circuit ~n:2 ()));
      ("qpe-2q", qasm (B.Qpe.circuit ~n_count:1 ()));
      ("w-3q", qasm (B.States.w ~n:3 ()))
    ]

let qoc_req circuit = { (compile_req circuit) with Protocol.backend = Protocol.Qoc }

type expected = { e_latency : float; e_esp : float; e_episodes : int }

let expected_path cfg = Filename.concat cfg.root "benchmark/expected/qoc.txt"

let parse_expected s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ name; lat; esp; eps ] -> (
           match
             (float_of_string_opt lat, float_of_string_opt esp, int_of_string_opt eps)
           with
           | Some e_latency, Some e_esp, Some e_episodes ->
             (name, { e_latency; e_esp; e_episodes })
           | _ -> failwith ("bad expected row: " ^ l))
         | _ -> failwith ("bad expected row: " ^ l))

(* latency and episode count are exact; ESP is held to 1e-9 relative so
   a reassociated GRAPE sum passes and a worse pulse does not *)
let check_expected acc expected name (r : Protocol.compile_result) =
  match List.assoc_opt name expected with
  | None -> request_failed acc "%s: no row in benchmark/expected/qoc.txt" name
  | Some e ->
    if r.Protocol.latency <> e.e_latency
       || r.Protocol.episodes <> e.e_episodes
       || Float.abs (r.Protocol.esp -. e.e_esp) > 1e-9 *. Float.abs e.e_esp
    then
      request_failed acc "%s: latency %.17g esp %.17g episodes %d, expected %.17g %.17g %d"
        name r.Protocol.latency r.Protocol.esp r.Protocol.episodes e.e_latency
        e.e_esp e.e_episodes

let qoc_setup cfg () =
  let expected = parse_expected (read_file (expected_path cfg)) in
  (expected, List.map (fun (name, c) -> (name, qoc_req c)) (qoc_set cfg))

let qoc cfg acc =
  let expected, jobs = qoc_setup cfg () in
  let setup_times = fresh_setups cfg "qoc" in
  let rng = Random.State.make [| cfg.seed; 0x90c |] in
  let note, quality = quality_tracker acc in
  let cold = ref [] and warm = ref [] and requests = ref [] in
  let pass ~warm_pass cache order =
    let t0 = Clock.now_s () in
    handle_pass acc ~cache requests order (fun name r ->
        check_expected acc expected name r;
        note name r.Protocol.latency r.Protocol.esp;
        if warm_pass && r.Protocol.synthesized > 0 then
          request_failed acc "%s: warm pass synthesized %d" name
            r.Protocol.synthesized);
    Clock.now_s () -. t0
  in
  let wall =
    rounds cfg ~min:(if cfg.smoke then 1 else 7) (fun _ ->
        let cache = Cache.create () in
        cold := pass ~warm_pass:false cache (shuffle rng jobs) :: !cold;
        (* a warm pass takes milliseconds, so five per cold pass cost
           nothing and give the fastest-pass statistic more draws *)
        for _ = 1 to 5 do
          warm := pass ~warm_pass:true cache (shuffle rng jobs) :: !warm
        done)
  in
  { setup = setup_times;
    cold = !cold;
    warm = !warm;
    requests = !requests;
    loop_requests = List.length !requests;
    loop_wall = wall;
    rss_mb = [ Child.peak_rss_mb () ];
    quality = quality ()
  }

(* the rows of benchmark/expected/qoc.txt, computed afresh *)
let print_expected cfg =
  print_string
    "# paqoc-bench qoc expected v1\n\
     # name latency_dt esp episodes (paqoc-m0, 5x5 grid, qoc backend, jobs 1, \
     fresh cache)\n\
     # regenerate with: dune exec benchmark/paqoc_bench.exe -- --print-expected\n";
  List.iter
    (fun (name, c) ->
      let r = Service.handle ~cache:(Cache.create ()) ~deadline:None (qoc_req c) in
      Printf.printf "%s %.17g %.17g %d\n" name r.Protocol.latency r.Protocol.esp
        r.Protocol.episodes)
    (qoc_set cfg @ [ ("simon", Protocol.Benchmark "simon") ])

(* ------------------------------------------------------------------ *)
(* daemon: a real paqoc serve child, two closed-loop clients           *)
(* ------------------------------------------------------------------ *)

let rpc_compile fd req =
  match Server.rpc fd (Protocol.Compile req) with
  | Protocol.Result r -> r
  | Protocol.Refused e -> failwith ("refused: " ^ Protocol.error_name e)
  | _ -> failwith "unexpected daemon response"

(* one client connection sending its passes back to back; returns per
   pass its wall and per request (name, drift, outcome, seconds) *)
let client socket passes =
  Server.with_connection socket (fun fd ->
      List.map
        (fun pass ->
          let t0 = Clock.now_s () in
          let answers =
            List.map
              (fun (name, drift, req) ->
                let r0 = Clock.now_s () in
                let r =
                  match rpc_compile fd req with
                  | r -> Ok r
                  | exception e -> Error (Printexc.to_string e)
                in
                (name, drift, r, Clock.now_s () -. r0))
              pass
          in
          (Clock.now_s () -. t0, answers))
        passes)

let daemon cfg acc =
  let golden = latency_golden cfg in
  let names = suite_names cfg in
  (* client 0 carries every drift request (4 of its 17, so 1 in 8.5
     overall); the other sends warm hits only, which add no misses to
     the shared cache's counters that a drift request's
     [cache_misses] delta could pick up *)
  let n_clients, passes_per_client, drifts_per_pass =
    if cfg.smoke then (1, 1, 1) else (2, 1, 4)
  in
  let rng = Random.State.make [| cfg.seed; 0xd43 |] in
  let drift_seed = abs cfg.seed mod 1_000_000 in
  let epoch = ref 0 in
  (* a seeded permutation with [drifts] requests moved onto a fresh
     drift epoch: fresh device hash, so every lookup misses *)
  let make_pass drifts =
    let order = shuffle rng names in
    let drift_at =
      List.filteri (fun i _ -> i < drifts)
        (shuffle rng (List.init (List.length order) Fun.id))
    in
    List.mapi
      (fun i name ->
        let req = compile_req (Protocol.Benchmark name) in
        if List.mem i drift_at then begin
          incr epoch;
          (name, true, { req with Protocol.drift_seed; drift_epoch = !epoch })
        end
        else (name, false, req))
      order
  in
  let note, quality = quality_tracker acc in
  let check (name, drift, outcome, dt) requests =
    acc.attempted <- acc.attempted + 1;
    requests := dt :: !requests;
    match outcome with
    | Error e -> request_failed acc "%s: %s" name e
    | Ok (r : Protocol.compile_result) ->
      if drift then begin
        (* no stale replay across a recalibration: every miss is
           synthesized afresh *)
        if r.Protocol.synthesized <> r.Protocol.cache_misses || r.Protocol.cache_misses = 0
        then
          request_failed acc "%s (drift): synthesized %d but %d misses" name
            r.Protocol.synthesized r.Protocol.cache_misses
      end
      else begin
        check_golden acc golden name r;
        note name r.Protocol.latency r.Protocol.esp
      end
  in
  let setup = ref [] and cold = ref [] and warm = ref [] in
  let requests = ref [] and loop_requests = ref 0 and loop_wall = ref 0.0 in
  let rss = ref [] in
  let round i =
    let socket = Filename.concat cfg.work (Printf.sprintf "d%d.sock" i) in
    let cache_file = Filename.concat cfg.work (Printf.sprintf "d%d.db" i) in
    let t0 = Clock.now_s () in
    let child = Child.spawn ~paqoc:cfg.paqoc ~socket ~cache_file ~jobs:2 in
    Fun.protect ~finally:(fun () -> if not child.Child.reaped then ignore (Child.reap child))
    @@ fun () ->
    Server.with_connection socket (fun fd ->
        (match Server.rpc fd Protocol.Ping with
        | Protocol.Pong -> ()
        | _ -> failwith "daemon did not answer ping");
        setup := (Clock.now_s () -. t0) :: !setup;
        (* priming cold pass: every circuit once, one connection *)
        let p0 = Clock.now_s () in
        List.iter
          (fun name ->
            let r0 = Clock.now_s () in
            let r =
              match rpc_compile fd (compile_req (Protocol.Benchmark name)) with
              | r -> Ok r
              | exception e -> Error (Printexc.to_string e)
            in
            check (name, false, r, Clock.now_s () -. r0) requests)
          (shuffle rng names);
        cold := (Clock.now_s () -. p0) :: !cold);
    (* the closed loop: each client sends its passes back to back *)
    let plans =
      List.init n_clients (fun c ->
          List.init passes_per_client (fun _ ->
              make_pass (if c = 0 then drifts_per_pass else 0)))
    in
    let l0 = Clock.now_s () in
    let results =
      match plans with
      | [ only ] -> [ client socket only ]
      | first :: rest ->
        let others =
          List.map
            (fun plan ->
              let slot = ref (Error "client thread did not finish") in
              let th =
                Thread.create
                  (fun () ->
                    slot :=
                      match client socket plan with
                      | r -> Ok r
                      | exception e -> Error (Printexc.to_string e))
                  ()
              in
              (th, slot))
            rest
        in
        let mine = client socket first in
        mine
        :: List.map
             (fun (th, slot) ->
               Thread.join th;
               match !slot with Ok r -> r | Error e -> failwith ("client: " ^ e))
             others
      | [] -> []
    in
    loop_wall := !loop_wall +. (Clock.now_s () -. l0);
    List.iter
      (List.iter (fun (pass_s, answers) ->
           warm := pass_s :: !warm;
           loop_requests := !loop_requests + List.length answers;
           List.iter (fun a -> check a requests) answers))
      results;
    let expected_served = List.length names * (1 + (n_clients * passes_per_client)) in
    (match Server.with_connection socket (fun fd -> Server.rpc fd Protocol.Stats) with
    | Protocol.Stats_reply s ->
      if s.Protocol.served <> expected_served || s.Protocol.errors > 0
         || s.Protocol.rejected_overload > 0 || s.Protocol.rejected_deadline > 0
      then
        problem acc "daemon stats: served %d of %d, %d errors, %d overloaded, %d deadline"
          s.Protocol.served expected_served s.Protocol.errors
          s.Protocol.rejected_overload s.Protocol.rejected_deadline
    | _ -> problem acc "daemon stats: unexpected response");
    rss := Child.peak_rss_mb ~pid:child.Child.pid () :: !rss;
    match Child.stop child with
    | Ok () -> ()
    | Error e -> problem acc "daemon round %d: %s" i e
  in
  let min_rounds = if cfg.smoke then 1 else 5 in
  (* setup samples beyond the rounds' own: spawn to first pong, stop *)
  for i = 1 to setup_samples cfg - min_rounds do
    let socket = Filename.concat cfg.work (Printf.sprintf "s%d.sock" i) in
    let cache_file = Filename.concat cfg.work (Printf.sprintf "s%d.db" i) in
    let t0 = Clock.now_s () in
    let child = Child.spawn ~paqoc:cfg.paqoc ~socket ~cache_file ~jobs:2 in
    Fun.protect ~finally:(fun () -> if not child.Child.reaped then ignore (Child.reap child))
    @@ fun () ->
    (match Server.with_connection socket (fun fd -> Server.rpc fd Protocol.Ping) with
    | Protocol.Pong -> setup := (Clock.now_s () -. t0) :: !setup
    | _ -> failwith "daemon did not answer ping");
    match Child.stop child with
    | Ok () -> ()
    | Error e -> problem acc "daemon setup %d: %s" i e
  done;
  ignore (rounds cfg ~min:min_rounds round);
  { setup = !setup;
    cold = !cold;
    warm = !warm;
    requests = !requests;
    loop_requests = !loop_requests;
    loop_wall = !loop_wall;
    rss_mb = !rss;
    quality = quality ()
  }

(* ------------------------------------------------------------------ *)
(* sweep: one binding per Service.sweep_handle request                 *)
(* ------------------------------------------------------------------ *)

let sweep_req angles = { Protocol.default_recompile with Protocol.rc_angles = [ angles ] }

(* [in_fork f] runs [f] in a forked child and returns its string result:
   the sweep's plan registry is process-wide, so a fresh-plan sample
   needs a fresh process *)
let in_fork f =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let msg = try f () with e -> "error " ^ Printexc.to_string e in
    let oc = Unix.out_channel_of_descr w in
    output_string oc msg;
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let msg = In_channel.input_all ic in
    close_in ic;
    let rec reap () =
      try ignore (Unix.waitpid [] pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    in
    reap ();
    msg

let sweep_setup cfg () =
  let golden = Sweep_table.parse (read_file (golden_path cfg "sweep_table.txt")) in
  let params =
    List.sort compare
      (Circuit.free_params ((Suite.sweep_find "qaoa").Suite.sweep_build ()))
  in
  (golden, params)

let sweep cfg acc =
  let golden, params = sweep_setup cfg () in
  let setup_times = fresh_setups cfg "sweep" in
  (* sweep_table.txt is the seed-11 sweep (its header says so) *)
  let prefix = V.sweep_angles ~seed:11 ~n:(List.length golden) params in
  let check_iteration acc what expect (s : Protocol.sweep_result) =
    match s.Protocol.iterations with
    | [ it ] -> expect it
    | its -> request_failed acc "%s: %d iterations for one binding" what (List.length its)
  in
  (* the cold pass: a fresh plan (the first request freezes it), then
     the seed-11 golden prefix one binding per request, each row held
     to test/golden/sweep_table.txt *)
  let cold_pass acc requests =
    let t0 = Clock.now_s () in
    List.iter2
      (fun (row : Sweep_table.row) angles ->
        match timed acc (fun () -> Service.sweep_handle ~deadline:None (sweep_req angles)) with
        | Error e -> request_failed acc "golden iteration %d: %s" row.Sweep_table.iter e
        | Ok (s, dt) ->
          requests := dt :: !requests;
          if s.Protocol.sweep_params <> params then
            request_failed acc "plan parameters %s" (String.concat "," s.Protocol.sweep_params);
          check_iteration acc "golden" (fun it ->
              if it.Protocol.it_latency <> row.Sweep_table.latency
                 || it.Protocol.it_esp <> row.Sweep_table.esp
                 || it.Protocol.it_interp <> row.Sweep_table.interp
                 || it.Protocol.it_fallback <> row.Sweep_table.fallback
                 || it.Protocol.it_resynth <> row.Sweep_table.resynth
              then
                request_failed acc "golden iteration %d: %.17g %.17g, golden %.17g %.17g"
                  row.Sweep_table.iter it.Protocol.it_latency it.Protocol.it_esp
                  row.Sweep_table.latency row.Sweep_table.esp)
            s)
      golden prefix;
    Clock.now_s () -. t0
  in
  let forked = if cfg.smoke then 1 else 4 in
  let cold =
    List.init forked (fun _ ->
        let msg =
          in_fork (fun () ->
              let a = new_acc () in
              let dt = cold_pass a (ref []) in
              Printf.sprintf "%h %d %d\n%s" dt a.attempted a.failed
                (String.concat "; " (List.rev a.problems)))
        in
        let head, problems =
          match String.index_opt msg '\n' with
          | Some i -> (String.sub msg 0 i, String.sub msg (i + 1) (String.length msg - i - 1))
          | None -> (msg, "")
        in
        match Scanf.sscanf head "%h %d %d%!" (fun dt n f -> (dt, n, f)) with
        | dt, n, f ->
          acc.attempted <- acc.attempted + n;
          acc.failed <- acc.failed + f;
          if problems <> "" then problem acc "forked cold pass: %s" problems;
          dt
        | exception _ ->
          problem acc "forked cold pass: %s" msg;
          nan)
    |> List.filter (fun x -> not (Float.is_nan x))
  in
  let requests = ref [] in
  let cold = cold_pass acc requests :: cold in
  let quality =
    List.map (fun (row : Sweep_table.row) -> (row.Sweep_table.latency, row.Sweep_table.esp)) golden
  in
  (* the warm loop on the resident plan: seeded angles, one binding per
     request, grouped into passes of the golden prefix's length *)
  let first = ref None and warm = ref [] in
  let warm_request angles =
    match timed acc (fun () -> Service.sweep_handle ~deadline:None (sweep_req angles)) with
    | Error e -> request_failed acc "sweep iteration: %s" e; None
    | Ok (s, dt) ->
      requests := dt :: !requests;
      check_iteration acc "sweep iteration" (fun it ->
          if it.Protocol.it_interp + it.Protocol.it_fallback <> s.Protocol.param_slots
             || it.Protocol.it_resynth <> s.Protocol.multi_slots
             || not (it.Protocol.it_latency > 0.0 && Float.is_finite it.Protocol.it_latency)
             || not (it.Protocol.it_esp > 0.0 && it.Protocol.it_esp <= 1.0)
          then request_failed acc "sweep iteration: implausible row")
        s;
      Some s
  in
  let block = List.length prefix in
  let wall =
    rounds cfg ~min:(if cfg.smoke then 1 else 10) (fun b ->
        let angles =
          V.sweep_angles ~seed:((cfg.seed * 100_003) + b) ~n:block params
        in
        let t0 = Clock.now_s () in
        List.iter
          (fun a ->
            let s = warm_request a in
            if !first = None then first := Option.map (fun s -> (a, s)) s)
          angles;
        warm := (Clock.now_s () -. t0) :: !warm)
  in
  (* the same binding must be served the same way at the end *)
  (match !first with
  | Some (a, s) -> (
    match warm_request a with
    | Some s' when s'.Protocol.iterations = s.Protocol.iterations -> ()
    | Some _ -> request_failed acc "sweep: a repeated binding changed its result"
    | None -> ())
  | None -> ());
  { setup = setup_times;
    cold;
    warm = !warm;
    requests = !requests;
    loop_requests = block * List.length !warm;
    loop_wall = wall;
    rss_mb = [ Child.peak_rss_mb () ];
    quality
  }

let names = [ "suite"; "daemon"; "qoc"; "sweep" ]

(* what --setup-only runs (see [fresh_setups]) *)
let setup_only cfg = function
  | "suite" -> ignore (suite_setup cfg ())
  | "qoc" -> ignore (qoc_setup cfg ())
  | "sweep" -> ignore (sweep_setup cfg ())
  | w -> invalid_arg ("no fresh-process setup for " ^ w)

let run cfg acc = function
  | "suite" -> suite cfg acc
  | "daemon" -> daemon cfg acc
  | "qoc" -> qoc cfg acc
  | "sweep" -> sweep cfg acc
  | w -> invalid_arg ("unknown workload " ^ w)
