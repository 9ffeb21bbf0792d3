(* The compile daemon: protocol codec round-trips, frame hardening, lazy
   pool spawning, concurrent multi-client serving, typed deadline and
   overload refusals, shutdown-persists-cache, interrupt cleanup, and
   client-vs-in-process byte identity. *)
open Test_util
module Protocol = Paqoc_pulse.Protocol
module Server = Paqoc_pulse.Server
module Pool = Paqoc_pulse.Pool
module Cache = Paqoc_pulse.Cache
module Db = Paqoc_pulse.Db_format
module Faultin = Paqoc_pulse.Faultin
module Service = Paqoc_service.Service
module Suite = Paqoc_benchmarks.Suite
module Obs = Paqoc_obs.Obs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tmp_name suffix =
  let path = Filename.temp_file "paqoc_srv" suffix in
  Sys.remove path;
  path

(* Run a daemon around [f]: server on its own thread, [f] gets the socket
   path, shutdown + join always happen. *)
let with_server ?cache ?on_close ?sweep ?(config_of = fun c -> c) handler f
    =
  let socket_path = tmp_name ".sock" in
  let config = config_of (Server.default_config ~socket_path) in
  let t = Server.create ?cache ?on_close ?sweep config handler in
  let thread = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop t;
      Thread.join thread;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () -> f socket_path t)

let null_result =
  { Protocol.latency = 0.0;
    esp = 0.0;
    compile_seconds = 0.0;
    episodes = 0;
    fallbacks = 0;
    synthesized = 0;
    cache_hits = 0;
    cache_misses = 0;
    logical_qubits = 0;
    device_qubits = 0;
    physical_gates = 0;
    swaps_added = 0
  }

let echo_handler ~deadline:_ (req : Protocol.compile_request) =
  { null_result with Protocol.episodes = req.Protocol.jobs }

let rpc_result fd req =
  match Server.rpc fd (Protocol.Compile req) with
  | Protocol.Result r -> r
  | Protocol.Refused e ->
    Alcotest.failf "daemon refused: %s" (Protocol.error_name e)
  | _ -> Alcotest.fail "unexpected daemon response"

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let sample_requests =
  [ Protocol.Ping;
    Protocol.Stats;
    Protocol.Shutdown;
    Protocol.Compile Protocol.default_compile;
    Protocol.Compile
      { Protocol.circuit = Protocol.Qasm "OPENQASM 2.0;\nqreg q[1];\n";
        scheme = Protocol.Acc5;
        backend = Protocol.Qoc;
        rows = 2;
        cols = 7;
        max_n = 4;
        top_k = 2;
        jobs = 3;
        canonical = true;
        device = Some "heavy-hex";
        drift_seed = 42;
        drift_epoch = 3;
        deadline_s = Some 1.5
      };
    Protocol.Recompile Protocol.default_recompile;
    Protocol.Recompile
      { Protocol.rc_circuit = Protocol.Qasm "OPENQASM 2.0;\nqreg q[2];\n";
        rc_backend = Protocol.Qoc;
        rc_rows = 3;
        rc_cols = 4;
        rc_jobs = 2;
        rc_anchors = 7;
        rc_interp_tol = 1e-4;
        rc_angles =
          [ [ ("gamma0", 0.25); ("beta0", -1.5) ]; []; [ ("gamma0", 3.0) ] ];
        rc_device = Some "ring";
        rc_drift_seed = 9;
        rc_drift_epoch = 2;
        rc_deadline_s = Some 2.5
      } ]

let sample_responses =
  [ Protocol.Pong;
    Protocol.Shutdown_ack;
    Protocol.Result
      { Protocol.latency = 3339.0;
        esp = 0.7789;
        compile_seconds = 12.25;
        episodes = 23;
        fallbacks = 1;
        synthesized = 13;
        cache_hits = 7;
        cache_misses = 6;
        logical_qubits = 21;
        device_qubits = 25;
        physical_gates = 210;
        swaps_added = 22
      };
    Protocol.Stats_reply
      { Protocol.served = 5;
        rejected_overload = 1;
        rejected_deadline = 2;
        errors = 3;
        inflight = 4;
        cache_entries = 1105;
        srv_cache_hits = 204;
        srv_cache_misses = 1105;
        uptime_s = 1.0
      };
    Protocol.Refused Protocol.Overloaded;
    Protocol.Refused Protocol.Deadline_exceeded;
    Protocol.Refused Protocol.Shutting_down;
    Protocol.Refused (Protocol.Bad_request "bad \"quoted\" \n field");
    Protocol.Refused (Protocol.Internal "boom");
    Protocol.Sweep
      { Protocol.sweep_params = [ "beta0"; "gamma0" ];
        static_slots = 21;
        param_slots = 29;
        multi_slots = 17;
        anchor_values = [ 0.0; 1.5707963267948966; 3.141592653589793 ];
        iterations =
          [ { Protocol.it_latency = 3339.0;
              it_esp = 0.7789;
              it_interp = 29;
              it_fallback = 0;
              it_resynth = 17
            };
            { Protocol.it_latency = 3412.5;
              it_esp = 0.75;
              it_interp = 27;
              it_fallback = 2;
              it_resynth = 17
            } ]
      };
    Protocol.Sweep
      { Protocol.sweep_params = [];
        static_slots = 4;
        param_slots = 0;
        multi_slots = 0;
        anchor_values = [];
        iterations = []
      } ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' -> check_true "request round-trips" (req = req')
      | Error msg -> Alcotest.failf "request decode failed: %s" msg)
    sample_requests;
  (* a parent-era client still sends the retired "search" field; the
     decoder ignores it, so the frame means the same request as without *)
  let frame search =
    Printf.sprintf
      "{\"op\":\"compile\",\"circuit\":{\"benchmark\":\"bv\"},\
       \"scheme\":\"paqoc-m0\",%s\"backend\":\"model\",\"rows\":5,\
       \"cols\":5,\"max_qubits\":3,\"top_k\":1,\"jobs\":1}"
      search
  in
  List.iter
    (fun s ->
      match
        Result.bind (Protocol.json_of_string s) Protocol.request_of_json
      with
      | Ok req ->
        check_true "parent-era frame decodes to the default request"
          (req = Protocol.Compile Protocol.default_compile)
      | Error msg -> Alcotest.failf "parent-era frame rejected: %s" msg)
    [ frame "\"search\":\"reference\","; frame "" ]

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let s = Protocol.json_to_string (Protocol.response_to_json resp) in
      match Protocol.json_of_string s with
      | Error msg -> Alcotest.failf "reparse failed: %s" msg
      | Ok j -> (
        match Protocol.response_of_json j with
        | Ok resp' -> check_true "response round-trips" (resp = resp')
        | Error msg -> Alcotest.failf "response decode failed: %s" msg))
    sample_responses

let test_json_malformed () =
  List.iter
    (fun s ->
      match Protocol.json_of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "nul";
      "{\"a\":1,}"; "\"bad \\x escape\"" ]

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      Unix.close b)
    (fun () ->
      Protocol.write_frame a "hello";
      Protocol.write_frame a "";
      Alcotest.(check (option string))
        "frame 1" (Some "hello") (Protocol.read_frame b);
      Alcotest.(check (option string))
        "frame 2 (empty payload)" (Some "") (Protocol.read_frame b);
      Unix.close a;
      Alcotest.(check (option string))
        "clean EOF at boundary" None (Protocol.read_frame b))

let test_frame_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close b)
    (fun () ->
      (* header promises 100 bytes, peer hangs up after 3 *)
      let header = Bytes.of_string "\x00\x00\x00\x64" in
      ignore (Unix.write a header 0 4);
      ignore (Unix.write_substring a "abc" 0 3);
      Unix.close a;
      match Protocol.read_frame b with
      | exception Protocol.Frame_error _ -> ()
      | _ -> Alcotest.fail "truncated frame was not rejected")

let test_frame_oversized () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      (* header claims ~4 GiB; must be rejected from the header alone *)
      let header = Bytes.of_string "\xff\xff\xff\xff" in
      ignore (Unix.write a header 0 4);
      match Protocol.read_frame b with
      | exception Protocol.Frame_error _ -> ()
      | _ -> Alcotest.fail "oversized frame was not rejected")

(* ------------------------------------------------------------------ *)
(* Lazy pool spawning (the warm-suite regression fix)                  *)
(* ------------------------------------------------------------------ *)

let test_pool_lazy_spawn () =
  let pool = Pool.create ~jobs:4 () in
  check_int "no workers before first submit" 0 (Pool.live_workers pool);
  let fut = Pool.submit pool (fun () -> 6 * 7) in
  check_int "task result" 42 (Pool.await fut);
  check_int "workers spawned on first submit" 4 (Pool.live_workers pool);
  Pool.shutdown pool

let test_pool_no_spawn_on_idle_shutdown () =
  let pool = Pool.create ~jobs:4 () in
  Pool.shutdown pool;
  check_int "idle pool never spawned" 0 (Pool.live_workers pool)

let test_pool_inline_never_spawns () =
  let pool = Pool.create ~jobs:1 () in
  check_int "inline result" 7 (Pool.await (Pool.submit pool (fun () -> 7)));
  check_int "jobs=1 stays inline" 0 (Pool.live_workers pool);
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Server behaviour                                                    *)
(* ------------------------------------------------------------------ *)

let test_ping_and_stats () =
  with_server echo_handler @@ fun socket _t ->
  Server.with_connection socket @@ fun fd ->
  (match Server.rpc fd Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "expected pong");
  match Server.rpc fd Protocol.Stats with
  | Protocol.Stats_reply s ->
    check_int "nothing served yet" 0 s.Protocol.served;
    check_int "nothing in flight" 0 s.Protocol.inflight
  | _ -> Alcotest.fail "expected stats"

let test_concurrent_clients () =
  let n_clients = 8 and per_client = 5 in
  let slot_handler ~deadline:_ (req : Protocol.compile_request) =
    (* tiny but real work so requests genuinely overlap *)
    Thread.yield ();
    { null_result with Protocol.episodes = req.Protocol.top_k }
  in
  with_server
    ~config_of:(fun c -> { c with Server.jobs = 2 })
    slot_handler
  @@ fun socket t ->
  let failures = Atomic.make 0 in
  let client k () =
    Server.with_connection socket @@ fun fd ->
    for i = 1 to per_client do
      let req =
        { Protocol.default_compile with Protocol.top_k = (k * 100) + i }
      in
      match Server.rpc fd (Protocol.Compile req) with
      | Protocol.Result r when r.Protocol.episodes = (k * 100) + i -> ()
      | _ -> Atomic.incr failures
    done
  in
  let threads = List.init n_clients (fun k -> Thread.create (client k) ()) in
  List.iter Thread.join threads;
  check_int "every request answered with its own result" 0
    (Atomic.get failures);
  let s = Server.stats t in
  check_int "all requests served" (n_clients * per_client) s.Protocol.served;
  check_int "no refusals under cap" 0 s.Protocol.rejected_overload

let test_deadline_refusal () =
  (* a zero-second budget is spent by the time the task starts (the
     server's expiry check is [>=] on a monotonic clock) — deterministic,
     no sleeps *)
  let ran = Atomic.make false in
  let handler ~deadline:_ _req =
    Atomic.set ran true;
    null_result
  in
  with_server handler @@ fun socket t ->
  (Server.with_connection socket @@ fun fd ->
   let req =
     { Protocol.default_compile with Protocol.deadline_s = Some 0.0 }
   in
   match Server.rpc fd (Protocol.Compile req) with
   | Protocol.Refused Protocol.Deadline_exceeded -> ()
   | _ -> Alcotest.fail "expected deadline_exceeded");
  check_true "handler never ran" (not (Atomic.get ran));
  check_int "counted as deadline refusal" 1
    (Server.stats t).Protocol.rejected_deadline

let test_deadline_mid_compile () =
  (* a handler that hits its budget mid-pipeline raises the typed
     exception; the server maps it to the wire error *)
  let handler ~deadline:_ _req = raise Protocol.Deadline_exceeded in
  with_server handler @@ fun socket t ->
  (Server.with_connection socket @@ fun fd ->
   match Server.rpc fd (Protocol.Compile Protocol.default_compile) with
   | Protocol.Refused Protocol.Deadline_exceeded -> ()
   | _ -> Alcotest.fail "expected deadline_exceeded");
  check_int "not an internal error" 0 (Server.stats t).Protocol.errors

let test_malformed_payload_keeps_connection () =
  with_server echo_handler @@ fun socket _t ->
  Server.with_connection socket @@ fun fd ->
  Protocol.write_frame fd "this is not json";
  (match Protocol.read_response fd with
  | Ok (Protocol.Refused (Protocol.Bad_request _)) -> ()
  | _ -> Alcotest.fail "expected bad_request for garbage payload");
  Protocol.write_frame fd "{\"op\":\"launch-missiles\"}";
  (match Protocol.read_response fd with
  | Ok (Protocol.Refused (Protocol.Bad_request _)) -> ()
  | _ -> Alcotest.fail "expected bad_request for unknown op");
  Protocol.write_frame fd "{\"op\":\"compile\",\"deadline_s\":-1}";
  (match Protocol.read_response fd with
  | Ok (Protocol.Refused (Protocol.Bad_request _)) -> ()
  | _ -> Alcotest.fail "expected bad_request for a negative deadline");
  (* the same connection still works *)
  match Server.rpc fd Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "connection should survive bad payloads"

let test_torn_frame_keeps_daemon () =
  with_server echo_handler @@ fun socket _t ->
  (* connection 1 sends a frame header claiming 4 GiB: connection dies,
     daemon must not *)
  (Server.with_connection socket @@ fun fd ->
   ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4));
  (* daemon still answers fresh connections *)
  Server.with_connection socket @@ fun fd ->
  match Server.rpc fd Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "daemon should survive a torn frame"

let test_overload_refusal () =
  (* jobs=1 executes the handler inline on the connection thread, so a
     blocked client A provably occupies the single admission slot while
     client B is refused — no timing races *)
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let entered = ref false and release = ref false in
  let blocking_handler ~deadline:_ _req =
    Mutex.lock gate;
    entered := true;
    Condition.broadcast cond;
    while not !release do
      Condition.wait cond gate
    done;
    Mutex.unlock gate;
    null_result
  in
  with_server
    ~config_of:(fun c -> { c with Server.queue_cap = 1 })
    blocking_handler
  @@ fun socket t ->
  let result_a = ref None in
  let client_a =
    Thread.create
      (fun () ->
        Server.with_connection socket @@ fun fd ->
        result_a :=
          Some (Server.rpc fd (Protocol.Compile Protocol.default_compile)))
      ()
  in
  (* wait until A is inside the handler (slot taken) *)
  Mutex.lock gate;
  while not !entered do
    Condition.wait cond gate
  done;
  Mutex.unlock gate;
  (Server.with_connection socket @@ fun fd ->
   match Server.rpc fd (Protocol.Compile Protocol.default_compile) with
   | Protocol.Refused Protocol.Overloaded -> ()
   | _ -> Alcotest.fail "expected overloaded at queue cap");
  (* release A; it must complete normally *)
  Mutex.lock gate;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock gate;
  Thread.join client_a;
  (match !result_a with
  | Some (Protocol.Result _) -> ()
  | _ -> Alcotest.fail "client A should have completed after release");
  let s = Server.stats t in
  check_int "one served" 1 s.Protocol.served;
  check_int "one overload refusal" 1 s.Protocol.rejected_overload

let test_shutdown_request_drains () =
  with_server echo_handler @@ fun socket t ->
  (Server.with_connection socket @@ fun fd ->
   match Server.rpc fd Protocol.Shutdown with
   | Protocol.Shutdown_ack -> ()
   | _ -> Alcotest.fail "expected shutdown ack");
  (* the run loop notices within one select tick *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Server.stopping t)) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  check_true "stop flag set by shutdown request" (Server.stopping t)

let test_compiles_refused_while_draining () =
  with_server echo_handler @@ fun socket t ->
  Server.request_stop t;
  Server.with_connection socket @@ fun fd ->
  match
    Protocol.write_request fd (Protocol.Compile Protocol.default_compile);
    Protocol.read_response fd
  with
  | Ok (Protocol.Refused Protocol.Shutting_down) -> ()
  (* the daemon may already have stopped reading: a closed or reset
     connection, on the write or the read, is also a correct refusal *)
  | exception Protocol.Frame_error _ -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  | _ -> Alcotest.fail "expected shutting_down or a closed connection"

(* ------------------------------------------------------------------ *)
(* Cache persistence through shutdown and interrupts                   *)
(* ------------------------------------------------------------------ *)

let entry lat =
  { Cache.latency = lat;
    error = 0.001;
    fidelity = 0.999;
    provenance = Db.Synthesized
  }

let test_shutdown_persists_cache () =
  let path = tmp_name ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cache = Cache.open_file path in
      let handler ~deadline:_ (req : Protocol.compile_request) =
        Cache.publish cache
          (Printf.sprintf "gate-%d" req.Protocol.top_k)
          (entry (float_of_int req.Protocol.top_k));
        { null_result with Protocol.synthesized = 1 }
      in
      with_server ~cache
        ~on_close:(fun () -> Cache.close cache)
        handler
        (fun socket _t ->
          Server.with_connection socket @@ fun fd ->
          for k = 1 to 20 do
            match
              Server.rpc fd
                (Protocol.Compile
                   { Protocol.default_compile with Protocol.top_k = k })
            with
            | Protocol.Result _ -> ()
            | _ -> Alcotest.fail "compile failed"
          done);
      (* with_server's finally has drained and closed: the file must be a
         compacted snapshot (no journal tail) holding all 20 entries *)
      let bytes = read_file path in
      check_true "no journal tail after drain"
        (not
           (String.split_on_char '\n' bytes
           |> List.exists (fun l -> String.length l > 0 && l.[0] = '+')));
      let reopened = Cache.open_file path in
      check_int "all entries persisted" 20 (Cache.size reopened);
      check_true "spot check"
        (match Cache.find reopened "gate-17" with
        | Some e -> e.Cache.latency = 17.0
        | None -> false);
      Cache.close reopened)

let test_cleanup_compacts_on_interrupt () =
  let path = tmp_name ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cache = Cache.open_file path in
      for k = 1 to 12 do
        Cache.publish cache (Printf.sprintf "g%d" k) (entry (float_of_int k))
      done;
      check_true "journal has a pending tail before cleanup"
        (String.split_on_char '\n' (read_file path)
        |> List.exists (fun l -> String.length l > 0 && l.[0] = '+'));
      Server.Cleanup.register_cache cache;
      (* what the SIGINT/SIGTERM handler runs before exiting *)
      Server.Cleanup.run_cleanup ();
      Server.Cleanup.unregister_cache cache;
      check_true "journal compacted by cleanup"
        (not
           (String.split_on_char '\n' (read_file path)
           |> List.exists (fun l -> String.length l > 0 && l.[0] = '+')));
      let reopened = Cache.open_file path in
      check_int "nothing lost" 12 (Cache.size reopened);
      Cache.close reopened)

let test_cleanup_survives_failing_compaction () =
  let path = tmp_name ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cache = Cache.open_file path in
      for k = 1 to 7 do
        Cache.publish cache (Printf.sprintf "g%d" k) (entry (float_of_int k))
      done;
      Server.Cleanup.register_cache cache;
      (* the compaction inside close fails (injected): cleanup must
         swallow it, and the journal file must still replay fully —
         compaction is atomic, failure leaves the valid journal behind *)
      Faultin.with_faults
        [ (Faultin.Db_save_error, Faultin.Always) ]
        Server.Cleanup.run_cleanup;
      Server.Cleanup.unregister_cache cache;
      let reopened = Cache.open_file path in
      check_int "no torn file: every record replayed" 7 (Cache.size reopened);
      Cache.close reopened)

(* ------------------------------------------------------------------ *)
(* Client-vs-in-process byte identity                                  *)
(* ------------------------------------------------------------------ *)

let identity_benchmarks = [ "simon"; "mod5d2_64"; "bv" ]

let test_client_matches_inprocess () =
  let req_of name =
    { Protocol.default_compile with
      Protocol.circuit = Protocol.Benchmark name
    }
  in
  (* in-process: fresh in-memory cache, exactly the CLI's no-daemon path *)
  let cache_a = Cache.create () in
  let rows_a =
    List.map
      (fun name ->
        Service.suite_row name
          (Service.handle ~cache:cache_a ~deadline:None (req_of name)))
      identity_benchmarks
  in
  (* daemon: same requests through the wire against its own fresh cache *)
  let cache_b = Cache.create () in
  let rows_b =
    with_server ~cache:cache_b
      (Service.handler ~cache:cache_b ())
      (fun socket _t ->
        Server.with_connection socket @@ fun fd ->
        List.map
          (fun name -> Service.suite_row name (rpc_result fd (req_of name)))
          identity_benchmarks)
  in
  List.iter2
    (fun a b -> Alcotest.(check string) "row bytes identical" a b)
    rows_a rows_b;
  (* the daemon-side cache holds the same entries as the in-process one *)
  check_int "same cache population" (Cache.size cache_a) (Cache.size cache_b)

let test_warm_daemon_synthesizes_nothing () =
  let cache = Cache.create () in
  with_server ~cache (Service.handler ~cache ()) @@ fun socket _t ->
  Server.with_connection socket @@ fun fd ->
  let req =
    { Protocol.default_compile with
      Protocol.circuit = Protocol.Benchmark "simon"
    }
  in
  let cold = rpc_result fd req in
  check_true "cold run synthesized something" (cold.Protocol.synthesized > 0);
  let warm = rpc_result fd req in
  check_int "warm run synthesized nothing" 0 warm.Protocol.synthesized;
  check_int "warm run missed nothing" 0 warm.Protocol.cache_misses;
  check_true "warm run all hits" (warm.Protocol.cache_hits > 0);
  check_float "same latency" warm.Protocol.latency cold.Protocol.latency

(* Requests the compiler cannot serve are the client's fault: the real
   compile and sweep handlers refuse them as bad requests (not internal
   errors) before any compile work, and the daemon keeps serving. *)
let test_unservable_requests_are_bad_requests () =
  with_server ~sweep:(Service.sweep_handler ()) (Service.handler ())
  @@ fun socket t ->
  Server.with_connection socket @@ fun fd ->
  let refused label expected request =
    match Server.rpc fd request with
    | Protocol.Refused (Protocol.Bad_request msg) ->
      Alcotest.(check string) label expected msg
    | Protocol.Refused e ->
      Alcotest.failf "%s: refused as %s" label (Protocol.error_name e)
    | _ -> Alcotest.failf "%s: compiled" label
  in
  let compile circuit rows =
    Protocol.Compile
      { Protocol.default_compile with
        Protocol.circuit;
        rows;
        cols = rows
      }
  in
  refused "unknown benchmark" "unknown benchmark nosuch"
    (compile (Protocol.Benchmark "nosuch") 5);
  refused "malformed QASM" "QASM parse error: line 2: unsupported gate foo"
    (compile (Protocol.Qasm "qreg q[1];\nfoo q[0];\n") 5);
  refused "too-small grid" "circuit needs 16 qubits but device 3x3 has 9"
    (compile (Protocol.Benchmark "qft") 3);
  refused "sweep on a too-small grid"
    "circuit needs 10 qubits but device 1x2 has 2"
    (Protocol.Recompile
       { Protocol.default_recompile with
         Protocol.rc_rows = 1;
         rc_cols = 2
       });
  check_int "each refusal counted" 4 (Server.stats t).Protocol.errors;
  match Server.rpc fd Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "daemon should keep serving after bad requests"

let test_idle_timeout_stops () =
  let cfg c = { c with Server.idle_timeout_s = Some 0.05 } in
  let socket_path = tmp_name ".sock" in
  let config = cfg (Server.default_config ~socket_path) in
  let t = Server.create config echo_handler in
  let thread = Thread.create Server.run t in
  (* no clients at all: the daemon must decide to exit by itself *)
  Thread.join thread;
  check_true "stopped via idle timeout" (Server.stopping t);
  if Sys.file_exists socket_path then Sys.remove socket_path

(* ------------------------------------------------------------------ *)
(* Wire pins                                                           *)
(* ------------------------------------------------------------------ *)

let sample_frames =
  List.map
    (fun r -> Protocol.json_to_string (Protocol.request_to_json r))
    sample_requests
  @ List.map
      (fun r -> Protocol.json_to_string (Protocol.response_to_json r))
      sample_responses

(* The exact bytes of every sample, in [sample_requests] then
   [sample_responses] order. A codec refactor must leave each frame
   byte-identical: daemons and clients from either side of it talk to
   each other. *)
let pinned_frames =
  [ "{\"op\":\"ping\"}";
    "{\"op\":\"stats\"}";
    "{\"op\":\"shutdown\"}";
    "{\"op\":\"compile\",\"circuit\":{\"benchmark\":\"bv\"},\
     \"scheme\":\"paqoc-m0\",\"backend\":\"model\",\"rows\":5,\"cols\":5,\
     \"max_qubits\":3,\"top_k\":1,\"jobs\":1}";
    "{\"op\":\"compile\",\
     \"circuit\":{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\\n\"},\
     \"scheme\":\"accqoc-n3d5\",\"backend\":\"qoc\",\"rows\":2,\"cols\":7,\
     \"max_qubits\":4,\"top_k\":2,\"jobs\":3,\"canonical\":true,\
     \"device\":\"heavy-hex\",\"drift_seed\":42,\"drift_epoch\":3,\
     \"deadline_s\":1.5}";
    "{\"op\":\"recompile\",\"circuit\":{\"benchmark\":\"qaoa\"},\
     \"backend\":\"model\",\"rows\":5,\"cols\":5,\"jobs\":1,\"anchors\":5,\
     \"interp_tol\":9.9999999999999995e-07,\"angles\":[]}";
    "{\"op\":\"recompile\",\
     \"circuit\":{\"qasm\":\"OPENQASM 2.0;\\nqreg q[2];\\n\"},\
     \"backend\":\"qoc\",\"rows\":3,\"cols\":4,\"jobs\":2,\"anchors\":7,\
     \"interp_tol\":0.0001,\"angles\":[{\"gamma0\":0.25,\
     \"beta0\":-1.5},{},{\"gamma0\":3}],\"device\":\"ring\",\
     \"drift_seed\":9,\"drift_epoch\":2,\"deadline_s\":2.5}";
    "{\"ok\":true,\"op\":\"pong\"}";
    "{\"ok\":true,\"op\":\"shutdown\"}";
    "{\"ok\":true,\"op\":\"result\",\"result\":{\"latency\":3339,\
     \"esp\":0.77890000000000004,\"compile_seconds\":12.25,\"episodes\":23,\
     \"fallbacks\":1,\"synthesized\":13,\"cache_hits\":7,\"cache_misses\":6,\
     \"logical_qubits\":21,\"device_qubits\":25,\"physical_gates\":210,\
     \"swaps_added\":22}}";
    "{\"ok\":true,\"op\":\"stats\",\"stats\":{\"served\":5,\
     \"rejected_overload\":1,\"rejected_deadline\":2,\"errors\":3,\
     \"inflight\":4,\"cache_entries\":1105,\"cache_hits\":204,\
     \"cache_misses\":1105,\"uptime_s\":1}}";
    "{\"ok\":false,\"error\":\"overloaded\"}";
    "{\"ok\":false,\"error\":\"deadline_exceeded\"}";
    "{\"ok\":false,\"error\":\"shutting_down\"}";
    "{\"ok\":false,\"error\":\"bad_request\",\
     \"message\":\"bad \\\"quoted\\\" \\n field\"}";
    "{\"ok\":false,\"error\":\"internal\",\"message\":\"boom\"}";
    "{\"ok\":true,\"op\":\"sweep\",\"sweep\":{\"params\":[\"beta0\",\
     \"gamma0\"],\"static_slots\":21,\"param_slots\":29,\"multi_slots\":17,\
     \"anchor_values\":[0,1.5707963267948966,3.1415926535897931],\
     \"iterations\":[{\"latency\":3339,\"esp\":0.77890000000000004,\
     \"interp\":29,\"fallback\":0,\"resynth\":17},{\"latency\":3412.5,\
     \"esp\":0.75,\"interp\":27,\"fallback\":2,\"resynth\":17}]}}";
    "{\"ok\":true,\"op\":\"sweep\",\"sweep\":{\"params\":[],\
     \"static_slots\":4,\"param_slots\":0,\"multi_slots\":0,\
     \"anchor_values\":[],\"iterations\":[]}}" ]

let test_wire_bytes_pinned () =
  Alcotest.(check (list string))
    "frames byte-identical" pinned_frames sample_frames

(* A daemon frame for the mutation harness: a response (it carries
   "ok") or a request. Both decoders run on every frame that is JSON, as
   the daemon runs one and the client the other. *)
type frame = Request of Protocol.request | Response of Protocol.response

let frame_reader =
  { Mutation.name = "protocol frame";
    parse =
      (fun m ->
        Result.bind (Protocol.json_of_string m) (fun j ->
            let request = Protocol.request_of_json j
            and response = Protocol.response_of_json j in
            match j with
            | Protocol.Obj kv when List.mem_assoc "ok" kv ->
              Result.map (fun r -> Response r) response
            | _ -> Result.map (fun r -> Request r) request));
    print =
      (function
      | Request r -> Protocol.json_to_string (Protocol.request_to_json r)
      | Response r -> Protocol.json_to_string (Protocol.response_to_json r));
    numbers = Mutation.json_numbers;
    alphabet = Mutation.json_alphabet
  }

(* Decoding arbitrary bytes yields [Ok] or [Error], never an exception:
   every truncation, every single-byte deletion and substitution (from
   an alphabet of JSON-significant bytes), and seeded multi-byte edits
   of each sample frame, through both message decoders. *)
let test_mutated_frames_never_raise () =
  Mutation.check_total frame_reader sample_frames

(* Integers are read only when exact (an integral number within 2^53),
   and an enum field of the wrong JSON type is refused, not defaulted. *)
let test_decode_refuses_inexact_ints_and_ill_typed_enums () =
  let decode of_json frame =
    Result.bind (Protocol.json_of_string frame) of_json
  in
  let refused label expected frame =
    match decode Protocol.request_of_json frame with
    | Error msg -> Alcotest.(check string) label expected msg
    | Ok _ -> Alcotest.failf "%s: decoded" label
  in
  let compile extra =
    "{\"op\":\"compile\",\"circuit\":{\"benchmark\":\"bv\"}," ^ extra ^ "}"
  and recompile extra =
    "{\"op\":\"recompile\",\"circuit\":{\"benchmark\":\"qaoa\"},\
     \"angles\":[]," ^ extra ^ "}"
  in
  refused "compile drift seed 1e19"
    "field \"drift_seed\" must be an integer >= 0"
    (compile "\"drift_seed\":1e19");
  refused "recompile drift seed 1e19"
    "field \"drift_seed\" must be an integer >= 0"
    (recompile "\"drift_seed\":1e19");
  refused "rows beyond 2^53" "field \"rows\" must be an integer >= 1"
    (compile "\"rows\":9007199254740994");
  refused "numeric scheme" "field \"scheme\" must be a string"
    (compile "\"scheme\":5");
  refused "boolean backend" "field \"backend\" must be a string"
    (compile "\"backend\":true");
  refused "recompile boolean backend" "field \"backend\" must be a string"
    (recompile "\"backend\":true");
  (match
     decode Protocol.request_of_json
       (compile "\"drift_seed\":9007199254740992")
   with
  | Ok (Protocol.Compile c) ->
    check_int "2^53 is still exact" (1 lsl 53) c.Protocol.drift_seed
  | _ -> Alcotest.fail "a seed of 2^53 must decode");
  let result_frame =
    "{\"ok\":true,\"op\":\"result\",\"result\":{\"latency\":1,\"esp\":1,\
     \"compile_seconds\":0,\"episodes\":1e19,\"fallbacks\":0,\
     \"synthesized\":0,\"cache_hits\":0,\"cache_misses\":0,\
     \"logical_qubits\":1,\"device_qubits\":1,\"physical_gates\":0,\
     \"swaps_added\":0}}"
  in
  match decode Protocol.response_of_json result_frame with
  | Error msg ->
    Alcotest.(check string) "result episodes 1e19"
      "missing or ill-typed field \"episodes\"" msg
  | Ok _ -> Alcotest.fail "result episodes 1e19: decoded"

(* A bare grid is capped at 1,024 qubits before anything is built (a
   300x300 grid's all-pairs distance table alone is ~65 GB); the cap's
   test cannot overflow even at the wire's 2^53 bound. *)
let test_oversized_grids_are_bad_requests () =
  let big = 1 lsl 32 in
  (match
     Service.resolve_device ~device:None ~rows:big ~cols:big ~drift_seed:0
       ~drift_epoch:0
   with
  | exception Protocol.Bad_request _ -> ()
  | _ -> Alcotest.fail "a 2^32 x 2^32 grid was resolved");
  with_server ~sweep:(Service.sweep_handler ()) (Service.handler ())
  @@ fun socket t ->
  Server.with_connection socket @@ fun fd ->
  let refused label request =
    match Server.rpc fd request with
    | Protocol.Refused (Protocol.Bad_request msg) ->
      Alcotest.(check string) label
        "device grid 300x300 exceeds 1024 qubits" msg
    | Protocol.Refused e ->
      Alcotest.failf "%s: refused as %s" label (Protocol.error_name e)
    | _ -> Alcotest.failf "%s: served" label
  in
  refused "300x300 compile"
    (Protocol.Compile
       { Protocol.default_compile with Protocol.rows = 300; cols = 300 });
  refused "300x300 recompile"
    (Protocol.Recompile
       { Protocol.default_recompile with
         Protocol.rc_rows = 300;
         rc_cols = 300
       });
  check_int "both refusals counted" 2 (Server.stats t).Protocol.errors;
  match Server.rpc fd Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> Alcotest.fail "daemon should keep serving after oversized grids"

(* The lazy pool on the real compile path: an all-cache-hit suite at
   --jobs 4 must answer every group while planning, so it submits no
   task and its worker domains are never spawned. Counted with the
   pool's own "pool.task" span, so the check is exact, not a timing. *)
let test_warm_suite_submits_no_pool_task () =
  let cache = Cache.create () in
  let compile (e : Suite.entry) =
    Service.handle ~cache ~deadline:None
      { Protocol.default_compile with
        Protocol.circuit = Protocol.Benchmark e.Suite.name;
        jobs = 4
      }
  in
  let pass () =
    List.fold_left
      (fun acc e -> acc + (compile e).Protocol.synthesized)
      0 Suite.all
  in
  Fun.protect ~finally:Obs.reset @@ fun () ->
  Obs.enable ();
  ignore (compile (List.hd Suite.all));
  check_true "control: a cold jobs-4 compile runs pool tasks"
    (Obs.span_count "pool.task" > 0);
  ignore (pass ()) (* cold: fills the cache *);
  Obs.enable () (* drops the cold spans *);
  check_int "warm pass synthesized nothing" 0 (pass ());
  check_int "warm pass submitted no pool task" 0 (Obs.span_count "pool.task")

(* A compile binds no parameter: a circuit with a free one is refused
   by name, in-process and through the daemon, before any backend sees
   it unbound; a sweep over the same circuit still binds it. *)
let test_free_parameters_are_bad_requests () =
  let src = "OPENQASM 2.0;\nqreg q[1];\nrx(theta) q[0];\n" in
  let want = "circuit has unbound parameter theta" in
  let names label msg =
    check_true
      (Printf.sprintf "%s: the refusal names theta (got %S)" label msg)
      (String.starts_with ~prefix:want msg)
  in
  let req =
    { Protocol.default_compile with
      Protocol.circuit = Protocol.Qasm src;
      rows = 1;
      cols = 1
    }
  in
  List.iter
    (fun backend ->
      match Service.compile ~deadline:None { req with Protocol.backend } with
      | _ -> Alcotest.fail "a circuit with a free parameter compiled"
      | exception Protocol.Bad_request msg -> names "in-process" msg)
    [ Protocol.Model; Protocol.Qoc ];
  (with_server ~sweep:(Service.sweep_handler ()) (Service.handler ())
   @@ fun socket _t ->
   Server.with_connection socket @@ fun fd ->
   match Server.rpc fd (Protocol.Compile req) with
   | Protocol.Refused (Protocol.Bad_request msg) -> names "daemon" msg
   | Protocol.Refused e ->
     Alcotest.failf "daemon: refused as %s" (Protocol.error_name e)
   | _ -> Alcotest.fail "daemon: a circuit with a free parameter compiled");
  let r =
    Service.sweep_handle ~deadline:None
      { Protocol.default_recompile with
        Protocol.rc_circuit = Protocol.Qasm src;
        rc_rows = 1;
        rc_cols = 1;
        rc_angles = [ [ ("theta", 0.3) ] ]
      }
  in
  Alcotest.(check (list string)) "the sweep binds theta" [ "theta" ]
    r.Protocol.sweep_params;
  check_int "one bound iteration" 1 (List.length r.Protocol.iterations)

(* Every number in a sample frame, replaced by inf, -inf, nan or 1e999,
   is refused by the JSON reader; a printed frame reads back to itself. *)
let test_frames_refuse_non_finite_numbers () =
  Mutation.check_print_parse frame_reader sample_frames;
  Mutation.check_non_finite frame_reader sample_frames

(* A recompile whose interp_tol reads past the float range is a bad
   request naming the number; with a finite tolerance the same frame is
   swept. An infinite tolerance would pass every interpolation's drift
   check. *)
let test_infinite_interp_tol_is_a_bad_request () =
  let frame tol =
    "{\"op\":\"recompile\",\"circuit\":{\"qasm\":\"OPENQASM 2.0;\\n\
     qreg q[1];\\nrx(theta) q[0];\\n\"},\"rows\":1,\"cols\":1,\
     \"interp_tol\":" ^ tol ^ ",\"angles\":[{\"theta\":0.3}]}"
  in
  with_server ~sweep:(Service.sweep_handler ()) (Service.handler ())
  @@ fun socket _t ->
  Server.with_connection socket @@ fun fd ->
  Protocol.write_frame fd (frame "1e-6");
  (match Protocol.read_response fd with
  | Ok (Protocol.Sweep r) ->
    check_int "the control frame is swept" 1 (List.length r.Protocol.iterations)
  | _ -> Alcotest.fail "the control frame was not swept");
  Protocol.write_frame fd (frame "1e999");
  match Protocol.read_response fd with
  | Ok (Protocol.Refused (Protocol.Bad_request msg)) ->
    check_true
      (Printf.sprintf "the refusal names the number (got %S)" msg)
      (String.starts_with
         ~prefix:"bad JSON: number \"1e999\" is past the float range" msg)
  | Ok (Protocol.Refused e) ->
    Alcotest.failf "refused as %s" (Protocol.error_name e)
  | _ -> Alcotest.fail "a recompile with interp_tol 1e999 was served"

let suite =
  [ case "protocol: requests round-trip" test_request_roundtrip;
    case "protocol: responses round-trip" test_response_roundtrip;
    case "protocol: malformed JSON is a typed error" test_json_malformed;
    case "protocol: frames round-trip" test_frame_roundtrip;
    case "protocol: truncated frame rejected" test_frame_truncated;
    case "protocol: oversized frame rejected" test_frame_oversized;
    case "pool: workers spawn lazily on first submit" test_pool_lazy_spawn;
    case "pool: idle create+shutdown spawns nothing"
      test_pool_no_spawn_on_idle_shutdown;
    case "pool: jobs=1 stays inline" test_pool_inline_never_spawns;
    case "server: ping and stats" test_ping_and_stats;
    case "server: concurrent multi-client stress" test_concurrent_clients;
    case "server: expired deadline refused before the handler"
      test_deadline_refusal;
    case "server: mid-compile deadline maps to the typed error"
      test_deadline_mid_compile;
    case "server: bad payloads keep the connection"
      test_malformed_payload_keeps_connection;
    case "server: torn frame kills the connection, not the daemon"
      test_torn_frame_keeps_daemon;
    case "server: overload refusal at queue cap" test_overload_refusal;
    case "server: shutdown request drains" test_shutdown_request_drains;
    case "server: compiles refused while draining"
      test_compiles_refused_while_draining;
    case "server: idle timeout stops the daemon" test_idle_timeout_stops;
    case "cache: shutdown persists a compacted snapshot"
      test_shutdown_persists_cache;
    case "cache: interrupt cleanup compacts the journal"
      test_cleanup_compacts_on_interrupt;
    case "cache: cleanup survives a failing compaction (no torn file)"
      test_cleanup_survives_failing_compaction;
    slow_case "identity: daemon rows byte-identical to in-process"
      test_client_matches_inprocess;
    slow_case "identity: warm daemon serves entirely from cache"
      test_warm_daemon_synthesizes_nothing;
    case "server: unservable requests are refused as bad requests"
      test_unservable_requests_are_bad_requests;
    case "protocol: every sample frame's bytes are pinned"
      test_wire_bytes_pinned;
    case "protocol: mutated and truncated frames decode or fail, never raise"
      test_mutated_frames_never_raise;
    case "protocol: inexact integers and ill-typed enums are refused"
      test_decode_refuses_inexact_ints_and_ill_typed_enums;
    case "server: oversized device grids are refused as bad requests"
      test_oversized_grids_are_bad_requests;
    case "pool: a warm jobs-4 suite submits no pool task"
      test_warm_suite_submits_no_pool_task;
    case "server: a free parameter is refused by name; a sweep binds it"
      test_free_parameters_are_bad_requests;
    case "protocol: frames refuse non-finite numbers and print back to \
          themselves"
      test_frames_refuse_non_finite_numbers;
    case "server: a recompile with interp_tol 1e999 is a bad request"
      test_infinite_interp_tol_is_a_bad_request
  ]

