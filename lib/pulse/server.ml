module Obs = Paqoc_obs.Obs
module Clock = Paqoc_obs.Clock

type config = {
  socket_path : string;
  jobs : int;
  queue_cap : int;
  default_deadline_s : float option;
  idle_timeout_s : float option;
}

let default_config ~socket_path =
  { socket_path;
    jobs = 1;
    queue_cap = 64;
    default_deadline_s = None;
    idle_timeout_s = None
  }

type handler =
  deadline:float option ->
  Protocol.compile_request ->
  Protocol.compile_result

type sweep_handler =
  deadline:float option ->
  Protocol.recompile_request ->
  Protocol.sweep_result

(* All mutable server state sits behind [slock]. Connection systhreads
   share the main domain's Obs buffers, so every Obs emission from a
   connection thread also happens under [slock] — two systhreads can
   interleave at any allocation point, and the per-domain buffers are
   not reentrant. Pool worker domains have their own buffers and need no
   such care. *)
type t = {
  config : config;
  handler : handler;
  sweep : sweep_handler option;
  cache : Cache.t option;
  on_close : unit -> unit;
  pool : Pool.t;
  lsock : Unix.file_descr;
  stop : bool Atomic.t;
  start_s : float;
  slock : Mutex.t;
  conn_done : Condition.t;
  mutable served : int;
  mutable rejected_overload : int;
  mutable rejected_deadline : int;
  mutable errors : int;
  mutable inflight : int;
  mutable conns : int;
  mutable last_activity : float;
  mutable closed : bool;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create ?cache ?(on_close = fun () -> ()) ?sweep config handler =
  if config.jobs < 1 then invalid_arg "Server.create: jobs must be >= 1";
  if config.queue_cap < 1 then
    invalid_arg "Server.create: queue_cap must be >= 1";
  (* a client hanging up before its response must surface as EPIPE on
     the write (swallowed per-connection), not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     (* a stale socket file from a dead daemon would make [bind] fail;
        one daemon per path, last one wins *)
     if Sys.file_exists config.socket_path then Sys.remove config.socket_path;
     Unix.bind lsock (Unix.ADDR_UNIX config.socket_path);
     Unix.listen lsock 64
   with
  | Unix.Unix_error (err, _, _) ->
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "Server.create: cannot bind %s: %s" config.socket_path
         (Unix.error_message err))
  | Sys_error msg ->
    (try Unix.close lsock with Unix.Unix_error _ -> ());
    failwith (Printf.sprintf "Server.create: %s" msg));
  { config;
    handler;
    sweep;
    cache;
    on_close;
    pool = Pool.create ~jobs:config.jobs ();
    lsock;
    stop = Atomic.make false;
    start_s = Clock.now_s ();
    slock = Mutex.create ();
    conn_done = Condition.create ();
    served = 0;
    rejected_overload = 0;
    rejected_deadline = 0;
    errors = 0;
    inflight = 0;
    conns = 0;
    last_activity = Clock.now_s ();
    closed = false
  }

let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let install_stop_signals t =
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

let stats t =
  let cache_entries, hits, misses =
    match t.cache with
    | None -> (0, 0, 0)
    | Some c ->
      let s = Cache.stats c in
      (Cache.size c, s.Cache.hits, s.Cache.misses)
  in
  locked t.slock (fun () ->
      { Protocol.served = t.served;
        rejected_overload = t.rejected_overload;
        rejected_deadline = t.rejected_deadline;
        errors = t.errors;
        inflight = t.inflight;
        cache_entries;
        srv_cache_hits = hits;
        srv_cache_misses = misses;
        uptime_s = Clock.now_s () -. t.start_s
      })

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* Runs on a connection systhread. Counts and Obs emission go through
   [slock]; the work itself runs on the pool (worker domain, or inline
   right here at jobs <= 1). Generic over the request kind: compiles and
   sweeps share admission, deadline arming and accounting, and differ
   only in the work closure and the success wrapper. *)
let dispatch t ~deadline_s ~wrap run =
  let admitted =
    locked t.slock (fun () ->
        if t.inflight >= t.config.queue_cap then begin
          t.rejected_overload <- t.rejected_overload + 1;
          Obs.count "server.overload";
          false
        end
        else begin
          t.inflight <- t.inflight + 1;
          Obs.gauge "server.queue_depth" (float_of_int t.inflight);
          true
        end)
  in
  if not admitted then Protocol.Refused Protocol.Overloaded
  else begin
    let deadline =
      match deadline_s with
      | Some d -> Some (Clock.now_s () +. d)
      | None ->
        Option.map
          (fun d -> Clock.now_s () +. d)
          t.config.default_deadline_s
    in
    let t0 = Clock.now_s () in
    let task () =
      (* budget spent queueing counts against the request; [>=] so a
         zero-second budget deterministically expires (the clock is
         monotonic, so equality means the budget is already gone) *)
      (match deadline with
      | Some d when Clock.now_s () >= d -> raise Protocol.Deadline_exceeded
      | _ -> ());
      run ~deadline
    in
    let response =
      match Pool.await (Pool.submit t.pool task) with
      | result ->
        locked t.slock (fun () ->
            t.served <- t.served + 1;
            Obs.count "server.request";
            Obs.observe "server.request_s" (Clock.now_s () -. t0));
        wrap result
      | exception Protocol.Deadline_exceeded ->
        locked t.slock (fun () ->
            t.rejected_deadline <- t.rejected_deadline + 1;
            Obs.count "server.deadline_exceeded");
        Protocol.Refused Protocol.Deadline_exceeded
      | exception e ->
        locked t.slock (fun () ->
            t.errors <- t.errors + 1;
            Obs.count "server.error");
        Protocol.Refused
          (match e with
          | Protocol.Bad_request msg -> Protocol.Bad_request msg
          | e -> Protocol.Internal (Printexc.to_string e))
    in
    locked t.slock (fun () ->
        t.inflight <- t.inflight - 1;
        Obs.gauge "server.queue_depth" (float_of_int t.inflight);
        t.last_activity <- Clock.now_s ());
    response
  end

let dispatch_compile t (req : Protocol.compile_request) =
  dispatch t ~deadline_s:req.Protocol.deadline_s
    ~wrap:(fun r -> Protocol.Result r)
    (fun ~deadline -> t.handler ~deadline req)

let dispatch_recompile t sweep (req : Protocol.recompile_request) =
  dispatch t ~deadline_s:req.Protocol.rc_deadline_s
    ~wrap:(fun r -> Protocol.Sweep r)
    (fun ~deadline -> sweep ~deadline req)

let handle_payload t payload =
  match Protocol.json_of_string payload with
  | Error msg ->
    locked t.slock (fun () ->
        t.errors <- t.errors + 1;
        Obs.count "server.error");
    Protocol.Refused (Protocol.Bad_request ("bad JSON: " ^ msg))
  | Ok j -> (
    match Protocol.request_of_json j with
    | Error msg ->
      locked t.slock (fun () ->
          t.errors <- t.errors + 1;
          Obs.count "server.error");
      Protocol.Refused (Protocol.Bad_request msg)
    | Ok Protocol.Ping -> Protocol.Pong
    | Ok Protocol.Stats -> Protocol.Stats_reply (stats t)
    | Ok Protocol.Shutdown ->
      request_stop t;
      Protocol.Shutdown_ack
    | Ok (Protocol.Compile req) ->
      if stopping t then Protocol.Refused Protocol.Shutting_down
      else dispatch_compile t req
    | Ok (Protocol.Recompile req) ->
      if stopping t then Protocol.Refused Protocol.Shutting_down
      else (
        match t.sweep with
        | Some sweep -> dispatch_recompile t sweep req
        | None ->
          locked t.slock (fun () ->
              t.errors <- t.errors + 1;
              Obs.count "server.error");
          Protocol.Refused
            (Protocol.Bad_request "this daemon serves no recompile endpoint")))

(* One systhread per accepted connection: frames are answered in order;
   a malformed frame gets a typed refusal, a torn frame closes only this
   connection. The read side polls with a short select so a drain never
   waits on an idle client. *)
let handle_conn t fd =
  let respond r =
    try Protocol.write_response fd r
    with Unix.Unix_error _ | Protocol.Frame_error _ -> ()
  in
  let rec loop () =
    if not (stopping t) then begin
      match Unix.select [ fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
        match Protocol.read_frame fd with
        | None -> ()  (* peer closed cleanly *)
        | Some payload ->
          respond (handle_payload t payload);
          loop ())
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked t.slock (fun () ->
          t.conns <- t.conns - 1;
          t.last_activity <- Clock.now_s ();
          Condition.broadcast t.conn_done))
    (fun () ->
      try loop () with
      | Protocol.Frame_error msg ->
        locked t.slock (fun () ->
            t.errors <- t.errors + 1;
            Obs.count "server.error");
        respond (Protocol.Refused (Protocol.Bad_request msg))
      | Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Accept loop / shutdown                                              *)
(* ------------------------------------------------------------------ *)

let idle_expired t now =
  match t.config.idle_timeout_s with
  | None -> false
  | Some limit ->
    locked t.slock (fun () ->
        t.conns = 0 && t.inflight = 0 && now -. t.last_activity > limit)

let run t =
  let rec accept_loop () =
    if stopping t then ()
    else begin
      (* a stop signal interrupts the select with EINTR; the loop head
         re-checks the stop flag, which is the point of the signal *)
      (match Unix.select [ t.lsock ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.lsock with
        | conn, _ ->
          locked t.slock (fun () ->
              t.conns <- t.conns + 1;
              t.last_activity <- Clock.now_s ());
          ignore (Thread.create (fun () -> handle_conn t conn) ())
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()));
      if idle_expired t (Clock.now_s ()) then request_stop t;
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      let already =
        locked t.slock (fun () ->
            let c = t.closed in
            t.closed <- true;
            c)
      in
      if not already then begin
        request_stop t;
        (try Unix.close t.lsock with Unix.Unix_error _ -> ());
        (try Sys.remove t.config.socket_path with Sys_error _ -> ());
        (* drain: connection threads notice the stop flag within one
           select tick and finish their current request first *)
        locked t.slock (fun () ->
            while t.conns > 0 do
              Condition.wait t.conn_done t.slock
            done);
        Pool.shutdown t.pool;
        t.on_close ()
      end)
    accept_loop

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  with Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "cannot connect to daemon at %s: %s" path
         (Unix.error_message err))

let rpc fd req =
  Protocol.write_request fd req;
  match Protocol.read_response fd with
  | Ok r -> r
  | Error msg -> failwith (Printf.sprintf "daemon protocol error: %s" msg)

let with_connection path f =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

(* ------------------------------------------------------------------ *)
(* Interrupt cleanup for one-shot CLI runs                             *)
(* ------------------------------------------------------------------ *)

module Cleanup = struct
  let lock = Mutex.create ()
  let caches : Cache.t list ref = ref []

  let register_cache c =
    locked lock (fun () -> caches := c :: !caches)

  let unregister_cache c =
    locked lock (fun () -> caches := List.filter (fun c' -> c' != c) !caches)

  let run_cleanup () =
    let cs = locked lock (fun () -> !caches) in
    List.iter
      (fun c ->
        (* Cache.close compacts pending journal records and is atomic
           (tmp + rename): success converges the file to its snapshot
           form, failure leaves the journal file exactly as valid as it
           was — either way, no torn tail *)
        try Cache.close c with Failure _ -> ())
      cs

  let install_handlers () =
    let handle signal code =
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             run_cleanup ();
             Stdlib.exit code))
    in
    (* conventional 128 + SIGINT(2) / SIGTERM(15) statuses *)
    handle Sys.sigint 130;
    handle Sys.sigterm 143
end
