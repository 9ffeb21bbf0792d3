(* The [paqoc serve] child process of the daemon workload.

   Every child is registered from spawn to reap, so a failed check, an
   exception or a SIGINT/SIGTERM to the benchmark still stops it:
   [kill_all] sends SIGTERM, reaps (SIGKILL after a grace period) and
   removes the child's socket and cache file. A clean [stop] also
   requires the drain to exit with status 0. *)

module Clock = Paqoc_obs.Clock

type t = {
  pid : int;
  socket : string;
  cache_file : string;
  out : in_channel;  (** the child's merged stdout/stderr *)
  mutable reaped : bool;
}

let live : t list ref = ref []

let remove_file path = try Sys.remove path with Sys_error _ -> ()

let cleanup_files c =
  List.iter remove_file
    [ c.socket; c.cache_file; c.cache_file ^ ".tmp" ]

(* the rest of the child's output, once it has exited *)
let drain_output c =
  let b = Buffer.create 256 in
  (try
     while true do
       Buffer.add_string b (input_line c.out);
       Buffer.add_char b '\n'
     done
   with End_of_file | Sys_error _ -> ());
  close_in_noerr c.out;
  Buffer.contents b

(* SIGTERM, then wait up to [grace] seconds for the drain before
   SIGKILL; returns the exit status *)
let reap ?(grace = 30.0) c =
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now_s () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when Clock.now_s () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      snd (Unix.waitpid [] c.pid)
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  c.reaped <- true;
  live := List.filter (fun o -> o.pid <> c.pid) !live;
  cleanup_files c;
  status

let kill_all () =
  List.iter (fun c -> if not c.reaped then ignore (reap ~grace:5.0 c)) !live

(* Start [paqoc serve] and block until it prints its listening line,
   i.e. until its socket is bound. *)
let spawn ~paqoc ~socket ~cache_file ~jobs =
  List.iter remove_file [ socket; cache_file ];
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process paqoc
      [| paqoc; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs;
         "--cache"; cache_file |]
      Unix.stdin w w
  in
  Unix.close w;
  let c =
    { pid; socket; cache_file; out = Unix.in_channel_of_descr r; reaped = false }
  in
  live := c :: !live;
  let rec ready () =
    match input_line c.out with
    | line
      when String.length line >= 23
           && String.sub line 0 23 = "paqoc daemon listening " ->
      ()
    | _ -> ready ()
    | exception End_of_file ->
      let status = reap c in
      failwith
        (Printf.sprintf "paqoc serve exited before listening (%s): %s"
           (match status with
           | Unix.WEXITED n -> Printf.sprintf "exit %d" n
           | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
           | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
           (drain_output c))
  in
  ready ();
  c

(* a graceful stop: the drain must exit 0 *)
let stop c =
  match reap c with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n ->
    Error (Printf.sprintf "drain exited %d: %s" n (drain_output c))
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "drain killed by signal %d" n)

(* a /proc/<pid>/status field in MiB (Linux) *)
let status_mb ?(pid = "self") field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let prefix = field ^ ":" in
      let n = String.length prefix in
      let rec find () =
        let line = input_line ic in
        if String.length line > n && String.sub line 0 n = prefix then
          Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else find ()
      in
      try find ()
      with End_of_file -> failwith ("no " ^ field ^ " in /proc status"))

let peak_rss_mb ?pid () = status_mb ?pid:(Option.map string_of_int pid) "VmHWM"
let rss_mb ?pid () = status_mb ?pid:(Option.map string_of_int pid) "VmRSS"

let install_signal_cleanup () =
  let on_signal code =
    Sys.Signal_handle
      (fun _ ->
        kill_all ();
        exit code)
  in
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143);
  (* the handler may run on a client thread while another still writes
     to a draining daemon: that write must fail with EPIPE, not kill the
     process before the child is reaped *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit kill_all
