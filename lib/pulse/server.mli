(** The resident compile daemon: sockets, admission, deadlines, drain.

    [paqoc serve] keeps one in-memory {!Cache} hot across any number of
    compiles — the horizontal-scaling story for variational workloads,
    where the same circuits are recompiled endlessly and a cold CLI
    process would re-open the journaled DB every time. This module is
    the transport and scheduling half of that daemon, deliberately
    generic: it speaks {!Protocol} over a Unix-domain socket and runs a
    caller-supplied {e handler} for each compile request, so the CLI,
    the tests and the bench can all stand up a daemon around their own
    compile function (the real one lives in [Paqoc_service]).

    Concurrency model: the main thread runs the accept loop; each
    accepted connection gets a lightweight systhread that reads frames
    and answers them in order; compile work is dispatched onto the
    daemon's shared domain {!Pool}, so [jobs] worker domains serve all
    connections. Admission is bounded: at most [queue_cap] compiles may
    be queued-or-running, and requests beyond that are refused with the
    typed [overloaded] error instead of growing the queue without
    bound. Each request carries a deadline (its own, or the server
    default); a request whose budget expires while still queued is
    refused with [deadline_exceeded], and deadline-aware pipeline stages
    abort mid-compile by raising {!Protocol.Deadline_exceeded}.

    Shutdown: {!request_stop} (async-signal-safe — one atomic store; the
    CLI points SIGTERM/SIGINT at it via {!install_stop_signals}) or a
    [shutdown] request or the idle timeout make {!run} stop accepting,
    drain in-flight work, join the pool, and finally call [on_close] —
    which is where the daemon persists the cache via journal compaction.

    Observability (when {!Paqoc_obs.Obs} is enabled): [server.request]
    / [server.overload] / [server.deadline_exceeded] / [server.error]
    counters, a [server.queue_depth] gauge and a [server.request_s]
    latency histogram, all emitted under the server's own lock so
    systhreads never race on the per-domain buffers. *)

type config = {
  socket_path : string;  (** bound at {!create}; stale files replaced *)
  jobs : int;  (** pool worker domains serving compiles (>= 1) *)
  queue_cap : int;  (** max queued-or-running compiles (>= 1) *)
  default_deadline_s : float option;
      (** per-request budget when the request names none *)
  idle_timeout_s : float option;
      (** drain and exit after this long with no connection and no work *)
}

(** [{ socket_path; jobs = 1; queue_cap = 64; default_deadline_s = None;
      idle_timeout_s = None }] *)
val default_config : socket_path:string -> config

(** One compile. [deadline] is an absolute {!Paqoc_obs.Clock} time; the
    handler may raise {!Protocol.Deadline_exceeded} or
    {!Protocol.Bad_request} (each mapped to its typed wire error) or any
    other exception (mapped to [internal]). Runs on a
    pool worker domain (or inline on the connection thread at
    [jobs <= 1]); one handler call never sees another's generator, but
    all calls share whatever cache the handler closes over. *)
type handler =
  deadline:float option ->
  Protocol.compile_request ->
  Protocol.compile_result

(** One variational sweep ({!Protocol.recompile_request}): same
    execution contract as {!handler} — runs on the pool, may raise
    {!Protocol.Deadline_exceeded} or any other exception for the typed
    wire mapping. The real one ([Paqoc_service.sweep_handler]) keeps
    frozen compile plans hot across requests, which is the daemon's
    whole advantage for sweeps. *)
type sweep_handler =
  deadline:float option ->
  Protocol.recompile_request ->
  Protocol.sweep_result

type t

(** [create config handler] binds the socket and prepares the daemon
    (nothing is accepted until {!run}). [cache] is reported in [stats]
    replies; [on_close] runs exactly once, after the drain — close the
    cache there. [sweep] serves [recompile] requests; without it they
    are refused with a typed [bad_request], so transport-only daemons
    (tests, benches) need not care.
    @raise Invalid_argument when [jobs < 1] or [queue_cap < 1].
    @raise Failure when the socket cannot be bound. *)
val create :
  ?cache:Cache.t ->
  ?on_close:(unit -> unit) ->
  ?sweep:sweep_handler ->
  config ->
  handler ->
  t

(** [run t] serves until shutdown is requested, then drains and cleans
    up (socket file removed, pool joined, [on_close] called). Returns
    normally on a clean shutdown; idempotent cleanup on exceptions. *)
val run : t -> unit

(** [request_stop t] flips the stop flag — safe from a signal handler. *)
val request_stop : t -> unit

val stopping : t -> bool

(** Points SIGTERM and SIGINT at {!request_stop} for a graceful drain. *)
val install_stop_signals : t -> unit

(** Live server statistics (also served over the wire as [stats]). *)
val stats : t -> Protocol.server_stats

(** {1 Client side} *)

(** [connect path] opens a client connection to a daemon socket.
    @raise Failure when nothing is listening there. *)
val connect : string -> Unix.file_descr

(** [rpc fd req] sends one request and waits for its response.
    @raise Protocol.Frame_error on a torn conversation.
    @raise Failure on an undecodable response. *)
val rpc : Unix.file_descr -> Protocol.request -> Protocol.response

(** [with_connection path f] — {!connect}, run [f], always close. *)
val with_connection : string -> (Unix.file_descr -> 'a) -> 'a

(** {1 Interrupt cleanup for one-shot CLI runs}

    A Ctrl-C mid [compile-suite] used to kill the process with the cache
    journal still carrying an un-compacted tail (and, if it landed mid
    [write], a torn last record for the next open to drop). This
    registry gives the CLI a single place to say "these caches must be
    closed on the way out": {!install_handlers} points SIGINT/SIGTERM at
    {!run_cleanup}, which compacts-and-closes every registered cache —
    best-effort ([Failure] per cache is swallowed; compaction is atomic,
    so a failed compaction leaves the journal file valid) — and exits
    with the conventional [128 + signal] status. *)
module Cleanup : sig
  val register_cache : Cache.t -> unit
  val unregister_cache : Cache.t -> unit

  (** Close every registered cache (idempotent, exception-swallowing);
      exposed for tests and for non-signal exit paths. *)
  val run_cleanup : unit -> unit

  (** Install SIGINT/SIGTERM handlers that {!run_cleanup} then [exit
      130]/[exit 143]. *)
  val install_handlers : unit -> unit
end
