(** The daemon wire protocol: framing, JSON, typed messages.

    [paqoc serve] turns the compiler into a resident service so the
    shared pulse {!Cache} stays hot in one process while any number of
    thin front-ends connect. This module is the contract between the two
    sides: a length-prefixed frame layer over a stream socket carrying
    {!Paqoc_obs.Json} documents, and the typed request/response messages
    with their codecs —
    everything except the sockets and threads, which live in {!Server}.

    {b Frame format} (see [docs/daemon.md] for the byte-level spec):
    every message is one frame — a 4-byte big-endian payload length
    followed by that many bytes of UTF-8 JSON. Frames longer than
    {!max_frame_bytes} are rejected before any allocation proportional
    to the claimed length, so a garbage header cannot make the daemon
    allocate gigabytes.

    The codec is total in both directions: any [request]/[response]
    round-trips through its JSON, and any byte string either decodes or
    yields a typed [Error] — malformed input is a value, not an
    exception, so one bad client frame can never kill the daemon. *)

(** {1 JSON}

    The codec is {!Paqoc_obs.Json}; these aliases keep the constructors
    and the two functions reachable under their historical [Protocol]
    names. *)

type json = Paqoc_obs.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(** {!Paqoc_obs.Json.to_string}. *)
val json_to_string : json -> string

(** {!Paqoc_obs.Json.of_string}. *)
val json_of_string : string -> (json, string) result

(** {1 Frames} *)

(** Hard cap on a frame payload (16 MiB) — an admission bound, not a
    tuning knob. *)
val max_frame_bytes : int

(** Raised by the frame layer on a malformed or truncated frame (bad
    length header, oversized claim, EOF mid-payload). Connection-fatal;
    daemon-harmless. *)
exception Frame_error of string

(** [write_frame fd payload] writes one complete frame (header +
    payload), looping over short writes.
    @raise Frame_error when [payload] exceeds {!max_frame_bytes}.
    @raise Unix.Unix_error on I/O failure. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one complete frame payload; [None] on a clean
    EOF at a frame boundary (the peer closed between messages).
    @raise Frame_error on a truncated or oversized frame.
    @raise Unix.Unix_error on I/O failure. *)
val read_frame : Unix.file_descr -> string option

(** {1 Messages} *)

(** The circuit of a compile request: a built-in Table I benchmark by
    name, or inline OpenQASM 2.0 source (the client ships file contents;
    the daemon never touches client paths). *)
type circuit = Benchmark of string | Qasm of string

type scheme = M0 | Mtuned | Minf | Acc3 | Acc5
type backend = Model | Qoc

val scheme_name : scheme -> string
val scheme_of_name : string -> scheme option
val backend_name : backend -> string

type compile_request = {
  circuit : circuit;
  scheme : scheme;
  backend : backend;
  rows : int;  (** device grid rows *)
  cols : int;  (** device grid cols *)
  max_n : int;  (** the paper's maxN *)
  top_k : int;  (** the paper's topK *)
  jobs : int;  (** worker domains {e inside} this one compile (>= 1) *)
  canonical : bool;
      (** enable the shared cache's equivalence-class tier
          ([--canonical-cache]); serialised only when [true], so frames
          to daemons predating the field are unchanged *)
  device : string option;
      (** registry device name ([--device lattice] etc.,
          {!Paqoc_topology.Device.find}); [None] compiles on the plain
          rows x cols grid. Serialised only when present, so frames to
          daemons predating the registry are unchanged. *)
  drift_seed : int;  (** calibration-drift seed ([--drift-seed]) *)
  drift_epoch : int;
      (** calibration-drift epoch ([--drift-epoch], 0 = pristine);
          seed and epoch are serialised only when non-zero *)
  deadline_s : float option;
      (** per-request budget in seconds, measured from admission; spent
          queueing counts. [None] uses the server's default. *)
}

(** A compile request with the CLI's defaults ([bv] on the paper's 5x5
    grid, paqoc-m0, model backend, maxN 3, topK 1,
    jobs 1, canonicalization off, no deadline) — override fields as
    needed. *)
val default_compile : compile_request

(** A variational sweep request for the daemon's parametric fast path:
    the client ships {e every} iteration's parameter bindings up front
    (one object per iteration), the daemon freezes — or reuses, keyed on
    circuit/grid/backend/anchors — a {!Paqoc.Variational} compile plan
    and answers with one {!sweep_iteration} row per binding vector.
    Fields are [rc_]-prefixed to keep them distinct from
    {!compile_request}'s. *)
type recompile_request = {
  rc_circuit : circuit;
      (** a sweep benchmark name ([qaoa] / [vqe] / [dnn]) or inline QASM
          (which, having no symbolic angles, degenerates to all-static
          slots) *)
  rc_backend : backend;
  rc_rows : int;
  rc_cols : int;
  rc_jobs : int;  (** worker domains for the freeze's anchor batch *)
  rc_anchors : int;  (** seeded anchor grid size (>= 2) *)
  rc_interp_tol : float;  (** max |predicted - resimulated| drift *)
  rc_angles : (string * float) list list;  (** one binding list per iteration *)
  rc_device : string option;  (** registry device name; [None] = grid *)
  rc_drift_seed : int;
  rc_drift_epoch : int;
  rc_deadline_s : float option;
}

(** A recompile request with the CLI's defaults ([qaoa] on the paper's
    5x5 grid, model backend, 5 anchors, 1e-6 drift tolerance, no
    iterations, no deadline) — override fields as needed. *)
val default_recompile : recompile_request

type request =
  | Ping
  | Stats
  | Shutdown
  | Compile of compile_request
  | Recompile of recompile_request

(** Everything the CLI prints about one compile, so the client-side
    output can be byte-identical to the in-process path. *)
type compile_result = {
  latency : float;
  esp : float;
  compile_seconds : float;
  episodes : int;
  fallbacks : int;
  synthesized : int;  (** pulses generated for this request *)
  cache_hits : int;  (** shared-cache hits during this request *)
  cache_misses : int;
  logical_qubits : int;
  device_qubits : int;
  physical_gates : int;
  swaps_added : int;
}

type server_stats = {
  served : int;  (** compile requests answered with a result *)
  rejected_overload : int;
  rejected_deadline : int;
  errors : int;  (** bad requests + internal errors *)
  inflight : int;  (** queued or running right now *)
  cache_entries : int;
  srv_cache_hits : int;  (** lifetime, whole cache *)
  srv_cache_misses : int;
  uptime_s : float;
}

(** One sweep iteration's price and fast-path accounting, mirroring
    [Paqoc.Variational.iteration] minus the waveform-level detail (the
    wire carries prices, not pulses). *)
type sweep_iteration = {
  it_latency : float;
  it_esp : float;
  it_interp : int;  (** slots served by the anchor table / interpolation *)
  it_fallback : int;  (** slots that fell back to real synthesis *)
  it_resynth : int;  (** multi-parameter slots, resynthesised by design *)
}

(** Everything the CLI prints about one sweep: the frozen plan's shape
    plus one row per iteration, so the [--connect] table can be
    byte-identical to the in-process one. *)
type sweep_result = {
  sweep_params : string list;  (** the plan's free parameters, sorted *)
  static_slots : int;
  param_slots : int;
  multi_slots : int;
  anchor_values : float list;  (** the seeded anchor grid *)
  iterations : sweep_iteration list;  (** in request order *)
}

(** Typed refusals. [Overloaded] and [Deadline_exceeded] are the
    admission-control outcomes a well-behaved client retries or sheds;
    [Bad_request] and [Internal] carry a diagnostic message;
    [Shutting_down] means the daemon is draining and will not admit new
    work. *)
type error_kind =
  | Overloaded
  | Deadline_exceeded
  | Bad_request of string
  | Shutting_down
  | Internal of string

val error_name : error_kind -> string

type response =
  | Pong
  | Stats_reply of server_stats
  | Shutdown_ack
  | Result of compile_result
  | Sweep of sweep_result
  | Refused of error_kind

(** The typed per-request deadline signal: raised by deadline-aware
    pipeline stages ({!Paqoc}[.compile ~deadline]) and by the server's
    dispatch when a request's budget expires while queued; {!Server}
    maps it to the [deadline_exceeded] wire error. *)
exception Deadline_exceeded

(** The typed refusal of a request the compiler cannot serve (unknown
    benchmark or device, malformed QASM, a circuit wider than its
    device, out-of-range knobs): raised while resolving a request,
    before any compile work. {!Server} maps it to the [bad_request] wire
    error; every other handler exception stays [internal]. *)
exception Bad_request of string

(** {1 Codecs} *)

val request_to_json : request -> json

(** [request_of_json j] decodes a request. Fields it does not know are
    ignored, so frames from older clients — such as a compile carrying
    the retired ["search"] field — still parse. *)
val request_of_json : json -> (request, string) result

val response_to_json : response -> json
val response_of_json : json -> (response, string) result

(** [write_request fd r] / [read_response fd] — one framed message each
    way, composing the codec with the frame layer. [read_response]
    raises {!Frame_error} on EOF mid-conversation ([None] would mean the
    daemon hung up without answering). *)
val write_request : Unix.file_descr -> request -> unit

val read_response : Unix.file_descr -> (response, string) result
val write_response : Unix.file_descr -> response -> unit
