(** The one compile path: one {!Paqoc_pulse.Protocol} request in, one
    result out.

    Every compilation of a circuit — the daemon's requests, the CLI's
    in-process [compile], [compile-suite] and [export-ir], the
    evaluation harness and the pulse-IR golden — goes through {!compile},
    which holds the product's only {!Paqoc_pulse.Protocol.scheme} →
    [Paqoc.compile] / [Accqoc.compile] dispatch. The CLI and the daemon
    agree byte for byte because they run the same function on the same
    request record, not because a check diffs their outputs.

    {!Paqoc_pulse.Server} is deliberately transport-only — it cannot
    depend on the compiler, which sits {e above} the pulse layer in the
    library graph. This module closes the loop from the top: it resolves
    a wire-level {!Paqoc_pulse.Protocol.compile_request} (benchmark name
    or inline QASM) into a circuit, transpiles it onto the requested
    device, runs the selected scheme through a {b fresh generator}
    against the shared cache, and packs everything the CLI prints into
    the {!Paqoc_pulse.Protocol.compile_result}; the [compile-suite]
    table formatters below print that record on both transports.

    A fresh generator per request keeps requests isolated (no
    cross-request pulse-database aliasing, deterministic per-request
    [synthesized] counts); all cross-request reuse flows through the
    shared {!Paqoc_pulse.Cache}.

    Requests the compiler cannot serve — an unknown benchmark, sweep
    benchmark or device, malformed QASM, a circuit wider than its
    device, a compile whose circuit has a free (unbound) parameter —
    only a sweep binds parameters, and the refusal names them —,
    out-of-range knobs — raise
    {!Paqoc_pulse.Protocol.Bad_request} before any compile work; the
    server answers them with the [bad_request] wire error and the CLI
    exits 1 with the same text. *)

(** [resolve_circuit c] builds a request's logical circuit: a built-in
    benchmark by name, or inline QASM source.
    @raise Paqoc_pulse.Protocol.Bad_request on an unknown benchmark or a
    QASM parse error. *)
val resolve_circuit : Paqoc_pulse.Protocol.circuit -> Paqoc_circuit.Circuit.t

(** [resolve_sweep_circuit c] is {!resolve_circuit} for sweeps: names
    resolve among the parameterised sweep benchmarks, whose angles stay
    symbolic.
    @raise Paqoc_pulse.Protocol.Bad_request on an unknown sweep
    benchmark or a QASM parse error. *)
val resolve_sweep_circuit :
  Paqoc_pulse.Protocol.circuit -> Paqoc_circuit.Circuit.t

(** [resolve_device ~device ~rows ~cols ~drift_seed ~drift_epoch] is the
    one device-resolution path for every request kind: a registry name
    ([device = Some _], {!Paqoc_topology.Device.find}) wins; [None] is
    the uniform ad-hoc [rows x cols] grid. Calibration drift
    ({!Paqoc_topology.Drift.apply}) is applied last, so the returned
    device's hash — and therefore its shared-cache namespace — already
    reflects the epoch. An armed
    {!Paqoc_pulse.Faultin.Drift_shock} fault resolves one epoch later
    than requested (the unannounced-recalibration scenario).
    @raise Paqoc_pulse.Protocol.Bad_request on an unknown device name,
    [rows] or [cols] below 1, a bare grid of more than 1,024 qubits
    (checked without overflow, before anything is built), or a negative
    seed/epoch. *)
val resolve_device :
  device:string option ->
  rows:int ->
  cols:int ->
  drift_seed:int ->
  drift_epoch:int ->
  Paqoc_topology.Device.t

(** A finished compile: the wire result plus what only an in-process
    caller can use — the resolved device, the request's generator (its
    pulse database holds every group's outcome, which is what
    {!Pulse_ir.of_compiled} exports) and the final grouped circuit. *)
type compiled = {
  result : Paqoc_pulse.Protocol.compile_result;
  device : Paqoc_topology.Device.t;
  gen : Paqoc_pulse.Generator.t;
  grouped : Paqoc_circuit.Circuit.t;
}

(** [compile ?cache ?retry ~deadline req] compiles one request:
    resolve the circuit and device, transpile, dispatch on
    [req.scheme] through a fresh generator pinned to the device (so its
    pulses live under the device's cache namespace), and count this
    request's shared-cache hits and misses. [retry] is the fresh
    generator's synthesis retry policy (default
    {!Paqoc_pulse.Generator.default_retry}); it is not a request field
    because only in-process callers set it. [deadline] is an absolute
    {!Paqoc_obs.Clock} time forwarded to the pipeline's stage-boundary
    checks.
    @raise Paqoc_pulse.Protocol.Deadline_exceeded when the budget
    expires at a stage boundary.
    @raise Paqoc_pulse.Protocol.Bad_request on a request the compiler
    cannot serve (see above). *)
val compile :
  ?cache:Paqoc_pulse.Cache.t ->
  ?retry:Paqoc_pulse.Generator.retry ->
  deadline:float option ->
  Paqoc_pulse.Protocol.compile_request ->
  compiled

(** [handle ?cache ~deadline req] is [(compile ?cache ~deadline req).result]
    — the daemon's view of a compile. *)
val handle :
  ?cache:Paqoc_pulse.Cache.t ->
  deadline:float option ->
  Paqoc_pulse.Protocol.compile_request ->
  Paqoc_pulse.Protocol.compile_result

(** [handler ?cache ()] is {!handle} packaged as the server's callback
    ({!Paqoc_pulse.Server.handler}), closing over the daemon's shared
    cache. *)
val handler :
  ?cache:Paqoc_pulse.Cache.t -> unit -> Paqoc_pulse.Server.handler

(** {1 Variational sweeps}

    The daemon side of [compile-sweep]: resolve the symbolic benchmark,
    transpile it onto the resolved device ({!resolve_device}), freeze a
    {!Paqoc.Variational} compile plan — memoised across requests, keyed
    on circuit/grid/backend/anchors/device-hash, which is what makes a resident
    daemon worth connecting to for sweeps — and serve every iteration
    through {!Paqoc.Variational.recompile} with a fresh per-request
    generator against the shared cache. Requests sharing a plan
    serialise on it (plans are mutable: fallbacks adopt anchors);
    distinct plans run concurrently. *)

(** [sweep_handle ?cache ?plan_path ~deadline req] serves one sweep
    request. When [plan_path] is given it replaces the in-memory
    registry with the CLI's journaled plan-persistence sidecar: the plan
    is loaded from that file when it exists (a typed parse error fails
    the request with the offending line and reason), frozen otherwise,
    and re-saved after the sweep so fallback-adopted anchors persist
    across runs.
    @raise Paqoc_pulse.Protocol.Deadline_exceeded when the budget
    expires (checked at entry and before every iteration).
    @raise Paqoc_pulse.Protocol.Bad_request on an unresolvable request
    (unknown sweep benchmark or device, a circuit wider than its
    device, bad grid/anchors/tolerance).
    @raise Failure on a corrupt plan sidecar.
    @raise Paqoc.Variational.Unbound_parameters when an iteration's
    bindings miss a plan parameter. *)
val sweep_handle :
  ?cache:Paqoc_pulse.Cache.t ->
  ?plan_path:string ->
  deadline:float option ->
  Paqoc_pulse.Protocol.recompile_request ->
  Paqoc_pulse.Protocol.sweep_result

(** [sweep_handler ?cache ()] is {!sweep_handle} packaged as the
    server's [?sweep] callback ({!Paqoc_pulse.Server.sweep_handler}). *)
val sweep_handler :
  ?cache:Paqoc_pulse.Cache.t -> unit -> Paqoc_pulse.Server.sweep_handler

(** {1 Suite-table formatting}

    The exact bytes [compile-suite] prints, shared by the in-process and
    [--connect] paths so the two tables cannot drift. *)

(** The column-header line (includes the trailing newline). *)
val suite_header : string

(** [suite_row name r] — one benchmark row (trailing newline included).
    The hit-rate column is ["-"] when the request saw no cache. *)
val suite_row : string -> Paqoc_pulse.Protocol.compile_result -> string

(** [suite_totals ~synthesized ~hits ~misses] — the final totals line
    (trailing newline included). *)
val suite_totals : synthesized:int -> hits:int -> misses:int -> string

(** {1 Sweep-table formatting}

    The exact bytes [compile-sweep] prints, shared by the in-process and
    [--connect] paths so the two tables cannot drift. Rows carry no wall
    times — wall clock is the one thing the two paths legitimately
    disagree on. *)

(** The column-header line (includes the trailing newline). *)
val sweep_header : string

(** [sweep_row i it] — iteration [i]'s row (trailing newline included). *)
val sweep_row :
  int -> Paqoc_pulse.Protocol.sweep_iteration -> string

(** [sweep_totals s] — the final totals line (trailing newline
    included), summing the fast-path accounting over all iterations. *)
val sweep_totals : Paqoc_pulse.Protocol.sweep_result -> string
