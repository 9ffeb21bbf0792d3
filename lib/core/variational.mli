(** Offline/online compilation for variational algorithms (the paper's
    fifth contribution, cf. Gokhale et al.'s partial compilation).

    VQE / QAOA execute the same parameterised circuit for many parameter
    vectors. PAQOC's split: the {e offline} phase mines the frequent
    subcircuits of the {e symbolic} circuit (angle-blind labels make this
    possible before any parameter is known) and fixes the APA-basis
    substitution; each {e online} iteration binds that iteration's
    parameters and runs only the criticality search plus pulse generation
    for the groups, against a pulse database that persists across
    iterations — so later iterations are substantially cheaper.

    On top of that split sits the {e parametric fast path}: {!freeze} runs
    the grouping search once on the symbolic circuit and synthesises
    anchor pulses at a seeded angle grid; {!recompile} then serves each
    sweep iteration by table lookup and amplitude interpolation between
    bracketing anchors, falling back to real synthesis (published to the
    generator's shared cache and adopted as a new anchor) whenever the
    predicted-vs-resimulated trace-fidelity drift exceeds the tolerance.
    See [docs/variational.md]. *)

(** Raised by {!compile}, {!recompile} and {!recompile_full} when the
    supplied bindings leave parameters free; carries the sorted missing
    parameter names. *)
exception Unbound_parameters of string list

type prepared

(** [prepare ?scheme symbolic] runs the offline phase on a (typically
    symbolic) circuit. The scheme's APA mode governs how many mined
    patterns become APA gates (default [paqoc_minf] with support 2 —
    variational ansätze repeat their blocks within one circuit). *)
val prepare : ?scheme:Framework.scheme -> Paqoc_circuit.Circuit.t -> prepared

(** [apa_gates p] — the APA-basis gates fixed offline. *)
val apa_gates : prepared -> (string * Paqoc_mining.Pattern.t) list

(** [compile p gen bindings] — one online iteration: bind the parameters
    and compile. Reuse the same [gen] across iterations to amortise the
    pulse database (its accounting deltas give the per-iteration cost).
    @raise Unbound_parameters if some parameter is left unbound. *)
val compile :
  prepared ->
  Paqoc_pulse.Generator.t ->
  (string * float) list ->
  Framework.report

(** {1 The frozen compile plan} *)

(** A priced slot outcome, as frozen into the plan (the persisted subset
    of {!Paqoc_pulse.Generator.outcome}). *)
type priced = {
  latency : float;
  error : float;
  fidelity : float;
  provenance : Paqoc_pulse.Generator.provenance;
}

(** A frozen compile plan: the group structure the criticality search
    settled on, plus per angle-dependent group an anchor-pulse table.
    Plans are mutable only in one way — a fallback synthesis adopts its
    result as a new anchor. *)
type plan

val plan_params : plan -> string list

(** The seeded anchor grid {!freeze} synthesised at (sorted ascending;
    adopted fallback anchors are per-slot and not reflected here). *)
val plan_anchor_values : plan -> float list

(** [(static, param, multi)] slot counts: angle-free slots, slots bound to
    exactly one free parameter (anchor-interpolated), and slots mixing
    several parameters (resynthesised each iteration). *)
val plan_slot_kinds : plan -> int * int * int

(** [freeze ?anchors ?jobs p gen] runs the full pipeline once on the
    symbolic circuit — APA substitution came with [p]; the Observation-1
    preprocessing and the criticality search run on an analytic twin
    (only the model backend can price symbolic groups) — then synthesises
    through [gen], as one {!Paqoc_pulse.Generator.generate_batch}, every
    angle-free group and [anchors] (default 5, min 2) anchor pulses per
    single-parameter group over an even [0, 2pi] grid. The plan is a pure
    function of the circuit and [anchors] at any [jobs].
    @raise Invalid_argument when [anchors < 2]. *)
val freeze :
  ?anchors:int -> ?jobs:int -> prepared -> Paqoc_pulse.Generator.t -> plan

(** One interpolated waveform of an iteration, kept re-simulatable: the
    differential battery replays [check_pulse] under
    [Generator.hamiltonian_of check_group] and holds the result against
    [measured] (and [measured] against [predicted]). *)
type check = {
  check_key : string;
  check_group : Paqoc_pulse.Generator.group;
  check_pulse : Paqoc_pulse.Pulse.t;
  predicted : float;  (** anchor-interpolated trace fidelity *)
  measured : float;  (** re-simulated trace fidelity *)
}

(** One sweep iteration's result. [rows] lists each slot's canonical key
    and price in slot order (deduplicated by key — equal keys price
    identically); latency and ESP price those rows through the same
    dependence-DAG schedule {!Paqoc_pulse.Pricing} uses. *)
type iteration = {
  latency : float;
  esp : float;
  interp : int;  (** slots served by the anchor table / interpolation *)
  fallback : int;  (** slots that fell back to real synthesis *)
  resynth : int;  (** multi-parameter slots, resynthesised by design *)
  rows : (string * priced) list;
  checks : check list;
}

(** [recompile ?interp_tol plan gen ~angles] — one fast-path iteration:
    bind [angles], serve each slot from the frozen plan. Exact anchor
    angles return the anchor outcome unchanged (and are byte-identical to
    a fresh synthesis — {!recompile_full} pins this). Other angles
    interpolate amplitudes between the bracketing anchors; the
    interpolated pulse is re-simulated and accepted only when
    |predicted - measured| <= [interp_tol] (default 1e-6), so every
    accepted interpolation satisfies the drift bound by construction.
    Hull violations, missing waveforms (analytic anchors price any angle
    in closed form instead) and drift violations fall back to real
    synthesis through [gen] — publishing to its shared cache, if any —
    and adopt the result as a new anchor.
    @raise Unbound_parameters when [angles] misses a plan parameter. *)
val recompile :
  ?interp_tol:float ->
  plan ->
  Paqoc_pulse.Generator.t ->
  angles:(string * float) list ->
  iteration

(** [recompile_full plan gen ~angles] — the oracle the fast path is held
    against: bind [angles] into the frozen group structure and synthesise
    every slot afresh through [gen] (one [generate_batch]), priced
    through the same schedule as {!recompile}. At an exact anchor angle
    the fast path's iteration equals this one bitwise (model backend; the
    QOC backend adds wall-clock-free but GRAPE-deterministic synthesis).
    @raise Unbound_parameters when [angles] misses a plan parameter. *)
val recompile_full :
  ?jobs:int ->
  plan ->
  Paqoc_pulse.Generator.t ->
  angles:(string * float) list ->
  iteration

(** [sweep_angles ?seed ~n params] — the deterministic sweep generator
    shared by the CLI, the bench harness, the golden table and the tests:
    [n] binding vectors, each drawing one uniform angle in [0, 2pi) per
    parameter from a per-iteration seeded PRNG. *)
val sweep_angles :
  ?seed:int -> n:int -> string list -> (string * float) list list

(** {1 Plan persistence ("paqoc-plan v1")}

    A line-oriented sidecar format: magic line, [Q]/[P]/[V]/[N] header
    lines, then per slot an [S]/[R]/[M] record with [O] outcome lines,
    [A] anchor values and optional [W] waveform lines. Floats render as
    [%h] hex literals, so a parse is exact and save/load/save round-trips
    byte-for-byte; the reader refuses a non-finite number ([inf], [nan],
    [1e999]) in a [V], [A], [O] or [W] field, which the writer never
    writes. See [docs/variational.md] for the grammar. *)

(** A typed parse failure: the 1-based line and a reason. [line = 0]
    flags an I/O-level failure (unreadable file). *)
type parse_error = { line : int; reason : string }

(** [plan_to_string plan] renders the canonical plan bytes ({!save_plan}
    writes exactly this string). *)
val plan_to_string : plan -> string

val plan_of_string : string -> (plan, parse_error) result

(** [save_plan plan path] writes {!plan_to_string} through
    {!Paqoc_obs.Atomic_file.write}; the target is never left truncated.
    @raise Failure naming [path] on an I/O error. *)
val save_plan : plan -> string -> unit

val load_plan : string -> (plan, parse_error) result
