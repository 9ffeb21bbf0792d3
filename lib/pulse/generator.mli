(** The pulse-generation backend interface.

    Both AccQOC and PAQOC consume pulse generation through this one
    interface; the engine behind it is either the analytic
    {!Latency_model} (fast, used for the big sweeps) or the real
    {!Grape}+{!Duration_search} QOC stack (used for Fig 2, Table II, tests
    and examples). The generator also owns the paper's pulse database: a
    lookup table keyed on the canonical form of a gate group (so permuted-
    qubit repeats hit the cache) plus a shape-signature index that
    warm-starts GRAPE from a similar previously generated pulse, AccQOC
    style.

    The database is concurrency-safe: every entry point that touches the
    tables or the accounting takes the generator's internal mutex, so any
    number of domains may share one generator. Batches of independent
    groups go through {!generate_batch}, which synthesises on a {!Pool} of
    worker domains while guaranteeing the serial result. *)

(** A gate group over local wires [0 .. n_qubits-1] — the unit of pulse
    generation (a customized gate, an APA gate, or a single basis gate). *)
type group = { n_qubits : int; gates : Paqoc_circuit.Gate.app list }

(** [group_of_apps apps] renames the global qubits touched by [apps] into
    local first-appearance order, returning the canonical group and the
    global qubits in local-wire order. *)
val group_of_apps : Paqoc_circuit.Gate.app list -> group * int list

(** [key g] is the canonical cache key of a group (stable under qubit
    permutation thanks to {!group_of_apps} relabeling). *)
val key : group -> string

(** [shape_signature g] ignores rotation angles — groups with equal shapes
    are "similar" and share GRAPE initial guesses. *)
val shape_signature : group -> string

(** [token_distance a b] is the edit distance between two sequences of
    token codes (unit insertion, deletion and substitution costs). The
    nearest-shape warm start runs it over the interned [';']-separated
    tokens of two shape signatures, and AccQOC's generation order over
    per-gate tokens. *)
val token_distance : int array -> int array -> int

(** [token_codes table tokens] is [tokens] as the codes interned in
    [table]: a token met for the first time gets the next free code, so
    two tokens share a code exactly when they are equal. *)
val token_codes : (string, int) Hashtbl.t -> string list -> int array

(** How an outcome was obtained: [Synthesized] is the normal QOC (or
    model) path; [Fallback] means every synthesis attempt failed and the
    group was priced from its decomposed default-basis calibration pulses
    instead — a schedule always exists, at a latency penalty. The concrete
    type lives in {!Db_format} (persistence shares it with {!Cache}). *)
type provenance = Db_format.provenance = Synthesized | Fallback

type outcome = {
  latency : float;  (** pulse duration in device dt *)
  error : float;  (** per-group infidelity [ε] (for ESP) *)
  gen_seconds : float;  (** QOC cost charged for this request, including
                            the cost of any failed attempts *)
  cache_hit : bool;
  seeded : bool;  (** warm-started from a similar pulse *)
  fidelity : float;  (** achieved gate fidelity *)
  pulse : Pulse.t option;  (** concrete waveform (QOC backend only) *)
  provenance : provenance;
  attempts : int;  (** synthesis attempts spent (0 for cache/db entries) *)
}

type backend =
  | Model of Latency_model.config
      (** analytic engine; no waveforms, instant *)
  | Qoc of Duration_search.config * Latency_model.config
      (** real GRAPE; the model config prices search bounds *)

(** [hamiltonian_of g] is the control problem a QOC backend solves for
    group [g]: X/Y drives on every wire plus one exchange control per pair
    of wires that some (flattened) two-or-more-qubit gate of [g] couples.
    Exposed so the simulator propagates pulses under the exact Hamiltonian
    they were optimised against. Equivalent to
    [hamiltonian_for ~device:Paqoc_topology.Device.lattice]. *)
val hamiltonian_of : group -> Hamiltonian.t

(** [hamiltonian_for ~device g] is {!hamiltonian_of} calibrated to a
    registry device: the exchange controls are bounded by the device's
    {!Paqoc_topology.Device.synthesis_mu} and the X/Y drives by its
    {!Paqoc_topology.Device.drive_bound}. This is the Hamiltonian a
    generator with [set_device] applied synthesises against. *)
val hamiltonian_for : device:Paqoc_topology.Device.t -> group -> Hamiltonian.t

(** Per-task resilience policy. A failing synthesis is retried up to
    [max_attempts - 1] more times with deterministically perturbed restarts
    (GRAPE re-seeded from a fixed jitter seed; jittered, then dropped,
    warm start), then degrades to the decomposed-basis fallback.
    [task_seconds] bounds a whole task's wall clock (attempts past the
    deadline are skipped straight to fallback). Identical policies give
    identical results at any [jobs] count. *)
type retry = {
  max_attempts : int;  (** >= 1; 1 = no retries *)
  task_seconds : float option;  (** per-task wall-clock budget, > 0 *)
}

(** [{ max_attempts = 3; task_seconds = None }] *)
val default_retry : retry

type t

(** [create backend] is a fresh generator with no shared cache attached
    (see {!set_shared_cache}).
    @raise Invalid_argument when [retry.max_attempts < 1], or when
    [retry.task_seconds] is [Some s] and [s > 0.] does not hold (a
    negative, zero or NaN budget). *)
val create : ?retry:retry -> backend -> t

(** [model_default ()] is a generator over {!Latency_model.default}. *)
val model_default : ?retry:retry -> unit -> t

(** [qoc_default ()] is a real-GRAPE generator with bench-friendly search
    settings. *)
val qoc_default : ?retry:retry -> unit -> t

(** [pricing_is_analytic t] is [true] on the {!Model} backend, where
    pricing a group is a closed-form evaluation (microseconds) rather
    than a GRAPE run (seconds). It tells a caller whether a price comes
    with a waveform: the pulse-IR export labels its backend by it, and a
    variational sweep prices an angle exactly by direct lookup instead
    of interpolating between anchor waveforms. *)
val pricing_is_analytic : t -> bool

(** {1 The shared cross-run cache}

    A generator may be attached to a {!Cache} shared by any number of
    compilations (and, through its journal file, by past and future
    runs). The consult order is: this generator's own tables first, then
    the shared cache — a shared hit is imported into the local tables
    (as {!load_database} would have) and skips synthesis entirely,
    counting one [cache.hit]; a local synthesis publishes its priced
    entry and shape signature back (fallback outcomes are never
    published — a degraded run must not poison the shared cache). A
    failed publish (e.g. a journal-append I/O error) degrades
    persistence only: it counts [cache.publish_error] and the compile
    proceeds. *)

(** [set_shared_cache t c] attaches ([Some]) or detaches ([None]) the
    shared cache consulted by subsequent generations. The creator of a
    generator configures it: every product compile builds a fresh
    generator, attaches its cache, and drops the generator after one
    compile. *)
val set_shared_cache : t -> Cache.t option -> unit

(** {1 Devices}

    A generator synthesises for exactly one calibrated device
    ({!Paqoc_topology.Device}), default {!Paqoc_topology.Device.lattice}
    — the paper's 5x5 uniform lattice, whose behaviour (Hamiltonian
    bounds, cache keys and bytes) is identical to the pre-registry code.
    For any other device, every QOC Hamiltonian is built from the
    device's calibrated [synthesis_mu]/[drive_bound], and every shared-
    cache key (entries, shapes, class records) is prefixed with the
    device's ["dev:<hash>|"] namespace
    ({!Paqoc_topology.Device.cache_namespace}) so pulses never leak
    across devices — including across {!Paqoc_topology.Drift} epochs of
    the same device, whose hashes differ. *)

(** [set_device t d] selects the device subsequent generations
    synthesise for. Must not race an in-flight {!generate_batch}. *)
val set_device : t -> Paqoc_topology.Device.t -> unit

val device : t -> Paqoc_topology.Device.t

(** {1 Canonicalization (equivalence-class replay)}

    With {!set_canonical} on and a shared cache attached, the shared
    consult gains a class tier: the exact key first and, on miss, the
    group's {!Paqoc_canon.Canon.class_key} — a class record in the
    shared cache ({!Cache.probe_class}), then a class-mate planned
    earlier in the same batch. Groups whose unitaries differ only by
    single-qubit local rotations (and global phase) replay the class
    representative's pulse instead of synthesising. A class-tier hit is
    accepted only after {!Paqoc_canon.Canon.relate} reconstructs and
    verifies the local-frame correction; it imports the
    representative's price under the requester's key (latency and trace
    fidelity are local-frame invariants) and counts
    [cache.canonical_hit] on top of [cache.hit]
    ({!Cache.note_consult}). A dangling class record (its
    representative's entry missing) or a failed [relate] falls through
    to the next source, and then to one [cache.miss]. Synthesised pulses
    additionally publish their class record ({!Cache.publish_class}).
    With canonicalization off (the default) the consult, its counters
    and every byte the cache persists are identical to the exact-only
    path. See [docs/canonicalization.md]. *)

(** [set_canonical t b] enables/disables the equivalence-class tier for
    subsequent generations. *)
val set_canonical : t -> bool -> unit

(** A class-tier replay taken by this generator, recorded for audit:
    [correction_l . U_rep . correction_r = U_target] up to global phase,
    verified to {!Paqoc_canon.Canon.verify_tol} in max norm at plan
    time. [rep_pulse] is the representative's waveform when this run
    synthesised it (the persistent cache stores no waveforms). *)
type replay = {
  rep_key : string;  (** exact key whose pulse was borrowed *)
  correction_l : Paqoc_linalg.Cmat.t;  (** left local correction *)
  correction_r : Paqoc_linalg.Cmat.t;  (** right local correction *)
  rep_pulse : Pulse.t option;
  target : Paqoc_linalg.Cmat.t;  (** the requesting group's unitary *)
}

(** [canonical_replays t] lists every class-tier hit taken since
    creation, as [(requesting key, replay)], sorted by key. *)
val canonical_replays : t -> (string * replay) list

(** [generate t g] prices (and, on the QOC backend, synthesises) the pulse
    for group [g], consulting and updating the pulse database. Atomic:
    the whole call holds the generator's mutex, so concurrent callers
    never synthesise the same group twice. *)
val generate : t -> group -> outcome

(** [generate_batch ~jobs t groups] generates every group of the batch,
    fanning independent syntheses out across [jobs] worker domains
    (default 1 = fully serial, equivalent to [List.map (generate t)]).

    {b Determinism guarantee}: the batch is planned up front by replaying
    the serial loop's warm-start decisions over keys and shape signatures
    (both known before any synthesis), so every task is seeded by exactly
    the provider the serial run would have used; outcomes are committed to
    the database in input order. A run with [jobs = 4] therefore produces
    the same outcomes, the same priced entries and latencies, the same
    accounting (up to QOC wall-clock seconds) and a byte-identical
    {!save_database} file as the serial run — [jobs] only changes
    wall-clock time. The guarantee assumes no concurrent mutation of [t]
    while the batch is in flight (concurrent use stays memory-safe, only
    the serial-equivalence claim is void). *)
val generate_batch : ?jobs:int -> t -> group list -> outcome list

(** [peek t g] consults the pulse database without generating anything and
    without touching the accounting; [None] when [g]'s pulse has not been
    generated yet. The criticality search schedules with
    [peek]-or-{!estimate_latency} ({!Pricing.episode_latency_estimate})
    so that, per Algorithm 1, QOC runs only for committed merges. *)
val peek : t -> group -> outcome option

(** [estimate_latency t g] is a free model-based latency estimate — the
    quantity the criticality search uses when Observations 1/2 let it skip
    pulse generation. Never touches the cache or the cost accounting. *)
val estimate_latency : t -> group -> float

(** [estimate_latency_of_key t g k] is [estimate_latency t g] for a
    caller that already rendered [k = key g]: the estimate's jitter is
    keyed on that string, so the value is the same and the key is not
    rendered twice. *)
val estimate_latency_of_key : t -> group -> string -> float

(** [avg_latency_for_size t nq] is the corpus-average merged latency for an
    [nq]-qubit customized gate (the paper's Observation-2 estimate for
    size-growing merges). Free, like {!estimate_latency}. *)
val avg_latency_for_size : t -> int -> float

(** {1 Prices and the write log}

    An episode's price is the latency of its pulse-table row when the
    table has one, and the model estimate otherwise. The table is the
    one source of every price: the criticality engine prices each key
    once, when it first meets it, and re-reads from the table only the
    keys the write log names. *)

(** [table_latency t k] is the latency of the pulse-table row under
    canonical key [k] (as {!key} renders it), [None] when the table has
    no such row. Never synthesises; never touches the accounting. *)
val table_latency : t -> string -> float option

(** [price_epoch t] counts pulse-database writes since creation. Prices
    read at an unchanged epoch are still current. *)
val price_epoch : t -> int

(** [written_since t e] lists, oldest first, the key of every
    pulse-database write that moved {!price_epoch} past [e] (a key
    written twice appears twice). Only those keys' prices can differ
    from what they were at epoch [e], so a caller holding prices from
    epoch [e] re-reads just those keys. *)
val written_since : t -> int -> string list

(** {1 Accounting} *)

val total_seconds : t -> float

(** [(cold, prefix, shape, similar)] counts of generation warm-start
    classes since creation (diagnostics). *)
val seed_breakdown : t -> int * int * int * int
val pulses_generated : t -> int
val cache_hits : t -> int

(** Groups that degraded to the decomposed-basis fallback since creation
    (or the last {!reset_accounting}). *)
val fallbacks : t -> int

(** [reset_accounting t] zeroes counters (seconds, generated, hits,
    fallbacks) but keeps the pulse database (the paper's offline/online
    split: APA pulses generated offline stay available to later
    compilations at lookup cost). *)
val reset_accounting : t -> unit

(** {1 Persistence}

    The offline component of the paper persists its pulse table across
    compilations. [save_database] writes the priced entries (canonical
    key, latency, error, fidelity, provenance) and the known shape
    signatures as a line-oriented text file; [load_database] merges such a
    file into a generator so subsequent compiles hit the table. Waveforms
    are not persisted — a QOC backend regenerates them on demand
    (warm-started, since the shapes are known). Files are written in
    sorted key order, so the bytes are a canonical function of the
    database contents. The current snapshot format is
    ["paqoc-pulse-db v2"]; [load_database] also accepts v1 files (no
    provenance token) and the journaled ["paqoc-pulse-db v3"] files the
    shared {!Cache} maintains. See {!Db_format} for the byte-level
    specification. *)

(** Writes a v2 snapshot through {!Db_format.write}.
    @raise Failure on an I/O error (including an armed
    {!Faultin.Db_save_error}); the target file is never left truncated. *)
val save_database : t -> string -> unit

(** @raise Failure on a malformed or unreadable file. *)
val load_database : t -> string -> unit

(** Number of priced entries currently in the database. *)
val database_size : t -> int
