(** The device registry: named quantum devices with per-edge coupling
    strengths, per-qubit calibration data and a canonical content hash.

    Everything upstream of this module used to target one hard-coded
    transmon lattice (the paper's 5x5 grid with uniform coupling
    [mu = 0.02] and drive bound [5 mu]). A {!t} generalises that into a
    value: a {!Coupling} graph, one coupling strength per edge, one
    {!qubit_cal} record per qubit, and a {!hash} — an MD5 over the
    canonical [%.17g] serialisation of every physical parameter (the
    name is deliberately excluded, so two devices with identical physics
    hash identically).

    The hash is what keeps the shared pulse {!Paqoc_pulse.Cache} honest
    across devices: {!cache_namespace} prefixes every shared-cache key
    with ["dev:<hash>|"], so a pulse synthesised for one device can
    never be replayed on another — and a {!Drift}-perturbed device,
    whose hash necessarily differs, can never replay its own stale
    pulses. The paper's lattice (and any plain [grid], which carries the
    same uniform calibration) namespaces to the empty string, keeping
    every pre-registry cache file byte-identical.

    See [docs/devices.md] for the registry model and the calibration
    tables of the four built-in devices. *)

(** Per-qubit calibration. [anharmonicity] (GHz, negative for
    transmons) is carried as recalibration metadata: the two-level
    synthesis model does not consume it, but it participates in the
    {!hash}, so an anharmonicity-only recalibration still invalidates
    cached pulses. [drive_bound] is the per-qubit X/Y drive-amplitude
    ceiling the optimiser must respect. *)
type qubit_cal = { anharmonicity : float; drive_bound : float }

(** A calibrated device. [edge_mu] lists one exchange-coupling strength
    per coupling-graph edge, sorted with [a < b] within an edge and
    edges in lexicographic order — the canonical order the {!hash}
    serialises. [qubits] has one calibration record per physical qubit. *)
type t = private {
  name : string;
  description : string;
  coupling : Coupling.t;
  edge_mu : ((int * int) * float) list;
  qubits : qubit_cal array;
  hash : string;
  namespace : string;
}

(** The only way to build a {!t} ([private], so [hash] and [namespace]
    always match the calibration): copies [qubits], so the caller's array
    cannot stale the hash, then computes [hash] and [namespace] once. *)
val make : name:string -> description:string -> coupling:Coupling.t ->
  edge_mu:((int * int) * float) list -> qubits:qubit_cal array -> t

(** {1 Calibration constants}

    The single source of the numbers that were previously duplicated
    between [Hamiltonian] and the GRAPE bounds handling. *)

(** The paper's uniform exchange-coupling strength (0.02). *)
val default_mu : float

(** Drive-amplitude ceiling as a multiple of the coupling strength
    (5.0): a device's default per-qubit drive bound is
    [drive_ratio *. default_mu]. *)
val drive_ratio : float

(** {1 The registry} *)

(** The paper's evaluation platform: the 5x5 nearest-neighbour lattice
    with uniform calibration. This is the default device everywhere,
    and the one whose {!cache_namespace} is the empty string. *)
val lattice : t

(** IBM heavy-hexagon lattice of code distance 5 (55 qubits, the
    Eagle/Heron topology) with per-edge calibrated couplings. *)
val heavy_hex : t

(** 6x6 nearest-neighbour grid (36 qubits) with per-edge calibrated
    couplings. *)
val square : t

(** 25-qubit ring with per-edge calibrated couplings. *)
val ring : t

(** The four built-in devices, in registry order:
    [lattice; heavy-hex; square; ring]. *)
val all : t list

(** [find name] looks a built-in device up by name. *)
val find : string -> t option

(** [grid ~rows ~cols] is an ad-hoc rows x cols lattice with the same
    uniform calibration as {!lattice} — [grid ~rows:5 ~cols:5] hashes
    identically to {!lattice}. This is what a bare ["RxC"] [--device]
    spec resolves to. *)
val grid : rows:int -> cols:int -> t

(** {1 Accessors} *)

val name : t -> string
val coupling : t -> Coupling.t
val n_qubits : t -> int

(** [synthesis_mu d] is the coupling strength the pulse synthesiser
    optimises against: the minimum over [d]'s calibrated edges (the
    conservative choice — a pulse feasible at the weakest coupling is
    feasible everywhere). Exactly {!default_mu} on {!lattice}/{!grid}. *)
val synthesis_mu : t -> float

(** [drive_bound d] is the X/Y drive ceiling the synthesiser respects:
    the minimum per-qubit [drive_bound] over [d]'s qubits. Exactly
    [drive_ratio *. default_mu] on {!lattice}/{!grid}. *)
val drive_bound : t -> float

(** {1 Content hash} *)

(** [hash d] is the canonical content hash (32 hex chars): MD5 over the
    [%.17g] serialisation of qubit count, sorted edges with their
    coupling strengths, and per-qubit calibration. The name and
    description are excluded. Any calibration change — including a
    {!Drift} epoch — changes the hash. A field read (computed in {!make}). *)
val hash : t -> string

(** [cache_namespace d] is the prefix every shared-cache key for [d]
    carries: [""] when [d] hashes identically to {!lattice} (the
    pre-registry byte-compat guarantee), ["dev:<hash>|"] otherwise. *)
val cache_namespace : t -> string
