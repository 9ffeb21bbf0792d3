(** Device Hamiltonian model.

    The control problem follows the paper's platform: a transmon lattice
    with XY (exchange) two-qubit interaction, a two-qubit control-field
    bound [mu_max] and single-qubit drives five times stronger. In the
    rotating frame the drift vanishes and

    [H(t) = sum_k u_k(t) H_k],  [|u_k| <= bound_k]

    with one X and one Y drive per qubit ([sigma/2]) and one
    [(XX + YY)/2] exchange term per coupled pair.

    Units: time is measured in device [dt]; amplitudes in rad/dt. The
    default [mu_max = 0.02 rad/dt] puts a GRAPE-optimised CX near the
    ~110 dt the paper reports. *)

type control = {
  label : string;
  op : Paqoc_linalg.Cmat.t;  (** Hermitian control operator *)
  bound : float;  (** max |amplitude| in rad/dt *)
}

type t = {
  n_qubits : int;
  dim : int;  (** [2^n_qubits] *)
  drift : Paqoc_linalg.Cmat.t;
  controls : control array;
}

(** Default two-qubit control bound, rad/dt — single-sourced from
    {!Paqoc_topology.Device.default_mu} so registry devices and the
    optimizer bounds cannot disagree. *)
val mu_max : float

(** Single-qubit drive bound:
    [Paqoc_topology.Device.drive_ratio *. mu_max], per the paper's
    setup. *)
val drive_max : float

(** [make ~n_qubits ~coupled_pairs] builds the control problem for a gate
    group: X and Y drives on every qubit, an XY exchange control on each
    listed pair (local indices). [mu] bounds the exchange controls;
    [drive_bound] bounds the X/Y drives (default
    [Paqoc_topology.Device.drive_ratio *. mu] — override it with a
    registry device's calibrated {!Paqoc_topology.Device.drive_bound}).
    @raise Invalid_argument on out-of-range pairs. *)
val make :
  ?mu:float ->
  ?drive_bound:float ->
  n_qubits:int ->
  coupled_pairs:(int * int) list ->
  unit ->
  t

val n_controls : t -> int

(** [at_into h ~nz amps ~dst] assembles the slice Hamiltonian
    [H = drift + sum_k amps.(k) * H_k] into a preallocated [dst]
    ([dim x dim]), allocation-free — the per-slice assembly of GRAPE and
    [Pulse.propagator]. A zero amplitude adds nothing, and control [k]
    is added only at the positions [nz.(k)] lists, which must cover its
    operator's nonzeros ({!Paqoc_linalg.Cmat.nonzeros}). The result is
    bit-identical to the dense sum (test/reference_linalg.ml) for finite
    amplitudes when [h.drift] holds no [-0.0] entry; {!make} builds the
    drift as all [+0.0].
    @raise Invalid_argument on amplitude-count, pattern-count or
    dimension mismatch. *)
val at_into :
  t ->
  nz:Paqoc_linalg.Cmat.pattern array ->
  float array ->
  dst:Paqoc_linalg.Cmat.t ->
  unit
