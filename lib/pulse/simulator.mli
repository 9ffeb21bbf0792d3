(** Pulse-level whole-circuit simulation (the QuTiP stand-in).

    Evolves state vectors through the concrete GRAPE pulses of every gate
    group of a compiled circuit and compares against the ideal circuit
    unitary, yielding the Table II "quality of execution" numbers. Process
    tomography at 2^n x 2^n is replaced by averaging state fidelity over a
    deterministic probe set (the all-zeros state, an alternating bit
    string, the uniform superposition, and seeded Haar-ish random states) —
    the paper itself only pulse-simulates a handful of benchmarks for the
    same cost reason. *)

(** [apply_local psi op ~wires ~n_qubits] applies the [2^k] operator [op]
    to the listed global wires of an [n_qubits]-qubit state. *)
val apply_local :
  Paqoc_linalg.Cvec.t ->
  Paqoc_linalg.Cmat.t ->
  wires:int list ->
  n_qubits:int ->
  Paqoc_linalg.Cvec.t

(** [ideal_state c psi0] applies the exact gate unitaries of [c]. *)
val ideal_state : Paqoc_circuit.Circuit.t -> Paqoc_linalg.Cvec.t -> Paqoc_linalg.Cvec.t

(** [pulse_state gen c psi0] evolves [psi0] through the pulses the QOC
    generator produces for each gate of [c] (each gate application is one
    pulse episode — run your grouping first so episodes match the compiled
    schedule).
    @raise Invalid_argument when [gen] is a model-backend generator (it has
    no waveforms). *)
val pulse_state :
  Generator.t -> Paqoc_circuit.Circuit.t -> Paqoc_linalg.Cvec.t -> Paqoc_linalg.Cvec.t

(** [probe_states ~n_qubits] is the deterministic probe set. *)
val probe_states : n_qubits:int -> Paqoc_linalg.Cvec.t list

(** [circuit_fidelity gen c] is the mean probe-state fidelity between
    pulse evolution and the ideal circuit. *)
val circuit_fidelity : Generator.t -> Paqoc_circuit.Circuit.t -> float

(** [process_fidelity gen c] is the exact process (trace) fidelity between
    the pulse-built whole-circuit propagator and the ideal unitary —
    ground truth for {!circuit_fidelity}'s probe-state approximation, at
    the cost of a dense [2^n x 2^n] build (capped at 6 qubits).
    @raise Invalid_argument beyond the cap or on a waveform-less
    backend. *)
val process_fidelity : Generator.t -> Paqoc_circuit.Circuit.t -> float

(** {1 Decoherence}

    The paper's motivation made quantitative: under a finite coherence
    time, a schedule's fidelity decays with its {e duration}, so the same
    circuit compiled to a shorter pulse schedule retains more fidelity.
    Noise is modelled as stochastic Pauli errors along the compiled
    schedule (a quantum-trajectory average): each qubit accrues an error
    probability [1 - exp(-t/T2)] over the time it spends busy or idle,
    with dephasing (Z) twice as likely as relaxation-like bit flips (X). *)

type noise = {
  t2 : float;  (** coherence time in device dt units *)
  trajectories : int;  (** Monte-Carlo samples (deterministic seeding) *)
  seed : int;
}

val default_noise : noise

(** [noisy_fidelity ?noise gen c] is the mean trajectory fidelity of [c]'s
    compiled schedule against the ideal circuit, with error locations
    driven by the schedule {!Pricing.price} gives it (episode starts and
    durations). Works on either backend — gates act ideally; only the
    timing and the noise are simulated. *)
val noisy_fidelity :
  ?noise:noise -> Generator.t -> Paqoc_circuit.Circuit.t -> float
