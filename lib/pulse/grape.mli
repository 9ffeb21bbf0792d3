(** GRAPE — GRadient Ascent Pulse Engineering.

    Maximises the phase-insensitive gate fidelity
    [F = |Tr(U_target† U(T))|² / d²] over piecewise-constant control
    amplitudes, using the first-order GRAPE gradient
    [dU_j ≈ -i dt H_k U_j] with exact forward/backward propagator
    bookkeeping, and the ADAM optimiser (the paper's choice) on unbounded
    parameters squashed through [tanh] to respect per-channel amplitude
    bounds. *)

(** ADAM runs at a fixed step size of 0.08 on the squashed parameters. *)
type config = {
  max_iters : int;
  target_fidelity : float;  (** stop early once reached *)
  seed : int;  (** deterministic initial guess *)
}

val default_config : config

type result = {
  pulse : Pulse.t;
  fidelity : float;
  iterations : int;  (** gradient steps actually taken *)
  converged : bool;  (** reached [target_fidelity] *)
  injected : bool;
      (** the run was failed on purpose by an armed
          {!Faultin.Grape_diverge} — lets {!Duration_search} classify the
          resulting failure as [Injected_fault] rather than [Unreachable] *)
}

(** [optimize ?config ?init h ~target ~n_slices ~dt ()] runs GRAPE for the
    unitary [target] on the control problem [h]. [init], when given, seeds
    the amplitude envelope (resampled to [n_slices] as needed) — the warm
    start used for similar cached gates.
    @raise Invalid_argument when [target] does not match [h]'s dimension. *)
val optimize :
  ?config:config ->
  ?init:Pulse.t ->
  Hamiltonian.t ->
  target:Paqoc_linalg.Cmat.t ->
  n_slices:int ->
  dt:float ->
  unit ->
  result

(** {1 Allocation-free evaluation}

    The GRAPE hot path — one propagator/gradient evaluation per
    optimiser step — runs entirely on a preallocated {!Workspace}:
    after the workspace is built, an {!evaluate} call performs zero
    matrix allocation (test/test_kernels.ml pins a minor-heap budget on
    it). Slice assembly, each propagator's Padé products, the backward
    products and the gradient traces visit only the Hamiltonian's
    nonzero positions ({!Paqoc_linalg.Cmat.pattern}); with tanh-bounded,
    hence finite, amplitudes skipping an exact zero cannot move a bit,
    so every result rounds bit-identically to the dense formulation
    (pinned against a dense oracle in test/test_kernels.ml and by the
    amplitude golden). *)

module Workspace : sig
  (** Preallocated buffers for one control problem at a fixed slice
      count: per-slice propagators, forward products, the backward
      accumulator, amplitude/gradient planes and the {!Expm} scratch,
      plus the zero patterns of the Hamiltonian's control operators.
      The workspace owns every buffer; {!amps}/{!grad} expose planes
      that the next {!evaluate} overwrites, so callers must copy
      anything they keep. Single-threaded — give each domain its own. *)
  type t

  (** [create h ~n_slices] sizes every buffer for [h]'s dimension and
      control count and records [h] with its operators' nonzero
      positions; [h]'s operators must not change afterwards.
      @raise Invalid_argument when [n_slices <= 0]. *)
  val create : Hamiltonian.t -> n_slices:int -> t

  (** Amplitude plane [u = bound * tanh x] of the last {!evaluate}
      (borrowed, overwritten by the next call). *)
  val amps : t -> float array array

  (** Gradient plane d(fidelity)/dx of the last {!evaluate} (borrowed,
      overwritten by the next call). *)
  val grad : t -> float array array
end

(** [evaluate ?ws h target ~dt ~n_slices x] runs one GRAPE
    fidelity/gradient evaluation of the unconstrained parameters [x]
    ([n_slices] rows of [n_controls] entries) and returns the fidelity;
    amplitudes and gradient are left in the workspace. Without [ws], a fresh workspace is built and dropped —
    convenient, but the point is to pass one in.
    @raise Invalid_argument when [ws] was built for a Hamiltonian other
    than [h] (physical equality) or another slice count, or when
    [target] or [x] does not match the problem's dimensions. *)
val evaluate :
  ?ws:Workspace.t ->
  Hamiltonian.t ->
  Paqoc_linalg.Cmat.t ->
  dt:float ->
  n_slices:int ->
  float array array ->
  float

(** {1 Bit-determinism golden}

    GRAPE promises bitwise-reproducible pulses for a fixed seed — the
    pulse-database byte-determinism of the parallel batch API rests on it.
    The reference run pins that promise in [test/golden/grape_amplitudes.txt]
    (refreshed with [make update-golden]). *)

(** [reference_golden ()] runs a fixed 2-qubit CX optimisation and
    renders iterations, fidelity and amplitudes. *)
val reference_golden : unit -> string
