(** Piecewise-constant control pulses.

    A pulse is a matrix of control amplitudes: [slices] time steps of width
    [dt] (device time units), one amplitude per control channel of the
    Hamiltonian it was optimised against. The paper's per-gate "latency" is
    this pulse's duration in dt. *)

type t = {
  dt : float;  (** slice width in device dt units *)
  amplitudes : float array array;  (** [slices][n_controls] *)
}

(** [make ~dt ~slices ~n_controls] is the all-zero pulse.
    @raise Invalid_argument on non-positive sizes. *)
val make : dt:float -> slices:int -> n_controls:int -> t

val slices : t -> int
val n_controls : t -> int

(** Total duration in device dt units ([slices * dt]). *)
val duration : t -> float

(** [clamp h p] clips every amplitude to its channel bound in [h]. *)
val clamp : Hamiltonian.t -> t -> t

(** [propagator h p] is the time-ordered product of slice propagators
    [exp(-i dt H(u_j))], each slice multiplied in on the left: the
    unitary the pulse implements. It runs GRAPE's in-place kernels
    ({!Hamiltonian.at_into}, [Expm.expm_i_h_into], [Cmat.mul_into]) over
    one workspace, so its amplitudes and [dt] must be finite (see
    {!Hamiltonian.at_into}).
    @raise Invalid_argument when a slice's amplitude count differs from
    [h]'s control count. *)
val propagator : Hamiltonian.t -> t -> Paqoc_linalg.Cmat.t

(** [resample p ~slices] linearly interpolates the amplitude envelope onto
    a new slice count — used to recycle a cached pulse as the initial guess
    for a different duration (the AccQOC-style warm start). *)
val resample : t -> slices:int -> t

(** [max_amplitude p] is the largest |amplitude| across the pulse. *)
val max_amplitude : t -> float

(** [to_csv h p] renders the waveform as CSV: one row per slice, one
    column per control channel (labelled from [h]), durations in device
    dt — ready for external plotting. *)
val to_csv : Hamiltonian.t -> t -> string

val pp : Format.formatter -> t -> unit
