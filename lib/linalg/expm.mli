(** Matrix exponentials.

    GRAPE builds each time-slice propagator as [exp(-i dt H)]; this module
    provides a Padé(6) scaling-and-squaring exponential for general complex
    matrices, which is accurate to near machine precision for the small,
    well-conditioned Hamiltonians PAQOC produces. *)

(** [expm m] is [e^m] for a square complex matrix. *)
val expm : Cmat.t -> Cmat.t

(** [expm_i_h ~dt h] is [exp(-i * dt * h)], the unitary propagator of the
    Hermitian matrix [h] over time step [dt]. *)
val expm_i_h : dt:float -> Cmat.t -> Cmat.t

(** {1 Allocation-free variant}

    The in-place exponential runs the exact same scaling-and-squaring
    steps as {!expm} on preallocated scratch, producing bit-identical
    results with zero matrix allocation — the kernel under GRAPE's
    per-iteration propagator builds. It records the scaled input's
    nonzero pattern once per call and runs the six Padé products over
    those nonzeros only ({!Cmat.mul_nz_into}); skipping an exact zero
    cannot move a bit on finite input (see {!Cmat} "Zero patterns"),
    which is the contract. *)

module Workspace : sig
  (** Scratch matrices for one exponential of a fixed dimension. A
      workspace owns its buffers and is single-threaded: give each domain
      its own. Contents are unspecified between calls. *)
  type t

  (** [create dim] preallocates scratch for [dim x dim] exponentials. *)
  val create : int -> t

  val dim : t -> int
end

(** [expm_into ws src ~dst] writes [e^src] into [dst] using [ws]'s
    scratch; bit-identical to {!expm} on finite input. [src] is left
    untouched (it may alias the staging buffer a previous call used).
    @raise Invalid_argument when [src] or [dst] does not match [ws]'s
    dimension. *)
val expm_into : Workspace.t -> Cmat.t -> dst:Cmat.t -> unit

(** [expm_i_h_into ws ~dt h ~dst] writes [exp(-i * dt * h)] into [dst];
    bit-identical to {!expm_i_h} on finite input. *)
val expm_i_h_into : Workspace.t -> dt:float -> Cmat.t -> dst:Cmat.t -> unit
