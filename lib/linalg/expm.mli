(** Matrix exponentials.

    GRAPE builds each time-slice propagator as [exp(-i dt H)]; this module
    provides a Padé(6) scaling-and-squaring exponential for general complex
    matrices, which is accurate to near machine precision for the small,
    well-conditioned Hamiltonians PAQOC produces.

    The exponential runs in place on preallocated scratch, with zero
    matrix allocation — the kernel under GRAPE's per-iteration
    propagator builds and [Pulse.propagator]'s slice loop. It records
    the scaled input's nonzero pattern once per call and runs the six
    Padé products over those nonzeros only ({!Cmat.mul_nz_into});
    skipping an exact zero cannot move a bit on finite input (see
    {!Cmat} "Zero patterns"), so the result equals, bit for bit, the
    dense Padé loop test/reference_linalg.ml keeps as the oracle
    (test/test_kernels.ml pins it). *)

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
    scratch. [src] is left untouched (it may alias the staging buffer a
    previous call used).
    @raise Invalid_argument when [src] or [dst] does not match [ws]'s
    dimension. *)
val expm_into : Workspace.t -> Cmat.t -> dst:Cmat.t -> unit

(** [expm_i_h_into ws ~dt h ~dst] writes [exp(-i * dt * h)], the unitary
    propagator of the Hermitian matrix [h] over time step [dt], into
    [dst].
    @raise Invalid_argument as {!expm_into}. *)
val expm_i_h_into : Workspace.t -> dt:float -> Cmat.t -> dst:Cmat.t -> unit
