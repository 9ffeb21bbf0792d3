(** Dense complex vectors (quantum state vectors).

    Same split real/imaginary representation as {!Cmat}; used by the pulse
    simulator to evolve states under time-dependent Hamiltonians without
    building full propagators. *)

type t

(** [create n] is the zero vector of dimension [n]. *)
val create : int -> t

(** [init n f] fills entry [k] with [f k]. *)
val init : int -> (int -> Cx.t) -> t

(** [basis ~dim k] is the computational basis state [|k>]. *)
val basis : dim:int -> int -> t

val dim : t -> int
val get : t -> int -> Cx.t
val set : t -> int -> Cx.t -> unit
val of_list : Cx.t list -> t

(** [dot a b] is the Hermitian inner product [<a|b>] (conjugate-linear in
    [a]). *)
val dot : t -> t -> Cx.t

val norm : t -> float

(** [normalize v] scales [v] to unit norm.
    @raise Failure on the zero vector. *)
val normalize : t -> t

(** [apply m v] is the matrix-vector product [m v]. *)
val apply : Cmat.t -> t -> t

(** [kron a b] is the tensor product state. *)
val kron : t -> t -> t

(** [overlap2 a b] is [|<a|b>|^2], the state fidelity for pure states. *)
val overlap2 : t -> t -> float
