(** Logical-to-physical qubit assignments, mutated by SWAP insertion during
    routing. *)

type t

(** [trivial ~n_logical ~n_physical] maps logical qubit [i] to physical
    qubit [i].
    @raise Invalid_argument when the device is too small. *)
val trivial : n_logical:int -> n_physical:int -> t

(** [of_array l2p ~n_physical] uses an explicit assignment. *)
val of_array : int array -> n_physical:int -> t

val copy : t -> t
val n_logical : t -> int
val n_physical : t -> int

(** [phys t l] is the physical qubit currently holding logical [l]. *)
val phys : t -> int -> int

(** [log t p] is the logical qubit at physical [p], or [-1] for an
    unoccupied physical qubit. *)
val log : t -> int -> int

(** [swap_physical t a b] exchanges whatever sits on physical qubits [a]
    and [b]. *)
val swap_physical : t -> int -> int -> unit
