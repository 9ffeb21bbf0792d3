(** Quantum circuits: an ordered list of gate applications on [n] qubits. *)

type t = { n_qubits : int; gates : Gate.app list }

(** {1 Construction} *)

(** [empty n] is the [n]-qubit circuit with no gates. *)
val empty : int -> t

(** [make ~n_qubits gates] validates every operand index. *)
val make : n_qubits:int -> Gate.app list -> t

(** [add c g] appends a gate. *)
val add : t -> Gate.app -> t

(** [append a b] concatenates circuits on the same register.
    @raise Invalid_argument if qubit counts differ. *)
val append : t -> t -> t

(** {1 Stats} *)

val n_gates : t -> int

(** Number of 1-qubit gate applications. *)
val n_1q : t -> int

(** Number of gate applications on two or more qubits. *)
val n_2q : t -> int

(** Circuit depth (gates on disjoint qubits count as one layer). *)
val depth : t -> int

(** {1 Transformations} *)

(** [map_qubits f c ~n_qubits] relabels wires through [f]. *)
val map_qubits : (int -> int) -> t -> n_qubits:int -> t

(** [bind_params bindings c] substitutes parameter symbols throughout. *)
val bind_params : (string * float) list -> t -> t

val is_symbolic : t -> bool

(** [free_params c] is the sorted set of parameter names the circuit's
    symbolic angles reference — the bindings a full {!bind_params} must
    supply. *)
val free_params : t -> string list

(** [flatten c] inlines every [Custom] gate body (recursively), yielding a
    circuit of primitive gates only. *)
val flatten : t -> t

(** [dagger c] is the inverse circuit. *)
val dagger : t -> t

(** {1 Semantics} *)

(** [unitary c] is the [2^n] square unitary of the circuit (small circuits
    only; raises on symbolic parameters). *)
val unitary : t -> Paqoc_linalg.Cmat.t

(** [equivalent ?tol a b] compares circuit unitaries up to global phase. *)
val equivalent : ?tol:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
