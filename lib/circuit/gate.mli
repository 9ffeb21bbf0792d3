(** Quantum gates and gate applications.

    The gate set covers the universal bases used by the paper's platforms
    (IBM-Q's {X, SX, RZ, CX} and the textbook gates the benchmarks are
    written in) plus [Custom] gates: opaque multi-qubit unitaries carrying
    their defining sub-circuit. Both APA-basis gates (mined recurring
    patterns) and PAQOC's merged customized gates are [Custom] gates, so the
    whole downstream pipeline treats them uniformly.

    Unitary convention: operand 0 of a gate is the most significant bit of
    the basis index, so [CX] on [(control, target)] is
    [|0><0| x I + |1><1| x X]. *)

type kind =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | SX
  | SXdg
  | RX of Angle.t
  | RY of Angle.t
  | RZ of Angle.t
  | U3 of Angle.t * Angle.t * Angle.t
  | CX
  | CZ
  | SWAP
  | CPhase of Angle.t  (** controlled phase, a.k.a. CU1 *)
  | CCX
  | Custom of custom

(** A gate applied to named qubit wires. *)
and app = { kind : kind; qubits : int list }

(** A named opaque gate defined by a sub-circuit over local wires
    [0 .. arity-1]. *)
and custom = { cname : string; arity : int; body : app list }

(** {1 Constructors} *)

val app : kind -> int list -> app
val app1 : kind -> int -> app
val app2 : kind -> int -> int -> app
val app3 : kind -> int -> int -> int -> app

(** [make_custom ~name ~arity body] checks every body gate touches only
    wires in [0 .. arity-1]. *)
val make_custom : name:string -> arity:int -> app list -> custom

(** {1 Inspection} *)

(** Number of qubit operands. *)
val arity : kind -> int

(** Operation name without parameters, e.g. ["rz"], ["cx"]. *)
val name : kind -> string

(** [mining_label k] is the node label the frequent-subcircuit miner keys
    on: the name plus canonical angle labels, with symbolic angles rendered
    symbolically so parameterised circuits mine correctly. [Custom] gates
    are labelled by their name. *)
val mining_label : kind -> string

(** [add_mining_label buf k] appends [mining_label k] to [buf]. *)
val add_mining_label : Buffer.t -> kind -> unit

val params : kind -> Angle.t list
val is_symbolic : kind -> bool

(** [free_params k] lists the free parameter names [k]'s angles reference
    (recursively through custom bodies), in angle order, with repeats —
    a gate whose angles all derive from one symbol lists it once per
    occurrence. Empty iff [not (is_symbolic k)]. *)
val free_params : kind -> string list

(** [bind_params bindings k] substitutes parameter symbols (recursively
    into custom bodies). *)
val bind_params : (string * float) list -> kind -> kind

(** [is_diagonal k] holds for computational-basis-diagonal gates (the
    virtual-Z family: Z, S, T, RZ, CZ, CPhase, I). Diagonal 1-qubit gates
    cost no pulse time on hardware with virtual-Z support. *)
val is_diagonal : kind -> bool

(** [interaction_weight k] is the entangling content of [k] measured in
    CX-equivalents (the Weyl-chamber weight heuristic): 0 for 1-qubit
    gates, 1 for CX/CZ, [|θ|/π] for CPhase(θ), 3 for SWAP, 6 for CCX, and
    the body sum for customs. Used by the analytic latency model. *)
val interaction_weight : kind -> float

(** Structural equality with angle tolerance; customs compare by body. *)
val equal_app : app -> app -> bool

(** Adjoint gate. Customs are inverted body-wise. *)
val dagger : kind -> kind

(** {1 Flattened walks} *)

(** Where a walked primitive's operands land: operand [q] of a gate
    nested in customs is wire [wire w q] of the walked list. *)
type wires

val wire : wires -> int -> int

(** [iter_primitives f apps] calls [f k qs w] on every primitive (non-
    [Custom]) gate of [apps], in the order of the flattened list (each
    custom replaced by its body, recursively). [k] is the gate, [qs]
    its own operand list and [wire w q] the wire of [apps] that operand
    [q] lands on. A walk allocates one wire map per custom it enters
    and nothing per primitive. *)
val iter_primitives : (kind -> int list -> wires -> unit) -> app list -> unit

(** {1 Unitaries} *)

(** [unitary k] is the [2^arity] square matrix of [k].
    @raise Failure on symbolic parameters. *)
val unitary : kind -> Paqoc_linalg.Cmat.t

(** [unitary_of_apps ~n_qubits apps] composes gate applications in circuit
    order (later gates multiply on the left). *)
val unitary_of_apps : n_qubits:int -> app list -> Paqoc_linalg.Cmat.t

val pp_app : Format.formatter -> app -> unit
val app_to_string : app -> string
