(** Rotation angles, possibly symbolic.

    Parameterised circuits (VQE / QAOA ansätze) carry angles that are not
    known until runtime. The frequent-subcircuit miner must treat two
    occurrences of [RZ(gamma)] as the same pattern even before [gamma] is
    bound, so angles are either floating-point constants or named symbols
    (optionally scaled); the mining label of a symbol is stable while its
    numeric value requires a binding environment. *)

type t =
  | Const of float
  | Sym of string  (** named parameter, e.g. ["gamma"] *)
  | Scaled of string * float  (** [Scaled (s, k)] denotes [k * s] *)

val pi : float

(** [const f] and [sym name] are convenience constructors. *)
val const : float -> t

val sym : string -> t

(** [value ?bindings a] evaluates [a].
    @raise Failure on an unbound symbol. *)
val value : ?bindings:(string * float) list -> t -> float

(** [is_symbolic a] holds for [Sym] and [Scaled]. *)
val is_symbolic : t -> bool

(** [bind bindings a] substitutes bound symbols, leaving unbound ones
    intact. *)
val bind : (string * float) list -> t -> t

(** [label a] is a canonical string used as part of mining node labels:
    constants are printed as multiples of pi when close to a small rational
    multiple, symbols by name. Two angles with equal labels are treated as
    identical by the miner. *)
val label : t -> string

(** [add_label buf a] appends [label a] to [buf]; the pulse-table key
    writer renders angles through it without an intermediate string. *)
val add_label : Buffer.t -> t -> unit

(** [add_int buf n] appends [string_of_int n] to [buf] without
    allocating (the label and key writers' integer printer). *)
val add_int : Buffer.t -> int -> unit

(** [equal a b] is structural equality with a small tolerance on
    constants. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
