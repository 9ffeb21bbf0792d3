(** Dense complex matrices.

    The workhorse of the pulse engine. Matrices are stored as split
    real/imaginary flat [float array]s in row-major order so that the inner
    loops of matrix multiplication and matrix exponentials operate on
    unboxed floats. Dimensions in PAQOC are small (at most [2^maxN = 8] for
    gate groups, up to [2^8 = 256] for whole-circuit pulse simulation), so a
    straightforward dense representation is the right tool. *)

type t

(** {1 Construction} *)

(** [create rows cols] is the [rows x cols] zero matrix. *)
val create : int -> int -> t

(** [init rows cols f] fills entry [(r, c)] with [f r c]. *)
val init : int -> int -> (int -> int -> Cx.t) -> t

(** [identity n] is the [n x n] identity. *)
val identity : int -> t

(** [of_lists rows] builds a matrix from a row-major list of lists.
    @raise Invalid_argument on ragged input. *)
val of_lists : Cx.t list list -> t

(** [of_real_lists rows] is {!of_lists} for purely real entries. *)
val of_real_lists : float list list -> t

(** [diag entries] is the square matrix with [entries] on the diagonal. *)
val diag : Cx.t array -> t

val copy : t -> t

(** {1 Access} *)

val rows : t -> int
val cols : t -> int

(** [get m r c] reads entry [(r, c)] without bounds checks beyond the
    underlying array's. *)
val get : t -> int -> int -> Cx.t

val set : t -> int -> int -> Cx.t -> unit

(** Unsafe split accessors used by hot loops. *)
val get_re : t -> int -> int -> float

val get_im : t -> int -> int -> float
val set_re_im : t -> int -> int -> float -> float -> unit

(** {1 Algebra} *)

val add : t -> t -> t
val sub : t -> t -> t

(** [scale z m] multiplies every entry by the complex scalar [z]. *)
val scale : Cx.t -> t -> t

(** [scale_re s m] multiplies every entry by the real scalar [s]. *)
val scale_re : float -> t -> t

(** [mul a b] is the matrix product [a * b].
    @raise Invalid_argument on dimension mismatch. *)
val mul : t -> t -> t

(** [mul_adjoint_left a b] is [a† * b], fused to avoid materialising the
    adjoint. *)
val mul_adjoint_left : t -> t -> t

(** [matvec m v] applies [m] to a split-array vector, writing into fresh
    arrays; exposed mainly for {!Cvec}. *)
val matvec :
  t -> re:float array -> im:float array -> float array * float array

val transpose : t -> t
val conj : t -> t

(** Conjugate transpose. *)
val adjoint : t -> t

(** [kron a b] is the Kronecker (tensor) product with [a]'s index major. *)
val kron : t -> t -> t

(** [trace m] of a square matrix. *)
val trace : t -> Cx.t

(** {1 Norms and comparison} *)

val frobenius_norm : t -> float

(** [max_abs m] is the largest entry magnitude (max norm). *)
val max_abs : t -> float

(** [max_abs_diff a b] is [max_abs (sub a b)] without the intermediate. *)
val max_abs_diff : t -> t -> float

(** [equal ?tol a b] holds when every entry differs by at most [tol]
    (default [1e-9]). *)
val equal : ?tol:float -> t -> t -> bool

(** [is_unitary ?tol m] checks [m† m = I]. *)
val is_unitary : ?tol:float -> t -> bool

(** [equal_up_to_phase ?tol a b] holds when [a = e^{i phi} b] for some global
    phase [phi]; this is the right equality for circuit unitaries. *)
val equal_up_to_phase : ?tol:float -> t -> t -> bool

(** {1 Linear solving} *)

(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting; [b] may have any number of columns.
    @raise Failure if [a] is (numerically) singular. *)
val solve : t -> t -> t

(** {1 Qubit-space helpers}

    An [n]-qubit operator is a [2^n x 2^n] matrix whose basis index bit [k]
    (counting from the most significant bit) corresponds to qubit [k]. *)

(** [embed ~n_qubits op ~on] lifts the [|on|]-qubit operator [op] to the full
    [n_qubits]-qubit space, acting on the listed qubit positions (which give
    the order of [op]'s own qubits) and as identity elsewhere. *)
val embed : n_qubits:int -> t -> on:int list -> t

(** [permute_qubits m perm] reorders the qubit wires of the [n]-qubit
    unitary [m]: wire [q] of the result is wire [perm.(q)] of [m]. *)
val permute_qubits : t -> int array -> t

(** {1 In-place kernels}

    Allocation-free counterparts of the algebra above, for hot paths that
    reuse preallocated buffers (GRAPE's per-optimize workspace). Every
    kernel performs bit-for-bit the same floating-point operations, in
    the same order, as its allocating counterpart — callers may switch
    between the two without perturbing a single mantissa bit
    (test/test_kernels.ml pins this at 0 ulp).

    Aliasing contract: the element-wise kernels ({!blit}, {!add_into},
    {!sub_into}, {!scale_into}, {!scale_re_into}, {!axpy_re_into}) accept
    [dst] aliasing any input. The kernels that read inputs after writing
    [dst] ({!mul_into}, {!mul_adjoint_left_into}, {!adjoint_into},
    {!solve_into}, {!mul_nz_into}, {!mul_entries_into}) and
    {!axpy2_re_into} raise [Invalid_argument] when [dst] (or [scratch],
    or [dst2]) shares storage with an input — checked on the underlying
    arrays, so aliasing through record sharing is caught too. *)

(** [blit ~src ~dst] copies [src]'s entries into [dst].
    @raise Invalid_argument on dimension mismatch. *)
val blit : src:t -> dst:t -> unit

(** [set_zero m] zeroes every entry of [m]. *)
val set_zero : t -> unit

(** [set_identity m] overwrites the square matrix [m] with the identity. *)
val set_identity : t -> unit

(** [add_into ~dst a b] writes [a + b] into [dst]; any aliasing allowed. *)
val add_into : dst:t -> t -> t -> unit

(** [sub_into ~dst a b] writes [a - b] into [dst]; any aliasing allowed. *)
val sub_into : dst:t -> t -> t -> unit

(** [scale_into ~dst z m] writes [z * m] into [dst]; [dst == m] allowed. *)
val scale_into : dst:t -> Cx.t -> t -> unit

(** [scale_re_into ~dst s m] writes [s * m] into [dst]; [dst == m]
    allowed. *)
val scale_re_into : dst:t -> float -> t -> unit

(** [axpy2_re_into ~dst s ~dst2 s2 m] accumulates [dst <- dst + s * m]
    and [dst2 <- dst2 + s2 * m] in one pass over [m], each with rounding
    identical to [add dst (scale_re s m)] — the Padé accumulation of
    [Expm.expm_into]. Neither destination may alias the other or [m]. *)
val axpy2_re_into : dst:t -> float -> dst2:t -> float -> t -> unit

(** [mul_into ~dst a b] writes [a * b] into [dst].
    @raise Invalid_argument on dimension mismatch or if [dst] aliases an
    input. *)
val mul_into : dst:t -> t -> t -> unit

(** [mul_adjoint_left_into ~dst a b] writes [a† * b] into [dst]; same
    contract as {!mul_into}. *)
val mul_adjoint_left_into : dst:t -> t -> t -> unit

(** [adjoint_into ~dst m] writes [m†] into [dst]; [dst] must not alias
    [m]. *)
val adjoint_into : dst:t -> t -> unit

(** [solve_into ~scratch a b ~dst] solves [a x = b] into [dst],
    destroying [scratch] (same shape as [a]) in the process. [dst] may
    alias [b]; every other aliasing is rejected.
    @raise Failure if [a] is (numerically) singular. *)
val solve_into : scratch:t -> t -> t -> dst:t -> unit

(** {1 Zero patterns}

    GRAPE's slice Hamiltonians and control operators are mostly exact
    zeros (at three qubits, 32 and at least 56 of 64 entries). A
    {!pattern} records where a matrix's nonzero entries sit, and the
    kernels below do arithmetic at those positions only, yet round bit
    for bit like the dense loops they replace (test/test_kernels.ml pins
    this at 0 ulp against {!mul} and a dense trace). The argument: each
    accumulator starts at
    [+0.0]; under round-to-nearest a sum that starts at [+0.0] never
    becomes [-0.0]; and adding or subtracting [x * 0], which is [+-0.0]
    for finite [x], leaves such a sum unchanged. A skipped term is
    therefore one that could not have moved a bit. {!mul} already skips
    its left operand's zeros on this argument.

    The contract covers finite inputs: [inf * 0] is NaN, which the dense
    loops would propagate and a skip drops. A pattern handed in for a
    matrix must list each of its nonzero positions; extra (zero)
    positions are harmless. NaN counts as nonzero. *)

type pattern

(** [nonzeros m] is the pattern of [m]'s nonzero entries. It has room
    for every entry, so {!nonzeros_into} can re-record it for any matrix
    of [m]'s shape. *)
val nonzeros : t -> pattern

(** [nonzeros_into p m] overwrites [p] with [m]'s nonzero positions,
    allocation-free.
    @raise Invalid_argument when [p] was made for another shape. *)
val nonzeros_into : pattern -> t -> unit

(** [mul_nz_into ~dst a b ~nz] writes [a * b] into [dst], visiting only
    the positions [nz] lists for [b]; bit-identical to {!mul} on finite
    inputs.
    @raise Invalid_argument on dimension or pattern-shape mismatch, or if
    [dst] aliases an input. *)
val mul_nz_into : dst:t -> t -> t -> nz:pattern -> unit

(** [mul_entries_into ~dst a b ~at] writes the entries of [a * b] at the
    positions [at] lists (a pattern of [dst]'s shape), each summed
    exactly as {!mul} sums it, and leaves every other entry of [dst]
    untouched. Bit-identical to {!mul} on those entries for any input.
    @raise Invalid_argument as {!mul_nz_into}. *)
val mul_entries_into : dst:t -> t -> t -> at:pattern -> unit

(** [trace_prod_into acc a ~nz b] writes [Tr(a * b)] of two same-size
    square matrices into [acc.(0)] (real) and [acc.(1)] (imaginary),
    summing only over the positions [nz] lists for [a], without
    materialising the product or boxing a float — the gradient inner
    loop of GRAPE. Bit-identical to the dense row-major trace on finite
    inputs.
    @raise Invalid_argument on dimension or pattern-shape mismatch, or
    when [acc] has fewer than two cells. *)
val trace_prod_into : float array -> t -> nz:pattern -> t -> unit

(** [axpy_re_into ~dst s m ~nz] accumulates [dst <- dst + s * m] at the
    positions [nz] lists for [m]; [dst] may alias [m]. Rounding is
    identical to [add dst (scale_re s m)] on finite inputs when [dst]
    holds no [-0.0] entry (the dense [-0.0 + s * 0] can be [+0.0], where
    a skip leaves [-0.0]).
    @raise Invalid_argument on dimension or pattern-shape mismatch. *)
val axpy_re_into : dst:t -> float -> t -> nz:pattern -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
