(** Circuit rewriting by contracting convex gate sets.

    Both APA-basis substitution (replacing a mined pattern occurrence) and
    PAQOC's customized-gate merging replace a set of DAG nodes with one
    opaque gate. The set must be {e convex} (no dependence path leaving and
    re-entering it, {!Dag.is_convex}); contraction ({!Dag.edit}) then
    builds the quotient DAG and emits a stable topological linearisation,
    preserving the circuit's unitary. *)

(** [custom_of_nodes dag nodes ~name] packages the gates at [nodes]
    (program order) into a [Custom] gate application: body wires are local
    first-appearance indices, and the application's operands are the
    corresponding global qubits. *)
val custom_of_nodes : Dag.t -> int list -> name:string -> Gate.app

(** [contract c groups] replaces each [(nodes, replacement)] (disjoint,
    convex, node ids into [Dag.of_circuit c]) by its replacement gate and
    relinearises: {!Dag.edit} on a fresh [Dag.of_circuit c], then
    {!Dag.to_circuit}. The live ids keep their order, so the gates come
    out in {!Dag.edit}'s order.
    @raise Invalid_argument as {!Dag.edit} does. *)
val contract : Circuit.t -> (int list * Gate.app) list -> Circuit.t
