(** Gate dependence DAG and critical-path machinery.

    Nodes are gate applications; there is an edge between two gates iff they
    share at least one qubit, directed by program order. Node ids follow
    program order, so the id order is always a valid topological order.

    The criticality quantities follow Section V-A of the paper: for a
    latency function [L], [cp_after x] is the longest [L]-weighted path from
    the {e end} of [x] to the circuit's end ({e excluding} [L(x)] itself,
    matching the paper's use of [CP(X)] in expressions like
    [L(A) + L(B) + CP(B)]), and a gate is {e critical} when it lies on some
    longest path of the whole circuit. *)

type t

(** {1 Construction} *)

(** [of_circuit c] builds the dependence DAG. *)
val of_circuit : Circuit.t -> t

(** [of_circuit_relaxed ~commute c] drops dependences between gates that
    [commute]: a gate depends on {e every} earlier non-commuting gate it
    shares a qubit with (not just the latest), since commuting
    intermediates no longer order them. Any topological order of the
    result reaches the same unitary as [c]. *)
val of_circuit_relaxed :
  commute:(Gate.app -> Gate.app -> bool) -> Circuit.t -> t

val n_nodes : t -> int
val n_qubits : t -> int

(** [gate dag v] is the gate application at node [v]. *)
val gate : t -> int -> Gate.app

(** Direct successors / predecessors (deduplicated, any order). *)
val succs : t -> int -> int list

val preds : t -> int -> int list

(** [nodes dag] is all node ids in topological (program) order. *)
val nodes : t -> int list

(** {1 Reachability} *)

(** [has_indirect_path dag u v] holds when a path of length at least two
    leads from [u] to [v]; merging [u] and [v] would then create a cycle,
    which makes the pair an invalid merge candidate. It allocates a
    visited array per query; the product asks {!has_indirect_path_ws},
    and this stays as its test reference. *)
val has_indirect_path : t -> int -> int -> bool

(** [reachable dag u v] holds when there is any directed path [u ->* v]
    (including [u = v]). *)
val reachable : t -> int -> int -> bool

(** A reusable reachability workspace: preallocated stamp marks and an
    int-array DFS stack, so repeated queries allocate nothing. Grows on
    demand; one workspace serves DAGs of any size but must not be used
    from two domains at once. *)
type reach_ws

(** [reach_ws n] is a workspace sized for [n]-node DAGs. *)
val reach_ws : int -> reach_ws

(** [has_indirect_path_ws ws dag u v] = [has_indirect_path dag u v],
    allocation-free. *)
val has_indirect_path_ws : reach_ws -> t -> int -> int -> bool

(** {1 Scheduling and criticality} *)

type schedule = {
  est : float array;  (** earliest start time of each node *)
  latency : float array;  (** [L] evaluated per node *)
  cp_after : float array;  (** longest path from node end to circuit end *)
  total : float;  (** whole-circuit latency (critical-path length) *)
  critical : bool array;  (** membership of some critical path *)
}

(** [schedule dag ~latency] computes ASAP start times, per-node [CP] values
    and critical-path membership under the gate latency function
    [latency]. *)
val schedule : t -> latency:(Gate.app -> float) -> schedule

(** [critical_path dag sched] is one maximal-latency path, in order. *)
val critical_path : t -> schedule -> int list

(** [to_circuit dag] linearises the DAG back to a circuit in a topological
    order (stable: program order). *)
val to_circuit : t -> Circuit.t

(** {1 Convex contraction}

    APA-basis substitution, AccQOC slicing and PAQOC's customized-gate
    merging all replace a set of nodes with one opaque gate. The set must
    be {e convex} (no dependence path leaving and re-entering it). *)

(** [is_convex dag nodes] checks that no dependence path exits and
    re-enters [nodes]. It scans only the window from the smallest to the
    largest member. *)
val is_convex : t -> int list -> bool

(** [contract dag groups] replaces each [(nodes, replacement)] (disjoint,
    convex, node ids of [dag]) by its replacement gate, which must act on
    exactly the union of its group's qubits. It returns the contracted
    DAG and [old_of_new]: [old_of_new.(j)] is the node of [dag] that node
    [j] survives from, or [-(gi+1)] when [j] is the replacement of
    [List.nth groups gi].

    The order is the stable min-id topological order of the quotient
    DAG (repeatedly emit the ready node whose smallest member id is
    least), computed window by window: only the nodes between a group's
    smallest and largest member (overlapping windows merged) are
    relinearised; every other node keeps its place. The adjacency is
    the quotient's, which for such groups is exactly what {!of_circuit}
    derives from {!to_circuit} of the result, in the same list order.
    Empty groups are ignored.
    @raise Invalid_argument on out-of-range ids, overlapping or
    non-convex groups, or groups whose contraction creates a cycle. *)
val contract : t -> (int list * Gate.app) list -> t * int array
