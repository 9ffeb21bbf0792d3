(** Gate dependence DAG and critical-path machinery.

    Nodes are gate applications; there is an edge between two gates iff they
    share at least one qubit, directed by program order. Node ids follow
    program order, so the id order is always a valid topological order.

    A DAG built from a circuit has dense ids. An in-place {!edit} frees
    the ids its merges remove: those {e holes} are dead (no gate that
    counts, no edges, never visited), and every live id keeps its
    place, so between live ids the id order is still the program order.

    The criticality quantities follow Section V-A of the paper: for
    per-node latencies [L], [cp_after x] is the longest [L]-weighted path
    from the {e end} of [x] to the circuit's end ({e excluding} [L(x)]
    itself, matching the paper's use of [CP(X)] in expressions like
    [L(A) + L(B) + CP(B)]), and a gate is {e critical} when it lies on some
    longest path of the whole circuit. *)

type t

(** {1 Construction} *)

(** [of_circuit c] builds the dependence DAG. *)
val of_circuit : Circuit.t -> t

(** [n_nodes dag] is the size of the id range [0 .. n_nodes - 1]:
    the node count of a dense DAG, holes included after an {!edit}. *)
val n_nodes : t -> int

val n_qubits : t -> int

(** [is_live dag v] is false exactly at the holes. *)
val is_live : t -> int -> bool

(** [gate dag v] is the gate application at node [v]. *)
val gate : t -> int -> Gate.app

(** Direct successors / predecessors, each list strictly descending
    (largest id first). {!of_circuit}, {!edit} and {!undo} all keep
    this order, and callers rely on it:
    pre-merging walks a successor list back to front to visit it in
    ascending order without a sorted copy. *)
val succs : t -> int -> int list

val preds : t -> int -> int list

(** [nodes dag] is all live ids in topological (program) order. *)
val nodes : t -> int list

(** {1 Reachability} *)

(** A reusable reachability workspace: preallocated stamp marks and an
    int-array DFS stack, so repeated queries allocate nothing. Grows on
    demand; one workspace serves DAGs of any size but must not be used
    from two domains at once. *)
type reach_ws

(** [reach_ws n] is a workspace sized for [n]-node DAGs. *)
val reach_ws : int -> reach_ws

(** [has_indirect_path_ws ws dag u v] holds when a path of length at
    least two joins [u] and [v] (either way round); merging them would
    then create a cycle, which makes the pair an invalid merge
    candidate. Allocation-free. *)
val has_indirect_path_ws : reach_ws -> t -> int -> int -> bool

(** {1 Scheduling and criticality} *)

type schedule = {
  est : float array;  (** earliest start time of each node *)
  latency : float array;  (** [L] per node: the array {!schedule} was given *)
  cp_after : float array;  (** longest path from node end to circuit end *)
  total : float;  (** whole-circuit latency (critical-path length) *)
  critical : bool array;  (** membership of some critical path *)
}

(** [schedule dag ~latency] computes ASAP start times, per-node [CP]
    values and critical-path membership, where [latency.(v)] is node
    [v]'s latency (0 at a hole). It is {!est_wave} then {!cp_wave} on
    fresh arrays, and keeps [latency] as the schedule's own.
    @raise Invalid_argument unless [latency] has {!n_nodes} entries. *)
val schedule : t -> latency:float array -> schedule

(** The two waves {!schedule} is built from, exposed so a caller that
    keeps its own per-node arrays (the criticality engine) recomputes
    them in place, with the same folds. Each visits every id, in id
    order, and folds each node's list in its stored order, so equal
    inputs give equal bits whoever calls it. Both allocate nothing. *)

(** [est_wave dag ~latency est] sets [est.(v)] to the longest
    [latency]-weighted path into [v], for every id, and returns the
    total: the largest [est.(v) +. latency.(v)]. *)
val est_wave : t -> latency:float array -> float array -> float

(** [cp_wave dag ~latency ~est ~total cp_after critical] sets
    [cp_after.(v)] to the longest [latency]-weighted path out of [v]'s
    end, for every id, and [critical.(v)] to whether live node [v] lies
    on a path of length [total]: [est.(v) +. latency.(v) +. cp_after.(v)]
    is at least [total] minus a relative [1e-9]. [est] and [total] are
    {!est_wave}'s. *)
val cp_wave :
  t ->
  latency:float array ->
  est:float array ->
  total:float ->
  float array ->
  bool array ->
  unit

(** [to_circuit dag] linearises the DAG's live nodes back to a circuit in
    a topological order (stable: program order). *)
val to_circuit : t -> Circuit.t

(** {1 Convex contraction}

    APA-basis substitution, AccQOC slicing and PAQOC's customized-gate
    merging all replace a set of nodes with one opaque gate. The set must
    be {e convex} (no dependence path leaving and re-entering it). *)

(** [is_convex dag nodes] checks that no dependence path exits and
    re-enters [nodes]. It scans only the window from the smallest to the
    largest member. *)
val is_convex : t -> int list -> bool

(** {1 In-place contraction}

    An editor contracts groups in its DAG in place and keeps an undo
    log, so a merge step costs what its windows touch. Nodes outside
    the windows keep their ids; only the lists that name a node that
    moved are rewritten. A window only shrinks, so ids never need
    relabelling. *)

type editor

(** [editor dag] edits [dag] itself (it holds three id-sized arrays,
    allocated once). *)
val editor : t -> editor

(** [edit ed groups] replaces each [(nodes, replacement)] (disjoint,
    convex, live ids of the editor's DAG) by its replacement gate, which
    must act on exactly the union of its group's qubits, in place,
    logging what it overwrites. Empty groups are ignored.

    The order is the stable min-id topological order of the quotient
    DAG (repeatedly emit the ready node whose smallest member id is
    least), computed window by window: only the live nodes between a
    group's smallest and largest member (overlapping windows merged)
    are relinearised, and the emitted nodes are laid back onto the
    window's own live ids in emission order; the ids the merges free,
    the window's last ones, become holes. Every other node keeps its
    id. The adjacency is the quotient's, and every list stays in
    {!of_circuit}'s order, so compacting the live ids gives exactly the
    DAG that {!of_circuit} builds from {!to_circuit} of the result, list
    for list.
    @raise Invalid_argument on out-of-range or dead ids, overlapping or
    non-convex groups, or groups whose contraction creates a cycle;
    the DAG is then untouched. *)
val edit : editor -> (int list * Gate.app) list -> unit

(** [undo ed] restores the DAG as it was before every {!edit} since the
    last {!undo} or {!keep}, list order included. *)
val undo : editor -> unit

(** [keep ed] drops the undo log: the edits stand. *)
val keep : editor -> unit

(** The ids the last {!edit} rewrote — every id inside its windows that
    was live before it, ascending — as [edit_id ed i] for
    [i < edit_size ed]. *)
val edit_size : editor -> int

val edit_id : editor -> int -> int

(** [edit_origin ed i] says what [edit_id ed i] holds now: the id of the
    node it survives from ([>= 0]), [-(gi+1)] for the replacement of
    [List.nth groups gi], or {!hole}. *)
val edit_origin : editor -> int -> int

(** The origin of a freed id. *)
val hole : int
