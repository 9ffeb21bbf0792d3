(** Criticality analysis of a grouped circuit (Section V-A).

    Prices every gate application as a pulse episode through the shared
    generator, schedules the dependence DAG, and classifies each gate as
    critical (it lies on some longest path) or not. The three merge cases
    of the paper fall out of the per-pair classification. *)

type t = {
  circuit : Paqoc_circuit.Circuit.t;
  dag : Paqoc_circuit.Dag.t;
  sched : Paqoc_circuit.Dag.schedule;
}

(** [analyze gen c] prices and schedules [c]. *)
val analyze : Paqoc_pulse.Generator.t -> Paqoc_circuit.Circuit.t -> t

(** [is_critical t v] — node [v] lies on a longest path. *)
val is_critical : t -> int -> bool

(** [total t] is the whole-circuit latency. *)
val total : t -> float

(** [case_of t u v] classifies the merge pair per Section V-A:
    [`I] both critical, [`II] exactly one critical, [`III] neither. *)
val case_of : t -> int -> int -> [ `I | `II | `III ]

(** [latency t v] is node [v]'s episode latency. *)
val latency : t -> int -> float

(** [cp_after t v] is the paper's [CP(v)]: longest path from [v]'s end to
    the circuit's end, excluding [v] itself. *)
val cp_after : t -> int -> float

(** Incremental criticality engine.

    Maintains the same per-node quantities as {!analyze} — episode
    latency, earliest start, [CP]-after, critical membership — under
    merge edits, by dirty-region propagation over the renumbered DAG
    instead of a full re-analysis per edit. Every exposed value is
    bitwise equal to a from-scratch {!analyze} of the current circuit
    against the current generator state (see docs/incremental-search.md
    for the argument; the differential battery in test_search pins it).

    Protocol: {!Engine.stage} computes a candidate edit's consequences
    into a preallocated shadow buffer and returns the trial total;
    {!Engine.commit} adopts the staged state in O(1) buffer swaps,
    {!Engine.discard} abandons it. {!Engine.refresh} re-resolves
    episode prices after the pulse database changed under an unchanged
    circuit (e.g. a rolled-back merge attempt that still generated its
    pulse). Not thread-safe: one engine per search. *)
module Engine : sig
  type e

  (** [create gen c] prices and schedules [c] (one full analysis). *)
  val create : Paqoc_pulse.Generator.t -> Paqoc_circuit.Circuit.t -> e

  (** The current committed circuit, built from {!dag} on the first call
      after a {!commit}. *)
  val circuit : e -> Paqoc_circuit.Circuit.t

  (** The dependence DAG of the committed circuit. *)
  val dag : e -> Paqoc_circuit.Dag.t

  val n_nodes : e -> int
  val total : e -> float
  val latency : e -> int -> float
  val est : e -> int -> float
  val cp_after : e -> int -> float
  val is_critical : e -> int -> bool

  (** Read-only views of the committed per-node latencies, [CP]-after
      values and critical flags, indexed by node (the arrays may be
      longer than {!n_nodes}). {!refresh} updates them in place and
      {!commit} replaces them. They serve loops in other modules, where
      every {!latency} call would box its float; never mutate them. *)
  val latencies : e -> float array

  val cp_afters : e -> float array
  val criticals : e -> bool array

  (** [case_of e u v] — as {!case_of}. *)
  val case_of : e -> int -> int -> [ `I | `II | `III ]

  (** [node_uid e v] is a stable identity for the gate at node [v]:
      uids survive renumbering, and a merged node gets a fresh uid.
      Search-level memos key on uid pairs, which never go stale. *)
  val node_uid : e -> int -> int

  (** [refresh e] folds any pulse-database changes into the committed
      state; no-op when the generator's price epoch is unchanged. *)
  val refresh : e -> unit

  (** [stage e groups] contracts [groups] in the committed DAG
      ({!Paqoc_circuit.Dag.contract}) into the shadow buffer and returns
      the trial circuit total. Replaces any previously staged edit.
      @raise Invalid_argument on overlapping or non-convex groups. *)
  val stage :
    e -> (int list * Paqoc_circuit.Gate.app) list -> float

  (** The staged circuit, built from the staged DAG on each call (raises
      when nothing is staged). *)
  val staged_circuit : e -> Paqoc_circuit.Circuit.t

  (** [commit e] adopts the staged edit (raises when nothing staged). *)
  val commit : e -> unit

  (** [discard e] abandons the staged edit (never raises). *)
  val discard : e -> unit
end
