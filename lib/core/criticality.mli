(** Criticality analysis of a grouped circuit (Section V-A), kept
    incrementally under the merge search's edits.

    Every gate application is priced as a pulse episode through the
    shared generator, the dependence DAG is scheduled, and each gate is
    classified as critical (it lies on some longest path) or not. The
    three merge cases of the paper fall out of the per-pair
    classification. The full analysis that the engine replaces,
    one full pricing and schedule per merge step, is the engine's test
    oracle ([test/reference_criticality.ml]). *)

(** Incremental criticality engine.

    Maintains the per-node quantities of the analysis — episode
    latency, earliest start, [CP]-after, critical membership — under
    merge edits to a DAG edited in place ({!Paqoc_circuit.Dag.edit}),
    repricing only the episodes an edit or a pulse-database write
    changed instead of the whole circuit. The earliest-start and
    [CP]-after waves are recomputed in full, in place, by the two waves
    {!Paqoc_circuit.Dag.schedule} is built from
    ({!Paqoc_circuit.Dag.est_wave}, {!Paqoc_circuit.Dag.cp_wave}).
    Node ids have holes where merges freed them; every other node
    keeps its id, and live ids compare as their dense positions would.
    Every exposed value is bitwise equal to a full analysis of the
    current circuit against the current generator state, node for node
    in id order (see docs/incremental-search.md; the differential
    battery in test_search pins it).

    Protocol: {!Engine.stage} edits the DAG in place, reprices what the
    edit and the generator's writes changed, runs the earliest-start
    wave and returns the trial total. {!Engine.commit} runs the
    [CP]-after wave and the critical flags and drops the undo logs;
    {!Engine.discard} replays the logs and reruns the earliest-start
    wave, restoring the committed state exactly. While an edit is
    staged, {!Engine.dag} holds the staged graph and only
    {!Engine.staged_circuit} is meaningful.
    {!Engine.refresh} re-resolves episode prices after the pulse
    database changed under an unchanged circuit (e.g. a rolled-back
    merge attempt that still generated its pulse), repricing only the
    nodes whose key the generator wrote. Not thread-safe: one engine per
    search. *)
module Engine : sig
  type e

  (** [create gen c] prices and schedules [c] (one full analysis). *)
  val create : Paqoc_pulse.Generator.t -> Paqoc_circuit.Circuit.t -> e

  (** The current committed circuit, built from {!dag} on the first call
      after a {!commit}. *)
  val circuit : e -> Paqoc_circuit.Circuit.t

  (** The dependence DAG of the committed circuit, with holes
      ({!Paqoc_circuit.Dag.is_live}); its id range is the engine's. *)
  val dag : e -> Paqoc_circuit.Dag.t

  (** The number of live nodes (gates of {!circuit}). *)
  val n_nodes : e -> int

  (** The whole-circuit latency. *)
  val total : e -> float

  (** Node [v]'s episode latency. *)
  val latency : e -> int -> float

  (** Node [v]'s earliest start time. *)
  val est : e -> int -> float

  (** [cp_after e v] is the paper's [CP(v)]: the longest path from
      [v]'s end to the circuit's end, excluding [v] itself. *)
  val cp_after : e -> int -> float

  (** Node [v] lies on a longest path. *)
  val is_critical : e -> int -> bool

  (** Read-only views of the committed per-node latencies, [CP]-after
      values and critical flags, indexed by id (holes read 0, 0 and
      unspecified). {!refresh} and {!commit} update them in place. They
      serve loops in other modules, where every {!latency} call would
      box its float; never mutate them. *)
  val latencies : e -> float array

  val cp_afters : e -> float array
  val criticals : e -> bool array

  (** Read-only views of each id's node uid and interned key id (both
      -1 at a hole). A uid is a stable identity for the gate at a node:
      it survives the moves inside an edit's windows, and a merged node
      gets a fresh one. Two nodes have the same key id exactly when
      their episodes have the same pulse key, within one engine. Like
      the views above they are updated in place, and while an edit is
      staged they hold the staged values; never mutate them. *)
  val uids : e -> int array

  val key_ids : e -> int array

  (** [case_of e u v] classifies the merge pair per Section V-A: [`I]
      both critical, [`II] exactly one critical, [`III] neither. *)
  val case_of : e -> int -> int -> [ `I | `II | `III ]

  (** [refresh e] folds any pulse-database changes into the committed
      state; no-op when the generator's price epoch is unchanged. *)
  val refresh : e -> unit

  (** [stage e groups] contracts [groups] (ids of {!dag}) in place
      ({!Paqoc_circuit.Dag.edit}) and returns the trial circuit total.
      Replaces any previously staged edit.
      @raise Invalid_argument on overlapping or non-convex groups,
      leaving the committed state as it was. *)
  val stage :
    e -> (int list * Paqoc_circuit.Gate.app) list -> float

  (** The staged circuit, built from the staged DAG on each call (raises
      when nothing is staged). *)
  val staged_circuit : e -> Paqoc_circuit.Circuit.t

  (** [commit e] adopts the staged edit: the [CP]-after wave and the
      critical flags (raises when nothing staged). *)
  val commit : e -> unit

  (** [discard e] abandons the staged edit by replaying its undo logs
      and rerunning the earliest-start wave (never raises). *)
  val discard : e -> unit
end
