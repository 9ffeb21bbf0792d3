(** Candidate scoring (Section V-A's Case I / Case II algebra).

    Each candidate is scored by the estimated drop in whole-circuit latency
    if the pair merged, {e without generating a pulse}: Observations 1 and
    2 supply the estimate of the merged latency (the analytic model's free
    estimate for same-size merges, the corpus average for size-growing
    merges), and the paper's path formulas supply the local critical-path
    delta. Pulse generation happens only for the top-k candidates the
    merger actually commits.

    The search does not score every edge: it keeps the eligible edges
    ordered by a bound on their score that has no critical-path term,
    and each pass scores them in that order only until the best kept
    candidate beats every bound left (see {!next}). *)

(** The bare Section V-A benefit formula: [est] is the merged latency
    estimate, [alt_after_u] the longest continuation through [u]'s
    other successors. The walk and the test-side reference scorer both
    score through it, so they agree bit for bit. *)
val score_value :
  case:[ `I | `II | `III ] ->
  u_critical:bool ->
  l_u:float ->
  l_v:float ->
  cp_v:float ->
  alt_after_u:float ->
  est:float ->
  float

(** [bound ~l_u ~l_v ~est] is [l_u + l_v - est], the pair's local
    Observation-1 gain: in exact arithmetic every case of {!score_value}
    is at most it, and Case III is it, bit for bit. *)
val bound : l_u:float -> l_v:float -> est:float -> float

(** [margin total] is how far a computed score may exceed its computed
    {!bound} on a circuit of total latency [total] (rounding; the
    derivation is in ranking.ml): [total * 2^-48]. *)
val margin : float -> float

(** {1 The bound-ordered walk} *)

(** A merged key's rollback state, shared by every pair whose merged
    group has that key. *)
type key_state = { mutable blacklisted : bool }

(** What a pass reads of the search's committed state: the engine's
    per-id latencies, [CP]-after values, critical flags and uids, its
    DAG, its uid-to-id view, each uid's reprice stamp, whether Case III
    edges are scored (the pruning ablation), and the circuit total. *)
type view = {
  lat : float array;
  cp : float array;
  crit : bool array;
  dag : Paqoc_circuit.Dag.t;
  uid : int array;
  id_of_uid : int array;
  stamps : int array;
  include_iii : bool;
  total : float;
}

(** The eligible edges, ordered by bound, and one pass's kept
    candidates. Storage is reused across passes. *)
type buffer

val buffer : unit -> buffer

(** [add b ~lat ~u ~v ~ua ~ub ~stamp ~est state] adds the edge [u -> v]
    (ids; [ua], [ub] their uids; [stamp] the sum of the two uids'
    reprice stamps) with merged estimate [est] and merged-key state
    [state], at bound [bound lat.(u) lat.(v) est]. The entry is skipped
    once either uid dies, either stamp moves or [state] is
    blacklisted. *)
val add :
  buffer ->
  lat:float array ->
  u:int ->
  v:int ->
  ua:int ->
  ub:int ->
  stamp:int ->
  est:float ->
  key_state ->
  unit

(** [start b w] begins a pass over [w]: it forgets the previous pass's
    candidates, orders the edges added since, and now and then drops
    the entries that are no longer current. *)
val start : buffer -> view -> unit

(** [next b w] is the index of the best candidate of the pass not yet
    handed out, or [-1] when there is none: the order is score
    descending, then pair [(u, v)] ascending (ids), over the current
    entries that Case III pruning keeps and that score above [1e-9].
    It scores entries in descending bound order only until the best
    scored candidate's score is strictly greater than the next bound
    plus [margin w.total]; an entry whose bound plus that margin is at
    most [1e-9] is never scored. *)
val next : buffer -> view -> int

(** The exact scores computed since [b] was made. *)
val scored : buffer -> int

(** The pair of candidate [i]. *)
val cand_u : buffer -> int -> int

val cand_v : buffer -> int -> int

(** The score of candidate [i]. *)
val cand_score : buffer -> int -> float
