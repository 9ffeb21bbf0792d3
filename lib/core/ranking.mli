(** Candidate scoring (Section V-A's Case I / Case II algebra).

    Each candidate is scored by the estimated drop in whole-circuit latency
    if the pair merged, {e without generating a pulse}: Observations 1 and
    2 supply the estimate of the merged latency (the analytic model's free
    estimate for same-size merges, the corpus average for size-growing
    merges), and the paper's path formulas supply the local critical-path
    delta. Pulse generation happens only for the top-k candidates the
    merger actually commits. *)

(** The bare Section V-A benefit formula: [est] is the merged latency
    estimate, [alt_after_u] the longest continuation through [u]'s
    other successors. {!score_edge} and the test-side reference scorer
    both score through it, so they agree bit for bit. *)
val score_value :
  case:[ `I | `II | `III ] ->
  u_critical:bool ->
  l_u:float ->
  l_v:float ->
  cp_v:float ->
  alt_after_u:float ->
  est:float ->
  float

(** {1 Candidate buffer}

    The search's scoring pass: each DAG edge is scored straight into
    arrays reused across passes, and the selection walks the kept
    candidates best-first — score descending, then pair [(u, v)]
    ascending, a total order — through an index heap. A kept candidate
    is its pair and its score, nothing more. Scoring, formula and order
    share this module so the float arithmetic stays unboxed. *)

type buffer

val buffer : unit -> buffer

(** [clear b] empties [b], keeping its storage. *)
val clear : buffer -> unit

(** [score_edge b ~include_iii ~lat ~cp ~crit ~succs ~u ~v ~est]
    classifies the DAG edge [u -> v] by the critical flags [crit]
    (Case I, II or III), scores it from the per-node latencies [lat]
    and CP-after values [cp] ([succs] are [u]'s successors; [est] the
    merged latency estimate) and keeps it when the score is positive.
    Case III edges are skipped unless [include_iii]. *)
val score_edge :
  buffer ->
  include_iii:bool ->
  lat:float array ->
  cp:float array ->
  crit:bool array ->
  succs:int list ->
  u:int ->
  v:int ->
  est:float ->
  unit

(** [start_walk b] orders the kept candidates for {!next}. *)
val start_walk : buffer -> unit

(** [next b] is the index of the best candidate not yet walked, or [-1]
    when the walk is over. *)
val next : buffer -> int

(** The pair of kept candidate [i]. *)
val cand_u : buffer -> int -> int

val cand_v : buffer -> int -> int

(** The score of kept candidate [i]. *)
val cand_score : buffer -> int -> float
