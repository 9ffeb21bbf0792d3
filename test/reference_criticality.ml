(* The full criticality analysis of Section V-A, kept as the
   oracle of the incremental engine ([Paqoc.Criticality.Engine]) and of
   the reference search. Nothing in the product calls it: the engine
   maintains the same per-node quantities under merge edits, and the
   differential batteries in test_search hold it to this analysis bit
   for bit.

   [analyze gen c] prices every gate of [c] as a pulse episode through
   the shared generator (database price or estimate, so the analysis
   itself never triggers pulse generation), schedules the dependence
   DAG and classifies each gate as critical (on some longest path) or
   not. The merge cases of the paper fall out of the per-pair
   classification. *)
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Pricing = Paqoc_pulse.Pricing

type t = { circuit : Circuit.t; dag : Dag.t; sched : Dag.schedule }

let analyze gen c =
  let dag = Dag.of_circuit c in
  let sched =
    Dag.schedule dag ~latency:(Pricing.episode_latency_estimate gen)
  in
  { circuit = c; dag; sched }

let is_critical t v = t.sched.Dag.critical.(v)
let total t = t.sched.Dag.total

(* [`I] both critical, [`II] exactly one, [`III] neither *)
let case_of t u v =
  match (is_critical t u, is_critical t v) with
  | true, true -> `I
  | true, false | false, true -> `II
  | false, false -> `III

let latency t v = t.sched.Dag.latency.(v)

(* the paper's CP(v): the longest path from [v]'s end to the circuit's
   end, excluding [v] itself *)
let cp_after t v = t.sched.Dag.cp_after.(v)
