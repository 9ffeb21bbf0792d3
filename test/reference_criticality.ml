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

(* The schedule's max-plus folds, written out here instead of calling
   [Dag.schedule], so the engine differential holds [Dag.est_wave] and
   [Dag.cp_wave] (which the engine and [Dag.schedule] share) to an
   independent copy: ASAP start over the predecessors, CP-after over
   the successors, the total, then the critical flags. *)
let schedule dag latency =
  let n = Dag.n_nodes dag in
  let est = Array.make n 0.0 in
  let lat =
    Array.init n (fun v ->
        if Dag.is_live dag v then latency (Dag.gate dag v) else 0.0)
  in
  for v = 0 to n - 1 do
    List.iter
      (fun p ->
        if est.(p) +. lat.(p) > est.(v) then est.(v) <- est.(p) +. lat.(p))
      (Dag.preds dag v)
  done;
  let cp_after = Array.make n 0.0 in
  for v = n - 1 downto 0 do
    List.iter
      (fun s ->
        let through = lat.(s) +. cp_after.(s) in
        if through > cp_after.(v) then cp_after.(v) <- through)
      (Dag.succs dag v)
  done;
  let total = ref 0.0 in
  for v = 0 to n - 1 do
    let finish = est.(v) +. lat.(v) in
    if finish > !total then total := finish
  done;
  let eps = 1e-9 *. (1.0 +. !total) in
  let critical =
    Array.init n (fun v ->
        Dag.is_live dag v
        && est.(v) +. lat.(v) +. cp_after.(v) >= !total -. eps)
  in
  { Dag.est; latency = lat; cp_after; total = !total; critical }

let analyze gen c =
  let dag = Dag.of_circuit c in
  let sched = schedule dag (Pricing.episode_latency_estimate gen) in
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
