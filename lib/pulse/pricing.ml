module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag

(* the table latency, else the model estimate, keyed on one render *)
let episode_latency_estimate t g =
  let group, _ = Generator.group_of_apps [ g ] in
  let k = Generator.key group in
  match Generator.table_latency t k with
  | Some l -> l
  | None -> Generator.estimate_latency_of_key t group k

type priced = { schedule : Dag.schedule; esp : float }

let price ?jobs t (c : Circuit.t) =
  let episodes =
    List.map (fun g -> fst (Generator.group_of_apps [ g ])) c.Circuit.gates
  in
  let outcomes = Array.of_list (Generator.generate_batch ?jobs t episodes) in
  let latency = Array.map (fun o -> o.Generator.latency) outcomes in
  { schedule = Dag.schedule (Dag.of_circuit c) ~latency;
    esp =
      Array.fold_left
        (fun acc o -> acc *. (1.0 -. o.Generator.error))
        1.0 outcomes
  }

let circuit_latency t c = (price t c).schedule.Dag.total
let circuit_esp t c = (price t c).esp
