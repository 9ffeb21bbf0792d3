module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag

let episode t g =
  let group, _ = Generator.group_of_apps [ g ] in
  Generator.generate t group

(* the table latency, else the model estimate, keyed on one render *)
let episode_latency_estimate t g =
  let group, _ = Generator.group_of_apps [ g ] in
  let k = Generator.key group in
  match Generator.table_latency t k with
  | Some l -> l
  | None -> Generator.estimate_latency_of_key t group k

let gate_latency t g = (episode t g).Generator.latency

let schedule t c =
  let dag = Dag.of_circuit c in
  Dag.schedule dag ~latency:(gate_latency t)

let circuit_latency t c = (schedule t c).Dag.total

let circuit_esp t (c : Circuit.t) =
  List.fold_left
    (fun acc g -> acc *. (1.0 -. (episode t g).Generator.error))
    1.0 c.Circuit.gates
