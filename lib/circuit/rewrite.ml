(* the position of [q] in [wires], or -1 *)
let rec index_of (q : int) i = function
  | [] -> -1
  | w :: rest -> if w = q then i else index_of q (i + 1) rest

(* [wires] (newest first) with each qubit of [qs] it lacks prepended *)
let rec add_wires wires = function
  | [] -> wires
  | q :: rest ->
    add_wires (if index_of q 0 wires >= 0 then wires else q :: wires) rest

let custom_of_nodes dag nodes ~name =
  let nodes = List.sort_uniq compare nodes in
  let apps = List.map (Dag.gate dag) nodes in
  (* the group's global wires in first-appearance order, newest first:
     a wire's local index is its place counted from the end *)
  let wires =
    List.fold_left (fun acc (g : Gate.app) -> add_wires acc g.Gate.qubits) [] apps
  in
  let arity = List.length wires in
  let local q = arity - 1 - index_of q 0 wires in
  let body =
    List.map
      (fun (g : Gate.app) -> { g with Gate.qubits = List.map local g.Gate.qubits })
      apps
  in
  Gate.app (Gate.Custom (Gate.make_custom ~name ~arity body)) (List.rev wires)

let contract c groups =
  let dag = Dag.of_circuit c in
  Dag.edit (Dag.editor dag) groups;
  Dag.to_circuit dag
