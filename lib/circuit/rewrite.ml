let custom_of_nodes dag nodes ~name =
  let nodes = List.sort_uniq compare nodes in
  let apps = List.map (Dag.gate dag) nodes in
  let wires = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g : Gate.app) ->
      List.iter
        (fun q ->
          if not (Hashtbl.mem tbl q) then begin
            Hashtbl.add tbl q (Hashtbl.length tbl);
            wires := q :: !wires
          end)
        g.Gate.qubits)
    apps;
  let body =
    List.map
      (fun (g : Gate.app) ->
        { g with Gate.qubits = List.map (Hashtbl.find tbl) g.Gate.qubits })
      apps
  in
  let arity = Hashtbl.length tbl in
  Gate.app (Gate.Custom (Gate.make_custom ~name ~arity body)) (List.rev !wires)

let contract c groups =
  Dag.to_circuit (fst (Dag.contract (Dag.of_circuit c) groups))
