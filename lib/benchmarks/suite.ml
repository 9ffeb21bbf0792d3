module Circuit = Paqoc_circuit.Circuit
module Coupling = Paqoc_topology.Coupling
module Transpile = Paqoc_topology.Transpile
module Generator = Paqoc_pulse.Generator
module Slicer = Paqoc_accqoc.Slicer

type entry = {
  name : string;
  description : string;
  build : unit -> Circuit.t;
  paper_qubits : int;
  paper_1q : int;
  paper_2q : int;
}

let all =
  [ { name = "mod5d2_64"; description = "Toffoli network";
      build = Revlib.mod5d2_64; paper_qubits = 5; paper_1q = 28;
      paper_2q = 25 };
    { name = "rd32_270"; description = "Bit adder";
      build = Revlib.rd32_270; paper_qubits = 4; paper_1q = 48;
      paper_2q = 36 };
    { name = "decod24-v1_41"; description = "Binary decoder";
      build = Revlib.decod24_v1_41; paper_qubits = 4; paper_1q = 47;
      paper_2q = 38 };
    { name = "4gt10-v1_81"; description = "4 greater than 10";
      build = Revlib.gt10_v1_81; paper_qubits = 5; paper_1q = 82;
      paper_2q = 66 };
    { name = "cnt3-5_179"; description = "Ternary counter";
      build = Revlib.cnt3_5_179; paper_qubits = 16; paper_1q = 90;
      paper_2q = 85 };
    { name = "hwb4_49"; description = "Hidden weighted bit";
      build = Revlib.hwb4_49; paper_qubits = 5; paper_1q = 126;
      paper_2q = 107 };
    { name = "ham7_104"; description = "Hamming code";
      build = Revlib.ham7_104; paper_qubits = 7; paper_1q = 171;
      paper_2q = 149 };
    { name = "majority_239"; description = "Majority function";
      build = Revlib.majority_239; paper_qubits = 7; paper_1q = 345;
      paper_2q = 267 };
    { name = "bv"; description = "Bernstein-Vazirani";
      build = (fun () -> Bv.circuit ~n_data:20 ());
      paper_qubits = 21; paper_1q = 43; paper_2q = 20 };
    { name = "adder"; description = "Cuccaro adder";
      build = (fun () -> Cuccaro_adder.circuit ~bits:8 ());
      paper_qubits = 18; paper_1q = 160; paper_2q = 107 };
    { name = "qft"; description = "Quantum Fourier transform";
      build = (fun () -> Qft.circuit ~with_swaps:false ~n:16 ());
      paper_qubits = 16; paper_1q = 16; paper_2q = 120 };
    { name = "qaoa"; description = "QAOA maxcut";
      build = (fun () -> Qaoa.circuit ~n:10 ());
      paper_qubits = 10; paper_1q = 65; paper_2q = 90 };
    { name = "supre"; description = "Supremacy";
      build = (fun () -> Supremacy.circuit ~rows:5 ~cols:5 ());
      paper_qubits = 25; paper_1q = 245; paper_2q = 100 };
    { name = "simon"; description = "Simon's algorithm";
      build = (fun () -> Simon.circuit ~n_data:3 ());
      paper_qubits = 6; paper_1q = 14; paper_2q = 16 };
    { name = "qpe"; description = "Quantum phase estimation";
      build = (fun () -> Qpe.circuit ~n_count:8 ());
      paper_qubits = 9; paper_1q = 28; paper_2q = 33 };
    { name = "dnn"; description = "Deep neural network";
      build = (fun () -> Dnn.circuit ~n:8 ());
      paper_qubits = 8; paper_1q = 192; paper_2q = 1008 };
    { name = "bb84"; description = "Crypto protocol";
      build = (fun () -> Bb84.circuit ~n:8 ());
      paper_qubits = 8; paper_1q = 27; paper_2q = 0 }
  ]

let extras =
  [ { name = "grover"; description = "Grover search";
      build = (fun () -> Grover.circuit ~n:5 ());
      paper_qubits = 7; paper_1q = 0; paper_2q = 0 };
    { name = "ghz"; description = "GHZ state preparation";
      build = (fun () -> States.ghz ~n:12 ());
      paper_qubits = 12; paper_1q = 0; paper_2q = 0 };
    { name = "wstate"; description = "W state preparation";
      build = (fun () -> States.w ~n:10 ());
      paper_qubits = 10; paper_1q = 0; paper_2q = 0 };
    { name = "hidden_shift"; description = "Hidden shift (bent function)";
      build = (fun () -> Hidden_shift.circuit ~n:10 ());
      paper_qubits = 10; paper_1q = 0; paper_2q = 0 };
    { name = "vqe"; description = "Hardware-efficient VQE ansatz";
      build = (fun () -> Vqe.circuit ~n:8 ());
      paper_qubits = 8; paper_1q = 0; paper_2q = 0 }
  ]

let find name =
  match
    List.find_opt (fun e -> String.equal e.name name) (all @ extras)
  with
  | Some e -> e
  | None -> raise Not_found

type sweep_entry = {
  sweep_name : string;
  sweep_description : string;
  sweep_build : unit -> Circuit.t;
}

let sweeps =
  [ { sweep_name = "qaoa";
      sweep_description = "QAOA maxcut, symbolic gamma/beta angles";
      sweep_build = (fun () -> Qaoa.circuit ~symbolic:true ~n:10 ~p:3 ())
    };
    { sweep_name = "vqe";
      sweep_description = "hardware-efficient VQE ansatz, symbolic angles";
      sweep_build = (fun () -> Vqe.circuit ~symbolic:true ~n:8 ~layers:3 ())
    };
    { sweep_name = "dnn";
      sweep_description = "dense QNN ansatz, symbolic weights";
      sweep_build = (fun () -> Dnn.circuit ~symbolic:true ~n:4 ~blocks:2 ())
    }
  ]

let sweep_find name =
  match
    List.find_opt (fun e -> String.equal e.sweep_name name) sweeps
  with
  | Some e -> e
  | None -> raise Not_found

let table2_names =
  [ "4gt10-v1_81"; "decod24-v1_41"; "hwb4_49"; "rd32_270"; "bb84"; "simon" ]

let table3_names = [ "bv"; "adder"; "qft"; "qaoa"; "supre" ]

let transpile_cache : (string, Transpile.t) Hashtbl.t = Hashtbl.create 32

let transpiled entry =
  match Hashtbl.find_opt transpile_cache entry.name with
  | Some t -> t
  | None ->
    let t = Transpile.run (entry.build ()) in
    Hashtbl.replace transpile_cache entry.name t;
    t

let small_cache : (string, Transpile.t) Hashtbl.t = Hashtbl.create 32

let small_grid entry =
  let n = (entry.build ()).Circuit.n_qubits in
  let rows = int_of_float (ceil (sqrt (float_of_int n))) in
  (rows, (n + rows - 1) / rows)

let transpiled_small entry =
  match Hashtbl.find_opt small_cache entry.name with
  | Some t -> t
  | None ->
    let rows, cols = small_grid entry in
    let t =
      Transpile.run ~coupling:(Coupling.grid ~rows ~cols) (entry.build ())
    in
    Hashtbl.replace small_cache entry.name t;
    t

let observation_corpus () =
  (* maximal consecutive same-qubit groups: slice with unbounded depth *)
  let cfg = { Slicer.max_qubits = 3; max_depth = 1_000_000 } in
  List.concat_map
    (fun entry ->
      let t = transpiled entry in
      let physical = t.Transpile.physical in
      let dag = Paqoc_circuit.Dag.of_circuit physical in
      Slicer.slice cfg physical
      |> List.filter (fun nodes -> List.length nodes >= 2)
      |> List.map (fun nodes ->
             let apps = List.map (Paqoc_circuit.Dag.gate dag) nodes in
             fst (Generator.group_of_apps apps)))
    (all @ extras)
