(* One regeneration function per table / figure of the paper's evaluation
   section. Absolute numbers come from this repo's own GRAPE engine and
   calibrated model (see DESIGN.md); the comparisons' shapes are what must
   match the paper. *)

open Common
module Gate = Paqoc_circuit.Gate
module Angle = Paqoc_circuit.Angle
module Dag = Paqoc_circuit.Dag
module DS = Paqoc_pulse.Duration_search
module Grape = Paqoc_pulse.Grape
module LM = Paqoc_pulse.Latency_model
module Sim = Paqoc_pulse.Simulator
module Pattern = Paqoc_mining.Pattern

(* ------------------------------------------------------------------ *)
(* Table I — benchmark overview                                        *)
(* ------------------------------------------------------------------ *)

let table1 () =
  heading "table1" "Overview of application benchmarks (ours vs paper)";
  let rows =
    List.map
      (fun (e : Suite.entry) ->
        let c = e.Suite.build () in
        let t = Suite.transpiled e in
        [ e.Suite.name; e.Suite.description;
          string_of_int c.Circuit.n_qubits;
          Printf.sprintf "%d (%d)" (Circuit.n_1q c) e.Suite.paper_1q;
          Printf.sprintf "%d (%d)" (Circuit.n_2q c) e.Suite.paper_2q;
          string_of_int (Circuit.n_gates t.Transpile.physical);
          string_of_int t.Transpile.swaps_added ])
      Suite.all
  in
  table
    ~columns:
      [ "name"; "description"; "#qubits"; "1q-gate (paper)";
        "2q-gate (paper)"; "physical gates"; "swaps" ]
    ~rows;
  note "(n) = the gate count Table I of the paper reports."

(* ------------------------------------------------------------------ *)
(* Fig 2 — merged vs stitched pulse for H;CX (real GRAPE)              *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  heading "fig2" "Pulse generation for a group of two gates (GRAPE)";
  let gen_latency n pairs gates =
    let h = Paqoc_pulse.Hamiltonian.make ~n_qubits:n ~coupled_pairs:pairs () in
    let target = Gate.unitary_of_apps ~n_qubits:n gates in
    let r = DS.minimal_duration h ~target ~lower_bound:30.0 () in
    (r.DS.latency, r.DS.fidelity)
  in
  let lh, fh = gen_latency 1 [] [ Gate.app1 Gate.H 0 ] in
  let lcx, fcx = gen_latency 2 [ (0, 1) ] [ Gate.app2 Gate.CX 0 1 ] in
  let lm, fm =
    gen_latency 2 [ (0, 1) ] [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ]
  in
  table
    ~columns:[ "pulse"; "latency (dt)"; "fidelity" ]
    ~rows:
      [ [ "H alone"; Printf.sprintf "%.0f" lh; Printf.sprintf "%.4f" fh ];
        [ "CX alone"; Printf.sprintf "%.0f" lcx; Printf.sprintf "%.4f" fcx ];
        [ "stitched H;CX"; Printf.sprintf "%.0f" (lh +. lcx); "-" ];
        [ "merged  H;CX"; Printf.sprintf "%.0f" lm; Printf.sprintf "%.4f" fm ]
      ];
  note "paper: stitched 170 dt vs merged 110 dt (their device scale);";
  note "shape to reproduce: merged pulse strictly shorter than stitching."

(* ------------------------------------------------------------------ *)
(* Fig 6 — merged vs summed latency over the subcircuit corpus         *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  heading "fig6"
    "Merged vs summed latency of same-qubit subcircuits (Observations 1-2)";
  let corpus = Suite.observation_corpus () in
  let gen = Gen.model_default () in
  let datapoints =
    List.map
      (fun (g : Gen.group) ->
        let merged = Gen.estimate_latency gen g in
        let summed =
          List.fold_left
            (fun acc a -> acc +. LM.fixed_gate_latency LM.default a)
            0.0 g.Gen.gates
        in
        (g.Gen.n_qubits, summed, merged))
      corpus
  in
  let by_size k =
    List.filter (fun (n, _, _) -> n = k) datapoints
  in
  let stats pts =
    let merged = List.map (fun (_, _, m) -> m) pts in
    let summed = List.map (fun (_, s, _) -> s) pts in
    (List.length pts, mean summed, mean merged)
  in
  let rows =
    List.filter_map
      (fun k ->
        match by_size k with
        | [] -> None
        | pts ->
          let n, ms, mm = stats pts in
          Some
            [ string_of_int k; string_of_int n; Printf.sprintf "%.0f" ms;
              Printf.sprintf "%.0f" mm;
              Printf.sprintf "%.2f" (mm /. ms) ])
      [ 1; 2; 3 ]
  in
  table
    ~columns:
      [ "qubits"; "subcircuits"; "mean summed (dt)"; "mean merged (dt)";
        "ratio" ]
    ~rows;
  let obs1_violations =
    List.length (List.filter (fun (_, s, m) -> m > s +. 1e-6) datapoints)
  in
  note "corpus size: %d subcircuits (paper used 150 benchmarks)"
    (List.length datapoints);
  note "Observation 1 (merged <= summed) violations: %d" obs1_violations;
  let m1 = by_size 1 and m2 = by_size 2 and m3 = by_size 3 in
  let avg pts = mean (List.map (fun (_, _, m) -> m) pts) in
  note "Observation 2 (avg latency grows with qubits): %.0f < %.0f < %.0f"
    (avg m1) (avg m2) (avg m3);
  (* coarse scatter: merged (y) vs summed (x), both in dt *)
  let buckets = 18 and rows_n = 12 in
  let max_x =
    List.fold_left (fun acc (_, s, _) -> Float.max acc s) 1.0 datapoints
  in
  let max_y =
    List.fold_left (fun acc (_, _, m) -> Float.max acc m) 1.0 datapoints
  in
  let grid = Array.make_matrix rows_n buckets ' ' in
  List.iter
    (fun (nq, s, m) ->
      let x = min (buckets - 1) (int_of_float (s /. max_x *. float_of_int (buckets - 1))) in
      let y = min (rows_n - 1) (int_of_float (m /. max_y *. float_of_int (rows_n - 1))) in
      let c = match nq with 1 -> '.' | 2 -> 'o' | _ -> '#' in
      grid.(rows_n - 1 - y).(x) <- c)
    datapoints;
  (* the y = x diagonal, scaled *)
  for x = 0 to buckets - 1 do
    let xv = float_of_int x /. float_of_int (buckets - 1) *. max_x in
    let y = int_of_float (xv /. max_y *. float_of_int (rows_n - 1)) in
    if y >= 0 && y < rows_n && grid.(rows_n - 1 - y).(x) = ' ' then
      grid.(rows_n - 1 - y).(x) <- '/'
  done;
  Printf.printf "  scatter (x: summed, y: merged; '.'=1q 'o'=2q '#'=3q, '/'=y=x):\n";
  Array.iter (fun row -> Printf.printf "  |%s\n" (String.init buckets (Array.get row))) grid;
  Printf.printf "  +%s\n" (String.make buckets '-');
  note "all marks at or below the diagonal reproduce Fig 6's shape."

(* ------------------------------------------------------------------ *)
(* Figs 10-12 — the 17-benchmark x 5-scheme sweep                      *)
(* ------------------------------------------------------------------ *)

let sweep_table ~title ~metric ~fmt ~better_is ~id () =
  heading id title;
  let rows =
    List.map
      (fun name ->
        let base = sweep_run name Protocol.Acc3 in
        name
        :: List.map
             (fun s ->
               let r = sweep_run name s in
               fmt (metric r /. metric base))
             schemes)
      benchmark_names
  in
  let means =
    "geomean"
    :: List.map
         (fun s ->
           let ratios =
             List.map
               (fun name ->
                 metric (sweep_run name s)
                 /. metric (sweep_run name Protocol.Acc3))
               benchmark_names
           in
           fmt (geomean ratios))
         schemes
  in
  table
    ~columns:("benchmark" :: List.map scheme_name schemes)
    ~rows:(rows @ [ means ]);
  note "normalised to accqoc_n3d3 (= 1.00); %s" better_is

let fig10 () =
  sweep_table ~id:"fig10"
    ~title:"Normalised circuit latency, 17 benchmarks x 5 schemes"
    ~metric:(fun r -> r.Protocol.latency)
    ~fmt:(Printf.sprintf "%.2f")
    ~better_is:"lower is better. Paper: paqoc(M=0) mean ~0.46, M=inf ~0.60." ()

let fig11 () =
  sweep_table ~id:"fig11"
    ~title:"Normalised circuit compilation time"
    ~metric:(fun r -> r.Protocol.compile_seconds)
    ~fmt:(Printf.sprintf "%.2f")
    ~better_is:"lower is better. Paper: paqoc(M=inf) mean ~0.57." ()

let fig12 () =
  heading "fig12" "Normalised ESP improvement";
  let rows =
    List.map
      (fun name ->
        let base = sweep_run name Protocol.Acc3 in
        name
        :: List.map
             (fun s ->
               Printf.sprintf "%.3f"
                 ((sweep_run name s).Protocol.esp /. base.Protocol.esp))
             schemes)
      benchmark_names
  in
  let means =
    "geomean"
    :: List.map
         (fun s ->
           let ratios =
             List.map
               (fun name ->
                 (sweep_run name s).Protocol.esp
                 /. (sweep_run name Protocol.Acc3).Protocol.esp)
               benchmark_names
           in
           Printf.sprintf "%.3f" (geomean ratios))
         schemes
  in
  table
    ~columns:("benchmark" :: List.map scheme_name schemes)
    ~rows:(rows @ [ means ]);
  note "normalised to accqoc_n3d3; higher is better. Paper: paqoc(M=0) ~1.27x mean."

(* ------------------------------------------------------------------ *)
(* Fig 13 — depth-limited AccQOC vs the CPHASE pattern in qaoa         *)
(* ------------------------------------------------------------------ *)

let is_cphase_block (gates : Gate.app list) =
  match gates with
  | [ { Gate.kind = Gate.CX; qubits = [ a; b ] };
      { Gate.kind = Gate.RZ _; qubits = [ r ] };
      { Gate.kind = Gate.CX; qubits = [ a'; b' ] } ] ->
    a = a' && b = b' && r = b
  | _ -> false

let fig13 () =
  heading "fig13" "AccQOC depth limits vs the QAOA CPHASE pattern";
  let physical = (Suite.transpiled (Suite.find "qaoa")).Transpile.physical in
  let dag = Dag.of_circuit physical in
  let count_cphase_slices cfg =
    Paqoc_accqoc.Slicer.slice cfg physical
    |> List.filter (fun nodes ->
           is_cphase_block (List.map (Dag.gate dag) nodes))
    |> List.length
  in
  let d3 = count_cphase_slices Paqoc_accqoc.Slicer.accqoc_n3d3 in
  let d5 = count_cphase_slices Paqoc_accqoc.Slicer.accqoc_n3d5 in
  (* the miner finds the same pattern with no depth knob at all *)
  let mined =
    Paqoc_mining.Miner.mine
      ~config:{ Paqoc_mining.Miner.default_config with min_support = 3 }
      physical
  in
  let miner_cphase =
    List.exists
      (fun (f : Paqoc_mining.Miner.found) ->
        is_cphase_block f.Paqoc_mining.Miner.pattern.Pattern.gates)
      mined
  in
  table
    ~columns:[ "method"; "CPHASE blocks isolated" ]
    ~rows:
      [ [ "accqoc_n3d3 (depth 3)"; string_of_int d3 ];
        [ "accqoc_n3d5 (depth 5)"; string_of_int d5 ];
        [ "paqoc miner (no depth knob)";
          (if miner_cphase then "pattern discovered" else "not found") ]
      ];
  note "paper: depth 3 happens to align with the CPHASE decomposition;";
  note "depth 5 does not; PAQOC finds the pattern without tuning depth."

(* ------------------------------------------------------------------ *)
(* Fig 14 — compile-time scalability of paqoc(M=inf)                   *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  heading "fig14" "paqoc(M=inf) circuit compilation time vs gate count";
  let points =
    List.map
      (fun name ->
        let r = sweep_run name Protocol.Minf in
        ( name,
          float_of_int r.Protocol.physical_gates,
          r.Protocol.compile_seconds ))
      benchmark_names
  in
  let rows =
    List.map
      (fun (name, gates, secs) ->
        [ name; Printf.sprintf "%.0f" gates;
          Printf.sprintf "%.1f" secs;
          Printf.sprintf "%.1f" (secs /. 60.0) ])
      points
  in
  table
    ~columns:[ "benchmark"; "physical gates"; "compile (s)"; "compile (min)" ]
    ~rows;
  (* least-squares fit seconds = a * gates + b *)
  let xs = List.map (fun (_, g, _) -> g) points in
  let ys = List.map (fun (_, _, s) -> s) points in
  let n = float_of_int (List.length points) in
  let sx = List.fold_left ( +. ) 0.0 xs and sy = List.fold_left ( +. ) 0.0 ys in
  let sxx = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
  let sxy = List.fold_left2 (fun acc x y -> acc +. (x *. y)) 0.0 xs ys in
  let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let intercept = (sy -. (slope *. sx)) /. n in
  let ss_tot =
    List.fold_left (fun acc y -> acc +. ((y -. (sy /. n)) ** 2.0)) 0.0 ys
  in
  let ss_res =
    List.fold_left2
      (fun acc x y -> acc +. ((y -. ((slope *. x) +. intercept)) ** 2.0))
      0.0 xs ys
  in
  note "linear fit: seconds = %.3f * gates + %.1f   (R^2 = %.3f)" slope
    intercept
    (1.0 -. (ss_res /. ss_tot));
  note "paper: near-linear scaling, < 25 min for ~1200 gates."

(* ------------------------------------------------------------------ *)
(* Table II — pulse-simulated whole-circuit fidelity                   *)
(* ------------------------------------------------------------------ *)

let table2 ?(fast = false) () =
  heading "table2" "Quality of execution via pulse simulation (larger is better)";
  note "synthesising GRAPE pulses for every customized gate; this is the";
  note "slow, real-QOC part of the harness...";
  let names =
    if fast then [ "bb84"; "simon"; "rd32_270" ] else Suite.table2_names
  in
  (* one shared QOC generator: the pulse database amortises across schemes
     exactly as the paper's lookup table does *)
  let qoc =
    Gen.create
      (Gen.Qoc
         ( { DS.default_config with
             dt = 4.0;
             slice_quantum = 2;
             grape =
               { Grape.default_config with
                 max_iters = 150;
                 target_fidelity = 0.993
               }
           },
           LM.default ))
  in
  let rows =
    List.map
      (fun name ->
        let rows, cols = Suite.small_grid (Suite.find name) in
        name
        :: List.map
             (fun s ->
               let c = compile ~rows ~cols s name in
               let f = Sim.circuit_fidelity qoc c.Service.grouped in
               Printf.sprintf "%5.2f%%" (100.0 *. f))
             schemes)
      names
  in
  table ~columns:("benchmark" :: List.map scheme_name schemes) ~rows;
  note "paper's Table II (their device scale): accqoc_n3d3 2-30%%, paqoc";
  note "variants best on every row; shape to match: paqoc >= accqoc per row."

(* ------------------------------------------------------------------ *)
(* Table III — most frequent mined subcircuits                         *)
(* ------------------------------------------------------------------ *)

let describe_pattern (p : Pattern.t) =
  String.concat "; "
    (List.map Gate.app_to_string p.Pattern.gates)

let table3 () =
  heading "table3" "Most and second-most frequent subcircuits found by the miner";
  let rows =
    List.concat_map
      (fun name ->
        let entry = Suite.find name in
        let physical = (Suite.transpiled entry).Transpile.physical in
        let found =
          Paqoc_mining.Miner.mine
            ~config:{ Paqoc_mining.Miner.default_config with min_support = 3 }
            physical
          (* Table III showcases multi-qubit structure; 1q rotation runs
             (H-decomposition fragments) are frequent but trivial *)
          |> List.filter (fun (f : Paqoc_mining.Miner.found) ->
                 f.Paqoc_mining.Miner.pattern.Pattern.arity >= 2)
        in
        match found with
        | [] -> [ [ name; "-"; "(no frequent subcircuit)"; "" ] ]
        | first :: rest ->
          let row rank (f : Paqoc_mining.Miner.found) =
            [ name; rank;
              describe_pattern f.Paqoc_mining.Miner.pattern;
              Printf.sprintf "support %d" f.Paqoc_mining.Miner.support ]
          in
          let second =
            match rest with
            | [] -> []
            | s :: _ -> [ row "2nd" s ]
          in
          row "1st" first :: second)
      Suite.table3_names
  in
  table ~columns:[ "benchmark"; "rank"; "pattern (local wires)"; "support" ] ~rows;
  note "paper's Table III: SWAP (3 concatenated CX) tops bv and qft, MAJ /";
  note "UMA parts top adder, the CPHASE decomposition tops qaoa."
