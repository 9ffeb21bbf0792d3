open Test_util
module Slicer = Paqoc_accqoc.Slicer
module Similarity = Paqoc_accqoc.Similarity
module Accqoc = Paqoc_accqoc.Accqoc
module Gen = Paqoc_pulse.Generator
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite

let sample =
  Circuit.make ~n_qubits:4
    [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.T 1;
      Gate.app2 Gate.CX 1 2; Gate.app1 Gate.H 2; Gate.app2 Gate.CX 2 3;
      Gate.app1 Gate.X 3; Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1;
      Gate.app2 Gate.CX 2 3; Gate.app1 (Gate.RZ (Angle.const 0.4)) 2;
      Gate.app2 Gate.CX 1 2 ]

let qubits_of_nodes dag nodes =
  List.concat_map (fun v -> (Dag.gate dag v).Gate.qubits) nodes
  |> List.sort_uniq compare

let depth_of_nodes dag nodes =
  (* layered depth within the slice *)
  let tbl = Hashtbl.create 8 in
  List.fold_left
    (fun acc v ->
      let g = Dag.gate dag v in
      let d =
        1 + List.fold_left
              (fun m q -> max m (Option.value ~default:0 (Hashtbl.find_opt tbl q)))
              0 g.Gate.qubits
      in
      List.iter (fun q -> Hashtbl.replace tbl q d) g.Gate.qubits;
      max acc d)
    0 nodes

let slicer_tests =
  [ case "slices partition all gates" (fun () ->
        let slices = Slicer.slice Slicer.accqoc_n3d3 sample in
        let covered = List.concat slices |> List.sort compare in
        Alcotest.(check (list int)) "all nodes"
          (List.init (Circuit.n_gates sample) Fun.id) covered);
    case "slices respect qubit and depth caps" (fun () ->
        let dag = Dag.of_circuit sample in
        List.iter
          (fun cfg ->
            List.iter
              (fun nodes ->
                check_true "<= 3 qubits"
                  (List.length (qubits_of_nodes dag nodes) <= 3);
                check_true "depth cap"
                  (depth_of_nodes dag nodes <= cfg.Slicer.max_depth))
              (Slicer.slice cfg sample))
          [ Slicer.accqoc_n3d3; Slicer.accqoc_n3d5 ]);
    case "slices are convex" (fun () ->
        let dag = Dag.of_circuit sample in
        List.iter
          (fun nodes -> check_true "convex" (Dag.is_convex dag nodes))
          (Slicer.slice Slicer.accqoc_n3d3 sample));
    case "deeper cap yields fewer groups" (fun () ->
        let n3 = List.length (Slicer.slice Slicer.accqoc_n3d3 sample) in
        let n5 = List.length (Slicer.slice Slicer.accqoc_n3d5 sample) in
        check_true "d5 <= d3" (n5 <= n3));
    case "group_circuit preserves semantics" (fun () ->
        let g = Slicer.group_circuit Slicer.accqoc_n3d3 sample in
        check_true "equivalent" (Circuit.equivalent sample (Circuit.flatten g)))
  ]

let group_of gates = fst (Gen.group_of_apps gates)

let similarity_tests =
  [ case "distance is zero on itself" (fun () ->
        let g = group_of [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ] in
        check_int "d(g,g)" 0 (Similarity.distance g g));
    case "distance is symmetric" (fun () ->
        let a = group_of [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ] in
        let b = group_of [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.T 1 ] in
        check_int "sym" (Similarity.distance a b) (Similarity.distance b a));
    case "near groups closer than far ones" (fun () ->
        let a = group_of [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ] in
        let near = group_of [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.X 1 ] in
        let far =
          group_of
            [ Gate.app1 Gate.H 0; Gate.app1 Gate.H 1;
              Gate.app2 Gate.CX 1 2; Gate.app2 Gate.CX 0 2 ]
        in
        check_true "ordering"
          (Similarity.distance a near < Similarity.distance a far));
    case "generation order covers distinct groups once" (fun () ->
        let a = group_of [ Gate.app2 Gate.CX 0 1 ] in
        let b = group_of [ Gate.app1 Gate.H 0 ] in
        let order = Similarity.generation_order [ a; b; a; b; a ] in
        check_int "two distinct" 2 (List.length order));
    case "smallest group generated first" (fun () ->
        let big = group_of [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1; Gate.app2 Gate.CX 1 2 ] in
        let small = group_of [ Gate.app1 Gate.H 0 ] in
        match Similarity.generation_order [ big; small ] with
        | first :: _ ->
          check_int "1 gate first" 1 (List.length first.Gen.gates)
        | [] -> Alcotest.fail "empty order")
  ]

let compile_tests =
  [ case "compile report is coherent" (fun () ->
        let gen = Gen.model_default () in
        let r = Accqoc.compile gen sample in
        check_true "latency positive" (r.Accqoc.latency > 0.0);
        check_true "esp bounds" (r.Accqoc.esp > 0.0 && r.Accqoc.esp <= 1.0);
        check_true "cost positive" (r.Accqoc.compile_seconds > 0.0);
        check_int "groups = gates of grouped circuit"
          (Circuit.n_gates r.Accqoc.grouped) r.Accqoc.n_groups;
        check_true "equivalent"
          (Circuit.equivalent sample (Circuit.flatten r.Accqoc.grouped)));
    case "grouping beats the fixed-gate schedule" (fun () ->
        (* each slice merges gates, so latency must not exceed the
           per-gate (fixed-gate) critical path *)
        let gen = Gen.model_default () in
        let fixed = Paqoc_pulse.Pricing.circuit_latency gen sample in
        let gen2 = Gen.model_default () in
        let r = Accqoc.compile gen2 sample in
        check_true "merged <= fixed" (r.Accqoc.latency <= fixed +. 1e-6));
    case "second compile reuses the pulse database" (fun () ->
        let gen = Gen.model_default () in
        let r1 = Accqoc.compile gen sample in
        let r2 = Accqoc.compile gen sample in
        check_true "cheaper" (r2.Accqoc.compile_seconds < r1.Accqoc.compile_seconds);
        check_int "no new pulses" 0 r2.Accqoc.pulses_generated)
  ]

let prop_tests =
  [ qcheck
      (QCheck.Test.make ~count:30 ~name:"slicing preserves unitary"
         (arb_circuit ~n:3 ~max_gates:16 ())
         (fun c ->
           let g = Slicer.group_circuit Slicer.accqoc_n3d5 c in
           Circuit.equivalent c (Circuit.flatten g)));
    qcheck
      (QCheck.Test.make ~count:30 ~name:"slices within caps"
         (arb_circuit ~n:4 ~max_gates:16 ())
         (fun c ->
           let dag = Dag.of_circuit c in
           List.for_all
             (fun nodes ->
               List.length (qubits_of_nodes dag nodes) <= 3
               && depth_of_nodes dag nodes <= 3
               && Dag.is_convex dag nodes)
             (Slicer.slice Slicer.accqoc_n3d3 c)))
  ]

(* AccQOC's generation order, coded once per group and run on the
   generator's integer distance, held to the order the string DP gave
   (test/reference_distance.ml) on seeded random group lists: repeats
   exercise the key de-duplication, small gate mixes the distance ties
   Prim's first-minimum pick breaks, and 1-3 qubit groups the qubit-count
   penalty. *)
let order_case =
  case "generation order == the string-distance oracle on random groups"
    (fun () ->
      let rng = Random.State.make [| 0xacc0 |] in
      let gate n =
        let q = Random.State.int rng n in
        let q' = (q + 1 + Random.State.int rng (max 1 (n - 1))) mod n in
        match Random.State.int rng (if n > 1 then 5 else 3) with
        | 0 -> Gate.app1 Gate.H q
        | 1 -> Gate.app1 Gate.X q
        | 2 -> Gate.app1 (Gate.RZ (Angle.const 0.25)) q
        | 3 -> Gate.app2 Gate.CX q q'
        | _ -> Gate.app2 Gate.CZ q q'
      in
      let group () =
        let n = 1 + Random.State.int rng 3 in
        group_of (List.init (1 + Random.State.int rng 6) (fun _ -> gate n))
      in
      for trial = 1 to 200 do
        let pool =
          Array.init (1 + Random.State.int rng 12) (fun _ -> group ())
        in
        let groups =
          List.init (Random.State.int rng 30) (fun _ ->
              pool.(Random.State.int rng (Array.length pool)))
        in
        let got = Similarity.generation_order groups in
        let expected = Reference_distance.generation_order groups in
        if not
             (List.length got = List.length expected
             && List.for_all2 ( == ) got expected)
        then
          Alcotest.failf "trial %d: %d groups ordered differently" trial
            (List.length groups)
      done)

let suite =
  slicer_tests @ similarity_tests @ compile_tests @ prop_tests @ [ order_case ]
