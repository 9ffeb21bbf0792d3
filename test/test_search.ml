(* The incremental search battery: the engine and the fast search loop
   are pinned to their slow oracles bit-for-bit. [Criticality.Engine]
   must expose, after any sequence of stage/commit/discard/refresh, the
   exact floats a full [Reference_criticality.analyze]
   computes — raw bit patterns, never a tolerance — and [Merger.run]
   must reproduce the oracle loop's ([Reference_search.run_reference])
   circuit and statistics exactly, at any [jobs]; over the whole suite,
   so must a
   [Paqoc.compile] against [Reference_search.compile], down to the bytes
   of the shared cache both write. The engine's staged circuit must be
   the oracle's contraction of the committed one, and pre-processing
   must match the original loop. The suite also pins the runtime
   guarantees the engine's workspace design makes: reachability queries
   allocate nothing, and a whole stage+discard step stays under fixed
   heap budgets. *)
open Test_util
module Gen = Paqoc_pulse.Generator
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite
module Crit = Reference_criticality
module Engine = Paqoc.Criticality.Engine
module Merger = Paqoc.Merger
module Suite = Paqoc_benchmarks.Suite
module Transpile = Paqoc_topology.Transpile
module Cache = Paqoc_pulse.Cache
module Faultin = Paqoc_pulse.Faultin

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %h vs %h" msg expected actual

(* ------------------------------------------------------------------ *)
(* Engine vs analyze                                                   *)
(* ------------------------------------------------------------------ *)

let case_name = function `I -> "I" | `II -> "II" | `III -> "III"

(* every exposed committed quantity must be bitwise what a from-scratch
   analysis of the same circuit against the same generator says. The
   engine's ids have holes where merges freed them; its live ids, in
   order, are the analysis's dense ids *)
let check_engine_matches msg gen eng =
  let c = Engine.circuit eng in
  let r = Crit.analyze gen c in
  let dag = Engine.dag eng in
  let live = Array.of_list (Dag.nodes dag) in
  let n = Engine.n_nodes eng in
  check_int (msg ^ ": n_nodes") (Circuit.n_gates c) n;
  check_int (msg ^ ": live ids") n (Array.length live);
  check_bits (msg ^ ": total") (Crit.total r) (Engine.total eng);
  let dense = Array.make (Dag.n_nodes dag) (-1) in
  Array.iteri
    (fun i v ->
      dense.(v) <- i;
      check_bits
        (Printf.sprintf "%s: latency %d" msg v)
        (Crit.latency r i) (Engine.latency eng v);
      check_bits
        (Printf.sprintf "%s: est %d" msg v)
        r.Crit.sched.Dag.est.(i) (Engine.est eng v);
      check_bits
        (Printf.sprintf "%s: cp_after %d" msg v)
        (Crit.cp_after r i) (Engine.cp_after eng v);
      if Crit.is_critical r i <> Engine.is_critical eng v then
        Alcotest.failf "%s: critical %d: %b vs %b" msg v (Crit.is_critical r i)
          (Engine.is_critical eng v))
    live;
  Array.iter
    (fun u ->
      List.iter
        (fun v ->
          if Crit.case_of r dense.(u) dense.(v) <> Engine.case_of eng u v then
            Alcotest.failf "%s: case (%d,%d): %s vs %s" msg u v
              (case_name (Crit.case_of r dense.(u) dense.(v)))
              (case_name (Engine.case_of eng u v)))
        (Dag.succs dag u))
    live

(* mergeable pairs on the current committed circuit: DAG edges whose
   contraction stays acyclic (exactly the candidates the search sees) *)
let mergeable_pairs dag =
  let n = Dag.n_nodes dag in
  let out = ref [] in
  for u = n - 1 downto 0 do
    List.iter
      (fun v ->
        if not (Reference_search.has_indirect_path dag u v) then
          out := (u, v) :: !out)
      (Dag.succs dag u)
  done;
  !out

(* a pulse-database write that the next edit does not touch: the pulse
   of a random committed node's single-gate group (a key several nodes
   often share) or of a group no node carries. Half the writes run
   under an injected GRAPE divergence, so they commit a fallback priced
   apart from the estimate and the nodes carrying the key must be
   repriced: a write log that drops a key fails the checks after the
   following refresh or stage *)
let untouched_write st gen eng =
  let dag = Engine.dag eng in
  let g =
    if Random.State.bool st then
      let live = Array.of_list (Dag.nodes dag) in
      [ Dag.gate dag live.(Random.State.int st (Array.length live)) ]
    else
      [ Gate.app1 (Gate.RZ (Angle.const (Random.State.float st 6.28))) 0;
        Gate.app1 Gate.SX 0;
        Gate.app1 Gate.X 0
      ]
  in
  let write () = ignore (Gen.generate gen (fst (Gen.group_of_apps g))) in
  if Random.State.bool st then
    Faultin.with_faults [ (Faultin.Grape_diverge, Faultin.Always) ] write
  else write ()

(* drive an engine through a random merge sequence, holding it to the
   from-scratch analysis after every stage, commit, discard and refresh;
   a third of the edits also synthesise the merged pulse first, the way
   the real search does (including for merges it then rolls back), and
   half the steps end with a write the edit does not touch, checked
   either after a refresh or through the next stage. Engine ids have
   holes; the oracle contracts the circuit's dense ids *)
let drive_engine st c =
  let gen = Gen.model_default () in
  let eng = Engine.create gen c in
  check_engine_matches "fresh" gen eng;
  let k = ref 0 in
  let steps = 4 + Random.State.int st 5 in
  (try
     for step = 1 to steps do
       let pairs = mergeable_pairs (Engine.dag eng) in
       if pairs = [] then raise Exit;
       let u, v = List.nth pairs (Random.State.int st (List.length pairs)) in
       incr k;
       let app =
         Rewrite.custom_of_nodes (Engine.dag eng) [ u; v ]
           ~name:(Printf.sprintf "tgrp%d" !k)
       in
       if Random.State.int st 3 = 0 then
         (* price the merged pulse first, like the search's attempt *)
         ignore (Gen.generate gen (fst (Gen.group_of_apps [ app ])));
       (* the engine relinearises on the DAG, window by window; the
          oracle contracts the committed circuit from scratch *)
       let rank x =
         List.length (List.filter (fun y -> y < x) (Dag.nodes (Engine.dag eng)))
       in
       let expected =
         Reference_search.contract (Engine.circuit eng)
           [ ([ rank u; rank v ], app) ]
       in
       let trial = Engine.stage eng [ ([ u; v ], app) ] in
       let staged = Engine.staged_circuit eng in
       check_true
         (Printf.sprintf "step %d: staged circuit == oracle contraction" step)
         (Circuit.to_string staged = Circuit.to_string expected);
       check_bits
         (Printf.sprintf "step %d: staged total" step)
         (Crit.total (Crit.analyze gen staged))
         trial;
       if Random.State.int st 4 = 0 then begin
         Engine.discard eng;
         Engine.refresh eng;
         check_engine_matches (Printf.sprintf "step %d: discarded" step) gen
           eng
       end
       else begin
         Engine.commit eng;
         check_true
           (Printf.sprintf "step %d: committed circuit" step)
           (Circuit.to_string (Engine.circuit eng) = Circuit.to_string staged);
         Engine.refresh eng;
         check_engine_matches (Printf.sprintf "step %d: committed" step) gen
           eng
       end;
       if Random.State.bool st then begin
         untouched_write st gen eng;
         if Random.State.bool st then begin
           Engine.refresh eng;
           check_engine_matches (Printf.sprintf "step %d: written" step) gen
             eng
         end
       end
     done
   with Exit -> ());
  true

let engine_differential =
  QCheck.Test.make ~count:40 ~name:"engine == analyze under random merges"
    (arb_circuit ~n:4 ~max_gates:14 ())
    (fun c ->
      (* seed the edit sequence from the circuit so failures replay *)
      let st = Random.State.make [| 0x5eed; Circuit.n_gates c |] in
      drive_engine st c)

(* ------------------------------------------------------------------ *)
(* run vs run_reference                                                *)
(* ------------------------------------------------------------------ *)

let check_same_result msg (c_a, (s_a : Merger.stats)) (c_b, s_b) =
  check_true
    (msg ^ ": circuits")
    (Circuit.to_string c_a = Circuit.to_string c_b);
  check_int (msg ^ ": iterations") s_a.Merger.iterations s_b.Merger.iterations;
  check_int (msg ^ ": committed") s_a.Merger.merges_committed
    s_b.Merger.merges_committed;
  check_int (msg ^ ": rolled back") s_a.Merger.merges_rolled_back
    s_b.Merger.merges_rolled_back;
  check_bits (msg ^ ": initial latency") s_a.Merger.initial_latency
    s_b.Merger.initial_latency;
  check_bits (msg ^ ": final latency") s_a.Merger.final_latency
    s_b.Merger.final_latency

(* vary the knobs trial to trial so top_k batches, the maxN cap and
   Case-III pruning all get exercised *)
let trial = ref 0

let search_differential =
  QCheck.Test.make ~count:30
    ~name:"Merger.run == run_reference (fresh generators, jobs 1 and 4)"
    (arb_circuit ~n:4 ~max_gates:14 ())
    (fun c ->
      incr trial;
      let config =
        { Merger.default_config with
          top_k = 1 + (!trial mod 3);
          max_n = 2 + (!trial mod 2);
          prune_noncritical = !trial mod 2 = 0
        }
      in
      let reference =
        Reference_search.run_reference ~config (Gen.model_default ()) c
      in
      let fast = Merger.run ~config (Gen.model_default ()) c in
      check_same_result "jobs 1" reference fast;
      let fast4 = Merger.run ~config ~jobs:4 (Gen.model_default ()) c in
      check_same_result "jobs 4" reference fast4;
      true)

(* ------------------------------------------------------------------ *)
(* End-to-end suite equivalence (golden)                               *)
(* ------------------------------------------------------------------ *)

(* One compile-suite run per mode: every benchmark through a fresh
   model generator and one shared cache file. Returns each benchmark's
   report with its shared-cache hits and misses (the suite table's
   columns), and the bytes the cache file holds once closed. *)
let suite_run compile =
  let path = Filename.temp_file "paqoc_search" ".cache" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let reports =
        Cache.with_file path (fun cache ->
            List.map
              (fun (e : Suite.entry) ->
                let physical = (Suite.transpiled e).Transpile.physical in
                let s0 = Cache.stats cache in
                let r = compile ~cache (Gen.model_default ()) physical in
                let s1 = Cache.stats cache in
                ( e.Suite.name,
                  r,
                  s1.Cache.hits - s0.Cache.hits,
                  s1.Cache.misses - s0.Cache.misses ))
              Suite.all)
      in
      (reports, In_channel.with_open_bin path In_channel.input_all))

let suite_equivalence =
  slow_case "all 17 benchmarks: incremental == reference == jobs 4" (fun () ->
      let r, r_bytes = suite_run Reference_search.compile in
      List.iter
        (fun (tag, jobs) ->
          let x, x_bytes =
            suite_run (fun ~cache gen c -> Paqoc.compile ~jobs ~cache gen c)
          in
          List.iter2
            (fun (name, (r : Paqoc.report), r_hits, r_misses)
                 (_, (x : Paqoc.report), x_hits, x_misses) ->
              let what field = Printf.sprintf "%s: %s (%s)" name field tag in
              check_true (what "grouped circuit")
                (Circuit.to_string r.Paqoc.grouped
                = Circuit.to_string x.Paqoc.grouped);
              check_bits (what "latency") r.Paqoc.latency x.Paqoc.latency;
              check_bits (what "esp") r.Paqoc.esp x.Paqoc.esp;
              check_int (what "episodes") r.Paqoc.n_groups x.Paqoc.n_groups;
              check_same_result (what "stats")
                (r.Paqoc.grouped, r.Paqoc.merge_stats)
                (x.Paqoc.grouped, x.Paqoc.merge_stats);
              check_int (what "synthesized") r.Paqoc.pulses_generated
                x.Paqoc.pulses_generated;
              check_int (what "cache hits") r_hits x_hits;
              check_int (what "cache misses") r_misses x_misses)
            r x;
          check_true
            (Printf.sprintf "shared cache bytes (%s)" tag)
            (String.equal r_bytes x_bytes))
        [ ("jobs 1", 1); ("jobs 4", 4) ])

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* One whole stage+discard cycle, merging the first mergeable pair.
   The edit is in place, so a step allocates what its window touches
   and nothing sized by the circuit: the window's new adjacency lists
   and undo-log entries, the merged gate's key and price — no id-sized
   array, no circuit, no per-node boxing. Words per step, measured:
   ham7_104 (560 episodes) 686 minor; raw dnn (3,788 episodes) 871
   minor and none straight into the major heap. The ceilings, about
   twice the figures, pin the order of magnitude; the two figures must
   also stay within 2x of each other although the circuits differ 6.8x
   in size (a step must not scale with n), and dnn's major words must
   stay below one node-sized array. *)
let step_budget_words = 1_400.0
let dnn_step_budget_minor = 1_700.0
let dnn_step_budget_major = 3_788.0

(* minor words and words allocated straight into the major heap (not
   promoted ones, which depend on when minor collections fall) per
   stage+discard step *)
let step_words physical =
  let gen = Gen.model_default () in
  let eng = Engine.create gen physical in
  let dag = Engine.dag eng in
  let u, v = List.hd (mergeable_pairs dag) in
  let app = Rewrite.custom_of_nodes dag [ u; v ] ~name:"budget" in
  let groups = [ ([ u; v ], app) ] in
  for _ = 1 to 3 do
    ignore (Engine.stage eng groups);
    Engine.discard eng
  done;
  let reps = 50 in
  let s0 = Gc.quick_stat () in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Engine.stage eng groups);
    Engine.discard eng
  done;
  let minor = Gc.minor_words () -. before in
  let s1 = Gc.quick_stat () in
  let direct (s : Gc.stat) = s.Gc.major_words -. s.Gc.promoted_words in
  ( minor /. float_of_int reps,
    (direct s1 -. direct s0) /. float_of_int reps )

let alloc_suite =
  [ case "reachability workspace queries allocate nothing" (fun () ->
        let c = (Suite.transpiled (Suite.find "rd32_270")).Transpile.physical in
        let dag = Dag.of_circuit c in
        let n = Dag.n_nodes dag in
        let ws = Dag.reach_ws n in
        (* correctness first: agree with the allocating DFS everywhere *)
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if Dag.has_indirect_path_ws ws dag u v
               <> Reference_search.has_indirect_path dag u v
            then
              Alcotest.failf "ws DFS disagrees at (%d,%d)" u v
          done
        done;
        let before = Gc.minor_words () in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            ignore (Dag.has_indirect_path_ws ws dag u v)
          done
        done;
        let per =
          (Gc.minor_words () -. before) /. float_of_int (n * n)
        in
        if per > 0.5 then
          Alcotest.failf
            "has_indirect_path_ws allocates %.2f words/query — the \
             workspace contract is zero"
            per);
    slow_case "a warmed-up merge step stays under the minor-heap budget"
      (fun () ->
        let physical =
          (Suite.transpiled (Suite.find "ham7_104")).Transpile.physical
        in
        let per_step, _ = step_words physical in
        if per_step > step_budget_words then
          Alcotest.failf
            "stage+discard allocates %.0f minor words/step, over the %.0f \
             budget — a hot-path allocation crept back in"
            per_step step_budget_words)
  ]

(* ------------------------------------------------------------------ *)
(* Priced-latency memo                                                 *)
(* ------------------------------------------------------------------ *)

let priced_memo_suite =
  [ case "warm re-analysis performs no pricing work" (fun () ->
        let c = (Suite.transpiled (Suite.find "rd32_270")).Transpile.physical in
        let gen = Gen.model_default () in
        ignore (Crit.analyze gen c);
        let cold = Gen.price_misses gen in
        check_true "cold analysis priced something" (cold > 0);
        let t1 = Crit.analyze gen c in
        check_int "warm analysis adds no misses" cold (Gen.price_misses gen);
        let t2 = Crit.analyze gen c in
        check_int "and stays warm" cold (Gen.price_misses gen);
        check_bits "memoized totals agree" (Crit.total t1) (Crit.total t2));
    case "generation writes prices through to the memo" (fun () ->
        let gen = Gen.model_default () in
        let g =
          fst
            (Gen.group_of_apps
               [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ])
        in
        let epoch0 = Gen.price_epoch gen in
        let misses0 = Gen.price_misses gen in
        let o = Gen.generate gen g in
        check_true "generate bumps the price epoch"
          (Gen.price_epoch gen > epoch0);
        (match Gen.priced_latency_of_key gen (Gen.key g) with
        | None -> Alcotest.fail "generated group missing from the memo"
        | Some l -> check_bits "write-through latency" o.Gen.latency l);
        check_bits "priced_latency reads the committed price" o.Gen.latency
          (Gen.priced_latency gen g);
        check_int "none of it counted as a miss" misses0
          (Gen.price_misses gen));
    case "an unseen group misses once, then never again" (fun () ->
        let gen = Gen.model_default () in
        let g = fst (Gen.group_of_apps [ Gate.app2 Gate.CZ 1 2 ]) in
        let misses0 = Gen.price_misses gen in
        let l1 = Gen.priced_latency gen g in
        check_int "first lookup is the miss" (misses0 + 1)
          (Gen.price_misses gen);
        let l2 = Gen.priced_latency gen g in
        check_int "second lookup is free" (misses0 + 1)
          (Gen.price_misses gen);
        check_bits "and returns the same price" l1 l2);
    case "the write log reports exactly the keys put since an epoch"
      (fun () ->
        let gen = Gen.model_default () in
        let group apps = fst (Gen.group_of_apps apps) in
        let key apps = Gen.key (group apps) in
        let check_since msg e expected =
          let got = Gen.written_since gen e in
          if got <> expected then
            Alcotest.failf "%s: [%s] vs [%s]" msg (String.concat "; " got)
              (String.concat "; " expected)
        in
        let e0 = Gen.price_epoch gen in
        (* a synthesis puts its key; a warm hit puts nothing *)
        let a = [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ] in
        ignore (Gen.generate gen (group a));
        check_since "synthesis" e0 [ key a ];
        let e1 = Gen.price_epoch gen in
        ignore (Gen.generate gen (group a));
        check_since "warm hit" e1 [];
        (* a shared-cache hit imports the entry under its key *)
        let cache = Cache.create () in
        let b = [ Gate.app1 Gate.SX 0; Gate.app2 Gate.CX 0 1 ] in
        Cache.publish cache (key b)
          { Cache.latency = 77.0;
            error = 0.01;
            fidelity = 0.99;
            provenance = Gen.Synthesized
          };
        Gen.set_shared_cache gen (Some cache);
        let e2 = Gen.price_epoch gen in
        ignore (Gen.generate gen (group b));
        check_since "shared-cache hit" e2 [ key b ];
        (* with the canonical tier on, CZ replays the CX synthesised
           earlier in its batch: two puts, in batch order *)
        Gen.set_canonical gen true;
        let cx = [ Gate.app2 Gate.CX 0 1 ] and cz = [ Gate.app2 Gate.CZ 0 1 ] in
        let e3 = Gen.price_epoch gen in
        ignore (Gen.generate_batch gen [ group cx; group cz ]);
        check_true "CZ is a class replay"
          (List.mem_assoc (key cz) (Gen.canonical_replays gen));
        check_since "class replay" e3 [ key cx; key cz ];
        (* load_database puts the rows the generator lacks, in file
           (sorted key) order *)
        let other = Gen.model_default () in
        let c = [ Gate.app1 Gate.X 0; Gate.app2 Gate.CX 1 0 ]
        and d = [ Gate.app2 Gate.CZ 0 1; Gate.app1 Gate.H 1 ] in
        List.iter (fun g -> ignore (Gen.generate other (group g))) [ a; c; d ];
        let path = Filename.temp_file "paqoc_written" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Gen.save_database other path;
            let e4 = Gen.price_epoch gen in
            Gen.load_database gen path;
            check_since "load_database" e4
              (List.sort String.compare [ key c; key d ]);
            check_since "the whole log" e0
              ([ key a; key b; key cx; key cz ]
              @ List.sort String.compare [ key c; key d ]);
            check_since "nothing since now" (Gen.price_epoch gen) []))
  ]

(* ------------------------------------------------------------------ *)
(* Contraction on raw dnn; pre-processing against its oracle           *)
(* ------------------------------------------------------------------ *)

let dnn_step_case =
  slow_case "dnn: a warmed-up merge step stays under the heap budgets"
    (fun () ->
      let physical = (Suite.transpiled (Suite.find "dnn")).Transpile.physical in
      check_int "raw dnn episodes" 3788 (Circuit.n_gates physical);
      let minor, major = step_words physical in
      let small, _ =
        step_words (Suite.transpiled (Suite.find "ham7_104")).Transpile.physical
      in
      if minor > 2.0 *. small || small > 2.0 *. minor then
        Alcotest.failf
          "a step on dnn allocates %.0f minor words and on ham7_104 %.0f: \
           more than 2x apart, so a step scales with the circuit"
          minor small;
      if minor > dnn_step_budget_minor then
        Alcotest.failf
          "stage+discard on dnn allocates %.0f minor words/step, over the \
           %.0f budget"
          minor dnn_step_budget_minor;
      if major >= dnn_step_budget_major then
        Alcotest.failf
          "stage+discard on dnn allocates %.0f words/step straight into the \
           major heap, over the %.0f budget"
          major dnn_step_budget_major)

(* Both sides of [suite_equivalence] run the product's pre-processing,
   so that case cannot see a pre-processing change; this one holds
   [Candidates.preprocess] to the original loop directly. *)
let preprocess_pin =
  slow_case "preprocess == reference loop on Table I and extras, maxN 2-4"
    (fun () ->
      List.iter
        (fun (e : Suite.entry) ->
          let physical = (Suite.transpiled e).Transpile.physical in
          List.iter
            (fun maxN ->
              check_true
                (Printf.sprintf "%s at maxN %d" e.Suite.name maxN)
                (Circuit.to_string (Paqoc.Candidates.preprocess physical ~maxN)
                = Circuit.to_string (Reference_search.preprocess physical ~maxN)))
            [ 2; 3; 4 ])
        (Suite.all @ Suite.extras))

(* Every mergeable pair of a real circuit, staged and discarded in turn,
   then one of them committed so the next round stages over holes. On
   circuits this size a window can emit a group after a node with a
   larger id, which moves a surviving node to a higher id — a case the
   small random circuits above rarely reach. *)
let qpe_stage_case =
  case "engine stages every mergeable pair of qpe exactly" (fun () ->
      let physical = (Suite.transpiled (Suite.find "qpe")).Transpile.physical in
      let scheme = Paqoc.paqoc_m0 in
      let apa =
        Paqoc_mining.Apa.apply ~miner:scheme.Paqoc.miner
          ~mode:scheme.Paqoc.apa_mode physical
      in
      let pre =
        Paqoc.Candidates.preprocess apa.Paqoc_mining.Apa.circuit
          ~maxN:scheme.Paqoc.merger.Merger.max_n
      in
      let gen = Gen.model_default () in
      let eng = Engine.create gen pre in
      for round = 1 to 4 do
        let pairs = mergeable_pairs (Engine.dag eng) in
        let stage (u, v) =
          let app =
            Rewrite.custom_of_nodes (Engine.dag eng) [ u; v ]
              ~name:(Printf.sprintf "q%d_%d_%d" round u v)
          in
          let trial = Engine.stage eng [ ([ u; v ], app) ] in
          check_bits
            (Printf.sprintf "round %d: staged total of (%d,%d)" round u v)
            (Crit.total (Crit.analyze gen (Engine.staged_circuit eng)))
            trial
        in
        List.iter
          (fun pair ->
            stage pair;
            Engine.discard eng)
          pairs;
        check_engine_matches (Printf.sprintf "round %d: discarded" round) gen
          eng;
        stage (List.nth pairs (List.length pairs / 2));
        Engine.commit eng;
        check_engine_matches (Printf.sprintf "round %d: committed" round) gen
          eng
      done)

let suite =
  [ qcheck engine_differential;
    qcheck search_differential;
    suite_equivalence
  ]
  @ alloc_suite @ priced_memo_suite
  @ [ dnn_step_case; preprocess_pin; qpe_stage_case ]
