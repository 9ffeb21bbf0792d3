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
            suite_run (fun ~cache gen c ->
                Paqoc.compile ~jobs (attached cache gen) c)
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
(* Prices: the pulse table, the model estimate and the write log       *)
(* ------------------------------------------------------------------ *)

let prices_suite =
  [ case
      "a generator reused for a second search gives the engine the \
       latencies of a fresh generator loaded with the same table"
      (fun () ->
        (* the product builds one search per generator; a generator that
           served one compile must still hand the next engine exactly
           the prices a fresh generator holding the same table would.
           The first compile runs under an injected GRAPE divergence, so
           its table holds fallback prices apart from the estimates *)
        let physical name =
          (Suite.transpiled (Suite.find name)).Transpile.physical
        in
        let first = physical "rd32_270" and second = physical "mod5d2_64" in
        let reused =
          Gen.model_default
            ~retry:{ Gen.default_retry with Gen.max_attempts = 1 } ()
        in
        Faultin.with_faults
          [ (Faultin.Grape_diverge, Faultin.Always) ]
          (fun () -> ignore (Paqoc.compile reused first));
        let loaded = Gen.model_default () in
        let path = Filename.temp_file "paqoc_reused" ".db" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Gen.save_database reused path;
            Gen.load_database loaded path);
        let a = Engine.create reused second
        and b = Engine.create loaded second in
        check_int "nodes" (Engine.n_nodes b) (Engine.n_nodes a);
        let from_table = ref 0 in
        for v = 0 to Engine.n_nodes a - 1 do
          check_bits
            (Printf.sprintf "latency %d" v)
            (Engine.latency b v) (Engine.latency a v);
          let g = fst (Gen.group_of_apps [ Dag.gate (Engine.dag a) v ]) in
          if bits (Engine.latency a v) <> bits (Gen.estimate_latency reused g)
          then incr from_table
        done;
        check_true "the table, not the estimate, priced some nodes"
          (!from_table > 0);
        check_bits "total" (Engine.total b) (Engine.total a);
        check_engine_matches "reused" reused a;
        check_same_result "second search" (Merger.run loaded second)
          (Merger.run reused second));
    case "generation writes prices through to the memo" (fun () ->
        let gen = Gen.model_default () in
        let g =
          fst
            (Gen.group_of_apps
               [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ])
        in
        let epoch0 = Gen.price_epoch gen in
        check_true "no row before the write"
          (Gen.table_latency gen (Gen.key g) = None);
        let o = Gen.generate gen g in
        check_true "generate bumps the price epoch"
          (Gen.price_epoch gen > epoch0);
        match Gen.table_latency gen (Gen.key g) with
        | None -> Alcotest.fail "generated group missing from the table"
        | Some l -> check_bits "table latency" o.Gen.latency l);
    case
      "episode_latency_estimate is the table latency, else the model \
       estimate, a fallback price included"
      (fun () ->
        let gen =
          Gen.model_default
            ~retry:{ Gen.default_retry with Gen.max_attempts = 1 } ()
        in
        let episode arity body =
          Gate.app
            (Gate.Custom (Gate.make_custom ~name:"episode" ~arity body))
            (List.init arity Fun.id)
        in
        let group app = fst (Gen.group_of_apps [ app ]) in
        let estimate app = Gen.estimate_latency gen (group app) in
        let price = Paqoc_pulse.Pricing.episode_latency_estimate gen in
        let made =
          episode 2
            [ Gate.app2 Gate.CX 0 1;
              Gate.app1 (Gate.RZ (Angle.const 0.7)) 1;
              Gate.app2 Gate.CX 0 1
            ]
        in
        check_bits "an unseen episode is the model estimate" (estimate made)
          (price made);
        let o = Gen.generate gen (group made) in
        check_bits "a synthesised episode is its table latency" o.Gen.latency
          (price made);
        let failed =
          episode 3
            [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2; Gate.app1 Gate.H 2 ]
        in
        let fb =
          Faultin.with_faults
            [ (Faultin.Grape_diverge, Faultin.Always) ]
            (fun () -> Gen.generate gen (group failed))
        in
        check_true "the episode fell back" (fb.Gen.provenance = Gen.Fallback);
        check_true "a fallback is priced apart from the estimate"
          (bits fb.Gen.latency <> bits (estimate failed));
        check_bits "a fallback episode is its table latency" fb.Gen.latency
          (price failed));
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

(* A merge chain as deep and as large as the deepest and the largest
   group a warm suite pass prices: 22 nested customs, 134 primitives
   (each level wraps the one below with six gates, on a rotated wire
   order). Rendering its 1,040-byte key and pricing its
   model estimate once costs 894 minor words, most of them the key
   buffer's growth; the budget is about twice that. The list-copying
   renderer and model (test/reference_keys.ml) rebuilt a relabelled copy
   of the subtree at every level and spent 26,471 words. *)
let deep_key_budget_words = 1_800.0

let deep_merge_chain () =
  let rz k q =
    Gate.app1 (Gate.RZ (Angle.const (float_of_int k *. Angle.pi /. 4.0))) q
  in
  let block level =
    [ Gate.app2 Gate.CX 0 1; rz level 1; Gate.app1 Gate.SX 1;
      Gate.app2 Gate.CX 1 2; rz (level + 3) 2; Gate.app1 Gate.X 0 ]
  in
  let wrap level inner =
    Gate.app
      (Gate.Custom
         (Gate.make_custom ~name:(Printf.sprintf "grp%d" level) ~arity:3
            (inner @ block level)))
      [ 0; 1; 2 ]
  in
  let rec chain level acc =
    if level > 22 then acc
    else
      let rotated = { acc with Gate.qubits = [ 1; 2; 0 ] } in
      chain (level + 1) (wrap level [ rotated ])
  in
  chain 2 (wrap 1 [ Gate.app2 Gate.CZ 0 2; Gate.app1 Gate.H 0 ])

let deep_key_case =
  case "a 22-deep merge chain renders and prices under the word budget"
    (fun () ->
      let top = deep_merge_chain () in
      let g = fst (Gen.group_of_apps [ top ]) in
      let primitives = ref 0 and depth = ref 0 in
      let rec measure d (a : Gate.app) =
        match a.Gate.kind with
        | Gate.Custom cu ->
          depth := max !depth (d + 1);
          List.iter (measure (d + 1)) cu.Gate.body
        | _ -> incr primitives
      in
      measure 0 top;
      check_int "nesting depth" 22 !depth;
      check_int "primitives" 134 !primitives;
      let gen = Gen.model_default () in
      let price () =
        let k = Gen.key g in
        ignore (Sys.opaque_identity (Gen.estimate_latency_of_key gen g k))
      in
      price ();
      let reps = 100 in
      let before = Gc.minor_words () in
      for _ = 1 to reps do
        price ()
      done;
      let per = (Gc.minor_words () -. before) /. float_of_int reps in
      if per > deep_key_budget_words then
        Alcotest.failf
          "rendering and pricing the deep chain allocates %.0f minor words, \
           over the %.0f budget"
          per deep_key_budget_words)

(* Pre-merging dnn's APA circuit (3,788 gates in, 1,617 out) allocates
   1,034,074 minor words, nearly all of it the merged gates and the
   in-place edits. Each Observation-1 test counts qubits against stamps
   and each successor list is walked back to front; the loop that ran
   three sorted unions per test, sorted a copy of every list and named
   each merge through Printf spent 6,159,276. The budget is about twice
   the measured figure. *)
let preprocess_budget_words = 2_100_000.0

let preprocess_budget_case =
  case "pre-merging dnn stays under the minor-word budget" (fun () ->
      let physical = (Suite.transpiled (Suite.find "dnn")).Transpile.physical in
      let scheme = Paqoc.paqoc_m0 in
      let apa =
        Paqoc_mining.Apa.apply ~miner:scheme.Paqoc.miner
          ~mode:scheme.Paqoc.apa_mode physical
      in
      let c = apa.Paqoc_mining.Apa.circuit in
      let maxN = scheme.Paqoc.merger.Merger.max_n in
      let out = Paqoc.Candidates.preprocess c ~maxN in
      let reps = 5 in
      let before = Gc.minor_words () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (Paqoc.Candidates.preprocess c ~maxN))
      done;
      let per = (Gc.minor_words () -. before) /. float_of_int reps in
      if per > preprocess_budget_words then
        Alcotest.failf
          "pre-merging dnn (%d gates in, %d out) allocates %.0f minor words, \
           over the %.0f budget"
          (Circuit.n_gates c) (Circuit.n_gates out) per
          preprocess_budget_words)

(* ------------------------------------------------------------------ *)
(* The pair table against a scorer that prices every edge afresh       *)
(* ------------------------------------------------------------------ *)

module Ranking = Paqoc.Ranking
module Pair_table = Merger.Pair_table

(* a pass of the walk drained in full: its candidates in the order it
   hands them out, scores as bit patterns *)
let drain table =
  Pair_table.start table;
  let b = Pair_table.candidates table in
  let rec go acc =
    let i = Pair_table.next table in
    if i < 0 then List.rev acc
    else
      go
        ((Ranking.cand_u b i, Ranking.cand_v b i, bits (Ranking.cand_score b i))
        :: acc)
  in
  go []

(* the ranking order, as the reference ranks: score descending, then
   pair ascending *)
let fresh_order l =
  List.sort
    (fun (u, v, s) (u', v', s') ->
      let s = Int64.float_of_bits s and s' = Int64.float_of_bits s' in
      if s <> s' then compare s' s else compare (u, v) (u', v'))
    l

(* the score pass with no table and no order: [Merger.pair_content] on
   every edge the pruning keeps, the blacklist a set of merged keys,
   every such edge scored by [Ranking.score_value] and the positive
   ones sorted into the ranking order; [wide] counts the kept edges
   wider than [max_n] *)
let fresh_score gen (config : Merger.config) eng blacklisted wide =
  let dag = Engine.dag eng in
  let include_iii = not config.Merger.prune_noncritical in
  let kept = ref [] in
  for u = 0 to Dag.n_nodes dag - 1 do
    let succs = Dag.succs dag u in
    List.iter
      (fun v ->
        let cu = Engine.is_critical eng u and cv = Engine.is_critical eng v in
        if include_iii || cu || cv then begin
          let mkey, union_n, est =
            Merger.pair_content gen (Dag.gate dag u) (Dag.gate dag v)
          in
          if union_n > config.Merger.max_n then incr wide
          else if not (Hashtbl.mem blacklisted mkey) then begin
            let alt =
              List.fold_left
                (fun acc s ->
                  if s = v then acc
                  else
                    Float.max acc
                      (Engine.latency eng s +. Engine.cp_after eng s))
                0.0 succs
            in
            let s =
              Ranking.score_value ~case:(Engine.case_of eng u v)
                ~u_critical:cu ~l_u:(Engine.latency eng u)
                ~l_v:(Engine.latency eng v) ~cp_v:(Engine.cp_after eng v)
                ~alt_after_u:alt ~est
            in
            if s > 1e-9 then kept := (u, v, bits s) :: !kept
          end
        end)
      succs
  done;
  fresh_order !kept

(* Drive a random merge sequence on [c] and, after every step, drain
   the walk in full and hold it to the fresh scorer's order, bit for
   bit: draining makes the order the walk hands out depend on its stop
   test. A step stages a merge of a candidate (valid ones) or of
   any mergeable pair, synthesising its pulse a third of the time, then
   commits it, discards it, or discards it and blacklists its merged key
   as a rollback does; half the steps end with a pulse write, and every
   score pass follows a refresh, as each search iteration's does. The
   table computes
   its entries through [content], which fails the case if it ever sees
   a pair wider than [max_n]. Adds the wide edges the fresh scorer met
   to [wide] and the blacklisted keys to [rollbacks]. *)
let drive_pair_table st ~steps ~wide ~rollbacks (config : Merger.config) c =
  let gen = Gen.model_default () in
  let eng = Engine.create gen c in
  let content gu gv =
    let (_, union_n, _) as r = Merger.pair_content gen gu gv in
    if union_n > config.Merger.max_n then
      Alcotest.failf "a %d-qubit pair reached the key renderer (max_n %d)"
        union_n config.Merger.max_n;
    r
  in
  let table = Pair_table.create config eng ~content in
  let blacklisted = Hashtbl.create 8 in
  let check msg =
    Engine.refresh eng;
    let got = drain table in
    let expected = fresh_score gen config eng blacklisted wide in
    let show = function
      | [] -> "none"
      | (u, v, s) :: _ ->
        Printf.sprintf "(%d,%d) score %h" u v (Int64.float_of_bits s)
    in
    let rec differ i a b =
      match (a, b) with
      | x :: a', y :: b' when x = y -> differ (i + 1) a' b'
      | [], [] -> ()
      | _ ->
        Alcotest.failf "%s: candidate %d of the walk: table %s, fresh %s" msg i
          (show a) (show b)
    in
    differ 0 got expected;
    got
  in
  let k = ref 0 in
  let cands = ref (check "fresh") in
  (try
     for step = 1 to steps do
       let dag = Engine.dag eng in
       let valid =
         List.filter_map
           (fun (u, v, _) ->
             if Reference_search.has_indirect_path dag u v then None
             else Some (u, v))
           !cands
       in
       let pairs =
         if valid <> [] && Random.State.bool st then valid
         else mergeable_pairs dag
       in
       if pairs = [] then raise Exit;
       let u, v = List.nth pairs (Random.State.int st (List.length pairs)) in
       incr k;
       let app =
         Rewrite.custom_of_nodes dag [ u; v ] ~name:(Printf.sprintf "pt%d" !k)
       in
       if Random.State.int st 3 = 0 then
         ignore (Gen.generate gen (fst (Gen.group_of_apps [ app ])));
       ignore (Engine.stage eng [ ([ u; v ], app) ]);
       (match Random.State.int st 4 with
       | 0 -> Engine.discard eng
       | 1 ->
         Engine.discard eng;
         let mkey, _, _ =
           Merger.pair_content gen (Dag.gate dag u) (Dag.gate dag v)
         in
         Hashtbl.replace blacklisted mkey ();
         Pair_table.blacklist table u v;
         incr rollbacks
       | _ -> Engine.commit eng);
       if Random.State.bool st then untouched_write st gen eng;
       cands := check (Printf.sprintf "step %d" step)
     done
   with Exit -> ())

let pair_configs =
  [ Merger.default_config;
    { Merger.default_config with Merger.max_n = 2 };
    { Merger.default_config with Merger.max_n = 4; prune_noncritical = false }
  ]

let pair_table_case =
  slow_case "pair table == pair_content afresh on every edge (random, dnn)"
    (fun () ->
      let wide = ref 0 and rollbacks = ref 0 in
      let st = Random.State.make [| 0x9a1e; 28 |] in
      for trial = 1 to 30 do
        let c =
          QCheck.Gen.generate1 ~rand:st (gen_circuit ~n:5 ~max_gates:24 ())
        in
        List.iter
          (fun config ->
            drive_pair_table
              (Random.State.make [| trial; config.Merger.max_n |])
              ~steps:12 ~wide ~rollbacks config c)
          pair_configs
      done;
      let physical = (Suite.transpiled (Suite.find "dnn")).Transpile.physical in
      let scheme = Paqoc.paqoc_m0 in
      let apa =
        Paqoc_mining.Apa.apply ~miner:scheme.Paqoc.miner
          ~mode:scheme.Paqoc.apa_mode physical
      in
      let pre =
        Paqoc.Candidates.preprocess apa.Paqoc_mining.Apa.circuit
          ~maxN:scheme.Paqoc.merger.Merger.max_n
      in
      drive_pair_table (Random.State.make [| 0xd22 |]) ~steps:16 ~wide
        ~rollbacks scheme.Paqoc.merger pre;
      check_true "some kept edges were wider than max_n" (!wide > 0);
      check_true "some steps rolled back and blacklisted" (!rollbacks > 0))

(* ------------------------------------------------------------------ *)
(* The walk's stop test on synthetic arrays                            *)
(* ------------------------------------------------------------------ *)

(* Five disjoint edges 0->1, 2->3, 4->5, 6->7 and 8->9 with hand-set
   latencies, CP-after values and critical flags:
   - e = (0, 1), Case I, whose computed score exceeds its computed bound
     by one ulp (2^-45), as rounding allows;
   - c = (2, 3), Case II (v critical), whose bound is above e's and
     whose score ties e's exactly: e must still come first, by its pair,
     so the walk may not emit c before it has scored e;
   - (4, 5) and (6, 7), Case III, whose scores tie each other at their
     shared bound (scored only in the pruning ablation);
   - (8, 9), whose bound is negative: filler that no pass may score.
   With a total of 8 dt the margin is 8 * 2^-48 = 2^-45, so e's score
   sits exactly at its bound plus the margin: a walk that emits c on
   [>=] instead of [>] fails there, and one with no margin fails at any
   total. *)
let stop_test_lat =
  [| 0x1.5acf9b2c9e384p+7;
     0x1.875cdb8d7fadcp+7;
     0.5;
     0x1.b38d47f9d1f80p+7 +. 1.0;
     100.0; 100.0; 100.0; 100.0; 10.0; 10.0
  |]

let stop_test_est =
  [ (0, 0x1.2e9f2ec04bee1p+7); (2, 1.0); (4, 50.0); (6, 50.0); (8, 1e6) ]

let stop_test_dag =
  let g a = Gate.app2 Gate.CX a (a + 1) in
  Dag.of_circuit
    (Circuit.make ~n_qubits:10
       (List.concat_map (fun a -> [ g a; g a ]) [ 0; 2; 4; 6; 8 ]))

let stop_test_view ~include_iii ~total =
  let n = Array.length stop_test_lat in
  let cp = Array.make n 0.0 in
  cp.(1) <- 0x1.6addd6848b37bp+14;
  let crit = Array.make n false in
  crit.(0) <- true;
  crit.(1) <- true;
  crit.(3) <- true;
  { Ranking.lat = stop_test_lat;
    cp;
    crit;
    dag = stop_test_dag;
    uid = Array.init n Fun.id;
    id_of_uid = Array.init n Fun.id;
    stamps = Array.make n 0;
    include_iii;
    total
  }

(* every kept score of the view, in the ranking order *)
let stop_test_fresh (w : Ranking.view) =
  fresh_order
    (List.filter_map
       (fun (u, est) ->
         let v = u + 1 in
         let cu = w.Ranking.crit.(u) and cv = w.Ranking.crit.(v) in
         if not (w.Ranking.include_iii || cu || cv) then None
         else
           let case = if cu && cv then `I else if cu || cv then `II else `III in
           let s =
             Ranking.score_value ~case ~u_critical:cu ~l_u:w.Ranking.lat.(u)
               ~l_v:w.Ranking.lat.(v) ~cp_v:w.Ranking.cp.(v) ~alt_after_u:0.0
               ~est
           in
           if s > 1e-9 then Some (u, v, bits s) else None)
       stop_test_est)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      l

let stop_test_case =
  case "the walk's stop test: an ulp over the bound, and ties at it"
    (fun () ->
      let e_score =
        Ranking.score_value ~case:`I ~u_critical:true ~l_u:stop_test_lat.(0)
          ~l_v:stop_test_lat.(1) ~cp_v:0x1.6addd6848b37bp+14 ~alt_after_u:0.0
          ~est:0x1.2e9f2ec04bee1p+7
      and e_bound =
        Ranking.bound ~l_u:stop_test_lat.(0) ~l_v:stop_test_lat.(1)
          ~est:0x1.2e9f2ec04bee1p+7
      in
      check_bits "e's score is its bound plus one ulp" (e_bound +. 0x1p-45)
        e_score;
      check_bits "a margin of 2^-45 at 8 dt" 0x1p-45 (Ranking.margin 8.0);
      List.iter
        (fun (include_iii, total) ->
          let w = stop_test_view ~include_iii ~total in
          let expected = stop_test_fresh w in
          check_int "the fresh order keeps e, c and the ties"
            (if include_iii then 4 else 2)
            (List.length expected);
          List.iter
            (fun order ->
              (* the entries added before the filler's compaction land in
                 the sorted run, the rest in the run added since *)
              for split = 0 to List.length order do
                let b = Ranking.buffer () in
                let add (u, est) =
                  Ranking.add b ~lat:stop_test_lat ~u ~v:(u + 1) ~ua:u
                    ~ub:(u + 1) ~stamp:0 ~est
                    { Ranking.blacklisted = false }
                in
                List.iteri (fun i x -> if i < split then add x) order;
                for _ = 1 to 40 do
                  add (8, 1e6)
                done;
                Ranking.start b w;
                List.iteri (fun i x -> if i >= split then add x) order;
                Ranking.start b w;
                let rec go acc =
                  let i = Ranking.next b w in
                  if i < 0 then List.rev acc
                  else
                    go
                      (( Ranking.cand_u b i,
                         Ranking.cand_v b i,
                         bits (Ranking.cand_score b i) )
                      :: acc)
                in
                let got = go [] in
                if got <> expected then
                  Alcotest.failf
                    "total %g, Case III %b, order %s, split %d: the walk \
                     handed out %s"
                    total include_iii
                    (String.concat " "
                       (List.map (fun (u, _) -> string_of_int u) order))
                    split
                    (String.concat " "
                       (List.map
                          (fun (u, v, _) -> Printf.sprintf "(%d,%d)" u v)
                          got))
              done)
            (permutations (List.filter (fun (u, _) -> u < 8) stop_test_est)))
        [ (false, 50_000.0); (true, 50_000.0); (false, 8.0); (true, 8.0) ])

(* ------------------------------------------------------------------ *)
(* The work budget                                                     *)
(* ------------------------------------------------------------------ *)

(* A walk that quietly scored every edge again would keep every output
   bit and lose its point; this pins the work. The 17 Table I
   benchmarks under paqoc-m0 at jobs 1 make 189,375 exact scores; the
   every-edge pass they replaced made 525,870. The budget is about 1.5
   times the measured count. *)
let scored_budget = 285_000

let work_budget_case =
  slow_case "a Table I suite's walk scores at most its budget of edges"
    (fun () ->
      let module Obs = Paqoc_obs.Obs in
      Fun.protect ~finally:Obs.reset @@ fun () ->
      Obs.reset ();
      Obs.enable ();
      ignore
        (suite_run (fun ~cache gen c ->
             Paqoc.compile ~scheme:Paqoc.paqoc_m0 ~jobs:1 (attached cache gen)
               c));
      let scored = Obs.counter_value "merger.scored" in
      check_true "the walk scored something" (scored > 0);
      if scored > scored_budget then
        Alcotest.failf "the walk made %d exact scores, over the %d budget"
          scored scored_budget)

let suite =
  [ qcheck engine_differential;
    qcheck search_differential;
    suite_equivalence
  ]
  @ alloc_suite @ prices_suite
  @ [ dnn_step_case; preprocess_pin; qpe_stage_case; deep_key_case;
      preprocess_budget_case; pair_table_case; stop_test_case;
      work_budget_case
    ]
