(* The pre-incremental criticality search, kept as the test suite's
   oracle: [run_reference] is the original Algorithm 1 loop (one full
   [Criticality.analyze] per iteration and per attempted contraction)
   that [Paqoc.Merger.run] must reproduce bit-for-bit, and [compile]
   runs it inside the same pipeline as [Paqoc.compile] so whole
   compiles — circuits, prices, pulse counts and shared-cache bytes —
   can be compared end to end. *)
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Gate = Paqoc_circuit.Gate
module Rewrite = Paqoc_circuit.Rewrite
module Generator = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Apa = Paqoc_mining.Apa
module Obs = Paqoc_obs.Obs
module Criticality = Paqoc.Criticality
module Candidates = Paqoc.Candidates
module Ranking = Paqoc.Ranking
open Paqoc.Merger

let merged_key dag u v =
  let group, _ = Generator.group_of_apps [ Dag.gate dag u; Dag.gate dag v ] in
  Generator.key group

(* The original search loop, kept verbatim as the oracle for the
   differential battery: one full [Criticality.analyze] per iteration
   plus one per attempted contraction. [Merger.run] replays exactly the
   same decision sequence through the incremental engine. *)
let run_reference ?(config = default_config) gen c =
  let blacklist = Hashtbl.create 64 in
  let merge_counter = ref 0 in
  let committed = ref 0 and rolled_back = ref 0 and iterations = ref 0 in
  let initial_latency =
    Criticality.total (Criticality.analyze gen c)
  in
  let eps = 1e-6 in
  let contract_batch crit batch =
    let dag = crit.Criticality.dag in
    let groups =
      List.map
        (fun (s : Ranking.scored) ->
          incr merge_counter;
          let nodes =
            [ s.Ranking.candidate.Candidates.u; s.Ranking.candidate.Candidates.v ]
          in
          ( nodes,
            Rewrite.custom_of_nodes dag nodes
              ~name:(Printf.sprintf "grp%d" !merge_counter) ))
        batch
    in
    let newc = Rewrite.contract crit.Criticality.circuit groups in
    (* generate the pulses for the freshly created customized gates now —
       Algorithm 1 line 18 *)
    List.iter
      (fun (_, app) ->
        let group, _ = Generator.group_of_apps [ app ] in
        ignore (Generator.generate gen group))
      groups;
    newc
  in
  let rec loop c prev_total =
    if !iterations >= config.max_iterations then c
    else begin
      incr iterations;
      Obs.count "merger.iterations";
      let crit = Criticality.analyze gen c in
      let cands =
        Candidates.enumerate
          ~include_case_iii:(not config.prune_noncritical)
          crit ~maxN:config.max_n
      in
      let scored =
        Ranking.rank gen crit cands
        |> List.filter (fun (s : Ranking.scored) ->
               s.Ranking.score > 1e-9
               && not
                    (Hashtbl.mem blacklist
                       (merged_key crit.Criticality.dag
                          s.Ranking.candidate.Candidates.u
                          s.Ranking.candidate.Candidates.v)))
      in
      if scored = [] then c
      else begin
        (* pick up to top_k span-disjoint candidates *)
        let spans = ref [] in
        let batch =
          List.filter
            (fun (s : Ranking.scored) ->
              let lo = s.Ranking.candidate.Candidates.u
              and hi = s.Ranking.candidate.Candidates.v in
              let lo, hi = (min lo hi, max lo hi) in
              if List.length !spans >= config.top_k then false
              else if
                List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !spans
              then false
              else begin
                spans := (lo, hi) :: !spans;
                true
              end)
            scored
        in
        let rec attempt batch =
          match batch with
          | [] -> None
          | _ ->
            let newc = contract_batch crit batch in
            let new_total = Criticality.total (Criticality.analyze gen newc) in
            if new_total <= prev_total +. eps then
              Some (newc, new_total, List.length batch)
            else if List.length batch > 1 then
              (* the batch interfered with itself: retry with the single
                 best candidate *)
              attempt [ List.hd batch ]
            else begin
              (* even the best single merge regressed: the estimate was
                 optimistic — roll back and blacklist *)
              incr rolled_back;
              let s = List.hd batch in
              Hashtbl.replace blacklist
                (merged_key crit.Criticality.dag
                   s.Ranking.candidate.Candidates.u
                   s.Ranking.candidate.Candidates.v)
                ();
              None
            end
        in
        match attempt batch with
        | Some (newc, new_total, n) ->
          committed := !committed + n;
          loop newc new_total
        | None -> loop c prev_total
      end
    end
  in
  let final = Obs.with_span "merger.search" (fun () -> loop c initial_latency) in
  let final_latency = Criticality.total (Criticality.analyze gen final) in
  Obs.count ~n:!committed "merger.committed";
  Obs.count ~n:!rolled_back "merger.rolled_back";
  ( final,
    { iterations = !iterations;
      merges_committed = !committed;
      merges_rolled_back = !rolled_back;
      initial_latency;
      final_latency
    } )

(* [Paqoc.compile ~cache]'s stages, in its order, with [run_reference]
   as the search: APA mining, the offline APA batch, Observation-1
   pre-processing, the search, the finalize batch, then pricing. Only
   the default scheme (paqoc-m0, no commutation pass) at jobs 1 is
   mirrored, and [cache] stays attached to [gen] afterwards. *)
let compile ~cache gen (c : Circuit.t) : Paqoc.report =
  let scheme = Paqoc.paqoc_m0 in
  Generator.set_shared_cache gen (Some cache);
  let generated0 = Generator.pulses_generated gen in
  let hits0 = Generator.cache_hits gen in
  let fallbacks0 = Generator.fallbacks gen in
  let apa =
    Apa.apply ~miner:scheme.Paqoc.miner ~mode:scheme.Paqoc.apa_mode c
  in
  let apa_names = List.map fst apa.Apa.apa_gates in
  let apa_groups =
    List.filter_map
      (fun (g : Gate.app) ->
        match g.Gate.kind with
        | Gate.Custom cu when List.mem cu.Gate.cname apa_names ->
          Some (fst (Generator.group_of_apps [ g ]))
        | _ -> None)
      apa.Apa.circuit.Circuit.gates
  in
  ignore (Generator.generate_batch gen apa_groups);
  let config = scheme.Paqoc.merger in
  let pre = Candidates.preprocess apa.Apa.circuit ~maxN:config.max_n in
  let grouped, merge_stats = run_reference ~config gen pre in
  ignore
    (Generator.generate_batch gen
       (List.map
          (fun g -> fst (Generator.group_of_apps [ g ]))
          grouped.Circuit.gates));
  { Paqoc.grouped;
    latency = Pricing.circuit_latency gen grouped;
    esp = Pricing.circuit_esp gen grouped;
    compile_seconds = 0.0;
    qoc_seconds = 0.0;
    search_seconds = 0.0;
    n_groups = Circuit.n_gates grouped;
    pulses_generated = Generator.pulses_generated gen - generated0;
    cache_hits = Generator.cache_hits gen - hits0;
    fallbacks = Generator.fallbacks gen - fallbacks0;
    apa;
    merge_stats
  }
