module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite
module Generator = Paqoc_pulse.Generator
module Obs = Paqoc_obs.Obs

type config = {
  max_n : int;
  top_k : int;
  max_iterations : int;
  prune_noncritical : bool;
}

let default_config =
  { max_n = 3; top_k = 1; max_iterations = 10_000; prune_noncritical = true }

type stats = {
  iterations : int;
  merges_committed : int;
  merges_rolled_back : int;
  initial_latency : float;
  final_latency : float;
}

(* ------------------------------------------------------------------ *)
(* Incremental search                                                  *)
(* ------------------------------------------------------------------ *)

module Engine = Criticality.Engine
module Pool = Paqoc_pulse.Pool

(* Everything about a candidate pair that depends only on the two
   gates' content — never on their position in the circuit, the
   schedule, or the pulse database. Keyed on the engine's stable node
   uids, these entries are computed once per pair and never go stale,
   which removes the reference loop's dominant cost (re-serialising
   every candidate's merged group on every iteration). *)
type pair_info = {
  mkey : string;  (** canonical key of the merged group *)
  union_n : int;  (** qubit count of the merged gate *)
  pair_est : float;  (** Observation-1/2 merged-latency estimate *)
}

let n_qubits_of (g : Gate.app) =
  List.length (List.sort_uniq compare g.Gate.qubits)

(* must price exactly as Ranking.score does *)
let compute_pair_info gen (gu : Gate.app) (gv : Gate.app) =
  let merged_group, _ = Generator.group_of_apps [ gu; gv ] in
  let union_n = List.length (Candidates.qubit_union gu gv) in
  let grows = union_n > max (n_qubits_of gu) (n_qubits_of gv) in
  let model_est = Generator.estimate_latency gen merged_group in
  let pair_est =
    if grows then Float.max model_est (Generator.avg_latency_for_size gen union_n)
    else model_est
  in
  { mkey = Generator.key merged_group; union_n; pair_est }

let run ?(config = default_config) ?(jobs = 1) gen c =
  let blacklist = Hashtbl.create 64 in
  let merge_counter = ref 0 in
  let committed = ref 0 and rolled_back = ref 0 and iterations = ref 0 in
  let eng = Engine.create gen c in
  let initial_latency = Engine.total eng in
  let eps = 1e-6 in
  let reach = Dag.reach_ws (Dag.n_nodes (Engine.dag eng)) in
  let pair_memo : (int * int, pair_info) Hashtbl.t = Hashtbl.create 1024 in
  let info_of u v =
    let k = (Engine.node_uid eng u, Engine.node_uid eng v) in
    match Hashtbl.find_opt pair_memo k with
    | Some i -> i
    | None ->
      let dag = Engine.dag eng in
      let i = compute_pair_info gen (Dag.gate dag u) (Dag.gate dag v) in
      Hashtbl.add pair_memo k i;
      i
  in
  (* Parallel candidate exploration: pair contents are pure, so missing
     memo entries can be computed on the pool in any order and inserted
     in deterministic (edge) order — results are identical at any
     [jobs]; only the wall clock changes. Worth it only when a single
     pair is expensive to price — on the analytic Model backend a pair
     costs microseconds, so dispatching it loses twice: the chunk
     round-trip costs more than the pricing, and the spawned worker
     domains then tax every minor collection the serial score/attempt
     phases run (measured 1.7x on a warm all-cache-hit suite). *)
  let pool_pays = jobs > 1 && not (Generator.pricing_is_analytic gen) in
  let prefill pool =
    let dag = Engine.dag eng in
    let n = Dag.n_nodes dag in
    let missing = ref [] and n_missing = ref 0 in
    for u = n - 1 downto 0 do
      List.iter
        (fun v ->
          let k = (Engine.node_uid eng u, Engine.node_uid eng v) in
          if not (Hashtbl.mem pair_memo k) then begin
            missing := (k, Dag.gate dag u, Dag.gate dag v) :: !missing;
            incr n_missing
          end)
        (Dag.succs dag u)
    done;
    if !n_missing >= 256 then begin
      let arr = Array.of_list !missing in
      let chunk = 256 in
      let n_chunks = (Array.length arr + chunk - 1) / chunk in
      let results =
        Pool.map pool
          (fun ci ->
            let lo = ci * chunk in
            let len = min chunk (Array.length arr - lo) in
            Array.init len (fun i ->
                let _, gu, gv = arr.(lo + i) in
                compute_pair_info gen gu gv))
          (Array.init n_chunks Fun.id)
      in
      Array.iteri
        (fun ci infos ->
          Array.iteri
            (fun i info ->
              let k, _, _ = arr.((ci * chunk) + i) in
              Hashtbl.add pair_memo k info)
            infos)
        results
    end
  in
  (* Candidate scoring over the committed engine state. Mirrors
     enumerate+rank+filter of the reference loop with one deliberate
     twist: the validity DFS (has_indirect_path) is postponed to the
     selection walk below, where only the top few candidates ever need
     it — skipping an invalid candidate there is indistinguishable from
     its absence here, since scores are content+schedule functions and
     invalid candidates reserve no span. *)
  let score_edges () =
    let dag = Engine.dag eng in
    let n = Dag.n_nodes dag in
    let include_iii = not config.prune_noncritical in
    let acc = ref [] in
    for u = 0 to n - 1 do
      List.iter
        (fun v ->
          let info = info_of u v in
          if info.union_n <= config.max_n then begin
            let case = Engine.case_of eng u v in
            let keep = match case with `III -> include_iii | `I | `II -> true in
            if keep then begin
              let l_u = Engine.latency eng u and l_v = Engine.latency eng v in
              let cp_v = Engine.cp_after eng v in
              let alt_after_u =
                List.fold_left
                  (fun acc s ->
                    if s = v then acc
                    else
                      Float.max acc
                        (Engine.latency eng s +. Engine.cp_after eng s))
                  0.0 (Dag.succs dag u)
              in
              let score =
                Ranking.score_value ~case
                  ~u_critical:(Engine.is_critical eng u) ~l_u ~l_v ~cp_v
                  ~alt_after_u ~est:info.pair_est
              in
              if score > 1e-9 && not (Hashtbl.mem blacklist info.mkey) then
                acc :=
                  { Ranking.candidate =
                      { Candidates.u; v; case; n_qubits = info.union_n };
                    score;
                    est_merged_latency = info.pair_est
                  }
                  :: !acc
            end
          end)
        (Dag.succs dag u)
    done;
    Ranking.sort_scored !acc
  in
  (* Span-disjoint top-k selection, with validity checked lazily on the
     walk. [any_valid] reproduces the reference's termination test (its
     scored list was empty iff no valid candidate survived). *)
  let select scored =
    let dag = Engine.dag eng in
    let valid (s : Ranking.scored) =
      not
        (Dag.has_indirect_path_ws reach dag s.Ranking.candidate.Candidates.u
           s.Ranking.candidate.Candidates.v)
    in
    let spans = ref [] and picked = ref 0 in
    let batch = ref [] and any_valid = ref false in
    let rec walk = function
      | [] -> ()
      | (s : Ranking.scored) :: rest ->
        if !picked >= config.top_k && !any_valid then ()
        else begin
          let u = s.Ranking.candidate.Candidates.u
          and v = s.Ranking.candidate.Candidates.v in
          let lo = min u v and hi = max u v in
          (if !picked >= config.top_k then begin
             (* only probing whether any valid candidate exists *)
             if valid s then any_valid := true
           end
           else if
             List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !spans
           then ()
           else if valid s then begin
             any_valid := true;
             spans := (lo, hi) :: !spans;
             incr picked;
             batch := s :: !batch
           end);
          walk rest
        end
    in
    walk scored;
    (List.rev !batch, !any_valid)
  in
  let rec attempt prev_total batch =
    match batch with
    | [] -> None
    | _ ->
      let dag = Engine.dag eng in
      let groups =
        List.map
          (fun (s : Ranking.scored) ->
            incr merge_counter;
            let nodes =
              [ s.Ranking.candidate.Candidates.u;
                s.Ranking.candidate.Candidates.v
              ]
            in
            ( nodes,
              Rewrite.custom_of_nodes dag nodes
                ~name:(Printf.sprintf "grp%d" !merge_counter) ))
          batch
      in
      (* Algorithm 1 line 18: pulses for the new customized gates are
         generated whether or not the trial is kept — exactly as the
         reference does, so the pulse database (and any shared cache
         journal) sees the same keys in the same order *)
      List.iter
        (fun (_, app) ->
          let group, _ = Generator.group_of_apps [ app ] in
          ignore (Generator.generate gen group))
        groups;
      let new_total = Engine.stage eng groups in
      if new_total <= prev_total +. eps then begin
        Engine.commit eng;
        Some (new_total, List.length batch)
      end
      else begin
        Engine.discard eng;
        if List.length batch > 1 then
          (* the batch interfered with itself: retry with the single
             best candidate *)
          attempt prev_total [ List.hd batch ]
        else begin
          (* even the best single merge regressed: the estimate was
             optimistic — roll back and blacklist *)
          incr rolled_back;
          let s = List.hd batch in
          Hashtbl.replace blacklist
            (info_of s.Ranking.candidate.Candidates.u
               s.Ranking.candidate.Candidates.v)
              .mkey ();
          None
        end
      end
  in
  let rec loop pool prev_total =
    if !iterations >= config.max_iterations then ()
    else begin
      incr iterations;
      Obs.count "merger.iterations";
      Engine.refresh eng;
      if pool_pays then Obs.with_span "merger.prefill" (fun () -> prefill pool);
      let scored = Obs.with_span "merger.score" score_edges in
      let batch, any_valid =
        Obs.with_span "merger.select" (fun () -> select scored)
      in
      match batch with
      | [] -> if any_valid then loop pool prev_total
      | _ -> (
        match Obs.with_span "merger.attempt" (fun () -> attempt prev_total batch)
        with
        | Some (new_total, k) ->
          committed := !committed + k;
          loop pool new_total
        | None -> loop pool prev_total)
    end
  in
  Pool.with_pool ~jobs (fun pool ->
      Obs.with_span "merger.search" (fun () -> loop pool initial_latency));
  Engine.refresh eng;
  let final = Engine.circuit eng in
  let final_latency = Engine.total eng in
  Obs.count ~n:!committed "merger.committed";
  Obs.count ~n:!rolled_back "merger.rolled_back";
  ( final,
    { iterations = !iterations;
      merges_committed = !committed;
      merges_rolled_back = !rolled_back;
      initial_latency;
      final_latency
    } )
