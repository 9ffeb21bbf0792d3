(* The pre-incremental criticality search and its helpers, kept as the
   test suite's oracles. Nothing here is called by the product; the
   differential batteries hold the product to it bit for bit:

   - [has_indirect_path] and [reachable] are the allocating DFS that
     [Dag.has_indirect_path_ws] must agree with.
   - [contract] is the original global contraction: rebuild the DAG,
     relinearise every node with a stable min-id Kahn over a [Set]
     queue. [Dag.contract] relinearises only the windows a merge
     touches and must agree with it node for node.
   - [enumerate], [score], [compare_scored] and [rank] are the original
     candidate pipeline, and [preprocess] the original Observation-1
     loop (one circuit and two DAG rebuilds per round).
   - [run_reference] is the original Algorithm 1 loop (one full
     [Reference_criticality.analyze] per iteration and per attempted
     contraction)
     that [Paqoc.Merger.run] must reproduce, and [compile] runs it with
     [preprocess] inside the same pipeline as [Paqoc.compile], so whole
     compiles — circuits, prices, pulse counts and shared-cache bytes —
     can be compared end to end against code the product no longer
     shares. *)
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Gate = Paqoc_circuit.Gate
module Rewrite = Paqoc_circuit.Rewrite
module Generator = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Apa = Paqoc_mining.Apa
module Obs = Paqoc_obs.Obs
module Criticality = Reference_criticality
module Candidates = Paqoc.Candidates
module Ranking = Paqoc.Ranking
open Paqoc.Merger

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

(* Reachability by forward DFS; node ids are topological so we can prune
   candidates with id <= target shortcuts. *)
let reachable_from d u ~skip_direct ~target =
  if u = target then not skip_direct
  else begin
    let seen = Array.make (Dag.n_nodes d) false in
    let rec dfs v =
      if v = target then true
      else if seen.(v) || v > target then false
      else begin
        seen.(v) <- true;
        List.exists dfs (Dag.succs d v)
      end
    in
    let starts =
      if skip_direct then List.filter (fun s -> s <> target) (Dag.succs d u)
      else Dag.succs d u
    in
    List.exists dfs starts
  end

(* a path of length at least two joins [u] and [v] *)
let has_indirect_path d u v =
  if u = v then false
  else
    let u, v = if u < v then (u, v) else (v, u) in
    reachable_from d u ~skip_direct:true ~target:v

(* any directed path [u ->* v], including [u = v] *)
let reachable d u v =
  if u = v then true
  else if u > v then false
  else List.exists (fun s -> s = v) (Dag.succs d u)
       || reachable_from d u ~skip_direct:true ~target:v

(* ------------------------------------------------------------------ *)
(* Contraction                                                         *)
(* ------------------------------------------------------------------ *)

(* S is convex iff no node outside S is simultaneously a descendant of some
   member and an ancestor of another. Because node ids are topological, any
   such witness lies strictly between min(S) and max(S). *)
let is_convex dag nodes =
  match List.sort_uniq compare nodes with
  | [] | [ _ ] -> true
  | sorted ->
    let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
    let in_set = Hashtbl.create 8 in
    List.iter (fun v -> Hashtbl.replace in_set v ()) sorted;
    let n = Dag.n_nodes dag in
    (* forward reachability from S within the window *)
    let desc = Array.make n false in
    List.iter
      (fun v ->
        List.iter
          (fun s -> if s <= hi && not (Hashtbl.mem in_set s) then desc.(s) <- true)
          (Dag.succs dag v))
      sorted;
    for v = lo + 1 to hi - 1 do
      if desc.(v) then
        List.iter
          (fun s -> if s <= hi && not (Hashtbl.mem in_set s) then desc.(s) <- true)
          (Dag.succs dag v)
    done;
    (* a violation: an outside descendant that feeds back into S *)
    let ok = ref true in
    for v = lo + 1 to hi - 1 do
      if desc.(v) && not (Hashtbl.mem in_set v) then
        List.iter
          (fun s -> if Hashtbl.mem in_set s then ok := false)
          (Dag.succs dag v)
    done;
    !ok

(* [contract_mapped c groups] contracts [groups] (node ids into
   [Dag.of_circuit c]) and reports, for every output gate, the old node
   it survives from or [-(gi+1)] for the replacement of group [gi]. *)
let contract_mapped (c : Circuit.t) groups =
  let dag = Dag.of_circuit c in
  let n = Dag.n_nodes dag in
  (* group id per node: -1 = own node, otherwise index into groups *)
  let owner = Array.make n (-1) in
  List.iteri
    (fun gi (nodes, _) ->
      if not (is_convex dag nodes) then
        invalid_arg "Rewrite.contract: non-convex group";
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Rewrite.contract: bad node id";
          if owner.(v) <> -1 then
            invalid_arg "Rewrite.contract: overlapping groups";
          owner.(v) <- gi)
        nodes)
    groups;
  let groups_arr = Array.of_list groups in
  (* quotient nodes: representative = own id for singletons, or n + gi *)
  let rep v = if owner.(v) = -1 then v else n + owner.(v) in
  let n_quot = n + Array.length groups_arr in
  let indeg = Array.make n_quot 0 in
  let qsucc = Array.make n_quot [] in
  let add_edge a b =
    if a <> b && not (List.mem b qsucc.(a)) then begin
      qsucc.(a) <- b :: qsucc.(a);
      indeg.(b) <- indeg.(b) + 1
    end
  in
  let exists = Array.make n_quot false in
  for v = 0 to n - 1 do
    exists.(rep v) <- true;
    List.iter (fun s -> add_edge (rep v) (rep s)) (Dag.succs dag v)
  done;
  (* stable Kahn: pick the ready quotient node with the smallest original
     min-id *)
  let min_id = Array.make n_quot max_int in
  for v = 0 to n - 1 do
    let r = rep v in
    if v < min_id.(r) then min_id.(r) <- v
  done;
  let module Pq = Set.Make (struct
    type t = int * int (* min_id, node *)

    let compare = compare
  end) in
  let ready = ref Pq.empty in
  for q = 0 to n_quot - 1 do
    if exists.(q) && indeg.(q) = 0 then ready := Pq.add (min_id.(q), q) !ready
  done;
  let out = ref [] in
  let emitted = ref 0 in
  while not (Pq.is_empty !ready) do
    let ((_, q) as elt) = Pq.min_elt !ready in
    ready := Pq.remove elt !ready;
    incr emitted;
    let row =
      if q < n then (Dag.gate dag q, q)
      else (snd groups_arr.(q - n), -(q - n + 1))
    in
    out := row :: !out;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := Pq.add (min_id.(s), s) !ready)
      qsucc.(q)
  done;
  let n_exist = Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 exists in
  if !emitted <> n_exist then
    invalid_arg "Rewrite.contract: contraction created a cycle";
  let rows = List.rev !out in
  ( Circuit.make ~n_qubits:c.Circuit.n_qubits (List.map fst rows),
    Array.of_list (List.map snd rows) )

let contract c groups = fst (contract_mapped c groups)

(* ------------------------------------------------------------------ *)
(* Candidates, scoring, pre-processing                                 *)
(* ------------------------------------------------------------------ *)

let n_qubits_of (g : Gate.app) =
  List.length (List.sort_uniq compare g.Gate.qubits)

let enumerate ?(include_case_iii = false) (crit : Criticality.t) ~maxN =
  let dag = crit.Criticality.dag in
  let n = Dag.n_nodes dag in
  let out = ref [] in
  for u = 0 to n - 1 do
    List.iter
      (fun v ->
        let gu = Dag.gate dag u and gv = Dag.gate dag v in
        let union = Candidates.qubit_union gu gv in
        if List.length union <= maxN && not (has_indirect_path dag u v)
        then
          match Criticality.case_of crit u v with
          | `III ->
            if include_case_iii then
              out :=
                { Candidates.u; v; case = `III; n_qubits = List.length union }
                :: !out
          | (`I | `II) as case ->
            out := { Candidates.u; v; case; n_qubits = List.length union } :: !out)
      (Dag.succs dag u)
  done;
  List.rev !out

let score gen (crit : Criticality.t) (cand : Candidates.t) =
  let dag = crit.Criticality.dag in
  let u = cand.Candidates.u and v = cand.Candidates.v in
  let gu = Dag.gate dag u and gv = Dag.gate dag v in
  let l_u = Criticality.latency crit u
  and l_v = Criticality.latency crit v in
  let merged_group, _ = Generator.group_of_apps [ gu; gv ] in
  let grows = cand.Candidates.n_qubits > max (n_qubits_of gu) (n_qubits_of gv) in
  let est =
    let model_est = Generator.estimate_latency gen merged_group in
    if grows then
      (* Observation 2: a bigger customized gate is, on average, slower —
         price it at least at the corpus average for its size *)
      Float.max model_est
        (Generator.avg_latency_for_size gen cand.Candidates.n_qubits)
    else model_est
  in
  (* longest continuation through u's other successors (the paper's C) *)
  let alt_after_u =
    List.fold_left
      (fun acc c ->
        if c = v then acc
        else
          Float.max acc (Criticality.latency crit c +. Criticality.cp_after crit c))
      0.0 (Dag.succs dag u)
  in
  let cp_v = Criticality.cp_after crit v in
  let score =
    Ranking.score_value ~case:cand.Candidates.case
      ~u_critical:(Criticality.is_critical crit u) ~l_u ~l_v ~cp_v
      ~alt_after_u ~est
  in
  { Ranking.candidate = cand; score; est_merged_latency = est }

(* Total order: score descending, then (u, v) ascending — candidates are
   distinct pairs, so the sorted sequence is unique whatever the input
   order. *)
let compare_scored (a : Ranking.scored) (b : Ranking.scored) =
  if a.Ranking.score <> b.Ranking.score then compare b.Ranking.score a.Ranking.score
  else
    compare
      (a.Ranking.candidate.Candidates.u, a.Ranking.candidate.Candidates.v)
      (b.Ranking.candidate.Candidates.u, b.Ranking.candidate.Candidates.v)

(* scored and sorted best-first (ties: earlier pair first) *)
let rank gen crit cands = List.sort compare_scored (List.map (score gen crit) cands)

(* Observation-1 compatibility: merging adds no new qubit to the larger
   operand set, so the merge cannot create false dependencies and is
   always (locally) beneficial. *)
let obs1_compatible dag u v ~maxN =
  let gu = Dag.gate dag u and gv = Dag.gate dag v in
  let union = Candidates.qubit_union gu gv in
  let nu = List.length (List.sort_uniq compare gu.Gate.qubits) in
  let nv = List.length (List.sort_uniq compare gv.Gate.qubits) in
  List.length union <= maxN
  && List.length union = max nu nv
  && not (has_indirect_path dag u v)

let preprocess (c : Circuit.t) ~maxN =
  let counter = ref 0 in
  let rec round c =
    let dag = Dag.of_circuit c in
    let n = Dag.n_nodes dag in
    let used = Array.make n false in
    (* greedy span-disjoint selection keeps the batched contraction
       trivially acyclic *)
    let spans = ref [] in
    let selected = ref [] in
    for u = 0 to n - 1 do
      if not used.(u) then
        List.iter
          (fun v ->
            if (not used.(u)) && (not used.(v))
               && obs1_compatible dag u v ~maxN then begin
              let lo = min u v and hi = max u v in
              let clash =
                List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !spans
              in
              if not clash then begin
                used.(u) <- true;
                used.(v) <- true;
                spans := (lo, hi) :: !spans;
                selected := (u, v) :: !selected
              end
            end)
          (List.sort compare (Dag.succs dag u))
    done;
    match !selected with
    | [] -> c
    | sel ->
      let groups =
        List.map
          (fun (u, v) ->
            incr counter;
            let nodes = [ u; v ] in
            ( nodes,
              Rewrite.custom_of_nodes dag nodes
                ~name:(Printf.sprintf "pre%d" !counter) ))
          sel
      in
      round (contract c groups)
  in
  round c

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let merged_key dag u v =
  let group, _ = Generator.group_of_apps [ Dag.gate dag u; Dag.gate dag v ] in
  Generator.key group

(* The original search loop: one full [Criticality.analyze] per
   iteration plus one per attempted contraction. [Merger.run] replays
   exactly the same decision sequence through the incremental engine. *)
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
    let newc = contract crit.Criticality.circuit groups in
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
        enumerate
          ~include_case_iii:(not config.prune_noncritical)
          crit ~maxN:config.max_n
      in
      let scored =
        rank gen crit cands
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

(* [Paqoc.compile ~cache]'s stages, in its order, with [preprocess] and
   [run_reference] as pre-processing and search: APA mining, the offline
   APA batch, Observation-1 pre-processing, the search, the finalize
   batch, then pricing. Only
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
  let pre = preprocess apa.Apa.circuit ~maxN:config.max_n in
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
