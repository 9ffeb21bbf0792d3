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

(* A merged key's rollback state, shared by every pair whose merged
   group has that key: the blacklist is keyed on merged content, so one
   rollback blocks them all. Each pair interns its key once, when its
   memo entry is made, so the score walk reads a field instead of
   hashing a string per candidate per iteration. *)
type key_state = { mutable blacklisted : bool }

(* Everything about a candidate pair that depends only on the two
   gates' content — never on their position in the circuit, the
   schedule, or the pulse database. Keyed on the engine's stable node
   uids, these entries are computed once per pair and never go stale,
   which removes the reference loop's dominant cost (re-serialising
   every candidate's merged group on every iteration). *)
type pair_info = {
  union_n : int;  (** qubit count of the merged gate *)
  pair_est : float;  (** Observation-1/2 merged-latency estimate *)
  state : key_state;  (** the merged key's blacklist state *)
}

let rec mem_int (q : int) = function
  | [] -> false
  | x :: rest -> x = q || mem_int q rest

(* the number of distinct qubits in [qs], without sorting: each one
   counts at its last occurrence *)
let rec distinct n = function
  | [] -> n
  | q :: rest -> distinct (if mem_int q rest then n else n + 1) rest

let n_qubits_of (g : Gate.app) = distinct 0 g.Gate.qubits

(* the pair's content: merged key, qubit-union size and latency
   estimate, priced exactly as the test-side reference scorer does. The
   key is rendered once and handed to the estimate, whose jitter is
   keyed on the same string; the union size is the merged group's wire
   count. *)
let pair_content gen (gu : Gate.app) (gv : Gate.app) =
  let merged_group, _ = Generator.group_of_apps [ gu; gv ] in
  let mkey = Generator.key merged_group in
  let union_n = merged_group.Generator.n_qubits in
  let grows = union_n > max (n_qubits_of gu) (n_qubits_of gv) in
  let model_est = Generator.estimate_latency_of_key gen merged_group mkey in
  let pair_est =
    if grows then Float.max model_est (Generator.avg_latency_for_size gen union_n)
    else model_est
  in
  (mkey, union_n, pair_est)

(* The pair memo, indexed by uid: row [a] lists the [(b, info)] pairs
   met with uid [b] as the second gate. Uids are dense (they count the
   nodes ever made) and a node meets only a few successors over a
   whole search, so a lookup is one array load and a short scan of
   ints — no hashing, no allocation ([none] marks a miss). *)
type memo = { mutable rows : (int * pair_info) list array }

let none = { union_n = 0; pair_est = 0.0; state = { blacklisted = false } }

let rec assoc_uid b = function
  | [] -> none
  | (x, i) :: rest -> if x = b then i else assoc_uid b rest

let memo_find m a b =
  if a < Array.length m.rows then assoc_uid b m.rows.(a) else none

let memo_add m a b info =
  let len = Array.length m.rows in
  if a >= len then begin
    let rows = Array.make (max (2 * len) (a + 1)) [] in
    Array.blit m.rows 0 rows 0 len;
    m.rows <- rows
  end;
  m.rows.(a) <- (b, info) :: m.rows.(a)

let run ?(config = default_config) ?jobs:_ gen c =
  let key_states : (string, key_state) Hashtbl.t = Hashtbl.create 64 in
  let merge_counter = ref 0 in
  let committed = ref 0 and rolled_back = ref 0 and iterations = ref 0 in
  let eng = Engine.create gen c in
  let initial_latency = Engine.total eng in
  let eps = 1e-6 in
  let reach = Dag.reach_ws (Dag.n_nodes (Engine.dag eng)) in
  let memo = { rows = Array.make (Dag.n_nodes (Engine.dag eng)) [] } in
  let remember a b (mkey, union_n, pair_est) =
    let state =
      match Hashtbl.find_opt key_states mkey with
      | Some st -> st
      | None ->
        let st = { blacklisted = false } in
        Hashtbl.add key_states mkey st;
        st
    in
    let i = { union_n; pair_est; state } in
    memo_add memo a b i;
    i
  in
  let info_of u v =
    let a = Engine.node_uid eng u and b = Engine.node_uid eng v in
    let i = memo_find memo a b in
    if i != none then i
    else
      let dag = Engine.dag eng in
      remember a b (pair_content gen (Dag.gate dag u) (Dag.gate dag v))
  in
  let cands = Ranking.buffer () in
  let include_iii = not config.prune_noncritical in
  (* Candidate scoring over the committed engine state. Mirrors
     enumerate+rank+filter of the reference loop with two deliberate
     twists: a Case III edge (neither end critical) is dropped before
     its pair content is looked up, since the pruning drops it whatever
     that content is; and the validity DFS (has_indirect_path) is
     postponed to the selection walk below, where only the top few
     candidates ever need it — skipping an invalid candidate there is
     indistinguishable from its absence here, since scores are
     content+schedule functions and invalid candidates reserve no span. *)
  let rec score_succs lat cp (crit : bool array) u succs = function
    | [] -> ()
    | v :: rest ->
      if include_iii || crit.(u) || crit.(v) then begin
        let info = info_of u v in
        if info.union_n <= config.max_n && not info.state.blacklisted then
          Ranking.score_edge cands ~include_iii ~lat ~cp ~crit ~succs ~u ~v
            ~est:info.pair_est
      end;
      score_succs lat cp crit u succs rest
  in
  let score_edges () =
    let dag = Engine.dag eng in
    let lat = Engine.latencies eng
    and cp = Engine.cp_afters eng
    and crit = Engine.criticals eng in
    Ranking.clear cands;
    for u = 0 to Dag.n_nodes dag - 1 do
      let succs = Dag.succs dag u in
      score_succs lat cp crit u succs succs
    done
  in
  (* Span-disjoint top-k selection over the candidates, best first, with
     validity checked lazily on the walk. [any_valid] reproduces the
     reference's termination test (its scored list was empty iff no
     valid candidate survived). The batch is the picked [(u, v)] pairs,
     best first. *)
  let select () =
    let dag = Engine.dag eng in
    Ranking.start_walk cands;
    let spans = ref [] and picked = ref 0 in
    let batch = ref [] and any_valid = ref false in
    let i = ref (Ranking.next cands) in
    while !i >= 0 && not (!picked >= config.top_k && !any_valid) do
      let u = Ranking.cand_u cands !i and v = Ranking.cand_v cands !i in
      let valid () = not (Dag.has_indirect_path_ws reach dag u v) in
      let lo = min u v and hi = max u v in
      (if !picked >= config.top_k then begin
         (* only probing whether any valid candidate exists *)
         if valid () then any_valid := true
       end
       else if List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !spans
       then ()
       else if valid () then begin
         any_valid := true;
         spans := (lo, hi) :: !spans;
         incr picked;
         batch := (u, v) :: !batch
       end);
      i := Ranking.next cands
    done;
    (List.rev !batch, !any_valid)
  in
  let rec attempt prev_total batch =
    match batch with
    | [] -> None
    | _ ->
      let dag = Engine.dag eng in
      let groups =
        List.map
          (fun (u, v) ->
            incr merge_counter;
            let nodes = [ u; v ] in
            ( nodes,
              Rewrite.custom_of_nodes dag nodes
                ~name:("grp" ^ string_of_int !merge_counter) ))
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
          let u, v = List.hd batch in
          (info_of u v).state.blacklisted <- true;
          None
        end
      end
  in
  let rec loop prev_total =
    if !iterations >= config.max_iterations then ()
    else begin
      incr iterations;
      Obs.count "merger.iterations";
      Engine.refresh eng;
      Obs.with_span "merger.score" score_edges;
      let batch, any_valid = Obs.with_span "merger.select" select in
      match batch with
      | [] -> if any_valid then loop prev_total
      | _ -> (
        match Obs.with_span "merger.attempt" (fun () -> attempt prev_total batch)
        with
        | Some (new_total, k) ->
          committed := !committed + k;
          loop new_total
        | None -> loop prev_total)
    end
  in
  Obs.with_span "merger.search" (fun () -> loop initial_latency);
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
