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
   rollback blocks them all. *)
type key_state = { mutable blacklisted : bool }

(* Everything about a candidate pair that depends only on the two
   gates' content — never on their position in the circuit, the
   schedule, or the pulse database — so it is computed once per
   distinct content and never goes stale. *)
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

(* A pair's content key: the two nodes' interned key ids, then the wire
   of each of [v]'s operands in the merged group's numbering. The merged
   key is a function of the three (the first gate's wires come first in
   that numbering, so its rendering is its own key's), and the estimate
   a function of the merged key and the wire counts, so two pairs with
   one content key have one entry. A list, so the key is exact for any
   operand count. *)
module Content = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = Hashtbl.hash
end)

module Pair_table = struct
  type t = {
    eng : Engine.e;
    content : Gate.app -> Gate.app -> string * int * float;
    max_n : int;
    include_iii : bool;
    table : pair_info Content.t;
    states : (string, key_state) Hashtbl.t;  (** by merged key *)
    mutable seen : int array;  (** a pair's qubits, by merged wire *)
    (* slot rows, by node id: slot [i] of row [u] holds the entry of the
       edge to [u]'s [i]-th successor *)
    r_succs : int list array;  (** the successor list the row is sized for *)
    r_uid : int array;  (** the node's uid the slots were filled for *)
    r_suid : int array array;  (** each slot's successor uid; -1: empty *)
    r_info : pair_info array array;
  }

  (* the entry of every pair wider than [max_n]: never rendered, never
     priced, never kept *)
  let wide =
    { union_n = max_int; pair_est = 0.0; state = { blacklisted = true } }

  let create (config : config) eng ~content =
    let n = Dag.n_nodes (Engine.dag eng) in
    { eng;
      content;
      max_n = config.max_n;
      include_iii = not config.prune_noncritical;
      table = Content.create 64;
      states = Hashtbl.create 64;
      seen = Array.make 8 0;
      r_succs = Array.make n [];
      r_uid = Array.make n (-1);
      r_suid = Array.make n [||];
      r_info = Array.make n [||]
    }

  (* [q]'s wire among the first [n] wires of [seen], or -1 *)
  let rec wire_of seen n (q : int) w =
    if w = n then -1 else if seen.(w) = q then w else wire_of seen n q (w + 1)

  (* numbers the new qubits of [qs] in [t.seen] after its first [n]
     wires, in first-appearance order (the merged group's numbering);
     the new wire count *)
  let rec number t n = function
    | [] -> n
    | q :: rest ->
      if wire_of t.seen n q 0 >= 0 then number t n rest
      else begin
        if n = Array.length t.seen then begin
          let a = Array.make (2 * n) 0 in
          Array.blit t.seen 0 a 0 n;
          t.seen <- a
        end;
        t.seen.(n) <- q;
        number t (n + 1) rest
      end

  let rec wires_of seen n = function
    | [] -> []
    | q :: rest -> wire_of seen n q 0 :: wires_of seen n rest

  (* The entry of the committed edge [u -> v]. The union size comes from
     the two operand lists, so a wide pair stops before its key is
     rendered or priced. *)
  let lookup t u v =
    let dag = Engine.dag t.eng and kid = Engine.key_ids t.eng in
    let gu = Dag.gate dag u and gv = Dag.gate dag v in
    let n = number t (number t 0 gu.Gate.qubits) gv.Gate.qubits in
    if n > t.max_n then wide
    else
      let key = kid.(u) :: kid.(v) :: wires_of t.seen n gv.Gate.qubits in
      match Content.find_opt t.table key with
      | Some p -> p
      | None ->
        let mkey, union_n, pair_est = t.content gu gv in
        let state =
          match Hashtbl.find_opt t.states mkey with
          | Some st -> st
          | None ->
            let st = { blacklisted = false } in
            Hashtbl.add t.states mkey st;
            st
        in
        let p = { union_n; pair_est; state } in
        Content.add t.table key p;
        p

  let blacklist t u v = (lookup t u v).state.blacklisted <- true

  (* A slot is current when its row was filled for [u]'s uid and it
     names [v]'s uid: the entry is a function of the two gates, and a
     uid names one gate for the whole search. A new successor list only
     resizes the row: a slot whose successor kept its uid stays good. *)
  let fit_row t u succs (uid : int array) =
    if t.r_succs.(u) != succs then begin
      t.r_succs.(u) <- succs;
      let len = List.length succs in
      if Array.length t.r_suid.(u) < len then begin
        t.r_suid.(u) <- Array.make len (-1);
        t.r_info.(u) <- Array.make len wide
      end
    end;
    if t.r_uid.(u) <> uid.(u) then begin
      t.r_uid.(u) <- uid.(u);
      Array.fill t.r_suid.(u) 0 (Array.length t.r_suid.(u)) (-1)
    end

  (* Candidate scoring over the committed engine state. Mirrors
     enumerate+rank+filter of the reference loop with two deliberate
     twists: a Case III edge (neither end critical) is dropped before
     its slot is read, since the pruning drops it whatever its content
     is; and the validity DFS (has_indirect_path) is postponed to the
     selection walk, where only the top few candidates ever need it —
     skipping an invalid candidate there is indistinguishable from its
     absence here, since scores are content+schedule functions and
     invalid candidates reserve no span. *)
  let rec score_slots t b lat cp (crit : bool array) (uid : int array) suid
      info u succs i = function
    | [] -> ()
    | v :: rest ->
      if t.include_iii || crit.(u) || crit.(v) then begin
        let p =
          if suid.(i) = uid.(v) then info.(i)
          else begin
            let p = lookup t u v in
            suid.(i) <- uid.(v);
            info.(i) <- p;
            p
          end
        in
        if p.union_n <= t.max_n && not p.state.blacklisted then
          Ranking.score_edge b ~include_iii:t.include_iii ~lat ~cp ~crit
            ~succs ~u ~v ~est:p.pair_est
      end;
      score_slots t b lat cp crit uid suid info u succs (i + 1) rest

  let score t b =
    let dag = Engine.dag t.eng in
    let lat = Engine.latencies t.eng
    and cp = Engine.cp_afters t.eng
    and crit = Engine.criticals t.eng
    and uid = Engine.uids t.eng in
    Ranking.clear b;
    for u = 0 to Dag.n_nodes dag - 1 do
      match Dag.succs dag u with
      | [] -> ()
      | succs ->
        fit_row t u succs uid;
        score_slots t b lat cp crit uid t.r_suid.(u) t.r_info.(u) u succs 0
          succs
    done
end

let run ?(config = default_config) ?jobs:_ gen c =
  let merge_counter = ref 0 in
  let committed = ref 0 and rolled_back = ref 0 and iterations = ref 0 in
  let eng = Engine.create gen c in
  let initial_latency = Engine.total eng in
  let eps = 1e-6 in
  let reach = Dag.reach_ws (Dag.n_nodes (Engine.dag eng)) in
  let pairs = Pair_table.create config eng ~content:(pair_content gen) in
  let cands = Ranking.buffer () in
  let score_edges () = Pair_table.score pairs cands in
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
          Pair_table.blacklist pairs u v;
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
