module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite

(* [stamp_count mark g n qs] adds to [n] the qubits of [qs] not yet
   stamped [g], stamping them. *)
let rec stamp_count (mark : int array) g n = function
  | [] -> n
  | q :: rest ->
    if mark.(q) = g then stamp_count mark g n rest
    else begin
      mark.(q) <- g;
      stamp_count mark g (n + 1) rest
    end

(* Observation-1 compatibility: merging adds no new qubit to the larger
   operand set, so the merge cannot create false dependencies and is
   always (locally) beneficial. The three qubit counts are stamps in
   [mark] (the {!Dag.reach_ws} idiom): [gen] for [u]'s qubits and then
   the union's, [gen + 1] for [v]'s alone. *)
let obs1_compatible mark gen ws dag u v ~maxN =
  let gu = Dag.gate dag u and gv = Dag.gate dag v in
  let nu = stamp_count mark gen 0 gu.Gate.qubits in
  let union = stamp_count mark gen nu gv.Gate.qubits in
  let nv = stamp_count mark (gen + 1) 0 gv.Gate.qubits in
  union <= maxN
  && union = max nu nv
  && not (Dag.has_indirect_path_ws ws dag u v)

(* Rounds edit one DAG in place ({!Dag.edit}): each relinearises only
   its selected pairs' windows and moves no id outside them, so ids
   stay topological and the selection below reads them exactly as it
   would dense ids. The circuit is built once, at the end. *)
let preprocess (c : Circuit.t) ~maxN =
  let counter = ref 0 in
  let dag = Dag.of_circuit c in
  let n = Dag.n_nodes dag in
  let ed = Dag.editor dag in
  let ws = Dag.reach_ws n in
  let mark = Array.make (max 1 (Dag.n_qubits dag)) 0 and gen = ref 0 in
  let used = Array.make n false in
  (* greedy span-disjoint selection keeps the batched contraction
     trivially acyclic; [u] ascends and every pair is an edge [u -> v]
     with [v > u], so a span clashes with an earlier pick iff [u] is
     inside it, i.e. iff [u] is at most the picks' largest end *)
  let reach = ref (-1) in
  let selected = ref [] in
  (* [u]'s successors in ascending order: every adjacency list is
     largest first, so each is visited after the rest of its list *)
  let rec pick u = function
    | [] -> ()
    | v :: rest ->
      pick u rest;
      if u > !reach && (not used.(u)) && not used.(v) then begin
        gen := !gen + 2;
        if obs1_compatible mark !gen ws dag u v ~maxN then begin
          used.(u) <- true;
          used.(v) <- true;
          reach := v;
          selected := (u, v) :: !selected
        end
      end
  in
  let rec round edited =
    Array.fill used 0 n false;
    reach := -1;
    selected := [];
    for u = 0 to n - 1 do
      if not used.(u) then pick u (Dag.succs dag u)
    done;
    match !selected with
    | [] -> edited
    | sel ->
      let groups =
        List.map
          (fun (u, v) ->
            incr counter;
            let nodes = [ u; v ] in
            ( nodes,
              Rewrite.custom_of_nodes dag nodes
                ~name:("pre" ^ string_of_int !counter) ))
          sel
      in
      Dag.edit ed groups;
      Dag.keep ed;
      round true
  in
  if round false then Dag.to_circuit dag else c
