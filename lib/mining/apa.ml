module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite

type mode = M_zero | M_tuned | M_inf | M_limit of int

type result = {
  circuit : Circuit.t;
  apa_gates : (string * Pattern.t) list;
  m_used : int;
  substitutions : int;
  gates_covered : int;
}

let span (o : Pattern.occurrence) =
  let ns = o.Pattern.nodes in
  (List.fold_left min max_int ns, List.fold_left max (-1) ns)

(* Greedy non-interleaving selection: keep an occurrence only if its node
   span does not overlap any previously selected span. Disjoint spans over
   a topological id order cannot create quotient cycles. *)
let select_occurrences patterns =
  let selected = ref [] in
  let taken_spans = ref [] in
  List.iteri
    (fun pi (found : Miner.found) ->
      List.iter
        (fun occ ->
          let lo, hi = span occ in
          let clashes =
            List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !taken_spans
          in
          if not clashes then begin
            taken_spans := (lo, hi) :: !taken_spans;
            selected := (pi, occ) :: !selected
          end)
        found.Miner.occurrences)
    patterns;
  List.rev !selected

let apply ?(miner = Miner.default_config) ~mode (c : Circuit.t) =
  match mode with
  | M_zero ->
    { circuit = c; apa_gates = []; m_used = 0; substitutions = 0;
      gates_covered = 0 }
  | _ ->
    let all = Miner.mine ~config:miner c in
    let total_gates = Circuit.n_gates c in
    let admitted =
      match mode with
      | M_zero -> []
      | M_inf -> all
      | M_limit k ->
        List.filteri (fun i _ -> i < k) all
      | M_tuned ->
        (* smallest prefix whose covered gates exceed the remainder *)
        let rec grow k =
          if k > List.length all then all
          else begin
            let prefix = List.filteri (fun i _ -> i < k) all in
            let sel = select_occurrences prefix in
            let covered =
              List.fold_left
                (fun acc (_, (o : Pattern.occurrence)) ->
                  acc + List.length o.Pattern.nodes)
                0 sel
            in
            if covered > total_gates - covered then prefix else grow (k + 1)
          end
        in
        grow 1
    in
    if admitted = [] then
      { circuit = c; apa_gates = []; m_used = 0; substitutions = 0;
        gates_covered = 0 }
    else begin
      let dag = Dag.of_circuit c in
      let names =
        List.mapi
          (fun i (f : Miner.found) ->
            (Printf.sprintf "apa%d" (i + 1), f.Miner.pattern))
          admitted
      in
      let selected = select_occurrences admitted in
      let groups =
        List.map
          (fun (pi, (o : Pattern.occurrence)) ->
            let name = fst (List.nth names pi) in
            (* re-canonicalise this occurrence so its local body keeps its
               own concrete angles under the shared pattern name *)
            let p_occ, occ =
              Pattern.of_nodes ~label:Miner.label_of dag o.Pattern.nodes
            in
            let custom = Pattern.to_custom p_occ ~name in
            let qubits = Array.to_list occ.Pattern.wire_map in
            (o.Pattern.nodes, Gate.app (Gate.Custom custom) qubits))
          selected
      in
      let circuit = Rewrite.contract c groups in
      let covered =
        List.fold_left
          (fun acc (nodes, _) -> acc + List.length nodes)
          0 groups
      in
      let used_names =
        List.sort_uniq compare (List.map (fun (pi, _) -> pi) selected)
      in
      { circuit;
        apa_gates = List.map (List.nth names) used_names;
        m_used = List.length used_names;
        substitutions = List.length groups;
        gates_covered = covered
      }
    end
