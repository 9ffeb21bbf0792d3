module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite

type config = { min_support : int; max_qubits : int; max_gates : int }

let default_config = { min_support = 3; max_qubits = 3; max_gates = 6 }

(* a pattern needs two gates to merge anything; at most this many are
   returned *)
let min_gates = 2
let max_patterns = 32

type found = {
  pattern : Pattern.t;
  occurrences : Pattern.occurrence list;
  support : int;
  coverage : int;
}

let label_of k =
  match Gate.params k with
  | [] -> Gate.name k
  | ps -> Printf.sprintf "%s(%s)" (Gate.name k)
            (String.concat "," (List.map (fun _ -> "~") ps))

(* growth caps keeping pathological circuits cheap *)
let max_embeddings_per_pattern = 4000
let max_patterns_per_level = 4000

let node_set_key nodes = String.concat "," (List.map string_of_int nodes)

let qubit_count dag nodes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun v ->
      List.iter (fun q -> Hashtbl.replace tbl q ()) (Dag.gate dag v).Gate.qubits)
    nodes;
  Hashtbl.length tbl

(* Maximal disjoint subset, greedy by last node id (interval scheduling on
   node-id spans — spans that do not collide in ids never share nodes). *)
let disjoint_support occs =
  let spans =
    List.map
      (fun (o : Pattern.occurrence) ->
        let ns = o.Pattern.nodes in
        (List.fold_left max (-1) ns, ns))
      occs
    |> List.sort compare
  in
  let used = Hashtbl.create 64 in
  List.fold_left
    (fun acc (_, ns) ->
      if List.exists (Hashtbl.mem used) ns then acc
      else begin
        List.iter (fun v -> Hashtbl.replace used v ()) ns;
        acc + 1
      end)
    0 spans

let mine ?(config = default_config) (c : Circuit.t) =
  let dag = Dag.of_circuit c in
  let n = Dag.n_nodes dag in
  (* level-1 embeddings: every node is a singleton occurrence *)
  let level = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let p, occ = Pattern.of_nodes ~label:label_of dag [ v ] in
    let entry =
      match Hashtbl.find_opt level p.Pattern.code with
      | Some (p0, occs, seen) -> (p0, occ :: occs, seen)
      | None -> (p, [ occ ], Hashtbl.create 16)
    in
    Hashtbl.replace level p.Pattern.code entry
  done;
  let results = Hashtbl.create 64 in
  let current = ref level in
  let size = ref 1 in
  while Hashtbl.length !current > 0 && !size < config.max_gates do
    incr size;
    let next = Hashtbl.create 64 in
    let patterns_emitted = ref 0 in
    Hashtbl.iter
      (fun _code (_p, occs, _) ->
        (* apriori: only frequent embeddings grow *)
        if disjoint_support occs >= config.min_support
           && !patterns_emitted < max_patterns_per_level then
          List.iter
            (fun (o : Pattern.occurrence) ->
              let members = o.Pattern.nodes in
              let in_set v = List.mem v members in
              let neighbors =
                List.concat_map
                  (fun v -> Dag.succs dag v @ Dag.preds dag v)
                  members
                |> List.sort_uniq compare
                |> List.filter (fun v -> not (in_set v))
              in
              List.iter
                (fun x ->
                  let cand = List.sort compare (x :: members) in
                  if qubit_count dag cand <= config.max_qubits
                     && Dag.is_convex dag cand then begin
                    let p, occ = Pattern.of_nodes ~label:label_of dag cand in
                    let k = p.Pattern.code in
                    match Hashtbl.find_opt next k with
                    | Some (p0, occs0, seen) ->
                      let nk = node_set_key cand in
                      if (not (Hashtbl.mem seen nk))
                         && List.length occs0 < max_embeddings_per_pattern
                      then begin
                        Hashtbl.replace seen nk ();
                        Hashtbl.replace next k (p0, occ :: occs0, seen)
                      end
                    | None ->
                      incr patterns_emitted;
                      let seen = Hashtbl.create 16 in
                      Hashtbl.replace seen (node_set_key cand) ();
                      Hashtbl.replace next k (p, [ occ ], seen)
                  end)
                neighbors)
            occs)
      !current;
    (* record frequent patterns of this size *)
    Hashtbl.iter
      (fun code (p, occs, _) ->
        let support = disjoint_support occs in
        if support >= config.min_support
           && p.Pattern.size >= min_gates then
          Hashtbl.replace results code
            { pattern = p;
              occurrences =
                List.sort
                  (fun (a : Pattern.occurrence) b ->
                    compare a.Pattern.nodes b.Pattern.nodes)
                  occs;
              support;
              coverage = support * p.Pattern.size
            })
      next;
    current := next
  done;
  Hashtbl.fold (fun _ f acc -> f :: acc) results []
  |> List.sort (fun a b ->
         if a.coverage <> b.coverage then compare b.coverage a.coverage
         else if a.pattern.Pattern.size <> b.pattern.Pattern.size then
           compare b.pattern.Pattern.size a.pattern.Pattern.size
         else compare a.pattern.Pattern.code b.pattern.Pattern.code)
  |> fun l ->
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take max_patterns l
