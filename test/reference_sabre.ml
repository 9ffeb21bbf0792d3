(* Test-side oracle for the SABRE router: the implementation the
   product used before it scored each swap candidate once per stall.
   It sorts the candidates with a comparator that rescores both sides
   of every comparison, folds the front and extended-set distances as
   floats through closures, deduplicates candidate edges with
   [List.mem], and detects a two-qubit gate across components of the
   coupling graph only when its iteration fuel runs out. The product
   ([Paqoc_topology.Sabre.route]) must reproduce its physical gate
   list, both layouts and its swap count exactly. *)
module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Coupling = Paqoc_topology.Coupling
module Layout = Paqoc_topology.Layout

type result = {
  physical : Circuit.t;
  initial : Layout.t;
  final : Layout.t;
  swaps_added : int;
}

(* SABRE parameters from the paper: extended-set weight 0.5, size ~20,
   decay increment 0.001 reset every 5 SWAPs. *)
let ext_weight = 0.5
let ext_size = 20
let decay_delta = 0.001
let decay_reset = 5

let route (c : Circuit.t) (cg : Coupling.t) =
  let np = Coupling.n_qubits cg in
  if c.Circuit.n_qubits > np then
    invalid_arg "Sabre.route: device smaller than circuit";
  List.iter
    (fun (g : Gate.app) ->
      if List.length g.Gate.qubits > 2 then
        invalid_arg "Sabre.route: decompose 3+ qubit gates before routing")
    c.Circuit.gates;
  let layout = Layout.trivial ~n_logical:c.Circuit.n_qubits ~n_physical:np in
  let initial_layout = Layout.copy layout in
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let dag = Dag.of_circuit c in
  let unresolved = Array.make n 0 in
  List.iter
    (fun v -> unresolved.(v) <- List.length (Dag.preds dag v))
    (Dag.nodes dag);
  let front = ref [] in
  for v = n - 1 downto 0 do
    if unresolved.(v) = 0 then front := v :: !front
  done;
  let emitted = ref [] in
  let swaps = ref 0 in
  let decay = Array.make np 0.0 in
  let swaps_since_reset = ref 0 in
  let routable (g : Gate.app) =
    match g.Gate.qubits with
    | [ _ ] -> true
    | [ a; b ] ->
      Coupling.are_coupled cg (Layout.phys layout a) (Layout.phys layout b)
    | _ -> false
  in
  let emit v =
    let g = gates.(v) in
    let phys_gate =
      { g with Gate.qubits = List.map (Layout.phys layout) g.Gate.qubits }
    in
    emitted := phys_gate :: !emitted;
    front := List.filter (fun w -> w <> v) !front;
    List.iter
      (fun s ->
        unresolved.(s) <- unresolved.(s) - 1;
        if unresolved.(s) = 0 then front := s :: !front)
      (Dag.succs dag v)
  in
  (* extended lookahead: the next few not-yet-front 2q gates. The
     visited marks are generation stamps in a route-level array (the
     Dag.reach_ws idiom), not a fresh bool array per call — the set is
     rebuilt at every stalled iteration, and this loop is the router's
     hot path on congested circuits. *)
  let ext_stamp = Array.make n 0 in
  let ext_gen = ref 0 in
  let extended_set () =
    incr ext_gen;
    let stamp_gen = !ext_gen in
    let acc = ref [] and count = ref 0 in
    let rec walk v depth =
      if depth > 0 && !count < ext_size then
        List.iter
          (fun s ->
            if ext_stamp.(s) <> stamp_gen then begin
              ext_stamp.(s) <- stamp_gen;
              (match gates.(s).Gate.qubits with
              | [ _; _ ] when !count < ext_size ->
                acc := s :: !acc;
                incr count
              | _ -> ());
              walk s (depth - 1)
            end)
          (Dag.succs dag v)
    in
    List.iter (fun v -> walk v 3) !front;
    !acc
  in
  let dist_of v lay_probe =
    match gates.(v).Gate.qubits with
    | [ a; b ] -> float_of_int (Coupling.distance cg (lay_probe a) (lay_probe b))
    | _ -> 0.0
  in
  (* safety bound: routing must terminate well within n * np^2 steps *)
  let fuel = ref ((n + 1) * np * np * 4) in
  while !front <> [] do
    decr fuel;
    if !fuel < 0 then failwith "Sabre.route: no progress (disconnected device?)";
    let ready = List.sort compare (List.filter (fun v -> routable gates.(v)) !front) in
    if ready <> [] then List.iter emit ready
    else begin
      let two_q_front =
        List.filter (fun v -> List.length gates.(v).Gate.qubits = 2) !front
      in
      let ext = extended_set () in
      (* candidate swaps: device edges incident to front-gate qubits *)
      let cands = ref [] in
      List.iter
        (fun v ->
          List.iter
            (fun l ->
              let p = Layout.phys layout l in
              List.iter
                (fun p' ->
                  let e = if p < p' then (p, p') else (p', p) in
                  if not (List.mem e !cands) then cands := e :: !cands)
                (Coupling.neighbors cg p))
            gates.(v).Gate.qubits)
        two_q_front;
      let score (a, b) =
        let probe l =
          let p = Layout.phys layout l in
          if p = a then b else if p = b then a else p
        in
        let f_sum =
          List.fold_left (fun acc v -> acc +. dist_of v probe) 0.0 two_q_front
        in
        let e_sum =
          List.fold_left (fun acc v -> acc +. dist_of v probe) 0.0 ext
        in
        let nf = float_of_int (max 1 (List.length two_q_front)) in
        let ne = float_of_int (max 1 (List.length ext)) in
        let decay_factor = 1.0 +. Float.max decay.(a) decay.(b) in
        decay_factor *. ((f_sum /. nf) +. (ext_weight *. e_sum /. ne))
      in
      let best =
        List.sort
          (fun e1 e2 ->
            let s1 = score e1 and s2 = score e2 in
            if s1 <> s2 then compare s1 s2 else compare e1 e2)
          !cands
      in
      match best with
      | [] -> failwith "Sabre.route: stuck with no swap candidates"
      | (a, b) :: _ ->
        Layout.swap_physical layout a b;
        emitted := Gate.app2 Gate.SWAP a b :: !emitted;
        incr swaps;
        decay.(a) <- decay.(a) +. decay_delta;
        decay.(b) <- decay.(b) +. decay_delta;
        incr swaps_since_reset;
        if !swaps_since_reset >= decay_reset then begin
          Array.fill decay 0 np 0.0;
          swaps_since_reset := 0
        end
    end
  done;
  let physical = Circuit.make ~n_qubits:np (List.rev !emitted) in
  { physical; initial = initial_layout; final = layout; swaps_added = !swaps }
