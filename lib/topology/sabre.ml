module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Obs = Paqoc_obs.Obs

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

(* SWAPs run along device edges, so a logical qubit never leaves the
   component of the coupling graph it starts in: a two-qubit gate whose
   operands start in different components can never be routed. Routing
   starts from the trivial layout, so the logical operands are the
   physical ones. *)
let check_connected (c : Circuit.t) cg =
  List.iteri
    (fun i (g : Gate.app) ->
      match g.Gate.qubits with
      | [ a; b ] when Coupling.distance cg a b = max_int ->
        failwith
          (Printf.sprintf
             "Sabre.route: gate %d (%s on qubits %d and %d) joins \
              disconnected parts of the device"
             i (Gate.name g.Gate.kind) a b)
      | _ -> ())
    c.Circuit.gates

(* [sum_dist cg a b pa pb k] is the summed device distance of the
   first [k] physical operand pairs [(pa.(i), pb.(i))] with the
   physical qubits [a] and [b] exchanged. Every pair is connected, so
   each distance is a small int and the sum equals, bit for bit once
   converted, the float sum the published score is defined on. *)
let sum_dist cg a b (pa : int array) (pb : int array) k =
  let s = ref 0 in
  for i = 0 to k - 1 do
    let x = pa.(i) and y = pb.(i) in
    let x = if x = a then b else if x = b then a else x in
    let y = if y = a then b else if y = b then a else y in
    s := !s + Coupling.distance cg x y
  done;
  !s

let route (c : Circuit.t) (cg : Coupling.t) =
  Obs.with_span "sabre.route" @@ fun () ->
  let np = Coupling.n_qubits cg in
  if c.Circuit.n_qubits > np then
    invalid_arg "Sabre.route: device smaller than circuit";
  List.iter
    (fun (g : Gate.app) ->
      if List.length g.Gate.qubits > 2 then
        invalid_arg "Sabre.route: decompose 3+ qubit gates before routing")
    c.Circuit.gates;
  check_connected c cg;
  let layout = Layout.trivial ~n_logical:c.Circuit.n_qubits ~n_physical:np in
  let initial_layout = Layout.copy layout in
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  (* the logical operands of each two-qubit gate; [-1] marks any other *)
  let qa = Array.make n (-1) and qb = Array.make n (-1) in
  Array.iteri
    (fun v (g : Gate.app) ->
      match g.Gate.qubits with
      | [ a; b ] ->
        qa.(v) <- a;
        qb.(v) <- b
      | _ -> ())
    gates;
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
  (* A stall's state, in route-level arrays: the physical operand pairs
     of the front's two-qubit gates ([fa], [fb], [nf] of them; front
     gates share no qubit, so at most [np / 2]) and of the extended set
     ([ea], [eb], [ne]). *)
  let fa = Array.make np 0 and fb = Array.make np 0 and nf = ref 0 in
  let ea = Array.make ext_size 0 and eb = Array.make ext_size 0 in
  let ne = ref 0 in
  (* extended lookahead: the next few not-yet-front 2q gates. The
     visited marks are generation stamps in a route-level array (the
     Dag.reach_ws idiom), not a fresh bool array per call — the set is
     rebuilt at every stalled iteration, and this loop is the router's
     hot path on congested circuits. *)
  let ext_stamp = Array.make n 0 in
  let ext_gen = ref 0 in
  let rec walk depth v =
    if depth > 0 && !ne < ext_size then walk_succs depth (Dag.succs dag v)
  and walk_succs depth = function
    | [] -> ()
    | s :: rest ->
      if ext_stamp.(s) <> !ext_gen then begin
        ext_stamp.(s) <- !ext_gen;
        if qa.(s) >= 0 && !ne < ext_size then begin
          ea.(!ne) <- Layout.phys layout qa.(s);
          eb.(!ne) <- Layout.phys layout qb.(s);
          incr ne
        end;
        walk (depth - 1) s
      end;
      walk_succs depth rest
  in
  (* The best swap of a stall: each candidate edge [(a, b)], [a < b], is
     scored once and the least [(score, a, b)] kept. Candidates are the
     device edges at a front pair's qubits; [mark] stamps those qubits
     [gen] and each one [gen + 1] once expanded, so an edge between two
     of them is taken once, from its smaller end. *)
  let mark = Array.make np 0 and gen = ref 0 in
  let best_s = ref infinity and best_a = ref (-1) and best_b = ref (-1) in
  let consider a b =
    let f = sum_dist cg a b fa fb !nf and e = sum_dist cg a b ea eb !ne in
    let nf = float_of_int (max 1 !nf) and ne = float_of_int (max 1 !ne) in
    let decay_factor = 1.0 +. Float.max decay.(a) decay.(b) in
    let s =
      decay_factor
      *. ((float_of_int f /. nf) +. (ext_weight *. float_of_int e /. ne))
    in
    if s < !best_s
       || (s = !best_s && (a < !best_a || (a = !best_a && b < !best_b)))
    then begin
      best_s := s;
      best_a := a;
      best_b := b
    end
  in
  let rec expand_edges p = function
    | [] -> ()
    | p' :: rest ->
      if mark.(p') < !gen then consider (min p p') (max p p')
      else if p < p' then consider p p';
      expand_edges p rest
  in
  let expand p =
    if mark.(p) = !gen then begin
      mark.(p) <- !gen + 1;
      expand_edges p (Coupling.neighbors cg p)
    end
  in
  (* safety bound: routing must terminate well within n * np^2 steps *)
  let fuel = ref ((n + 1) * np * np * 4) in
  while !front <> [] do
    decr fuel;
    if !fuel < 0 then failwith "Sabre.route: no progress";
    let ready = List.sort compare (List.filter (fun v -> routable gates.(v)) !front) in
    if ready <> [] then List.iter emit ready
    else begin
      nf := 0;
      List.iter
        (fun v ->
          if qa.(v) >= 0 then begin
            fa.(!nf) <- Layout.phys layout qa.(v);
            fb.(!nf) <- Layout.phys layout qb.(v);
            incr nf
          end)
        !front;
      incr ext_gen;
      ne := 0;
      List.iter (walk 3) !front;
      gen := !gen + 2;
      for i = 0 to !nf - 1 do
        mark.(fa.(i)) <- !gen;
        mark.(fb.(i)) <- !gen
      done;
      best_s := infinity;
      best_a := -1;
      best_b := -1;
      for i = 0 to !nf - 1 do
        expand fa.(i);
        expand fb.(i)
      done;
      if !best_a < 0 then failwith "Sabre.route: stuck with no swap candidates";
      let a = !best_a and b = !best_b in
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
  Obs.count ~n:!swaps "sabre.swaps";
  { physical; initial = initial_layout; final = layout; swaps_added = !swaps }
