module Cx = Paqoc_linalg.Cx
module Cmat = Paqoc_linalg.Cmat

type t = { n_qubits : int; gates : Gate.app list }

let validate_app n (g : Gate.app) =
  List.iter
    (fun q ->
      if q < 0 || q >= n then
        invalid_arg
          (Printf.sprintf "Circuit: gate %s uses qubit %d outside register 0..%d"
             (Gate.app_to_string g) q (n - 1)))
    g.qubits

let empty n_qubits =
  if n_qubits <= 0 then invalid_arg "Circuit.empty: need at least one qubit";
  { n_qubits; gates = [] }

let make ~n_qubits gates =
  let c = empty n_qubits in
  List.iter (validate_app n_qubits) gates;
  { c with gates }

let add c g =
  validate_app c.n_qubits g;
  { c with gates = c.gates @ [ g ] }

let append a b =
  if a.n_qubits <> b.n_qubits then
    invalid_arg "Circuit.append: register size mismatch";
  { a with gates = a.gates @ b.gates }

let n_gates c = List.length c.gates

let n_1q c =
  List.length (List.filter (fun (g : Gate.app) -> Gate.arity g.kind = 1) c.gates)

let n_2q c =
  List.length (List.filter (fun (g : Gate.app) -> Gate.arity g.kind >= 2) c.gates)

let depth c =
  let level = Array.make c.n_qubits 0 in
  List.fold_left
    (fun acc (g : Gate.app) ->
      let d = 1 + List.fold_left (fun m q -> max m level.(q)) 0 g.qubits in
      List.iter (fun q -> level.(q) <- d) g.qubits;
      max acc d)
    0 c.gates

let map_qubits f c ~n_qubits =
  let gates =
    List.map
      (fun (g : Gate.app) -> { g with Gate.qubits = List.map f g.qubits })
      c.gates
  in
  make ~n_qubits gates

let bind_params bindings c =
  { c with
    gates =
      List.map
        (fun (g : Gate.app) ->
          { g with Gate.kind = Gate.bind_params bindings g.kind })
        c.gates
  }

let is_symbolic c =
  List.exists (fun (g : Gate.app) -> Gate.is_symbolic g.kind) c.gates

let free_params c =
  List.sort_uniq String.compare
    (List.concat_map (fun (g : Gate.app) -> Gate.free_params g.kind) c.gates)

let flatten c =
  let rec expand (g : Gate.app) =
    match g.kind with
    | Gate.Custom cu ->
      let wires = Array.of_list g.qubits in
      List.concat_map
        (fun (sub : Gate.app) ->
          expand
            { sub with Gate.qubits = List.map (fun q -> wires.(q)) sub.qubits })
        cu.body
    | _ -> [ g ]
  in
  { c with gates = List.concat_map expand c.gates }

let dagger c =
  { c with
    gates =
      List.rev_map
        (fun (g : Gate.app) -> { g with Gate.kind = Gate.dagger g.kind })
        c.gates
  }

let unitary c =
  if c.n_qubits > 12 then
    invalid_arg
      (Printf.sprintf
         "Circuit.unitary: %d qubits is too large for a dense unitary (cap \
          is 12)"
         c.n_qubits);
  Gate.unitary_of_apps ~n_qubits:c.n_qubits c.gates

let equivalent ?(tol = 1e-8) a b =
  a.n_qubits = b.n_qubits
  && Cmat.equal_up_to_phase ~tol (unitary a) (unitary b)

let pp ppf c =
  Format.fprintf ppf "@[<v>circuit %d qubits, %d gates:@," c.n_qubits
    (n_gates c);
  List.iter (fun g -> Format.fprintf ppf "  %a@," Gate.pp_app g) c.gates;
  Format.fprintf ppf "@]"

let to_string c = Format.asprintf "%a" pp c
