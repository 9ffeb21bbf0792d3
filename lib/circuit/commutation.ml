module Cmat = Paqoc_linalg.Cmat

let shared_qubits (a : Gate.app) (b : Gate.app) =
  List.filter (fun q -> List.mem q b.Gate.qubits) a.Gate.qubits

let qubit_set (g : Gate.app) = List.sort_uniq compare g.Gate.qubits

(* X-axis 1q gates: commute with a CX's target *)
let is_x_axis = function
  | Gate.X | Gate.SX | Gate.SXdg | Gate.RX _ -> true
  | _ -> false

(* rule table for the hot cases; [`Unknown] falls through to the exact
   check *)
let rule (a : Gate.app) (b : Gate.app) =
  let diag g = Gate.is_diagonal g.Gate.kind in
  if diag a && diag b then `Commute
  else
    let cx_role (g : Gate.app) =
      match (g.Gate.kind, g.Gate.qubits) with
      | Gate.CX, [ c; t ] -> Some (c, t)
      | _ -> None
    in
    match (cx_role a, cx_role b) with
    | Some (c1, t1), Some (c2, t2) ->
      if c1 = c2 && t1 <> t2 then `Commute
      else if t1 = t2 && c1 <> c2 then `Commute
      else if c1 = t2 || t1 = c2 then `No
      else `Unknown
    | Some (c, t), None | None, Some (c, t) -> (
      let oneq = if cx_role a = None then a else b in
      match oneq.Gate.qubits with
      | [ q ] ->
        if q = c then if Gate.is_diagonal oneq.Gate.kind then `Commute else `No
        else if q = t then if is_x_axis oneq.Gate.kind then `Commute else `No
        else `Unknown
      | _ -> `Unknown)
    | None, None -> `Unknown

let memo : (string, bool) Hashtbl.t = Hashtbl.create 512

let memo_key (a : Gate.app) (b : Gate.app) =
  (* canonicalise the union wires so the key is position-independent *)
  let tbl = Hashtbl.create 8 in
  let local q =
    match Hashtbl.find_opt tbl q with
    | Some l -> l
    | None ->
      let l = Hashtbl.length tbl in
      Hashtbl.add tbl q l;
      l
  in
  let ser (g : Gate.app) =
    Gate.mining_label g.Gate.kind ^ "@"
    ^ String.concat "," (List.map (fun q -> string_of_int (local q)) g.Gate.qubits)
  in
  let sa = ser a in
  let sb = ser b in
  sa ^ "|" ^ sb

let exact_commute (a : Gate.app) (b : Gate.app) =
  if Gate.is_symbolic a.Gate.kind || Gate.is_symbolic b.Gate.kind then false
  else begin
    let union = List.sort_uniq compare (a.Gate.qubits @ b.Gate.qubits) in
    if List.length union > 8 then false (* conservative for huge customs *)
    else begin
      let tbl = Hashtbl.create 8 in
      List.iteri (fun i q -> Hashtbl.add tbl q i) union;
      let localize (g : Gate.app) =
        { g with Gate.qubits = List.map (Hashtbl.find tbl) g.Gate.qubits }
      in
      let n = List.length union in
      let ua = Gate.unitary_of_apps ~n_qubits:n [ localize a ] in
      let ub = Gate.unitary_of_apps ~n_qubits:n [ localize b ] in
      Cmat.equal ~tol:1e-10 (Cmat.mul ua ub) (Cmat.mul ub ua)
    end
  end

let commute a b =
  if shared_qubits a b = [] then true
  else
    match rule a b with
    | `Commute -> true
    | `No -> false
    | `Unknown -> (
      let k = memo_key a b in
      match Hashtbl.find_opt memo k with
      | Some r -> r
      | None ->
        let r = exact_commute a b in
        Hashtbl.replace memo k r;
        r)

(* bound the backwards scan so adversarial all-commuting chains stay
   linear *)
let scan_cap = 50

let normalize (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < 8 do
    changed := false;
    incr passes;
    for i = 1 to n - 1 do
      let v = gates.(i) in
      let vset = qubit_set v in
      (* walk left past commuting gates; if we meet a gate with the same
         qubit set, slide v next to it *)
      let rec walk j steps =
        if j < 0 || steps > scan_cap then ()
        else if qubit_set gates.(j) = vset then begin
          (* all of gates.(j+1 .. i-1) commute with v: shift them right *)
          if j + 1 < i then begin
            for k = i downto j + 2 do
              gates.(k) <- gates.(k - 1)
            done;
            gates.(j + 1) <- v;
            changed := true
          end
        end
        else if commute gates.(j) v then walk (j - 1) (steps + 1)
        else ()
      in
      walk (i - 1) 0
    done
  done;
  Circuit.make ~n_qubits:c.Circuit.n_qubits (Array.to_list gates)
