(* Test-side oracle for the pulse-table key renderer and the analytic
   latency model: the list-copying implementations the product used
   before it walked nested customs in place ([Gate.iter_primitives])
   and wrote labels straight into the key buffer. Each custom level is
   flattened into a relabelled copy of its subtree, every label goes
   through [Printf], and the model compares sorted qubit pairs with
   polymorphic equality. The product must match these byte for byte
   (keys, labels) and bit for bit (latencies). *)
module Gate = Paqoc_circuit.Gate
module Angle = Paqoc_circuit.Angle
module Generator = Paqoc_pulse.Generator
module Latency_model = Paqoc_pulse.Latency_model

(* ------------------------------------------------------------------ *)
(* Labels (Angle.label, Gate.mining_label)                             *)
(* ------------------------------------------------------------------ *)

let pi_label f =
  let frac = f /. Angle.pi in
  let denominators = [ 1; 2; 3; 4; 6; 8; 12; 16 ] in
  let rec search = function
    | [] -> Printf.sprintf "%.9g" f
    | d :: rest ->
      let num = frac *. float_of_int d in
      let rounded = Float.round num in
      if abs_float (num -. rounded) < 1e-9 && abs_float rounded < 64.0 then
        let n = int_of_float rounded in
        if n = 0 then "0"
        else if d = 1 then Printf.sprintf "%dpi" n
        else Printf.sprintf "%dpi/%d" n d
      else search rest
  in
  search denominators

let angle_label = function
  | Angle.Const f -> pi_label f
  | Angle.Sym s -> "$" ^ s
  | Angle.Scaled (s, k) -> Printf.sprintf "%.9g*$%s" k s

let mining_label k =
  match Gate.params k with
  | [] -> Gate.name k
  | ps ->
    Printf.sprintf "%s(%s)" (Gate.name k)
      (String.concat "," (List.map angle_label ps))

(* ------------------------------------------------------------------ *)
(* Keys (Generator.key, Generator.shape_signature)                     *)
(* ------------------------------------------------------------------ *)

let rec flatten_for_key (gates : Gate.app list) =
  List.concat_map
    (fun (a : Gate.app) ->
      match a.Gate.kind with
      | Gate.Custom cu ->
        let wires = Array.of_list a.Gate.qubits in
        flatten_for_key
          (List.map
             (fun (s : Gate.app) ->
               { s with Gate.qubits = List.map (fun q -> wires.(q)) s.Gate.qubits })
             cu.Gate.body)
      | _ -> [ a ])
    gates

let serialize ~label (g : Generator.group) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int g.Generator.n_qubits);
  List.iter
    (fun (a : Gate.app) ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (label a.Gate.kind);
      Buffer.add_char buf '@';
      Buffer.add_string buf
        (String.concat "," (List.map string_of_int a.Gate.qubits)))
    (flatten_for_key g.Generator.gates);
  Buffer.contents buf

let key g = serialize ~label:mining_label g
let shape_signature g = serialize ~label:Gate.name g

(* ------------------------------------------------------------------ *)
(* The analytic latency model                                          *)
(* ------------------------------------------------------------------ *)

let repeat_discount = 0.45

let rec flatten_apps (gates : Gate.app list) =
  List.concat_map
    (fun (g : Gate.app) ->
      match g.Gate.kind with
      | Gate.Custom cu ->
        let wires = Array.of_list g.Gate.qubits in
        flatten_apps
          (List.map
             (fun (s : Gate.app) ->
               { s with Gate.qubits = List.map (fun q -> wires.(q)) s.Gate.qubits })
             cu.Gate.body)
      | _ -> [ g ])
    gates

let interaction_path_weight ~n_qubits gates =
  let clock = Array.make n_qubits 0.0 in
  (* last interaction pair seen on each qubit and its run length, used for
     the same-pair repetition discount *)
  let last_pair = Array.make n_qubits (-1, -1) in
  let run_len = Array.make n_qubits 0 in
  List.iter
    (fun (g : Gate.app) ->
      if Gate.arity g.Gate.kind >= 2 then begin
        let w = Gate.interaction_weight g.Gate.kind in
        let pair =
          match List.sort compare g.Gate.qubits with
          | [ a; b ] -> (a, b)
          | a :: b :: _ -> (a, b)
          | _ -> (-1, -1)
        in
        let same_run =
          List.length g.Gate.qubits = 2
          && List.for_all (fun q -> last_pair.(q) = pair) g.Gate.qubits
        in
        let k = if same_run then run_len.(List.hd g.Gate.qubits) else 0 in
        let w = w *. (repeat_discount ** float_of_int k) in
        let start =
          List.fold_left (fun m q -> Float.max m clock.(q)) 0.0 g.Gate.qubits
        in
        List.iter
          (fun q ->
            clock.(q) <- start +. w;
            last_pair.(q) <- pair;
            run_len.(q) <- k + 1)
          g.Gate.qubits
      end
      else
        (* a non-diagonal 1q gate breaks a same-pair interaction run *)
        if not (Gate.is_diagonal g.Gate.kind) then
          List.iter
            (fun q ->
              last_pair.(q) <- (-1, -1);
              run_len.(q) <- 0)
            g.Gate.qubits)
    (flatten_apps gates);
  Array.fold_left Float.max 0.0 clock

(* Deterministic jitter in [-1, 1] keyed on the canonical group string. *)
let jitter_of_key key =
  if String.equal key "" then 0.0
  else
    let h = Hashtbl.hash (Hashtbl.hash key, String.length key, key) in
    let u = float_of_int (h land 0xFFFF) /. 65535.0 in
    (2.0 *. u) -. 1.0

let apply_jitter (cfg : Latency_model.config) key base =
  if base <= 0.0 then 0.0
  else
    let jittered =
      base *. (1.0 +. (cfg.Latency_model.noise *. jitter_of_key key))
    in
    Float.max 1.0 (Float.round jittered)

let group_latency (cfg : Latency_model.config) ~n_qubits ~key gates =
  let open Latency_model in
  let gates = flatten_apps gates in
  if gates = [] then 0.0
  else if List.for_all (fun (g : Gate.app) -> Gate.is_diagonal g.Gate.kind) gates
  then 0.0 (* virtual-Z only: free frame change *)
  else begin
    let w = interaction_path_weight ~n_qubits gates in
    if w > 0.0 then
      apply_jitter cfg key (cfg.ramp +. (cfg.l_cx *. (w ** cfg.alpha)))
    else begin
      (* interaction-less group: one collapsed rotation layer per wire,
         layers run in parallel *)
      let rot = Array.make n_qubits 0 in
      List.iter
        (fun (g : Gate.app) ->
          if not (Gate.is_diagonal g.Gate.kind) then
            List.iter (fun q -> rot.(q) <- rot.(q) + 1) g.Gate.qubits)
        gates;
      let layer =
        Array.fold_left
          (fun acc n ->
            let cost =
              if n = 0 then 0.0
              else if n = 1 then cfg.l_1q
              else cfg.l_1q_composite
            in
            Float.max acc cost)
          0.0 rot
      in
      if layer = 0.0 then 0.0 else apply_jitter cfg key (cfg.ramp +. layer)
    end
  end
