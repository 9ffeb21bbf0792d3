module Cx = Paqoc_linalg.Cx
module Cmat = Paqoc_linalg.Cmat

type kind =
  | I
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | SX
  | SXdg
  | RX of Angle.t
  | RY of Angle.t
  | RZ of Angle.t
  | U3 of Angle.t * Angle.t * Angle.t
  | CX
  | CZ
  | SWAP
  | CPhase of Angle.t
  | CCX
  | Custom of custom

and app = { kind : kind; qubits : int list }
and custom = { cname : string; arity : int; body : app list }

let arity = function
  | I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg -> 1
  | RX _ | RY _ | RZ _ | U3 _ -> 1
  | CX | CZ | SWAP | CPhase _ -> 2
  | CCX -> 3
  | Custom c -> c.arity

let app kind qubits =
  if List.length qubits <> arity kind then
    invalid_arg "Gate.app: operand count does not match gate arity";
  let sorted = List.sort_uniq compare qubits in
  if List.length sorted <> List.length qubits then
    invalid_arg "Gate.app: duplicate qubit operand";
  { kind; qubits }

let app1 kind q = app kind [ q ]
let app2 kind a b = app kind [ a; b ]
let app3 kind a b c = app kind [ a; b; c ]

let make_custom ~name ~arity:n body =
  List.iter
    (fun g ->
      List.iter
        (fun q ->
          if q < 0 || q >= n then
            invalid_arg "Gate.make_custom: body wire out of range")
        g.qubits)
    body;
  { cname = name; arity = n; body }

let name = function
  | I -> "id"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | SX -> "sx"
  | SXdg -> "sxdg"
  | RX _ -> "rx"
  | RY _ -> "ry"
  | RZ _ -> "rz"
  | U3 _ -> "u3"
  | CX -> "cx"
  | CZ -> "cz"
  | SWAP -> "swap"
  | CPhase _ -> "cp"
  | CCX -> "ccx"
  | Custom c -> c.cname

let params = function
  | RX a | RY a | RZ a | CPhase a -> [ a ]
  | U3 (a, b, c) -> [ a; b; c ]
  | I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | CX | CZ | SWAP | CCX
  | Custom _ ->
    []

let add_mining_label buf k =
  Buffer.add_string buf (name k);
  match k with
  | RX a | RY a | RZ a | CPhase a ->
    Buffer.add_char buf '(';
    Angle.add_label buf a;
    Buffer.add_char buf ')'
  | U3 (a, b, c) ->
    Buffer.add_char buf '(';
    Angle.add_label buf a;
    Buffer.add_char buf ',';
    Angle.add_label buf b;
    Buffer.add_char buf ',';
    Angle.add_label buf c;
    Buffer.add_char buf ')'
  | I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | CX | CZ | SWAP | CCX
  | Custom _ ->
    ()

let mining_label k =
  match params k with
  | [] -> name k
  | _ :: _ ->
    let buf = Buffer.create 24 in
    add_mining_label buf k;
    Buffer.contents buf

(* A custom body's wire map onto the walk's outer wires. Top-level gates
   sit on the identity map, [top_wires]: every custom's map is a fresh
   array, so physical equality tells the two apart. *)
type wires = int array

let top_wires = [| -1 |]
let wire (w : wires) q = if w == top_wires then q else w.(q)

let rec fill_wires inner outer i = function
  | [] -> ()
  | q :: rest ->
    inner.(i) <- wire outer q;
    fill_wires inner outer (i + 1) rest

let rec walk f w = function
  | [] -> ()
  | a :: rest ->
    (match a.kind with
    | Custom c ->
      let inner = Array.make (List.length a.qubits) 0 in
      fill_wires inner w 0 a.qubits;
      walk f inner c.body
    | k -> f k a.qubits w);
    walk f w rest

let iter_primitives f apps = walk f top_wires apps

let rec is_symbolic = function
  | RX a | RY a | RZ a | CPhase a -> Angle.is_symbolic a
  | U3 (a, b, c) ->
    Angle.is_symbolic a || Angle.is_symbolic b || Angle.is_symbolic c
  | Custom c -> List.exists (fun g -> is_symbolic g.kind) c.body
  | I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | CX | CZ | SWAP | CCX
    ->
    false

let angle_free_param = function
  | Angle.Const _ -> []
  | Angle.Sym s | Angle.Scaled (s, _) -> [ s ]

let rec free_params = function
  | RX a | RY a | RZ a | CPhase a -> angle_free_param a
  | U3 (a, b, c) ->
    angle_free_param a @ angle_free_param b @ angle_free_param c
  | Custom c -> List.concat_map (fun g -> free_params g.kind) c.body
  | I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | CX | CZ | SWAP | CCX
    ->
    []

let rec bind_params bindings = function
  | RX a -> RX (Angle.bind bindings a)
  | RY a -> RY (Angle.bind bindings a)
  | RZ a -> RZ (Angle.bind bindings a)
  | CPhase a -> CPhase (Angle.bind bindings a)
  | U3 (a, b, c) ->
    U3 (Angle.bind bindings a, Angle.bind bindings b, Angle.bind bindings c)
  | Custom c ->
    Custom
      { c with
        body =
          List.map
            (fun g -> { g with kind = bind_params bindings g.kind })
            c.body
      }
  | (I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | CX | CZ | SWAP | CCX)
    as k ->
    k

let is_diagonal = function
  | I | Z | S | Sdg | T | Tdg | RZ _ | CZ | CPhase _ -> true
  | X | Y | H | SX | SXdg | RX _ | RY _ | U3 _ | CX | SWAP | CCX -> false
  | Custom _ -> false

let norm_angle_mag a =
  (* magnitude of a rotation angle folded into [0, pi]; symbolic angles are
     treated as a generic pi/2-ish rotation for weighting purposes *)
  match a with
  | Angle.Const f ->
    let two_pi = 2.0 *. Angle.pi in
    let f = Float.rem (abs_float f) two_pi in
    if f > Angle.pi then two_pi -. f else f
  | Angle.Sym _ | Angle.Scaled _ -> Angle.pi /. 2.0

let rec interaction_weight = function
  | I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | RX _ | RY _ | RZ _
  | U3 _ ->
    0.0
  | CX | CZ -> 1.0
  | SWAP -> 3.0
  | CPhase a ->
    let m = norm_angle_mag a /. Angle.pi in
    if m <= 1e-12 then 0.0 else Float.max 0.25 m
  | CCX -> 6.0
  | Custom c ->
    List.fold_left (fun acc g -> acc +. interaction_weight g.kind) 0.0 c.body

let rec equal_kind a b =
  match (a, b) with
  | I, I | X, X | Y, Y | Z, Z | H, H | S, S | Sdg, Sdg | T, T | Tdg, Tdg
  | SX, SX | SXdg, SXdg | CX, CX | CZ, CZ | SWAP, SWAP | CCX, CCX ->
    true
  | RX x, RX y | RY x, RY y | RZ x, RZ y | CPhase x, CPhase y ->
    Angle.equal x y
  | U3 (x1, x2, x3), U3 (y1, y2, y3) ->
    Angle.equal x1 y1 && Angle.equal x2 y2 && Angle.equal x3 y3
  | Custom c, Custom c' ->
    c.arity = c'.arity
    && List.length c.body = List.length c'.body
    && List.for_all2 equal_app c.body c'.body
  | ( ( I | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | RX _ | RY _
      | RZ _ | U3 _ | CX | CZ | SWAP | CPhase _ | CCX | Custom _ ),
      _ ) ->
    false

and equal_app g g' = equal_kind g.kind g'.kind && g.qubits = g'.qubits

let neg_angle = function
  | Angle.Const f -> Angle.Const (-.f)
  | Angle.Sym s -> Angle.Scaled (s, -1.0)
  | Angle.Scaled (s, k) -> Angle.Scaled (s, -.k)

let rec dagger = function
  | I -> I
  | X -> X
  | Y -> Y
  | Z -> Z
  | H -> H
  | S -> Sdg
  | Sdg -> S
  | T -> Tdg
  | Tdg -> T
  | SX -> SXdg
  | SXdg -> SX
  | RX a -> RX (neg_angle a)
  | RY a -> RY (neg_angle a)
  | RZ a -> RZ (neg_angle a)
  | U3 (t, p, l) -> U3 (neg_angle t, neg_angle l, neg_angle p)
  | CX -> CX
  | CZ -> CZ
  | SWAP -> SWAP
  | CPhase a -> CPhase (neg_angle a)
  | CCX -> CCX
  | Custom c ->
    Custom
      { c with
        cname = c.cname ^ "_dg";
        body =
          List.rev_map (fun g -> { g with kind = dagger g.kind }) c.body
      }

let value a = Angle.value a

let rec unitary k : Cmat.t =
  if is_symbolic k then
    failwith
      (Printf.sprintf "Gate.unitary: gate %s has unbound symbolic parameters"
         (mining_label k));
  let inv_sqrt2 = 1.0 /. sqrt 2.0 in
  match k with
  | I -> Cmat.identity 2
  | X -> Cmat.of_real_lists [ [ 0.; 1. ]; [ 1.; 0. ] ]
  | Y ->
    Cmat.of_lists
      [ [ Cx.zero; Cx.make 0. (-1.) ]; [ Cx.make 0. 1.; Cx.zero ] ]
  | Z -> Cmat.diag [| Cx.one; Cx.of_float (-1.) |]
  | H ->
    Cmat.of_real_lists
      [ [ inv_sqrt2; inv_sqrt2 ]; [ inv_sqrt2; -.inv_sqrt2 ] ]
  | S -> Cmat.diag [| Cx.one; Cx.i |]
  | Sdg -> Cmat.diag [| Cx.one; Cx.make 0. (-1.) |]
  | T -> Cmat.diag [| Cx.one; Cx.exp_i (Angle.pi /. 4.) |]
  | Tdg -> Cmat.diag [| Cx.one; Cx.exp_i (-.Angle.pi /. 4.) |]
  | SX ->
    Cmat.of_lists
      [ [ Cx.make 0.5 0.5; Cx.make 0.5 (-0.5) ];
        [ Cx.make 0.5 (-0.5); Cx.make 0.5 0.5 ] ]
  | SXdg ->
    Cmat.of_lists
      [ [ Cx.make 0.5 (-0.5); Cx.make 0.5 0.5 ];
        [ Cx.make 0.5 0.5; Cx.make 0.5 (-0.5) ] ]
  | RX a ->
    let t = value a /. 2.0 in
    Cmat.of_lists
      [ [ Cx.of_float (cos t); Cx.make 0. (-.sin t) ];
        [ Cx.make 0. (-.sin t); Cx.of_float (cos t) ] ]
  | RY a ->
    let t = value a /. 2.0 in
    Cmat.of_real_lists [ [ cos t; -.sin t ]; [ sin t; cos t ] ]
  | RZ a ->
    let t = value a /. 2.0 in
    Cmat.diag [| Cx.exp_i (-.t); Cx.exp_i t |]
  | U3 (ta, pa, la) ->
    let t = value ta /. 2.0 and p = value pa and l = value la in
    Cmat.of_lists
      [ [ Cx.of_float (cos t); Cx.neg (Cx.polar (sin t) l) ];
        [ Cx.polar (sin t) p; Cx.polar (cos t) (p +. l) ] ]
  | CX ->
    Cmat.of_real_lists
      [ [ 1.; 0.; 0.; 0. ]; [ 0.; 1.; 0.; 0. ]; [ 0.; 0.; 0.; 1. ];
        [ 0.; 0.; 1.; 0. ] ]
  | CZ -> Cmat.diag [| Cx.one; Cx.one; Cx.one; Cx.of_float (-1.) |]
  | SWAP ->
    Cmat.of_real_lists
      [ [ 1.; 0.; 0.; 0. ]; [ 0.; 0.; 1.; 0. ]; [ 0.; 1.; 0.; 0. ];
        [ 0.; 0.; 0.; 1. ] ]
  | CPhase a ->
    Cmat.diag [| Cx.one; Cx.one; Cx.one; Cx.exp_i (value a) |]
  | CCX ->
    Cmat.init 8 8 (fun r c ->
        let flip j = if j >= 6 then 6 + 7 - j else j in
        if flip r = c then Cx.one else Cx.zero)
  | Custom c -> unitary_of_apps ~n_qubits:c.arity c.body

and unitary_of_apps ~n_qubits apps =
  let u = ref (Cmat.identity (1 lsl n_qubits)) in
  List.iter
    (fun g ->
      let ug = Cmat.embed ~n_qubits (unitary g.kind) ~on:g.qubits in
      u := Cmat.mul ug !u)
    apps;
  !u

let pp_kind ppf k = Format.pp_print_string ppf (mining_label k)

let pp_app ppf g =
  Format.fprintf ppf "%a %s" pp_kind g.kind
    (String.concat "," (List.map string_of_int g.qubits))

let app_to_string g = Format.asprintf "%a" pp_app g
