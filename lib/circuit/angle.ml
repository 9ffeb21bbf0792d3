type t = Const of float | Sym of string | Scaled of string * float

let pi = 4.0 *. atan 1.0

let const f = Const f
let sym s = Sym s

let value ?(bindings = []) = function
  | Const f -> f
  | Sym s -> (
    match List.assoc_opt s bindings with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Angle.value: unbound symbol %s" s))
  | Scaled (s, k) -> (
    match List.assoc_opt s bindings with
    | Some v -> k *. v
    | None -> failwith (Printf.sprintf "Angle.value: unbound symbol %s" s))

let is_symbolic = function
  | Const _ -> false
  | Sym _ | Scaled _ -> true

let bind bindings = function
  | Const f -> Const f
  | Sym s as a -> (
    match List.assoc_opt s bindings with
    | Some v -> Const v
    | None -> a)
  | Scaled (s, k) as a -> (
    match List.assoc_opt s bindings with
    | Some v -> Const (k *. v)
    | None -> a)

(* Decimal digits straight into the buffer: [string_of_int] goes through
   C [snprintf] and a fresh string on every call. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_nat buf n
  else if n > min_int then begin
    Buffer.add_char buf '-';
    add_nat buf (-n)
  end
  else Buffer.add_string buf (string_of_int n)

(* Render a float as a multiple of pi when it is (numerically) a small
   rational multiple; this keeps mining labels stable across circuits that
   construct the same angle through different float expressions. *)
let denominators = [ 1; 2; 3; 4; 6; 8; 12; 16 ]

let rec add_pi_label buf f frac = function
  | [] -> Printf.bprintf buf "%.9g" f
  | d :: rest ->
    let num = frac *. float_of_int d in
    let rounded = Float.round num in
    if abs_float (num -. rounded) < 1e-9 && abs_float rounded < 64.0 then begin
      let n = int_of_float rounded in
      if n = 0 then Buffer.add_char buf '0'
      else begin
        add_int buf n;
        Buffer.add_string buf "pi";
        if d <> 1 then begin
          Buffer.add_char buf '/';
          add_int buf d
        end
      end
    end
    else add_pi_label buf f frac rest

let add_label buf = function
  | Const f -> add_pi_label buf f (f /. pi) denominators
  | Sym s ->
    Buffer.add_char buf '$';
    Buffer.add_string buf s
  | Scaled (s, k) -> Printf.bprintf buf "%.9g*$%s" k s

let label a =
  let buf = Buffer.create 16 in
  add_label buf a;
  Buffer.contents buf

let equal a b =
  match (a, b) with
  | Const x, Const y -> abs_float (x -. y) < 1e-9
  | Sym s, Sym s' -> String.equal s s'
  | Scaled (s, k), Scaled (s', k') ->
    String.equal s s' && abs_float (k -. k') < 1e-9
  | (Const _ | Sym _ | Scaled _), _ -> false

let pp ppf a = Format.pp_print_string ppf (label a)
