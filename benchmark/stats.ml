let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let rank ~n p =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if not (p > 0.0 && p <= 100.0) then
    invalid_arg (Printf.sprintf "Stats.rank: percentile %g outside (0, 100]" p);
  (* the epsilon keeps p * n / 100 = 90.000000000000014 from rounding up
     to rank 91 *)
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)))

let percentile sorted p = sorted.(rank ~n:(Array.length sorted) p - 1)

let min_beyond = 10

let beyond ~n p = n - rank ~n p

let reportable ~n p = n >= 1 && beyond ~n p >= min_beyond

let ladder = [ 99.9; 99.0; 95.0; 90.0; 50.0 ]

let tail sorted =
  let n = Array.length sorted in
  List.find_opt (fun p -> reportable ~n p) ladder
  |> Option.map (fun p -> (p, percentile sorted p))

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's statistics.quantiles(data, n=4, method="exclusive") *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let geomean = function
  | [] -> nan
  | l ->
    exp
      (List.fold_left (fun acc v -> acc +. log v) 0.0 l
      /. float_of_int (List.length l))
