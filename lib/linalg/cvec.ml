type t = { re : float array; im : float array }

let create n = { re = Array.make n 0.0; im = Array.make n 0.0 }

let dim v = Array.length v.re

let get v k : Cx.t = { Complex.re = v.re.(k); im = v.im.(k) }

let set v k (z : Cx.t) =
  v.re.(k) <- z.Complex.re;
  v.im.(k) <- z.Complex.im

let init n f =
  let v = create n in
  for k = 0 to n - 1 do
    set v k (f k)
  done;
  v

let basis ~dim k =
  if k < 0 || k >= dim then invalid_arg "Cvec.basis: index out of range";
  let v = create dim in
  v.re.(k) <- 1.0;
  v

let of_list l =
  let v = create (List.length l) in
  List.iteri (fun k z -> set v k z) l;
  v

let scale (z : Cx.t) v =
  let zr = z.Complex.re and zi = z.Complex.im in
  let n = dim v in
  let out = create n in
  for k = 0 to n - 1 do
    out.re.(k) <- (zr *. v.re.(k)) -. (zi *. v.im.(k));
    out.im.(k) <- (zr *. v.im.(k)) +. (zi *. v.re.(k))
  done;
  out

let dot a b =
  if dim a <> dim b then invalid_arg "Cvec.dot: dimension mismatch";
  let acc_re = ref 0.0 and acc_im = ref 0.0 in
  for k = 0 to dim a - 1 do
    (* conj a . b *)
    let xr = a.re.(k) and xi = -.a.im.(k) in
    let yr = b.re.(k) and yi = b.im.(k) in
    acc_re := !acc_re +. (xr *. yr) -. (xi *. yi);
    acc_im := !acc_im +. (xr *. yi) +. (xi *. yr)
  done;
  Cx.make !acc_re !acc_im

let norm v =
  let acc = ref 0.0 in
  for k = 0 to dim v - 1 do
    acc := !acc +. (v.re.(k) *. v.re.(k)) +. (v.im.(k) *. v.im.(k))
  done;
  sqrt !acc

let normalize v =
  let n = norm v in
  if n < 1e-300 then failwith "Cvec.normalize: zero vector";
  scale (Cx.of_float (1.0 /. n)) v

let apply m v =
  let re, im = Cmat.matvec m ~re:v.re ~im:v.im in
  { re; im }

let kron a b =
  let na = dim a and nb = dim b in
  let out = create (na * nb) in
  for i = 0 to na - 1 do
    let xr = a.re.(i) and xi = a.im.(i) in
    for j = 0 to nb - 1 do
      let yr = b.re.(j) and yi = b.im.(j) in
      out.re.((i * nb) + j) <- (xr *. yr) -. (xi *. yi);
      out.im.((i * nb) + j) <- (xr *. yi) +. (xi *. yr)
    done
  done;
  out

let overlap2 a b = Cx.abs2 (dot a b)
