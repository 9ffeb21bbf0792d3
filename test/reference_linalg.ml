(* The dense allocating linear algebra, kept as the oracle of the
   product's in-place kernels. Nothing in the product calls it. Each
   function is the loop the product ran before its kernel became the
   only implementation: the entry-wise, scaling, product, adjoint and
   solve loops of [Cmat], the Padé(6) exponential, the slice-Hamiltonian
   sum, the slice-by-slice propagator fold and Eq. 2's ESP fold. It is
   written over [Cx] and [Cmat]'s constructors and cell accessors only,
   so a fault in a kernel cannot hide in its oracle. test_kernels holds
   the kernels to these at 0 ulp on finite input, and Reference_grape
   builds the dense GRAPE evaluation from them. *)
module Cx = Paqoc_linalg.Cx
module Cmat = Paqoc_linalg.Cmat
module Hamiltonian = Paqoc_pulse.Hamiltonian
module Pulse = Paqoc_pulse.Pulse

let rows = Cmat.rows
let cols = Cmat.cols
let set m r c z = Cmat.set_re_im m r c (Cx.re z) (Cx.im z)

(* [f] on the real parts and on the imaginary parts, cell by cell *)
let map2 f a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg "Reference_linalg: dimension mismatch";
  Cmat.init (rows a) (cols a) (fun r c ->
      Cx.make
        (f (Cmat.get_re a r c) (Cmat.get_re b r c))
        (f (Cmat.get_im a r c) (Cmat.get_im b r c)))

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b

let scale (z : Cx.t) m =
  let zr = Cx.re z and zi = Cx.im z in
  Cmat.init (rows m) (cols m) (fun r c ->
      let xr = Cmat.get_re m r c and xi = Cmat.get_im m r c in
      Cx.make ((zr *. xr) -. (zi *. xi)) ((zr *. xi) +. (zi *. xr)))

let scale_re s m =
  Cmat.init (rows m) (cols m) (fun r c ->
      Cx.make (s *. Cmat.get_re m r c) (s *. Cmat.get_im m r c))

(* out(r, c) accumulates from +0.0 in ascending inner index, skipping
   the left operand's zeros *)
let mul a b =
  if cols a <> rows b then invalid_arg "Reference_linalg.mul: mismatch";
  let out = Cmat.create (rows a) (cols b) in
  for r = 0 to rows a - 1 do
    for k = 0 to cols a - 1 do
      let xr = Cmat.get_re a r k and xi = Cmat.get_im a r k in
      if xr <> 0.0 || xi <> 0.0 then
        for c = 0 to cols b - 1 do
          let yr = Cmat.get_re b k c and yi = Cmat.get_im b k c in
          Cmat.set_re_im out r c
            (Cmat.get_re out r c +. (xr *. yr) -. (xi *. yi))
            (Cmat.get_im out r c +. (xr *. yi) +. (xi *. yr))
        done
    done
  done;
  out

let mul_adjoint_left a b =
  if rows a <> rows b then
    invalid_arg "Reference_linalg.mul_adjoint_left: mismatch";
  let out = Cmat.create (cols a) (cols b) in
  for k = 0 to rows a - 1 do
    for r = 0 to cols a - 1 do
      (* conj of a(k, r) *)
      let xr = Cmat.get_re a k r and xi = -.Cmat.get_im a k r in
      if xr <> 0.0 || xi <> 0.0 then
        for c = 0 to cols b - 1 do
          let yr = Cmat.get_re b k c and yi = Cmat.get_im b k c in
          Cmat.set_re_im out r c
            (Cmat.get_re out r c +. (xr *. yr) -. (xi *. yi))
            (Cmat.get_im out r c +. (xr *. yi) +. (xi *. yr))
        done
    done
  done;
  out

let conj m =
  Cmat.init (rows m) (cols m) (fun r c ->
      Cx.make (Cmat.get_re m r c) (-.Cmat.get_im m r c))

let adjoint m = Cmat.init (cols m) (rows m) (fun r c -> Cx.conj (Cmat.get m c r))

(* Gaussian elimination with partial pivoting on boxed [Cx] values:
   [Cx.div] is the Smith-style division the split-float kernel
   transcribes *)
let solve a b =
  if rows a <> cols a then invalid_arg "Reference_linalg.solve: non-square";
  if rows a <> rows b then invalid_arg "Reference_linalg.solve: mismatch";
  let n = rows a and nc = cols b in
  let m = Cmat.copy a and x = Cmat.copy b in
  let get = Cmat.get in
  for col = 0 to n - 1 do
    let piv = ref col and piv_mag = ref 0.0 in
    for r = col to n - 1 do
      let vr = Cmat.get_re m r col and vi = Cmat.get_im m r col in
      let mag = (vr *. vr) +. (vi *. vi) in
      if mag > !piv_mag then begin
        piv := r;
        piv_mag := mag
      end
    done;
    if !piv_mag < 1e-300 then failwith "Reference_linalg.solve: singular";
    if !piv <> col then begin
      for c = 0 to n - 1 do
        let tr = get m col c in
        set m col c (get m !piv c);
        set m !piv c tr
      done;
      for c = 0 to nc - 1 do
        let tr = get x col c in
        set x col c (get x !piv c);
        set x !piv c tr
      done
    end;
    let d = get m col col in
    for r = col + 1 to n - 1 do
      let f = Cx.div (get m r col) d in
      if f <> Cx.zero then begin
        set m r col Cx.zero;
        for c = col + 1 to n - 1 do
          set m r c (Cx.sub (get m r c) (Cx.mul f (get m col c)))
        done;
        for c = 0 to nc - 1 do
          set x r c (Cx.sub (get x r c) (Cx.mul f (get x col c)))
        done
      end
    done
  done;
  (* back substitution *)
  for r = n - 1 downto 0 do
    let d = get m r r in
    for c = 0 to nc - 1 do
      let acc = ref (get x r c) in
      for k = r + 1 to n - 1 do
        acc := Cx.sub !acc (Cx.mul (get m r k) (get x k c))
      done;
      set x r c (Cx.div !acc d)
    done
  done;
  x

(* the largest entry magnitude, one square root of the largest square *)
let max_abs m =
  let acc = ref 0.0 in
  for r = 0 to rows m - 1 do
    for c = 0 to cols m - 1 do
      let xr = Cmat.get_re m r c and xi = Cmat.get_im m r c in
      let v = (xr *. xr) +. (xi *. xi) in
      if v > !acc then acc := v
    done
  done;
  sqrt !acc

let pade_coeffs =
  [| 1.0; 0.5; 5.0 /. 44.0; 1.0 /. 66.0; 1.0 /. 792.0; 1.0 /. 15840.0;
     1.0 /. 665280.0 |]

let squarings norm =
  if norm <= 0.5 then 0
  else max 0 (int_of_float (ceil (log (norm /. 0.5) /. log 2.0)))

(* Padé(6) with scaling and squaring: e^A ~ q(A)^-1 p(A) on A * 2^-s,
   then s squarings *)
let expm a =
  if rows a <> cols a then invalid_arg "Reference_linalg.expm: non-square";
  let n = rows a in
  if n = 0 then Cmat.create 0 0
  else begin
    let s = squarings (max_abs a) in
    let a_scaled = scale_re (ldexp 1.0 (-s)) a in
    let id = Cmat.identity n in
    let p = ref (scale_re pade_coeffs.(0) id) in
    let q = ref (scale_re pade_coeffs.(0) id) in
    let pow = ref id in
    for k = 1 to Array.length pade_coeffs - 1 do
      pow := mul !pow a_scaled;
      let term = scale_re pade_coeffs.(k) !pow in
      p := add !p term;
      q := if k mod 2 = 0 then add !q term else sub !q term
    done;
    let r = ref (solve !q !p) in
    for _ = 1 to s do
      r := mul !r !r
    done;
    !r
  end

let expm_i_h ~dt h = expm (scale (Cx.make 0.0 (-.dt)) h)

(* H = drift + sum_k amps.(k) * H_k over every cell, zero amplitudes
   skipped *)
let at h amps =
  let controls = h.Hamiltonian.controls in
  if Array.length amps <> Array.length controls then
    invalid_arg "Reference_linalg.at: amplitude count mismatch";
  let acc = ref (Cmat.copy h.Hamiltonian.drift) in
  Array.iteri
    (fun k u ->
      if u <> 0.0 then
        acc := add !acc (scale_re u controls.(k).Hamiltonian.op))
    amps;
  !acc

(* the time-ordered product of the slice exponentials, each slice
   multiplied in on the left *)
let propagator h (p : Pulse.t) =
  Array.fold_left
    (fun u amps -> mul (expm_i_h ~dt:p.Pulse.dt (at h amps)) u)
    (Cmat.identity h.Hamiltonian.dim)
    p.Pulse.amplitudes

(* Eq. 2: ESP = prod (1 - e_i), folded in list order *)
let esp errors = List.fold_left (fun acc e -> acc *. (1.0 -. e)) 1.0 errors
