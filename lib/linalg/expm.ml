(* Padé(6) approximant with scaling and squaring:
     e^A ~ (q(A))^{-1} p(A)  with  p/q the diagonal Padé polynomials,
   after scaling A by 2^{-s} so that ||A|| <= 0.5, then squaring s times.
   For the <= 256x256 well-scaled matrices PAQOC produces this matches the
   eigendecomposition answer to ~1e-13. *)

let pade_coeffs =
  (* Diagonal Padé(6) coefficients c_k for p(A) = sum c_k A^k;
     q(A) = p(-A) with alternating signs. *)
  [| 1.0; 0.5; 5.0 /. 44.0; 1.0 /. 66.0; 1.0 /. 792.0; 1.0 /. 15840.0;
     1.0 /. 665280.0 |]

(* the squaring count [s >= 0] that brings [norm * 2^-s] to at most 0.5;
   the scale is [ldexp 1.0 (-s)], since [1 lsl s] wraps from s = 62 *)
let squarings norm =
  if norm <= 0.5 then 0
  else max 0 (int_of_float (ceil (log (norm /. 0.5) /. log 2.0)))

module Workspace = struct
  (* Scratch for one [expm_into]: the scaled input and its nonzero
     pattern, the running power, the two Padé accumulators, the
     elimination scratch and a ping/pong pair for the squaring phase.
     [pow]/[r] swap with their partners instead of copying, hence the
     mutable fields. All buffers are owned by the workspace — callers
     must treat a workspace as a single-threaded resource and copy
     anything they keep. *)
  type t = {
    dim : int;
    a : Cmat.t;
    nz : Cmat.pattern;
    mutable pow : Cmat.t;
    mutable pow_tmp : Cmat.t;
    p : Cmat.t;
    q : Cmat.t;
    lu : Cmat.t;
    mutable r : Cmat.t;
    mutable r_tmp : Cmat.t;
  }

  let create dim =
    if dim < 0 then invalid_arg "Expm.Workspace.create: negative dimension";
    let m () = Cmat.create dim dim in
    let a = m () in
    { dim;
      a;
      nz = Cmat.nonzeros a;
      pow = m ();
      pow_tmp = m ();
      p = m ();
      q = m ();
      lu = m ();
      r = m ();
      r_tmp = m ()
    }

  let dim ws = ws.dim
end

(* Scale [src] by 2^-s, accumulate the Padé numerator and denominator
   from its powers, solve q x = p and square s times, all on the
   workspace buffers. The six Padé products visit only the scaled
   input's nonzeros (recorded once per call), which is exact on finite
   input — see Cmat's zero-pattern kernels; test/reference_linalg.ml
   keeps the dense form this matches bit for bit. [src] may alias
   [ws.a] (the caller may have staged the input there); then a zero
   squaring count skips the x1.0 scaling. *)
let expm_into (ws : Workspace.t) src ~dst =
  if Cmat.rows src <> Cmat.cols src then
    invalid_arg "Expm.expm_into: non-square";
  if Cmat.rows src <> ws.Workspace.dim then
    invalid_arg "Expm.expm_into: workspace dimension mismatch";
  if Cmat.rows dst <> ws.Workspace.dim || Cmat.cols dst <> ws.Workspace.dim
  then invalid_arg "Expm.expm_into: dst dimension mismatch";
  let n = ws.Workspace.dim in
  if n > 0 then begin
    let open Workspace in
    let s = squarings (Cmat.max_abs src) in
    if s > 0 || src != ws.a then
      Cmat.scale_re_into ~dst:ws.a (ldexp 1.0 (-s)) src;
    Cmat.nonzeros_into ws.nz ws.a;
    Cmat.set_identity ws.pow;
    Cmat.scale_re_into ~dst:ws.p pade_coeffs.(0) ws.pow;
    Cmat.scale_re_into ~dst:ws.q pade_coeffs.(0) ws.pow;
    for k = 1 to Array.length pade_coeffs - 1 do
      Cmat.mul_nz_into ~dst:ws.pow_tmp ws.pow ws.a ~nz:ws.nz;
      let t = ws.pow in
      ws.pow <- ws.pow_tmp;
      ws.pow_tmp <- t;
      (* q(A) = p(-A): odd terms enter q negated, which rounds exactly
         as subtracting them *)
      let c = pade_coeffs.(k) in
      Cmat.axpy2_re_into ~dst:ws.p c ~dst2:ws.q
        (if k mod 2 = 0 then c else -.c)
        ws.pow
    done;
    Cmat.solve_into ~scratch:ws.lu ws.q ws.p ~dst:ws.r;
    for _ = 1 to s do
      Cmat.mul_into ~dst:ws.r_tmp ws.r ws.r;
      let t = ws.r in
      ws.r <- ws.r_tmp;
      ws.r_tmp <- t
    done;
    Cmat.blit ~src:ws.r ~dst
  end

let expm_i_h_into (ws : Workspace.t) ~dt h ~dst =
  Cmat.scale_into ~dst:ws.Workspace.a (Cx.make 0.0 (-.dt)) h;
  expm_into ws ws.Workspace.a ~dst
