type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmat.create: negative dimension";
  { rows; cols; re = Array.make (rows * cols) 0.0;
    im = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let idx m r c = (r * m.cols) + c

let get m r c : Cx.t =
  let k = idx m r c in
  { Complex.re = m.re.(k); im = m.im.(k) }

let set m r c (z : Cx.t) =
  let k = idx m r c in
  m.re.(k) <- z.Complex.re;
  m.im.(k) <- z.Complex.im

let get_re m r c = m.re.(idx m r c)
let get_im m r c = m.im.(idx m r c)

let set_re_im m r c re im =
  let k = idx m r c in
  m.re.(k) <- re;
  m.im.(k) <- im

let init rows cols f =
  let m = create rows cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      set m r c (f r c)
    done
  done;
  m

let identity n =
  let m = create n n in
  for k = 0 to n - 1 do
    m.re.(idx m k k) <- 1.0
  done;
  m

let of_lists rows_l =
  match rows_l with
  | [] -> create 0 0
  | first :: _ ->
    let nr = List.length rows_l and nc = List.length first in
    let m = create nr nc in
    List.iteri
      (fun r row ->
        if List.length row <> nc then invalid_arg "Cmat.of_lists: ragged rows";
        List.iteri (fun c z -> set m r c z) row)
      rows_l;
    m

let of_real_lists rows_l =
  of_lists (List.map (List.map Cx.of_float) rows_l)

let diag entries =
  let n = Array.length entries in
  let m = create n n in
  Array.iteri (fun k z -> set m k k z) entries;
  m

let copy m =
  { m with re = Array.copy m.re; im = Array.copy m.im }

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmat.add: dimension mismatch";
  { a with
    re = Array.map2 ( +. ) a.re b.re;
    im = Array.map2 ( +. ) a.im b.im
  }

let matvec m ~re ~im =
  if m.cols <> Array.length re || m.cols <> Array.length im then
    invalid_arg "Cmat.matvec: dimension mismatch";
  let out_re = Array.make m.rows 0.0 and out_im = Array.make m.rows 0.0 in
  for r = 0 to m.rows - 1 do
    let base = r * m.cols in
    let acc_re = ref 0.0 and acc_im = ref 0.0 in
    for c = 0 to m.cols - 1 do
      let xr = m.re.(base + c) and xi = m.im.(base + c) in
      let yr = re.(c) and yi = im.(c) in
      acc_re := !acc_re +. (xr *. yr) -. (xi *. yi);
      acc_im := !acc_im +. (xr *. yi) +. (xi *. yr)
    done;
    out_re.(r) <- !acc_re;
    out_im.(r) <- !acc_im
  done;
  (out_re, out_im)

let transpose m =
  init m.cols m.rows (fun r c -> get m c r)

let kron a b =
  let out = create (a.rows * b.rows) (a.cols * b.cols) in
  for ar = 0 to a.rows - 1 do
    for ac = 0 to a.cols - 1 do
      let xr = get_re a ar ac and xi = get_im a ar ac in
      if xr <> 0.0 || xi <> 0.0 then
        for br = 0 to b.rows - 1 do
          for bc = 0 to b.cols - 1 do
            let yr = get_re b br bc and yi = get_im b br bc in
            set_re_im out
              ((ar * b.rows) + br)
              ((ac * b.cols) + bc)
              ((xr *. yr) -. (xi *. yi))
              ((xr *. yi) +. (xi *. yr))
          done
        done
    done
  done;
  out

let trace m =
  if m.rows <> m.cols then invalid_arg "Cmat.trace: non-square";
  let acc_re = ref 0.0 and acc_im = ref 0.0 in
  for k = 0 to m.rows - 1 do
    acc_re := !acc_re +. get_re m k k;
    acc_im := !acc_im +. get_im m k k
  done;
  Cx.make !acc_re !acc_im

(* one square root, of the largest squared magnitude: [sqrt] is monotone
   and correctly rounded, so this is the largest per-entry [sqrt] *)
let max_abs m =
  let acc = ref 0.0 in
  for k = 0 to Array.length m.re - 1 do
    let v = (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k)) in
    if v > !acc then acc := v
  done;
  sqrt !acc

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmat.max_abs_diff: dimension mismatch";
  let acc = ref 0.0 in
  for k = 0 to Array.length a.re - 1 do
    let dr = a.re.(k) -. b.re.(k) and di = a.im.(k) -. b.im.(k) in
    let v = sqrt ((dr *. dr) +. (di *. di)) in
    if v > !acc then acc := v
  done;
  !acc

let equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol

(* Qubit-space helpers. Basis-index convention: qubit 0 is the most
   significant bit of the index, so |q0 q1 ... q_{n-1}> has index
   sum_k q_k * 2^{n-1-k}. *)

let embed ~n_qubits op ~on =
  let k = List.length on in
  let dk = 1 lsl k and dn = 1 lsl n_qubits in
  if op.rows <> dk || op.cols <> dk then
    invalid_arg "Cmat.embed: operator size does not match qubit list";
  List.iter
    (fun q ->
      if q < 0 || q >= n_qubits then invalid_arg "Cmat.embed: qubit out of range")
    on;
  let on = Array.of_list on in
  let sorted = Array.copy on in
  Array.sort compare sorted;
  for i = 0 to k - 2 do
    if sorted.(i) = sorted.(i + 1) then
      invalid_arg "Cmat.embed: duplicate qubit"
  done;
  (* bit position (from the left / MSB) of qubit q in an n-qubit index *)
  let bitpos q = n_qubits - 1 - q in
  let env_qubits =
    List.filter (fun q -> not (Array.exists (( = ) q) on))
      (List.init n_qubits Fun.id)
  in
  let env_qubits = Array.of_list env_qubits in
  let n_env = Array.length env_qubits in
  let out = create dn dn in
  (* For every environment configuration and every pair of sub-indices,
     scatter op entries into the full matrix. *)
  for env = 0 to (1 lsl n_env) - 1 do
    let env_bits = ref 0 in
    for e = 0 to n_env - 1 do
      if (env lsr (n_env - 1 - e)) land 1 = 1 then
        env_bits := !env_bits lor (1 lsl bitpos env_qubits.(e))
    done;
    for i_sub = 0 to dk - 1 do
      let row = ref !env_bits in
      for b = 0 to k - 1 do
        if (i_sub lsr (k - 1 - b)) land 1 = 1 then
          row := !row lor (1 lsl bitpos on.(b))
      done;
      for j_sub = 0 to dk - 1 do
        let xr = get_re op i_sub j_sub and xi = get_im op i_sub j_sub in
        if xr <> 0.0 || xi <> 0.0 then begin
          let col = ref !env_bits in
          for b = 0 to k - 1 do
            if (j_sub lsr (k - 1 - b)) land 1 = 1 then
              col := !col lor (1 lsl bitpos on.(b))
          done;
          set_re_im out !row !col xr xi
        end
      done
    done
  done;
  out

let permute_qubits m perm =
  let d = m.rows in
  if d <> m.cols then invalid_arg "Cmat.permute_qubits: non-square";
  let n =
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
    log2 0 d
  in
  if 1 lsl n <> d then invalid_arg "Cmat.permute_qubits: not a qubit operator";
  if Array.length perm <> n then
    invalid_arg "Cmat.permute_qubits: permutation size mismatch";
  let bitpos q = n - 1 - q in
  (* index mapping: bit q of the new index comes from bit perm.(q) of the
     old index *)
  let remap i =
    let j = ref 0 in
    for q = 0 to n - 1 do
      if (i lsr bitpos perm.(q)) land 1 = 1 then
        j := !j lor (1 lsl bitpos q)
    done;
    !j
  in
  let out = create d d in
  for r = 0 to d - 1 do
    let r' = remap r in
    for c = 0 to d - 1 do
      let c' = remap c in
      set_re_im out r' c' (get_re m r c) (get_im m r c)
    done
  done;
  out

(* ------------------------------------------------------------------ *)
(* In-place kernels                                                    *)
(*                                                                     *)
(* Each operation below has this one implementation: the allocating    *)
(* forms after it run these kernels into a fresh matrix, and the dense *)
(* loops test/reference_linalg.ml keeps pin them at 0 ulp. Element-    *)
(* wise kernels tolerate any aliasing between [dst] and their inputs;  *)
(* the product/adjoint/solve kernels reject aliasing (checked on the   *)
(* underlying arrays, so sharing through record copies is caught).     *)

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch")

let check_no_alias name dst m =
  (* zero-length arrays are a shared atom, not real aliasing *)
  if Array.length dst.re > 0 && (dst.re == m.re || dst.im == m.im) then
    invalid_arg (name ^ ": dst must not alias an input")

let blit ~src ~dst =
  check_same_dims "Cmat.blit" src dst;
  Array.blit src.re 0 dst.re 0 (Array.length src.re);
  Array.blit src.im 0 dst.im 0 (Array.length src.im)

let set_zero m =
  Array.fill m.re 0 (Array.length m.re) 0.0;
  Array.fill m.im 0 (Array.length m.im) 0.0

let set_identity m =
  if m.rows <> m.cols then invalid_arg "Cmat.set_identity: non-square";
  set_zero m;
  for k = 0 to m.rows - 1 do
    m.re.(idx m k k) <- 1.0
  done

let scale_into ~dst (z : Cx.t) m =
  check_same_dims "Cmat.scale_into" dst m;
  let zr = z.Complex.re and zi = z.Complex.im in
  let n = Array.length m.re in
  let dr = dst.re and di = dst.im in
  let mr = m.re and mi = m.im in
  for k = 0 to n - 1 do
    let xr = mr.(k) and xi = mi.(k) in
    dr.(k) <- (zr *. xr) -. (zi *. xi);
    di.(k) <- (zr *. xi) +. (zi *. xr)
  done

let scale_re_into ~dst s m =
  check_same_dims "Cmat.scale_re_into" dst m;
  let n = Array.length m.re in
  let dr = dst.re and di = dst.im in
  let mr = m.re and mi = m.im in
  for k = 0 to n - 1 do
    dr.(k) <- s *. mr.(k);
    di.(k) <- s *. mi.(k)
  done

(* dst += s * m and dst2 += s2 * m in one pass. Each destination rounds
   identically to [add dst (scale_re s m)]: the product is a
   correctly-rounded double either way, then added. *)
let axpy2_re_into ~dst s ~dst2 s2 m =
  check_same_dims "Cmat.axpy2_re_into" dst m;
  check_same_dims "Cmat.axpy2_re_into" dst2 m;
  check_no_alias "Cmat.axpy2_re_into" dst m;
  check_no_alias "Cmat.axpy2_re_into" dst2 m;
  check_no_alias "Cmat.axpy2_re_into" dst dst2;
  let n = Array.length m.re in
  let dr = dst.re and di = dst.im and er = dst2.re and ei = dst2.im in
  let mr = m.re and mi = m.im in
  for k = 0 to n - 1 do
    let xr = mr.(k) and xi = mi.(k) in
    dr.(k) <- dr.(k) +. (s *. xr);
    di.(k) <- di.(k) +. (s *. xi);
    er.(k) <- er.(k) +. (s2 *. xr);
    ei.(k) <- ei.(k) +. (s2 *. xi)
  done

let mul_into ~dst a b =
  if a.cols <> b.rows then invalid_arg "Cmat.mul_into: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Cmat.mul_into: dst dimension mismatch";
  check_no_alias "Cmat.mul_into" dst a;
  check_no_alias "Cmat.mul_into" dst b;
  set_zero dst;
  let ar = a.re and ai = a.im and br = b.re and bi = b.im in
  let n = a.cols and bc = b.cols in
  for r = 0 to a.rows - 1 do
    let abase = r * n and obase = r * bc in
    for k = 0 to n - 1 do
      let xr = ar.(abase + k) and xi = ai.(abase + k) in
      if xr <> 0.0 || xi <> 0.0 then begin
        let bbase = k * bc in
        for c = 0 to bc - 1 do
          let yr = br.(bbase + c) and yi = bi.(bbase + c) in
          dst.re.(obase + c) <- dst.re.(obase + c) +. (xr *. yr) -. (xi *. yi);
          dst.im.(obase + c) <- dst.im.(obase + c) +. (xr *. yi) +. (xi *. yr)
        done
      end
    done
  done

let mul_adjoint_left_into ~dst a b =
  if a.rows <> b.rows then invalid_arg "Cmat.mul_adjoint_left_into: mismatch";
  if dst.rows <> a.cols || dst.cols <> b.cols then
    invalid_arg "Cmat.mul_adjoint_left_into: dst dimension mismatch";
  check_no_alias "Cmat.mul_adjoint_left_into" dst a;
  check_no_alias "Cmat.mul_adjoint_left_into" dst b;
  set_zero dst;
  let ar = a.re and ai = a.im and br = b.re and bi = b.im in
  let bc = b.cols and ac = a.cols in
  for k = 0 to a.rows - 1 do
    let abase = k * ac and bbase = k * bc in
    for r = 0 to ac - 1 do
      (* conj of a[k][r] *)
      let xr = ar.(abase + r) and xi = -.ai.(abase + r) in
      if xr <> 0.0 || xi <> 0.0 then begin
        let obase = r * bc in
        for c = 0 to bc - 1 do
          let yr = br.(bbase + c) and yi = bi.(bbase + c) in
          dst.re.(obase + c) <- dst.re.(obase + c) +. (xr *. yr) -. (xi *. yi);
          dst.im.(obase + c) <- dst.im.(obase + c) +. (xr *. yi) +. (xi *. yr)
        done
      end
    done
  done

let adjoint_into ~dst m =
  if dst.rows <> m.cols || dst.cols <> m.rows then
    invalid_arg "Cmat.adjoint_into: dst dimension mismatch";
  check_no_alias "Cmat.adjoint_into" dst m;
  for r = 0 to dst.rows - 1 do
    for c = 0 to dst.cols - 1 do
      set_re_im dst r c (get_re m c r) (-.get_im m c r)
    done
  done

(* In-place Gaussian elimination with partial pivoting: [scratch]
   receives (and destroys) a copy of [a], [dst] the solution. The
   complex division below is the Smith-style algorithm of [Complex.div]
   transcribed to split floats, so no element is boxed. *)
let solve_into ~scratch a b ~dst =
  if a.rows <> a.cols then invalid_arg "Cmat.solve_into: non-square";
  if a.rows <> b.rows then invalid_arg "Cmat.solve_into: dimension mismatch";
  check_same_dims "Cmat.solve_into: scratch" scratch a;
  check_same_dims "Cmat.solve_into: dst" dst b;
  check_no_alias "Cmat.solve_into (scratch)" scratch a;
  check_no_alias "Cmat.solve_into (scratch)" scratch b;
  check_no_alias "Cmat.solve_into (scratch vs dst)" scratch dst;
  check_no_alias "Cmat.solve_into" dst a;
  blit ~src:a ~dst:scratch;
  if not (dst.re == b.re) then blit ~src:b ~dst;
  let n = a.rows and nc = b.cols in
  let mr = scratch.re and mi = scratch.im in
  let xr = dst.re and xi = dst.im in
  for col = 0 to n - 1 do
    (* partial pivoting *)
    let piv = ref col and piv_mag = ref 0.0 in
    for r = col to n - 1 do
      let vr = mr.((r * n) + col) and vi = mi.((r * n) + col) in
      let mag = (vr *. vr) +. (vi *. vi) in
      if mag > !piv_mag then begin
        piv := r;
        piv_mag := mag
      end
    done;
    if !piv_mag < 1e-300 then failwith "Cmat.solve_into: singular matrix";
    if !piv <> col then begin
      let pbase = !piv * n and cbase = col * n in
      for c = 0 to n - 1 do
        let tr = mr.(cbase + c) and ti = mi.(cbase + c) in
        mr.(cbase + c) <- mr.(pbase + c);
        mi.(cbase + c) <- mi.(pbase + c);
        mr.(pbase + c) <- tr;
        mi.(pbase + c) <- ti
      done;
      let pbase = !piv * nc and cbase = col * nc in
      for c = 0 to nc - 1 do
        let tr = xr.(cbase + c) and ti = xi.(cbase + c) in
        xr.(cbase + c) <- xr.(pbase + c);
        xi.(cbase + c) <- xi.(pbase + c);
        xr.(pbase + c) <- tr;
        xi.(pbase + c) <- ti
      done
    end;
    let dr = mr.((col * n) + col) and di = mi.((col * n) + col) in
    for r = col + 1 to n - 1 do
      (* f = m(r,col) / d *)
      let er = mr.((r * n) + col) and ei = mi.((r * n) + col) in
      let fr, fi =
        if abs_float dr >= abs_float di then begin
          let q = di /. dr in
          let dd = dr +. (q *. di) in
          ((er +. (q *. ei)) /. dd, (ei -. (q *. er)) /. dd)
        end
        else begin
          let q = dr /. di in
          let dd = di +. (q *. dr) in
          (((q *. er) +. ei) /. dd, ((q *. ei) -. er) /. dd)
        end
      in
      if not (fr = 0.0 && fi = 0.0) then begin
        mr.((r * n) + col) <- 0.0;
        mi.((r * n) + col) <- 0.0;
        for c = col + 1 to n - 1 do
          (* m(r,c) <- m(r,c) - f * m(col,c) *)
          let ar = mr.((col * n) + c) and ai = mi.((col * n) + c) in
          let tr = (fr *. ar) -. (fi *. ai) in
          let ti = (fr *. ai) +. (fi *. ar) in
          mr.((r * n) + c) <- mr.((r * n) + c) -. tr;
          mi.((r * n) + c) <- mi.((r * n) + c) -. ti
        done;
        for c = 0 to nc - 1 do
          let ar = xr.((col * nc) + c) and ai = xi.((col * nc) + c) in
          let tr = (fr *. ar) -. (fi *. ai) in
          let ti = (fr *. ai) +. (fi *. ar) in
          xr.((r * nc) + c) <- xr.((r * nc) + c) -. tr;
          xi.((r * nc) + c) <- xi.((r * nc) + c) -. ti
        done
      end
    done
  done;
  (* back substitution *)
  for r = n - 1 downto 0 do
    let dr = mr.((r * n) + r) and di = mi.((r * n) + r) in
    for c = 0 to nc - 1 do
      let acc_r = ref xr.((r * nc) + c) and acc_i = ref xi.((r * nc) + c) in
      for k = r + 1 to n - 1 do
        let ar = mr.((r * n) + k) and ai = mi.((r * n) + k) in
        let br = xr.((k * nc) + c) and bi = xi.((k * nc) + c) in
        let tr = (ar *. br) -. (ai *. bi) in
        let ti = (ar *. bi) +. (ai *. br) in
        acc_r := !acc_r -. tr;
        acc_i := !acc_i -. ti
      done;
      let er = !acc_r and ei = !acc_i in
      let vr, vi =
        if abs_float dr >= abs_float di then begin
          let q = di /. dr in
          let dd = dr +. (q *. di) in
          ((er +. (q *. ei)) /. dd, (ei -. (q *. er)) /. dd)
        end
        else begin
          let q = dr /. di in
          let dd = di +. (q *. dr) in
          (((q *. er) +. ei) /. dd, ((q *. ei) -. er) /. dd)
        end
      in
      xr.((r * nc) + c) <- vr;
      xi.((r * nc) + c) <- vi
    done
  done

(* ------------------------------------------------------------------ *)
(* Allocating algebra: each kernel run into a fresh matrix             *)

let scale z m =
  let dst = create m.rows m.cols in
  scale_into ~dst z m;
  dst

let scale_re s m =
  let dst = create m.rows m.cols in
  scale_re_into ~dst s m;
  dst

let mul a b =
  let dst = create a.rows b.cols in
  mul_into ~dst a b;
  dst

let mul_adjoint_left a b =
  let dst = create a.cols b.cols in
  mul_adjoint_left_into ~dst a b;
  dst

let adjoint m =
  let dst = create m.cols m.rows in
  adjoint_into ~dst m;
  dst

let is_unitary ?(tol = 1e-9) m =
  m.rows = m.cols && equal ~tol (mul_adjoint_left m m) (identity m.rows)

let equal_up_to_phase ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  (* Find the entry of b with the largest magnitude and read the relative
     phase off it; then compare a against phase-aligned b. *)
  let best = ref 0 and best_mag = ref (-1.0) in
  Array.iteri
    (fun k br ->
      let mag = (br *. br) +. (b.im.(k) *. b.im.(k)) in
      if mag > !best_mag then begin
        best_mag := mag;
        best := k
      end)
    b.re;
  if !best_mag <= tol *. tol then max_abs a <= tol
  else
    let zb = Cx.make b.re.(!best) b.im.(!best) in
    let za = Cx.make a.re.(!best) a.im.(!best) in
    let phase = Cx.div za zb in
    let mag = Cx.abs phase in
    if abs_float (mag -. 1.0) > 1e-6 +. tol then false
    else
      let phase = Cx.scale (1.0 /. mag) phase in
      max_abs_diff a (scale phase b) <= tol

(* ------------------------------------------------------------------ *)
(* Zero-pattern kernels                                                *)
(*                                                                     *)
(* A pattern is a matrix's nonzero positions, row by row: row r's      *)
(* columns are [col.(row_start.(r)) .. col.(row_start.(r + 1) - 1)],   *)
(* ascending. The kernels below visit only those positions and still  *)
(* round like the dense loops: each accumulator starts at +0.0, a      *)
(* round-to-nearest sum that starts at +0.0 never becomes -0.0, and    *)
(* adding or subtracting x * 0 (+-0.0 for finite x) leaves such a sum  *)
(* unchanged — every skipped term is one that could not move a bit.    *)

type pattern = {
  p_rows : int;
  p_cols : int;
  row_start : int array;
  col : int array;  (* room for every entry: re-recordable in place *)
}

let check_pattern name p m =
  if p.p_rows <> m.rows || p.p_cols <> m.cols then
    invalid_arg (name ^ ": pattern shape mismatch")

let nonzeros_into p m =
  check_pattern "Cmat.nonzeros_into" p m;
  let count = ref 0 in
  for r = 0 to m.rows - 1 do
    p.row_start.(r) <- !count;
    let base = r * m.cols in
    for c = 0 to m.cols - 1 do
      if m.re.(base + c) <> 0.0 || m.im.(base + c) <> 0.0 then begin
        p.col.(!count) <- c;
        incr count
      end
    done
  done;
  p.row_start.(m.rows) <- !count

let nonzeros m =
  let p =
    { p_rows = m.rows;
      p_cols = m.cols;
      row_start = Array.make (m.rows + 1) 0;
      col = Array.make (m.rows * m.cols) 0
    }
  in
  nonzeros_into p m;
  p

(* [mul_into] over [b]'s nonzeros: for each kept [a] entry, only the
   listed columns of [b]'s matching row. Every [dst] cell still sums
   its terms in ascending inner index. *)
let mul_nz_into ~dst a b ~nz =
  if a.cols <> b.rows then invalid_arg "Cmat.mul_nz_into: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Cmat.mul_nz_into: dst dimension mismatch";
  check_pattern "Cmat.mul_nz_into" nz b;
  check_no_alias "Cmat.mul_nz_into" dst a;
  check_no_alias "Cmat.mul_nz_into" dst b;
  set_zero dst;
  let ar = a.re and ai = a.im and br = b.re and bi = b.im in
  let dr = dst.re and di = dst.im in
  let start = nz.row_start and col = nz.col in
  let n = a.cols and bc = b.cols in
  for r = 0 to a.rows - 1 do
    let abase = r * n and obase = r * bc in
    for k = 0 to n - 1 do
      let xr = ar.(abase + k) and xi = ai.(abase + k) in
      if xr <> 0.0 || xi <> 0.0 then begin
        let bbase = k * bc in
        for i = start.(k) to start.(k + 1) - 1 do
          let c = col.(i) in
          let yr = br.(bbase + c) and yi = bi.(bbase + c) in
          dr.(obase + c) <- dr.(obase + c) +. (xr *. yr) -. (xi *. yi);
          di.(obase + c) <- di.(obase + c) +. (xr *. yi) +. (xi *. yr)
        done
      end
    done
  done

(* The listed cells of [a * b], each summed exactly as [mul_into] sums
   it: from +0.0, ascending inner index, [a]'s zeros skipped. *)
let mul_entries_into ~dst a b ~at =
  if a.cols <> b.rows then
    invalid_arg "Cmat.mul_entries_into: dimension mismatch";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Cmat.mul_entries_into: dst dimension mismatch";
  check_pattern "Cmat.mul_entries_into" at dst;
  check_no_alias "Cmat.mul_entries_into" dst a;
  check_no_alias "Cmat.mul_entries_into" dst b;
  let ar = a.re and ai = a.im and br = b.re and bi = b.im in
  let dr = dst.re and di = dst.im in
  let start = at.row_start and col = at.col in
  let n = a.cols and bc = b.cols in
  for r = 0 to a.rows - 1 do
    let abase = r * n and obase = r * bc in
    for i = start.(r) to start.(r + 1) - 1 do
      let c = col.(i) in
      let acc_re = ref 0.0 and acc_im = ref 0.0 in
      for k = 0 to n - 1 do
        let xr = ar.(abase + k) and xi = ai.(abase + k) in
        if xr <> 0.0 || xi <> 0.0 then begin
          let yr = br.((k * bc) + c) and yi = bi.((k * bc) + c) in
          acc_re := !acc_re +. (xr *. yr) -. (xi *. yi);
          acc_im := !acc_im +. (xr *. yi) +. (xi *. yr)
        end
      done;
      dr.(obase + c) <- !acc_re;
      di.(obase + c) <- !acc_im
    done
  done

(* Tr(a * b) over [a]'s nonzeros, without materialising the product,
   written into a caller-owned accumulator [(re, im)] — GRAPE's
   gradient inner loop. Terms are summed in row-major order of [a], as
   the dense trace sums them. *)
let trace_prod_into acc a ~nz b =
  if a.rows <> a.cols || b.rows <> b.cols || a.rows <> b.rows then
    invalid_arg "Cmat.trace_prod_into: dimension mismatch";
  if Array.length acc < 2 then
    invalid_arg "Cmat.trace_prod_into: accumulator too short";
  check_pattern "Cmat.trace_prod_into" nz a;
  let n = a.rows in
  let ar = a.re and ai = a.im and br = b.re and bi = b.im in
  let start = nz.row_start and col = nz.col in
  let acc_re = ref 0.0 and acc_im = ref 0.0 in
  for r = 0 to n - 1 do
    let abase = r * n in
    for i = start.(r) to start.(r + 1) - 1 do
      let c = col.(i) in
      let xr = ar.(abase + c) and xi = ai.(abase + c) in
      let yr = br.((c * n) + r) and yi = bi.((c * n) + r) in
      acc_re := !acc_re +. (xr *. yr) -. (xi *. yi);
      acc_im := !acc_im +. (xr *. yi) +. (xi *. yr)
    done
  done;
  acc.(0) <- !acc_re;
  acc.(1) <- !acc_im

(* dst += s * m over [m]'s nonzeros; each kept cell rounds like
   [add dst (scale_re s m)]. A skipped cell would have added s * 0,
   which moves nothing unless the cell holds -0.0. *)
let axpy_re_into ~dst s m ~nz =
  check_same_dims "Cmat.axpy_re_into" dst m;
  check_pattern "Cmat.axpy_re_into" nz m;
  let dr = dst.re and di = dst.im in
  let mr = m.re and mi = m.im in
  let start = nz.row_start and col = nz.col in
  for r = 0 to m.rows - 1 do
    let base = r * m.cols in
    for i = start.(r) to start.(r + 1) - 1 do
      let k = base + col.(i) in
      dr.(k) <- dr.(k) +. (s *. mr.(k));
      di.(k) <- di.(k) +. (s *. mi.(k))
    done
  done

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for r = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for c = 0 to m.cols - 1 do
      if c > 0 then Format.fprintf ppf ", ";
      Cx.pp ppf (get m r c)
    done;
    Format.fprintf ppf "]";
    if r < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let to_string m = Format.asprintf "%a" pp m
