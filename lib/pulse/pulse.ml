module Cmat = Paqoc_linalg.Cmat
module Expm = Paqoc_linalg.Expm

type t = { dt : float; amplitudes : float array array }

let make ~dt ~slices ~n_controls =
  if dt <= 0.0 || slices <= 0 || n_controls < 0 then
    invalid_arg "Pulse.make: non-positive size";
  { dt; amplitudes = Array.init slices (fun _ -> Array.make n_controls 0.0) }

let slices p = Array.length p.amplitudes

let n_controls p =
  if slices p = 0 then 0 else Array.length p.amplitudes.(0)

let duration p = float_of_int (slices p) *. p.dt

let clamp h p =
  let clip k u =
    let b = h.Hamiltonian.controls.(k).Hamiltonian.bound in
    Float.max (-.b) (Float.min b u)
  in
  { p with amplitudes = Array.map (Array.mapi clip) p.amplitudes }

(* GRAPE's forward pass on one workspace: assemble each slice, take its
   exponential and multiply it in on the left, swapping the running
   product with its scratch instead of allocating *)
let propagator h p =
  let dim = h.Hamiltonian.dim in
  let nz =
    Array.map (fun c -> Cmat.nonzeros c.Hamiltonian.op) h.Hamiltonian.controls
  in
  let hmat = Cmat.create dim dim and slice = Cmat.create dim dim in
  let ew = Expm.Workspace.create dim in
  let u = ref (Cmat.identity dim) and next = ref (Cmat.create dim dim) in
  Array.iter
    (fun amps ->
      Hamiltonian.at_into h ~nz amps ~dst:hmat;
      Expm.expm_i_h_into ew ~dt:p.dt hmat ~dst:slice;
      Cmat.mul_into ~dst:!next slice !u;
      let t = !u in
      u := !next;
      next := t)
    p.amplitudes;
  !u

let resample p ~slices:m =
  let n = slices p in
  if m = n then { p with amplitudes = Array.map Array.copy p.amplitudes }
  else begin
    if m <= 0 then invalid_arg "Pulse.resample: non-positive slice count";
    let nc = n_controls p in
    let amplitudes =
      Array.init m (fun j ->
          (* sample the envelope at the centre of slice j *)
          let pos = (float_of_int j +. 0.5) /. float_of_int m *. float_of_int n -. 0.5 in
          let lo = int_of_float (floor pos) in
          let frac = pos -. float_of_int lo in
          let lo = max 0 (min (n - 1) lo) in
          let hi = max 0 (min (n - 1) (lo + 1)) in
          Array.init nc (fun k ->
              ((1.0 -. frac) *. p.amplitudes.(lo).(k))
              +. (frac *. p.amplitudes.(hi).(k))))
    in
    { p with amplitudes }
  end

let max_amplitude p =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc u -> Float.max acc (abs_float u)) acc row)
    0.0 p.amplitudes

let to_csv h p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t_start_dt";
  Array.iter
    (fun c -> Buffer.add_string buf ("," ^ c.Hamiltonian.label))
    h.Hamiltonian.controls;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun j amps ->
      Buffer.add_string buf (Printf.sprintf "%.3f" (float_of_int j *. p.dt));
      Array.iter (fun u -> Buffer.add_string buf (Printf.sprintf ",%.6f" u)) amps;
      Buffer.add_char buf '\n')
    p.amplitudes;
  Buffer.contents buf

let pp ppf p =
  Format.fprintf ppf "pulse: %d slices x %d controls, duration %.1f dt"
    (slices p) (n_controls p) (duration p)
