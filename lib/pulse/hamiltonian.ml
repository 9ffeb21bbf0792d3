module Cx = Paqoc_linalg.Cx
module Cmat = Paqoc_linalg.Cmat
module Device = Paqoc_topology.Device

type control = { label : string; op : Cmat.t; bound : float }

type t = {
  n_qubits : int;
  dim : int;
  drift : Cmat.t;
  controls : control array;
}

(* Single-sourced through the device registry: the same two constants
   feed the registry devices' calibration records, so a device can never
   disagree with the optimizer bounds derived here. *)
let mu_max = Device.default_mu
let drive_max = Device.drive_ratio *. mu_max

let sigma_x = Cmat.of_real_lists [ [ 0.; 1. ]; [ 1.; 0. ] ]

let sigma_y =
  Cmat.of_lists [ [ Cx.zero; Cx.make 0. (-1.) ]; [ Cx.make 0. 1.; Cx.zero ] ]

let sigma_z = Cmat.of_real_lists [ [ 1.; 0. ]; [ 0.; -1. ] ]

let make ?(mu = mu_max) ?drive_bound ~n_qubits ~coupled_pairs () =
  if n_qubits <= 0 then invalid_arg "Hamiltonian.make: need qubits";
  let dim = 1 lsl n_qubits in
  let drive_bound =
    match drive_bound with
    | Some b -> b
    | None -> Device.drive_ratio *. mu
  in
  let half m = Cmat.scale_re 0.5 m in
  let drive q (pauli, tag) =
    { label = Printf.sprintf "%s%d" tag q;
      op = Cmat.embed ~n_qubits (half pauli) ~on:[ q ];
      bound = drive_bound
    }
  in
  let drives =
    List.concat_map
      (fun q -> [ drive q (sigma_x, "x"); drive q (sigma_y, "y") ])
      (List.init n_qubits Fun.id)
  in
  let exchange (a, b) =
    if a < 0 || a >= n_qubits || b < 0 || b >= n_qubits || a = b then
      invalid_arg "Hamiltonian.make: bad coupled pair";
    let xx = Cmat.kron sigma_x sigma_x and yy = Cmat.kron sigma_y sigma_y in
    { label = Printf.sprintf "xy%d_%d" a b;
      op = Cmat.embed ~n_qubits (half (Cmat.add xx yy)) ~on:[ a; b ];
      bound = mu
    }
  in
  let couplings = List.map exchange coupled_pairs in
  { n_qubits;
    dim;
    drift = Cmat.create dim dim;
    controls = Array.of_list (drives @ couplings)
  }

let n_controls h = Array.length h.controls

let at h amps =
  if Array.length amps <> n_controls h then
    invalid_arg "Hamiltonian.at: amplitude count mismatch";
  let acc = ref (Cmat.copy h.drift) in
  Array.iteri
    (fun k u ->
      if u <> 0.0 then acc := Cmat.add !acc (Cmat.scale_re u h.controls.(k).op))
    amps;
  !acc

(* In-place [at]: drift plus the amplitude-weighted controls accumulated
   directly into [dst], each control over its nonzeros [nz.(k)] only.
   Same skip on zero amplitudes and same two-step rounding per entry as
   [at]; a skipped entry would add [u * 0], which moves no drift entry
   that is not -0.0 ([make]'s drift is all +0.0), so the result is
   bit-identical. *)
let at_into h ~nz amps ~dst =
  if Array.length amps <> n_controls h then
    invalid_arg "Hamiltonian.at_into: amplitude count mismatch";
  if Array.length nz <> n_controls h then
    invalid_arg "Hamiltonian.at_into: pattern count mismatch";
  Cmat.blit ~src:h.drift ~dst;
  for k = 0 to Array.length amps - 1 do
    let u = amps.(k) in
    if u <> 0.0 then Cmat.axpy_re_into ~dst u h.controls.(k).op ~nz:nz.(k)
  done
