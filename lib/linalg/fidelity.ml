let trace_overlap target u =
  let d = Cmat.rows target in
  if d = 0 then 1.0
  else
    let tr = Cmat.trace (Cmat.mul_adjoint_left target u) in
    Cx.abs tr /. float_of_int d

let gate_fidelity target u =
  let f = trace_overlap target u in
  f *. f

let gate_error target u = 1.0 -. gate_fidelity target u

let avg_gate_fidelity target u =
  let d = float_of_int (Cmat.rows target) in
  let f_pro = gate_fidelity target u in
  ((d *. f_pro) +. 1.0) /. (d +. 1.0)
