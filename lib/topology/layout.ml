type t = { l2p : int array; p2l : int array }

let of_array l2p ~n_physical =
  let nl = Array.length l2p in
  if nl > n_physical then invalid_arg "Layout: more logical than physical";
  let p2l = Array.make n_physical (-1) in
  Array.iteri
    (fun l p ->
      if p < 0 || p >= n_physical then
        invalid_arg "Layout: physical qubit out of range";
      if p2l.(p) <> -1 then invalid_arg "Layout: duplicate assignment";
      p2l.(p) <- l)
    l2p;
  { l2p = Array.copy l2p; p2l }

let trivial ~n_logical ~n_physical =
  of_array (Array.init n_logical Fun.id) ~n_physical

let copy t = { l2p = Array.copy t.l2p; p2l = Array.copy t.p2l }
let n_logical t = Array.length t.l2p
let n_physical t = Array.length t.p2l
let phys t l = t.l2p.(l)
let log t p = t.p2l.(p)

let swap_physical t a b =
  let la = t.p2l.(a) and lb = t.p2l.(b) in
  t.p2l.(a) <- lb;
  t.p2l.(b) <- la;
  if la <> -1 then t.l2p.(la) <- b;
  if lb <> -1 then t.l2p.(lb) <- a
