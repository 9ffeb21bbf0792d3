(* In-place kernel layer: every [*_into] kernel, the only implementation
   of its operation in the product, must be bit-for-bit identical to the
   dense loop test/reference_linalg.ml keeps — not "close", the same
   Int64 pattern in every cell. That is the contract that let the
   product's allocating forms, [Pulse.propagator] and GRAPE's hot path
   move onto the kernels without perturbing the pulse database's byte
   determinism, so the checks here compare raw float bits, never a
   tolerance. The suite also pins the runtime guarantee the workspace
   design makes: a warmed-up [Grape.evaluate] stays under a fixed
   minor-heap budget per call. *)
open Test_util
module Expm = Paqoc_linalg.Expm
module R = Reference_linalg
module Hamiltonian = Paqoc_pulse.Hamiltonian
module Grape = Paqoc_pulse.Grape

(* ------------------------------------------------------------------ *)
(* Bitwise equality                                                    *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let check_bits_mat msg expected actual =
  let rows = Cmat.rows expected and cols = Cmat.cols expected in
  check_int (msg ^ ": rows") rows (Cmat.rows actual);
  check_int (msg ^ ": cols") cols (Cmat.cols actual);
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let er = Cmat.get_re expected r c and ei = Cmat.get_im expected r c in
      let ar = Cmat.get_re actual r c and ai = Cmat.get_im actual r c in
      if bits er <> bits ar || bits ei <> bits ai then
        Alcotest.failf "%s: (%d,%d) differs: %h%+hi vs %h%+hi" msg r c er ei
          ar ai
    done
  done

let check_bits_float msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %h vs %h" msg expected actual

(* ------------------------------------------------------------------ *)
(* Seeded random matrices (with exact zeros, to drive the zero-skip     *)
(* branches of [mul] through both formulations)                         *)
(* ------------------------------------------------------------------ *)

let entry st =
  if Random.State.int st 5 = 0 then 0.0
  else Random.State.float st 2.0 -. 1.0

let rand_mat st rows cols =
  Cmat.init rows cols (fun _ _ -> Cx.make (entry st) (entry st))

(* random Hermitian matrix, for the exponential kernels *)
let rand_herm st n =
  let m = rand_mat st n n in
  let h = Cmat.create n n in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 do
      let re = 0.5 *. (Cmat.get_re m r c +. Cmat.get_re m c r)
      and im = 0.5 *. (Cmat.get_im m r c -. Cmat.get_im m c r) in
      Cmat.set_re_im h r c re im
    done
  done;
  h

let scalar st = Cx.make (entry st) (entry st)

(* one deterministic state per test so cases stay order-independent *)
let state () = Random.State.make [| 0x5eed; 0xca7 |]

let dims = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* Element-wise kernels vs the dense oracle                              *)
(* ------------------------------------------------------------------ *)

let elementwise_suite =
  [ case "blit copies bit-for-bit across dims 1-8" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let src = rand_mat st n n in
            let dst = Cmat.create n n in
            Cmat.blit ~src ~dst;
            check_bits_mat (Printf.sprintf "blit dim %d" n) src dst)
          dims);
    case "set_zero and set_identity match the constructors" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let m = rand_mat st n n in
            Cmat.set_zero m;
            check_bits_mat
              (Printf.sprintf "set_zero dim %d" n)
              (Cmat.create n n) m;
            let m = rand_mat st n n in
            Cmat.set_identity m;
            check_bits_mat
              (Printf.sprintf "set_identity dim %d" n)
              (Cmat.identity n) m)
          dims);
    case "scale_into / scale_re_into match scale / scale_re" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let m = rand_mat st n n in
            let z = scalar st and s = entry st in
            let dst = Cmat.create n n in
            Cmat.scale_into ~dst z m;
            check_bits_mat
              (Printf.sprintf "scale dim %d" n)
              (R.scale z m) dst;
            Cmat.scale_re_into ~dst s m;
            check_bits_mat
              (Printf.sprintf "scale_re dim %d" n)
              (R.scale_re s m) dst)
          dims);
    case "axpy_re_into rounds like add-of-scale" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let acc = rand_mat st n n and m = rand_mat st n n in
            let s = entry st in
            let expected = R.add acc (R.scale_re s m) in
            Cmat.axpy_re_into ~dst:acc s m ~nz:(Cmat.nonzeros m);
            check_bits_mat (Printf.sprintf "axpy dim %d" n) expected acc)
          dims);
    case "element-wise kernels accept full aliasing" (fun () ->
        let st = state () in
        let n = 4 in
        let a0 = rand_mat st n n in
        (* in-place scaling *)
        let z = scalar st in
        let m = Cmat.copy a0 in
        Cmat.scale_into ~dst:m z m;
        check_bits_mat "scale in place" (R.scale z a0) m;
        let s = entry st in
        let m = Cmat.copy a0 in
        Cmat.scale_re_into ~dst:m s m;
        check_bits_mat "scale_re in place" (R.scale_re s a0) m;
        (* axpy onto itself: dst <- dst + s*dst *)
        let m = Cmat.copy a0 in
        Cmat.axpy_re_into ~dst:m s m ~nz:(Cmat.nonzeros m);
        check_bits_mat "axpy dst==m" (R.add a0 (R.scale_re s a0)) m;
        (* blit onto itself is the identity *)
        let m = Cmat.copy a0 in
        Cmat.blit ~src:m ~dst:m;
        check_bits_mat "blit src==dst" a0 m)
  ]

(* ------------------------------------------------------------------ *)
(* Product / adjoint / solve kernels                                    *)
(* ------------------------------------------------------------------ *)

let product_suite =
  [ case "mul_into matches mul (square, dims 1-8)" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let a = rand_mat st n n and b = rand_mat st n n in
            let dst = rand_mat st n n (* stale contents must not leak *) in
            Cmat.mul_into ~dst a b;
            check_bits_mat
              (Printf.sprintf "mul dim %d" n)
              (R.mul a b) dst)
          dims);
    case "mul_into matches mul on rectangular shapes" (fun () ->
        let st = state () in
        List.iter
          (fun (m, k, n) ->
            let a = rand_mat st m k and b = rand_mat st k n in
            let dst = Cmat.create m n in
            Cmat.mul_into ~dst a b;
            check_bits_mat
              (Printf.sprintf "mul %dx%d * %dx%d" m k k n)
              (R.mul a b) dst)
          [ (1, 3, 2); (4, 2, 5); (3, 8, 1); (2, 1, 2) ]);
    case "mul_adjoint_left_into matches mul_adjoint_left" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let a = rand_mat st n n and b = rand_mat st n n in
            let dst = rand_mat st n n in
            Cmat.mul_adjoint_left_into ~dst a b;
            check_bits_mat
              (Printf.sprintf "mul_adjoint_left dim %d" n)
              (R.mul_adjoint_left a b) dst)
          dims);
    case "adjoint_into matches adjoint" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let m = rand_mat st n (9 - n) in
            let dst = Cmat.create (9 - n) n in
            Cmat.adjoint_into ~dst m;
            check_bits_mat
              (Printf.sprintf "adjoint %dx%d" n (9 - n))
              (R.adjoint m) dst;
            (* and the other dense reading: the conjugate, transposed *)
            let cj = R.conj m in
            check_bits_mat
              (Printf.sprintf "conj-transpose %dx%d" n (9 - n))
              (Cmat.init (9 - n) n (fun r c -> Cmat.get cj c r))
              dst)
          dims);
    case "trace_prod_into matches the boxed-accessor formulation" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let a = rand_mat st n n and b = rand_mat st n n in
            (* reference: identical loop and accumulation order, but
               through the public cell accessors — exactly what GRAPE's
               gradient loop computed before the kernel moved here *)
            let acc_re = ref 0.0 and acc_im = ref 0.0 in
            for r = 0 to n - 1 do
              for c = 0 to n - 1 do
                let xr = Cmat.get_re a r c and xi = Cmat.get_im a r c in
                let yr = Cmat.get_re b c r and yi = Cmat.get_im b c r in
                acc_re := !acc_re +. (xr *. yr) -. (xi *. yi);
                acc_im := !acc_im +. (xr *. yi) +. (xi *. yr)
              done
            done;
            let acc = [| nan; nan |] in
            Cmat.trace_prod_into acc a ~nz:(Cmat.nonzeros a) b;
            check_bits_float
              (Printf.sprintf "trace_prod re dim %d" n)
              !acc_re acc.(0);
            check_bits_float
              (Printf.sprintf "trace_prod im dim %d" n)
              !acc_im acc.(1);
            (* and it agrees with trace (mul a b) to rounding *)
            let tr = Cmat.trace (R.mul a b) in
            check_float ~eps:1e-12
              (Printf.sprintf "trace_prod vs trace-of-mul dim %d" n)
              (Cx.re tr) acc.(0))
          dims);
    case "solve_into matches solve, including dst == b" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            (* diagonally-dominated system so it is never near-singular *)
            let a = rand_mat st n n in
            for i = 0 to n - 1 do
              Cmat.set_re_im a i i (Cmat.get_re a i i +. 4.0)
                (Cmat.get_im a i i)
            done;
            let b = rand_mat st n 2 in
            let expected = R.solve a b in
            let scratch = Cmat.create n n in
            let dst = Cmat.create n 2 in
            Cmat.solve_into ~scratch a b ~dst;
            check_bits_mat (Printf.sprintf "solve dim %d" n) expected dst;
            (* dst aliasing b is the documented in-place form *)
            let b' = Cmat.copy b in
            Cmat.solve_into ~scratch a b' ~dst:b';
            check_bits_mat
              (Printf.sprintf "solve in-place dim %d" n)
              expected b')
          dims);
    case "solve_into leaves a untouched and reports singularity" (fun () ->
        let st = state () in
        let n = 3 in
        let a = rand_mat st n n in
        for i = 0 to n - 1 do
          Cmat.set_re_im a i i (Cmat.get_re a i i +. 4.0) (Cmat.get_im a i i)
        done;
        let a_before = Cmat.copy a in
        let scratch = Cmat.create n n and dst = Cmat.create n 1 in
        Cmat.solve_into ~scratch a (rand_mat st n 1) ~dst;
        check_bits_mat "a preserved" a_before a;
        let singular = Cmat.create n n in
        check_true "singular raises Failure"
          (try
             Cmat.solve_into ~scratch singular (rand_mat st n 1) ~dst;
             false
           with Failure _ -> true))
  ]

(* ------------------------------------------------------------------ *)
(* Exponential and Hamiltonian-assembly kernels                         *)
(* ------------------------------------------------------------------ *)

let expm_suite =
  [ case "expm_into matches expm bit-for-bit (dims 1-8)" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let m = Cmat.scale_re 0.7 (rand_mat st n n) in
            let ws = Expm.Workspace.create n in
            check_int "workspace dim" n (Expm.Workspace.dim ws);
            let dst = rand_mat st n n in
            Expm.expm_into ws m ~dst;
            check_bits_mat (Printf.sprintf "expm dim %d" n) (R.expm m)
              dst)
          dims);
    case "expm_i_h_into matches expm_i_h on Hermitian input" (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let h = rand_herm st n in
            let h_before = Cmat.copy h in
            let ws = Expm.Workspace.create n in
            let dst = Cmat.create n n in
            Expm.expm_i_h_into ws ~dt:2.0 h ~dst;
            check_bits_mat
              (Printf.sprintf "expm_i_h dim %d" n)
              (R.expm_i_h ~dt:2.0 h) dst;
            check_true
              (Printf.sprintf "propagator unitary dim %d" n)
              (Cmat.is_unitary dst);
            (* h is an input, not scratch: it must survive the call *)
            check_bits_mat "h preserved" h_before h)
          [ 2; 4; 8 ]);
    case "workspace reuse across calls stays bit-identical" (fun () ->
        let st = state () in
        let n = 4 in
        let ws = Expm.Workspace.create n in
        let dst = Cmat.create n n in
        List.iter
          (fun _ ->
            let m = Cmat.scale_re 0.5 (rand_mat st n n) in
            Expm.expm_into ws m ~dst;
            check_bits_mat "reused workspace" (R.expm m) dst)
          [ 1; 2; 3; 4; 5 ]);
    case "Hamiltonian.at_into matches at" (fun () ->
        let st = state () in
        List.iter
          (fun (nq, pairs) ->
            let h = Hamiltonian.make ~n_qubits:nq ~coupled_pairs:pairs () in
            let nc = Hamiltonian.n_controls h in
            (* include exact zeros: [at_into] must take the same
               skip-zero-amplitude path as [at] *)
            let amps = Array.init nc (fun _ -> entry st) in
            let dst = rand_mat st h.Hamiltonian.dim h.Hamiltonian.dim in
            let nz =
              Array.map
                (fun c -> Cmat.nonzeros c.Hamiltonian.op)
                h.Hamiltonian.controls
            in
            Hamiltonian.at_into h ~nz amps ~dst;
            check_bits_mat
              (Printf.sprintf "at %dq" nq)
              (R.at h amps) dst)
          [ (1, []); (2, [ (0, 1) ]); (3, [ (0, 1); (1, 2) ]) ])
  ]

(* ------------------------------------------------------------------ *)
(* Contract violations                                                  *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let contract_suite =
  [ case "dimension mismatches raise Invalid_argument" (fun () ->
        let a2 = Cmat.create 2 2
        and a3 = Cmat.create 3 3
        and r23 = Cmat.create 2 3 in
        check_true "blit"
          (raises_invalid (fun () -> Cmat.blit ~src:a2 ~dst:a3));
        check_true "scale_into"
          (raises_invalid (fun () -> Cmat.scale_into ~dst:a3 Cx.one a2));
        check_true "scale_re_into"
          (raises_invalid (fun () -> Cmat.scale_re_into ~dst:r23 2.0 a2));
        check_true "axpy_re_into"
          (raises_invalid (fun () ->
               Cmat.axpy_re_into ~dst:a2 2.0 a3 ~nz:(Cmat.nonzeros a3)));
        check_true "mul_into inner dim"
          (raises_invalid (fun () -> Cmat.mul_into ~dst:a2 r23 a2));
        check_true "mul_into dst shape"
          (raises_invalid (fun () -> Cmat.mul_into ~dst:r23 a2 a2));
        check_true "mul_adjoint_left_into"
          (raises_invalid (fun () ->
               Cmat.mul_adjoint_left_into ~dst:a2 a3 a3));
        check_true "adjoint_into"
          (raises_invalid (fun () -> Cmat.adjoint_into ~dst:a2 r23));
        check_true "set_identity non-square"
          (raises_invalid (fun () -> Cmat.set_identity r23));
        check_true "trace_prod_into non-square"
          (raises_invalid (fun () ->
               Cmat.trace_prod_into [| 0.0; 0.0 |] r23 ~nz:(Cmat.nonzeros r23)
                 r23));
        check_true "trace_prod_into size mismatch"
          (raises_invalid (fun () ->
               Cmat.trace_prod_into [| 0.0; 0.0 |] a2 ~nz:(Cmat.nonzeros a2)
                 a3));
        check_true "trace_prod_into short accumulator"
          (raises_invalid (fun () ->
               Cmat.trace_prod_into [| 0.0 |] a2 ~nz:(Cmat.nonzeros a2) a2));
        check_true "solve_into non-square"
          (raises_invalid (fun () ->
               Cmat.solve_into ~scratch:a2 r23 a2 ~dst:a2)));
    case "write-after-read kernels reject aliasing" (fun () ->
        let a = Cmat.identity 3 and b = Cmat.identity 3 in
        let scratch = Cmat.create 3 3 in
        check_true "mul_into dst==a"
          (raises_invalid (fun () -> Cmat.mul_into ~dst:a a b));
        check_true "mul_into dst==b"
          (raises_invalid (fun () -> Cmat.mul_into ~dst:b a b));
        check_true "mul_adjoint_left_into dst==b"
          (raises_invalid (fun () -> Cmat.mul_adjoint_left_into ~dst:b a b));
        check_true "adjoint_into dst==m"
          (raises_invalid (fun () -> Cmat.adjoint_into ~dst:a a));
        check_true "solve_into scratch==a"
          (raises_invalid (fun () -> Cmat.solve_into ~scratch:a a b ~dst:b));
        check_true "solve_into dst==a"
          (raises_invalid (fun () ->
               Cmat.solve_into ~scratch a b ~dst:a)));
    case "0x0 matrices are not falsely flagged as aliased" (fun () ->
        (* every zero-length OCaml array is the same atom, so a naive
           physical-equality alias check would reject any two empty
           matrices; the kernels must special-case it *)
        let a = Cmat.create 0 0 and b = Cmat.create 0 0 in
        let dst = Cmat.create 0 0 in
        Cmat.mul_into ~dst a b;
        Cmat.adjoint_into ~dst a;
        check_int "still 0x0" 0 (Cmat.rows dst));
    case "expm workspace rejects mismatched shapes" (fun () ->
        let ws = Expm.Workspace.create 3 in
        let m2 = Cmat.create 2 2 and m3 = Cmat.create 3 3 in
        check_true "src too small"
          (raises_invalid (fun () -> Expm.expm_into ws m2 ~dst:m3));
        check_true "dst too small"
          (raises_invalid (fun () -> Expm.expm_into ws m3 ~dst:m2));
        check_true "expm_i_h_into h mismatch"
          (raises_invalid (fun () ->
               Expm.expm_i_h_into ws ~dt:1.0 m2 ~dst:m3)))
  ]

(* ------------------------------------------------------------------ *)
(* GRAPE: allocation budget and workspace evaluation                    *)
(* ------------------------------------------------------------------ *)

(* Fixed per-evaluate minor-heap budget, in words. A warmed-up
   [evaluate] performs no matrix allocation; what remains is small
   boxing noise (the result tuple, a handful of cross-module float
   returns). Measured ~750 (1q) / ~950 (2q) / ~1400 (3q) words per
   call; the budget pins the order of magnitude so a reintroduced
   per-slice allocation (one dim x dim matrix is already ~130 words at
   dim 8, times 20 slices) trips it immediately. *)
let alloc_budget_words = 4096.0

let grape_problem nq pairs =
  let h = Hamiltonian.make ~n_qubits:nq ~coupled_pairs:pairs () in
  let nc = Hamiltonian.n_controls h in
  let n_slices = 20 in
  let x =
    Array.init n_slices (fun i ->
        Array.init nc (fun k -> 0.01 *. float_of_int ((i + k) mod 7)))
  in
  (h, n_slices, x)

let grape_suite =
  [ case "warmed-up evaluate stays under the minor-heap budget" (fun () ->
        List.iter
          (fun (name, nq, pairs) ->
            let h, n_slices, x = grape_problem nq pairs in
            let ws = Grape.Workspace.create h ~n_slices in
            let target = Cmat.identity h.Hamiltonian.dim in
            for _ = 1 to 3 do
              ignore (Grape.evaluate ~ws h target ~dt:2.0 ~n_slices x)
            done;
            let before = Gc.minor_words () in
            let reps = 20 in
            for _ = 1 to reps do
              ignore (Grape.evaluate ~ws h target ~dt:2.0 ~n_slices x)
            done;
            let per_call =
              (Gc.minor_words () -. before) /. float_of_int reps
            in
            if per_call > alloc_budget_words then
              Alcotest.failf
                "%s: %.0f minor words per evaluate exceeds the %.0f-word \
                 budget — a hot-path allocation crept back in"
                name per_call alloc_budget_words)
          [ ("1q", 1, []); ("2q", 2, [ (0, 1) ]); ("3q", 3, [ (0, 1); (1, 2) ]) ]);
    case "workspace evaluate is bit-identical to the one-shot form"
      (fun () ->
        let h, n_slices, x = grape_problem 2 [ (0, 1) ] in
        let ws = Grape.Workspace.create h ~n_slices in
        let target =
          Paqoc_circuit.Gate.unitary Paqoc_circuit.Gate.CX
        in
        let f1 = Grape.evaluate ~ws h target ~dt:2.0 ~n_slices x in
        let g1 = Array.map Array.copy (Grape.Workspace.grad ws) in
        let f2 = Grape.evaluate h target ~dt:2.0 ~n_slices x in
        check_bits_float "fidelity" f1 f2;
        (* and re-running on the same workspace does not drift *)
        let f3 = Grape.evaluate ~ws h target ~dt:2.0 ~n_slices x in
        check_bits_float "fidelity (reused ws)" f1 f3;
        Array.iteri
          (fun j row ->
            Array.iteri
              (fun k g ->
                check_bits_float
                  (Printf.sprintf "grad (%d,%d) (reused ws)" j k)
                  g (Grape.Workspace.grad ws).(j).(k))
              row)
          g1);
    case "evaluate rejects mismatched workspace and inputs" (fun () ->
        let h, n_slices, x = grape_problem 2 [ (0, 1) ] in
        let target = Cmat.identity h.Hamiltonian.dim in
        let ws_wrong = Grape.Workspace.create h ~n_slices:(n_slices + 1) in
        check_true "slice-count mismatch"
          (raises_invalid (fun () ->
               ignore
                 (Grape.evaluate ~ws:ws_wrong h target ~dt:2.0 ~n_slices x)));
        check_true "target dim mismatch"
          (raises_invalid (fun () ->
               ignore (Grape.evaluate h (Cmat.identity 2) ~dt:2.0 ~n_slices x))))
  ]

(* ------------------------------------------------------------------ *)
(* Zero-pattern kernels: signed zeros, zero rows, dense oracles         *)
(* ------------------------------------------------------------------ *)

(* +0.0, -0.0 or a random finite value: the pattern kernels skip both
   zeros, so both signs must meet the dense forms' arithmetic *)
let signed_entry st =
  match Random.State.int st 6 with
  | 0 -> 0.0
  | 1 -> -0.0
  | _ -> Random.State.float st 2.0 -. 1.0

(* about a quarter of the rows all zero (of either sign), the rest
   mixed *)
let sparse_mat st rows cols =
  let zero_row = Array.init rows (fun _ -> Random.State.int st 4 = 0) in
  Cmat.init rows cols (fun r _ ->
      if zero_row.(r) then
        Cx.make
          (if Random.State.bool st then 0.0 else -0.0)
          (if Random.State.bool st then 0.0 else -0.0)
      else Cx.make (signed_entry st) (signed_entry st))

let pattern_suite =
  [ case "zero-pattern kernels match mul and the dense trace at 0 ulp"
      (fun () ->
        let st = state () in
        List.iter
          (fun n ->
            let name what = Printf.sprintf "%s dim %d" what n in
            let a = sparse_mat st n n and b = sparse_mat st n n in
            let nz_b = Cmat.nonzeros b in
            let dst = rand_mat st n n in
            Cmat.mul_nz_into ~dst a b ~nz:nz_b;
            check_bits_mat (name "mul_nz_into") (R.mul a b) dst;
            (* a pattern re-recorded in place serves a new matrix *)
            let b' = sparse_mat st n n in
            Cmat.nonzeros_into nz_b b';
            Cmat.mul_nz_into ~dst a b' ~nz:nz_b;
            check_bits_mat (name "mul_nz_into (re-recorded)")
              (R.mul a b') dst;
            (* only the listed entries are written, each as mul's *)
            let mask = sparse_mat st n n in
            let full = R.mul a b in
            let sentinel = rand_mat st n n in
            let dst = Cmat.copy sentinel in
            Cmat.mul_entries_into ~dst a b ~at:(Cmat.nonzeros mask);
            let expected =
              Cmat.init n n (fun r c ->
                  if Cmat.get_re mask r c <> 0.0 || Cmat.get_im mask r c <> 0.0
                  then Cmat.get full r c
                  else Cmat.get sentinel r c)
            in
            check_bits_mat (name "mul_entries_into") expected dst;
            (* the trace over a's nonzeros against the dense trace *)
            let acc = [| nan; nan |] in
            Cmat.trace_prod_into acc a ~nz:(Cmat.nonzeros a) b;
            let t_re, t_im = Reference_grape.trace_prod a b in
            check_bits_float (name "trace_prod_into re") t_re acc.(0);
            check_bits_float (name "trace_prod_into im") t_im acc.(1);
            (* axpy over m's nonzeros onto a dst without -0.0 (rand_mat
               draws none) *)
            let m = sparse_mat st n n in
            let s = Random.State.float st 2.0 -. 1.0 in
            let acc_m = rand_mat st n n in
            let expected = R.add acc_m (R.scale_re s m) in
            Cmat.axpy_re_into ~dst:acc_m s m ~nz:(Cmat.nonzeros m);
            check_bits_mat (name "axpy_re_into") expected acc_m;
            (* the fused two-destination update is dense: any zeros *)
            let p = sparse_mat st n n and q = sparse_mat st n n in
            let s2 = -.s in
            let ep = R.add p (R.scale_re s m)
            and eq = R.add q (R.scale_re s2 m) in
            Cmat.axpy2_re_into ~dst:p s ~dst2:q s2 m;
            check_bits_mat (name "axpy2_re_into dst") ep p;
            check_bits_mat (name "axpy2_re_into dst2") eq q;
            (* and the exponential whose Padé products use mul_nz_into,
               unscaled and through the squaring phase *)
            List.iter
              (fun scale ->
                let m = Cmat.scale_re scale (sparse_mat st n n) in
                let ws = Expm.Workspace.create n in
                let dst = Cmat.create n n in
                Expm.expm_into ws m ~dst;
                check_bits_mat
                  (name (Printf.sprintf "expm_into x%g" scale))
                  (R.expm m) dst)
              [ 0.1; 3.0 ])
          dims;
        (* a pattern made for another shape is refused *)
        let a2 = Cmat.create 2 2 and a3 = Cmat.create 3 3 in
        let nz3 = Cmat.nonzeros a3 in
        check_true "nonzeros_into shape"
          (raises_invalid (fun () -> Cmat.nonzeros_into nz3 a2));
        check_true "mul_nz_into pattern shape"
          (raises_invalid (fun () ->
               Cmat.mul_nz_into ~dst:(Cmat.create 2 2) a2 a2 ~nz:nz3));
        check_true "mul_entries_into pattern shape"
          (raises_invalid (fun () ->
               Cmat.mul_entries_into ~dst:(Cmat.create 2 2) a2 a2 ~at:nz3));
        check_true "trace_prod_into pattern shape"
          (raises_invalid (fun () ->
               Cmat.trace_prod_into [| 0.0; 0.0 |] a2 ~nz:nz3 a2));
        check_true "axpy_re_into pattern shape"
          (raises_invalid (fun () -> Cmat.axpy_re_into ~dst:a2 1.0 a2 ~nz:nz3));
        check_true "mul_entries_into dst==a"
          (raises_invalid (fun () ->
               Cmat.mul_entries_into ~dst:a2 a2 (Cmat.identity 2)
                 ~at:(Cmat.nonzeros a2)));
        check_true "axpy2_re_into dst==dst2"
          (raises_invalid (fun () ->
               Cmat.axpy2_re_into ~dst:a2 1.0 ~dst2:a2 1.0 (Cmat.identity 2))));
    case "evaluate matches the dense reference bit for bit" (fun () ->
        let st = state () in
        List.iter
          (fun (name, nq, pairs) ->
            let h = Hamiltonian.make ~n_qubits:nq ~coupled_pairs:pairs () in
            let dim = h.Hamiltonian.dim and nc = Hamiltonian.n_controls h in
            (* the assembly precondition: make's drift is all +0.0 *)
            for r = 0 to dim - 1 do
              for c = 0 to dim - 1 do
                if bits (Cmat.get_re h.Hamiltonian.drift r c) <> 0L
                   || bits (Cmat.get_im h.Hamiltonian.drift r c) <> 0L
                then Alcotest.failf "%s: drift (%d,%d) is not +0.0" name r c
              done
            done;
            let n_slices = 12 in
            (* exact zeros (a zero amplitude drops its control from the
               slice) among values spread over the tanh range *)
            let x =
              Array.init n_slices (fun _ ->
                  Array.init nc (fun _ ->
                      if Random.State.int st 4 = 0 then 0.0
                      else Random.State.float st 3.0 -. 1.5))
            in
            let target = R.expm_i_h ~dt:1.0 (rand_herm st dim) in
            let f_ref, g_ref =
              Reference_grape.evaluate h target ~dt:2.0 ~n_slices x
            in
            let ws = Grape.Workspace.create h ~n_slices in
            let f = Grape.evaluate ~ws h target ~dt:2.0 ~n_slices x in
            check_bits_float (name ^ ": fidelity") f_ref f;
            Array.iteri
              (fun j row ->
                Array.iteri
                  (fun k g ->
                    check_bits_float
                      (Printf.sprintf "%s: grad (%d,%d)" name j k)
                      g (Grape.Workspace.grad ws).(j).(k))
                  row)
              g_ref)
          [ ("1q", 1, []);
            ("2q coupled", 2, [ (0, 1) ]);
            ("2q uncoupled", 2, []);
            ("3q chain", 3, [ (0, 1); (1, 2) ]);
            ("3q (0,2)+(1,2)", 3, [ (0, 2); (1, 2) ])
          ]);
    case "evaluate rejects a workspace built for another Hamiltonian"
      (fun () ->
        (* same shape, different control bounds: the workspace's patterns
           and bounds belong to the Hamiltonian it was built for *)
        let h, n_slices, x = grape_problem 2 [ (0, 1) ] in
        let h' =
          Hamiltonian.make ~mu:0.01 ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] ()
        in
        let ws = Grape.Workspace.create h ~n_slices in
        let target = Cmat.identity h.Hamiltonian.dim in
        check_true "other Hamiltonian"
          (raises_invalid (fun () ->
               ignore (Grape.evaluate ~ws h' target ~dt:2.0 ~n_slices x)));
        (* a structurally equal rebuild is still another Hamiltonian *)
        let h_copy =
          Hamiltonian.make ~n_qubits:2 ~coupled_pairs:[ (0, 1) ] ()
        in
        check_true "equal but not the same"
          (raises_invalid (fun () ->
               ignore (Grape.evaluate ~ws h_copy target ~dt:2.0 ~n_slices x))))
  ]

(* ------------------------------------------------------------------ *)
(* The pulse propagator vs the dense slice fold                         *)
(* ------------------------------------------------------------------ *)

let propagator_suite =
  [ case "Pulse.propagator matches the dense slice fold bit for bit"
      (fun () ->
        let st = state () in
        let problems =
          [| (1, []);
             (2, []);
             (2, [ (0, 1) ]);
             (3, [ (0, 1); (1, 2) ]);
             (3, [ (0, 2); (1, 2) ])
          |]
        in
        for trial = 0 to 29 do
          let nq, pairs = problems.(trial mod Array.length problems) in
          let h = Hamiltonian.make ~n_qubits:nq ~coupled_pairs:pairs () in
          let slices =
            match trial with 0 -> 1 | 1 -> 40 | _ -> 1 + Random.State.int st 40
          in
          (* even trials stay within the control bounds; odd ones reach
             norms that take the exponential through its squarings *)
          let reach c =
            if trial mod 2 = 0 then c.Hamiltonian.bound else 1.5
          in
          let amplitudes =
            Array.init slices (fun _ ->
                Array.map
                  (fun c ->
                    (* exact zeros drop a control from the slice *)
                    if Random.State.int st 4 = 0 then 0.0
                    else reach c *. (Random.State.float st 2.0 -. 1.0))
                  h.Hamiltonian.controls)
          in
          let p =
            { Paqoc_pulse.Pulse.dt = 0.5 +. Random.State.float st 3.5;
              amplitudes
            }
          in
          let coupled =
            String.concat " "
              (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) pairs)
          in
          check_bits_mat
            (Printf.sprintf "trial %d: %dq [%s], %d slices" trial nq coupled
               slices)
            (R.propagator h p)
            (Paqoc_pulse.Pulse.propagator h p)
        done)
  ]

let suite =
  elementwise_suite @ product_suite @ expm_suite @ contract_suite
  @ grape_suite @ pattern_suite @ propagator_suite
