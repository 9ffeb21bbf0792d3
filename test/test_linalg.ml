open Test_util
module Cvec = Paqoc_linalg.Cvec
module Expm = Paqoc_linalg.Expm
module Fidelity = Paqoc_linalg.Fidelity

let sqrt2 = sqrt 2.0

let h_mat =
  Cmat.of_real_lists
    [ [ 1.0 /. sqrt2; 1.0 /. sqrt2 ]; [ 1.0 /. sqrt2; -1.0 /. sqrt2 ] ]

let pauli_x = Cmat.of_real_lists [ [ 0.; 1. ]; [ 1.; 0. ] ]
let pauli_z = Cmat.of_real_lists [ [ 1.; 0. ]; [ 0.; -1. ] ]

(* ------------------------------------------------------------------ *)
(* Cx                                                                  *)
(* ------------------------------------------------------------------ *)

let cx_tests =
  [ case "i squared is -1" (fun () ->
        check_true "i*i = -1"
          (Cx.approx_equal (Cx.mul Cx.i Cx.i) (Cx.of_float (-1.0))));
    case "exp_i pi = -1" (fun () ->
        check_true "Euler"
          (Cx.approx_equal (Cx.exp_i (4.0 *. atan 1.0)) (Cx.of_float (-1.0))));
    case "polar decomposition" (fun () ->
        let z = Cx.polar 2.0 0.7 in
        check_float "abs" 2.0 (Cx.abs z);
        check_float "abs2" 4.0 (Cx.abs2 z));
    case "conj involutive" (fun () ->
        let z = Cx.make 1.5 (-2.5) in
        check_true "conj (conj z) = z"
          (Cx.approx_equal (Cx.conj (Cx.conj z)) z));
    case "div inverse of mul" (fun () ->
        let a = Cx.make 3.0 1.0 and b = Cx.make (-0.5) 2.0 in
        check_true "a*b/b = a" (Cx.approx_equal (Cx.div (Cx.mul a b) b) a))
  ]

(* ------------------------------------------------------------------ *)
(* Cmat basics                                                         *)
(* ------------------------------------------------------------------ *)

let cmat_tests =
  [ case "identity is multiplicative unit" (fun () ->
        check_mat "I*H = H" h_mat (Cmat.mul (Cmat.identity 2) h_mat);
        check_mat "H*I = H" h_mat (Cmat.mul h_mat (Cmat.identity 2)));
    case "H is self-inverse" (fun () ->
        check_mat "H*H = I" (Cmat.identity 2) (Cmat.mul h_mat h_mat));
    case "adjoint of product" (fun () ->
        let a = Cmat.of_lists [ [ Cx.make 1. 2.; Cx.make 0. 1. ];
                                [ Cx.make 3. 0.; Cx.make (-1.) 1. ] ] in
        let b = Cmat.of_lists [ [ Cx.make 0. (-2.); Cx.make 1. 1. ];
                                [ Cx.make 2. 2.; Cx.make 0.5 0. ] ] in
        check_mat "(AB)† = B†A†"
          (Cmat.adjoint (Cmat.mul a b))
          (Cmat.mul (Cmat.adjoint b) (Cmat.adjoint a)));
    case "mul_adjoint_left" (fun () ->
        let a = Cmat.of_lists [ [ Cx.make 1. 2.; Cx.make 0. 1. ];
                                [ Cx.make 3. 0.; Cx.make (-1.) 1. ] ] in
        check_mat "A† A fused"
          (Cmat.mul (Cmat.adjoint a) a)
          (Cmat.mul_adjoint_left a a));
    case "kron dimensions and values" (fun () ->
        let k = Cmat.kron pauli_x pauli_z in
        check_int "rows" 4 (Cmat.rows k);
        check_float "k[0][2]" 1.0 (Cx.re (Cmat.get k 0 2));
        check_float "k[1][3]" (-1.0) (Cx.re (Cmat.get k 1 3)));
    case "trace" (fun () ->
        check_float "tr Z = 0" 0.0 (Cx.re (Cmat.trace pauli_z));
        check_float "tr I4 = 4" 4.0 (Cx.re (Cmat.trace (Cmat.identity 4))));
    case "unitarity checks" (fun () ->
        check_true "H unitary" (Cmat.is_unitary h_mat);
        check_true "2H not unitary"
          (not (Cmat.is_unitary (Cmat.scale_re 2.0 h_mat))));
    case "equal_up_to_phase" (fun () ->
        let ph = Cx.exp_i 0.9 in
        check_true "e^{i0.9} H ~ H"
          (Cmat.equal_up_to_phase (Cmat.scale ph h_mat) h_mat);
        check_true "X !~ Z" (not (Cmat.equal_up_to_phase pauli_x pauli_z)));
    case "solve recovers rhs" (fun () ->
        let a =
          Cmat.of_lists
            [ [ Cx.make 2. 1.; Cx.make 0. 0.; Cx.make 1. 0. ];
              [ Cx.make 0. 1.; Cx.make 3. 0.; Cx.make (-1.) 2. ];
              [ Cx.make 1. 0.; Cx.make 1. 1.; Cx.make 0. (-2.) ] ]
        in
        let x =
          Cmat.of_lists
            [ [ Cx.make 1. 0. ]; [ Cx.make 0. 1. ]; [ Cx.make 2. (-1.) ] ]
        in
        let b = Cmat.mul a x in
        check_mat ~tol:1e-10 "solve(A, Ax) = x" x (Cmat.solve a b));
    case "solve rejects singular" (fun () ->
        let a = Cmat.of_real_lists [ [ 1.; 2. ]; [ 2.; 4. ] ] in
        Alcotest.check_raises "singular" (Failure "Cmat.solve: singular matrix")
          (fun () -> ignore (Cmat.solve a (Cmat.identity 2))))
  ]

(* ------------------------------------------------------------------ *)
(* embed / permute                                                     *)
(* ------------------------------------------------------------------ *)

let embed_tests =
  [ case "embed X on qubit 0 of 2" (fun () ->
        check_mat "X (x) I" (Cmat.kron pauli_x (Cmat.identity 2))
          (Cmat.embed ~n_qubits:2 pauli_x ~on:[ 0 ]));
    case "embed X on qubit 1 of 2" (fun () ->
        check_mat "I (x) X" (Cmat.kron (Cmat.identity 2) pauli_x)
          (Cmat.embed ~n_qubits:2 pauli_x ~on:[ 1 ]));
    case "embed 2q op with reversed wires = permuted" (fun () ->
        let cx = Gate.unitary Gate.CX in
        let direct = Cmat.embed ~n_qubits:2 cx ~on:[ 1; 0 ] in
        (* CX with control q1, target q0: |x,y> -> |x xor y, y>.
           check a basis action: |01> -> |11> *)
        check_float "amp" 1.0 (Cx.re (Cmat.get direct 3 1)));
    case "embed identity-position invariant" (fun () ->
        let cz = Gate.unitary Gate.CZ in
        (* CZ is symmetric: embedding on [0;1] and [1;0] must agree *)
        check_mat "CZ symmetric"
          (Cmat.embed ~n_qubits:2 cz ~on:[ 0; 1 ])
          (Cmat.embed ~n_qubits:2 cz ~on:[ 1; 0 ]));
    case "permute_qubits on kron" (fun () ->
        let m = Cmat.kron pauli_x pauli_z in
        let p = Cmat.permute_qubits m [| 1; 0 |] in
        check_mat "swap factors" (Cmat.kron pauli_z pauli_x) p)
  ]

(* ------------------------------------------------------------------ *)
(* Cvec                                                                *)
(* ------------------------------------------------------------------ *)

let cvec_tests =
  [ case "basis states orthonormal" (fun () ->
        let a = Cvec.basis ~dim:4 1 and b = Cvec.basis ~dim:4 2 in
        check_float "<a|a>" 1.0 (Cx.re (Cvec.dot a a));
        check_float "<a|b>" 0.0 (Cx.abs (Cvec.dot a b)));
    case "apply H to |0>" (fun () ->
        let v = Cvec.apply h_mat (Cvec.basis ~dim:2 0) in
        check_float "amp0" (1.0 /. sqrt2) (Cx.re (Cvec.get v 0));
        check_float "amp1" (1.0 /. sqrt2) (Cx.re (Cvec.get v 1)));
    case "kron of basis states" (fun () ->
        let v = Cvec.kron (Cvec.basis ~dim:2 1) (Cvec.basis ~dim:2 0) in
        check_float "index 2" 1.0 (Cx.re (Cvec.get v 2)));
    case "normalize" (fun () ->
        let v = Cvec.of_list [ Cx.make 3. 0.; Cx.make 0. 4. ] in
        check_float "unit" 1.0 (Cvec.norm (Cvec.normalize v)));
    case "overlap2 bounds" (fun () ->
        let v = Cvec.normalize (Cvec.of_list [ Cx.one; Cx.i ]) in
        check_float "self overlap" 1.0 (Cvec.overlap2 v v))
  ]

(* ------------------------------------------------------------------ *)
(* Expm                                                                *)
(* ------------------------------------------------------------------ *)

let expm_tests =
  [ case "expm of zero is identity" (fun () ->
        check_mat "e^0 = I" (Cmat.identity 3) (Expm.expm (Cmat.create 3 3)));
    case "expm of diagonal" (fun () ->
        let d = Cmat.diag [| Cx.of_float 1.0; Cx.of_float (-2.0) |] in
        let e = Expm.expm d in
        check_float ~eps:1e-12 "e^1" (exp 1.0) (Cx.re (Cmat.get e 0 0));
        check_float ~eps:1e-12 "e^-2" (exp (-2.0)) (Cx.re (Cmat.get e 1 1)));
    case "exp(-i t X) rotation" (fun () ->
        (* exp(-i t X) = cos t I - i sin t X *)
        let t = 0.73 in
        let e = Expm.expm_i_h ~dt:t pauli_x in
        check_float ~eps:1e-12 "cos" (cos t) (Cx.re (Cmat.get e 0 0));
        check_float ~eps:1e-12 "-sin" (-.sin t) (Cx.im (Cmat.get e 0 1)));
    case "propagator of hermitian is unitary" (fun () ->
        let h =
          Cmat.of_lists
            [ [ Cx.of_float 0.4; Cx.make 0.1 0.3 ];
              [ Cx.make 0.1 (-0.3); Cx.of_float (-0.2) ] ]
        in
        check_true "unitary" (Cmat.is_unitary ~tol:1e-10 (Expm.expm_i_h ~dt:2.0 h)));
    case "expm additivity for commuting" (fun () ->
        let a = Cmat.scale_re 0.3 pauli_z and b = Cmat.scale_re 0.9 pauli_z in
        check_mat ~tol:1e-12 "e^{a+b} = e^a e^b"
          (Expm.expm (Cmat.add a b))
          (Cmat.mul (Expm.expm a) (Expm.expm b)));
    case "large-norm scaling and squaring" (fun () ->
        let d = Cmat.diag [| Cx.of_float 5.0; Cx.of_float (-7.0) |] in
        let e = Expm.expm d in
        check_float ~eps:1e-6 "e^5" (exp 5.0) (Cx.re (Cmat.get e 0 0)))
  ]

(* ------------------------------------------------------------------ *)
(* Fidelity                                                            *)
(* ------------------------------------------------------------------ *)

let fidelity_tests =
  [ case "identical unitaries" (fun () ->
        check_float "F(H,H) = 1" 1.0 (Fidelity.gate_fidelity h_mat h_mat));
    case "global phase invisible" (fun () ->
        check_float "F(H, e^{i phi} H) = 1" 1.0
          (Fidelity.gate_fidelity h_mat (Cmat.scale (Cx.exp_i 1.2) h_mat)));
    case "orthogonal unitaries" (fun () ->
        check_float "F(X,Z) = 0" 0.0 (Fidelity.gate_fidelity pauli_x pauli_z));
    case "error complements fidelity" (fun () ->
        let e = Fidelity.gate_error pauli_x h_mat in
        let f = Fidelity.gate_fidelity pauli_x h_mat in
        check_float "e = 1-f" 1.0 (e +. f));
    case "avg gate fidelity of identity" (fun () ->
        check_float "avg F" 1.0
          (Fidelity.avg_gate_fidelity (Cmat.identity 4) (Cmat.identity 4)));
    case "esp product" (fun () ->
        check_float "esp" (0.9 *. 0.8) (Fidelity.esp [ 0.1; 0.2 ]))
  ]

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_unitary_2q =
  (* product of a few random embedded gates is unitary by construction *)
  QCheck.Gen.map
    (fun c -> Circuit.unitary c)
    (gen_circuit ~n:2 ~max_gates:6 ())

let prop_tests =
  [ qcheck
      (QCheck.Test.make ~count:60 ~name:"circuit unitaries are unitary"
         (QCheck.make gen_unitary_2q)
         (fun u -> Cmat.is_unitary ~tol:1e-8 u));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"solve inverts mul on unitaries"
         (QCheck.make (QCheck.Gen.pair gen_unitary_2q gen_unitary_2q))
         (fun (u, x) ->
           let b = Cmat.mul u x in
           Cmat.equal ~tol:1e-8 (Cmat.solve u b) x));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"gate fidelity in [0,1]"
         (QCheck.make (QCheck.Gen.pair gen_unitary_2q gen_unitary_2q))
         (fun (a, b) ->
           let f = Fidelity.gate_fidelity a b in
           f >= -1e-9 && f <= 1.0 +. 1e-9));
    qcheck
      (QCheck.Test.make ~count:40 ~name:"expm propagator unitary"
         (QCheck.make gen_unitary_2q)
         (fun u ->
           (* hermitise u to get a random hermitian, then exponentiate *)
           let h = Cmat.scale_re 0.5 (Cmat.add u (Cmat.adjoint u)) in
           Cmat.is_unitary ~tol:1e-8 (Expm.expm_i_h ~dt:0.7 h)))
  ]

(* ------------------------------------------------------------------ *)
(* scaling beyond 2^61                                                 *)
(* ------------------------------------------------------------------ *)

let huge_norm_tests =
  [ case "expm of a norm beyond 2^61 is still exp" (fun () ->
        (* the squaring count passes 61 here; a scale built as
           [1 lsl s] wrapped and gave NaN, a singular solve or 1 *)
        let bits = Int64.bits_of_float in
        List.iter
          (fun v ->
            let m = Cmat.of_real_lists [ [ v ] ] in
            let e = Expm.expm m in
            check_float (Printf.sprintf "exp %g" v) 0.0
              (Cx.re (Cmat.get e 0 0));
            check_float (Printf.sprintf "exp %g im" v) 0.0
              (Cx.im (Cmat.get e 0 0));
            let dst = Cmat.create 1 1 in
            Expm.expm_into (Expm.Workspace.create 1) m ~dst;
            check_true
              (Printf.sprintf "expm_into = expm bitwise at %g" v)
              (bits (Cmat.get_re dst 0 0) = bits (Cmat.get_re e 0 0)
              && bits (Cmat.get_im dst 0 0) = bits (Cmat.get_im e 0 0)))
          [ -2e18; -3e18; -1e19; -1e30 ])
  ]

let suite =
  cx_tests @ cmat_tests @ embed_tests @ cvec_tests @ expm_tests
  @ fidelity_tests @ prop_tests @ huge_norm_tests
