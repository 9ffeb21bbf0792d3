(* The equivalence-class battery pinning lib/canon.

   The canonicalization layer is only sound if two properties hold
   simultaneously: every unitary-preserving rewrite the compiler performs
   (commutation reordering, peephole cleanup, basis resynthesis, virtual-Z
   phase folding, local dressing) maps a group to the SAME class key, and
   two groups that are not locally equivalent never share one. The qcheck
   properties here drive both directions over the same generators the rest
   of the suite uses, and the seeded sweeps pin key stability at the
   quantization tolerance boundary — the regime where a float hiccup would
   silently corrupt the shared cache. *)

open Test_util
module Canon = Paqoc_canon.Canon
module Commutation = Paqoc_circuit.Commutation
module Decompose = Paqoc_circuit.Decompose

let key n gates =
  match Canon.class_key ~n_qubits:n gates with
  | Some (k, _) -> k
  | None -> Alcotest.failf "class_key returned None for a concrete group"

let key_opt n gates = Option.map fst (Canon.class_key ~n_qubits:n gates)

(* [target ≈ e^{iφ} l · rep · r], with unitary factors — the replay
   contract a class hit depends on. *)
let check_correction msg ~rep ~target =
  match Canon.relate ~rep ~target with
  | None -> Alcotest.failf "%s: relate returned None" msg
  | Some (l, r) ->
      check_true (msg ^ ": l unitary") (Cmat.is_unitary ~tol:1e-6 l);
      check_true (msg ^ ": r unitary") (Cmat.is_unitary ~tol:1e-6 r);
      check_mat_phase ~tol:1e-6
        (msg ^ ": target = phase * l * rep * r")
        target
        (Cmat.mul l (Cmat.mul rep r))

(* ------------------------------------------------------------------ *)
(* Random blocks (self-contained generators: gen_gate from Test_util    *)
(* can emit 2q gates on a 1-wire circuit, so 1q/2q blocks get their     *)
(* own)                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_1q_gate =
  let open QCheck.Gen in
  let angle = map (fun f -> Angle.const f) (float_bound_inclusive 6.28) in
  frequency
    [ (2, return (Gate.app1 Gate.H 0));
      (2, return (Gate.app1 Gate.X 0));
      (1, return (Gate.app1 Gate.T 0));
      (1, return (Gate.app1 Gate.SX 0));
      (2, map (fun a -> Gate.app1 (Gate.RZ a) 0) angle);
      (1, map (fun a -> Gate.app1 (Gate.RX a) 0) angle)
    ]

let gen_1q_block = QCheck.Gen.(list_size (int_range 1 8) gen_1q_gate)

let gen_2q_gate =
  let open QCheck.Gen in
  let q = int_bound 1 in
  let angle = map (fun f -> Angle.const f) (float_bound_inclusive 6.28) in
  let pair = map (fun a -> (a, 1 - a)) q in
  frequency
    [ (2, map2 (fun g i -> Gate.app1 g i) (oneofl [ Gate.H; Gate.X; Gate.T; Gate.SX ]) q);
      (2, map2 (fun i a -> Gate.app1 (Gate.RZ a) i) q angle);
      (1, map2 (fun i a -> Gate.app1 (Gate.RX a) i) q angle);
      (3, map (fun (a, b) -> Gate.app2 Gate.CX a b) pair);
      (1, map (fun (a, b) -> Gate.app2 Gate.CZ a b) pair);
      (1, map2 (fun (a, b) t -> Gate.app2 (Gate.CPhase t) a b) pair angle)
    ]

let gen_2q_block = QCheck.Gen.(list_size (int_range 1 10) gen_2q_gate)

let print_block gates =
  String.concat "; " (List.map Gate.app_to_string gates)

let arb_1q_block = QCheck.make ~print:print_block gen_1q_block
let arb_2q_block = QCheck.make ~print:print_block gen_2q_block

let arb_1q_kind =
  QCheck.make
    QCheck.Gen.(
      frequency
        [ (2, return Gate.H);
          (2, return Gate.X);
          (1, return Gate.T);
          (1, return Gate.SX);
          (2,
           map
             (fun f -> Gate.RZ (Angle.const f))
             (float_bound_inclusive 6.28)) ])

(* deterministic 2q block for the seeded sweeps (plain Random.State, like
   test_properties.ml — a failure reproduces from the printed seed) *)
let random_2q_gates st =
  let angle () = Angle.const (Random.State.float st 6.28) in
  let gate () =
    let a = Random.State.int st 2 in
    match Random.State.int st 7 with
    | 0 -> Gate.app1 Gate.H a
    | 1 -> Gate.app1 Gate.X a
    | 2 -> Gate.app1 (Gate.RZ (angle ())) a
    | 3 -> Gate.app1 Gate.SX a
    | 4 -> Gate.app2 Gate.CX a (1 - a)
    | 5 -> Gate.app2 Gate.CZ a (1 - a)
    | _ -> Gate.app2 (Gate.CPhase (angle ())) a (1 - a)
  in
  List.init (1 + Random.State.int st 9) (fun _ -> gate ())

(* ------------------------------------------------------------------ *)
(* Unit cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_h_sx_share_class () =
  check_true "H and SX are virtual-Z equivalent"
    (key 1 [ Gate.app1 Gate.H 0 ] = key 1 [ Gate.app1 Gate.SX 0 ])

let test_x_distinct_from_h () =
  check_true "X (theta = pi) is not in the H class (theta = pi/2)"
    (key 1 [ Gate.app1 Gate.X 0 ] <> key 1 [ Gate.app1 Gate.H 0 ])

let test_diagonal_collapse () =
  let id = key 1 [] in
  List.iter
    (fun (name, g) ->
      check_true (name ^ " collapses to the identity class")
        (key 1 [ g ] = id))
    [ ("Z", Gate.app1 Gate.Z 0);
      ("S", Gate.app1 Gate.S 0);
      ("T", Gate.app1 Gate.T 0);
      ("RZ(0.7)", Gate.app1 (Gate.RZ (Angle.const 0.7)) 0)
    ]

let test_cx_cz_share_class () =
  let kcx = key 2 [ Gate.app2 Gate.CX 0 1 ] in
  check_true "CX and CZ share the Makhlin class"
    (kcx = key 2 [ Gate.app2 Gate.CZ 0 1 ]);
  (* the documented grid point: G1 = 0, G2 = 1 at tolerance 1e-6 *)
  check_true "CX class is the documented grid point"
    (kcx = "2q:0:0:1000000:0")

let test_cphase_classes () =
  check_true "CPhase(pi) is CZ"
    (key 2 [ Gate.app2 (Gate.CPhase (Angle.const Angle.pi)) 0 1 ]
    = key 2 [ Gate.app2 Gate.CZ 0 1 ]);
  check_true "CPhase(pi/2) is a distinct interaction class"
    (key 2 [ Gate.app2 (Gate.CPhase (Angle.const (Angle.pi /. 2.))) 0 1 ]
    <> key 2 [ Gate.app2 Gate.CZ 0 1 ])

let test_swap_distinct () =
  check_true "SWAP and CX are distinct classes"
    (key 2 [ Gate.app2 Gate.SWAP 0 1 ] <> key 2 [ Gate.app2 Gate.CX 0 1 ])

let test_arity_prefixes () =
  let starts p s = String.length s >= String.length p
                   && String.sub s 0 (String.length p) = p in
  check_true "1q prefix" (starts "1q:" (key 1 [ Gate.app1 Gate.H 0 ]));
  check_true "2q prefix" (starts "2q:" (key 2 [ Gate.app2 Gate.CX 0 1 ]));
  check_true "3q prefix" (starts "3q:" (key 3 [ Gate.app3 Gate.CCX 0 1 2 ]))

let test_symbolic_has_no_class () =
  check_true "symbolic group has no unitary, hence no class"
    (key_opt 1 [ Gate.app1 (Gate.RZ (Angle.sym "gamma")) 0 ] = None)

let test_large_arity_has_no_class () =
  check_true "4-qubit groups are beyond the invariant set"
    (key_opt 4 [ Gate.app2 Gate.CX 0 3 ] = None)

let test_group_unitary_matches_circuit () =
  let gates = [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ] in
  match Canon.group_unitary ~n_qubits:2 gates with
  | None -> Alcotest.fail "group_unitary returned None"
  | Some u ->
      check_mat ~tol:1e-12 "group_unitary = unitary_of_apps"
        (Gate.unitary_of_apps ~n_qubits:2 gates)
        u

let test_quantize_grid () =
  check_int "0 -> bin 0" 0 (Canon.quantize 0.0);
  check_int "tolerance -> bin 1" 1 (Canon.quantize Canon.tolerance);
  check_int "-tolerance -> bin -1" (-1) (Canon.quantize (-.Canon.tolerance));
  check_int "half a bin rounds away from zero" 1
    (Canon.quantize (0.5 *. Canon.tolerance));
  check_int "just under half a bin rounds down" 0
    (Canon.quantize (0.49 *. Canon.tolerance))

let test_keys_are_space_free () =
  (* class keys are stored as space-separated DB record fields *)
  List.iter
    (fun k ->
      check_true ("no spaces in " ^ k) (not (String.contains k ' ')))
    [ key 1 [ Gate.app1 Gate.H 0 ];
      key 2 [ Gate.app2 Gate.CX 0 1 ];
      key 3 [ Gate.app3 Gate.CCX 0 1 2 ]
    ]

let test_relate_reflexive () =
  let u = Gate.unitary Gate.CX in
  check_correction "CX to itself" ~rep:u ~target:u

let test_relate_h_sx () =
  check_correction "H to SX" ~rep:(Gate.unitary Gate.H)
    ~target:(Gate.unitary Gate.SX)

let test_relate_cx_cz () =
  check_correction "CX to CZ" ~rep:(Gate.unitary Gate.CX)
    ~target:(Gate.unitary Gate.CZ)

let test_relate_dressed_cx () =
  let dress =
    [ Gate.app1 Gate.T 0; Gate.app1 Gate.H 1; Gate.app2 Gate.CX 0 1;
      Gate.app1 Gate.SX 0; Gate.app1 Gate.S 1 ]
  in
  check_true "dressed CX stays in the CX class"
    (key 2 dress = key 2 [ Gate.app2 Gate.CX 0 1 ]);
  check_correction "CX to dressed CX" ~rep:(Gate.unitary Gate.CX)
    ~target:(Gate.unitary_of_apps ~n_qubits:2 dress)

let test_relate_rejects_inequivalent_2q () =
  check_true "CX and SWAP do not relate"
    (Canon.relate ~rep:(Gate.unitary Gate.CX)
       ~target:(Gate.unitary Gate.SWAP)
    = None)

let test_relate_3q_phase () =
  let u = Gate.unitary Gate.CCX in
  let phase = Paqoc_linalg.Cx.polar 1.0 0.37 in
  check_correction "CCX to a global phase of itself" ~rep:u
    ~target:(Cmat.scale phase u)

let test_relate_rejects_inequivalent_3q () =
  check_true "CCX and the identity do not relate"
    (Canon.relate ~rep:(Gate.unitary Gate.CCX) ~target:(Cmat.identity 8)
    = None)

let test_float_serialization_roundtrip () =
  let u = Gate.unitary_of_apps ~n_qubits:2
      [ Gate.app1 Gate.H 0; Gate.app2 (Gate.CPhase (Angle.const 1.1)) 0 1 ]
  in
  (match Canon.unitary_of_floats ~n_qubits:2 (Canon.unitary_to_floats u) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok v -> check_mat ~tol:0.0 "floats roundtrip bit-exactly" u v);
  match Canon.unitary_of_floats ~n_qubits:2 [| 1.0; 0.0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad float count must be rejected"

let test_3q_reorder_shares_class () =
  let a = [ Gate.app2 Gate.CX 0 1; Gate.app1 (Gate.RZ (Angle.const 0.9)) 2 ] in
  let b = [ Gate.app1 (Gate.RZ (Angle.const 0.9)) 2; Gate.app2 Gate.CX 0 1 ] in
  check_true "disjoint-qubit reorder keeps the 3q digest"
    (key 3 a = key 3 b)

(* ------------------------------------------------------------------ *)
(* Rewrite-invariance properties                                       *)
(* ------------------------------------------------------------------ *)

let prop_normalize_preserves_key n =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "commutation normalize preserves the key (%dq)" n)
    (arb_circuit ~n ~max_gates:10 ())
    (fun c ->
      let c' = Commutation.normalize c in
      key_opt n c.Circuit.gates = key_opt n c'.Circuit.gates)

let prop_peephole_preserves_key =
  QCheck.Test.make ~count:60 ~name:"peephole preserves the key (2q)"
    arb_2q_block
    (fun gates ->
      let c = Decompose.peephole (Circuit.make ~n_qubits:2 gates) in
      key_opt 2 gates = key_opt 2 c.Circuit.gates)

let prop_to_basis_preserves_key_1q =
  QCheck.Test.make ~count:60 ~name:"basis resynthesis preserves the key (1q)"
    arb_1q_block
    (fun gates ->
      let c = Decompose.to_basis (Circuit.make ~n_qubits:1 gates) in
      key_opt 1 gates = key_opt 1 c.Circuit.gates)

let prop_to_basis_preserves_key_2q =
  QCheck.Test.make ~count:60 ~name:"basis resynthesis preserves the key (2q)"
    arb_2q_block
    (fun gates ->
      let c = Decompose.to_basis (Circuit.make ~n_qubits:2 gates) in
      key_opt 2 gates = key_opt 2 c.Circuit.gates)

let prop_phase_folding_preserves_key_1q =
  QCheck.Test.make ~count:80 ~name:"virtual-Z phase folding preserves the key"
    QCheck.(pair arb_1q_block (pair (float_range 0.0 6.28) (float_range 0.0 6.28)))
    (fun (gates, (a, b)) ->
      let folded =
        Gate.app1 (Gate.RZ (Angle.const a)) 0
        :: (gates @ [ Gate.app1 (Gate.RZ (Angle.const b)) 0 ])
      in
      key_opt 1 gates = key_opt 1 folded)

let prop_local_dressing_preserves_key_2q =
  QCheck.Test.make ~count:80 ~name:"local dressing preserves the key (2q)"
    QCheck.(pair arb_2q_block (quad arb_1q_kind arb_1q_kind arb_1q_kind arb_1q_kind))
    (fun (gates, (k1, k2, k3, k4)) ->
      let dressed =
        Gate.app1 k1 0 :: Gate.app1 k2 1
        :: (gates @ [ Gate.app1 k3 0; Gate.app1 k4 1 ])
      in
      key_opt 2 gates = key_opt 2 dressed)

let prop_equal_unitaries_share_key =
  (* soundness direction: same operator (up to phase) => same key, i.e.
     a class boundary never splits genuinely equal groups *)
  QCheck.Test.make ~count:60 ~name:"equal unitaries never split classes"
    QCheck.(pair arb_2q_block arb_2q_block)
    (fun (g1, g2) ->
      let u1 = Gate.unitary_of_apps ~n_qubits:2 g1 in
      let u2 = Gate.unitary_of_apps ~n_qubits:2 g2 in
      (not (Cmat.equal_up_to_phase ~tol:1e-9 u1 u2))
      || key_opt 2 g1 = key_opt 2 g2)

(* ------------------------------------------------------------------ *)
(* Seeded sweeps: non-collision and boundary stability                 *)
(* ------------------------------------------------------------------ *)

let test_classmates_always_relate () =
  (* every pair of groups the key declares equivalent must replay: the
     correction exists and verifies. A failure here is a key collision —
     the cache would serve a wrong pulse. *)
  let st = Random.State.make [| 0x4b414b |] in
  let buckets = Hashtbl.create 64 in
  for _ = 1 to 250 do
    let gates = random_2q_gates st in
    match Canon.class_key ~n_qubits:2 gates with
    | None -> Alcotest.fail "concrete 2q group must have a class"
    | Some (k, u) -> (
        match Hashtbl.find_opt buckets k with
        | None -> Hashtbl.add buckets k u
        | Some rep -> check_correction ("class " ^ k) ~rep ~target:u)
  done;
  check_true "the sweep produced several distinct classes"
    (Hashtbl.length buckets > 3)

let test_boundary_keys_stable () =
  (* unitaries whose invariants sit at quantization bin edges: the key of
     a FIXED unitary must be a pure function of its floats — identical
     across repeated computations and across a defensive copy. *)
  let st = Random.State.make [| 0xb0a4d |] in
  for _ = 1 to 100 do
    let bin = float_of_int (Random.State.int st 2_000_000 - 1_000_000) in
    let off = (Random.State.float st 1.0 -. 0.5) *. Canon.tolerance in
    let theta = (bin +. 0.5) *. Canon.tolerance +. off in
    let u = Gate.unitary (Gate.CPhase (Angle.const theta)) in
    let k0 = Canon.class_key_of_unitary u in
    check_true "boundary unitary has a key" (k0 <> None);
    for _ = 1 to 4 do
      check_true "key is stable across recomputation"
        (Canon.class_key_of_unitary u = k0)
    done;
    check_true "key is stable across a matrix copy"
      (Canon.class_key_of_unitary (Cmat.copy u) = k0)
  done

let test_boundary_relate_is_safe () =
  (* two NEARLY equal unitaries straddling a bin can land in the same
     class; relate must then either produce a verified correction or
     refuse (a miss) — never accept a wrong replay. check_correction
     enforces the verified side; None is the safe fallback. *)
  let st = Random.State.make [| 0xfaceb0 |] in
  let accepted = ref 0 and refused = ref 0 in
  for _ = 1 to 100 do
    let theta = Random.State.float st 6.28 in
    let delta = (Random.State.float st 2.0 -. 1.0) *. Canon.tolerance in
    let u = Gate.unitary (Gate.CPhase (Angle.const theta)) in
    let v = Gate.unitary (Gate.CPhase (Angle.const (theta +. delta))) in
    if Canon.class_key_of_unitary u = Canon.class_key_of_unitary v then
      match Canon.relate ~rep:u ~target:v with
      | None -> incr refused
      | Some (l, r) ->
          incr accepted;
          check_mat_phase ~tol:1e-5 "accepted boundary replay verifies" v
            (Cmat.mul l (Cmat.mul u r))
  done;
  check_true "the sweep exercised same-bin pairs" (!accepted + !refused > 10)

(* ------------------------------------------------------------------ *)
(* The one-pulse warm-pass residual of BENCH_devices.json              *)
(* ------------------------------------------------------------------ *)

(* On heavy-hex, the suite's warm pass (the class tier on, one cache)
   synthesizes one qft group, a SWAP dressed with tiny Z rotations. Its
   class key is the plain SWAP's, and the first publisher of that class
   was an earlier benchmark's SWAP, which [Canon.relate] rejects as a
   representative. In the cold pass another qft group of the same class
   is synthesized in the same batch and serves this one as an in-batch
   replay, which is never published under its own key; in the warm pass
   that class-mate is an exact hit, no longer in the batch, so this
   group is synthesized once and published. A third pass synthesizes
   nothing. *)
let test_devices_warm_residual () =
  let module Gen = Paqoc_pulse.Generator in
  let module Cache = Paqoc_pulse.Cache in
  let module Device = Paqoc_topology.Device in
  let module Transpile = Paqoc_topology.Transpile in
  let module Suite = Paqoc_benchmarks.Suite in
  let dev = List.find (fun d -> Device.name d = "heavy-hex") Device.all in
  let ns = Device.cache_namespace dev in
  let residual =
    "2;cx@0,1;rz(-0.000383495197)@1;cx@0,1;rz(0.000383495197)@1;cx@1,0;\
     cx@0,1;cx@1,0;rz(0.000766990394)@1"
  in
  (* the suite's prefix through qft reproduces it *)
  let rec through_qft = function
    | [] -> []
    | (e : Suite.entry) :: rest ->
      if e.Suite.name = "qft" then [ e ] else e :: through_qft rest
  in
  let cache = Cache.create () in
  let priced_keys () =
    let path = Filename.temp_file "paqoc_residual" ".db" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Cache.save cache path;
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun l ->
               match String.split_on_char ' ' l with
               | "K" :: _ :: _ :: _ :: _ :: key -> Some (String.concat " " key)
               | _ -> None))
  in
  let pass () =
    let before = priced_keys () in
    let reports =
      List.map
        (fun (e : Suite.entry) ->
          let physical =
            (Transpile.run ~coupling:(Device.coupling dev) (e.Suite.build ()))
              .Transpile.physical
          in
          let gen = Gen.model_default () in
          Gen.set_device gen dev;
          (e.Suite.name,
           Paqoc.compile (attached ~canonical:true cache gen) physical))
        (through_qft Suite.all)
    in
    let synthesized =
      List.fold_left (fun acc (_, r) -> acc + r.Paqoc.pulses_generated) 0 reports
    in
    let fresh = List.filter (fun k -> not (List.mem k before)) (priced_keys ()) in
    (reports, synthesized, fresh)
  in
  let _, cold, _ = pass () in
  check_true "the cold pass synthesizes" (cold > 0);
  let warm_reports, warm, fresh = pass () in
  check_int "the warm pass synthesizes one group" 1 warm;
  Alcotest.(check (list string))
    "and publishes it under its own key" [ ns ^ residual ] fresh;
  (* why the class tier missed it: its class is SWAP's, first published
     by an earlier benchmark's plain SWAP, which does not relate *)
  let qft = List.assoc "qft" warm_reports in
  let group =
    List.find_map
      (fun g ->
        let grp, _ = Gen.group_of_apps [ g ] in
        if Gen.key grp = residual then Some grp else None)
      qft.Paqoc.grouped.Circuit.gates
  in
  (match group with
  | None -> Alcotest.fail "the residual group is not in qft's schedule"
  | Some grp -> (
    match Canon.class_key ~n_qubits:grp.Gen.n_qubits grp.Gen.gates with
    | None -> Alcotest.fail "the residual group has no class key"
    | Some (ck, target) -> (
      match Cache.probe_class cache (ns ^ ck) with
      | None -> Alcotest.fail "no class record for the residual's class"
      | Some ci ->
        Alcotest.(check string)
          "the class representative is a plain SWAP"
          (ns ^ "2;cx@0,1;cx@1,0;cx@0,1")
          ci.Paqoc_pulse.Db_format.rep_key;
        (match
           Canon.unitary_of_floats ~n_qubits:ci.Paqoc_pulse.Db_format.n_qubits
             ci.Paqoc_pulse.Db_format.unitary
         with
        | Error e -> Alcotest.fail e
        | Ok rep ->
          check_true "which Canon.relate rejects"
            (Canon.relate ~rep ~target = None)))));
  let _, third, fresh = pass () in
  check_int "a third pass synthesizes nothing" 0 third;
  check_int "and publishes nothing" 0 (List.length fresh)

let suite =
  [ case "H and SX share a 1q class" test_h_sx_share_class;
    case "X is distinct from H" test_x_distinct_from_h;
    case "diagonal gates collapse to identity" test_diagonal_collapse;
    case "CX and CZ share the Makhlin class" test_cx_cz_share_class;
    case "CPhase classes split by angle" test_cphase_classes;
    case "SWAP is distinct from CX" test_swap_distinct;
    case "arity prefixes segregate keys" test_arity_prefixes;
    case "symbolic groups have no class" test_symbolic_has_no_class;
    case "4q groups have no class" test_large_arity_has_no_class;
    case "group_unitary matches the circuit unitary"
      test_group_unitary_matches_circuit;
    case "quantize grid semantics" test_quantize_grid;
    case "keys are space-free" test_keys_are_space_free;
    case "relate is reflexive" test_relate_reflexive;
    case "relate H to SX" test_relate_h_sx;
    case "relate CX to CZ" test_relate_cx_cz;
    case "relate CX to dressed CX" test_relate_dressed_cx;
    case "relate rejects CX vs SWAP" test_relate_rejects_inequivalent_2q;
    case "relate 3q global phase" test_relate_3q_phase;
    case "relate rejects CCX vs identity" test_relate_rejects_inequivalent_3q;
    case "float serialization roundtrips" test_float_serialization_roundtrip;
    case "3q disjoint reorder shares a class" test_3q_reorder_shares_class;
    qcheck (prop_normalize_preserves_key 2);
    qcheck (prop_normalize_preserves_key 3);
    qcheck prop_peephole_preserves_key;
    qcheck prop_to_basis_preserves_key_1q;
    qcheck prop_to_basis_preserves_key_2q;
    qcheck prop_phase_folding_preserves_key_1q;
    qcheck prop_local_dressing_preserves_key_2q;
    qcheck prop_equal_unitaries_share_key;
    slow_case "class-mates always relate (seeded sweep)"
      test_classmates_always_relate;
    case "boundary keys are stable" test_boundary_keys_stable;
    case "boundary relate is safe" test_boundary_relate_is_safe;
    slow_case "heavy-hex warm suite pass: the one residual synthesis"
      test_devices_warm_residual
  ]
