(* Seeded property tests over the pulse database's canonical forms and
   persistence. A self-contained [Random.State] PRNG (fixed seeds, no
   qcheck shrinking) drives every case, so a failure reproduces exactly
   from the printed seed. *)
open Test_util
module Gen = Paqoc_pulse.Generator

(* ------------------------------------------------------------------ *)
(* Random gate groups                                                  *)
(* ------------------------------------------------------------------ *)

let random_gate st n =
  let q () = Random.State.int st n in
  let angle () = Angle.const (Random.State.float st 6.28) in
  let distinct2 () =
    let a = q () in
    let b = (a + 1 + Random.State.int st (max 1 (n - 1))) mod n in
    (a, b)
  in
  match Random.State.int st 9 with
  | 0 -> Gate.app1 Gate.H (q ())
  | 1 -> Gate.app1 Gate.X (q ())
  | 2 -> Gate.app1 Gate.T (q ())
  | 3 -> Gate.app1 Gate.SX (q ())
  | 4 -> Gate.app1 (Gate.RZ (angle ())) (q ())
  | 5 -> Gate.app1 (Gate.RX (angle ())) (q ())
  | 6 ->
    let a, b = distinct2 () in
    Gate.app2 Gate.CX a b
  | 7 ->
    let a, b = distinct2 () in
    Gate.app2 Gate.CZ a b
  | _ ->
    let a, b = distinct2 () in
    Gate.app2 (Gate.CPhase (angle ())) a b

(* a random app list over qubits [0 .. n-1], n in 2..4, 1..6 gates *)
let random_apps st =
  let n = 2 + Random.State.int st 3 in
  let len = 1 + Random.State.int st 6 in
  (n, List.init len (fun _ -> random_gate st n))

(* a random injective renaming of 0..n-1 into a scattered global range *)
let random_renaming st n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  let offset = Random.State.int st 20 in
  let stride = 1 + Random.State.int st 3 in
  Array.map (fun p -> offset + (stride * p)) perm

let rename perm (a : Gate.app) =
  { a with Gate.qubits = List.map (fun q -> perm.(q)) a.Gate.qubits }

let iterations = 200

(* ------------------------------------------------------------------ *)
(* Canonical-form properties                                           *)
(* ------------------------------------------------------------------ *)

let key_permutation_invariant () =
  let st = Random.State.make [| 0x5eed; 1 |] in
  for trial = 1 to iterations do
    let n, apps = random_apps st in
    let perm = random_renaming st n in
    let g, _ = Gen.group_of_apps apps in
    let g', _ = Gen.group_of_apps (List.map (rename perm) apps) in
    if not (String.equal (Gen.key g) (Gen.key g')) then
      Alcotest.failf "trial %d: key not invariant under renaming:@.%s@.%s"
        trial (Gen.key g) (Gen.key g');
    if not (String.equal (Gen.shape_signature g) (Gen.shape_signature g'))
    then
      Alcotest.failf "trial %d: shape signature not invariant" trial
  done

let first_appearance_relabeling () =
  let st = Random.State.make [| 0x5eed; 2 |] in
  for trial = 1 to iterations do
    let n, apps = random_apps st in
    let perm = random_renaming st n in
    let apps = List.map (rename perm) apps in
    let g, order = Gen.group_of_apps apps in
    (* wires named by the group, in order of first appearance *)
    let firsts = ref [] in
    List.iter
      (fun (a : Gate.app) ->
        List.iter
          (fun w -> if not (List.mem w !firsts) then firsts := w :: !firsts)
          a.Gate.qubits)
      g.Gen.gates;
    let firsts = List.rev !firsts in
    if not (firsts = List.init (List.length firsts) Fun.id) then
      Alcotest.failf "trial %d: local wires not in first-appearance order"
        trial;
    check_int "n_qubits counts distinct wires" (List.length firsts)
      g.Gen.n_qubits;
    check_int "order has one global per wire" g.Gen.n_qubits
      (List.length order);
    (* [order] maps local wire -> original qubit: renaming back must
       reproduce the input *)
    let back = Array.of_list order in
    let restored = List.map (rename back) g.Gen.gates in
    if restored <> apps then
      Alcotest.failf "trial %d: order does not invert the relabeling" trial
  done

(* ------------------------------------------------------------------ *)
(* Persistence round-trip                                              *)
(* ------------------------------------------------------------------ *)

let save_load_round_trip () =
  let st = Random.State.make [| 0x5eed; 3 |] in
  let t = Gen.model_default () in
  let groups =
    List.init 30 (fun _ -> fst (Gen.group_of_apps (snd (random_apps st))))
  in
  List.iter (fun g -> ignore (Gen.generate t g)) groups;
  let path = Filename.temp_file "paqoc_props" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gen.save_database t path;
      let t' = Gen.model_default () in
      Gen.load_database t' path;
      check_int "database_size survives" (Gen.database_size t)
        (Gen.database_size t');
      List.iter
        (fun g ->
          match (Gen.peek t g, Gen.peek t' g) with
          | Some o, Some o' ->
            check_float "latency survives" o.Gen.latency o'.Gen.latency;
            check_float "error survives" o.Gen.error o'.Gen.error;
            check_float "fidelity survives" o.Gen.fidelity o'.Gen.fidelity
          | None, None -> ()
          | Some _, None -> Alcotest.fail "entry lost in round-trip"
          | None, Some _ -> Alcotest.fail "entry invented in round-trip")
        groups;
      check_int "nothing regenerated on load" 0 (Gen.pulses_generated t');
      (* the sorted writer makes the file a canonical function of the
         contents: re-saving the loaded copy reproduces it byte for byte *)
      let path' = Filename.temp_file "paqoc_props" ".db" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path')
        (fun () ->
          Gen.save_database t' path';
          let read p =
            let ic = open_in_bin p in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          check_true "canonical bytes" (String.equal (read path) (read path'))))

(* ------------------------------------------------------------------ *)
(* The Algorithm-1 "free estimate" contract                            *)
(* ------------------------------------------------------------------ *)

let estimate_and_peek_are_free () =
  let st = Random.State.make [| 0x5eed; 4 |] in
  let t = Gen.model_default () in
  (* a populated database, so [peek] exercises both hit and miss paths *)
  List.iter
    (fun g -> ignore (Gen.generate t g))
    (List.init 10 (fun _ -> fst (Gen.group_of_apps (snd (random_apps st)))));
  let snapshot () =
    ( Gen.database_size t,
      Gen.total_seconds t,
      Gen.pulses_generated t,
      Gen.cache_hits t,
      Gen.seed_breakdown t )
  in
  let before = snapshot () in
  for _ = 1 to iterations do
    let g = fst (Gen.group_of_apps (snd (random_apps st))) in
    ignore (Gen.estimate_latency t g);
    ignore (Gen.avg_latency_for_size t g.Gen.n_qubits);
    ignore (Gen.peek t g)
  done;
  let after = snapshot () in
  check_true "estimate/peek mutate neither database nor accounting"
    (before = after)

(* ------------------------------------------------------------------ *)
(* The in-place walk against the list-copying oracle                  *)
(* ------------------------------------------------------------------ *)

module LM = Paqoc_pulse.Latency_model

(* an angle of every label form: k*pi/d for each d in 1..16 (|k| up to
   70, past the 64 cutoff), arbitrary floats (the %.9g fallback), named
   and scaled symbols *)
let gen_angle =
  let open QCheck.Gen in
  frequency
    [ ( 5,
        map3
          (fun k d sign ->
            Angle.const (sign *. float_of_int k *. Angle.pi /. float_of_int d))
          (int_bound 70) (int_range 1 16)
          (oneofl [ 1.0; -1.0 ]) );
      (2, map Angle.const (float_range (-20.0) 20.0));
      (1, map Angle.const (oneofl [ 0.0; -0.0; 1e-12; 3e7; -2.5e-5 ]));
      (1, map Angle.sym (oneofl [ "gamma"; "beta"; "t0" ]));
      ( 1,
        map2
          (fun s k -> Angle.Scaled (s, k))
          (oneofl [ "gamma"; "beta" ])
          (float_range (-4.0) 4.0) )
    ]

(* [k] distinct wires out of [0 .. n-1] *)
let gen_wires n k =
  let open QCheck.Gen in
  map
    (fun perm -> List.filteri (fun i _ -> i < k) perm)
    (shuffle_l (List.init n Fun.id))

(* a primitive gate on wires drawn from [0 .. n-1] *)
let gen_primitive n =
  let open QCheck.Gen in
  let one =
    [ (6, oneofl Gate.[ I; X; Y; Z; H; S; Sdg; T; Tdg; SX; SXdg ]);
      (2, map (fun a -> Gate.RX a) gen_angle);
      (2, map (fun a -> Gate.RY a) gen_angle);
      (3, map (fun a -> Gate.RZ a) gen_angle);
      (2, map3 (fun a b c -> Gate.U3 (a, b, c)) gen_angle gen_angle gen_angle)
    ]
  in
  let two =
    [ (5, oneofl Gate.[ CX; CZ; SWAP ]);
      (2, map (fun a -> Gate.CPhase a) gen_angle)
    ]
  in
  let three = [ (1, return Gate.CCX) ] in
  frequency
    (one @ (if n >= 2 then two else []) @ if n >= 3 then three else [])
  >>= fun k ->
  map (fun qs -> { Gate.kind = k; qubits = qs }) (gen_wires n (Gate.arity k))

(* a custom of arity [a] (1-4) whose body nests a chain [depth] deep:
   one nested custom per level, beside up to three primitives *)
let rec gen_custom depth a =
  let open QCheck.Gen in
  let nested =
    if depth = 0 then return []
    else
      int_range 1 a >>= fun a' ->
      gen_custom (depth - 1) a' >>= fun cu ->
      map
        (fun qs -> [ { Gate.kind = Gate.Custom cu; qubits = qs } ])
        (gen_wires a a')
  in
  nested >>= fun nested ->
  list_size (int_bound 3) (gen_primitive a) >>= fun prims ->
  int_bound (List.length prims) >>= fun at ->
  let body =
    List.filteri (fun i _ -> i < at) prims
    @ nested
    @ List.filteri (fun i _ -> i >= at) prims
  in
  oneofl [ "grp"; "apa3"; "m17" ] >>= fun cname ->
  return { Gate.cname; arity = a; body }

(* a top-level list over wires 0..12: primitives and customs nesting up
   to 24 deep *)
let gen_nested_apps =
  let open QCheck.Gen in
  let top =
    frequency
      [ (2, gen_primitive 13);
        ( 3,
          int_range 1 4 >>= fun a ->
          int_bound 24 >>= fun depth ->
          gen_custom depth a >>= fun cu ->
          map
            (fun qs -> { Gate.kind = Gate.Custom cu; qubits = qs })
            (gen_wires 13 a)
        )
      ]
  in
  list_size (int_range 1 5) top

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let walk_matches_oracle =
  qcheck
    (QCheck.Test.make ~count:500
       ~name:
         "keys, labels and the latency model == the list-copying oracle on \
          nested customs"
       (QCheck.make
          ~print:(fun apps ->
            Reference_keys.key { Gen.n_qubits = 13; gates = apps })
          gen_nested_apps)
       (fun apps ->
         let cfg = LM.default in
         let agrees (g : Gen.group) =
           let k = Gen.key g in
           let n_qubits = g.Gen.n_qubits and gates = g.Gen.gates in
           String.equal k (Reference_keys.key g)
           && String.equal (Gen.shape_signature g)
                (Reference_keys.shape_signature g)
           && same_bits
                (LM.group_latency cfg ~n_qubits ~key:k gates)
                (Reference_keys.group_latency cfg ~n_qubits ~key:k gates)
           && same_bits
                (LM.group_latency cfg ~n_qubits ~key:"" gates)
                (Reference_keys.group_latency cfg ~n_qubits ~key:"" gates)
           && same_bits
                (LM.interaction_path_weight ~n_qubits gates)
                (Reference_keys.interaction_path_weight ~n_qubits gates)
         in
         let rec labels_agree (a : Gate.app) =
           String.equal (Gate.mining_label a.Gate.kind)
             (Reference_keys.mining_label a.Gate.kind)
           &&
           match a.Gate.kind with
           | Gate.Custom cu -> List.for_all labels_agree cu.Gate.body
           | _ -> true
         in
         List.for_all labels_agree apps
         && agrees { Gen.n_qubits = 13; gates = apps }
         && agrees (fst (Gen.group_of_apps apps))))

let suite =
  [ case "key is invariant under qubit renaming (200 seeded trials)"
      key_permutation_invariant;
    case "group_of_apps relabels to first-appearance order (200 trials)"
      first_appearance_relabeling;
    case "save/load round-trip preserves entries and canonical bytes"
      save_load_round_trip;
    case "estimate_latency and peek never mutate state"
      estimate_and_peek_are_free;
    walk_matches_oracle
  ]
