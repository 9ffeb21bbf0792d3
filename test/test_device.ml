(* The device registry, calibration drift and the pulse-IR exporter:
   hash stability, cross-device cache isolation, drift-forced
   recalibration, the explicit eviction policy, per-device compile
   determinism across --jobs, the pinned IR golden, and the reader's
   typed rejection of malformed documents. *)
open Test_util
module Device = Paqoc_topology.Device
module Drift = Paqoc_topology.Drift
module Cache = Paqoc_pulse.Cache
module Db = Paqoc_pulse.Db_format
module Protocol = Paqoc_pulse.Protocol
module Service = Paqoc_service.Service
module Pulse_ir = Paqoc_service.Pulse_ir
module Obs = Paqoc_obs.Obs
module Gen = Paqoc_pulse.Generator

(* under `dune runtest` the cwd is the test directory (the dep glob puts
   the file at golden/...); when the binary is run by hand from the repo
   root the file lives under test/ *)
let ir_golden_path =
  if Sys.file_exists "golden/ir_qaoa.json" then "golden/ir_qaoa.json"
  else "test/golden/ir_qaoa.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* replace the first occurrence of [needle] in [hay] — for minting
   malformed IR documents out of the well-formed golden *)
let replace_first ~needle ~by hay =
  let nh = String.length needle and lh = String.length hay in
  let rec find i =
    if i + nh > lh then None
    else if String.sub hay i nh = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "mutation needle %S not found" needle
  | Some i ->
    String.sub hay 0 i ^ by
    ^ String.sub hay (i + nh) (lh - i - nh)

(* [doc] must fail to parse, with an error [pred] accepts *)
let expect_ir_error label doc pred =
  match Pulse_ir.of_string doc with
  | Ok _ -> Alcotest.failf "%s: parsed a malformed document" label
  | Error e ->
    check_true (label ^ " (got " ^ Pulse_ir.error_to_string e ^ ")") (pred e)

let entry lat =
  { Cache.latency = lat;
    error = 0.001;
    fidelity = 0.999;
    provenance = Db.Synthesized
  }

let compile_req ?(jobs = 1) ?device ?(drift_seed = 0) ?(drift_epoch = 0) name
    =
  { Protocol.default_compile with
    Protocol.circuit = Protocol.Benchmark name;
    jobs;
    device;
    drift_seed;
    drift_epoch
  }

(* minor words per call of [f], after a warm-up *)
let words_per_call ?(reps = 50) f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let suite =
  [ case "registry: names resolve, order is pinned, hashes are distinct"
      (fun () ->
        let names = List.map Device.name Device.all in
        check_true "registry order"
          (names = [ "lattice"; "heavy-hex"; "square"; "ring" ]);
        List.iter
          (fun d ->
            match Device.find (Device.name d) with
            | Some d' ->
              check_true
                ("find returns the registered " ^ Device.name d)
                (Device.hash d = Device.hash d')
            | None -> Alcotest.failf "find %s failed" (Device.name d))
          Device.all;
        check_true "unknown name misses" (Device.find "bogus" = None);
        let hashes = List.map Device.hash Device.all in
        check_int "hashes distinct"
          (List.length hashes)
          (List.length (List.sort_uniq compare hashes));
        List.iter
          (fun h -> check_int "32 hex chars" 32 (String.length h))
          hashes);
    case "lattice is grid 5x5: same hash, empty cache namespace" (fun () ->
        check_true "grid 5x5 hashes like lattice"
          (Device.hash (Device.grid ~rows:5 ~cols:5)
          = Device.hash Device.lattice);
        check_true "lattice namespace is empty (pre-registry byte compat)"
          (Device.cache_namespace Device.lattice = "");
        let g34 = Device.grid ~rows:3 ~cols:4 in
        check_true "non-5x5 grids hash differently and are namespaced"
          (Device.cache_namespace g34 = "dev:" ^ Device.hash g34 ^ "|");
        check_true "other devices are namespaced"
          (Device.cache_namespace Device.ring
          = "dev:" ^ Device.hash Device.ring ^ "|"));
    case "drift: epoch 0 is the identity, epochs are seeded and distinct"
      (fun () ->
        let base = Device.ring in
        check_true "epoch 0 leaves the hash alone"
          (Device.hash (Drift.apply ~seed:7 ~epoch:0 base)
          = Device.hash base);
        let a = Drift.apply ~seed:7 ~epoch:3 base in
        let b = Drift.apply ~seed:7 ~epoch:3 base in
        check_true "same seed+epoch reproduces the hash"
          (Device.hash a = Device.hash b);
        check_true "different epoch drifts differently"
          (Device.hash a
          <> Device.hash (Drift.apply ~seed:7 ~epoch:4 base));
        check_true "different seed drifts differently"
          (Device.hash a
          <> Device.hash (Drift.apply ~seed:8 ~epoch:3 base));
        check_true "drift changes the hash at all"
          (Device.hash a <> Device.hash base);
        check_true "negative epoch is rejected"
          (try
             ignore (Drift.apply ~seed:1 ~epoch:(-1) base);
             false
           with Invalid_argument _ -> true));
    case "cache: device namespaces isolate identical keys" (fun () ->
        let c = Cache.create () in
        let ns_ring = Device.cache_namespace Device.ring in
        let ns_hex = Device.cache_namespace Device.heavy_hex in
        Cache.publish c "k" (entry 10.0);
        Cache.publish c (ns_ring ^ "k") (entry 20.0);
        (match Cache.find c (ns_hex ^ "k") with
        | None -> ()
        | Some _ ->
          Alcotest.fail "heavy-hex lookup answered by another device");
        (match Cache.find c (ns_ring ^ "k") with
        | Some e -> check_float "ring sees its own entry" 20.0 e.Cache.latency
        | None -> Alcotest.fail "ring entry lost");
        match Cache.find c "k" with
        | Some e -> check_float "default entry intact" 10.0 e.Cache.latency
        | None -> Alcotest.fail "default entry lost");
    case "cache: evict_devices drops stale namespaces, counts, keeps default"
      (fun () ->
        Fun.protect ~finally:Obs.reset @@ fun () ->
        Obs.enable ();
        let c = Cache.create () in
        let ns_ring = Device.cache_namespace Device.ring in
        let drifted = Drift.apply ~seed:1 ~epoch:1 Device.ring in
        let ns_stale = Device.cache_namespace drifted in
        Cache.publish c "k" (entry 1.0);
        Cache.publish c (ns_ring ^ "k") (entry 2.0);
        Cache.publish c (ns_stale ^ "k") (entry 3.0);
        Cache.publish c (ns_stale ^ "k2") (entry 4.0);
        let dropped = Cache.evict_devices ~keep:[ Device.hash Device.ring ] c in
        check_int "stale records dropped" 2 dropped;
        check_int "counter agrees" 2 (Obs.counter_value "cache.device_evicted");
        check_true "kept device survives"
          (Cache.probe c (ns_ring ^ "k") <> None);
        check_true "default-lattice records are never evicted"
          (Cache.probe c "k" <> None);
        check_true "stale records gone" (Cache.probe c (ns_stale ^ "k") = None));
    slow_case "compile: every registry device, rows identical at jobs 1 and 4"
      (fun () ->
        List.iter
          (fun d ->
            let name = Device.name d in
            let row jobs =
              Service.suite_row "bv"
                (Service.handle ~cache:(Cache.create ()) ~deadline:None
                   (compile_req ~jobs ~device:name "bv"))
            in
            Alcotest.(check string)
              (name ^ ": suite row byte-identical across jobs")
              (row 1) (row 4))
          Device.all);
    slow_case "compile: drift invalidates a warm cache, pristine epoch rehits"
      (fun () ->
        let cache = Cache.create () in
        let go ?drift_seed ?drift_epoch () =
          Service.handle ~cache ~deadline:None
            (compile_req ~device:"ring" ?drift_seed ?drift_epoch "bv")
        in
        let cold = go () in
        check_true "cold run synthesized" (cold.Protocol.synthesized > 0);
        let warm = go () in
        check_int "warm run misses nothing" 0 warm.Protocol.cache_misses;
        check_int "warm run synthesizes nothing" 0 warm.Protocol.synthesized;
        let drifted = go ~drift_seed:1 ~drift_epoch:1 () in
        check_int "drifted run replays no stale pulses"
          cold.Protocol.cache_misses drifted.Protocol.cache_misses;
        check_int "drifted run resynthesizes everything"
          cold.Protocol.synthesized drifted.Protocol.synthesized;
        let back = go () in
        check_int "rolling back to epoch 0 rehits" 0
          back.Protocol.cache_misses);
    slow_case "pulse IR: qaoa export matches the pinned golden byte-for-byte"
      (fun () ->
        let golden = read_file ir_golden_path in
        let computed = Pulse_ir.to_string (Pulse_ir.reference_golden ()) in
        check_true "bytes identical (make update-golden after an intentional \
                    IR change)"
          (String.equal golden computed));
    slow_case "pulse IR: of_string >> to_string is the identity; verify runs"
      (fun () ->
        let golden = read_file ir_golden_path in
        match Pulse_ir.of_string golden with
        | Error e ->
          Alcotest.failf "golden does not parse: %s"
            (Pulse_ir.error_to_string e)
        | Ok ir ->
          check_true "round trip is the identity"
            (String.equal golden (Pulse_ir.to_string ir));
          check_true "device hash matches the registry"
            (ir.Pulse_ir.device_hash = Device.hash Device.lattice);
          (match Pulse_ir.verify ir with
          | Error msg -> Alcotest.failf "verify failed: %s" msg
          | Ok r ->
            check_int "model-backend IR has nothing to re-simulate" 0
              r.Pulse_ir.checked;
            check_int "every instruction skipped"
              (List.length ir.Pulse_ir.schedule)
              r.Pulse_ir.skipped));
    case "pulse IR: malformed documents fail with typed errors" (fun () ->
        let golden = lazy (read_file ir_golden_path) in
        expect_ir_error "truncated JSON" "{\"format\": \"paqoc-ir v1\""
          (function Pulse_ir.Bad_json _ -> true | _ -> false);
        expect_ir_error "wrong format token" "{\"format\": \"paqoc-ir v0\"}"
          (function Pulse_ir.Bad_format _ -> true | _ -> false);
        expect_ir_error "missing required field" "{\"format\": \"paqoc-ir v1\"}"
          (function Pulse_ir.Missing_field _ -> true | _ -> false);
        expect_ir_error "mistyped backend"
          (replace_first ~needle:"\"backend\": \"model\""
             ~by:"\"backend\": \"abacus\"" (Lazy.force golden))
          (function Pulse_ir.Bad_field ("backend", _) -> true | _ -> false);
        expect_ir_error "unknown provenance token"
          (replace_first ~needle:"\"provenance\": \"synthesized\""
             ~by:"\"provenance\": \"alchemy\"" (Lazy.force golden))
          (function Pulse_ir.Bad_instruction _ -> true | _ -> false));
    case "hashes are pinned: registry, ad-hoc grid, drifted devices"
      (fun () ->
        let pin label expected d =
          Alcotest.(check string) (label ^ " hash") expected (Device.hash d)
        in
        List.iter2 (pin "registry")
          [ "03881664c5378bd94ddc002b50d242a4";
            "c418facf58e3d7adc266b343a0ee0aab";
            "58c3f475d847bdd6afad3c88a5ab9d47";
            "a42b39a2c765139745108947b5899e2e"
          ]
          Device.all;
        pin "grid 3x4" "d279d05ecfb211c3f80af86b098e245c"
          (Device.grid ~rows:3 ~cols:4);
        pin "drifted ring" "e2e5bd8ab1670455d92fef4da7bd2ccc"
          (Drift.apply ~seed:1 ~epoch:1 Device.ring);
        pin "drifted lattice" "37a8bce89e8cea134ab97a6e22a99e73"
          (Drift.apply ~seed:1 ~epoch:1 Device.lattice);
        check_true "lattice namespace is empty"
          (Device.cache_namespace Device.lattice = "");
        check_true "grid 5x5 namespace is empty"
          (Device.cache_namespace (Device.grid ~rows:5 ~cols:5) = ""));
    case "make copies qubits: a later write cannot stale the hash"
      (fun () ->
        let r = Device.ring in
        let qubits = Array.copy r.Device.qubits in
        let d =
          Device.make ~name:"copy" ~description:"" ~coupling:r.Device.coupling
            ~edge_mu:r.Device.edge_mu ~qubits
        in
        qubits.(0) <- { (qubits.(0)) with Device.drive_bound = 1.0 };
        check_true "hash unchanged by the caller's write"
          (Device.hash d = Device.hash r);
        check_true "the stored calibration is the copy"
          (d.Device.qubits.(0) = r.Device.qubits.(0)));
    case "hash and namespace are allocation-free; a warm hit stays small"
      (fun () ->
        List.iter
          (fun d ->
            let name = Device.name d in
            let hw = words_per_call ~reps:1000 (fun () -> Device.hash d) in
            let nw =
              words_per_call ~reps:1000 (fun () -> Device.cache_namespace d)
            in
            if hw > 0.0 || nw > 0.0 then
              Alcotest.failf
                "%s: hash %.1f / cache_namespace %.1f words per call — the \
                 content hash must be computed once, in Device.make"
                name hw nw;
            let gen = Gen.model_default () in
            Gen.set_device gen d;
            let g = fst (Gen.group_of_apps [ Gate.app2 Gate.CX 0 1 ]) in
            ignore (Gen.generate gen g);
            (* measured ~330 words per warm hit (key serialisation and
               the outcome record); re-hashing the device costs ~15k *)
            let per = words_per_call (fun () -> Gen.generate gen g) in
            if per > 1_000.0 then
              Alcotest.failf
                "%s: a warm generate hit allocates %.0f minor words, over \
                 the 1000-word budget — per-call device hashing crept back"
                name per)
          [ Device.lattice; Device.ring ]);
    case "pulse IR: integers beyond 2^53 are refused, not truncated"
      (fun () ->
        let golden = read_file ir_golden_path in
        expect_ir_error "device.qubits 1e19"
          (replace_first ~needle:"\"qubits\": 25" ~by:"\"qubits\": 1e19"
             golden)
          (function
            | Pulse_ir.Bad_field ("device.qubits", _) -> true | _ -> false);
        expect_ir_error "instruction qubit 1e19"
          (replace_first ~needle:"\"qubits\": [1,0,2]"
             ~by:"\"qubits\": [1,1e19,2]" golden)
          (function Pulse_ir.Bad_instruction (0, _) -> true | _ -> false));
    case "pulse IR: non-finite numbers and waveforms on no qubits are errors"
      (fun () ->
        (* one QOC instruction on one qubit whose target is its own
           waveform's propagator, so the document verifies *)
        let module H = Paqoc_pulse.Hamiltonian in
        let h = H.make ~n_qubits:1 ~coupled_pairs:[] () in
        let x0 = 0.015625 (* printed as 0.015625: a unique needle *) in
        let pulse =
          { Paqoc_pulse.Pulse.dt = 2.0; amplitudes = [| [| x0; 0.0 |] |] }
        in
        let wave =
          { Pulse_ir.dt = 2.0;
            channels =
              [ { Pulse_ir.label = "x0"; samples = [| x0 |] };
                { Pulse_ir.label = "y0"; samples = [| 0.0 |] }
              ];
            unitary =
              Paqoc_canon.Canon.unitary_to_floats
                (Paqoc_pulse.Pulse.propagator h pulse)
          }
        in
        let ins =
          { Pulse_ir.name = "x0";
            qubits = [ 0 ];
            t0 = 0.0;
            duration = 2.0;
            error = 0.0;
            fidelity = 1.0;
            provenance = Pulse_ir.Synthesized;
            waveform = Some wave
          }
        in
        let ir =
          { Pulse_ir.backend = "qoc";
            device_name = "1x1";
            device_hash = "0";
            device_qubits = 1;
            synthesis_mu = H.mu_max;
            drive_bound = H.drive_max;
            latency = 2.0;
            esp = 1.0;
            schedule = [ ins ]
          }
        in
        let doc = Pulse_ir.to_string ir in
        (match Result.map Pulse_ir.verify (Pulse_ir.of_string doc) with
        | Ok (Ok r) -> check_int "control document verifies" 1 r.Pulse_ir.checked
        | Ok (Error msg) -> Alcotest.failf "control document: %s" msg
        | Error e ->
          Alcotest.failf "control document: %s" (Pulse_ir.error_to_string e));
        (* 1e999 reads as +inf: refused where it stands, by path *)
        let names needle = function
          | Pulse_ir.Bad_instruction (0, why) ->
            String.length why >= String.length needle
            && String.sub why 0 (String.length needle) = needle
          | _ -> false
        in
        expect_ir_error "infinite sample"
          (replace_first ~needle:"0.015625" ~by:"1e999" doc)
          (names "field schedule[0].channels[0].samples[0]: non-finite");
        expect_ir_error "infinite dt"
          (replace_first ~needle:"\"dt\": 2," ~by:"\"dt\": 1e999," doc)
          (names "field schedule[0].dt: non-finite");
        expect_ir_error "infinite esp"
          (replace_first ~needle:"\"esp\": 1," ~by:"\"esp\": -1e999," doc)
          (function Pulse_ir.Bad_field ("esp", _) -> true | _ -> false);
        (* a waveform on no qubits is refused by verify, not raised *)
        match
          Pulse_ir.verify { ir with schedule = [ { ins with qubits = [] } ] }
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "a waveform on no qubits verified")
  ]
