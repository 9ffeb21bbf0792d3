(** The parametric fast path's contract, pinned: recompiling at an exact
    anchor angle is bitwise-identical to a fresh compile of the same bound
    plan, the frozen plan is a pure function of the circuit at any [jobs],
    and plan persistence round-trips byte-for-byte with typed,
    line-numbered errors on malformed sidecars. The daemon path is held
    byte-identical to the in-process path in [Test_server]-style at the
    service layer. *)

open Test_util
module V = Paqoc.Variational
module Gen = Paqoc_pulse.Generator
module Qaoa = Paqoc_benchmarks.Qaoa
module Dnn = Paqoc_benchmarks.Dnn
module Protocol = Paqoc_pulse.Protocol
module Server = Paqoc_pulse.Server
module Suite = Paqoc_benchmarks.Suite
module Service = Paqoc_service.Service

let ansatz () = Qaoa.circuit ~symbolic:true ~n:6 ~p:1 ()

let freeze_model ?(anchors = 5) ?(jobs = 1) () =
  let gen = Gen.model_default () in
  let plan = V.freeze ~anchors ~jobs (V.prepare (ansatz ())) gen in
  (plan, gen)

(* Render the parts of an iteration that must agree bitwise: [%h] hex
   floats make the comparison exact, not approximate. *)
let priced_bytes (p : V.priced) =
  Printf.sprintf "%h %h %h %s" p.V.latency p.V.error p.V.fidelity
    (match p.V.provenance with
    | Gen.Synthesized -> "synthesized"
    | Gen.Fallback -> "fallback")

let iteration_bytes (it : V.iteration) =
  String.concat "\n"
    (Printf.sprintf "latency %h esp %h" it.V.latency it.V.esp
    :: List.map (fun (k, p) -> k ^ " => " ^ priced_bytes p) it.V.rows)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let all_at plan v = List.map (fun p -> (p, v)) (V.plan_params plan)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_tmp f =
  let path = Filename.temp_file "paqoc_sweep" ".plan" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* ---- malformed-plan helpers ---- *)

let corrupt_line k f text =
  String.concat "\n"
    (List.mapi
       (fun i l -> if i = k - 1 then f l else l)
       (String.split_on_char '\n' text))

let expect_error ~line ~needle text =
  match V.plan_of_string text with
  | Ok _ ->
    Alcotest.failf "corrupt plan (expecting %S at line %d) parsed" needle line
  | Error e ->
    check_int (Printf.sprintf "error line for %S" needle) line e.V.line;
    check_true
      (Printf.sprintf "reason mentions %S (got %S)" needle e.V.reason)
      (contains e.V.reason needle)

let suite =
  [ case "recompile at an exact anchor angle equals a fresh compile bitwise"
      (fun () ->
        let plan, gen = freeze_model () in
        let v = List.nth (V.plan_anchor_values plan) 2 in
        let angles = all_at plan v in
        let fast = V.recompile plan gen ~angles in
        let oracle = V.recompile_full plan (Gen.model_default ()) ~angles in
        check_true "identical bytes"
          (String.equal (iteration_bytes fast) (iteration_bytes oracle));
        check_int "no fallbacks at an anchor angle" 0 fast.V.fallback;
        let _, n_param, _ = V.plan_slot_kinds plan in
        check_int "every param slot served from the table" n_param
          fast.V.interp);
    case "the frozen plan is a pure function of the circuit at any jobs"
      (fun () ->
        let p1, _ = freeze_model ~jobs:1 () in
        let p4, _ = freeze_model ~jobs:4 () in
        check_true "plan bytes identical at --jobs 1 vs 4"
          (String.equal (V.plan_to_string p1) (V.plan_to_string p4)));
    case "the fast path is deterministic across generators" (fun () ->
        let plan1, gen1 = freeze_model () in
        let plan2, gen2 = freeze_model () in
        let angles = all_at plan1 1.234 in
        let i1 = V.recompile plan1 gen1 ~angles in
        let i2 = V.recompile plan2 gen2 ~angles in
        check_true "identical bytes"
          (String.equal (iteration_bytes i1) (iteration_bytes i2));
        check_int "in-hull analytic pricing never falls back" 0 i1.V.fallback);
    case "the full-recompile oracle is jobs-invariant" (fun () ->
        let plan, _ = freeze_model () in
        let angles = all_at plan 0.7 in
        let i1 = V.recompile_full ~jobs:1 plan (Gen.model_default ()) ~angles in
        let i4 = V.recompile_full ~jobs:4 plan (Gen.model_default ()) ~angles in
        check_true "identical bytes"
          (String.equal (iteration_bytes i1) (iteration_bytes i4)));
    case "plans persist and reload byte-for-byte" (fun () ->
        let plan, gen = freeze_model () in
        let rendered = V.plan_to_string plan in
        with_tmp @@ fun path ->
        V.save_plan plan path;
        check_true "save_plan writes plan_to_string verbatim"
          (String.equal rendered (read_file path));
        match V.load_plan path with
        | Error e -> Alcotest.failf "reload failed at line %d: %s" e.V.line e.V.reason
        | Ok plan' ->
          check_true "render(parse(render)) is the identity"
            (String.equal rendered (V.plan_to_string plan'));
          (* the reloaded plan also behaves identically *)
          let angles = all_at plan 2.5 in
          check_true "reloaded plan recompiles identically"
            (String.equal
               (iteration_bytes (V.recompile plan gen ~angles))
               (iteration_bytes
                  (V.recompile plan' (Gen.model_default ()) ~angles))));
    slow_case "waveform (QOC) anchors survive the round-trip byte-for-byte"
      (fun () ->
        let circ = Dnn.circuit ~symbolic:true ~n:3 ~blocks:1 () in
        let gen = Gen.qoc_default () in
        let plan = V.freeze ~anchors:2 (V.prepare circ) gen in
        let rendered = V.plan_to_string plan in
        check_true "QOC anchors carry waveform lines" (contains rendered "\nW ");
        match V.plan_of_string rendered with
        | Error e -> Alcotest.failf "reparse failed at line %d: %s" e.V.line e.V.reason
        | Ok plan' ->
          check_true "render(parse(render)) is the identity"
            (String.equal rendered (V.plan_to_string plan')));
    case "malformed plans fail with typed line-numbered errors" (fun () ->
        let plan, _ = freeze_model () in
        let good = V.plan_to_string plan in
        (match V.plan_of_string good with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "pristine plan rejected at line %d: %s" e.V.line
            e.V.reason);
        (* line 1: magic; 2: Q; 3: P; 4: V; 5: N; 6: first slot *)
        expect_error ~line:1 ~needle:"bad magic"
          (corrupt_line 1 (fun _ -> "paqoc-plan v9") good);
        expect_error ~line:2 ~needle:"bad integer"
          (corrupt_line 2 (fun _ -> "Q x") good);
        expect_error ~line:4 ~needle:"bad float"
          (corrupt_line 4 (fun _ -> "V 0x1p-1 zzz") good);
        expect_error ~line:6 ~needle:"expected an S, R or M slot line"
          (corrupt_line 6 (fun _ -> "X nope") good);
        expect_error ~line:6 ~needle:"unknown gate"
          (corrupt_line 6 (fun _ -> "S bogus@0") good);
        expect_error ~line:6 ~needle:"outside"
          (corrupt_line 6 (fun _ -> "S x@99") good);
        expect_error ~line:6 ~needle:"unexpected end of plan"
          (String.concat "\n"
             (List.filteri (fun i _ -> i < 5) (String.split_on_char '\n' good))));
    case "an unreadable sidecar reports an I/O error as line 0" (fun () ->
        match V.load_plan "/nonexistent/paqoc.plan" with
        | Ok _ -> Alcotest.failf "missing file loaded"
        | Error e -> check_int "line 0 flags I/O" 0 e.V.line);
    case "missing bindings raise the typed error with the missing names"
      (fun () ->
        let plan, gen = freeze_model () in
        check_true "recompile lists every free parameter"
          (try
             ignore (V.recompile plan gen ~angles:[]);
             false
           with V.Unbound_parameters missing ->
             missing = V.plan_params plan);
        check_true "recompile_full lists the unbound subset"
          (try
             ignore
               (V.recompile_full plan gen ~angles:[ ("gamma_0", 0.1) ]);
             false
           with V.Unbound_parameters missing -> missing = [ "beta_0" ]));
    slow_case "a warm recompile iteration stays under the minor-heap budget"
      (fun () ->
        let plan, gen = freeze_model () in
        let angles = all_at plan 1.9 in
        for _ = 1 to 3 do
          ignore (V.recompile plan gen ~angles)
        done;
        let reps = 50 in
        let before = Gc.minor_words () in
        for _ = 1 to reps do
          ignore (V.recompile plan gen ~angles)
        done;
        let per = (Gc.minor_words () -. before) /. float_of_int reps in
        (* measured ~tens of kwords per warm iteration (binding, pricing
           DAG, row assembly); the budget pins the order of magnitude so a
           per-iteration resynthesis or plan copy cannot creep in *)
        if per > 250_000.0 then
          Alcotest.failf
            "warm recompile allocates %.0f minor words/iteration, over the \
             250k budget — the fast path is re-doing cold work"
            per);
    slow_case "daemon sweep tables are byte-identical to in-process"
      (fun () ->
        (* the compile-sweep [--connect] contract at the service layer: a
           daemon with the sweep handler wired in and the in-process call
           must answer the same client-generated request with the same
           rendered table, byte for byte — the %.17g wire round-trip and
           the shared formatting underwrite it *)
        let params =
          Paqoc_circuit.Circuit.free_params
            ((Suite.sweep_find "qaoa").Suite.sweep_build ())
        in
        let req =
          { Protocol.default_recompile with
            Protocol.rc_angles = V.sweep_angles ~seed:11 ~n:2 params
          }
        in
        let table (s : Protocol.sweep_result) =
          let buf = Buffer.create 512 in
          Buffer.add_string buf Service.sweep_header;
          List.iteri
            (fun i it -> Buffer.add_string buf (Service.sweep_row i it))
            s.Protocol.iterations;
          Buffer.add_string buf (Service.sweep_totals s);
          Buffer.contents buf
        in
        let local = table (Service.sweep_handle ~deadline:None req) in
        let socket_path =
          let p = Filename.temp_file "paqoc_sweep_srv" ".sock" in
          Sys.remove p;
          p
        in
        let server =
          Server.create
            ~sweep:(Service.sweep_handler ())
            (Server.default_config ~socket_path)
            (Service.handler ())
        in
        let thread = Thread.create Server.run server in
        let remote =
          Fun.protect
            ~finally:(fun () ->
              Server.request_stop server;
              Thread.join thread;
              if Sys.file_exists socket_path then Sys.remove socket_path)
            (fun () ->
              Server.with_connection socket_path @@ fun fd ->
              match Server.rpc fd (Protocol.Recompile req) with
              | Protocol.Sweep s -> table s
              | Protocol.Refused e ->
                Alcotest.failf "daemon refused the sweep: %s"
                  (match e with
                  | Protocol.Bad_request m | Protocol.Internal m -> m
                  | Protocol.Overloaded -> "overloaded"
                  | Protocol.Deadline_exceeded -> "deadline"
                  | Protocol.Shutting_down -> "shutting down")
              | _ -> Alcotest.fail "unexpected daemon response")
        in
        check_true "tables byte-identical" (String.equal local remote));
    slow_case "QOC drift gate: strict tol falls back on every over-drift slot"
      (fun () ->
        (* real GRAPE anchors on a small DNN ansatz, swept twice at the
           shipping 1e-6 tolerance: an over-drift interpolation must fall
           back, so no accepted check exceeds it, and the accounting covers
           every slot. The differential interpolation battery replays the
           same ansatz's check pulses at a loose tolerance. *)
        let plan =
          V.freeze ~anchors:9
            (V.prepare (Dnn.circuit ~symbolic:true ~n:3 ~blocks:1 ()))
            (Gen.qoc_default ())
        in
        let _, n_param, n_multi = V.plan_slot_kinds plan in
        let iterations = 2 in
        let gen = Gen.qoc_default () in
        let its =
          List.map
            (fun angles -> V.recompile ~interp_tol:1e-6 plan gen ~angles)
            (V.sweep_angles ~seed:11 ~n:iterations (V.plan_params plan))
        in
        let sum f = List.fold_left (fun acc it -> acc + f it) 0 its in
        check_int "interp + fallback cover every param slot"
          (n_param * iterations)
          (sum (fun it -> it.V.interp + it.V.fallback));
        check_int "resynth covers every multi slot" (n_multi * iterations)
          (sum (fun it -> it.V.resynth));
        List.iter
          (fun (c : V.check) ->
            let drift = Float.abs (c.V.predicted -. c.V.measured) in
            check_true
              (Printf.sprintf "%s: accepted drift %.3g within 1e-6"
                 c.V.check_key drift)
              (drift <= 1e-6))
          (List.concat_map (fun it -> it.V.checks) its));
    case "a W line that overflows its shape or has no controls is an error"
      (fun () ->
        (* a one-slot plan; its anchor's waveform is line 9 *)
        let plan_with w =
          String.concat "\n"
            [ "paqoc-plan v1"; "Q 1"; "P t"; "V 0x0p+0"; "N 1"; "R t rz(St)@0";
              "A 0x0p+0"; "O 0x1p+6 0x0p+0 0x1p+0 synthesized"; w; "" ]
        in
        (match V.plan_of_string (plan_with "W 0x1p+0 1 1 0x0p+0") with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "control plan rejected at line %d: %s" e.V.line
            e.V.reason);
        (* 2^61 slices x 4 controls wraps to 0 amplitudes *)
        expect_error ~line:9 ~needle:"waveform carries"
          (plan_with "W 0x1p+0 2305843009213693952 4");
        expect_error ~line:9 ~needle:"bad waveform shape"
          (plan_with "W 0x1p+0 4611686018427387903 0");
        expect_error ~line:9 ~needle:"bad waveform shape"
          (plan_with "W 0x1p+0 3 0"));
    case "a non-finite number in a V, A, O or W field is an error"
      (fun () ->
        (* the one-slot plan above: V is line 4, A line 7, O line 8 and
           the waveform line 9 *)
        let plan_with ?(v = "V 0x0p+0") ?(a = "A 0x0p+0")
            ?(o = "O 0x1p+6 0x0p+0 0x1p+0 synthesized") w =
          String.concat "\n"
            [ "paqoc-plan v1"; "Q 1"; "P t"; v; "N 1"; "R t rz(St)@0"; a; o;
              w; "" ]
        in
        let w = "W 0x1p+0 1 2 0x1p-6 0x0p+0" in
        (match V.plan_of_string (plan_with w) with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "control plan rejected at line %d: %s" e.V.line
            e.V.reason);
        List.iter
          (fun bad -> expect_error ~line:9 ~needle:"non-finite" (plan_with bad))
          [ "W 0x1p+0 1 2 inf 0x0p+0";
            "W inf 1 2 0x1p-6 0x0p+0";
            "W 0x1p+0 1 2 0x1p-6 nan";
            "W 0x1p+0 1 2 1e999 0x0p+0";
            "W -inf 1 2 0x1p-6 0x0p+0"
          ];
        expect_error ~line:4 ~needle:"non-finite"
          (plan_with ~v:"V 0x0p+0 infinity" w);
        expect_error ~line:7 ~needle:"non-finite" (plan_with ~a:"A nan" w);
        expect_error ~line:8 ~needle:"non-finite"
          (plan_with ~o:"O 0x1p+6 0x0p+0 inf synthesized" w))
  ]
