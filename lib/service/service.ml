module Protocol = Paqoc_pulse.Protocol
module Cache = Paqoc_pulse.Cache
module Gen = Paqoc_pulse.Generator
module Circuit = Paqoc_circuit.Circuit
module Qasm = Paqoc_circuit.Qasm
module Coupling = Paqoc_topology.Coupling
module Device = Paqoc_topology.Device
module Drift = Paqoc_topology.Drift
module Faultin = Paqoc_pulse.Faultin
module Transpile = Paqoc_topology.Transpile
module Suite = Paqoc_benchmarks.Suite
module Accqoc = Paqoc_accqoc.Accqoc
module Slicer = Paqoc_accqoc.Slicer
module Apa = Paqoc_mining.Apa

(* Resolution errors are the client's fault, so they raise the typed
   refusal the server answers with [bad_request]; anything else a
   request hits (a failed journal append, a pool crash) stays
   [internal]. *)
let bad_request fmt =
  Printf.ksprintf (fun msg -> raise (Protocol.Bad_request msg)) fmt

let parse_qasm src =
  try Qasm.parse src
  with Qasm.Parse_error msg -> bad_request "QASM parse error: %s" msg

let resolve_circuit = function
  | Protocol.Benchmark name -> (
    match Suite.find name with
    | e -> e.Suite.build ()
    | exception Not_found -> bad_request "unknown benchmark %s" name)
  | Protocol.Qasm src -> parse_qasm src

(* A compile binds no parameter, so a circuit with a free one would
   reach the backends unbound; only a sweep ([sweep_handle]) binds
   them. The test walks the gates without allocating; the names are
   gathered only to refuse. *)
let refuse_free_params (c : Circuit.t) =
  if Circuit.is_symbolic c then
    let names = Circuit.free_params c in
    bad_request "circuit has unbound parameter%s %s (only compile-sweep binds \
                 parameters)"
      (if List.length names > 1 then "s" else "")
      (String.concat ", " names)

(* The largest bare grid a request may ask for. Building a device
   costs an all-pairs distance table, so a grid's memory grows with the
   square of its qubit count: 32x32 resolves in tens of milliseconds,
   while 300x300 would need about 65 GB. *)
let max_grid_qubits = 1024

(* Device resolution, shared by both request kinds (and the CLI's
   in-process paths): a registry name wins, a bare grid is the uniform
   ad-hoc lattice, and the calibration-drift epoch is applied last — so
   the resolved device's hash (and therefore its cache namespace)
   already reflects the drift. The drift-shock fault models an
   unannounced recalibration landing mid-traffic: the request is served
   one epoch later than it asked for. *)
let resolve_device ~device ~rows ~cols ~drift_seed ~drift_epoch =
  if rows < 1 || cols < 1 then bad_request "bad device grid %dx%d" rows cols;
  if drift_seed < 0 || drift_epoch < 0 then
    bad_request "drift seed/epoch must be >= 0 (got %d/%d)" drift_seed
      drift_epoch;
  let base =
    match device with
    | Some name -> (
      match Device.find name with
      | Some d -> d
      | None ->
        bad_request "unknown device %s (expected one of: %s)" name
          (String.concat ", " (List.map Device.name Device.all)))
    | None ->
      (* rows * cols could overflow at the wire's 2^53 bound; the
         quotient cannot *)
      if rows > max_grid_qubits / cols then
        bad_request "device grid %dx%d exceeds %d qubits" rows cols
          max_grid_qubits;
      Device.grid ~rows ~cols
  in
  let drift_epoch =
    if Faultin.fire Faultin.Drift_shock then drift_epoch + 1 else drift_epoch
  in
  Drift.apply ~seed:drift_seed ~epoch:drift_epoch base

(* SABRE cannot route a circuit wider than its device: refuse it here
   rather than let the router raise. *)
let transpile dev (logical : Circuit.t) =
  let coupling = Device.coupling dev in
  if logical.Circuit.n_qubits > Coupling.n_qubits coupling then
    bad_request "circuit needs %d qubits but device %s has %d"
      logical.Circuit.n_qubits (Device.name dev) (Coupling.n_qubits coupling);
  Transpile.run ~coupling logical

(* A fresh generator per request: no cross-request database aliasing,
   and its [pulses_generated] is exactly this request's work. All reuse
   flows through the shared cache (and, for sweeps, the frozen plan). *)
let fresh_gen ?retry backend dev =
  let gen =
    match backend with
    | Protocol.Model -> Gen.model_default ?retry ()
    | Protocol.Qoc -> Gen.qoc_default ?retry ()
  in
  Gen.set_device gen dev;
  gen

type compiled = {
  result : Protocol.compile_result;
  device : Device.t;
  gen : Gen.t;
  grouped : Circuit.t;
}

let compile ?cache ?retry ~deadline (req : Protocol.compile_request) =
  if req.Protocol.jobs < 1 then
    bad_request "jobs must be >= 1 (got %d)" req.Protocol.jobs;
  if req.Protocol.max_n < 1 || req.Protocol.top_k < 1 then
    bad_request "max_qubits and top_k must be >= 1";
  let logical = resolve_circuit req.Protocol.circuit in
  refuse_free_params logical;
  let dev =
    resolve_device ~device:req.Protocol.device ~rows:req.Protocol.rows
      ~cols:req.Protocol.cols ~drift_seed:req.Protocol.drift_seed
      ~drift_epoch:req.Protocol.drift_epoch
  in
  let t = transpile dev logical in
  let physical = t.Transpile.physical in
  let gen = fresh_gen ?retry req.Protocol.backend dev in
  (* the generator is fresh, so this scopes the cache and the
     equivalence-class tier to exactly this request — both the PAQOC
     and AccQOC paths *)
  Gen.set_shared_cache gen cache;
  Gen.set_canonical gen req.Protocol.canonical;
  let stats0 = Option.map Cache.stats cache in
  let jobs = req.Protocol.jobs in
  let latency, esp, compile_seconds, episodes, fallbacks, grouped =
    match req.Protocol.scheme with
    | Protocol.Acc3 | Protocol.Acc5 ->
      (* the AccQOC baseline has no stage-boundary deadline plumbing;
         enforce the budget at its entry at least *)
      Protocol.check_deadline deadline;
      let slicer =
        if req.Protocol.scheme = Protocol.Acc3 then Slicer.accqoc_n3d3
        else Slicer.accqoc_n3d5
      in
      let r = Accqoc.compile ~slicer ~jobs gen physical in
      ( r.Accqoc.latency, r.Accqoc.esp, r.Accqoc.compile_seconds,
        r.Accqoc.n_groups, r.Accqoc.fallbacks, r.Accqoc.grouped )
    | (Protocol.M0 | Protocol.Mtuned | Protocol.Minf) as m ->
      let mode =
        match m with
        | Protocol.M0 -> Apa.M_zero
        | Protocol.Mtuned -> Apa.M_tuned
        | _ -> Apa.M_inf
      in
      let scheme =
        { Paqoc.paqoc_m0 with
          apa_mode = mode;
          merger =
            { Paqoc.Merger.default_config with
              max_n = req.Protocol.max_n;
              top_k = req.Protocol.top_k
            }
        }
      in
      let r = Paqoc.compile ~scheme ~jobs ?deadline gen physical in
      ( r.Paqoc.latency, r.Paqoc.esp, r.Paqoc.compile_seconds,
        r.Paqoc.n_groups, r.Paqoc.fallbacks, r.Paqoc.grouped )
  in
  let cache_hits, cache_misses =
    match (cache, stats0) with
    | Some c, Some s0 ->
      let s1 = Cache.stats c in
      ( s1.Cache.hits - s0.Cache.hits, s1.Cache.misses - s0.Cache.misses )
    | _ -> (0, 0)
  in
  let result =
    { Protocol.latency;
      esp;
      compile_seconds;
      episodes;
      fallbacks;
      synthesized = Gen.pulses_generated gen;
      cache_hits;
      cache_misses;
      logical_qubits = logical.Circuit.n_qubits;
      device_qubits = Coupling.n_qubits (Device.coupling dev);
      physical_gates = Circuit.n_gates physical;
      swaps_added = t.Transpile.swaps_added
    }
  in
  { result; device = dev; gen; grouped }

let handle ?cache ~deadline req = (compile ?cache ~deadline req).result

let handler ?cache () ~deadline req = handle ?cache ~deadline req

(* ------------------------------------------------------------------ *)
(* Variational sweeps (the parametric fast path)                       *)
(* ------------------------------------------------------------------ *)

module V = Paqoc.Variational

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let resolve_sweep_circuit = function
  | Protocol.Benchmark name -> (
    match Suite.sweep_find name with
    | e -> e.Suite.sweep_build ()
    | exception Not_found ->
      bad_request "unknown sweep benchmark %s (expected one of: %s)" name
        (String.concat ", "
           (List.map (fun e -> e.Suite.sweep_name) Suite.sweeps)))
  | Protocol.Qasm src -> parse_qasm src

(* Frozen compile plans are what makes the daemon worth connecting to
   for sweeps: the expensive freeze (grouping search + anchor synthesis)
   happens once per (circuit, grid, backend, anchors) and every later
   request reuses it. Plans are mutable — fallbacks adopt new anchors —
   so requests sharing a plan serialise on its entry lock; sweeps over
   different plans run concurrently. *)
type plan_entry = { plan_lock : Mutex.t; mutable frozen : V.plan option }

let registry_lock = Mutex.create ()
let plan_registry : (string, plan_entry) Hashtbl.t = Hashtbl.create 8

let plan_key ~dev (req : Protocol.recompile_request) =
  let circ =
    match req.Protocol.rc_circuit with
    | Protocol.Benchmark name -> "bench:" ^ name
    | Protocol.Qasm src -> "qasm:" ^ Digest.to_hex (Digest.string src)
  in
  (* keyed on the device's content hash, not its name: two names with
     the same physics share a plan; a drift epoch never does *)
  Printf.sprintf "%s|%dx%d|%s|%d|%s" circ req.Protocol.rc_rows
    req.Protocol.rc_cols
    (Protocol.backend_name req.Protocol.rc_backend)
    req.Protocol.rc_anchors (Device.hash dev)

let plan_entry key =
  locked registry_lock (fun () ->
      match Hashtbl.find_opt plan_registry key with
      | Some e -> e
      | None ->
        let e = { plan_lock = Mutex.create (); frozen = None } in
        Hashtbl.replace plan_registry key e;
        e)

let sweep_handle ?cache ?plan_path ~deadline (req : Protocol.recompile_request) =
  if req.Protocol.rc_jobs < 1 then
    bad_request "jobs must be >= 1 (got %d)" req.Protocol.rc_jobs;
  if req.Protocol.rc_anchors < 2 then
    bad_request "anchors must be >= 2 (got %d)" req.Protocol.rc_anchors;
  if not (req.Protocol.rc_interp_tol > 0.0) then
    bad_request "interp_tol must be positive";
  Protocol.check_deadline deadline;
  let dev =
    resolve_device ~device:req.Protocol.rc_device ~rows:req.Protocol.rc_rows
      ~cols:req.Protocol.rc_cols ~drift_seed:req.Protocol.rc_drift_seed
      ~drift_epoch:req.Protocol.rc_drift_epoch
  in
  let sweep_gen () =
    let gen = fresh_gen req.Protocol.rc_backend dev in
    Gen.set_shared_cache gen cache;
    gen
  in
  let freeze_plan () =
    let t = transpile dev (resolve_sweep_circuit req.Protocol.rc_circuit) in
    V.freeze ~anchors:req.Protocol.rc_anchors ~jobs:req.Protocol.rc_jobs
      (V.prepare t.Transpile.physical)
      (sweep_gen ())
  in
  let run_sweep plan =
    let gen = sweep_gen () in
    let static_slots, param_slots, multi_slots = V.plan_slot_kinds plan in
    (* explicit fold: iterations must run in request order (anchor
       adoption and cache publication are stateful) *)
    let iterations =
      List.rev
        (List.fold_left
           (fun acc angles ->
             Protocol.check_deadline deadline;
             let it =
               V.recompile ~interp_tol:req.Protocol.rc_interp_tol plan gen
                 ~angles
             in
             { Protocol.it_latency = it.V.latency;
               it_esp = it.V.esp;
               it_interp = it.V.interp;
               it_fallback = it.V.fallback;
               it_resynth = it.V.resynth
             }
             :: acc)
           [] req.Protocol.rc_angles)
    in
    { Protocol.sweep_params = V.plan_params plan;
      static_slots;
      param_slots;
      multi_slots;
      anchor_values = V.plan_anchor_values plan;
      iterations
    }
  in
  match plan_path with
  | Some path ->
    (* the persistence sidecar replaces the in-memory registry: load the
       plan if the file exists (a typed parse error is a request
       failure), freeze otherwise, and re-save after the sweep so
       fallback-adopted anchors persist across runs *)
    let plan =
      if Sys.file_exists path then
        match V.load_plan path with
        | Ok p -> p
        | Error e ->
          failwith
            (Printf.sprintf "%s: bad plan sidecar (line %d: %s)" path
               e.V.line e.V.reason)
      else freeze_plan ()
    in
    let result = run_sweep plan in
    V.save_plan plan path;
    result
  | None ->
    let entry = plan_entry (plan_key ~dev req) in
    locked entry.plan_lock (fun () ->
        let plan =
          match entry.frozen with
          | Some p -> p
          | None ->
            let p = freeze_plan () in
            entry.frozen <- Some p;
            p
        in
        run_sweep plan)

let sweep_handler ?cache () ~deadline req = sweep_handle ?cache ~deadline req

(* ------------------------------------------------------------------ *)
(* Suite-table formatting                                              *)
(* ------------------------------------------------------------------ *)

let suite_header =
  Printf.sprintf "  %-14s %9s %7s %9s %6s %5s %9s\n" "benchmark" "latency"
    "esp" "episodes" "synth" "hits" "hit-rate"

let suite_row name (r : Protocol.compile_result) =
  let lookups = r.Protocol.cache_hits + r.Protocol.cache_misses in
  let rate =
    if lookups = 0 then "-"
    else
      Printf.sprintf "%5.1f%%"
        (100.0 *. float_of_int r.Protocol.cache_hits /. float_of_int lookups)
  in
  Printf.sprintf "  %-14s %9.0f %7.4f %9d %6d %5d %9s\n" name
    r.Protocol.latency r.Protocol.esp r.Protocol.episodes
    r.Protocol.synthesized r.Protocol.cache_hits rate

(* ------------------------------------------------------------------ *)
(* Sweep-table formatting                                              *)
(* ------------------------------------------------------------------ *)

let sweep_header =
  Printf.sprintf "  %4s %11s %7s %7s %9s %8s\n" "iter" "latency" "esp"
    "interp" "fallback" "resynth"

let sweep_row i (it : Protocol.sweep_iteration) =
  Printf.sprintf "  %4d %11.0f %7.4f %7d %9d %8d\n" i it.Protocol.it_latency
    it.Protocol.it_esp it.Protocol.it_interp it.Protocol.it_fallback
    it.Protocol.it_resynth

let sweep_totals (s : Protocol.sweep_result) =
  let add f =
    List.fold_left (fun acc it -> acc + f it) 0 s.Protocol.iterations
  in
  let interp = add (fun it -> it.Protocol.it_interp) in
  let fallback = add (fun it -> it.Protocol.it_fallback) in
  let resynth = add (fun it -> it.Protocol.it_resynth) in
  let served = interp + fallback in
  let b = Buffer.create 128 in
  Printf.bprintf b
    "sweep totals    : %d iterations over %d slots (%d static / %d param / \
     %d multi), %d interp, %d fallback, %d resynth"
    (List.length s.Protocol.iterations)
    (s.Protocol.static_slots + s.Protocol.param_slots
   + s.Protocol.multi_slots)
    s.Protocol.static_slots s.Protocol.param_slots s.Protocol.multi_slots
    interp fallback resynth;
  if served > 0 then
    Printf.bprintf b " (interp hit rate %.1f%%)"
      (100.0 *. float_of_int interp /. float_of_int served);
  Buffer.add_char b '\n';
  Buffer.contents b

let suite_totals ~synthesized ~hits ~misses =
  let lookups = hits + misses in
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "suite totals    : %d pulses synthesized, %d cache hits"
       synthesized hits);
  if lookups > 0 then
    Buffer.add_string b
      (Printf.sprintf " (hit rate %.1f%%)"
         (100.0 *. float_of_int hits /. float_of_int lookups));
  Buffer.add_char b '\n';
  Buffer.contents b
