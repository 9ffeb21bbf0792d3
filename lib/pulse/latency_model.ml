module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit

type config = {
  ramp : float;
  l_1q : float;
  l_1q_composite : float;
  l_cx : float;
  alpha : float;
  noise : float;
  eps_base : float;
  cost_per_dt_dim : float;
  seeded_factor : float;
}

(* Anchors measured from this repo's own GRAPE engine (mu_max = 0.02,
   fidelity 0.999): X = 32 dt, H = 36 dt, CX = 96 dt, merged H;CX = 84 dt,
   merged CX(0,1);CX(1,2) = 152 dt, merged SWAP = 116 dt. alpha < 1 and the
   same-pair repetition discount make merged groups strictly cheaper than
   stitched ones (Observation 1); W grows with qubit count
   (Observation 2). *)
let default =
  { ramp = 12.0;
    l_1q = 20.0;
    l_1q_composite = 25.0;
    l_cx = 84.0;
    alpha = 0.76;
    noise = 0.04;
    eps_base = 0.008;
    cost_per_dt_dim = 2.0e-4;
    seeded_factor = 0.12
  }

(* Consecutive interactions on the same qubit pair merge into one longer
   exchange pulse far more cheaply than interactions on fresh pairs; the
   k-th repetition contributes discount^k of its weight (SWAP = 3 CX on one
   pair prices at W = 1 + 0.45 + 0.20 = 1.65, matching the measured
   116 dt). *)
let repeat_discount = 0.45

(* One primitive's step of the interaction critical path. [clock] is
   each wire's interaction time; [last_pair] the last interaction pair
   seen on each wire, as a pair code, and [run_len] its run length — the
   same-pair repetition discount. A pair code is [a * n + b] for the two
   smallest operands [a <= b] of an [n]-wire group, and [no_pair] for a
   gate with fewer than two. *)
let no_pair = -1

let rec pair_code n w m1 m2 = function
  | [] -> if m2 = max_int then no_pair else (m1 * n) + m2
  | q :: rest ->
    let q = Gate.wire w q in
    if q < m1 then pair_code n w q m1 rest
    else if q < m2 then pair_code n w m1 q rest
    else pair_code n w m1 m2 rest

let rec latest (clock : float array) w m = function
  | [] -> m
  | q :: rest -> latest clock w (Float.max m clock.(Gate.wire w q)) rest

let rec stamp (clock : float array) (last_pair : int array)
    (run_len : int array) w t pair len = function
  | [] -> ()
  | q :: rest ->
    let q = Gate.wire w q in
    clock.(q) <- t;
    last_pair.(q) <- pair;
    run_len.(q) <- len;
    stamp clock last_pair run_len w t pair len rest

let rec stamp_break last_pair run_len w = function
  | [] -> ()
  | q :: rest ->
    let q = Gate.wire w q in
    last_pair.(q) <- no_pair;
    run_len.(q) <- 0;
    stamp_break last_pair run_len w rest

let rec count_on rot w = function
  | [] -> ()
  | q :: rest ->
    let q = Gate.wire w q in
    rot.(q) <- rot.(q) + 1;
    count_on rot w rest

let path_step ~n_qubits clock last_pair run_len k qs w =
  if Gate.arity k >= 2 then begin
    let pair : int = pair_code n_qubits w max_int max_int qs in
    let k' =
      match qs with
      | [ a; b ]
        when last_pair.(Gate.wire w a) = pair
             && last_pair.(Gate.wire w b) = pair ->
        run_len.(Gate.wire w a)
      | _ -> 0
    in
    let weight =
      Gate.interaction_weight k *. (repeat_discount ** float_of_int k')
    in
    let start = latest clock w 0.0 qs in
    stamp clock last_pair run_len w (start +. weight) pair (k' + 1) qs
  end
  else if not (Gate.is_diagonal k) then
    (* a non-diagonal 1q gate breaks a same-pair interaction run *)
    stamp_break last_pair run_len w qs

let interaction_path_weight ~n_qubits gates =
  let clock = Array.make n_qubits 0.0 in
  let last_pair = Array.make n_qubits no_pair in
  let run_len = Array.make n_qubits 0 in
  Gate.iter_primitives (path_step ~n_qubits clock last_pair run_len) gates;
  Array.fold_left Float.max 0.0 clock

(* Deterministic jitter in [-1, 1] keyed on the canonical group string. *)
let jitter_of_key key =
  if String.equal key "" then 0.0
  else
    let h = Hashtbl.hash (Hashtbl.hash key, String.length key, key) in
    let u = float_of_int (h land 0xFFFF) /. 65535.0 in
    (2.0 *. u) -. 1.0

let apply_jitter cfg key base =
  if base <= 0.0 then 0.0
  else
    let jittered = base *. (1.0 +. (cfg.noise *. jitter_of_key key)) in
    Float.max 1.0 (Float.round jittered)

(* One walk prices the group: it steps the interaction critical path and
   counts each wire's non-diagonal gates for the interaction-less case. *)
let group_latency cfg ~n_qubits ~key gates =
  let clock = Array.make n_qubits 0.0 in
  let last_pair = Array.make n_qubits no_pair in
  let run_len = Array.make n_qubits 0 in
  let rot = Array.make n_qubits 0 in
  let primitives = ref 0 and non_diagonal = ref 0 in
  Gate.iter_primitives
    (fun k qs w ->
      incr primitives;
      if not (Gate.is_diagonal k) then begin
        incr non_diagonal;
        count_on rot w qs
      end;
      path_step ~n_qubits clock last_pair run_len k qs w)
    gates;
  if !primitives = 0 then 0.0
  else if !non_diagonal = 0 then 0.0 (* virtual-Z only: free frame change *)
  else begin
    let w = Array.fold_left Float.max 0.0 clock in
    if w > 0.0 then
      apply_jitter cfg key (cfg.ramp +. (cfg.l_cx *. (w ** cfg.alpha)))
    else begin
      (* interaction-less group: one collapsed rotation layer per wire,
         layers run in parallel *)
      let layer =
        Array.fold_left
          (fun acc n ->
            let cost =
              if n = 0 then 0.0
              else if n = 1 then cfg.l_1q
              else cfg.l_1q_composite
            in
            Float.max acc cost)
          0.0 rot
      in
      if layer = 0.0 then 0.0 else apply_jitter cfg key (cfg.ramp +. layer)
    end
  end

let fixed_gate_latency cfg (g : Gate.app) =
  match g.Gate.kind with
  | k when Gate.is_diagonal k -> 0.0
  | Gate.X | Gate.SX | Gate.SXdg | Gate.RX _ | Gate.RY _ ->
    cfg.ramp +. cfg.l_1q
  | Gate.Y | Gate.H | Gate.U3 _ -> cfg.ramp +. cfg.l_1q_composite
  | Gate.CX | Gate.CZ -> cfg.ramp +. cfg.l_cx
  | k ->
    (* table pulse for a composite: same pricing as a merged episode, no
       jitter (table entries are generated once and fixed) *)
    group_latency cfg ~n_qubits:(Gate.arity k) ~key:""
      [ { g with Gate.qubits = List.init (Gate.arity k) Fun.id } ]

(* Corpus-average merged latency per qubit count (measured over the Fig 6
   subcircuit corpus with the defaults above; the paper's Observation 2). *)
let avg_latency_for_size cfg = function
  | n when n <= 1 -> cfg.ramp +. cfg.l_1q_composite
  | 2 -> cfg.ramp +. (cfg.l_cx *. (1.5 ** cfg.alpha))
  | _ -> cfg.ramp +. (cfg.l_cx *. (2.6 ** cfg.alpha))

let group_error cfg ~latency ~n_qubits =
  if latency <= 0.0 then 0.0
  else
    let size_penalty = 1.0 +. (0.05 *. float_of_int (max 0 (n_qubits - 1))) in
    cfg.eps_base *. sqrt (latency /. 110.0) *. size_penalty

(* One QOC run = a fixed setup + duration-bracketing overhead plus a
   variable part that grows only mildly with pulse duration and Hilbert
   dimension: the paper's GRAPE runs on GPU (Leung et al.), where all slice
   propagators of a <= 8x8 problem execute as one batched kernel, so a QOC
   run costs roughly a constant times its iteration count — which is what
   the paper's own Fig 14 shows (compile time linear in gate count with one
   slope across benchmarks). The fixed cost is anchored on this repo's
   measured cold CX search (~0.9 s). Warm starts cut the convergence
   iterations, discounting the whole run; a prefix warm start (the pulse of
   this group minus its last gate) only pays for the added duration. *)
(* per-qubit-count setup cost, anchored on this repo's measured cold
   searches: X ~ 0.04 s, CX ~ 0.9 s; the 3-qubit value reflects the GPU
   regime's mild growth rather than our CPU engine's 8x *)
let generation_fixed_cost n_qubits =
  match n_qubits with 1 -> 0.08 | 2 -> 0.9 | _ -> 1.2

let dim_factor n_qubits = float_of_int (1 lsl (n_qubits - 1))

let generation_cost cfg ~latency ~n_qubits ~seeded =
  let base =
    generation_fixed_cost n_qubits
    +. (cfg.cost_per_dt_dim *. Float.max 1.0 latency *. dim_factor n_qubits)
  in
  if seeded then base *. cfg.seeded_factor else base

(* [incremental_cost cfg ~latency ~prefix_latency ~n_qubits] prices growing
   an already-synthesised pulse by one gate: a discounted setup plus the
   variable cost of the latency delta. *)
let incremental_cost cfg ~latency ~prefix_latency ~n_qubits =
  let delta = Float.max 10.0 (latency -. prefix_latency) in
  (generation_fixed_cost n_qubits *. cfg.seeded_factor)
  +. (cfg.cost_per_dt_dim *. delta *. dim_factor n_qubits)

(* a merely *similar* cached pulse (AccQOC's nearest-neighbour initial
   guess) converges faster than cold but slower than an exact warm start *)
let similar_factor = 0.45
