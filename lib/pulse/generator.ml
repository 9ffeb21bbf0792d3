module Gate = Paqoc_circuit.Gate
module Angle = Paqoc_circuit.Angle
module Cmat = Paqoc_linalg.Cmat
module Canon = Paqoc_canon.Canon
module Fidelity = Paqoc_linalg.Fidelity
module Device = Paqoc_topology.Device
module Obs = Paqoc_obs.Obs
module Clock = Paqoc_obs.Clock

type group = { n_qubits : int; gates : Gate.app list }

(* First-appearance relabelling without a table: groups touch a handful
   of qubits, so [seen] (the global qubits met so far, newest first) is
   scanned. The qubit at position [p] of an [n]-long [seen] is local wire
   [n - 1 - p]. *)
let rec local_wire (q : int) i = function
  | [] -> -1
  | x :: rest -> if x = q then i else local_wire q (i - 1) rest

let rec note_wires seen n = function
  | [] -> (seen, n)
  | q :: rest ->
    if local_wire q (n - 1) seen >= 0 then note_wires seen n rest
    else note_wires (q :: seen) (n + 1) rest

let rec relabel seen last = function
  | [] -> []
  | q :: rest as qs ->
    let q' = local_wire q last seen in
    let rest' = relabel seen last rest in
    if q' = q && rest' == rest then qs else q' :: rest'

let group_of_apps apps =
  let seen, n =
    List.fold_left
      (fun (seen, n) (g : Gate.app) -> note_wires seen n g.Gate.qubits)
      ([], 0) apps
  in
  let local (g : Gate.app) =
    let qubits = relabel seen (n - 1) g.Gate.qubits in
    if qubits == g.Gate.qubits then g else { g with Gate.qubits }
  in
  ({ n_qubits = n; gates = List.map local apps }, List.rev seen)

(* Keys are structural: customized gates are flattened to their primitive
   bodies so that, e.g., the merged gate "grp17" wrapping [CX; RZ; CX] and
   the APA gate "apa2" wrapping the same body share one pulse-table entry
   (names are presentation, the pulse depends only on the unitary's
   construction). The walk writes each primitive's label and its wires
   straight into the key buffer. *)
let rec add_wires buf w = function
  | [] -> ()
  | [ q ] -> Angle.add_int buf (Gate.wire w q)
  | q :: rest ->
    Angle.add_int buf (Gate.wire w q);
    Buffer.add_char buf ',';
    add_wires buf w rest

let serialize ~label g =
  let buf = Buffer.create 128 in
  Angle.add_int buf g.n_qubits;
  Gate.iter_primitives
    (fun k qs w ->
      Buffer.add_char buf ';';
      label buf k;
      Buffer.add_char buf '@';
      add_wires buf w qs)
    g.gates;
  Buffer.contents buf

let key g = serialize ~label:Gate.add_mining_label g

let shape_signature g =
  serialize ~label:(fun buf k -> Buffer.add_string buf (Gate.name k)) g

type provenance = Db_format.provenance = Synthesized | Fallback

let provenance_name = function
  | Synthesized -> "synthesized"
  | Fallback -> "fallback"

type outcome = {
  latency : float;
  error : float;
  gen_seconds : float;
  cache_hit : bool;
  seeded : bool;
  fidelity : float;
  pulse : Pulse.t option;
  provenance : provenance;
  attempts : int;
}

type backend =
  | Model of Latency_model.config
  | Qoc of Duration_search.config * Latency_model.config

(* Per-task resilience policy: how many perturbed restarts a failing QOC
   synthesis gets before the task degrades to the decomposed default-basis
   fallback, and how long a whole task may take. *)
type retry = { max_attempts : int; task_seconds : float option }

let default_retry = { max_attempts = 3; task_seconds = None }

(* seeds the perturbed restarts of every retry *)
let restart_seed = 0x5eed

(* A canonical-class replay: the group's pulse was not synthesised but
   borrowed from a locally-equivalent class-mate already priced in the
   shared cache. Everything a caller needs to audit (or re-simulate) the
   replay is recorded: whose pulse was borrowed, the verified local-frame
   correction [l . rep . r = target], the representative's waveform when
   this run holds it, and the requesting group's own unitary. *)
type replay = {
  rep_key : string;
  correction_l : Cmat.t;
  correction_r : Cmat.t;
  rep_pulse : Pulse.t option;
  target : Cmat.t;
}

(* A known shape signature: the waveform that warm-starts its next
   synthesis (QOC backend only), and the signature's token codes, which
   the nearest-shape scan interns the first time it reaches the shape. *)
type shape = {
  mutable wave : Pulse.t option;
  mutable codes : int array;  (** [[||]] until a scan reaches the shape *)
  mutable plan : int;
      (** the number of the plan whose batch overrides this shape with a
          task of its own, else -1 *)
}

let new_shape wave = { wave; codes = [||]; plan = -1 }

type t = {
  backend : backend;
  retry : retry;
  lock : Mutex.t;
      (** guards the two tables and every mutable counter below; the
          serial entry points hold it for their whole call, the batch
          entry point only while planning and committing *)
  cache : (string, outcome) Hashtbl.t;
  by_shape : (string, shape) Hashtbl.t;
      (** every generated shape; waveform present on the QOC backend *)
  token_codes : (string, int) Hashtbl.t;
      (** the interned signature tokens [shape.codes] are made of *)
  mutable plans : int;  (** batches planned so far *)
  mutable seconds : float;
  mutable generated : int;
  mutable hits : int;
  mutable n_cold : int;
  mutable n_prefix : int;
  mutable n_shape : int;
  mutable n_similar : int;
  mutable n_fallback : int;
  mutable shared : Cache.t option;
      (** cross-run cache; consulted after the local tables miss,
          published to from the commit phase *)
  mutable canonical : bool;
      (** when set (and a shared cache is attached), the shared consult
          adds the equivalence-class tier and synthesised pulses publish
          their class record *)
  mutable device : Device.t;
      (** the calibrated device this generator synthesises for: its
          [synthesis_mu]/[drive_bound] parameterise every QOC
          Hamiltonian and its [cache_namespace] prefixes every shared-
          cache key, so pulses never leak across devices. Defaults to
          {!Device.lattice} (empty namespace — the historical bytes) *)
  replays : (string, replay) Hashtbl.t;
      (** class-tier hits taken this run, by the requesting group's key *)
  mutable price_epoch : int;
      (** bumped on every [cache] write; lets a caller that priced its
          keys earlier skip re-reading them between writes *)
  mutable written : string array;
      (** the write log: [written.(i)] is the key whose [cache] write
          moved [price_epoch] from [i] to [i + 1] *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Reading a previously generated pulse out of the database is an in-memory
   lookup (a table probe plus key serialisation, no per-device term); the
   paper attributes ~95% of compilation to QOC runs and treats it as free. *)
let lookup_cost = 0.0

(* A single primitive (non-custom) gate's pulse is a device calibration
   table entry — it exists before any circuit is compiled, so the first use
   costs a lookup, not a QOC run. Merged/customized gates always pay. *)
let is_table_entry g =
  match g.gates with
  | [ { Gate.kind = Gate.Custom _; _ } ] -> false
  | [ _ ] -> true
  | _ -> false

let create ?(retry = default_retry) backend =
  if retry.max_attempts < 1 then
    invalid_arg "Generator.create: retry.max_attempts must be >= 1";
  (match retry.task_seconds with
  | Some s when not (s > 0.0) ->
    invalid_arg "Generator.create: retry.task_seconds must be > 0"
  | _ -> ());
  { backend;
    retry;
    lock = Mutex.create ();
    cache = Hashtbl.create 256;
    by_shape = Hashtbl.create 256;
    token_codes = Hashtbl.create 64;
    plans = 0;
    seconds = 0.0;
    generated = 0;
    hits = 0;
    n_cold = 0;
    n_prefix = 0;
    n_shape = 0;
    n_similar = 0;
    n_fallback = 0;
    shared = None;
    canonical = false;
    device = Device.lattice;
    replays = Hashtbl.create 16;
    price_epoch = 0;
    written = [||]
  }

(* Single choke point for local-table inserts: every row written to
   [cache] logs its key, so a caller can tell which prices an epoch
   change moved. *)
let table_put t k (o : outcome) =
  Hashtbl.replace t.cache k o;
  let len = Array.length t.written in
  if t.price_epoch = len then begin
    let w = Array.make (max 64 (2 * len)) "" in
    Array.blit t.written 0 w 0 len;
    t.written <- w
  end;
  t.written.(t.price_epoch) <- k;
  t.price_epoch <- t.price_epoch + 1

let set_shared_cache t c = locked t (fun () -> t.shared <- c)
let set_canonical t b = locked t (fun () -> t.canonical <- b)
let set_device t d = locked t (fun () -> t.device <- d)
let device t = locked t (fun () -> t.device)

let canonical_replays t =
  locked t (fun () ->
      Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.replays []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let model_default ?retry () = create ?retry (Model Latency_model.default)

let qoc_default ?retry () =
  let search =
    { Duration_search.default_config with
      grape =
        { Grape.default_config with max_iters = 200; target_fidelity = 0.995 }
    }
  in
  create ?retry (Qoc (search, Latency_model.default))

let pricing_is_analytic t =
  match t.backend with Model _ -> true | Qoc _ -> false

let model_config t =
  match t.backend with Model cfg | Qoc (_, cfg) -> cfg

let estimate_latency_of_key t g k =
  Latency_model.group_latency (model_config t) ~n_qubits:g.n_qubits ~key:k
    g.gates

let estimate_latency t g = estimate_latency_of_key t g (key g)

let avg_latency_for_size t nq =
  Latency_model.avg_latency_for_size (model_config t) nq

(* Coupled pairs present in the group's two-qubit gates; GRAPE only gets
   exchange controls on pairs the target actually entangles. *)
let coupled_pairs_of g =
  let pairs = ref [] in
  let add a b =
    let e = if a < b then (a, b) else (b, a) in
    if not (List.mem e !pairs) then pairs := e :: !pairs
  in
  Gate.iter_primitives
    (fun _ qs w ->
      match qs with
      | [ x; y ] -> add (Gate.wire w x) (Gate.wire w y)
      | [ x; y; z ] ->
        (* 3-qubit primitive: couple along the operand chain *)
        add (Gate.wire w x) (Gate.wire w y);
        add (Gate.wire w y) (Gate.wire w z)
      | _ -> ())
    g.gates;
  List.rev !pairs

let hamiltonian_for ~device g =
  Hamiltonian.make ~mu:(Device.synthesis_mu device)
    ~drive_bound:(Device.drive_bound device) ~n_qubits:g.n_qubits
    ~coupled_pairs:(coupled_pairs_of g) ()

let hamiltonian_of g = hamiltonian_for ~device:Device.lattice g

(* Human-readable label for a group, used by typed search errors. *)
let group_label g =
  match g.gates with
  | [ { Gate.kind = Gate.Custom cu; _ } ] -> cu.Gate.cname
  | [ a ] -> Gate.name a.Gate.kind
  | gs -> Printf.sprintf "group(%d gates, %dq)" (List.length gs) g.n_qubits

(* Seeded multiplicative jitter on a warm-start pulse, the "perturbed
   restart" of the retry policy: a warm start that steered GRAPE into a
   bad basin would fail identically on a bare re-run (the whole stack is
   deterministic), so each retry nudges the envelope reproducibly. *)
let perturb_pulse ~seed ~attempt (p : Pulse.t) =
  let rng = Random.State.make [| seed; attempt; Array.length p.Pulse.amplitudes |] in
  let amplitudes =
    Array.map
      (Array.map (fun u ->
           let noise = (Random.State.float rng 0.2 -. 0.1) in
           u *. (1.0 +. noise)))
      p.Pulse.amplitudes
  in
  { p with Pulse.amplitudes }

let run_qoc search_cfg model_cfg g ~device ~seed_pulse ~retry ~attempt
    ~deadline =
  let h = hamiltonian_for ~device g in
  let target = Gate.unitary_of_apps ~n_qubits:g.n_qubits g.gates in
  let lower_bound =
    Float.max search_cfg.Duration_search.dt
      (Latency_model.group_latency model_cfg ~n_qubits:g.n_qubits ~key:""
         g.gates)
  in
  (* perturbed restarts: attempt 0 runs exactly as planned; later attempts
     re-seed GRAPE and jitter (then drop, on the final attempt) the warm
     start, all deterministically *)
  let search_cfg, seed_pulse =
    if attempt = 0 then (search_cfg, seed_pulse)
    else
      let grape =
        { search_cfg.Duration_search.grape with
          Grape.seed =
            search_cfg.Duration_search.grape.Grape.seed
            + restart_seed + (attempt * 7919)
        }
      in
      let seed_pulse =
        if attempt + 1 >= retry.max_attempts then None (* cold last resort *)
        else
          Option.map (perturb_pulse ~seed:restart_seed ~attempt) seed_pulse
      in
      ({ search_cfg with Duration_search.grape }, seed_pulse)
  in
  (* per-task wall time on the monotonic clock. [Sys.time] would be wrong
     here: it reads process-wide CPU time, so with [--jobs N] every task's
     [gen_seconds] would also charge the CPU the other N-1 domains burned
     while this task ran — inflating the total accounted seconds by ~N. *)
  let t0 = Clock.now_s () in
  let r =
    Duration_search.search ~config:search_cfg ~gate:(group_label g) ?deadline
      ?init:seed_pulse h ~target ~lower_bound ()
  in
  let elapsed = Clock.now_s () -. t0 in
  (r, elapsed)

(* Warm-start sources, in preference order: a previously generated pulse of
   the exact same shape (AccQOC's similarity reuse), or the pulse of this
   group minus its last gate (the incremental seed PAQOC's iterative merges
   produce naturally). *)
(* the group with its last top-level gate dropped; a single merged custom
   peels the last gate of its body, which is exactly the constituent the
   iterative merger generated one commit earlier *)
let drop_edge_apps ~drop_last g =
  let peel gs =
    let n = List.length gs in
    if drop_last then List.filteri (fun i _ -> i < n - 1) gs
    else List.tl gs
  in
  match g.gates with
  | [ { Gate.kind = Gate.Custom cu; Gate.qubits } ]
    when List.length cu.Gate.body >= 2 ->
    let wires = Array.of_list qubits in
    Some
      (peel cu.Gate.body
      |> List.map (fun (s : Gate.app) ->
             { s with Gate.qubits = List.map (fun q -> wires.(q)) s.Gate.qubits }))
  | gs when List.length gs >= 2 -> Some (peel gs)
  | _ -> None

let prefix_apps g = drop_edge_apps ~drop_last:true g
let suffix_apps g = drop_edge_apps ~drop_last:false g

(* Token-level edit distance over interned token codes, used for the
   nearest-neighbour warm start (and AccQOC's generation order). Every
   comparison is on ints, so no cell calls the polymorphic compare. *)
let token_distance (ta : int array) (tb : int array) =
  let la = Array.length ta and lb = Array.length tb in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    let a = ta.(i - 1) in
    for j = 1 to lb do
      let cost = if a = tb.(j - 1) then 0 else 1 in
      cur.(j) <-
        Int.min (Int.min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let token_codes table tokens =
  List.map
    (fun tok ->
      match Hashtbl.find_opt table tok with
      | Some c -> c
      | None ->
        let c = Hashtbl.length table in
        Hashtbl.add table tok c;
        c)
    tokens
  |> Array.of_list

(* [sign]'s ';'-separated tokens as codes; a signature never splits into
   zero tokens, so [[||]] means unset *)
let shape_codes t sign r =
  if Array.length r.codes = 0 then
    r.codes <- token_codes t.token_codes (String.split_on_char ';' sign);
  r.codes

(* ------------------------------------------------------------------ *)
(* Deterministic batch planner                                         *)
(* ------------------------------------------------------------------ *)

(* [generate] and [generate_batch] share one engine built from three
   phases:

     plan    — replay the serial seeding decisions for the whole batch
               using only keys and shape signatures (both computable
               before any synthesis), recording for every task whether it
               is a cache hit or a synthesis and, for a synthesis, where
               its warm-start pulse comes from: the database as of plan
               time ([Src_db], captured immediately) or an
               earlier-in-batch task ([Src_batch j], a dependency);
     execute — run the syntheses on a {!Pool}, level by level along the
               [Src_batch] dependency edges (most batches are a single
               level: independent APA candidates, cold slices);
     commit  — apply outcomes to the tables and the accounting in input
               order, exactly as the serial loop would have.

   Because the plan is a function of the input order and the pre-batch
   database only, and every warm start is resolved against the same
   provider the serial loop would have used, a parallel run commits the
   same priced entries, latencies and seed classes as the serial run —
   [jobs] only changes wall-clock time. The nearest-neighbour scan keeps
   the minimum (distance, signature), so ties break identically on every
   run whatever order the tables iterate in. *)

(* who provides a key/signature needed by a later task *)
type provider = Db | Batch of int

(* A shared-cache entry viewed as a local database row — exactly what
   [load_database] would have constructed for the same record. *)
let outcome_of_entry (e : Db_format.entry) =
  { latency = e.Db_format.latency;
    error = e.Db_format.error;
    gen_seconds = 0.0;
    cache_hit = false;
    seeded = false;
    fidelity = e.Db_format.fidelity;
    pulse = None;
    provenance = e.Db_format.provenance;
    attempts = 0
  }

(* ... and the reverse: the priced fields a database row persists *)
let entry_of_outcome (o : outcome) =
  { Db_format.latency = o.latency;
    error = o.error;
    fidelity = o.fidelity;
    provenance = o.provenance
  }

type seed_class = C_cold | C_prefix | C_shape | C_similar

type seed_source =
  | Src_none
  | Src_db of Pulse.t option * float
      (** warm-start pulse and (for prefixes) the prefix latency, captured
          from the tables while planning *)
  | Src_batch of int  (** outcome of an earlier task in this batch *)

type plan =
  | P_hit_db of outcome  (** already priced before this batch *)
  | P_hit_batch of int  (** duplicate of an earlier task in this batch *)
  | P_synth of {
      g : group;
      k : string;
      sign : string;
      shape : shape;  (** [sign]'s record, entered in [by_shape] at commit *)
      cls : seed_class;
      src : seed_source;
      canon : (string * Cmat.t) option;
          (** class key and group unitary, kept so the commit phase can
              publish the class record once the pulse is priced *)
    }
  | P_replay_batch of {
      j : int;  (** in-batch class representative task *)
      k : string;
      sign : string;
      rep_key : string;  (** the representative task's exact key *)
      l : Cmat.t;
      r : Cmat.t;
      target : Cmat.t;
    }
      (** class-mate of an earlier task in this batch: the serial commit
          order publishes the representative's class record before this
          group's consult, so the batch planner replays it the same way
          a shared-cache class hit would *)

(* Every shared-cache consult and publish goes through the generator's
   device namespace ({!Device.cache_namespace}): keys, shape signatures
   and class keys are prefixed with ["dev:<hash>|"] for any device whose
   calibration differs from the default lattice, so one shared cache can
   serve every device without a pulse ever crossing between two of them.
   The default device's namespace is the empty string — its cache bytes
   are the historical, pre-registry ones. Local tables always hold bare
   keys; [strip_namespace] recovers the local key from a fully-qualified
   shared one (class records store qualified [rep_key]s). *)
let strip_namespace ns k =
  let p = String.length ns in
  if p = 0 then k
  else if String.length k >= p && String.equal (String.sub k 0 p) ns then
    String.sub k p (String.length k - p)
  else k

(* Serial-order seed planning; call with [t.lock] held. *)
let plan_batch t groups =
  let n = Array.length groups in
  let ns = Device.cache_namespace t.device in
  t.plans <- t.plans + 1;
  let stamp = t.plans in
  (* in-batch providers, replace semantics like the real tables *)
  let batch_cache = Hashtbl.create (2 * n) in
  let batch_shape = Hashtbl.create (2 * n) in
  let find_cache k =
    match Hashtbl.find_opt batch_cache k with
    | Some j -> Some (Batch j)
    | None -> if Hashtbl.mem t.cache k then Some Db else None
  in
  let find_shape s =
    match Hashtbl.find_opt batch_shape s with
    | Some (j, _) -> Some (Batch j)
    | None -> if Hashtbl.mem t.by_shape s then Some Db else None
  in
  (* The one record of [sign] while planning: [by_shape]'s, else the one
     an earlier task of this batch made, else a fresh one. A signature in
     both tables therefore has one record, stamped with this plan, which
     is how the scan skips the [by_shape] side without hashing. *)
  let shape_record sign =
    match Hashtbl.find_opt t.by_shape sign with
    | Some r -> r
    | None -> (
      match Hashtbl.find_opt batch_shape sign with
      | Some (_, r) -> r
      | None -> new_shape None)
  in
  (* a signature a shared-cache hit makes known while planning; an empty
     batch has no record to share, so an all-hit batch skips the lookup *)
  let note_shape sign =
    if not (Hashtbl.mem t.by_shape sign) then
      Hashtbl.replace t.by_shape sign
        (if Hashtbl.length batch_shape = 0 then new_shape None
         else shape_record sign)
  in
  (* shared-cache consults, all after the batch and local tables miss.
     The authoritative consult replays the serial commit order over
     probes: the shared exact tier first, then — with canonicalization on
     — the shared class tier, then class representatives planned earlier
     in this batch (serial commits would have published them before this
     group's consult), each class candidate accepted only once
     [Canon.relate] verifies the correction. Exactly one
     [Cache.note_consult] scores the outcome, so with canonicalization
     off the counters are byte-for-byte the historical [Cache.find].
     [shared_probe]/[shared_mem_shape] are uncounted warm-start probes,
     so planning noise never distorts the suite hit rate *)
  let batch_class = Hashtbl.create 8 in
  let class_key_of g =
    if t.canonical && t.shared <> None && g.n_qubits <= 3 then
      Canon.class_key ~n_qubits:g.n_qubits g.gates
    else None
  in
  let shared_class_mate c canon =
    match canon with
    | None -> None
    | Some (ck, target) -> (
      match Cache.probe_class c (ns ^ ck) with
      | None -> None
      | Some (ci : Db_format.class_info) -> (
        match Cache.probe c ci.rep_key with
        | None -> None (* dangling class record: rep entry missing *)
        | Some e -> (
          match
            Canon.unitary_of_floats ~n_qubits:ci.n_qubits ci.unitary
          with
          | Error _ -> None
          | Ok rep -> (
            match Canon.relate ~rep ~target with
            | None -> None
            | Some (l, r) -> Some (e, ci, l, r, target)))))
  in
  let batch_class_mate canon =
    match canon with
    | None -> None
    | Some (ck, target) -> (
      match Hashtbl.find_opt batch_class ck with
      | None -> None
      | Some (j, rep_key, rep_u) -> (
        match Canon.relate ~rep:rep_u ~target with
        | None -> None
        | Some (l, r) -> Some (j, rep_key, l, r, target)))
  in
  let shared_probe k =
    match t.shared with None -> None | Some c -> Cache.probe c (ns ^ k)
  in
  let shared_mem_shape s =
    match t.shared with None -> false | Some c -> Cache.mem_shape c (ns ^ s)
  in
  let shape_src sign = function
    | Batch j -> Src_batch j
    | Db -> Src_db ((Hashtbl.find t.by_shape sign).wave, 0.0)
  in
  (* nearest neighbour among the known shapes of the same qubit count:
     the minimum (token distance, signature) within each candidate's
     threshold, over [by_shape] minus the signatures this batch
     overrides and the batch's own. Each record keeps its token codes,
     so a visit compares two lengths and runs the integer distance only
     when the token-count difference (a lower bound on the distance) is
     within the candidate's threshold and the best distance so far.
     [query] is [sign]'s own record, which keeps the codes for the scans
     that later reach it as a batch shape *)
  let nearest_shape sign query =
    let ta = shape_codes t sign query in
    let la = Array.length ta in
    let best = ref None in
    let visit sign' r p =
      if String.length sign' > 0 && sign'.[0] = sign.[0] then begin
        let tb = shape_codes t sign' r in
        let lb = Array.length tb in
        let threshold = Int.max 1 (Int.max la lb * 2 / 5) in
        let bound =
          match !best with
          | Some (d, _, _) -> Int.min d threshold
          | None -> threshold
        in
        if abs (la - lb) <= bound then begin
          let d = token_distance ta tb in
          if d <= threshold then
            match !best with
            | Some (d', s', _)
              when d' < d || (d' = d && String.compare s' sign' < 0) -> ()
            | _ -> best := Some (d, sign', p)
        end
      end
    in
    Hashtbl.iter
      (fun s r -> if r.plan <> stamp then visit s r Db)
      t.by_shape;
    Hashtbl.iter (fun s (j, r) -> visit s r (Batch j)) batch_shape;
    !best
  in
  let plan_seed g sign shape =
    match find_shape sign with
    | Some p -> (C_shape, shape_src sign p)
    | None when shared_mem_shape sign ->
      (* another compilation already generated this shape; no waveform is
         persisted, but the class still prices as a seeded generation *)
      (C_shape, Src_db (None, 0.0))
    | None -> (
      let edge_hit apps_opt =
        match apps_opt with
        | None -> None
        | Some apps -> (
          let sub, _ = group_of_apps apps in
          let ksub = key sub in
          match find_cache ksub with
          | Some (Batch j) -> Some (C_prefix, Src_batch j)
          | Some Db ->
            let o = Hashtbl.find t.cache ksub in
            Some (C_prefix, Src_db (o.pulse, o.latency))
          | None -> (
            match shared_probe ksub with
            | Some (e : Cache.entry) ->
              Some (C_prefix, Src_db (None, e.latency))
            | None ->
              (* a single-primitive constituent is a calibration-table
                 pulse: always available as a warm start even though
                 nothing generated it *)
              if is_table_entry sub then
                Some
                  (C_prefix, Src_db (None, estimate_latency_of_key t sub ksub))
              else None))
      in
      let prefix_hit =
        match edge_hit (prefix_apps g) with
        | Some s -> Some s
        | None -> edge_hit (suffix_apps g)
      in
      match prefix_hit with
      | Some s -> s
      | None -> (
        match nearest_shape sign shape with
        | Some (_, sign', p) -> (C_similar, shape_src sign' p)
        | None -> (C_cold, Src_none)))
  in
  Array.mapi
    (fun i g ->
      let k = key g in
      match find_cache k with
      | Some Db -> P_hit_db (Hashtbl.find t.cache k)
      | Some (Batch j) -> P_hit_batch j
      | None -> (
        let canon = class_key_of g in
        let sign = shape_signature g in
        let import_entry e =
          (* import the shared entry into the local tables right here (we
             hold [t.lock] while planning), so the rest of this batch and
             every later one sees it exactly as a database hit — and a
             subsequent [save_database] writes the same rows a cold run
             would have *)
          let o = outcome_of_entry e in
          table_put t k o;
          note_shape sign;
          o
        in
        let plan_synth () =
          let shape = shape_record sign in
          let cls, src = plan_seed g sign shape in
          Hashtbl.replace batch_cache k i;
          shape.plan <- stamp;
          Hashtbl.replace batch_shape sign (i, shape);
          (match canon with
          | Some (ck, u) when not (Hashtbl.mem batch_class ck) ->
            (* first-planned-wins, mirroring [Cache.publish_class]'s
               first-publisher-wins under serial commits *)
            Hashtbl.add batch_class ck (i, k, u)
          | _ -> ());
          P_synth { g; k; sign; shape; cls; src; canon }
        in
        match t.shared with
        | None -> plan_synth ()
        | Some c -> (
          match Cache.probe c (ns ^ k) with
          | Some e ->
            Cache.note_consult c `Hit;
            P_hit_db (import_entry e)
          | None -> (
            match shared_class_mate c canon with
            | Some (e, ci, l, r, target) ->
              (* the class tier vouched for a locally-equivalent
                 representative and [Canon.relate] verified the
                 correction; import the representative's price under the
                 requester's own key (latency and fidelity are
                 local-frame invariants) and record the replay so
                 callers can audit it *)
              Cache.note_consult c `Canonical_hit;
              let o = import_entry e in
              let local_rep = strip_namespace ns ci.Db_format.rep_key in
              Hashtbl.replace t.replays k
                { rep_key = local_rep;
                  correction_l = l;
                  correction_r = r;
                  rep_pulse =
                    (match Hashtbl.find_opt t.cache local_rep with
                    | Some (ro : outcome) -> ro.pulse
                    | None -> None);
                  target
                };
              P_hit_db o
            | None -> (
              match batch_class_mate canon with
              | Some (j, rep_key, l, r, target) ->
                Cache.note_consult c `Canonical_hit;
                note_shape sign;
                P_replay_batch { j; k; sign; rep_key; l; r; target }
              | None ->
                Cache.note_consult c `Miss;
                plan_synth ())))))
    groups

(* Graceful degradation: price the group as its decomposed default-basis
   (calibration-table) pulses, scheduled ASAP on per-qubit clocks. Always
   succeeds — the table pulses exist before any circuit is compiled — but
   forfeits the merged pulse's latency win, which is why the penalty is
   surfaced through [provenance] rather than silently folded in. *)
let fallback_outcome t g =
  let cfg = model_config t in
  let clock = Array.make (max 1 g.n_qubits) 0.0 in
  let keep = ref 1.0 in
  Gate.iter_primitives
    (fun k qs w ->
      (* a primitive's table pulse depends on its gate alone *)
      let l =
        Latency_model.fixed_gate_latency cfg { Gate.kind = k; qubits = qs }
      in
      let start =
        List.fold_left (fun m q -> Float.max m clock.(Gate.wire w q)) 0.0 qs
      in
      List.iter (fun q -> clock.(Gate.wire w q) <- start +. l) qs;
      let e =
        Latency_model.group_error cfg ~latency:l ~n_qubits:(List.length qs)
      in
      keep := !keep *. (1.0 -. e))
    g.gates;
  let latency = Array.fold_left Float.max 0.0 clock in
  let error = 1.0 -. !keep in
  { latency;
    error;
    gen_seconds = 0.0;  (* table lookups; the wasted QOC attempts are
                           charged by the retry loop *)
    cache_hit = false;
    seeded = false;
    fidelity = 1.0 -. error;
    pulse = None;
    provenance = Fallback;
    attempts = 0
  }

(* One synthesis; touches neither the tables nor the accounting, so it is
   safe to run on a worker domain without [t.lock].

   Resilience lives here: each task gets up to [retry.max_attempts]
   perturbed tries at QOC, and when they all fail it degrades to
   {!fallback_outcome} — compile always returns a schedule. Wasted attempt
   seconds are carried into whichever outcome finally wins. *)
let synthesize t ~g ~k ~cls ~seed_pulse ~prefix_latency =
  Obs.with_span "generator.synthesize" @@ fun () ->
  let seeded = cls <> C_cold in
  let policy = t.retry in
  let deadline =
    Option.map (fun s -> Clock.now_s () +. s) policy.task_seconds
  in
  let attempt_once attempt =
    match t.backend with
    | Model cfg ->
      let latency =
        Latency_model.group_latency cfg ~n_qubits:g.n_qubits ~key:k g.gates
      in
      let error = Latency_model.group_error cfg ~latency ~n_qubits:g.n_qubits in
      let gen_seconds =
        if latency <= 0.0 || is_table_entry g then lookup_cost
        else
          match cls with
          | C_prefix ->
            Latency_model.incremental_cost cfg ~latency ~prefix_latency
              ~n_qubits:g.n_qubits
          | C_shape ->
            Latency_model.generation_cost cfg ~latency ~n_qubits:g.n_qubits
              ~seeded:true
          | C_similar ->
            Latency_model.similar_factor
            *. Latency_model.generation_cost cfg ~latency ~n_qubits:g.n_qubits
                 ~seeded:false
          | C_cold ->
            Latency_model.generation_cost cfg ~latency ~n_qubits:g.n_qubits
              ~seeded:false
      in
      (* the model backend simulates the QOC engine's cost, so injected
         engine faults fire here exactly as they would inside a real
         search — the failed attempt is charged its simulated cost *)
      if Faultin.fire Faultin.Grape_diverge || Faultin.fire Faultin.Timeout
      then Error (Duration_search.Injected_fault, gen_seconds)
      else
        Ok
          { latency;
            error;
            gen_seconds;
            cache_hit = false;
            seeded;
            fidelity = 1.0 -. error;
            pulse = None;
            provenance = Synthesized;
            attempts = attempt + 1
          }
    | Qoc (search_cfg, model_cfg) -> (
      let r, elapsed =
        run_qoc search_cfg model_cfg g ~device:t.device ~seed_pulse
          ~retry:policy ~attempt ~deadline
      in
      match r with
      | Ok r ->
        let achieved = r.Duration_search.fidelity in
        Ok
          { latency = r.Duration_search.latency;
            error = 1.0 -. achieved;
            gen_seconds = elapsed;
            cache_hit = false;
            seeded;
            fidelity = achieved;
            pulse = Some r.Duration_search.pulse;
            provenance = Synthesized;
            attempts = attempt + 1
          }
      | Error e -> Error (e.Duration_search.status, elapsed))
  in
  let rec go attempt wasted =
    match attempt_once attempt with
    | Ok o -> { o with gen_seconds = o.gen_seconds +. wasted }
    | Error (status, cost) ->
      Obs.count ("generator.attempt." ^ Duration_search.status_name status);
      let wasted = wasted +. cost in
      let out_of_time =
        match deadline with Some d -> Clock.now_s () > d | None -> false
      in
      if attempt + 1 < policy.max_attempts && not out_of_time then begin
        Obs.count "generator.retry";
        go (attempt + 1) wasted
      end
      else
        let fb = fallback_outcome t g in
        { fb with gen_seconds = fb.gen_seconds +. wasted;
          attempts = attempt + 1 }
  in
  go 0 0.0

(* Fan the syntheses out across the pool, level by level along the
   in-batch seed dependencies (level 0 tasks only need the pre-batch
   database; a task seeded by task [j] runs one level after [j]).

   Outcomes flow back through the pool's value-carrying futures: only the
   submitting domain writes [results], at [Pool.await] — worker domains
   never touch shared mutable state, so there is no unsynchronized
   cross-domain access to the array. *)
let execute pool t plans =
  let n = Array.length plans in
  let results = Array.make n None in
  let level = Array.make n (-1) in
  let max_level = ref (-1) in
  Array.iteri
    (fun i p ->
      (match p with
      | P_synth { src = Src_batch j; _ } -> level.(i) <- level.(j) + 1
      | P_synth _ -> level.(i) <- 0
      | P_hit_db _ | P_hit_batch _ | P_replay_batch _ -> ());
      if level.(i) > !max_level then max_level := level.(i))
    plans;
  let outcome_of j =
    match results.(j) with Some o -> o | None -> assert false
  in
  for l = 0 to !max_level do
    let futures = ref [] in
    Array.iteri
      (fun i p ->
        if level.(i) = l then
          match p with
          | P_synth { g; k; cls; src; _ } ->
            let seed_pulse, prefix_latency =
              match src with
              | Src_none -> (None, 0.0)
              | Src_db (pulse, lat) -> (pulse, lat)
              | Src_batch j ->
                let o = outcome_of j in
                (o.pulse, o.latency)
            in
            let thunk () =
              synthesize t ~g ~k ~cls ~seed_pulse ~prefix_latency
            in
            let fut = Pool.submit pool thunk in
            futures := (i, fut, thunk) :: !futures
          | P_hit_db _ | P_hit_batch _ | P_replay_batch _ -> ())
      plans;
    List.iter
      (fun (i, fut, thunk) ->
        let o =
          try Pool.await fut
          with Faultin.Injected _ ->
            (* the worker "crashed" on this task: recover by replaying the
               thunk inline on the submitting domain. The thunk never
               touches shared state, so the replayed outcome is the one the
               lost worker would have committed — results stay
               byte-identical no matter which tasks crash. *)
            Obs.count "pool.task_recovered";
            thunk ()
        in
        results.(i) <- Some o)
      (List.rev !futures)
  done;
  results

(* Apply outcomes in input order; call with [t.lock] held. This replays the
   serial loop's side effects exactly, so accounting and tables end up
   independent of how the execution interleaved. *)
let commit_batch t plans results =
  let ns = Device.cache_namespace t.device in
  let outcome_of j =
    match results.(j) with Some o -> o | None -> assert false
  in
  Array.mapi
    (fun i p ->
      match p with
      | P_hit_db o ->
        t.hits <- t.hits + 1;
        t.seconds <- t.seconds +. lookup_cost;
        Obs.count "generator.cache_hit";
        { o with cache_hit = true; gen_seconds = lookup_cost }
      | P_hit_batch j ->
        t.hits <- t.hits + 1;
        t.seconds <- t.seconds +. lookup_cost;
        Obs.count "generator.cache_hit";
        { (outcome_of j) with cache_hit = true; gen_seconds = lookup_cost }
      | P_replay_batch { j; k; sign = _; rep_key; l; r; target } ->
        (* class-mate of a task synthesised earlier in this batch: price
           as the representative's entry, exactly as a shared class hit
           would have (the consult was already scored at plan time) *)
        let ro = outcome_of j in
        t.hits <- t.hits + 1;
        t.seconds <- t.seconds +. lookup_cost;
        Obs.count "generator.cache_hit";
        let o =
          { latency = ro.latency;
            error = ro.error;
            gen_seconds = lookup_cost;
            cache_hit = true;
            seeded = false;
            fidelity = ro.fidelity;
            pulse = None;
            provenance = ro.provenance;
            attempts = 0
          }
        in
        table_put t k o;
        Hashtbl.replace t.replays k
          { rep_key;
            correction_l = l;
            correction_r = r;
            rep_pulse = ro.pulse;
            target
          };
        o
      | P_synth { g; k; sign; shape; cls; canon; _ } ->
        let o = outcome_of i in
        (match cls with
        | C_cold ->
          t.n_cold <- t.n_cold + 1;
          Obs.count "generator.seed.cold"
        | C_prefix ->
          t.n_prefix <- t.n_prefix + 1;
          Obs.count "generator.seed.prefix"
        | C_shape ->
          t.n_shape <- t.n_shape + 1;
          Obs.count "generator.seed.shape"
        | C_similar ->
          t.n_similar <- t.n_similar + 1;
          Obs.count "generator.seed.similar");
        (match o.provenance with
        | Fallback ->
          t.n_fallback <- t.n_fallback + 1;
          Obs.count "generator.fallback"
        | Synthesized -> ());
        table_put t k o;
        (match Hashtbl.find_opt t.by_shape sign with
        | Some r -> r.wave <- o.pulse
        | None ->
          shape.wave <- o.pulse;
          Hashtbl.replace t.by_shape sign shape);
        (* share synthesized pulses with other compilations and future
           runs; fallbacks are this run's degradation and must not poison
           the cross-run cache. The commit phase is serial and in input
           order, so the journal bytes are independent of [jobs]. *)
        (match (t.shared, o.provenance) with
        | Some c, Synthesized -> (
          try
            Cache.publish c (ns ^ k) (entry_of_outcome o);
            Cache.publish_shape c (ns ^ sign);
            (match canon with
            | Some (ck, u) ->
              (* first-publisher-wins inside [publish_class], and the
                 commit phase is serial, so the class representative is
                 independent of the worker count. Both the class key and
                 the representative key are published fully-qualified,
                 so the class tier is device-scoped end to end *)
              Cache.publish_class c
                { Db_format.class_key = ns ^ ck;
                  n_qubits = g.n_qubits;
                  unitary = Canon.unitary_to_floats u;
                  rep_key = ns ^ k
                }
            | None -> ())
          with Failure _ ->
            (* persistence degraded, compilation unaffected: the entry
               stays live in the shared cache's memory and lands on disk
               at the next successful compaction *)
            Obs.count "cache.publish_error")
        | _ -> ());
        t.generated <- t.generated + 1;
        t.seconds <- t.seconds +. o.gen_seconds;
        Obs.count "generator.generated";
        o)
    plans

let generate_batch ?(jobs = 1) t groups =
  let groups = Array.of_list groups in
  let plan () = Obs.with_span "generator.plan" (fun () -> plan_batch t groups) in
  let exec ~jobs plans =
    Obs.with_span "generator.execute" (fun () ->
        Pool.with_pool ~jobs (fun pool -> execute pool t plans))
  in
  let commit plans results =
    Obs.with_span "generator.commit" (fun () ->
        Array.to_list (commit_batch t plans results))
  in
  if Array.length groups = 0 then []
  else if jobs <= 1 then
    (* fully serial: one lock for the whole batch, inline pool *)
    locked t (fun () ->
        let plans = plan () in
        let results = exec ~jobs:1 plans in
        commit plans results)
  else begin
    let plans = locked t plan in
    let results = exec ~jobs plans in
    locked t (fun () -> commit plans results)
  end

let generate t g =
  match generate_batch t [ g ] with [ o ] -> o | _ -> assert false

let peek t g =
  locked t (fun () ->
      match Hashtbl.find_opt t.cache (key g) with
      | Some o -> Some { o with cache_hit = true; gen_seconds = 0.0 }
      | None -> None)

let table_latency t k =
  locked t (fun () ->
      Option.map (fun (o : outcome) -> o.latency) (Hashtbl.find_opt t.cache k))

let price_epoch t = locked t (fun () -> t.price_epoch)

let written_since t epoch =
  locked t (fun () ->
      let rec collect i acc =
        if i < max 0 epoch then acc else collect (i - 1) (t.written.(i) :: acc)
      in
      collect (t.price_epoch - 1) [])

let seed_breakdown t =
  locked t (fun () -> (t.n_cold, t.n_prefix, t.n_shape, t.n_similar))

let total_seconds t = locked t (fun () -> t.seconds)
let pulses_generated t = locked t (fun () -> t.generated)
let cache_hits t = locked t (fun () -> t.hits)
let fallbacks t = locked t (fun () -> t.n_fallback)

let reset_accounting t =
  locked t (fun () ->
      t.seconds <- 0.0;
      t.generated <- 0;
      t.hits <- 0;
      t.n_fallback <- 0)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

(* The per-generator snapshot is a v2 file written by {!Db_format.write}
   (sorted, so serial and parallel runs over the same batch produce
   byte-identical files; atomic, so a failed save never leaves a
   truncated database). *)
let save_database t path =
  locked t (fun () ->
      let entries =
        Hashtbl.fold (fun key o acc -> (key, entry_of_outcome o) :: acc)
          t.cache []
      in
      let shapes = Hashtbl.fold (fun sign _ acc -> sign :: acc) t.by_shape [] in
      Db_format.write ~what:"Generator.save_database" Db_format.V2 path
        entries shapes)

(* Parsing is delegated to {!Db_format}, which understands all three
   on-disk generations — v1/v2 snapshots and the v3 journal the shared
   {!Cache} maintains — with the same error messages this function has
   always raised. Merging is first-wins against the in-memory table (a
   loaded file never overrides entries the generator already priced). *)
let load_database t path =
  locked t (fun () ->
      let fail msg =
        failwith (Printf.sprintf "Generator.load_database: %s (%s)" msg path)
      in
      let c =
        match Db_format.parse_file path with
        | Ok c -> c
        | Error msg -> fail msg
      in
      let add = function
        | Db_format.Priced (key, e) ->
          if not (Hashtbl.mem t.cache key) then
            table_put t key (outcome_of_entry e)
        | Db_format.Shape sign ->
          if not (Hashtbl.mem t.by_shape sign) then
            Hashtbl.replace t.by_shape sign (new_shape None)
        | Db_format.Class _ ->
          (* class records belong to the shared cache's tier; the
             per-run table neither stores nor writes them (it saves v2) *)
          ()
      in
      List.iter add c.Db_format.snapshot;
      List.iter add c.Db_format.journal)

let database_size t = locked t (fun () -> Hashtbl.length t.cache)
