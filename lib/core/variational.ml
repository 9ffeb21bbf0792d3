module Circuit = Paqoc_circuit.Circuit
module Gate = Paqoc_circuit.Gate
module Angle = Paqoc_circuit.Angle
module Dag = Paqoc_circuit.Dag
module Apa = Paqoc_mining.Apa
module Miner = Paqoc_mining.Miner
module Gen = Paqoc_pulse.Generator
module Pulse = Paqoc_pulse.Pulse
module Fidelity = Paqoc_linalg.Fidelity

exception Unbound_parameters of string list

let () =
  Printexc.register_printer (function
    | Unbound_parameters ps ->
      Some
        (Printf.sprintf "Variational.Unbound_parameters [%s]"
           (String.concat "; " ps))
    | _ -> None)

type prepared = {
  substituted : Circuit.t;  (** symbolic circuit with APA gates in place *)
  apa : Apa.result;
  scheme : Framework.scheme;
}

let default_scheme =
  { Framework.paqoc_minf with
    miner = { Miner.default_config with min_support = 2 }
  }

let prepare ?(scheme = default_scheme) symbolic =
  let apa = Apa.apply ~miner:scheme.Framework.miner ~mode:scheme.Framework.apa_mode symbolic in
  { substituted = apa.Apa.circuit; apa; scheme }

let apa_gates p = p.apa.Apa.apa_gates

let compile p gen bindings =
  let bound = Circuit.bind_params bindings p.substituted in
  (match Circuit.free_params bound with
  | [] -> ()
  | missing -> raise (Unbound_parameters missing));
  (* the APA substitution already happened offline: run the online scheme
     with mining disabled *)
  let online = { p.scheme with Framework.apa_mode = Apa.M_zero } in
  Framework.compile ~scheme:online gen bound

(* ---- the frozen compile plan ---- *)

type priced = {
  latency : float;
  error : float;
  fidelity : float;
  provenance : Gen.provenance;
}

type anchor = { value : float; priced : priced; wave : Pulse.t option }

type slot =
  | Static of { gate : Gate.app; priced : priced }
  | Param of {
      gate : Gate.app;
      param : string;
      mutable anchors : anchor list;  (** sorted by [value] *)
    }
  | Multi of { gate : Gate.app; params : string list }

type plan = {
  n_qubits : int;
  params : string list;
  anchor_grid : float list;
  slots : slot array;
  mutable sched_dag : Dag.t option;
      (** dependence DAG over the frozen slots, built on first pricing
          and reused for every iteration — edges depend only on qubit
          sets, which binding angles never changes. Never persisted. *)
}

let plan_params plan = plan.params
let plan_anchor_values plan = plan.anchor_grid

let plan_slot_kinds plan =
  Array.fold_left
    (fun (s, p, m) -> function
      | Static _ -> (s + 1, p, m)
      | Param _ -> (s, p + 1, m)
      | Multi _ -> (s, p, m + 1))
    (0, 0, 0) plan.slots

let slot_gate = function
  | Static { gate; _ } -> gate
  | Param { gate; _ } -> gate
  | Multi { gate; _ } -> gate

let priced_of (o : Gen.outcome) =
  { latency = o.Gen.latency;
    error = o.Gen.error;
    fidelity = o.Gen.fidelity;
    provenance = o.Gen.provenance
  }

let group_of (g : Gate.app) = fst (Gen.group_of_apps [ g ])

let anchor_grid n =
  if n < 2 then invalid_arg "Variational.freeze: need at least 2 anchors";
  List.init n (fun i ->
      2.0 *. Angle.pi *. float_of_int i /. float_of_int (n - 1))

let require_bound plan angles =
  match
    List.filter (fun p -> not (List.mem_assoc p angles)) plan.params
  with
  | [] -> ()
  | missing -> raise (Unbound_parameters missing)

let bind_app angles (g : Gate.app) =
  { g with Gate.kind = Gate.bind_params angles g.Gate.kind }

let freeze ?(anchors = 5) ?(jobs = 1) p gen =
  let grid = anchor_grid anchors in
  (* The structure pass (Observation-1 preprocessing plus the criticality
     search) runs on a fresh analytic twin: the merger must price symbolic
     groups, which only the model backend can (QOC would have to evaluate
     an unbound unitary). The twin is throwaway — the plan keeps only the
     group structure, and every anchor pulse below is synthesised through
     the caller's real generator. *)
  let twin = Gen.model_default () in
  let pre =
    Candidates.preprocess p.substituted
      ~maxN:p.scheme.Framework.merger.Merger.max_n
  in
  let grouped = fst (Merger.run ~config:p.scheme.Framework.merger twin pre) in
  let classify (g : Gate.app) =
    match List.sort_uniq String.compare (Gate.free_params g.Gate.kind) with
    | [] -> `Static
    | [ prm ] -> `Param prm
    | ps -> `Multi ps
  in
  let specs =
    List.map
      (fun (g : Gate.app) ->
        match classify g with
        | `Static -> (g, `Static, [ g ])
        | `Param prm ->
          (g, `Param prm, List.map (fun v -> bind_app [ (prm, v) ] g) grid)
        | `Multi ps -> (g, `Multi ps, []))
      grouped.Circuit.gates
  in
  (* one batch over every static gate and every anchor of every
     single-parameter gate: [generate_batch]'s determinism guarantee makes
     the plan a pure function of the circuit at any [jobs] *)
  let batch =
    List.concat_map (fun (_, _, bs) -> List.map group_of bs) specs
  in
  let outcomes = ref (Gen.generate_batch ~jobs gen batch) in
  let take n =
    let rec go acc n rest =
      if n = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> invalid_arg "Variational.freeze: batch underflow"
        | o :: tl -> go (o :: acc) (n - 1) tl
    in
    let taken, rest = go [] n !outcomes in
    outcomes := rest;
    taken
  in
  let slots =
    List.map
      (fun (g, cls, bs) ->
        match cls with
        | `Static ->
          let o = List.hd (take 1) in
          Static { gate = g; priced = priced_of o }
        | `Param param ->
          let os = take (List.length bs) in
          let anchors =
            List.map2
              (fun v o ->
                { value = v; priced = priced_of o; wave = o.Gen.pulse })
              grid os
          in
          Param { gate = g; param; anchors }
        | `Multi params -> Multi { gate = g; params })
      specs
  in
  { n_qubits = grouped.Circuit.n_qubits;
    params = Circuit.free_params p.substituted;
    anchor_grid = grid;
    slots = Array.of_list slots;
    sched_dag = None
  }

(* ---- one fast-path iteration ---- *)

type check = {
  check_key : string;
  check_group : Gen.group;
  check_pulse : Pulse.t;
  predicted : float;
  measured : float;
}

type iteration = {
  latency : float;
  esp : float;
  interp : int;
  fallback : int;
  resynth : int;
  rows : (string * priced) list;  (** canonical key and price, per slot *)
  checks : check list;  (** every interpolated waveform, re-simulatable *)
}

(* Price a bound iteration exactly the way {!Pricing} prices a compile
   result: latency is the critical path of the dependence DAG under the
   per-slot latencies, ESP the product of per-slot success rates. Both the
   fast path and {!recompile_full} go through this one function, so their
   byte identity reduces to outcome equality. *)
let plan_dag plan =
  match plan.sched_dag with
  | Some d -> d
  | None ->
    let c =
      Circuit.make ~n_qubits:plan.n_qubits
        (List.map slot_gate (Array.to_list plan.slots))
    in
    let d = Dag.of_circuit c in
    plan.sched_dag <- Some d;
    d

let price plan pairs =
  let keyed =
    Array.of_list
      (List.map
         (fun ((g : Gate.app), pr) -> (Gen.key (group_of g), g, pr))
         pairs)
  in
  (* the DAG is built from the symbolic slot gates and cached in the
     plan: binding angles never changes qubit sets, so the dependence
     structure is iteration-invariant, and its node [i] is slot [i] *)
  let sched =
    Dag.schedule (plan_dag plan)
      ~latency:(Array.map (fun (_, _, (pr : priced)) -> pr.latency) keyed)
  in
  let esp =
    Array.fold_left
      (fun acc (_, _, (pr : priced)) -> acc *. (1.0 -. pr.error))
      1.0 keyed
  in
  ( sched.Dag.total,
    esp,
    List.map (fun (k, _, pr) -> (k, pr)) (Array.to_list keyed) )

let lerp_pulses t (lo : Pulse.t) (hi : Pulse.t) =
  let slices =
    let s =
      ((1.0 -. t) *. float_of_int (Pulse.slices lo))
      +. (t *. float_of_int (Pulse.slices hi))
    in
    max 1 (int_of_float (Float.round s))
  in
  let a = Pulse.resample lo ~slices and b = Pulse.resample hi ~slices in
  let nc = Pulse.n_controls a in
  let amplitudes =
    Array.init slices (fun j ->
        Array.init nc (fun k ->
            ((1.0 -. t) *. a.Pulse.amplitudes.(j).(k))
            +. (t *. b.Pulse.amplitudes.(j).(k))))
  in
  { Pulse.dt = lo.Pulse.dt; amplitudes }

let recompile ?(interp_tol = 1e-6) plan gen ~angles =
  require_bound plan angles;
  let interp = ref 0 and fallback = ref 0 and resynth = ref 0 in
  let checks = ref [] in
  let eval_slot slot =
    match slot with
    | Static { gate; priced } -> (gate, priced)
    | Multi { gate; _ } ->
      let bound = bind_app angles gate in
      let o = Gen.generate gen (group_of bound) in
      incr resynth;
      (bound, priced_of o)
    | Param ({ gate; param; _ } as s) ->
      let v = List.assoc param angles in
      let bound = bind_app angles gate in
      (* real synthesis through the generator (publishing to any shared
         cache attached to it), then adopt the result as a new anchor so
         the sweep never pays for this angle twice *)
      let synth_and_adopt () =
        let o = Gen.generate gen (group_of bound) in
        s.anchors <-
          List.sort
            (fun a b -> compare a.value b.value)
            ({ value = v; priced = priced_of o; wave = o.Gen.pulse }
            :: s.anchors);
        incr fallback;
        (bound, priced_of o)
      in
      (match List.find_opt (fun a -> a.value = v) s.anchors with
      | Some a ->
        incr interp;
        (bound, a.priced)
      | None ->
        let lo_v = (List.hd s.anchors).value in
        let hi_v =
          (List.nth s.anchors (List.length s.anchors - 1)).value
        in
        if v < lo_v || v > hi_v then
          (* outside the anchor hull: extrapolation is not trusted *)
          synth_and_adopt ()
        else if Gen.pricing_is_analytic gen then begin
          (* the analytic backend prices any angle in closed form, so the
             "interpolation" is exact: a direct lookup, no waveform *)
          let o = Gen.generate gen (group_of bound) in
          incr interp;
          (bound, priced_of o)
        end
        else begin
          let rec bracket = function
            | lo :: hi :: rest ->
              if lo.value < v && v < hi.value then Some (lo, hi)
              else bracket (hi :: rest)
            | _ -> None
          in
          match bracket s.anchors with
          | Some (lo, hi) -> (
            match (lo.wave, hi.wave) with
            | Some plo, Some phi ->
              let t = (v -. lo.value) /. (hi.value -. lo.value) in
              let pulse = lerp_pulses t plo phi in
              let predicted =
                ((1.0 -. t) *. lo.priced.fidelity)
                +. (t *. hi.priced.fidelity)
              in
              let grp = group_of bound in
              let target =
                Gate.unitary_of_apps ~n_qubits:grp.Gen.n_qubits grp.Gen.gates
              in
              let measured =
                Fidelity.gate_fidelity target
                  (Pulse.propagator (Gen.hamiltonian_of grp) pulse)
              in
              if abs_float (predicted -. measured) <= interp_tol then begin
                incr interp;
                checks :=
                  { check_key = Gen.key grp;
                    check_group = grp;
                    check_pulse = pulse;
                    predicted;
                    measured
                  }
                  :: !checks;
                ( bound,
                  { latency = Pulse.duration pulse;
                    error = 1.0 -. measured;
                    fidelity = measured;
                    provenance = Gen.Synthesized
                  } )
              end
              else synth_and_adopt ()
            | _ ->
              (* an anchor without a waveform cannot interpolate *)
              synth_and_adopt ())
          | None -> synth_and_adopt ()
        end)
  in
  (* explicit left fold: slot side effects (anchor adoption, generator
     commits, counters) must happen in slot order *)
  let pairs =
    List.rev
      (Array.fold_left (fun acc s -> eval_slot s :: acc) [] plan.slots)
  in
  let latency, esp, rows = price plan pairs in
  { latency;
    esp;
    interp = !interp;
    fallback = !fallback;
    resynth = !resynth;
    rows;
    checks = List.rev !checks
  }

let recompile_full ?(jobs = 1) plan gen ~angles =
  require_bound plan angles;
  let bound =
    List.map
      (fun s -> bind_app angles (slot_gate s))
      (Array.to_list plan.slots)
  in
  let outcomes = Gen.generate_batch ~jobs gen (List.map group_of bound) in
  let pairs = List.map2 (fun g o -> (g, priced_of o)) bound outcomes in
  let latency, esp, rows = price plan pairs in
  { latency;
    esp;
    interp = 0;
    fallback = 0;
    resynth = List.length pairs;
    rows;
    checks = []
  }

(* ---- seeded sweep angles ---- *)

let sweep_angles ?(seed = 11) ~n params =
  List.init n (fun i ->
      let rng = Random.State.make [| seed; i |] in
      List.map
        (fun p -> (p, Random.State.float rng (2.0 *. Angle.pi)))
        params)

(* ---- plan persistence: "paqoc-plan v1" ---- *)

type parse_error = { line : int; reason : string }

let magic = "paqoc-plan v1"

exception Bad_token of string

let delimiter_free name =
  String.for_all
    (fun c ->
      not
        (c = ' ' || c = '@' || c = '|' || c = '{' || c = '}' || c = ':'
       || c = '(' || c = ')' || c = ';' || c = ',' || c = '\n'))
    name

let render_angle buf = function
  | Angle.Const f ->
    Buffer.add_char buf 'C';
    Buffer.add_string buf (Printf.sprintf "%h" f)
  | Angle.Sym s ->
    Buffer.add_char buf 'S';
    Buffer.add_string buf s
  | Angle.Scaled (s, k) ->
    Buffer.add_char buf 'K';
    Buffer.add_string buf (Printf.sprintf "%h" k);
    Buffer.add_char buf ':';
    Buffer.add_string buf s

let rec render_kind buf (k : Gate.kind) =
  let one tag a =
    Buffer.add_string buf tag;
    Buffer.add_char buf '(';
    render_angle buf a;
    Buffer.add_char buf ')'
  in
  match k with
  | Gate.RX a -> one "rx" a
  | Gate.RY a -> one "ry" a
  | Gate.RZ a -> one "rz" a
  | Gate.CPhase a -> one "cp" a
  | Gate.U3 (a, b, c) ->
    Buffer.add_string buf "u3(";
    render_angle buf a;
    Buffer.add_char buf ';';
    render_angle buf b;
    Buffer.add_char buf ';';
    render_angle buf c;
    Buffer.add_char buf ')'
  | Gate.Custom c ->
    if not (delimiter_free c.Gate.cname) then
      raise
        (Bad_token
           (Printf.sprintf "custom name %S contains a delimiter"
              c.Gate.cname));
    Buffer.add_string buf "!{";
    Buffer.add_string buf c.Gate.cname;
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int c.Gate.arity);
    Buffer.add_char buf ':';
    List.iteri
      (fun i g ->
        if i > 0 then Buffer.add_char buf '|';
        render_app buf g)
      c.Gate.body;
    Buffer.add_char buf '}'
  | k -> Buffer.add_string buf (Gate.name k)

and render_app buf (g : Gate.app) =
  render_kind buf g.Gate.kind;
  Buffer.add_char buf '@';
  Buffer.add_string buf
    (String.concat "," (List.map string_of_int g.Gate.qubits))

let app_token g =
  let buf = Buffer.create 64 in
  render_app buf g;
  Buffer.contents buf

let plain_kind_of_name = function
  | "id" -> Gate.I
  | "x" -> Gate.X
  | "y" -> Gate.Y
  | "z" -> Gate.Z
  | "h" -> Gate.H
  | "s" -> Gate.S
  | "sdg" -> Gate.Sdg
  | "t" -> Gate.T
  | "tdg" -> Gate.Tdg
  | "sx" -> Gate.SX
  | "sxdg" -> Gate.SXdg
  | "cx" -> Gate.CX
  | "cz" -> Gate.CZ
  | "swap" -> Gate.SWAP
  | "ccx" -> Gate.CCX
  | other -> raise (Bad_token (Printf.sprintf "unknown gate %S" other))

let app_of_token s =
  let n = String.length s in
  let pos = ref 0 in
  let fail reason = raise (Bad_token reason) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C at offset %d" c !pos)
  in
  let take_while pred =
    let start = !pos in
    while !pos < n && pred s.[!pos] do
      advance ()
    done;
    String.sub s start (!pos - start)
  in
  let parse_float stop =
    let tok = take_while (fun c -> not (stop c)) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad float %S" tok)
  in
  let parse_angle stop =
    match peek () with
    | Some 'C' ->
      advance ();
      Angle.Const (parse_float stop)
    | Some 'S' ->
      advance ();
      Angle.Sym (take_while (fun c -> not (stop c)))
    | Some 'K' ->
      advance ();
      let k = parse_float (fun c -> c = ':') in
      expect ':';
      let name = take_while (fun c -> not (stop c)) in
      Angle.Scaled (name, k)
    | _ -> fail "expected an angle token"
  in
  let parse_int stop =
    let tok = take_while (fun c -> not (stop c)) in
    match int_of_string_opt tok with
    | Some i -> i
    | None -> fail (Printf.sprintf "bad integer %S" tok)
  in
  let rec parse_app () =
    let kind = parse_kind () in
    expect '@';
    let rec qubits acc =
      let q =
        parse_int (fun c -> c = ',' || c = '|' || c = '}')
      in
      match peek () with
      | Some ',' ->
        advance ();
        qubits (q :: acc)
      | _ -> List.rev (q :: acc)
    in
    let qs = qubits [] in
    (try Gate.app kind qs
     with Invalid_argument m -> fail m)
  and parse_kind () =
    if !pos + 1 < n && s.[!pos] = '!' && s.[!pos + 1] = '{' then begin
      pos := !pos + 2;
      let cname = take_while (fun c -> c <> ':') in
      expect ':';
      let arity = parse_int (fun c -> c = ':') in
      expect ':';
      let rec body acc =
        let g = parse_app () in
        match peek () with
        | Some '|' ->
          advance ();
          body (g :: acc)
        | _ -> List.rev (g :: acc)
      in
      let b = body [] in
      expect '}';
      try Gate.Custom (Gate.make_custom ~name:cname ~arity b)
      with Invalid_argument m -> fail m
    end
    else
      let name = take_while (fun c -> c <> '(' && c <> '@') in
      match peek () with
      | Some '(' -> (
        advance ();
        let close c = c = ')' in
        let semi_or_close c = c = ';' || c = ')' in
        match name with
        | "rx" | "ry" | "rz" | "cp" ->
          let a = parse_angle close in
          expect ')';
          (match name with
          | "rx" -> Gate.RX a
          | "ry" -> Gate.RY a
          | "rz" -> Gate.RZ a
          | _ -> Gate.CPhase a)
        | "u3" ->
          let a = parse_angle semi_or_close in
          expect ';';
          let b = parse_angle semi_or_close in
          expect ';';
          let c = parse_angle close in
          expect ')';
          Gate.U3 (a, b, c)
        | other -> fail (Printf.sprintf "gate %S takes no parameters" other))
      | _ -> plain_kind_of_name name
  in
  let app = parse_app () in
  if !pos <> n then fail "trailing characters after gate token";
  app

let provenance_token = function
  | Gen.Synthesized -> "synthesized"
  | Gen.Fallback -> "fallback"

let render_priced buf (p : priced) =
  Printf.bprintf buf "O %h %h %h %s\n" p.latency p.error p.fidelity
    (provenance_token p.provenance)

let plan_to_string plan =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "Q %d\n" plan.n_qubits;
  List.iter
    (fun p ->
      if not (delimiter_free p) then
        raise
          (Bad_token (Printf.sprintf "parameter name %S contains a delimiter" p)))
    plan.params;
  Printf.bprintf buf "P%s\n"
    (String.concat "" (List.map (fun p -> " " ^ p) plan.params));
  Printf.bprintf buf "V%s\n"
    (String.concat ""
       (List.map (fun v -> Printf.sprintf " %h" v) plan.anchor_grid));
  Printf.bprintf buf "N %d\n" (Array.length plan.slots);
  Array.iter
    (function
      | Static { gate; priced } ->
        Printf.bprintf buf "S %s\n" (app_token gate);
        render_priced buf priced
      | Param { gate; param; anchors } ->
        Printf.bprintf buf "R %s %s\n" param (app_token gate);
        List.iter
          (fun a ->
            Printf.bprintf buf "A %h\n" a.value;
            render_priced buf a.priced;
            match a.wave with
            | None -> ()
            | Some p ->
              Printf.bprintf buf "W %h %d %d" p.Pulse.dt (Pulse.slices p)
                (Pulse.n_controls p);
              Array.iter
                (fun row ->
                  Array.iter (fun u -> Printf.bprintf buf " %h" u) row)
                p.Pulse.amplitudes;
              Buffer.add_char buf '\n')
          anchors
      | Multi { gate; params } ->
        Printf.bprintf buf "M %s %s\n" (String.concat "," params)
          (app_token gate))
    plan.slots;
  Buffer.contents buf

exception Perr of int * string

let plan_of_string text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let cursor = ref 0 in
  let fail ?at reason =
    raise (Perr (Option.value at ~default:(!cursor + 1), reason))
  in
  let peek_line () =
    if !cursor < Array.length lines then Some lines.(!cursor) else None
  in
  let next_line () =
    match peek_line () with
    | Some l ->
      incr cursor;
      l
    | None -> fail "unexpected end of plan"
  in
  let fields l = String.split_on_char ' ' l in
  (* [plan_to_string]'s %h never writes inf or nan, and a waveform
     number must be finite to re-simulate *)
  let float_field ~at tok =
    match float_of_string_opt tok with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail ~at (Printf.sprintf "non-finite number %S" tok)
    | None -> fail ~at (Printf.sprintf "bad float %S" tok)
  in
  let int_field ~at tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> fail ~at (Printf.sprintf "bad integer %S" tok)
  in
  let app_field ~at tok =
    try app_of_token tok with Bad_token m -> fail ~at m
  in
  let parse_priced () =
    let at = !cursor + 1 in
    match fields (next_line ()) with
    | [ "O"; lat; err; fid; prov ] ->
      let provenance =
        match prov with
        | "synthesized" -> Gen.Synthesized
        | "fallback" -> Gen.Fallback
        | other ->
          fail ~at (Printf.sprintf "unknown provenance %S" other)
      in
      { latency = float_field ~at lat;
        error = float_field ~at err;
        fidelity = float_field ~at fid;
        provenance
      }
    | _ -> fail ~at "expected an O outcome line"
  in
  let parse_wave () =
    match peek_line () with
    | Some l when String.length l >= 2 && String.sub l 0 2 = "W " -> (
      let at = !cursor + 1 in
      ignore (next_line ());
      match fields l with
      | "W" :: dt :: slices :: nctrl :: amps ->
        let dt = float_field ~at dt in
        let slices = int_field ~at slices in
        let nctrl = int_field ~at nctrl in
        if slices <= 0 || nctrl <= 0 then fail ~at "bad waveform shape";
        (* compared without multiplying: slices * nctrl can overflow *)
        let n = List.length amps in
        if n mod nctrl <> 0 || n / nctrl <> slices then
          fail ~at
            (Printf.sprintf "waveform carries %d amplitudes, expected %d x %d"
               n slices nctrl);
        let flat = Array.of_list (List.map (float_field ~at) amps) in
        let amplitudes =
          Array.init slices (fun j ->
              Array.init nctrl (fun k -> flat.((j * nctrl) + k)))
        in
        Some { Pulse.dt; amplitudes }
      | _ -> fail ~at "malformed W waveform line")
    | _ -> None
  in
  try
    (match next_line () with
    | l when l = magic -> ()
    | l -> fail ~at:1 (Printf.sprintf "bad magic %S (expected %S)" l magic));
    let n_qubits =
      let at = !cursor + 1 in
      match fields (next_line ()) with
      | [ "Q"; nq ] -> int_field ~at nq
      | _ -> fail ~at "expected a Q qubit-count line"
    in
    let params =
      let at = !cursor + 1 in
      match fields (next_line ()) with
      | "P" :: ps -> ps
      | _ -> fail ~at "expected a P parameter line"
    in
    let anchor_grid =
      let at = !cursor + 1 in
      match fields (next_line ()) with
      | "V" :: vs -> List.map (float_field ~at) vs
      | _ -> fail ~at "expected a V anchor-grid line"
    in
    let n_at = !cursor + 1 in
    let n_slots =
      match fields (next_line ()) with
      | [ "N"; c ] -> int_field ~at:n_at c
      | _ -> fail ~at:n_at "expected an N slot-count line"
    in
    if n_slots < 0 then fail ~at:n_at "negative slot count";
    let check_fits ~at (g : Gate.app) =
      List.iter
        (fun q ->
          if q < 0 || q >= n_qubits then
            fail ~at
              (Printf.sprintf "slot gate uses qubit %d outside 0..%d" q
                 (n_qubits - 1)))
        g.Gate.qubits;
      g
    in
    let parse_slot () =
      let at = !cursor + 1 in
      match fields (next_line ()) with
      | [ "S"; tok ] ->
        let gate = check_fits ~at (app_field ~at tok) in
        let priced = parse_priced () in
        Static { gate; priced }
      | [ "R"; param; tok ] ->
        let gate = check_fits ~at (app_field ~at tok) in
        let rec anchors acc =
          match peek_line () with
          | Some l when String.length l >= 2 && String.sub l 0 2 = "A " -> (
            let at = !cursor + 1 in
            match fields (next_line ()) with
            | [ "A"; v ] ->
              let value = float_field ~at v in
              let priced = parse_priced () in
              let wave = parse_wave () in
              anchors ({ value; priced; wave } :: acc)
            | _ -> fail ~at "malformed A anchor line")
          | _ -> List.rev acc
        in
        let anchors = anchors [] in
        if anchors = [] then fail ~at "parameterised slot has no anchors";
        Param { gate; param; anchors }
      | [ "M"; ps; tok ] ->
        let gate = check_fits ~at (app_field ~at tok) in
        Multi { gate; params = String.split_on_char ',' ps }
      | _ -> fail ~at "expected an S, R or M slot line"
    in
    (* explicit recursion: the parser is stateful, so slot order matters *)
    let rec parse_slots acc k =
      if k = 0 then List.rev acc else parse_slots (parse_slot () :: acc) (k - 1)
    in
    let slots = Array.of_list (parse_slots [] n_slots) in
    (match peek_line () with
    | Some "" | None -> ()
    | Some l -> fail (Printf.sprintf "trailing content %S after slots" l));
    Ok { n_qubits; params; anchor_grid; slots; sched_dag = None }
  with Perr (line, reason) -> Error { line; reason }

let save_plan plan path =
  let rendered = plan_to_string plan in
  Paqoc_obs.Atomic_file.write ~what:"Variational.save_plan" path (fun oc ->
      output_string oc rendered)

let load_plan path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> plan_of_string text
  | exception Sys_error m -> Error { line = 0; reason = m }
