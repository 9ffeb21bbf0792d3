(* paqoc-ir v1: the byte-deterministic pulse-level export format.

   One JSON document per compiled circuit: device metadata (enough to
   rebuild the synthesis Hamiltonian), then the serial schedule — one
   instruction per gate group with its price, provenance and, on the QOC
   backend, the sampled per-channel waveform plus the group's target
   unitary (which is what makes the file self-verifying: [verify]
   re-simulates every waveform and compares the achieved fidelity to the
   recorded one).

   Determinism: the writer emits object keys in sorted order and every
   float as [%.17g] (which round-trips doubles exactly), so the bytes
   are a canonical function of the value — independent of [--jobs], and
   [of_string >> to_string] is the identity on any file the writer
   produced. See docs/pulse-ir.md for the byte-level spec. *)

module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Device = Paqoc_topology.Device
module Gen = Paqoc_pulse.Generator
module Hamiltonian = Paqoc_pulse.Hamiltonian
module Pulse = Paqoc_pulse.Pulse
module Protocol = Paqoc_pulse.Protocol
module Json = Paqoc_obs.Json
module Atomic_file = Paqoc_obs.Atomic_file
module Canon = Paqoc_canon.Canon
module Fidelity = Paqoc_linalg.Fidelity

let version = "paqoc-ir v1"

type provenance = Synthesized | Fallback | Class_replay | Interp

let provenance_name = function
  | Synthesized -> "synthesized"
  | Fallback -> "fallback"
  | Class_replay -> "class_replay"
  | Interp -> "interp"

let provenance_of_name = function
  | "synthesized" -> Some Synthesized
  | "fallback" -> Some Fallback
  | "class_replay" -> Some Class_replay
  | "interp" -> Some Interp
  | _ -> None

type channel = { label : string; samples : float array }

type waveform = {
  dt : float;
  channels : channel list;
  unitary : float array;  (* the group's target, Canon float layout *)
}

type instruction = {
  name : string;
  qubits : int list;
  t0 : float;
  duration : float;
  error : float;
  fidelity : float;
  provenance : provenance;
  waveform : waveform option;
}

type t = {
  backend : string;
  device_name : string;
  device_hash : string;
  device_qubits : int;
  synthesis_mu : float;
  drive_bound : float;
  latency : float;
  esp : float;
  schedule : instruction list;
}

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let of_compiled { Service.result; device; gen; grouped } =
  let replays = Gen.canonical_replays gen in
  let t0 = ref 0.0 in
  let schedule =
    List.map
      (fun app ->
        let group, qubits = Gen.group_of_apps [ app ] in
        let o =
          match Gen.peek gen group with
          | Some o -> o
          | None ->
            failwith
              (Printf.sprintf "pulse-ir: group never priced: %s"
                 (Gen.key group))
        in
        let provenance =
          if List.mem_assoc (Gen.key group) replays then Class_replay
          else
            match o.Gen.provenance with
            | Gen.Synthesized -> Synthesized
            | Gen.Fallback -> Fallback
        in
        let waveform =
          match o.Gen.pulse with
          | None -> None
          | Some p ->
            let h = Gen.hamiltonian_for ~device group in
            let channels =
              Array.to_list
                (Array.mapi
                   (fun k (c : Hamiltonian.control) ->
                     { label = c.Hamiltonian.label;
                       samples =
                         Array.map (fun row -> row.(k)) p.Pulse.amplitudes
                     })
                   h.Hamiltonian.controls)
            in
            let u =
              Gate.unitary_of_apps ~n_qubits:group.Gen.n_qubits
                group.Gen.gates
            in
            Some
              { dt = p.Pulse.dt;
                channels;
                unitary = Canon.unitary_to_floats u
              }
        in
        let start = !t0 in
        t0 := start +. o.Gen.latency;
        { name = Gate.app_to_string app;
          qubits;
          t0 = start;
          duration = o.Gen.latency;
          error = o.Gen.error;
          fidelity = o.Gen.fidelity;
          provenance;
          waveform
        })
      grouped.Circuit.gates
  in
  { backend = (if Gen.pricing_is_analytic gen then "model" else "qoc");
    device_name = Device.name device;
    device_hash = Device.hash device;
    device_qubits = Device.n_qubits device;
    synthesis_mu = Device.synthesis_mu device;
    drive_bound = Device.drive_bound device;
    latency = result.Protocol.latency;
    esp = result.Protocol.esp;
    schedule
  }

(* ------------------------------------------------------------------ *)
(* Writer (canonical bytes: sorted keys, %.17g floats)                 *)
(* ------------------------------------------------------------------ *)

let reference_golden () =
  of_compiled
    (Service.compile ~deadline:None
       { Protocol.default_compile with
         Protocol.circuit = Protocol.Benchmark "qaoa"
       })

(* scalar tokens print through the JSON codec; the line layout around
   them is this format's own *)
let fl b x = Json.to_buffer b (Json.Num x)
let int_ b n = Json.to_buffer b (Json.int n)
let js b s = Json.to_buffer b (Json.Str s)

let float_array b a =
  Buffer.add_char b '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      fl b x)
    a;
  Buffer.add_char b ']'

let instruction_line b (i : instruction) =
  Buffer.add_string b "    {";
  (match i.waveform with
  | None -> ()
  | Some w ->
    Buffer.add_string b "\"channels\": [";
    List.iteri
      (fun k c ->
        if k > 0 then Buffer.add_string b ", ";
        Buffer.add_string b "{\"label\": ";
        js b c.label;
        Buffer.add_string b ", \"samples\": ";
        float_array b c.samples;
        Buffer.add_char b '}')
      w.channels;
    Buffer.add_string b "], \"dt\": ";
    fl b w.dt;
    Buffer.add_string b ", ");
  Buffer.add_string b "\"duration\": ";
  fl b i.duration;
  Buffer.add_string b ", \"error\": ";
  fl b i.error;
  Buffer.add_string b ", \"fidelity\": ";
  fl b i.fidelity;
  Buffer.add_string b ", \"name\": ";
  js b i.name;
  Buffer.add_string b ", \"provenance\": ";
  js b (provenance_name i.provenance);
  Buffer.add_string b ", \"qubits\": [";
  List.iteri
    (fun k q ->
      if k > 0 then Buffer.add_char b ',';
      int_ b q)
    i.qubits;
  Buffer.add_string b "], \"t0\": ";
  fl b i.t0;
  (match i.waveform with
  | None -> ()
  | Some w ->
    Buffer.add_string b ", \"unitary\": ";
    float_array b w.unitary);
  Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"backend\": ";
  js b t.backend;
  Buffer.add_string b ",\n  \"device\": {\"drive_bound\": ";
  fl b t.drive_bound;
  Buffer.add_string b ", \"hash\": ";
  js b t.device_hash;
  Buffer.add_string b ", \"name\": ";
  js b t.device_name;
  Buffer.add_string b ", \"qubits\": ";
  int_ b t.device_qubits;
  Buffer.add_string b ", \"synthesis_mu\": ";
  fl b t.synthesis_mu;
  Buffer.add_string b "},\n  \"esp\": ";
  fl b t.esp;
  Buffer.add_string b ",\n  \"format\": ";
  js b version;
  Buffer.add_string b ",\n  \"latency\": ";
  fl b t.latency;
  (match t.schedule with
  | [] -> Buffer.add_string b ",\n  \"schedule\": []\n}\n"
  | schedule ->
    Buffer.add_string b ",\n  \"schedule\": [\n";
    List.iteri
      (fun k i ->
        if k > 0 then Buffer.add_string b ",\n";
        instruction_line b i)
      schedule;
    Buffer.add_string b "\n  ]\n}\n");
  Buffer.contents b

let save t path =
  Atomic_file.write ~what:"Pulse_ir.save" path (fun oc ->
      output_string oc (to_string t))

(* ------------------------------------------------------------------ *)
(* Reader (typed errors)                                               *)
(* ------------------------------------------------------------------ *)

type error =
  | Bad_json of string
  | Bad_format of string
  | Missing_field of string
  | Bad_field of string * string
  | Bad_instruction of int * string

let error_to_string = function
  | Bad_json msg -> "not JSON: " ^ msg
  | Bad_format got ->
    Printf.sprintf "bad format token %S (expected %S)" got version
  | Missing_field path -> "missing field " ^ path
  | Bad_field (path, why) -> Printf.sprintf "field %s: %s" path why
  | Bad_instruction (i, why) -> Printf.sprintf "schedule[%d]: %s" i why

let ( let* ) = Result.bind

let objv path = function
  | Json.Obj kv -> Ok kv
  | _ -> Error (Bad_field (path, "expected an object"))

let require kv path name =
  match List.assoc_opt name kv with
  | Some v -> Ok v
  | None ->
    Error (Missing_field (if path = "" then name else path ^ "." ^ name))

let str path = function
  | Json.Str s -> Ok s
  | _ -> Error (Bad_field (path, "expected a string"))

(* JSON has no inf or nan, but [1e999] reads as inf; the writer never
   writes one, and a waveform number must be finite to re-simulate *)
let num path = function
  | Json.Num x when Float.is_finite x -> Ok x
  | Json.Num _ -> Error (Bad_field (path, "non-finite number"))
  | _ -> Error (Bad_field (path, "expected a number"))

let int_field path j =
  let* _ = num path j in
  match Json.to_int j with
  | Some n -> Ok n
  | None -> Error (Bad_field (path, "expected an integer"))

let arr path = function
  | Json.Arr l -> Ok l
  | _ -> Error (Bad_field (path, "expected an array"))

let req_str kv path name =
  let* v = require kv path name in
  str (if path = "" then name else path ^ "." ^ name) v

let req_num kv path name =
  let* v = require kv path name in
  num (if path = "" then name else path ^ "." ^ name) v

let float_list path l =
  let rec go k acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (Json.Num _ as j) :: rest ->
      let* x = num (Printf.sprintf "%s[%d]" path k) j in
      go (k + 1) (x :: acc) rest
    | _ -> Error (Bad_field (path, "expected numbers"))
  in
  go 0 [] l

let parse_channel path j =
  let* kv = objv path j in
  let* label = req_str kv path "label" in
  let* samples = require kv path "samples" in
  let* samples = arr (path ^ ".samples") samples in
  let* samples = float_list (path ^ ".samples") samples in
  Ok { label; samples }

let parse_instruction i j =
  let wrap = function
    | Ok _ as ok -> ok
    | Error e -> Error (Bad_instruction (i, error_to_string e))
  in
  let path = Printf.sprintf "schedule[%d]" i in
  let* kv = wrap (objv path j) in
  let* name = wrap (req_str kv path "name") in
  let* qubits = wrap (require kv path "qubits") in
  let* qubits = wrap (arr (path ^ ".qubits") qubits) in
  let* qubits =
    wrap
      (let rec go acc = function
         | [] -> Ok (List.rev acc)
         | j :: rest ->
           let* q = int_field (path ^ ".qubits") j in
           go (q :: acc) rest
       in
       go [] qubits)
  in
  let* t0 = wrap (req_num kv path "t0") in
  let* duration = wrap (req_num kv path "duration") in
  let* error = wrap (req_num kv path "error") in
  let* fidelity = wrap (req_num kv path "fidelity") in
  let* prov = wrap (req_str kv path "provenance") in
  let* provenance =
    match provenance_of_name prov with
    | Some p -> Ok p
    | None ->
      Error
        (Bad_instruction
           ( i,
             Printf.sprintf
               "unknown provenance %S (expected synthesized, fallback, \
                class_replay or interp)"
               prov ))
  in
  let* waveform =
    match List.assoc_opt "channels" kv with
    | None -> Ok None
    | Some chans ->
      let* chans = wrap (arr (path ^ ".channels") chans) in
      if chans = [] then
        Error (Bad_instruction (i, "channels must be non-empty when present"))
      else
        let* channels =
          wrap
            (let rec go k acc = function
               | [] -> Ok (List.rev acc)
               | j :: rest ->
                 let* c =
                   parse_channel (Printf.sprintf "%s.channels[%d]" path k) j
                 in
                 go (k + 1) (c :: acc) rest
             in
             go 0 [] chans)
        in
        let slices = Array.length (List.hd channels).samples in
        if List.exists (fun c -> Array.length c.samples <> slices) channels
        then
          Error (Bad_instruction (i, "channels disagree on sample count"))
        else
          let* dt = wrap (req_num kv path "dt") in
          let* unitary = wrap (require kv path "unitary") in
          let* unitary = wrap (arr (path ^ ".unitary") unitary) in
          let* unitary = wrap (float_list (path ^ ".unitary") unitary) in
          Ok (Some { dt; channels; unitary })
  in
  Ok { name; qubits; t0; duration; error; fidelity; provenance; waveform }

let of_string s =
  match Json.of_string s with
  | Error msg -> Error (Bad_json msg)
  | Ok j ->
    let* top = objv "(document)" j in
    let* fmt = req_str top "" "format" in
    if fmt <> version then Error (Bad_format fmt)
    else
      let* backend = req_str top "" "backend" in
      let* () =
        if backend = "model" || backend = "qoc" then Ok ()
        else Error (Bad_field ("backend", "expected \"model\" or \"qoc\""))
      in
      let* dev = require top "" "device" in
      let* dev = objv "device" dev in
      let* device_name = req_str dev "device" "name" in
      let* device_hash = req_str dev "device" "hash" in
      let* device_qubits = require dev "device" "qubits" in
      let* device_qubits = int_field "device.qubits" device_qubits in
      let* synthesis_mu = req_num dev "device" "synthesis_mu" in
      let* drive_bound = req_num dev "device" "drive_bound" in
      let* latency = req_num top "" "latency" in
      let* esp = req_num top "" "esp" in
      let* schedule = require top "" "schedule" in
      let* schedule = arr "schedule" schedule in
      let* schedule =
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | j :: rest ->
            let* ins = parse_instruction i j in
            go (i + 1) (ins :: acc) rest
        in
        go 0 [] schedule
      in
      Ok
        { backend;
          device_name;
          device_hash;
          device_qubits;
          synthesis_mu;
          drive_bound;
          latency;
          esp;
          schedule
        }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error (Bad_json msg)

(* ------------------------------------------------------------------ *)
(* Verification (re-simulate every waveform)                           *)
(* ------------------------------------------------------------------ *)

type verify_report = { checked : int; skipped : int; max_drift : float }

(* an exchange channel is labelled "xy<a>_<b>"; parsed by hand because
   Scanf's %d treats '_' as a digit separator and would swallow "0_1" *)
let coupled_pairs_of_labels channels =
  List.filter_map
    (fun c ->
      if String.length c.label > 2 && c.label.[0] = 'x' && c.label.[1] = 'y'
      then
        let body = String.sub c.label 2 (String.length c.label - 2) in
        match String.index_opt body '_' with
        | Some i -> (
          let a = String.sub body 0 i in
          let b = String.sub body (i + 1) (String.length body - i - 1) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
        | None -> None
      else None)
    channels

let verify ?(tol = 1e-9) t =
  let check i (ins : instruction) (checked, maxd) =
    match ins.waveform with
    | None -> Ok (checked, maxd)
    | Some w -> (
      let where why = Printf.sprintf "schedule[%d] (%s): %s" i ins.name why in
      let n = List.length ins.qubits in
      (* the target first: it refuses a group on no qubits or on more
         than three before a Hamiltonian of that size is built *)
      match Canon.unitary_of_floats ~n_qubits:n w.unitary with
      | Error msg -> Error (where ("bad unitary: " ^ msg))
      | Ok target ->
        let h =
          Hamiltonian.make ~mu:t.synthesis_mu ~drive_bound:t.drive_bound
            ~n_qubits:n
            ~coupled_pairs:(coupled_pairs_of_labels w.channels)
            ()
        in
        let want =
          Array.to_list
            (Array.map (fun (c : Hamiltonian.control) -> c.Hamiltonian.label)
               h.Hamiltonian.controls)
        in
        if List.map (fun c -> c.label) w.channels <> want then
          Error
            (where
               (Printf.sprintf "channel labels do not form a Hamiltonian \
                                (expected %s)"
                  (String.concat " " want)))
        else
          let slices = Array.length (List.hd w.channels).samples in
          if slices = 0 then Error (where "empty waveform")
          else
            let channels = Array.of_list w.channels in
            let amplitudes =
              Array.init slices (fun j ->
                  Array.map (fun c -> c.samples.(j)) channels)
            in
            let pulse = { Pulse.dt = w.dt; amplitudes } in
            let f = Fidelity.gate_fidelity target (Pulse.propagator h pulse) in
            let drift = abs_float (f -. ins.fidelity) in
            if drift > tol then
              Error
                (where
                   (Printf.sprintf
                      "re-simulated fidelity %.12f drifts %.3g from the \
                       recorded %.12f (tol %.3g)"
                      f drift ins.fidelity tol))
            else Ok (checked + 1, Float.max maxd drift))
  in
  let rec go i acc = function
    | [] ->
      let checked, max_drift = acc in
      Ok
        { checked;
          skipped = List.length t.schedule - checked;
          max_drift
        }
    | ins :: rest -> (
      match check i ins acc with
      | Ok acc -> go (i + 1) acc rest
      | Error _ as e -> e)
  in
  go 0 (0, 0.0) t.schedule
