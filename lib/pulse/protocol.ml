(* Wire protocol for the compile daemon: a length-prefixed frame layer
   and the typed message codecs over {!Paqoc_obs.Json}. No sockets
   and no threads here — Server owns those — so every function in this
   file is a pure(ish) value transformer that tests can hit directly. *)

exception Deadline_exceeded
exception Bad_request of string

let check_deadline = function
  | Some d when Paqoc_obs.Clock.now_s () > d -> raise Deadline_exceeded
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Paqoc_obs.Json

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_to_string = Json.to_string
let json_of_string = Json.of_string

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let max_frame_bytes = 16 * 1024 * 1024

exception Frame_error of string

(* short reads/writes loop; EINTR (a stop signal landing mid-syscall)
   retries — interruption is delivered through the stop flag, not by
   tearing the frame *)
let rec write_fully fd s pos len =
  if len > 0 then begin
    match Unix.write_substring fd s pos len with
    | n -> write_fully fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_fully fd s pos len
  end

let read_fully ~what fd buf pos len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf (pos + !got) (len - !got) with
    | 0 ->
      raise
        (Frame_error
           (Printf.sprintf "connection closed mid-%s (%d of %d bytes)" what
              !got len))
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    raise
      (Frame_error
         (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" len
            max_frame_bytes));
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 header 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 header 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 header 3 (len land 0xff);
  write_fully fd (Bytes.to_string header) 0 4;
  write_fully fd payload 0 len

let read_frame fd =
  let header = Bytes.create 4 in
  let rec first_read () =
    try Unix.read fd header 0 4
    with Unix.Unix_error (Unix.EINTR, _, _) -> first_read ()
  in
  let first = first_read () in
  if first = 0 then None
  else begin
    if first < 4 then read_fully ~what:"header" fd header first (4 - first);
    let len =
      (Bytes.get_uint8 header 0 lsl 24)
      lor (Bytes.get_uint8 header 1 lsl 16)
      lor (Bytes.get_uint8 header 2 lsl 8)
      lor Bytes.get_uint8 header 3
    in
    if len > max_frame_bytes then
      raise
        (Frame_error
           (Printf.sprintf "frame header claims %d bytes (cap %d)" len
              max_frame_bytes));
    let payload = Bytes.create len in
    read_fully ~what:"payload" fd payload 0 len;
    Some (Bytes.to_string payload)
  end

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type circuit = Benchmark of string | Qasm of string
type scheme = M0 | Mtuned | Minf | Acc3 | Acc5
type backend = Model | Qoc

let scheme_name = function
  | M0 -> "paqoc-m0"
  | Mtuned -> "paqoc-mtuned"
  | Minf -> "paqoc-minf"
  | Acc3 -> "accqoc-n3d3"
  | Acc5 -> "accqoc-n3d5"

let scheme_of_name = function
  | "paqoc-m0" -> Some M0
  | "paqoc-mtuned" -> Some Mtuned
  | "paqoc-minf" -> Some Minf
  | "accqoc-n3d3" -> Some Acc3
  | "accqoc-n3d5" -> Some Acc5
  | _ -> None

let backend_name = function Model -> "model" | Qoc -> "qoc"

let backend_of_name = function
  | "model" -> Some Model
  | "qoc" -> Some Qoc
  | _ -> None

type compile_request = {
  circuit : circuit;
  scheme : scheme;
  backend : backend;
  rows : int;
  cols : int;
  max_n : int;
  top_k : int;
  jobs : int;
  canonical : bool;
      (** enable the equivalence-class cache tier for this request; only
          serialised when [true], so frames to pre-canonicalization
          daemons are byte-identical to before *)
  device : string option;
      (** registry device name; [None] means the rows x cols grid. Only
          serialised when present, so frames to pre-registry daemons are
          byte-identical to before *)
  drift_seed : int;
  drift_epoch : int;
      (** calibration-drift epoch (0 = pristine calibration); seed and
          epoch are only serialised when non-zero *)
  deadline_s : float option;
}

let default_compile =
  { circuit = Benchmark "bv";
    scheme = M0;
    backend = Model;
    rows = 5;
    cols = 5;
    max_n = 3;
    top_k = 1;
    jobs = 1;
    canonical = false;
    device = None;
    drift_seed = 0;
    drift_epoch = 0;
    deadline_s = None
  }

(* A variational sweep served by the daemon's parametric fast path: the
   client ships every iteration's bindings up front; the daemon freezes
   (or reuses) the plan and answers with one row per iteration. Fields
   are [rc_]-prefixed the way [server_stats] disambiguates its
   cache-counter names. *)
type recompile_request = {
  rc_circuit : circuit;
  rc_backend : backend;
  rc_rows : int;
  rc_cols : int;
  rc_jobs : int;
  rc_anchors : int;
  rc_interp_tol : float;
  rc_angles : (string * float) list list;
  rc_device : string option;
  rc_drift_seed : int;
  rc_drift_epoch : int;
  rc_deadline_s : float option;
}

let default_recompile =
  { rc_circuit = Benchmark "qaoa";
    rc_backend = Model;
    rc_rows = 5;
    rc_cols = 5;
    rc_jobs = 1;
    rc_anchors = 5;
    rc_interp_tol = 1e-6;
    rc_angles = [];
    rc_device = None;
    rc_drift_seed = 0;
    rc_drift_epoch = 0;
    rc_deadline_s = None
  }

type request =
  | Ping
  | Stats
  | Shutdown
  | Compile of compile_request
  | Recompile of recompile_request

type compile_result = {
  latency : float;
  esp : float;
  compile_seconds : float;
  episodes : int;
  fallbacks : int;
  synthesized : int;
  cache_hits : int;
  cache_misses : int;
  logical_qubits : int;
  device_qubits : int;
  physical_gates : int;
  swaps_added : int;
}

type server_stats = {
  served : int;
  rejected_overload : int;
  rejected_deadline : int;
  errors : int;
  inflight : int;
  cache_entries : int;
  srv_cache_hits : int;
  srv_cache_misses : int;
  uptime_s : float;
}

type sweep_iteration = {
  it_latency : float;
  it_esp : float;
  it_interp : int;
  it_fallback : int;
  it_resynth : int;
}

type sweep_result = {
  sweep_params : string list;
  static_slots : int;
  param_slots : int;
  multi_slots : int;
  anchor_values : float list;
  iterations : sweep_iteration list;
}

type error_kind =
  | Overloaded
  | Deadline_exceeded
  | Bad_request of string
  | Shutting_down
  | Internal of string

type response =
  | Pong
  | Stats_reply of server_stats
  | Shutdown_ack
  | Result of compile_result
  | Sweep of sweep_result
  | Refused of error_kind

let error_name = function
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Bad_request _ -> "bad_request"
  | Shutting_down -> "shutting_down"
  | Internal _ -> "internal"

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let num v = Num v
let int_ v = Num (float_of_int v)

(* The fields a compile and a recompile request share are written and
   read by one helper each: the circuit, the backend, the bounded
   integers, and the optional device / drift / deadline tail, which
   both requests end with and which is serialised only where it
   differs from the default. *)
let circuit_to_json = function
  | Benchmark name -> Obj [ ("benchmark", Str name) ]
  | Qasm src -> Obj [ ("qasm", Str src) ]

let target_to_json ~device ~drift_seed ~drift_epoch ~deadline_s =
  (match device with None -> [] | Some d -> [ ("device", Str d) ])
  @ (if drift_seed <> 0 then [ ("drift_seed", int_ drift_seed) ] else [])
  @ (if drift_epoch <> 0 then [ ("drift_epoch", int_ drift_epoch) ] else [])
  @ match deadline_s with None -> [] | Some d -> [ ("deadline_s", num d) ]

let request_to_json = function
  | Ping -> Obj [ ("op", Str "ping") ]
  | Stats -> Obj [ ("op", Str "stats") ]
  | Shutdown -> Obj [ ("op", Str "shutdown") ]
  | Compile c ->
    Obj
      ([ ("op", Str "compile");
         ("circuit", circuit_to_json c.circuit);
         ("scheme", Str (scheme_name c.scheme));
         ("backend", Str (backend_name c.backend));
         ("rows", int_ c.rows);
         ("cols", int_ c.cols);
         ("max_qubits", int_ c.max_n);
         ("top_k", int_ c.top_k);
         ("jobs", int_ c.jobs)
       ]
      @ (if c.canonical then [ ("canonical", Bool true) ] else [])
      @ target_to_json ~device:c.device ~drift_seed:c.drift_seed
          ~drift_epoch:c.drift_epoch ~deadline_s:c.deadline_s)
  | Recompile r ->
    Obj
      ([ ("op", Str "recompile");
         ("circuit", circuit_to_json r.rc_circuit);
         ("backend", Str (backend_name r.rc_backend));
         ("rows", int_ r.rc_rows);
         ("cols", int_ r.rc_cols);
         ("jobs", int_ r.rc_jobs);
         ("anchors", int_ r.rc_anchors);
         ("interp_tol", num r.rc_interp_tol);
         ( "angles",
           Arr
             (List.map
                (fun iter ->
                  Obj (List.map (fun (p, v) -> (p, num v)) iter))
                r.rc_angles) )
       ]
      @ target_to_json ~device:r.rc_device ~drift_seed:r.rc_drift_seed
          ~drift_epoch:r.rc_drift_epoch ~deadline_s:r.rc_deadline_s)

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field name j =
  match field name j with Some (Str s) -> Some s | _ -> None

let num_field name j =
  match field name j with Some (Num v) -> Some v | _ -> None

let int_field name j = Option.bind (field name j) Json.to_int

let ( let* ) r f = Result.bind r f

let require name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let circuit_of_json j =
  match field "circuit" j with
  | Some c -> (
    match (str_field "benchmark" c, str_field "qasm" c) with
    | Some name, None -> Ok (Benchmark name)
    | None, Some src -> Ok (Qasm src)
    | _ -> Error "circuit must carry exactly one of benchmark / qasm")
  | None -> Error "missing field \"circuit\""

(* an optional enum: absent is [default]; an unknown name or a value
   that is not a string is refused *)
let enum_field name of_name default j =
  match field name j with
  | None -> Ok default
  | Some (Str s) -> (
    match of_name s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad %s %S" name s))
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

(* an optional integer: absent is [default]; present, it must be exact
   ({!Json.to_int}) and at least [min] *)
let bounded_int name ~min default j =
  match field name j with
  | None -> Ok default
  | Some v -> (
    match Json.to_int v with
    | Some n when n >= min -> Ok n
    | _ -> Error (Printf.sprintf "field %S must be an integer >= %d" name min))

let device_of_json j =
  match field "device" j with
  | None -> Ok None
  | Some (Str d) -> Ok (Some d)
  | Some _ -> Error "field \"device\" must be a string"

let deadline_of_json j =
  match field "deadline_s" j with
  | None -> Ok None
  | Some (Num v) when v >= 0.0 -> Ok (Some v)
  | Some _ -> Error "field \"deadline_s\" must be a non-negative number"

let compile_request_of_json j =
  let d = default_compile in
  let* circuit = circuit_of_json j in
  let* scheme = enum_field "scheme" scheme_of_name d.scheme j in
  let* backend = enum_field "backend" backend_of_name d.backend j in
  let* rows = bounded_int "rows" ~min:1 d.rows j in
  let* cols = bounded_int "cols" ~min:1 d.cols j in
  let* max_n = bounded_int "max_qubits" ~min:1 d.max_n j in
  let* top_k = bounded_int "top_k" ~min:1 d.top_k j in
  let* jobs = bounded_int "jobs" ~min:1 d.jobs j in
  let* canonical =
    match field "canonical" j with
    | None -> Ok d.canonical
    | Some (Bool b) -> Ok b
    | Some _ -> Error "field \"canonical\" must be a boolean"
  in
  let* device = device_of_json j in
  let* drift_seed = bounded_int "drift_seed" ~min:0 d.drift_seed j in
  let* drift_epoch = bounded_int "drift_epoch" ~min:0 d.drift_epoch j in
  let* deadline_s = deadline_of_json j in
  Ok
    (Compile
       { circuit; scheme; backend; rows; cols; max_n; top_k; jobs;
         canonical; device; drift_seed; drift_epoch; deadline_s
       })

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = map_result f tl in
    Ok (y :: ys)

let recompile_request_of_json j =
  let d = default_recompile in
  let* rc_circuit = circuit_of_json j in
  let* rc_backend = enum_field "backend" backend_of_name d.rc_backend j in
  let* rc_rows = bounded_int "rows" ~min:1 d.rc_rows j in
  let* rc_cols = bounded_int "cols" ~min:1 d.rc_cols j in
  let* rc_jobs = bounded_int "jobs" ~min:1 d.rc_jobs j in
  let* rc_anchors = bounded_int "anchors" ~min:2 d.rc_anchors j in
  let* rc_interp_tol =
    match field "interp_tol" j with
    | None -> Ok d.rc_interp_tol
    | Some (Num v) when v > 0.0 -> Ok v
    | Some _ -> Error "field \"interp_tol\" must be a positive number"
  in
  let* rc_angles =
    match field "angles" j with
    | Some (Arr iters) ->
      map_result
        (function
          | Obj fields ->
            map_result
              (function
                | p, Num v -> Ok (p, v)
                | p, _ ->
                  Error (Printf.sprintf "angle %S must be a number" p))
              fields
          | _ -> Error "each sweep iteration must be an object of angles")
        iters
    | Some _ -> Error "field \"angles\" must be an array of iterations"
    | None -> Error "missing field \"angles\""
  in
  let* rc_device = device_of_json j in
  let* rc_drift_seed = bounded_int "drift_seed" ~min:0 d.rc_drift_seed j in
  let* rc_drift_epoch = bounded_int "drift_epoch" ~min:0 d.rc_drift_epoch j in
  let* rc_deadline_s = deadline_of_json j in
  Ok
    (Recompile
       { rc_circuit; rc_backend; rc_rows; rc_cols; rc_jobs; rc_anchors;
         rc_interp_tol; rc_angles; rc_device; rc_drift_seed; rc_drift_epoch;
         rc_deadline_s
       })

let request_of_json j =
  match str_field "op" j with
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some "compile" -> compile_request_of_json j
  | Some "recompile" -> recompile_request_of_json j
  | Some op -> Error (Printf.sprintf "unknown op %S" op)
  | None -> Error "missing field \"op\""

let result_to_json (r : compile_result) =
  Obj
    [ ("latency", num r.latency);
      ("esp", num r.esp);
      ("compile_seconds", num r.compile_seconds);
      ("episodes", int_ r.episodes);
      ("fallbacks", int_ r.fallbacks);
      ("synthesized", int_ r.synthesized);
      ("cache_hits", int_ r.cache_hits);
      ("cache_misses", int_ r.cache_misses);
      ("logical_qubits", int_ r.logical_qubits);
      ("device_qubits", int_ r.device_qubits);
      ("physical_gates", int_ r.physical_gates);
      ("swaps_added", int_ r.swaps_added)
    ]

let result_of_json j =
  let f name = require name (num_field name j) in
  let i name = require name (int_field name j) in
  let* latency = f "latency" in
  let* esp = f "esp" in
  let* compile_seconds = f "compile_seconds" in
  let* episodes = i "episodes" in
  let* fallbacks = i "fallbacks" in
  let* synthesized = i "synthesized" in
  let* cache_hits = i "cache_hits" in
  let* cache_misses = i "cache_misses" in
  let* logical_qubits = i "logical_qubits" in
  let* device_qubits = i "device_qubits" in
  let* physical_gates = i "physical_gates" in
  let* swaps_added = i "swaps_added" in
  Ok
    { latency; esp; compile_seconds; episodes; fallbacks; synthesized;
      cache_hits; cache_misses; logical_qubits; device_qubits;
      physical_gates; swaps_added
    }

let stats_to_json (s : server_stats) =
  Obj
    [ ("served", int_ s.served);
      ("rejected_overload", int_ s.rejected_overload);
      ("rejected_deadline", int_ s.rejected_deadline);
      ("errors", int_ s.errors);
      ("inflight", int_ s.inflight);
      ("cache_entries", int_ s.cache_entries);
      ("cache_hits", int_ s.srv_cache_hits);
      ("cache_misses", int_ s.srv_cache_misses);
      ("uptime_s", num s.uptime_s)
    ]

let stats_of_json j =
  let i name = require name (int_field name j) in
  let* served = i "served" in
  let* rejected_overload = i "rejected_overload" in
  let* rejected_deadline = i "rejected_deadline" in
  let* errors = i "errors" in
  let* inflight = i "inflight" in
  let* cache_entries = i "cache_entries" in
  let* srv_cache_hits = i "cache_hits" in
  let* srv_cache_misses = i "cache_misses" in
  let* uptime_s = require "uptime_s" (num_field "uptime_s" j) in
  Ok
    { served; rejected_overload; rejected_deadline; errors; inflight;
      cache_entries; srv_cache_hits; srv_cache_misses; uptime_s
    }

let sweep_to_json (s : sweep_result) =
  Obj
    [ ("params", Arr (List.map (fun p -> Str p) s.sweep_params));
      ("static_slots", int_ s.static_slots);
      ("param_slots", int_ s.param_slots);
      ("multi_slots", int_ s.multi_slots);
      ("anchor_values", Arr (List.map num s.anchor_values));
      ( "iterations",
        Arr
          (List.map
             (fun it ->
               Obj
                 [ ("latency", num it.it_latency);
                   ("esp", num it.it_esp);
                   ("interp", int_ it.it_interp);
                   ("fallback", int_ it.it_fallback);
                   ("resynth", int_ it.it_resynth)
                 ])
             s.iterations) )
    ]

let sweep_of_json j =
  let* sweep_params =
    match field "params" j with
    | Some (Arr ps) ->
      map_result
        (function Str p -> Ok p | _ -> Error "params must be strings")
        ps
    | _ -> Error "missing or ill-typed field \"params\""
  in
  let i name = require name (int_field name j) in
  let* static_slots = i "static_slots" in
  let* param_slots = i "param_slots" in
  let* multi_slots = i "multi_slots" in
  let* anchor_values =
    match field "anchor_values" j with
    | Some (Arr vs) ->
      map_result
        (function Num v -> Ok v | _ -> Error "anchor values must be numbers")
        vs
    | _ -> Error "missing or ill-typed field \"anchor_values\""
  in
  let* iterations =
    match field "iterations" j with
    | Some (Arr its) ->
      map_result
        (fun it ->
          let f name = require name (num_field name it) in
          let i name = require name (int_field name it) in
          let* it_latency = f "latency" in
          let* it_esp = f "esp" in
          let* it_interp = i "interp" in
          let* it_fallback = i "fallback" in
          let* it_resynth = i "resynth" in
          Ok { it_latency; it_esp; it_interp; it_fallback; it_resynth })
        its
    | _ -> Error "missing or ill-typed field \"iterations\""
  in
  Ok
    { sweep_params; static_slots; param_slots; multi_slots; anchor_values;
      iterations
    }

let response_to_json = function
  | Pong -> Obj [ ("ok", Bool true); ("op", Str "pong") ]
  | Shutdown_ack -> Obj [ ("ok", Bool true); ("op", Str "shutdown") ]
  | Stats_reply s ->
    Obj [ ("ok", Bool true); ("op", Str "stats"); ("stats", stats_to_json s) ]
  | Result r ->
    Obj
      [ ("ok", Bool true); ("op", Str "result"); ("result", result_to_json r) ]
  | Sweep s ->
    Obj [ ("ok", Bool true); ("op", Str "sweep"); ("sweep", sweep_to_json s) ]
  | Refused e ->
    let message =
      match e with
      | Bad_request msg | Internal msg -> [ ("message", Str msg) ]
      | Overloaded | Deadline_exceeded | Shutting_down -> []
    in
    Obj ([ ("ok", Bool false); ("error", Str (error_name e)) ] @ message)

let response_of_json j =
  match field "ok" j with
  | Some (Bool true) -> (
    match str_field "op" j with
    | Some "pong" -> Ok Pong
    | Some "shutdown" -> Ok Shutdown_ack
    | Some "stats" ->
      let* s = require "stats" (field "stats" j) in
      let* s = stats_of_json s in
      Ok (Stats_reply s)
    | Some "result" ->
      let* r = require "result" (field "result" j) in
      let* r = result_of_json r in
      Ok (Result r)
    | Some "sweep" ->
      let* s = require "sweep" (field "sweep" j) in
      let* s = sweep_of_json s in
      Ok (Sweep s)
    | Some op -> Error (Printf.sprintf "unknown response op %S" op)
    | None -> Error "missing field \"op\"")
  | Some (Bool false) -> (
    let message = Option.value (str_field "message" j) ~default:"" in
    match str_field "error" j with
    | Some "overloaded" -> Ok (Refused Overloaded)
    | Some "deadline_exceeded" -> Ok (Refused Deadline_exceeded)
    | Some "bad_request" -> Ok (Refused (Bad_request message))
    | Some "shutting_down" -> Ok (Refused Shutting_down)
    | Some "internal" -> Ok (Refused (Internal message))
    | Some e -> Error (Printf.sprintf "unknown error kind %S" e)
    | None -> Error "refusal without an \"error\" field")
  | _ -> Error "missing or ill-typed field \"ok\""

let write_request fd r = write_frame fd (json_to_string (request_to_json r))
let write_response fd r = write_frame fd (json_to_string (response_to_json r))

let read_response fd =
  match read_frame fd with
  | None -> raise (Frame_error "daemon closed the connection mid-request")
  | Some payload -> (
    match json_of_string payload with
    | Error msg -> Error (Printf.sprintf "bad response JSON: %s" msg)
    | Ok j -> response_of_json j)
