(* Wire protocol for the compile daemon: a self-contained JSON codec, a
   length-prefixed frame layer, and the typed message codecs. No sockets
   and no threads here — Server owns those — so every function in this
   file is a pure(ish) value transformer that tests can hit directly. *)

exception Deadline_exceeded
exception Bad_request of string

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* Integers dominate the wire traffic (counts, qubit numbers); printing
   them without a fractional part keeps frames readable and byte-stable.
   Non-integral numbers get round-trip precision. *)
let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_to_string j =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num v -> Buffer.add_string buf (num_to_string v)
    | Str s -> escape_string buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go j;
  Buffer.contents buf

(* Recursive-descent parser. Errors are values ([Error msg]) because a
   malformed client frame must never raise past the connection loop. *)
exception Parse of string

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> err (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else err (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then err "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          go ()
        | 'n' ->
          Buffer.add_char buf '\n';
          go ()
        | 'r' ->
          Buffer.add_char buf '\r';
          go ()
        | 't' ->
          Buffer.add_char buf '\t';
          go ()
        | 'b' ->
          Buffer.add_char buf '\b';
          go ()
        | 'f' ->
          Buffer.add_char buf '\012';
          go ()
        | 'u' ->
          if !pos + 4 > n then err "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            match int_of_string_opt ("0x" ^ hex) with
            | Some c -> c
            | None -> err "bad \\u escape"
          in
          (* ASCII only — enough for our own frames; anything else is
             encoded as raw UTF-8 by the writer, never escaped *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else err "non-ASCII \\u escape unsupported";
          go ()
        | _ -> err "bad escape")
      | c when Char.code c < 0x20 -> err "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some v -> v
    | None -> err (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> err "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> err "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> err (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then err "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

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
type search = Incremental | Reference
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

let search_name = function
  | Incremental -> "incremental"
  | Reference -> "reference"

let search_of_name = function
  | "incremental" -> Some Incremental
  | "reference" -> Some Reference
  | _ -> None

let backend_name = function Model -> "model" | Qoc -> "qoc"

let backend_of_name = function
  | "model" -> Some Model
  | "qoc" -> Some Qoc
  | _ -> None

type compile_request = {
  circuit : circuit;
  scheme : scheme;
  search : search;
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
    search = Incremental;
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

let request_to_json = function
  | Ping -> Obj [ ("op", Str "ping") ]
  | Stats -> Obj [ ("op", Str "stats") ]
  | Shutdown -> Obj [ ("op", Str "shutdown") ]
  | Compile c ->
    let circuit =
      match c.circuit with
      | Benchmark name -> Obj [ ("benchmark", Str name) ]
      | Qasm src -> Obj [ ("qasm", Str src) ]
    in
    Obj
      ([ ("op", Str "compile");
         ("circuit", circuit);
         ("scheme", Str (scheme_name c.scheme));
         ("search", Str (search_name c.search));
         ("backend", Str (backend_name c.backend));
         ("rows", int_ c.rows);
         ("cols", int_ c.cols);
         ("max_qubits", int_ c.max_n);
         ("top_k", int_ c.top_k);
         ("jobs", int_ c.jobs)
       ]
      @ (if c.canonical then [ ("canonical", Bool true) ] else [])
      @ (match c.device with
        | None -> []
        | Some d -> [ ("device", Str d) ])
      @ (if c.drift_seed <> 0 then [ ("drift_seed", int_ c.drift_seed) ]
         else [])
      @ (if c.drift_epoch <> 0 then [ ("drift_epoch", int_ c.drift_epoch) ]
         else [])
      @
      match c.deadline_s with
      | None -> []
      | Some d -> [ ("deadline_s", num d) ])
  | Recompile r ->
    let circuit =
      match r.rc_circuit with
      | Benchmark name -> Obj [ ("benchmark", Str name) ]
      | Qasm src -> Obj [ ("qasm", Str src) ]
    in
    Obj
      ([ ("op", Str "recompile");
         ("circuit", circuit);
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
      @ (match r.rc_device with
        | None -> []
        | Some d -> [ ("device", Str d) ])
      @ (if r.rc_drift_seed <> 0 then [ ("drift_seed", int_ r.rc_drift_seed) ]
         else [])
      @ (if r.rc_drift_epoch <> 0 then
           [ ("drift_epoch", int_ r.rc_drift_epoch) ]
         else [])
      @
      match r.rc_deadline_s with
      | None -> []
      | Some d -> [ ("deadline_s", num d) ])

let field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field name j =
  match field name j with Some (Str s) -> Some s | _ -> None

let num_field name j =
  match field name j with Some (Num v) -> Some v | _ -> None

let int_field name j =
  match num_field name j with
  | Some v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let ( let* ) r f = Result.bind r f

let require name = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let compile_request_of_json j =
  let* circuit =
    match field "circuit" j with
    | Some c -> (
      match (str_field "benchmark" c, str_field "qasm" c) with
      | Some name, None -> Ok (Benchmark name)
      | None, Some src -> Ok (Qasm src)
      | _ -> Error "circuit must carry exactly one of benchmark / qasm")
    | None -> Error "missing field \"circuit\""
  in
  let parse_enum name of_name default =
    match str_field name j with
    | None -> Ok default
    | Some s -> (
      match of_name s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "bad %s %S" name s))
  in
  let* scheme = parse_enum "scheme" scheme_of_name default_compile.scheme in
  let* search = parse_enum "search" search_of_name default_compile.search in
  let* backend =
    parse_enum "backend" backend_of_name default_compile.backend
  in
  let int_or name default =
    match field name j with
    | None -> Ok default
    | Some _ -> (
      match int_field name j with
      | Some v when v >= 1 -> Ok v
      | _ -> Error (Printf.sprintf "field %S must be an integer >= 1" name))
  in
  let* rows = int_or "rows" default_compile.rows in
  let* cols = int_or "cols" default_compile.cols in
  let* max_n = int_or "max_qubits" default_compile.max_n in
  let* top_k = int_or "top_k" default_compile.top_k in
  let* jobs = int_or "jobs" default_compile.jobs in
  let* canonical =
    match field "canonical" j with
    | None -> Ok default_compile.canonical
    | Some (Bool b) -> Ok b
    | Some _ -> Error "field \"canonical\" must be a boolean"
  in
  let* device =
    match field "device" j with
    | None -> Ok default_compile.device
    | Some (Str d) -> Ok (Some d)
    | Some _ -> Error "field \"device\" must be a string"
  in
  let nonneg_or name default =
    match field name j with
    | None -> Ok default
    | Some _ -> (
      match int_field name j with
      | Some v when v >= 0 -> Ok v
      | _ -> Error (Printf.sprintf "field %S must be an integer >= 0" name))
  in
  let* drift_seed = nonneg_or "drift_seed" default_compile.drift_seed in
  let* drift_epoch = nonneg_or "drift_epoch" default_compile.drift_epoch in
  let* deadline_s =
    match field "deadline_s" j with
    | None -> Ok None
    | Some (Num v) when v >= 0.0 -> Ok (Some v)
    | Some _ -> Error "field \"deadline_s\" must be a non-negative number"
  in
  Ok
    (Compile
       { circuit; scheme; search; backend; rows; cols; max_n; top_k; jobs;
         canonical; device; drift_seed; drift_epoch; deadline_s
       })

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
    let* y = f x in
    let* ys = map_result f tl in
    Ok (y :: ys)

let recompile_request_of_json j =
  let* rc_circuit =
    match field "circuit" j with
    | Some c -> (
      match (str_field "benchmark" c, str_field "qasm" c) with
      | Some name, None -> Ok (Benchmark name)
      | None, Some src -> Ok (Qasm src)
      | _ -> Error "circuit must carry exactly one of benchmark / qasm")
    | None -> Error "missing field \"circuit\""
  in
  let* rc_backend =
    match str_field "backend" j with
    | None -> Ok default_recompile.rc_backend
    | Some s -> (
      match backend_of_name s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "bad backend %S" s))
  in
  let int_or name default ~min =
    match field name j with
    | None -> Ok default
    | Some _ -> (
      match int_field name j with
      | Some v when v >= min -> Ok v
      | _ ->
        Error (Printf.sprintf "field %S must be an integer >= %d" name min))
  in
  let* rc_rows = int_or "rows" default_recompile.rc_rows ~min:1 in
  let* rc_cols = int_or "cols" default_recompile.rc_cols ~min:1 in
  let* rc_jobs = int_or "jobs" default_recompile.rc_jobs ~min:1 in
  let* rc_anchors = int_or "anchors" default_recompile.rc_anchors ~min:2 in
  let* rc_interp_tol =
    match field "interp_tol" j with
    | None -> Ok default_recompile.rc_interp_tol
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
  let* rc_device =
    match field "device" j with
    | None -> Ok default_recompile.rc_device
    | Some (Str d) -> Ok (Some d)
    | Some _ -> Error "field \"device\" must be a string"
  in
  let* rc_drift_seed = int_or "drift_seed" default_recompile.rc_drift_seed ~min:0 in
  let* rc_drift_epoch =
    int_or "drift_epoch" default_recompile.rc_drift_epoch ~min:0
  in
  let* rc_deadline_s =
    match field "deadline_s" j with
    | None -> Ok None
    | Some (Num v) when v >= 0.0 -> Ok (Some v)
    | Some _ -> Error "field \"deadline_s\" must be a non-negative number"
  in
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
