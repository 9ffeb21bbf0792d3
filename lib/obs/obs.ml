(* Process-global metrics and tracing.

   Design constraints, in order:

   1. zero cost when disabled — every instrumentation point is a single
      [Atomic.get] on the enabled flag before doing anything else;
   2. no cross-domain contention when enabled — each domain records into
      its own buffer (reached through [Domain.DLS]), and buffers are only
      merged at report time;
   3. deterministic report *structure* — every map in the JSON output is
      sorted by name, so tests can make golden assertions on reports whose
      values (durations) are not reproducible.

   Buffers are registered in a global list so that events recorded by
   worker domains survive the domain's death (pool workers are joined
   before anything is reported). [reset]/[enable] bump a generation
   counter instead of mutating foreign buffers: a domain that still holds
   a buffer from an earlier generation lazily replaces it on its next
   recording, which keeps reset safe without stopping the world. Reports
   and resets are meant to be taken at quiescent points (no instrumented
   work in flight); concurrent use stays memory-safe but a report may miss
   events still being appended. *)

type span = {
  sp_name : string;
  sp_depth : int;
  sp_start : float;  (* seconds since the enable() epoch *)
  sp_dur : float;
  sp_dom : int;
}

type hist = {
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type gauge = {
  mutable g_last : float;
  mutable g_max : float;
  mutable g_seq : int;  (* global sequence of the last set, for merging *)
}

type buffer = {
  b_gen : int;
  b_dom : int;
  mutable b_spans : span list;  (* completed spans, reverse order *)
  mutable b_depth : int;  (* current span nesting in this domain *)
  b_counters : (string, int ref) Hashtbl.t;
  b_gauges : (string, gauge) Hashtbl.t;
  b_hists : (string, hist) Hashtbl.t;
}

let on = Atomic.make false
let generation = Atomic.make 0
let gauge_seq = Atomic.make 0
let epoch = Atomic.make 0.0
let registry_m = Mutex.create ()
let registry : buffer list ref = ref []

let fresh_buffer () =
  let b =
    { b_gen = Atomic.get generation;
      b_dom = (Domain.self () :> int);
      b_spans = [];
      b_depth = 0;
      b_counters = Hashtbl.create 16;
      b_gauges = Hashtbl.create 8;
      b_hists = Hashtbl.create 8
    }
  in
  Mutex.lock registry_m;
  registry := b :: !registry;
  Mutex.unlock registry_m;
  b

let dls_key : buffer Domain.DLS.key = Domain.DLS.new_key fresh_buffer

(* The calling domain's buffer for the current generation. *)
let buf () =
  let b = Domain.DLS.get dls_key in
  if b.b_gen = Atomic.get generation then b
  else begin
    let b = fresh_buffer () in
    Domain.DLS.set dls_key b;
    b
  end

let enabled () = Atomic.get on

let reset () =
  Atomic.set on false;
  Atomic.incr generation;
  Mutex.lock registry_m;
  registry := [];
  Mutex.unlock registry_m;
  Atomic.set epoch (Clock.now_s ())

let enable () =
  reset ();
  Atomic.set on true

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let with_span name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = buf () in
    let depth = b.b_depth in
    b.b_depth <- depth + 1;
    let start = Clock.now_s () -. Atomic.get epoch in
    Fun.protect
      ~finally:(fun () ->
        let stop = Clock.now_s () -. Atomic.get epoch in
        b.b_depth <- depth;
        b.b_spans <-
          { sp_name = name;
            sp_depth = depth;
            sp_start = start;
            sp_dur = stop -. start;
            sp_dom = b.b_dom
          }
          :: b.b_spans)
      f
  end

let count ?(n = 1) name =
  if Atomic.get on then begin
    let b = buf () in
    match Hashtbl.find_opt b.b_counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace b.b_counters name (ref n)
  end

let gauge name v =
  if Atomic.get on then begin
    let b = buf () in
    let seq = Atomic.fetch_and_add gauge_seq 1 in
    match Hashtbl.find_opt b.b_gauges name with
    | Some g ->
      g.g_last <- v;
      g.g_max <- Float.max g.g_max v;
      g.g_seq <- seq
    | None ->
      Hashtbl.replace b.b_gauges name { g_last = v; g_max = v; g_seq = seq }
  end

let observe name v =
  if Atomic.get on then begin
    let b = buf () in
    match Hashtbl.find_opt b.b_hists name with
    | Some h ->
      h.h_n <- h.h_n + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_min <- Float.min h.h_min v;
      h.h_max <- Float.max h.h_max v
    | None ->
      Hashtbl.replace b.b_hists name { h_n = 1; h_sum = v; h_min = v; h_max = v }
  end

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

let live_buffers () =
  Mutex.lock registry_m;
  let bs = !registry in
  Mutex.unlock registry_m;
  let g = Atomic.get generation in
  List.filter (fun b -> b.b_gen = g) bs

let sorted_bindings fold merge =
  let tbl = Hashtbl.create 32 in
  List.iter (fold tbl) (live_buffers ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (k, v) -> (k, merge v))

let merged_counters () =
  sorted_bindings
    (fun tbl b ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt tbl name with
          | Some acc -> acc := !acc + !r
          | None -> Hashtbl.replace tbl name (ref !r))
        b.b_counters)
    (fun r -> !r)

let merged_gauges () =
  sorted_bindings
    (fun tbl b ->
      Hashtbl.iter
        (fun name (g : gauge) ->
          match Hashtbl.find_opt tbl name with
          | Some acc ->
            if g.g_seq > acc.g_seq then begin
              acc.g_last <- g.g_last;
              acc.g_seq <- g.g_seq
            end;
            acc.g_max <- Float.max acc.g_max g.g_max
          | None ->
            Hashtbl.replace tbl name
              { g_last = g.g_last; g_max = g.g_max; g_seq = g.g_seq })
        b.b_gauges)
    (fun g -> (g.g_last, g.g_max))

let merged_hists () =
  sorted_bindings
    (fun tbl b ->
      Hashtbl.iter
        (fun name (h : hist) ->
          match Hashtbl.find_opt tbl name with
          | Some acc ->
            acc.h_n <- acc.h_n + h.h_n;
            acc.h_sum <- acc.h_sum +. h.h_sum;
            acc.h_min <- Float.min acc.h_min h.h_min;
            acc.h_max <- Float.max acc.h_max h.h_max
          | None ->
            Hashtbl.replace tbl name
              { h_n = h.h_n; h_sum = h.h_sum; h_min = h.h_min; h_max = h.h_max })
        b.b_hists)
    (fun h -> (h.h_n, h.h_sum, h.h_min, h.h_max))

type span_agg = {
  mutable a_n : int;
  mutable a_total : float;
  mutable a_min : float;
  mutable a_max : float;
}

let merged_spans () =
  sorted_bindings
    (fun tbl b ->
      List.iter
        (fun sp ->
          match Hashtbl.find_opt tbl sp.sp_name with
          | Some a ->
            a.a_n <- a.a_n + 1;
            a.a_total <- a.a_total +. sp.sp_dur;
            a.a_min <- Float.min a.a_min sp.sp_dur;
            a.a_max <- Float.max a.a_max sp.sp_dur
          | None ->
            Hashtbl.replace tbl sp.sp_name
              { a_n = 1; a_total = sp.sp_dur; a_min = sp.sp_dur; a_max = sp.sp_dur })
        b.b_spans)
    (fun a -> (a.a_n, a.a_total, a.a_min, a.a_max))

let all_spans () =
  List.concat_map (fun b -> List.rev b.b_spans) (live_buffers ())
  |> List.sort (fun a b ->
         match compare a.sp_dom b.sp_dom with
         | 0 -> compare a.sp_start b.sp_start
         | c -> c)

let domains () =
  List.map (fun b -> b.b_dom) (live_buffers ())
  |> List.sort_uniq compare

(* test accessors over the merged view *)
let counter_value name =
  match List.assoc_opt name (merged_counters ()) with Some n -> n | None -> 0

let gauge_last name =
  Option.map fst (List.assoc_opt name (merged_gauges ()))

let span_count name =
  match List.assoc_opt name (merged_spans ()) with
  | Some (n, _, _, _) -> n
  | None -> 0

let hist_count name =
  match List.assoc_opt name (merged_hists ()) with
  | Some (n, _, _, _) -> n
  | None -> 0

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let schema_version = "paqoc-metrics v1"

let report () =
  Json.Obj
    [ ("schema", Json.Str schema_version);
      ( "counters",
        Json.Obj
          (List.map (fun (k, n) -> (k, Json.int n)) (merged_counters ())) );
      ( "gauges",
        Json.Obj
          (List.map
             (fun (k, (last, mx)) ->
               (k, Json.Obj [ ("last", Json.Num last); ("max", Json.Num mx) ]))
             (merged_gauges ())) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, (n, sum, mn, mx)) ->
               ( k,
                 Json.Obj
                   [ ("count", Json.int n);
                     ("sum", Json.Num sum);
                     ("min", Json.Num mn);
                     ("max", Json.Num mx);
                     ("mean", Json.Num (sum /. float_of_int (max 1 n)))
                   ] ))
             (merged_hists ())) );
      ( "spans",
        Json.Obj
          (List.map
             (fun (k, (n, total, mn, mx)) ->
               ( k,
                 Json.Obj
                   [ ("count", Json.int n);
                     ("total_s", Json.Num total);
                     ("min_s", Json.Num mn);
                     ("max_s", Json.Num mx)
                   ] ))
             (merged_spans ())) );
      ("domains", Json.Arr (List.map Json.int (domains ())))
    ]

let report_json () = Json.to_string (report ())

(* Chrome trace-event format: one "X" (complete) event per span, ts/dur in
   microseconds, tid = recording domain. Load the file in about:tracing or
   https://ui.perfetto.dev to see the per-domain timeline. *)
let trace_json () =
  Json.to_string
    (Json.Obj
       [ ( "traceEvents",
           Json.Arr
             (List.map
                (fun sp ->
                  Json.Obj
                    [ ("name", Json.Str sp.sp_name);
                      ("cat", Json.Str "paqoc");
                      ("ph", Json.Str "X");
                      ("ts", Json.Num (sp.sp_start *. 1e6));
                      ("dur", Json.Num (sp.sp_dur *. 1e6));
                      ("pid", Json.int 1);
                      ("tid", Json.int sp.sp_dom)
                    ])
                (all_spans ())) );
         ("displayTimeUnit", Json.Str "ms")
       ])

let write_report path =
  Atomic_file.write ~what:"Obs.write_report" path (fun oc ->
      output_string oc (report_json ()))

let write_trace path =
  Atomic_file.write ~what:"Obs.write_trace" path (fun oc ->
      output_string oc (trace_json ()))
