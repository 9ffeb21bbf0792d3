(** Process-global metrics and tracing for the compile pipeline.

    The pipeline's headline claims are about {e time}, so the pipeline
    carries a single global observability sink that any layer can record
    into without threading a handle: hierarchical wall-clock {b spans}
    ({!with_span}), monotonically increasing {b counters} ({!count}),
    last-value {b gauges} ({!gauge}) and {b histograms} ({!observe}).

    The sink is disabled by default and every recording point costs one
    atomic load in that state, so instrumentation can live in hot paths.
    When enabled, each domain records into its own buffer ([Domain.DLS]) —
    no cross-domain contention — and the buffers are merged only when a
    report is taken. Worker-domain events survive the domain's death.

    Reports are deterministic in {e structure}: every map in the JSON is
    sorted by name, and values that do not involve the clock (counters,
    gauges, histogram observations of deterministic quantities) are
    reproducible, which is what the test suite asserts on.

    Intended protocol: [enable] at a quiescent point, run the
    instrumented workload, then [report_json]/[trace_json] after the
    workload (including any worker domains) has finished; [reset] turns
    recording off again. *)

(** {1 Lifecycle} *)

(** [enable ()] clears all recorded data and turns recording on. *)
val enable : unit -> unit

(** [reset ()] turns recording off and discards all recorded data. *)
val reset : unit -> unit

val enabled : unit -> bool

(** {1 Recording} *)

(** [with_span name f] runs [f], recording a wall-clock span around it on
    the calling domain. Spans nest (the per-domain nesting depth is
    recorded); the span is recorded even when [f] raises. Disabled: tail
    calls [f] with no other work. *)
val with_span : string -> (unit -> 'a) -> 'a

(** [count ?n name] adds [n] (default 1) to counter [name]. *)
val count : ?n:int -> string -> unit

(** [gauge name v] sets gauge [name] to [v]; the report keeps the last and
    the maximum value ever set. *)
val gauge : string -> float -> unit

(** [observe name v] adds observation [v] to histogram [name]; the report
    keeps count/sum/min/max/mean. *)
val observe : string -> float -> unit

(** {1 Reports}

    All maps sorted by name; see DESIGN.md §6 for the schema. *)

(** Aggregated report (schema ["paqoc-metrics v1"]) as a {!Json.t}
    value, for callers that embed it in a larger document. *)
val report : unit -> Json.t

(** {!report} printed through {!Json.to_string}. *)
val report_json : unit -> string

(** Chrome trace-event JSON (one complete event per span, [tid] = domain);
    load in [about:tracing] or Perfetto. *)
val trace_json : unit -> string

(** [write_report path] / [write_trace path] dump through
    {!Atomic_file.write}: a failed dump leaves [path] as it was and no
    [path.tmp] behind.
    @raise Failure naming [path] when it cannot be written. *)
val write_report : string -> unit

val write_trace : string -> unit

(** {1 Merged accessors (tests, bench)} *)

(** Merged value of a counter across all domains (0 when absent). *)
val counter_value : string -> int

(** Last value set on a gauge, across all domains ([None] when absent). *)
val gauge_last : string -> float option

(** Number of completed spans recorded under a name, across all domains. *)
val span_count : string -> int

(** Number of observations recorded under a histogram name. *)
val hist_count : string -> int
