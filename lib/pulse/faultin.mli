(** Deterministic fault injection for the pulse pipeline.

    Production pulse services treat per-gate calibration failure as
    routine, not fatal — but the failure paths (diverging QOC runs,
    timeouts, crashed workers, failing database writes) almost never fire
    organically in a test run. This module lets tests, benches and the CLI
    ([--inject]) arm any of those paths on demand, deterministically, so
    every retry/fallback branch can be exercised and asserted on.

    The layer is process-global like {!Paqoc_obs.Obs}: injection points
    call {!fire} (one atomic load when nothing is armed), and a test or
    the CLI arms points with {!configure}. Triggers are a pure function of
    the per-point call count (and, for [Prob], a seed), so a serial run
    fires the same faults every time. Under [--jobs N > 1] the call-count
    assignment across worker domains depends on scheduling; only
    {!Always} is deterministic there — arm counted or probabilistic
    triggers with [jobs = 1] (the documented contract, same spirit as the
    generator's determinism guarantee). *)

(** Where a fault can be injected. *)
type point =
  | Grape_diverge  (** GRAPE reports divergence without optimising *)
  | Db_save_error
      (** {!Db_format.write}, the one pulse-DB writer behind
          {!Generator.save_database}, {!Cache.save} and cache
          compaction, fails mid-write *)
  | Journal_append_error
      (** a {!Cache} journal append fails before the record lands; the
          append layer rolls the file back so it is never left torn *)
  | Pool_task_crash  (** a pool task raises before running *)
  | Timeout  (** a QOC task's deadline fires immediately *)
  | Drift_shock
      (** the service resolves a compile's device one calibration epoch
          later than requested ({!Paqoc_topology.Drift}), modelling an
          unannounced recalibration landing mid-traffic: the device hash
          changes, every shared-cache key misses, and the request pays
          full resynthesis under the new namespace *)

(** When an armed point actually fires, as a function of the point's
    1-based call count. *)
type trigger =
  | Always
  | First of int  (** calls 1..n fire, later calls pass *)
  | Every of int  (** every nth call fires *)
  | Prob of float * int  (** each call fires with probability [p], seeded *)

(** Raised by injection sites that model a crash (pool tasks). Sites that
    model a soft failure (GRAPE divergence, timeouts) instead surface the
    fault through their own typed error channel. *)
exception Injected of point

val point_name : point -> string

(** [configure points] arms exactly [points] (replacing any previous
    configuration) and resets all call counts. *)
val configure : (point * trigger) list -> unit

(** [reset ()] disarms everything and clears call counts. *)
val reset : unit -> unit

(** [active ()] — currently armed points, in a fixed order. *)
val active : unit -> (point * trigger) list

(** [fire p] records one call at point [p] and reports whether the fault
    fires. Free (one atomic load) when nothing is armed. Counts an
    ["faultin.<point>"] {!Paqoc_obs.Obs} counter on every firing. *)
val fire : point -> bool

(** [call_count p] — calls recorded at [p] since the last
    {!configure}/{!reset} (0 when never armed). *)
val call_count : point -> int

(** [parse_spec s] parses a CLI injection spec: a comma-separated list of
    [point\[:option\]*] clauses, e.g. ["grape-diverge"],
    ["timeout:first=2"], ["db-save-error:every=3"],
    ["grape-diverge:prob=0.25:seed=42,timeout"]. Points:
    [grape-diverge], [db-save-error], [journal-append-error],
    [pool-task-crash], [timeout], [drift-shock]. Returns [Error msg] on
    malformed input. *)
val parse_spec : string -> ((point * trigger) list, string) result

(** [spec_to_string pts] prints a spec {!parse_spec} accepts (diagnostic
    round-trip). *)
val spec_to_string : (point * trigger) list -> string

(** [with_faults points f] arms [points], runs [f], and always restores
    the previous configuration — the test-friendly scoped form. *)
val with_faults : (point * trigger) list -> (unit -> 'a) -> 'a
