(** Monotonic wall clock.

    All duration measurements in the code base go through this module so
    that per-task accounting is wall time on a monotonic clock — immune to
    both NTP adjustments and the classic [Sys.time] bug where process-wide
    CPU time inflates every concurrent task's reading by the work the
    other domains did. *)

(** Seconds on CLOCK_MONOTONIC (arbitrary epoch); subtract two readings
    for an elapsed wall-clock duration. *)
val now_s : unit -> float
