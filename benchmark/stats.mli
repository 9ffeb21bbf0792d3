(** Order statistics for the benchmark's reports.

    Percentiles are nearest-rank: the [p]th percentile of [n] ascending
    samples is the sample at 1-based rank [ceil (p/100 * n)] — always an
    observed value, never an interpolation. A percentile is only
    {e reportable} when at least {!min_beyond} samples lie above its
    rank; a p95 over 17 samples (one sample beyond it) is not a p95.

    Medians and quartiles follow Python's [statistics.median] and
    [statistics.quantiles(data, n=4)] (the default "exclusive" method),
    so a spread computed here equals the one a Python script computes
    over the same values. *)

(** [sorted l] is [l] as an ascending array. *)
val sorted : float list -> float array

(** [rank ~n p] is the 1-based nearest rank of percentile [p] over [n]
    samples.
    @raise Invalid_argument when [n < 1] or [p] is outside [(0, 100]]. *)
val rank : n:int -> float -> int

(** [percentile sorted p] is the nearest-rank [p]th percentile of the
    ascending array [sorted].
    @raise Invalid_argument on an empty array or a bad [p]. *)
val percentile : float array -> float -> float

(** Samples required above a percentile's rank before it is reported
    (10). *)
val min_beyond : int

(** [beyond ~n p] is the number of samples above [p]'s rank. *)
val beyond : n:int -> float -> int

(** [reportable ~n p] is [beyond ~n p >= min_beyond]. *)
val reportable : n:int -> float -> bool

(** [tail sorted] is the highest of p50, p90, p95, p99 and p99.9 that is
    reportable over [sorted], with its value; [None] when not even the
    median is. *)
val tail : float array -> (float * float) option

(** [median l] is the middle value, or the mean of the two middle values
    for an even count.
    @raise Invalid_argument on an empty list. *)
val median : float list -> float

(** [quartiles l] is [(q1, q2, q3)] by the exclusive method.
    @raise Invalid_argument on fewer than two samples. *)
val quartiles : float list -> float * float * float

(** [mean l]; [nan] on an empty list. *)
val mean : float list -> float

(** [geomean l] of positive values; [nan] on an empty list. *)
val geomean : float list -> float
