(** The shared, persistent, cross-run pulse cache.

    The paper's offline/online split amortises QOC cost across {e reuse}:
    a pulse priced once should never be synthesised again — not later in
    the same compile, not in the next benchmark of a suite, not in
    tomorrow's run. {!Generator} already provides the first level (its
    per-generator database); this module provides the other two:

    - {b shared across compilations} — one [Cache.t] can back any number
      of generators concurrently. The table is content-addressed by the
      canonical group key (see {!Generator.key}), and one mutex guards
      its entry, shape and class tables. That lock is enough for the
      traffic: a compile touches the cache only from its generator's
      serial plan and commit phases, so at most [serve --jobs]
      compiles contend for it, and a cold Table I [compile-suite] takes
      it 5,369 times (a warm one 1,310 times). The journal keeps its
      own lock, so a probe never waits on a file write;
    - {b persistent across runs} — a cache opened with {!open_file} is
      backed by a ["paqoc-pulse-db v3"] journal file: every fresh publish
      appends one record (a single [write]), and the journal is
      {e compacted} back into the sorted snapshot form once it is as
      long as that snapshot (and at least 256 records).
      A crash can tear at most the final append; {!Db_format}'s replay
      rule drops a torn tail, and {!open_file} truncates it away before
      appending again. v1/v2 snapshot files load transparently and are
      migrated to v3 on open.

    Observability: lookups, publishes and compactions count the
    [cache.hit] / [cache.miss] / [cache.publish] / [cache.compaction]
    {!Paqoc_obs.Obs} counters, and every instance keeps its own
    {!stats} so suite drivers can report per-benchmark hit rates.

    Determinism: the snapshot bytes written by {!compact} (and by
    {!close}) are a sorted, canonical function of the cache contents.
    When publishes are serialised — as {!Generator} does, publishing
    from its in-order commit phase — the journal order, the compaction
    points and therefore every byte on disk are independent of the
    worker count. *)

(** A priced entry, as persisted: latency, error, fidelity, provenance.
    The concrete record is {!Db_format.entry} — waveforms are never
    stored; a QOC backend regenerates them on demand, warm-started from
    the published shape signatures. *)
type entry = Db_format.entry = {
  latency : float;
  error : float;
  fidelity : float;
  provenance : Db_format.provenance;
}

type t

(** Monotonic per-instance counters, readable at any time. *)
type stats = {
  hits : int;
      (** consults answered from the cache (either tier): {!find} hits
          and the [`Hit] / [`Canonical_hit] verdicts of {!note_consult} *)
  misses : int;  (** consults the cache could not answer *)
  canonical_hits : int;
      (** the subset of [hits] answered by the class tier — replays of a
          class-mate's pulse *)
  publishes : int;  (** fresh entries accepted by {!publish} *)
  compactions : int;  (** journal compactions (incl. v1/v2 migration) *)
  appends : int;  (** journal records appended since open *)
}

(** [create ()] is a fresh in-memory cache (no backing file). *)
val create : unit -> t

(** [open_file path] opens a persistent cache backed by [path]:

    - a missing or 0-byte file is initialised as an empty v3 journal;
    - an existing v1/v2 snapshot is loaded and compacted to v3 in place;
    - an existing v3 or v4 file is loaded (snapshot, then journal replay
      with last-wins semantics); a torn trailing record is dropped and
      truncated away so subsequent appends start from a clean tail. A v3
      file stays v3 unless a class record is published into it
      ({!publish_class}'s v4 upgrade).

    The journal is bounded by the snapshot it follows: the append that
    brings it to as many records as the file's snapshot section holds,
    and never fewer than 256, compacts the file back to a sorted
    snapshot. Each record is thus rewritten O(1) times amortized: the
    compactions before {!close} rewrite at most twice the records
    journaled.

    @raise Failure on a malformed file, a path that cannot be read (a
    directory, say, which is left as it was) or an I/O error. *)
val open_file : string -> t

(** [with_file path f] opens [path], runs [f], and always closes the
    cache (compacting any pending journal) before returning. *)
val with_file : string -> (t -> 'a) -> 'a

(** The backing file, when the cache is persistent. *)
val path : t -> string option

(** {1 Lookup and publish} *)

(** [find t key] is the entry published under [key], counting
    [cache.hit] / [cache.miss] (and {!stats}). Use for the authoritative
    consult on the synthesis path. *)
val find : t -> string -> entry option

(** [probe t key] is {!find} without the hit/miss accounting — for
    warm-start planning probes (prefix and similarity lookups) that
    should not distort the hit rate. *)
val probe : t -> string -> entry option

(** [probe_class t class_key] reads the class tier without accounting. *)
val probe_class : t -> string -> Db_format.class_info option

(** [note_consult t verdict] records one authoritative consult's outcome
    in the counters without probing; {!find} is {!probe} followed by
    this. It is how {!Generator}'s batch planner scores the consults it
    resolves itself with {!probe} and {!probe_class}: an exact hit
    scores [`Hit]; a class-tier hit — a verified replay of a shared
    class record, or of an in-batch class-mate the serial commit order
    would already have published here — scores [`Canonical_hit], which
    counts [cache.hit] {e and} [cache.canonical_hit]; anything else
    scores one [`Miss]. In-batch exact duplicates are generator-table
    hits and are not scored. *)
val note_consult : t -> [ `Hit | `Canonical_hit | `Miss ] -> unit

(** [publish t key e] makes [e] available under [key] and, on a
    persistent cache, appends one journal record. Publishing an
    already-present key is a no-op (the cache is content-addressed:
    equal keys denote equal pulses), so republishing costs nothing and
    the journal only ever grows by fresh work.

    @raise Failure when the journal append fails (including an armed
    {!Faultin.Journal_append_error}); the backing file is rolled back to
    its pre-append length, so it is never left torn. The in-memory entry
    is kept — the cache stays ahead of its journal, never behind. *)
val publish : t -> string -> entry -> unit

(** [publish_shape t sign] records a shape signature (the warm-start
    index), with the same journal and no-op-on-duplicate semantics as
    {!publish}. *)
val publish_shape : t -> string -> unit

(** [publish_class t ci] records an equivalence-class representative:
    future groups whose canonical key equals [ci.class_key] replay the
    pulse priced under [ci.rep_key]. First-publisher-wins (a duplicate
    class key is a no-op), so with serialised publishes the
    representative — and every byte that follows — is independent of the
    worker count. On a persistent cache the first class record upgrades
    a v3 backing file to v4 by compaction; after that each fresh class
    appends one [+C] journal record. Counts [cache.class_publish].
    @raise Failure as {!publish}. *)
val publish_class : t -> Db_format.class_info -> unit

(** [mem_shape t sign] — whether [sign] has been published. *)
val mem_shape : t -> string -> bool

(** {1 Maintenance} *)

(** Number of priced entries / shape signatures / class records held. *)
val size : t -> int

val n_shapes : t -> int
val n_classes : t -> int
val stats : t -> stats

(** [compact t] rewrites the backing file as a sorted snapshot with an
    empty journal (through {!Db_format.write}: atomic tmp + rename) — v3
    bytes when no class records exist, v4 otherwise. No-op on an in-memory cache.
    @raise Failure on an I/O error (including an armed
    {!Faultin.Db_save_error}); the existing file is left intact. *)
val compact : t -> unit

(** [evict_devices ?keep t] implements the device recalibration policy:
    entries, shape signatures and class records published under a
    ["dev:<hash>|"] namespace ({!Paqoc_topology.Device.cache_namespace})
    whose hash is {e not} in [keep] are dropped; default-lattice records
    (no namespace) are never touched. Stale records are otherwise kept
    indefinitely — a drift epoch may roll back — so eviction is always
    an explicit call, not a side effect of drifting. Returns the number
    of records dropped, counts each as [cache.device_evicted], and (on a
    journaled cache) compacts so the backing file drops them too.
    @raise Failure when the post-eviction compaction fails (the
    in-memory eviction has already happened; the file is left intact). *)
val evict_devices : ?keep:string list -> t -> int

(** [save t path] writes a sorted snapshot (v3, or v4 when class records
    exist) of the current contents to an arbitrary [path] (atomic),
    leaving the backing journal (if any) untouched.
    @raise Failure on an I/O error. *)
val save : t -> string -> unit

(** [close t] compacts any pending journal records and closes the
    backing file. Idempotent; no-op on an in-memory cache.
    @raise Failure when the final compaction fails (the journal file is
    still valid — compaction is atomic). *)
val close : t -> unit
