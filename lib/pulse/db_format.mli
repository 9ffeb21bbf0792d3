(** The on-disk pulse-database formats, shared by {!Generator} (the
    per-generator snapshot) and {!Cache} (the cross-run shared cache).

    Three versions of one line-oriented text format exist
    (see [docs/pulse-db-format.md] for the byte-level specification):

    - {b v1} — header ["paqoc-pulse-db v1"], then [K] (priced entry) and
      [S] (shape signature) records with no provenance token;
    - {b v2} — v1 plus a provenance token ([q] synthesized / [f]
      fallback) on every [K] record; still a pure snapshot, written
      atomically and sorted;
    - {b v3} — a v2-style sorted snapshot section followed by an
      append-only {e journal} of [+K]/[+S] records. Appends are cheap
      (one [write] per record); {!Cache} periodically {e compacts} the
      journal back into the sorted snapshot. A file whose final journal
      record was torn by a crash (no trailing newline) is still loadable:
      the torn tail is dropped during replay.
    - {b v4} — v3 plus [C] (equivalence-class) records: the canonical
      class key, the representative group's qubit count and unitary
      (flattened [%.17g] floats, exact round trip) and, last because keys
      may contain spaces, the representative's exact key. [C] lines close
      the sorted snapshot (after [K] and [S]) and [+C] may appear in the
      journal. A v3 file is a valid v4 file with no class section, and a
      cache that never publishes a class writes v3 bytes — the
      canonicalization-off byte-identity guarantee
      (see [docs/canonicalization.md]).

    This module is parsing, serialisation and the one snapshot writer
    ({!write}) — no table semantics. Consumers decide how duplicate keys
    merge (the generator keeps the first occurrence, the cache replays
    journals with last-wins). *)

(** How a priced entry was obtained; the [q]/[f] token of v2+. The
    canonical definition lives here so that {!Generator} and {!Cache}
    (which cannot depend on each other) share one type. *)
type provenance = Synthesized | Fallback

(** One priced database entry: what a [K] record carries. Waveforms are
    never persisted — a QOC backend regenerates them on demand. *)
type entry = {
  latency : float;  (** pulse duration, device dt *)
  error : float;  (** per-group infidelity *)
  fidelity : float;  (** achieved gate fidelity *)
  provenance : provenance;
}

(** One equivalence class (v4 [C] record): distinct exact keys whose
    unitaries are locally equivalent (see [Paqoc_canon.Canon]) share the
    pulse priced under [rep_key]. The representative's unitary rides
    along so a later run can reconstruct the local-frame correction
    before replaying. *)
type class_info = {
  class_key : string;  (** canonical class key; space-free *)
  n_qubits : int;  (** 1..3 *)
  unitary : float array;  (** representative unitary, row-major re/im *)
  rep_key : string;  (** exact key the class's pulse is priced under *)
}

(** A parsed record: a priced entry keyed by the canonical group key, a
    known shape signature, or an equivalence-class record (v4). *)
type record = Priced of string * entry | Shape of string | Class of class_info

type version = V1 | V2 | V3 | V4

(** [magic v] is the header line of version [v],
    e.g. ["paqoc-pulse-db v3"]. *)
val magic : version -> string

(** [version_of_magic line] recognises a header line. *)
val version_of_magic : string -> version option

(** {1 Serialisation} *)

(** [record_line r] is the snapshot line for [r], without the trailing
    newline — ["K <lat> <err> <fid> <q|f> <key>"], ["S <sign>"] or
    ["C <class_key> <n> <floats…> <rep_key>"] (floats printed as
    [%.17g], so round-trips are exact). *)
val record_line : record -> string

(** [journal_line r] is the v3/v4 journal form: ["+"] followed by
    {!record_line}. *)
val journal_line : record -> string

(** [snapshot_body ?classes entries shapes] renders the canonical
    snapshot body: [K] lines sorted by key, then [S] lines sorted by
    signature, then [C] lines sorted by class key, each
    newline-terminated. With [classes = []] (the default) the bytes are
    exactly the pre-v4 body. The bytes are a pure function of the
    contents, which is what makes saved databases comparable across runs
    and worker counts. *)
val snapshot_body :
  ?classes:class_info list -> (string * entry) list -> string list -> string

(** [write ~what ?classes version path entries shapes] writes a snapshot
    file — the [version] header line, then {!snapshot_body} — through
    {!Paqoc_obs.Atomic_file.write}. This is the only writer of the
    format: {!Generator.save_database} (v2) and the shared {!Cache}'s
    save and compaction (v3/v4) all call it. An armed
    {!Faultin.Db_save_error} fails the write after the temporary file
    is opened.
    @raise Failure ["<what>: <reason> (<path>)"] on any I/O failure; the
    file at [path] is left as it was and no [path.tmp] remains. *)
val write :
  what:string ->
  ?classes:class_info list ->
  version ->
  string ->
  (string * entry) list ->
  string list ->
  unit

(** {1 Parsing} *)

(** A fully parsed file. *)
type contents = {
  version : version;
  snapshot : record list;  (** snapshot records, in file order *)
  journal : record list;  (** complete v3 journal records, in file order *)
  torn_tail : bool;  (** a torn trailing journal record was dropped *)
  valid_bytes : int;
      (** offset one past the last complete record — the length to
          truncate a torn file back to before appending to it *)
}

(** [parse_string s] parses a whole database file image.

    Rules: a 0-byte image is the error ["empty file"]; otherwise the
    header must be a known magic (["bad header"], an empty first line
    included); every complete line must
    parse ([K]/[S] in the snapshot section — plus [C] in v4 —
    [+K]/[+S]/[+C] after the first journal record; blank lines are
    skipped); a snapshot record after a journal record is an error, as is
    a [C] record in a pre-v4 file and a malformed or truncated class
    record (["bad class arity"], ["bad class float"] — a class
    record's unitary entries must be finite —,
    ["truncated class record"]). A [K] record's values must be finite,
    its latency non-negative and its error at most 1 and at least
    [-1e-9] (a QOC row's [1 - fidelity] may round a few ulps below 0):
    ["bad latency"], ["bad error"], ["bad fidelity"]. A record error
    names its line: ["line 2: bad latency"]. In a v3/v4 file only, a final segment
    with no trailing newline is a torn journal tail and is dropped (that
    is the crash-replay rule — appends are a single write, so a crash can
    only tear the last record). *)
val parse_string : string -> (contents, string) result

(** [parse_file path] reads and parses [path]. A path that cannot be
    read (missing, a directory, an I/O error) is an [Error] too; this
    never raises. *)
val parse_file : string -> (contents, string) result
