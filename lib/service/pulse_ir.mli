(** paqoc-ir v1: byte-deterministic pulse-level export (OpenPulse-style).

    A compiled circuit's pulse program as one self-contained JSON
    document: device metadata (name, content hash, and the calibrated
    [synthesis_mu]/[drive_bound] the optimiser ran against), whole-
    circuit price ([latency], [esp]), and the serial schedule — one
    {!instruction} per gate group carrying its start time, duration,
    error, fidelity and {!provenance}; on the QOC backend also the
    sampled per-channel waveform and the group's target unitary.

    {b Determinism.} {!to_string} emits object keys in sorted order and
    every float as [%.17g] (which round-trips IEEE doubles exactly), so
    the bytes are a canonical function of the value: a compile at
    [--jobs 4] exports the same file as [--jobs 1], the file is
    golden-testable, and [of_string >> to_string] is the identity on
    anything the writer produced.

    {b Self-verification.} Because each QOC instruction carries its
    waveform, its target unitary and the device bounds, {!verify} can
    rebuild the exact synthesis Hamiltonian from the channel labels,
    re-simulate the waveform ({!Paqoc_pulse.Pulse.propagator}) and
    compare the achieved trace fidelity against the recorded one —
    independently of the compiler state that produced the file.

    See [docs/pulse-ir.md] for the byte-level specification. *)

(** The format token: ["paqoc-ir v1"]. *)
val version : string

(** How an instruction's price was obtained. [Synthesized] and
    [Fallback] mirror {!Paqoc_pulse.Generator.provenance};
    [Class_replay] marks a pulse borrowed from an equivalence-class
    representative ({!Paqoc_pulse.Generator.canonical_replays});
    [Interp] is reserved for anchor-interpolated variational exports
    (accepted by the reader, never emitted by {!of_compiled}). *)
type provenance = Synthesized | Fallback | Class_replay | Interp

val provenance_name : provenance -> string
val provenance_of_name : string -> provenance option

(** One control channel's sampled amplitudes (rad/dt), labelled exactly
    like the Hamiltonian control it drives ([x0], [y0], [xy0_1], ...). *)
type channel = { label : string; samples : float array }

(** The waveform-level payload a QOC-backend instruction carries:
    channels in Hamiltonian control order, the slice width, and the
    group's target unitary in {!Paqoc_canon.Canon.unitary_to_floats}
    layout. *)
type waveform = { dt : float; channels : channel list; unitary : float array }

(** One scheduled gate group. [qubits] are the global device qubits in
    local-wire order; [t0] is the serial start time in device dt
    (groups are scheduled back to back, so [t0] is the running sum of
    earlier durations). [waveform] is [None] on the model backend. *)
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
  backend : string;  (** ["model"] or ["qoc"] *)
  device_name : string;
  device_hash : string;  (** {!Paqoc_topology.Device.hash} *)
  device_qubits : int;
  synthesis_mu : float;  (** {!Paqoc_topology.Device.synthesis_mu} *)
  drive_bound : float;  (** {!Paqoc_topology.Device.drive_bound} *)
  latency : float;
  esp : float;
  schedule : instruction list;
}

(** [of_compiled c] builds the IR for a finished {!Service.compile}: one
    instruction per group of [c.grouped], each group's outcome read back
    from [c.gen] with {!Paqoc_pulse.Generator.peek} (class-tier replays
    are marked from {!Paqoc_pulse.Generator.canonical_replays}), the
    device metadata from [c.device] and the whole-circuit price from
    [c.result].
    @raise Failure when a group was never priced by [c.gen] (the
    circuit and generator do not belong together). *)
val of_compiled : Service.compiled -> t

(** [reference_golden ()] is the IR of the repository's golden export:
    the [qaoa] benchmark compiled through {!Service.compile} with the
    default request (default scheme and device, model backend) — the
    value behind
    [test/golden/ir_qaoa.json] (written by [make update-golden],
    compared byte-for-byte by the device test battery). *)
val reference_golden : unit -> t

(** {1 Writer} *)

(** [to_string t] is the canonical document: sorted keys, [%.17g]
    floats, one instruction per line, trailing newline. *)
val to_string : t -> string

(** [save t path] writes {!to_string} through
    {!Paqoc_obs.Atomic_file.write}.
    @raise Failure naming [path] on an I/O error; [path] is never left
    torn and no [path.tmp] remains. *)
val save : t -> string -> unit

(** {1 Reader} *)

(** Typed parse failures — malformed input is a value, not an
    exception. *)
type error =
  | Bad_json of string  (** not JSON at all (or an unreadable file) *)
  | Bad_format of string
      (** the [format] token is not {!version} (carries what was found) *)
  | Missing_field of string  (** a required field is absent (dotted path) *)
  | Bad_field of string * string  (** a field has the wrong type/value *)
  | Bad_instruction of int * string
      (** schedule entry [i] is malformed (bad provenance token, ragged
          or empty channels, missing waveform companions, ...) *)

val error_to_string : error -> string

(** [of_string s] parses one document. Total: any byte string either
    decodes or yields a typed [Error]. Every number must be finite: a
    literal that overflows a double (say [1e999]) is a [Bad_field], or a
    [Bad_instruction] inside the schedule, naming its path (a list
    element by its index). *)
val of_string : string -> (t, error) result

(** [load path] reads and parses a file; an unreadable file is
    [Error (Bad_json _)]. *)
val load : string -> (t, error) result

(** {1 Verification} *)

type verify_report = {
  checked : int;  (** instructions with waveforms re-simulated *)
  skipped : int;  (** waveform-free (model-backend) instructions *)
  max_drift : float;  (** max |recorded - re-simulated| fidelity *)
}

(** [verify ?tol t] re-simulates every waveform-carrying instruction:
    the synthesis Hamiltonian is rebuilt from the channel labels and the
    document's device bounds, the waveform is propagated, and the
    achieved {!Paqoc_linalg.Fidelity.gate_fidelity} against the embedded
    target unitary must agree with the instruction's recorded [fidelity]
    to within [tol] (default [1e-9]). [Error] carries the first failing
    instruction and reason (a target unitary that is not one of one to
    three qubits — a waveform on no qubits included —, label mismatch,
    or fidelity drift beyond [tol]). The waveform numbers must be finite,
    as {!of_string} guarantees. *)
val verify : ?tol:float -> t -> (verify_report, string) result
