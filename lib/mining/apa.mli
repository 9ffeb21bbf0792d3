(** APA-basis gate construction (the [M] knob of Section VI).

    Turns mined frequent subcircuits into augmented program-aware basis
    gates and rewrites the circuit to use them. [M] bounds how many
    distinct APA gates (beyond the universal basis) are admitted:

    - [M_zero] — no APA gates; the circuit is returned untouched
      (paqoc(M=0));
    - [M_inf] — every frequent pattern becomes an APA gate
      (paqoc(M=inf));
    - [M_tuned] — the smallest [M] that makes APA-gate uses the majority
      of the rewritten circuit's gates (paqoc(M=tuned));
    - [M_limit k] — the top-[k] patterns by coverage.

    Occurrences are replaced greedily in coverage order; only occurrences
    whose node-id spans do not interleave are taken together, which keeps
    the simultaneous contraction trivially acyclic. Each occurrence keeps
    its own concrete rotation angles inside the shared APA gate name —
    exactly the paper's offline (structure) / online (parameters) split. *)

type mode = M_zero | M_tuned | M_inf | M_limit of int

type result = {
  circuit : Paqoc_circuit.Circuit.t;  (** rewritten circuit *)
  apa_gates : (string * Pattern.t) list;  (** admitted APA basis gates *)
  m_used : int;  (** distinct APA gates actually used *)
  substitutions : int;  (** occurrences replaced *)
  gates_covered : int;  (** original gates absorbed into APA gates *)
}

(** [apply ?miner ~mode c] mines [c] and rewrites it under the [M] policy. *)
val apply : ?miner:Miner.config -> mode:mode -> Paqoc_circuit.Circuit.t -> result
