(** AccQOC's similarity graph and MST generation order.

    AccQOC generates pulses for its sliced subcircuits in an order that
    maximises warm-start reuse: build a complete similarity graph over the
    distinct subcircuits (distance = edit distance between their canonical
    gate strings, penalised across qubit counts), take its minimum spanning
    tree, and generate along a tree traversal so that every pulse is seeded
    by its most similar already-generated neighbour. *)

(** [distance a b] is a Levenshtein-style distance between group shape
    signatures, tokenised per gate: {!Paqoc_pulse.Generator.token_distance}
    over the two groups' per-gate tokens, plus 4 per qubit of
    qubit-count difference. *)
val distance : Paqoc_pulse.Generator.group -> Paqoc_pulse.Generator.group -> int

(** [generation_order groups] returns the groups reordered along an MST
    pre-order walk (root = smallest group). Duplicate keys are collapsed
    first; the result enumerates distinct groups only. *)
val generation_order :
  Paqoc_pulse.Generator.group list -> Paqoc_pulse.Generator.group list
