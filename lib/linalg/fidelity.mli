(** Fidelity measures between unitaries and states.

    GRAPE optimises the phase-insensitive trace fidelity
    [F = |Tr(U_target† U)|² / d²]; the paper's per-gate error term is
    [ε = |U - H(t)| := 1 - F]; the circuit-level metric
    [ESP = Π (1 - ε_i)] (Eq. 2) is folded where circuits are priced
    ([Paqoc_pulse.Pricing.price]). *)

(** [trace_overlap target u] is [|Tr(target† u)| / d] in [0, 1]. *)
val trace_overlap : Cmat.t -> Cmat.t -> float

(** [gate_fidelity target u] is [trace_overlap² ] — the functional GRAPE
    maximises. *)
val gate_fidelity : Cmat.t -> Cmat.t -> float

(** [gate_error target u] is [1 - gate_fidelity target u], the paper's
    per-customized-gate [ε]. *)
val gate_error : Cmat.t -> Cmat.t -> float

(** [avg_gate_fidelity target u] is the average-over-Haar-states gate
    fidelity [(d·F_pro + 1) / (d + 1)] with [F_pro] the process (trace)
    fidelity. *)
val avg_gate_fidelity : Cmat.t -> Cmat.t -> float
