(** SABRE qubit routing (Li, Ding, Xie — ASPLOS 2019).

    Maps a logical circuit whose gates touch at most two qubits onto a
    coupling graph, inserting SWAPs so that every two-qubit gate acts on
    coupled physical qubits. This is the heuristic the paper's platform
    section specifies for its 5x5 grid. Routing starts from the trivial
    layout (logical qubit [i] on physical qubit [i]).

    The scoring is the published one: the summed distance of the front
    layer plus a discounted extended-lookahead term, with a per-qubit decay
    that spreads consecutive SWAPs across the device. At each stall (no
    front gate routable) every candidate SWAP — a device edge at a
    front gate's qubit — is scored once, its distances summed as exact
    integers, and the least [(score, edge)] is taken, so ties break
    deterministically and routing is reproducible. *)

type result = {
  physical : Paqoc_circuit.Circuit.t;
      (** routed circuit over physical wires; inserted SWAPs appear as
          [Paqoc_circuit.Gate.SWAP] applications *)
  initial : Layout.t;  (** layout before the first gate *)
  final : Layout.t;  (** layout after the last gate *)
  swaps_added : int;
}

(** [route circuit coupling] routes [circuit] (1- and 2-qubit gates
    only; run decomposition first).
    @raise Invalid_argument on gates with three or more operands, or when
    the device has fewer qubits than the circuit.
    @raise Failure naming the first two-qubit gate whose operands lie in
    different components of [coupling] (no SWAP sequence can join them),
    before any routing work. *)
val route : Paqoc_circuit.Circuit.t -> Coupling.t -> result
