module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Pricing = Paqoc_pulse.Pricing
module Generator = Paqoc_pulse.Generator

type t = { circuit : Circuit.t; dag : Dag.t; sched : Dag.schedule }

let analyze gen c =
  Paqoc_obs.Obs.with_span "criticality.analyze" @@ fun () ->
  let dag = Dag.of_circuit c in
  (* schedule with database-or-estimate latencies: per Algorithm 1, the
     search itself never triggers pulse generation — only committed merges
     do (Merger) and the final schedule does (Paqoc.compile) *)
  let sched =
    Dag.schedule dag ~latency:(Pricing.episode_latency_estimate gen)
  in
  { circuit = c; dag; sched }

let is_critical t v = t.sched.Dag.critical.(v)
let total t = t.sched.Dag.total

let case_of t u v =
  match (is_critical t u, is_critical t v) with
  | true, true -> `I
  | true, false | false, true -> `II
  | false, false -> `III

let latency t v = t.sched.Dag.latency.(v)
let cp_after t v = t.sched.Dag.cp_after.(v)

(* ------------------------------------------------------------------ *)
(* Incremental engine                                                  *)
(* ------------------------------------------------------------------ *)

module Gate = Paqoc_circuit.Gate
module Obs = Paqoc_obs.Obs

(* The engine maintains the same four per-node quantities as {!analyze}
   — episode latency, earliest start, CP-after, critical membership —
   under merge edits, without re-running the full analysis per edit.

   Exactness, not approximation: every value the engine exposes is
   bitwise equal to what a from-scratch [analyze] of the same circuit
   against the same generator state would produce. This holds because
   (a) episode latencies come from the generator's write-through
   priced-latency memo, i.e. they are exactly the peek-or-estimate
   values [analyze] schedules with; (b) the est / cp_after recurrences
   are pure max-plus folds, whose results do not depend on evaluation
   order; and (c) the dirty-region rule below only ever {e skips}
   recomputing a node when all its inputs (its pred/succ set through
   the edit's renumbering, their values, and its own latency) are
   unchanged — in which case recomputation would reproduce the stored
   value verbatim. The differential battery in test_search pins this.

   Dirty-region rule. A merge edit contracts a few nodes of the
   committed DAG and renumbers the rest ({!Dag.contract} reports the
   renumbering). Its adjacency is the quotient's, so a surviving node's
   pred and succ sets are exactly the renumbered images of its old ones:
   only the merged nodes have new neighbourhoods. Scanning new ids in
   topological order, a node's est must be recomputed iff it is a
   merged node or some predecessor's est or latency changed; the
   recomputed value is flagged as changed only when it differs from the
   carried-over value, which is what stops the propagation wave a few
   levels past the edit site. cp_after mirrors this backwards over
   successor sets. Totals and criticality flags are cheap O(n) scans.

   Double buffering: [stage] computes the edit's consequences into a
   shadow buffer and returns the trial total; the caller either
   [commit]s (swap buffers, O(1)) or discards (do nothing). All
   buffers are preallocated at [create] and reused for every edit, and
   the waves below are closure-free folds into float arrays, so
   steady-state staging allocates only the contracted DAG — no circuit,
   no per-node float boxing, no worklists. *)
module Engine = struct
  type e = {
    gen : Generator.t;
    mutable next_uid : int;
    (* committed state *)
    mutable n : int;
    mutable circuit : Circuit.t option;  (** built on demand *)
    mutable dagv : Dag.t;
    mutable est : float array;
    mutable lat : float array;
    mutable cp : float array;
    mutable crit : bool array;
    mutable keys : string array;
    mutable uid : int array;
    mutable total : float;
    mutable epoch : int;  (** generator price epoch of [lat] *)
    (* shadow (staged) state *)
    mutable s_valid : bool;
    mutable s_n : int;
    mutable s_dag : Dag.t;
    mutable s_est : float array;
    mutable s_lat : float array;
    mutable s_cp : float array;
    mutable s_crit : bool array;
    mutable s_keys : string array;
    mutable s_uid : int array;
    mutable s_total : float;
    mutable s_epoch : int;
    mutable s_old : int array;  (** old_of_new from the contraction *)
    (* scratch, reused by every stage/refresh *)
    est_chg : bool array;
    lat_chg : bool array;
    cp_chg : bool array;
    acc : float array;  (** one slot: an in-place fold's result *)
  }

  let price_of_app gen (g : Gate.app) =
    let grp, _ = Generator.group_of_apps [ g ] in
    (Generator.key grp, Generator.priced_latency gen grp)

  (* the exact value [analyze]'s scheduler would use for this key *)
  let price_of_key e j_gate k =
    match Generator.priced_latency_of_key e.gen k with
    | Some l -> l
    | None -> snd (price_of_app e.gen j_gate)

  (* [fold_max dst i a b l] raises [dst.(i)] to [a.(x) +. b.(x)] for
     every [x] in [l]: the est (a = est, b = lat over preds) and
     cp_after (a = lat, b = cp over succs) recurrences of
     Dag.schedule. Top-level and array-to-array, so a fold allocates
     nothing — no closure, no boxed accumulator. *)
  let rec fold_max (dst : float array) i (a : float array) (b : float array)
      = function
    | [] -> ()
    | x :: rest ->
      let f = a.(x) +. b.(x) in
      if f > dst.(i) then dst.(i) <- f;
      fold_max dst i a b rest

  (* does any node of [l] carry a change flag in [c1] or [c2]? *)
  let rec any_flag (c1 : bool array) (c2 : bool array) = function
    | [] -> false
    | x :: rest -> c1.(x) || c2.(x) || any_flag c1 c2 rest

  (* total and criticality flags over the first [n] nodes *)
  let finish_total n (est : float array) (lat : float array) =
    let total = ref 0.0 in
    for v = 0 to n - 1 do
      let f = est.(v) +. lat.(v) in
      if f > !total then total := f
    done;
    !total

  let mark_critical n total (est : float array) (lat : float array)
      (cp : float array) (crit : bool array) =
    let eps = 1e-9 *. (1.0 +. total) in
    for v = 0 to n - 1 do
      crit.(v) <- est.(v) +. lat.(v) +. cp.(v) >= total -. eps
    done

  let create gen c =
    Obs.with_span "criticality.engine.create" @@ fun () ->
    let dagv = Dag.of_circuit c in
    let n = Dag.n_nodes dagv in
    let cap = max n 1 in
    let e =
      { gen;
        next_uid = n;
        n;
        circuit = Some c;
        dagv;
        est = Array.make cap 0.0;
        lat = Array.make cap 0.0;
        cp = Array.make cap 0.0;
        crit = Array.make cap false;
        keys = Array.make cap "";
        uid = Array.make cap 0;
        total = 0.0;
        epoch = Generator.price_epoch gen;
        s_valid = false;
        s_n = 0;
        s_dag = dagv;
        s_est = Array.make cap 0.0;
        s_lat = Array.make cap 0.0;
        s_cp = Array.make cap 0.0;
        s_crit = Array.make cap false;
        s_keys = Array.make cap "";
        s_uid = Array.make cap 0;
        s_total = 0.0;
        s_epoch = 0;
        s_old = [||];
        est_chg = Array.make cap false;
        lat_chg = Array.make cap false;
        cp_chg = Array.make cap false;
        acc = [| 0.0 |]
      }
    in
    for v = 0 to n - 1 do
      let k, l = price_of_app gen (Dag.gate dagv v) in
      e.keys.(v) <- k;
      e.lat.(v) <- l;
      e.uid.(v) <- v
    done;
    (* full passes, same recurrences as Dag.schedule *)
    for v = 0 to n - 1 do
      e.est.(v) <- 0.0;
      fold_max e.est v e.est e.lat (Dag.preds dagv v)
    done;
    for v = n - 1 downto 0 do
      e.cp.(v) <- 0.0;
      fold_max e.cp v e.lat e.cp (Dag.succs dagv v)
    done;
    e.total <- finish_total n e.est e.lat;
    mark_critical n e.total e.est e.lat e.cp e.crit;
    e

  (* accessors over the committed state *)
  let circuit e =
    match e.circuit with
    | Some c -> c
    | None ->
      let c = Dag.to_circuit e.dagv in
      e.circuit <- Some c;
      c

  let dag e = e.dagv
  let n_nodes e = e.n
  let total e = e.total
  let latency e v = e.lat.(v)
  let est e v = e.est.(v)
  let cp_after e v = e.cp.(v)
  let is_critical e v = e.crit.(v)
  let node_uid e v = e.uid.(v)
  let latencies e = e.lat
  let cp_afters e = e.cp
  let criticals e = e.crit

  let case_of e u v =
    match (e.crit.(u), e.crit.(v)) with
    | true, true -> `I
    | true, false | false, true -> `II
    | false, false -> `III

  (* [refresh e] re-resolves episode latencies after the pulse database
     changed under the unchanged circuit (a rolled-back attempt still
     generates pulses), propagating only from the nodes whose price
     actually moved. No-op when the price epoch is unchanged. *)
  let refresh e =
    let ep = Generator.price_epoch e.gen in
    if ep <> e.epoch then begin
      Obs.with_span "criticality.engine.refresh" @@ fun () ->
      let any = ref false in
      for v = 0 to e.n - 1 do
        let l = price_of_key e (Dag.gate e.dagv v) e.keys.(v) in
        let chg = l <> e.lat.(v) in
        e.lat_chg.(v) <- chg;
        if chg then begin
          e.lat.(v) <- l;
          any := true
        end
      done;
      if !any then begin
        (* in-place dirty passes: ids are topological, so recomputed
           nodes always read final values from their preds/succs *)
        let d = e.dagv and acc = e.acc in
        for v = 0 to e.n - 1 do
          let preds = Dag.preds d v in
          if any_flag e.lat_chg e.est_chg preds then begin
            acc.(0) <- 0.0;
            fold_max acc 0 e.est e.lat preds;
            e.est_chg.(v) <- acc.(0) <> e.est.(v);
            if e.est_chg.(v) then e.est.(v) <- acc.(0)
          end
          else e.est_chg.(v) <- false
        done;
        for v = e.n - 1 downto 0 do
          let succs = Dag.succs d v in
          if any_flag e.lat_chg e.cp_chg succs then begin
            acc.(0) <- 0.0;
            fold_max acc 0 e.lat e.cp succs;
            e.cp_chg.(v) <- acc.(0) <> e.cp.(v);
            if e.cp_chg.(v) then e.cp.(v) <- acc.(0)
          end
          else e.cp_chg.(v) <- false
        done;
        e.total <- finish_total e.n e.est e.lat;
        mark_critical e.n e.total e.est e.lat e.cp e.crit
      end;
      e.epoch <- ep
    end

  let stage e groups =
    Obs.with_span "criticality.engine.stage" @@ fun () ->
    let sd, old_of_new = Dag.contract e.dagv groups in
    let sn = Dag.n_nodes sd in
    let ep = Generator.price_epoch e.gen in
    let repriced = ep <> e.epoch in
    (* latencies, keys, uids; flag price movements *)
    for j = 0 to sn - 1 do
      let ov = old_of_new.(j) in
      if ov >= 0 then begin
        e.s_keys.(j) <- e.keys.(ov);
        e.s_uid.(j) <- e.uid.(ov);
        if repriced then
          e.s_lat.(j) <- price_of_key e (Dag.gate sd j) e.s_keys.(j)
        else e.s_lat.(j) <- e.lat.(ov);
        e.lat_chg.(j) <- e.s_lat.(j) <> e.lat.(ov)
      end
      else begin
        let k, l = price_of_app e.gen (Dag.gate sd j) in
        e.s_keys.(j) <- k;
        e.s_uid.(j) <- e.next_uid;
        e.next_uid <- e.next_uid + 1;
        e.s_lat.(j) <- l;
        e.lat_chg.(j) <- true
      end
    done;
    (* dirty est wave over the staged buffer *)
    for j = 0 to sn - 1 do
      let ov = old_of_new.(j) in
      let preds = Dag.preds sd j in
      if ov < 0 || any_flag e.est_chg e.lat_chg preds then begin
        e.s_est.(j) <- 0.0;
        fold_max e.s_est j e.s_est e.s_lat preds;
        e.est_chg.(j) <- ov < 0 || e.s_est.(j) <> e.est.(ov)
      end
      else begin
        e.s_est.(j) <- e.est.(ov);
        e.est_chg.(j) <- false
      end
    done;
    let total = finish_total sn e.s_est e.s_lat in
    e.s_total <- total;
    e.s_n <- sn;
    e.s_dag <- sd;
    e.s_old <- old_of_new;
    e.s_epoch <- ep;
    e.s_valid <- true;
    total

  let staged_circuit e =
    if not e.s_valid then
      invalid_arg "Criticality.Engine.staged_circuit: nothing staged";
    Dag.to_circuit e.s_dag

  let discard e = e.s_valid <- false

  let commit e =
    if not e.s_valid then
      invalid_arg "Criticality.Engine.commit: nothing staged";
    Obs.with_span "criticality.engine.commit" @@ fun () ->
    let sd = e.s_dag and sn = e.s_n in
    (* dirty cp_after wave, backwards *)
    for j = sn - 1 downto 0 do
      let ov = e.s_old.(j) in
      let succs = Dag.succs sd j in
      if ov < 0 || any_flag e.cp_chg e.lat_chg succs then begin
        e.s_cp.(j) <- 0.0;
        fold_max e.s_cp j e.s_lat e.s_cp succs;
        e.cp_chg.(j) <- ov < 0 || e.s_cp.(j) <> e.cp.(ov)
      end
      else begin
        e.s_cp.(j) <- e.cp.(ov);
        e.cp_chg.(j) <- false
      end
    done;
    mark_critical sn e.s_total e.s_est e.s_lat e.s_cp e.s_crit;
    (* adopt the shadow state: O(1) buffer swaps *)
    let fa = e.est in
    e.est <- e.s_est;
    e.s_est <- fa;
    let fb = e.lat in
    e.lat <- e.s_lat;
    e.s_lat <- fb;
    let fc = e.cp in
    e.cp <- e.s_cp;
    e.s_cp <- fc;
    let bb = e.crit in
    e.crit <- e.s_crit;
    e.s_crit <- bb;
    let ks = e.keys in
    e.keys <- e.s_keys;
    e.s_keys <- ks;
    let us = e.uid in
    e.uid <- e.s_uid;
    e.s_uid <- us;
    e.n <- e.s_n;
    e.circuit <- None;
    e.dagv <- e.s_dag;
    e.total <- e.s_total;
    e.epoch <- e.s_epoch;
    e.s_valid <- false
end
