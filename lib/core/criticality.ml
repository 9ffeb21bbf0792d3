module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Gate = Paqoc_circuit.Gate
module Generator = Paqoc_pulse.Generator
module Obs = Paqoc_obs.Obs

(* The engine maintains the four per-node quantities of Section V-A's
   criticality analysis — episode latency, earliest start, CP-after,
   critical membership — under merge edits, without re-pricing the
   whole circuit per edit.

   Exactness, not approximation: every value the engine exposes is
   bitwise equal to what a full analysis (price every episode,
   schedule the whole DAG: [analyze] in test/reference_criticality.ml)
   of the same circuit against the same generator state would produce.
   This holds because (a) the engine keeps one price per interned key,
   priced when it first meets the key as the pulse table's latency,
   else the model estimate: the peek-or-estimate value the analysis
   schedules with. A key's price moves only when the generator writes
   its table row, the write log names every such key, and the engine
   re-reads those keys from the table and reprices exactly the nodes
   whose latency differs from their key's price; and (b) the est and
   cp_after values, the total and the flags are recomputed in full by
   Dag.est_wave and Dag.cp_wave, the two waves Dag.schedule itself
   runs, over the same pred and succ lists: there is no second copy
   of the recurrences to drift. The differential battery in
   test_search pins this against the oracle's own folds.

   Ids with holes. The engine edits its DAG in place ({!Dag.edit}): a
   merge relinearises only its windows, lays their nodes back onto the
   windows' own ids and frees the ids it removes. Every other node
   keeps its id, and between live ids the id order is the order a
   dense renumbering would give, so every loop and every id comparison
   reads the same as on dense ids. Holes have no edges, latency 0 and
   est / cp_after 0, so they add nothing to a wave or a total, and
   they are never critical. The per-node arrays are sized once, at
   [create].

   Full waves. Each wave recomputes every node in id order, in place:
   ids are topological, so a node reads only final values. A commit on
   the Table I suite changes the est of about half the nodes and some
   value or flag of nearly all of them, so skipping the unchanged ones
   would save little (docs/incremental-search.md).

   Stage, commit, discard. [stage] edits the DAG in place (the editor
   logs what it overwrites), updates latencies, keys and uids in place
   for the window ids and the repriced ids (logging them too), and
   runs the est wave. [commit] runs the cp_after wave and the flags,
   hands the ids its value log names to [take_changed] (with the ids a
   [refresh] reprices, the whole set of ids whose node, key, uid or
   latency moved, so a consumer never rescans all ids) and drops the
   logs; [discard] replays the logs and reruns the est wave, which
   gives back the committed est exactly. Steady-state staging
   allocates only what the windows touch: no id-sized array, no
   circuit, no per-node boxing. *)
module Engine = struct
  type e = {
    gen : Generator.t;
    mutable next_uid : int;
    dagv : Dag.t;  (** edited in place, through [ed] *)
    ed : Dag.editor;
    (* committed state *)
    mutable n : int;  (** live nodes *)
    mutable circuit : Circuit.t option;  (** built on demand *)
    est : float array;  (** the staged DAG's while an edit is staged *)
    lat : float array;
    cp : float array;
    crit : bool array;
    kid : int array;  (** interned key of each id; -1 at a hole *)
    uid : int array;
    mutable inv : int array;  (** committed id of each live uid *)
    mutable changed : int list;
        (** ids a commit or a refresh overwrote since [take_changed] *)
    mutable total : float;
    mutable epoch : int;  (** generator price epoch of [lat] *)
    (* interned keys, and one price per key *)
    interned : (string, int) Hashtbl.t;
    mutable kprice : float array;
    (* staged state *)
    mutable s_valid : bool;
    mutable s_n : int;
    mutable s_total : float;
    mutable s_epoch : int;
    mutable vlog : (int * float * int * int) list;
        (** (id, latency, key, uid) the staged edit overwrote, newest
            first *)
    (* scratch, reused by every stage *)
    mutable w_lat : float array;  (** window origins' values, by position *)
    mutable w_kid : int array;
    mutable w_uid : int array;
  }

  (* The interned key of [g]'s episode. A key met for the first time is
     priced as its table latency, else its model estimate. *)
  let intern e (g : Gate.app) =
    let grp, _ = Generator.group_of_apps [ g ] in
    let k = Generator.key grp in
    match Hashtbl.find_opt e.interned k with
    | Some i -> i
    | None ->
      let i = Hashtbl.length e.interned in
      Hashtbl.add e.interned k i;
      if i = Array.length e.kprice then begin
        let a = Array.make (max 64 (2 * i)) 0.0 in
        Array.blit e.kprice 0 a 0 i;
        e.kprice <- a
      end;
      e.kprice.(i) <-
        (match Generator.table_latency e.gen k with
        | Some l -> l
        | None -> Generator.estimate_latency_of_key e.gen grp k);
      i

  (* Re-reads from the table the price of every interned key the
     generator wrote since [e.epoch]; false when none of them is
     interned. A written key always has a table row. *)
  let reread_written e =
    List.fold_left
      (fun any k ->
        match Hashtbl.find_opt e.interned k with
        | Some i ->
          Option.iter (fun l -> e.kprice.(i) <- l)
            (Generator.table_latency e.gen k);
          true
        | None -> any)
      false
      (Generator.written_since e.gen e.epoch)

  (* node [v]'s latency differs from its key's price *)
  let stale e v =
    let k = e.kid.(v) in
    k >= 0 && e.kprice.(k) <> e.lat.(v)

  let create gen c =
    Obs.with_span "criticality.engine.create" @@ fun () ->
    let dagv = Dag.of_circuit c in
    let n = Dag.n_nodes dagv in
    let e =
      { gen;
        next_uid = n;
        dagv;
        ed = Dag.editor dagv;
        n;
        circuit = Some c;
        est = Array.make n 0.0;
        lat = Array.make n 0.0;
        cp = Array.make n 0.0;
        crit = Array.make n false;
        kid = Array.make n (-1);
        uid = Array.init n Fun.id;
        inv = Array.init n Fun.id;
        changed = [];
        total = 0.0;
        epoch = Generator.price_epoch gen;
        interned = Hashtbl.create (max 16 n);
        kprice = [||];
        s_valid = false;
        s_n = 0;
        s_total = 0.0;
        s_epoch = 0;
        vlog = [];
        w_lat = [||];
        w_kid = [||];
        w_uid = [||]
      }
    in
    for v = 0 to n - 1 do
      let k = intern e (Dag.gate dagv v) in
      e.kid.(v) <- k;
      e.lat.(v) <- e.kprice.(k)
    done;
    e.total <- Dag.est_wave dagv ~latency:e.lat e.est;
    Dag.cp_wave dagv ~latency:e.lat ~est:e.est ~total:e.total e.cp e.crit;
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
  let latencies e = e.lat
  let cp_afters e = e.cp
  let criticals e = e.crit
  let uids e = e.uid
  let key_ids e = e.kid
  let id_of_uid e = e.inv

  let take_changed e =
    let ids = e.changed in
    e.changed <- [];
    ids

  let case_of e u v =
    match (e.crit.(u), e.crit.(v)) with
    | true, true -> `I
    | true, false | false, true -> `II
    | false, false -> `III

  (* [refresh e] re-resolves episode latencies after the pulse database
     changed under the unchanged circuit (a rolled-back attempt still
     generates pulses): it re-reads the written keys' prices, reprices
     the nodes whose latency differs from their key's price, and reruns
     the waves when a price moved. No-op when the price epoch is
     unchanged. *)
  let refresh e =
    let ep = Generator.price_epoch e.gen in
    if ep <> e.epoch then begin
      Obs.with_span "criticality.engine.refresh" @@ fun () ->
      if reread_written e then begin
        let d = e.dagv and n = Dag.n_nodes e.dagv and moved = ref false in
        for v = 0 to n - 1 do
          if stale e v then begin
            e.lat.(v) <- e.kprice.(e.kid.(v));
            e.changed <- v :: e.changed;
            moved := true
          end
        done;
        if !moved then begin
          e.total <- Dag.est_wave d ~latency:e.lat e.est;
          Dag.cp_wave d ~latency:e.lat ~est:e.est ~total:e.total e.cp e.crit
        end
      end;
      e.epoch <- ep
    end

  let log_values e v =
    e.vlog <- (v, e.lat.(v), e.kid.(v), e.uid.(v)) :: e.vlog

  let discard e =
    if e.s_valid then begin
      Dag.undo e.ed;
      List.iter
        (fun (v, l, k, u) ->
          e.lat.(v) <- l;
          e.kid.(v) <- k;
          e.uid.(v) <- u)
        e.vlog;
      e.vlog <- [];
      ignore (Dag.est_wave e.dagv ~latency:e.lat e.est : float);
      e.s_valid <- false
    end

  let stage e groups =
    Obs.with_span "criticality.engine.stage" @@ fun () ->
    discard e;
    Dag.edit e.ed groups;
    let n = Dag.n_nodes e.dagv and ep = Generator.price_epoch e.gen in
    (* lay out the window ids whose node changed. A surviving node can
       move either way inside its window, so every origin's values are
       read before any window id is written *)
    let m = Dag.edit_size e.ed in
    if Array.length e.w_lat < m then begin
      let cap = max m (2 * Array.length e.w_lat) in
      e.w_lat <- Array.make cap 0.0;
      e.w_kid <- Array.make cap 0;
      e.w_uid <- Array.make cap 0
    end;
    for i = 0 to m - 1 do
      let o = Dag.edit_origin e.ed i in
      if o >= 0 && o <> Dag.edit_id e.ed i then begin
        e.w_lat.(i) <- e.lat.(o);
        e.w_kid.(i) <- e.kid.(o);
        e.w_uid.(i) <- e.uid.(o)
      end
    done;
    let holes = ref 0 in
    for i = 0 to m - 1 do
      let j = Dag.edit_id e.ed i and o = Dag.edit_origin e.ed i in
      if o = j then ()
      else if o >= 0 then begin
        log_values e j;
        e.lat.(j) <- e.w_lat.(i);
        e.kid.(j) <- e.w_kid.(i);
        e.uid.(j) <- e.w_uid.(i)
      end
      else if o = Dag.hole then begin
        log_values e j;
        e.lat.(j) <- 0.0;
        e.kid.(j) <- -1;
        e.uid.(j) <- -1;
        incr holes
      end
      else begin
        log_values e j;
        let k = intern e (Dag.gate e.dagv j) in
        e.kid.(j) <- k;
        e.lat.(j) <- e.kprice.(k);
        e.uid.(j) <- e.next_uid;
        e.next_uid <- e.next_uid + 1
      end
    done;
    (* reprice the nodes whose key the generator wrote *)
    if ep <> e.epoch && reread_written e then
      for v = 0 to n - 1 do
        if stale e v then begin
          log_values e v;
          e.lat.(v) <- e.kprice.(e.kid.(v))
        end
      done;
    let total = Dag.est_wave e.dagv ~latency:e.lat e.est in
    e.s_total <- total;
    e.s_n <- e.n - !holes;
    e.s_epoch <- ep;
    e.s_valid <- true;
    total

  let staged_circuit e =
    if not e.s_valid then
      invalid_arg "Criticality.Engine.staged_circuit: nothing staged";
    Dag.to_circuit e.dagv

  let commit e =
    if not e.s_valid then
      invalid_arg "Criticality.Engine.commit: nothing staged";
    Obs.with_span "criticality.engine.commit" @@ fun () ->
    Dag.cp_wave e.dagv ~latency:e.lat ~est:e.est ~total:e.s_total e.cp
      e.crit;
    Dag.keep e.ed;
    (* the undo log names every id the edit or a reprice overwrote: hand
       them to [take_changed], and point each new or moved uid at its id *)
    if Array.length e.inv < e.next_uid then begin
      let a = Array.make (max e.next_uid (2 * Array.length e.inv)) (-1) in
      Array.blit e.inv 0 a 0 (Array.length e.inv);
      e.inv <- a
    end;
    List.iter
      (fun (v, _, _, _) ->
        e.changed <- v :: e.changed;
        let x = e.uid.(v) in
        if x >= 0 then e.inv.(x) <- v)
      e.vlog;
    e.vlog <- [];
    e.n <- e.s_n;
    e.circuit <- None;
    e.total <- e.s_total;
    e.epoch <- e.s_epoch;
    e.s_valid <- false
end
