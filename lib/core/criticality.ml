module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Gate = Paqoc_circuit.Gate
module Generator = Paqoc_pulse.Generator
module Obs = Paqoc_obs.Obs

(* The engine maintains the four per-node quantities of Section V-A's
   criticality analysis — episode latency, earliest start, CP-after,
   critical membership — under merge edits, without re-running the full
   analysis per edit.

   Exactness, not approximation: every value the engine exposes is
   bitwise equal to what a full analysis (price every episode,
   schedule the whole DAG: [analyze] in test/reference_criticality.ml)
   of the same circuit against the same generator state would produce.
   This holds because
   (a) episode latencies come from the generator's write-through
   priced-latency memo, i.e. they are exactly the peek-or-estimate
   values the analysis schedules with, and a memo entry moves only when
   the generator writes its key, which the generator's write log
   reports; (b) the est / cp_after recurrences are pure max-plus folds,
   whose results do not depend on evaluation order; and (c) the dirty
   rule below only ever {e skips} recomputing a node when all its
   inputs (its pred/succ set, their values, and its own latency) are
   unchanged — in which case recomputation would reproduce the stored
   value verbatim. The differential battery in test_search pins this.

   Ids with holes. The engine edits its DAG in place ({!Dag.edit}): a
   merge relinearises only its windows, lays their nodes back onto the
   windows' own ids and frees the ids it removes. Every other node
   keeps its id, and between live ids the id order is the order a
   dense renumbering would give, so every loop and every id comparison
   reads the same as on dense ids. Holes have no edges, latency 0 and
   est / cp_after 0, so they add nothing to a wave or a total. The
   per-node arrays are sized once, at [create].

   Dirty rule. A merge edit's adjacency is the quotient's, so a
   surviving node keeps its pred and succ sets (as the images of its
   old ones): only the merged nodes have new neighbourhoods. [old]
   maps each id to the id its node had before the staged edit ([-1]
   for a merged node or a hole). Scanning ids in topological order, a
   node's est must be recomputed iff it is new or some predecessor's
   est or latency changed; the recomputed value is flagged as changed
   only when it differs from the committed one. cp_after mirrors this
   backwards over successor sets. The waves, the total and the
   critical flags are linear passes on purpose: on the Table I suite a
   commit changes the est of about half the nodes and some value or
   flag of nearly all of them, so a worklist would visit most of the
   circuit anyway (docs/incremental-search.md).

   Stage, commit, discard. [stage] edits the DAG in place (the editor
   logs what it overwrites), updates latencies, keys and uids in place
   for the window ids and the repriced ids (logging them too), and
   runs the est wave into a shadow buffer. [commit] runs the cp_after
   wave and the flags into shadow buffers, swaps them in and drops the
   logs; [discard] replays the logs. Steady-state staging allocates only
   what the windows touch: no id-sized array, no circuit, no per-node
   boxing. *)
module Engine = struct
  type e = {
    gen : Generator.t;
    mutable next_uid : int;
    dagv : Dag.t;  (** edited in place, through [ed] *)
    ed : Dag.editor;
    (* committed state *)
    mutable n : int;  (** live nodes *)
    mutable circuit : Circuit.t option;  (** built on demand *)
    mutable est : float array;
    lat : float array;
    mutable cp : float array;
    mutable crit : bool array;
    kid : int array;  (** interned key of each id; -1 at a hole *)
    uid : int array;
    mutable total : float;
    mutable epoch : int;  (** generator price epoch of [lat] *)
    (* interned keys, and per key the price a reprice found written *)
    key_ids : (string, int) Hashtbl.t;
    mutable kmark : int array;  (** [kgen] when written since [epoch] *)
    mutable kprice : float array;
    mutable kgen : int;
    (* staged state *)
    mutable s_valid : bool;
    mutable s_n : int;
    mutable s_est : float array;
    mutable s_cp : float array;
    mutable s_crit : bool array;
    mutable s_total : float;
    mutable s_epoch : int;
    old : int array;  (** identity outside a staged edit's windows *)
    mutable vlog : (int * float * int * int) list;
        (** (id, latency, key, uid) the staged edit overwrote, newest
            first *)
    (* scratch, reused by every stage/refresh *)
    mutable w_lat : float array;  (** window origins' values, by position *)
    mutable w_kid : int array;
    mutable w_uid : int array;
    est_chg : bool array;
    lat_chg : bool array;
    cp_chg : bool array;
    acc : float array;  (** one slot: an in-place fold's result *)
  }

  let price_of_app gen (g : Gate.app) =
    let grp, _ = Generator.group_of_apps [ g ] in
    (Generator.key grp, Generator.priced_latency gen grp)

  let intern e k =
    match Hashtbl.find_opt e.key_ids k with
    | Some i -> i
    | None ->
      let i = Hashtbl.length e.key_ids in
      Hashtbl.add e.key_ids k i;
      let len = Array.length e.kmark in
      if i = len then begin
        let grow a fill =
          let a' = Array.make (max 64 (2 * len)) fill in
          Array.blit a 0 a' 0 len;
          a'
        in
        e.kmark <- grow e.kmark 0;
        e.kprice <- grow e.kprice 0.0
      end;
      i

  (* Marks each interned key the generator wrote since [e.epoch] with
     its current price; false when none of them is interned. A written
     key is always in the memo (a write goes through it). *)
  let mark_written e =
    e.kgen <- e.kgen + 1;
    List.fold_left
      (fun any k ->
        let price = Generator.priced_latency_of_key e.gen k in
        match (Hashtbl.find_opt e.key_ids k, price) with
        | Some i, Some l ->
          e.kmark.(i) <- e.kgen;
          e.kprice.(i) <- l;
          true
        | _ -> any)
      false
      (Generator.written_since e.gen e.epoch)

  (* the new price of node [v] if [mark_written] marked its key and the
     price moved *)
  let repriced e v =
    let k = e.kid.(v) in
    k >= 0 && e.kmark.(k) = e.kgen && e.kprice.(k) <> e.lat.(v)

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

  (* total and criticality flags over the first [n] ids *)
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
        total = 0.0;
        epoch = Generator.price_epoch gen;
        key_ids = Hashtbl.create (max 16 n);
        kmark = [||];
        kprice = [||];
        kgen = 0;
        s_valid = false;
        s_n = 0;
        s_est = Array.make n 0.0;
        s_cp = Array.make n 0.0;
        s_crit = Array.make n false;
        s_total = 0.0;
        s_epoch = 0;
        old = Array.init n Fun.id;
        vlog = [];
        w_lat = [||];
        w_kid = [||];
        w_uid = [||];
        est_chg = Array.make n false;
        lat_chg = Array.make n false;
        cp_chg = Array.make n false;
        acc = [| 0.0 |]
      }
    in
    for v = 0 to n - 1 do
      let k, l = price_of_app gen (Dag.gate dagv v) in
      e.kid.(v) <- intern e k;
      e.lat.(v) <- l
    done;
    (* full passes, same recurrences as Dag.schedule *)
    for v = 0 to n - 1 do
      fold_max e.est v e.est e.lat (Dag.preds dagv v)
    done;
    for v = n - 1 downto 0 do
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
     generates pulses): it reprices only the nodes whose key was
     written and propagates only from those whose price moved. No-op
     when the price epoch is unchanged. *)
  let refresh e =
    let ep = Generator.price_epoch e.gen in
    if ep <> e.epoch then begin
      Obs.with_span "criticality.engine.refresh" @@ fun () ->
      if mark_written e then begin
        let n = Dag.n_nodes e.dagv and any = ref false in
        for v = 0 to n - 1 do
          let chg = repriced e v in
          e.lat_chg.(v) <- chg;
          if chg then begin
            e.lat.(v) <- e.kprice.(e.kid.(v));
            any := true
          end
        done;
        if !any then begin
          (* in-place dirty passes: ids are topological, so recomputed
             nodes always read final values from their preds/succs *)
          let d = e.dagv and acc = e.acc in
          for v = 0 to n - 1 do
            let preds = Dag.preds d v in
            if any_flag e.lat_chg e.est_chg preds then begin
              acc.(0) <- 0.0;
              fold_max acc 0 e.est e.lat preds;
              e.est_chg.(v) <- acc.(0) <> e.est.(v);
              if e.est_chg.(v) then e.est.(v) <- acc.(0)
            end
            else e.est_chg.(v) <- false
          done;
          for v = n - 1 downto 0 do
            let succs = Dag.succs d v in
            if any_flag e.lat_chg e.cp_chg succs then begin
              acc.(0) <- 0.0;
              fold_max acc 0 e.lat e.cp succs;
              e.cp_chg.(v) <- acc.(0) <> e.cp.(v);
              if e.cp_chg.(v) then e.cp.(v) <- acc.(0)
            end
            else e.cp_chg.(v) <- false
          done;
          e.total <- finish_total n e.est e.lat;
          mark_critical n e.total e.est e.lat e.cp e.crit
        end
      end;
      e.epoch <- ep
    end

  let log_values e v =
    e.vlog <- (v, e.lat.(v), e.kid.(v), e.uid.(v)) :: e.vlog

  (* after a commit or discard, the window ids map to themselves again *)
  let reset_old e =
    for i = 0 to Dag.edit_size e.ed - 1 do
      let j = Dag.edit_id e.ed i in
      e.old.(j) <- j
    done

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
      reset_old e;
      e.s_valid <- false
    end

  let stage e groups =
    Obs.with_span "criticality.engine.stage" @@ fun () ->
    discard e;
    Dag.edit e.ed groups;
    let n = Dag.n_nodes e.dagv and ep = Generator.price_epoch e.gen in
    Array.fill e.lat_chg 0 n false;
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
        e.uid.(j) <- e.w_uid.(i);
        e.old.(j) <- o
      end
      else if o = Dag.hole then begin
        log_values e j;
        e.lat.(j) <- 0.0;
        e.kid.(j) <- -1;
        e.uid.(j) <- -1;
        e.old.(j) <- -1;
        incr holes
      end
      else begin
        log_values e j;
        let k, l = price_of_app e.gen (Dag.gate e.dagv j) in
        e.kid.(j) <- intern e k;
        e.lat.(j) <- l;
        e.uid.(j) <- e.next_uid;
        e.next_uid <- e.next_uid + 1;
        e.lat_chg.(j) <- true;
        e.old.(j) <- -1
      end
    done;
    (* reprice the nodes whose key the generator wrote *)
    if ep <> e.epoch && mark_written e then
      for v = 0 to n - 1 do
        if repriced e v then begin
          log_values e v;
          e.lat.(v) <- e.kprice.(e.kid.(v));
          e.lat_chg.(v) <- true
        end
      done;
    (* dirty est wave into the shadow buffer *)
    for j = 0 to n - 1 do
      let ov = e.old.(j) in
      let preds = Dag.preds e.dagv j in
      if ov < 0 || any_flag e.est_chg e.lat_chg preds then begin
        e.s_est.(j) <- 0.0;
        fold_max e.s_est j e.s_est e.lat preds;
        e.est_chg.(j) <- ov < 0 || e.s_est.(j) <> e.est.(ov)
      end
      else begin
        e.s_est.(j) <- e.est.(ov);
        e.est_chg.(j) <- false
      end
    done;
    let total = finish_total n e.s_est e.lat in
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
    let d = e.dagv and n = Dag.n_nodes e.dagv in
    (* dirty cp_after wave, backwards *)
    for j = n - 1 downto 0 do
      let ov = e.old.(j) in
      let succs = Dag.succs d j in
      if ov < 0 || any_flag e.cp_chg e.lat_chg succs then begin
        e.s_cp.(j) <- 0.0;
        fold_max e.s_cp j e.lat e.s_cp succs;
        e.cp_chg.(j) <- ov < 0 || e.s_cp.(j) <> e.cp.(ov)
      end
      else begin
        e.s_cp.(j) <- e.cp.(ov);
        e.cp_chg.(j) <- false
      end
    done;
    mark_critical n e.s_total e.s_est e.lat e.s_cp e.s_crit;
    (* adopt the shadow values; the edit and the latencies stand *)
    let fa = e.est in
    e.est <- e.s_est;
    e.s_est <- fa;
    let fc = e.cp in
    e.cp <- e.s_cp;
    e.s_cp <- fc;
    let bb = e.crit in
    e.crit <- e.s_crit;
    e.s_crit <- bb;
    Dag.keep e.ed;
    e.vlog <- [];
    reset_old e;
    e.n <- e.s_n;
    e.circuit <- None;
    e.total <- e.s_total;
    e.epoch <- e.s_epoch;
    e.s_valid <- false
end
