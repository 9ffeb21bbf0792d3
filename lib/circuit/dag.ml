type t = {
  nq : int;
  gates : Gate.app array;
  succ : int list array;
  pred : int list array;
}

let of_circuit (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let succ = Array.make n [] and pred = Array.make n [] in
  let last = Array.make c.Circuit.n_qubits (-1) in
  for v = 0 to n - 1 do
    let srcs =
      List.filter_map
        (fun q ->
          let p = last.(q) in
          last.(q) <- v;
          if p >= 0 then Some p else None)
        gates.(v).Gate.qubits
    in
    List.iter
      (fun p ->
        if not (List.mem v succ.(p)) then begin
          succ.(p) <- v :: succ.(p);
          pred.(v) <- p :: pred.(v)
        end)
      (List.sort_uniq compare srcs)
  done;
  { nq = c.Circuit.n_qubits; gates; succ; pred }

let of_circuit_relaxed ~commute (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let succ = Array.make n [] and pred = Array.make n [] in
  (* per-qubit history of gates, newest first *)
  let history = Array.make c.Circuit.n_qubits [] in
  let add_edge p v =
    if not (List.mem v succ.(p)) then begin
      succ.(p) <- v :: succ.(p);
      pred.(v) <- p :: pred.(v)
    end
  in
  for v = 0 to n - 1 do
    let qs = List.sort_uniq compare gates.(v).Gate.qubits in
    List.iter
      (fun q ->
        (* depend on every earlier non-commuting gate on this wire; a
           bounded scan with a hard edge at the cap keeps this linear *)
        let rec scan l steps =
          match l with
          | [] -> ()
          | p :: rest ->
            if steps > 50 then add_edge p v
            else begin
              if not (commute gates.(p) gates.(v)) then add_edge p v;
              scan rest (steps + 1)
            end
        in
        scan history.(q) 0;
        history.(q) <- v :: history.(q))
      qs
  done;
  { nq = c.Circuit.n_qubits; gates; succ; pred }

let n_nodes d = Array.length d.gates
let n_qubits d = d.nq
let gate d v = d.gates.(v)
let succs d v = d.succ.(v)
let preds d v = d.pred.(v)
let nodes d = List.init (n_nodes d) Fun.id

(* Reachability by forward DFS; node ids are topological so we can prune
   candidates with id <= target shortcuts. *)
let reachable_from d u ~skip_direct ~target =
  if u = target then not skip_direct
  else begin
    let seen = Array.make (n_nodes d) false in
    let rec dfs v =
      if v = target then true
      else if seen.(v) || v > target then false
      else begin
        seen.(v) <- true;
        List.exists dfs d.succ.(v)
      end
    in
    let starts =
      if skip_direct then List.filter (fun s -> s <> target) d.succ.(u)
      else d.succ.(u)
    in
    List.exists dfs starts
  end

let has_indirect_path d u v =
  if u = v then false
  else
    let u, v = if u < v then (u, v) else (v, u) in
    reachable_from d u ~skip_direct:true ~target:v

let reachable d u v =
  if u = v then true
  else if u > v then false
  else List.exists (fun s -> s = v) d.succ.(u)
       || reachable_from d u ~skip_direct:true ~target:v

(* Allocation-free reachability: a reusable workspace holding a stamp
   array (generation marks, so clearing between queries is free) and an
   explicit int stack replacing the recursion. The merge search asks
   one reachability question per candidate per iteration; the recursive
   DFS above allocates a fresh visited array each time, which is the
   dominant allocation of the whole search loop. *)
type reach_ws = {
  mutable stamp : int array;
  mutable stack : int array;
  mutable generation : int;
  mutable top : int;
}

let reach_ws n =
  let n = max 1 n in
  { stamp = Array.make n 0; stack = Array.make n 0; generation = 0; top = 0 }

let ws_fit ws n =
  if Array.length ws.stamp < n then begin
    ws.stamp <- Array.make n 0;
    ws.stack <- Array.make n 0;
    ws.generation <- 0
  end

(* The helpers below are top-level (not closures) and take every variable
   as a parameter on purpose: a query must not allocate, and closures,
   refs and the tuple swap all would. *)

(* push every unvisited successor with id below the target; report when
   the target itself shows up (ids are topological, so nothing past the
   target can reach it) *)
let rec ws_push ws target = function
  | [] -> false
  | w :: rest ->
    if w = target then true
    else begin
      if w < target && ws.stamp.(w) <> ws.generation then begin
        ws.stamp.(w) <- ws.generation;
        ws.stack.(ws.top) <- w;
        ws.top <- ws.top + 1
      end;
      ws_push ws target rest
    end

(* the seed round must not report the target: the direct edge u->v is the
   merge itself, only paths of length >= 2 invalidate it *)
let rec ws_seed ws target = function
  | [] -> ()
  | s :: rest ->
    if s < target && ws.stamp.(s) <> ws.generation then begin
      ws.stamp.(s) <- ws.generation;
      ws.stack.(ws.top) <- s;
      ws.top <- ws.top + 1
    end;
    ws_seed ws target rest

let rec ws_drain ws d target =
  if ws.top = 0 then false
  else begin
    ws.top <- ws.top - 1;
    if ws_push ws target d.succ.(ws.stack.(ws.top)) then true
    else ws_drain ws d target
  end

let has_indirect_path_ws ws d u v =
  if u = v then false
  else begin
    let a = if u < v then u else v in
    let b = if u < v then v else u in
    ws_fit ws (n_nodes d);
    ws.generation <- ws.generation + 1;
    ws.top <- 0;
    ws_seed ws b d.succ.(a);
    ws_drain ws d b
  end

type schedule = {
  est : float array;
  latency : float array;
  cp_after : float array;
  total : float;
  critical : bool array;
}

let schedule d ~latency =
  let n = n_nodes d in
  let est = Array.make n 0.0 in
  let lat = Array.init n (fun v -> latency d.gates.(v)) in
  for v = 0 to n - 1 do
    List.iter
      (fun p -> if est.(p) +. lat.(p) > est.(v) then est.(v) <- est.(p) +. lat.(p))
      d.pred.(v)
  done;
  let cp_after = Array.make n 0.0 in
  for v = n - 1 downto 0 do
    List.iter
      (fun s ->
        let through = lat.(s) +. cp_after.(s) in
        if through > cp_after.(v) then cp_after.(v) <- through)
      d.succ.(v)
  done;
  let total = ref 0.0 in
  for v = 0 to n - 1 do
    let finish = est.(v) +. lat.(v) in
    if finish > !total then total := finish
  done;
  let eps = 1e-9 *. (1.0 +. !total) in
  let critical = Array.make n false in
  for v = 0 to n - 1 do
    critical.(v) <- est.(v) +. lat.(v) +. cp_after.(v) >= !total -. eps
  done;
  { est; latency = lat; cp_after; total = !total; critical }

let critical_path d sched =
  let n = n_nodes d in
  if n = 0 then []
  else begin
    (* start from a critical source (est = 0) and greedily follow critical
       successors that continue a tight path *)
    let eps = 1e-9 *. (1.0 +. sched.total) in
    let tight v =
      sched.est.(v) +. sched.latency.(v) +. sched.cp_after.(v)
      >= sched.total -. eps
    in
    let start =
      let rec find v =
        if v >= n then None
        else if sched.est.(v) <= eps && tight v then Some v
        else find (v + 1)
      in
      find 0
    in
    match start with
    | None -> []
    | Some s ->
      let rec walk v acc =
        let next =
          List.find_opt
            (fun w ->
              tight w
              && sched.est.(w) >= sched.est.(v) +. sched.latency.(v) -. eps)
            (List.sort compare (succs d v))
        in
        match next with
        | Some w -> walk w (w :: acc)
        | None -> List.rev acc
      in
      walk s [ s ]
  end

let to_circuit d =
  Circuit.make ~n_qubits:d.nq (Array.to_list d.gates)

(* ------------------------------------------------------------------ *)
(* Convex contraction                                                  *)
(* ------------------------------------------------------------------ *)

(* Convexity inside a window. [st] covers the window [lo, hi] spanning
   the set (index [x - lo]): 1 marks a member, 0 any other node. A
   witness of non-convexity — an outside node that descends from one
   member and feeds another — lies strictly inside the window, because
   ids are topological, so one ascending scan decides it: it marks
   outside descendants 2 and fails when a 2 feeds a member. *)
let rec mark_succs st lo hi from = function
  | [] -> true
  | s :: rest ->
    if s > hi then mark_succs st lo hi from rest
    else begin
      let i = s - lo in
      if st.(i) = 0 then st.(i) <- 2;
      (st.(i) <> 1 || from <> 2) && mark_succs st lo hi from rest
    end

let window_convex d st lo hi =
  let rec scan x =
    x > hi
    || (let sx = st.(x - lo) in
        (sx = 0 || mark_succs st lo hi sx d.succ.(x)) && scan (x + 1))
  in
  scan lo

let window_state lo hi nodes =
  let st = Array.make (hi - lo + 1) 0 in
  List.iter (fun v -> st.(v - lo) <- 1) nodes;
  st

let is_convex d nodes =
  match List.sort_uniq compare nodes with
  | [] | [ _ ] -> true
  | lo :: _ as sorted ->
    let hi = List.fold_left max lo sorted in
    window_convex d (window_state lo hi sorted) lo hi

(* A binary min-heap of ints in [h.(0 .. len-1)]: the ready set of the
   window-local Kahn, whose priority is the node's min-id. *)
let heap_push h len x =
  let i = ref len in
  while !i > 0 && h.((!i - 1) / 2) > x do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- x

let heap_pop h len =
  let top = h.(0) and last = h.(len - 1) and n = len - 1 in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else sifting := false
    end
  done;
  if n > 0 then h.(!i) <- last;
  top

(* The stable min-id Kahn over one window [a, b]: its quotient nodes are
   the singletons and whole groups inside it, each known by its min-id
   (a group by its smallest member, [glo]). Every edge into the window
   from outside starts before [a], so once the prefix is emitted only
   in-window edges decide readiness; the origin token of each emitted
   node ([x], or [-(gi+1)] for group [gi]) goes to [out] from [j]. *)
let kahn_window d owner glo a b out j =
  let w = b - a + 1 in
  let rep x = if owner.(x) < 0 then x - a else glo.(owner.(x)) - a in
  let indeg = Array.make w 0 and qsucc = Array.make w [] in
  let reps = ref 0 in
  for x = a to b do
    let r = rep x in
    if r = x - a then incr reps;
    List.iter
      (fun s ->
        if s <= b then begin
          let rs = rep s in
          if rs <> r && not (List.mem rs qsucc.(r)) then begin
            qsucc.(r) <- rs :: qsucc.(r);
            indeg.(rs) <- indeg.(rs) + 1
          end
        end)
      d.succ.(x)
  done;
  let heap = Array.make w 0 and len = ref 0 in
  for r = 0 to w - 1 do
    if rep (r + a) = r && indeg.(r) = 0 then begin
      heap_push heap !len r;
      incr len
    end
  done;
  let j0 = j and j = ref j in
  while !len > 0 do
    let r = heap_pop heap !len in
    decr len;
    let x = r + a in
    out.(!j) <- (if owner.(x) < 0 then x else -(owner.(x) + 1));
    incr j;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then begin
          heap_push heap !len s;
          incr len
        end)
      qsucc.(r)
  done;
  if !j - j0 <> !reps then
    invalid_arg "Rewrite.contract: contraction created a cycle";
  !j

(* Growable int scratch for one node's renumbered predecessor set. *)
type ibuf = { mutable arr : int array; mutable len : int }

let ibuf_add b x =
  if b.len = Array.length b.arr then begin
    let a = Array.make (max 16 (2 * b.len)) 0 in
    Array.blit b.arr 0 a 0 b.len;
    b.arr <- a
  end;
  b.arr.(b.len) <- x;
  b.len <- b.len + 1

let rec add_mapped b new_of_old self = function
  | [] -> ()
  | p :: rest ->
    let np = new_of_old.(p) in
    if np <> self then ibuf_add b np;
    add_mapped b new_of_old self rest

let rec add_members b d new_of_old self = function
  | [] -> ()
  | m :: rest ->
    add_mapped b new_of_old self d.pred.(m);
    add_members b d new_of_old self rest

(* insertion sort (sets are tiny) then dedup, in place *)
let ibuf_sort_uniq b =
  let a = b.arr in
  for i = 1 to b.len - 1 do
    let x = a.(i) in
    let k = ref (i - 1) in
    while !k >= 0 && a.(!k) > x do
      a.(!k + 1) <- a.(!k);
      decr k
    done;
    a.(!k + 1) <- x
  done;
  if b.len > 1 then begin
    let w = ref 1 in
    for i = 1 to b.len - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    b.len <- !w
  end

let rec all_below a = function [] -> true | s :: rest -> s < a && all_below a rest

(* [j] sits before the first window [a0], so its predecessors keep their
   ids; it joins the successor lists of those whose lists are rebuilt *)
let rec relink_prefix succ d a0 j = function
  | [] -> ()
  | p :: rest ->
    if not (all_below a0 d.succ.(p)) then succ.(p) <- j :: succ.(p);
    relink_prefix succ d a0 j rest

let contract d groups =
  let n = n_nodes d in
  let groups = Array.of_list groups in
  let ng = Array.length groups in
  let owner = Array.make n (-1) in
  let glo = Array.make ng max_int and ghi = Array.make ng (-1) in
  let removed = ref 0 in
  Array.iteri
    (fun gi (nodes, _) ->
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Rewrite.contract: bad node id";
          if v < glo.(gi) then glo.(gi) <- v;
          if v > ghi.(gi) then ghi.(gi) <- v)
        nodes;
      if glo.(gi) < ghi.(gi)
         && not
              (window_convex d
                 (window_state glo.(gi) ghi.(gi) nodes)
                 glo.(gi) ghi.(gi))
      then invalid_arg "Rewrite.contract: non-convex group";
      List.iter
        (fun v ->
          if owner.(v) <> -1 then
            invalid_arg "Rewrite.contract: overlapping groups";
          owner.(v) <- gi)
        nodes;
      if nodes <> [] then removed := !removed + List.length nodes - 1)
    groups;
  (* windows (a group's smallest to largest member), overlapping ones
     merged, in ascending order *)
  let windows =
    List.filter (fun gi -> ghi.(gi) >= 0) (List.init ng Fun.id)
    |> List.sort (fun x y -> compare glo.(x) glo.(y))
    |> List.fold_left
         (fun acc gi ->
           match acc with
           | (a, b) :: rest when glo.(gi) <= b -> (a, max b ghi.(gi)) :: rest
           | _ -> (glo.(gi), ghi.(gi)) :: acc)
         []
    |> List.rev
  in
  match windows with
  | [] -> (d, Array.init n Fun.id)
  | (a0, _) :: _ ->
    let n' = n - !removed in
    let old_of_new = Array.make n' 0 in
    (* outside every window the old order stands; each window is
       relinearised on its own, in place *)
    let j, x =
      List.fold_left
        (fun (j, x) (a, b) ->
          let j = ref j in
          for y = x to a - 1 do
            old_of_new.(!j) <- y;
            incr j
          done;
          (kahn_window d owner glo a b old_of_new !j, b + 1))
        (0, 0) windows
    in
    for y = x to n - 1 do
      old_of_new.(j + y - x) <- y
    done;
    (* every old node now has a new id, and the windows no longer need
       [owner]: reuse it *)
    let new_of_old = owner in
    Array.iteri
      (fun j tok ->
        if tok >= 0 then new_of_old.(tok) <- j
        else List.iter (fun m -> new_of_old.(m) <- j) (fst groups.(-tok - 1)))
      old_of_new;
    let gates =
      Array.map
        (fun tok -> if tok >= 0 then d.gates.(tok) else snd groups.(-tok - 1))
        old_of_new
    in
    (* Adjacency is the quotient's: for a convex contraction whose
       replacement gates act on their group's qubits, exactly the wire
       adjacency [of_circuit] would derive from the contracted circuit,
       built in its list order (newest first). Lists before the first
       window that only mention nodes before it are shared. *)
    let succ = Array.make n' [] and pred = Array.make n' [] in
    for p = 0 to a0 - 1 do
      if all_below a0 d.succ.(p) then succ.(p) <- d.succ.(p)
    done;
    let link p j =
      pred.(j) <- p :: pred.(j);
      if p >= a0 || not (all_below a0 d.succ.(p)) then
        succ.(p) <- j :: succ.(p)
    in
    let b = { arr = Array.make 16 0; len = 0 } in
    for j = 0 to n' - 1 do
      if j < a0 then begin
        relink_prefix succ d a0 j d.pred.(j);
        pred.(j) <- d.pred.(j)
      end
      else begin
        b.len <- 0;
        let tok = old_of_new.(j) in
        if tok >= 0 then add_mapped b new_of_old j d.pred.(tok)
        else add_members b d new_of_old j (fst groups.(-tok - 1));
        ibuf_sort_uniq b;
        for i = 0 to b.len - 1 do
          link b.arr.(i) j
        done
      end
    done;
    ({ nq = d.nq; gates; succ; pred }, old_of_new)
