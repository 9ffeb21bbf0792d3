type t = {
  nq : int;
  gates : Gate.app array;
  succ : int list array;
  pred : int list array;
  live : bool array;  (** false at the holes an in-place edit frees *)
}

(* [p] put into the strictly descending [l], unless already there *)
let rec insert_desc (p : int) = function
  | [] -> [ p ]
  | x :: rest as l ->
    if p > x then p :: l else if p = x then l else x :: insert_desc p rest

(* [v]'s predecessors: the distinct last gates on its wires [qs], which
   become [v]'s own *)
let rec last_gates last v preds = function
  | [] -> preds
  | q :: rest ->
    let p = last.(q) in
    last.(q) <- v;
    last_gates last v (if p >= 0 then insert_desc p preds else preds) rest

let rec link succ v = function
  | [] -> ()
  | p :: rest ->
    succ.(p) <- v :: succ.(p);
    link succ v rest

let of_circuit (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let succ = Array.make n [] and pred = Array.make n [] in
  let last = Array.make c.Circuit.n_qubits (-1) in
  for v = 0 to n - 1 do
    let preds = last_gates last v [] gates.(v).Gate.qubits in
    pred.(v) <- preds;
    link succ v preds
  done;
  { nq = c.Circuit.n_qubits; gates; succ; pred; live = Array.make n true }

let n_nodes d = Array.length d.gates
let n_qubits d = d.nq
let is_live d v = d.live.(v)
let gate d v = d.gates.(v)
let succs d v = d.succ.(v)
let preds d v = d.pred.(v)

let nodes d =
  List.filter (fun v -> d.live.(v)) (List.init (n_nodes d) Fun.id)

(* Allocation-free reachability: a reusable workspace holding a stamp
   array (generation marks, so clearing between queries is free) and an
   explicit int stack replacing the recursion. The merge search asks
   one reachability question per candidate per iteration, so a query
   must not allocate a visited array of its own. *)
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

(* The two waves, over every id in place: ids are topological and
   holes have no edges, so each node reads only final values, and a
   hole (latency 0) adds nothing. Each fold is a top-level
   array-to-array loop, so a wave allocates nothing: no closure, no
   boxed accumulator. *)

(* raises [dst.(i)] to [a.(x) +. b.(x)] for every [x] in the list: the
   est (a = est, b = latency, over preds) and cp_after (a = latency,
   b = cp_after, over succs) recurrences *)
let rec fold_max (dst : float array) i (a : float array) (b : float array)
    = function
  | [] -> ()
  | x :: rest ->
    let f = a.(x) +. b.(x) in
    if f > dst.(i) then dst.(i) <- f;
    fold_max dst i a b rest

let est_wave d ~latency (est : float array) =
  let total = ref 0.0 in
  for v = 0 to n_nodes d - 1 do
    est.(v) <- 0.0;
    fold_max est v est latency d.pred.(v);
    let finish = est.(v) +. latency.(v) in
    if finish > !total then total := finish
  done;
  !total

let cp_wave d ~latency ~est ~total (cp_after : float array)
    (critical : bool array) =
  let n = n_nodes d in
  for v = n - 1 downto 0 do
    cp_after.(v) <- 0.0;
    fold_max cp_after v latency cp_after d.succ.(v)
  done;
  let eps = 1e-9 *. (1.0 +. total) in
  for v = 0 to n - 1 do
    critical.(v) <-
      d.live.(v) && est.(v) +. latency.(v) +. cp_after.(v) >= total -. eps
  done

let schedule d ~latency =
  let n = n_nodes d in
  if Array.length latency <> n then
    invalid_arg "Dag.schedule: one latency per node id";
  let est = Array.make n 0.0 and cp_after = Array.make n 0.0 in
  let critical = Array.make n false in
  let total = est_wave d ~latency est in
  cp_wave d ~latency ~est ~total cp_after critical;
  { est; latency; cp_after; total; critical }

let to_circuit d =
  let rec live_gates v acc =
    if v < 0 then acc
    else live_gates (v - 1) (if d.live.(v) then d.gates.(v) :: acc else acc)
  in
  Circuit.make ~n_qubits:d.nq (live_gates (n_nodes d - 1) [])

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

(* [st.(0 .. hi-lo)] marks the members of [nodes] 1 and everything
   else 0, as [window_convex] reads it *)
let fill_window st lo hi nodes =
  Array.fill st 0 (hi - lo + 1) 0;
  List.iter (fun v -> st.(v - lo) <- 1) nodes

let is_convex d nodes =
  match List.sort_uniq compare nodes with
  | [] | [ _ ] -> true
  | lo :: _ as sorted ->
    let hi = List.fold_left max lo sorted in
    let st = Array.make (hi - lo + 1) 0 in
    fill_window st lo hi sorted;
    window_convex d st lo hi

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

(* Growable int scratch. *)
type ibuf = { mutable arr : int array; mutable len : int }

let ibuf () = { arr = Array.make 16 0; len = 0 }

let ibuf_add b x =
  if b.len = Array.length b.arr then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.arr 0 a 0 b.len;
    b.arr <- a
  end;
  b.arr.(b.len) <- x;
  b.len <- b.len + 1

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

(* the sorted buffer as a list, largest first: the order of every
   adjacency list [of_circuit] builds, which contraction preserves *)
let ibuf_desc b =
  let rec go i acc = if i = b.len then acc else go (i + 1) (b.arr.(i) :: acc) in
  go 0 []

(* ------------------------------------------------------------------ *)
(* In-place contraction                                                *)
(* ------------------------------------------------------------------ *)

let hole = min_int

type editor = {
  dag : t;
  owner : int array;  (** group index per member during an edit, else -1 *)
  remap : int array;  (** an id's id after the edit; identity outside one *)
  mark : int array;  (** [gen]: a window id, [gen + 1]: a queued neighbour *)
  mutable gen : int;
  ids : ibuf;  (** the last edit's window ids (live before it), ascending *)
  origin : ibuf;  (** what each holds now (see {!edit_origin}) *)
  nbrs : ibuf;  (** ids outside the windows adjacent to a moved node *)
  buf : ibuf;  (** one adjacency list under construction *)
  (* window-sized scratch, grown on demand: convexity marks, and the
     Kahn's in-degrees, quotient successors and ready heap *)
  mutable st : int array;
  mutable indeg : int array;
  mutable qsucc : int list array;
  mutable heap : int array;
  mutable log : (int * Gate.app * int list * int list * bool) list;
      (** each written id's previous contents, newest first *)
}

let editor d =
  let n = n_nodes d in
  { dag = d;
    owner = Array.make n (-1);
    remap = Array.init n Fun.id;
    mark = Array.make n 0;
    gen = 0;
    ids = ibuf ();
    origin = ibuf ();
    nbrs = ibuf ();
    buf = ibuf ();
    st = [||];
    indeg = [||];
    qsucc = [||];
    heap = [||];
    log = []
  }

let fit ed w =
  if Array.length ed.st < w then begin
    let cap = max w (2 * Array.length ed.st) in
    ed.st <- Array.make cap 0;
    ed.indeg <- Array.make cap 0;
    ed.qsucc <- Array.make cap [];
    ed.heap <- Array.make cap 0
  end

let edit_size ed = ed.ids.len
let edit_id ed i = ed.ids.arr.(i)
let edit_origin ed i = ed.origin.arr.(i)

(* The stable min-id Kahn over one window [a, b]: its quotient nodes are
   the live singletons and whole groups inside it, each known by its
   min-id (a group by its smallest member, [glo]). Every edge into the
   window from outside starts before [a], so only in-window edges decide
   readiness. It records the window's live ids in [ids] and, aligned
   with them, the origin of each emitted node ([x], or [-(gi+1)] for
   group [gi]) in [origin]; the ids left over once every quotient node
   is placed become holes. *)
let kahn_window ed glo a b =
  let d = ed.dag and owner = ed.owner in
  let w = b - a + 1 in
  fit ed w;
  let indeg = ed.indeg and qsucc = ed.qsucc and heap = ed.heap in
  Array.fill indeg 0 w 0;
  Array.fill qsucc 0 w [];
  let rep x = if owner.(x) < 0 then x - a else glo.(owner.(x)) - a in
  let first = ed.ids.len and reps = ref 0 in
  for x = a to b do
    if d.live.(x) then begin
      ed.mark.(x) <- ed.gen;
      ibuf_add ed.ids x;
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
    end
  done;
  let len = ref 0 in
  for r = 0 to w - 1 do
    if d.live.(r + a) && rep (r + a) = r && indeg.(r) = 0 then begin
      heap_push heap !len r;
      incr len
    end
  done;
  let emitted = ref 0 in
  while !len > 0 do
    let r = heap_pop heap !len in
    decr len;
    let x = r + a in
    ibuf_add ed.origin (if owner.(x) < 0 then x else -(owner.(x) + 1));
    incr emitted;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then begin
          heap_push heap !len s;
          incr len
        end)
      qsucc.(r)
  done;
  if !emitted <> !reps then
    invalid_arg "Rewrite.contract: contraction created a cycle";
  for _ = !reps to ed.ids.len - first - 1 do
    ibuf_add ed.origin hole
  done

let rec add_remapped b remap self = function
  | [] -> ()
  | p :: rest ->
    let q = remap.(p) in
    if q <> self then ibuf_add b q;
    add_remapped b remap self rest

(* the union of [lists] through [remap], without [self], largest
   first: the new list of the node [lists]' owners become at [self] *)
let remapped ed self lists =
  ed.buf.len <- 0;
  List.iter (add_remapped ed.buf ed.remap self) lists;
  ibuf_sort_uniq ed.buf;
  ibuf_desc ed.buf

(* does [l] name a node the edit moves (to another id, or into a
   group)? Only such lists change *)
let rec mentions_moved ed = function
  | [] -> false
  | x :: rest -> ed.remap.(x) <> x || mentions_moved ed rest

let relist ed l = if mentions_moved ed l then remapped ed (-1) [ l ] else l

let write ed j g succ pred live =
  let d = ed.dag in
  ed.log <- (j, d.gates.(j), d.succ.(j), d.pred.(j), d.live.(j)) :: ed.log;
  d.gates.(j) <- g;
  d.succ.(j) <- succ;
  d.pred.(j) <- pred;
  d.live.(j) <- live

let edit ed groups =
  let d = ed.dag and owner = ed.owner in
  let n = n_nodes d in
  let groups = Array.of_list groups in
  let ng = Array.length groups in
  let glo = Array.make ng max_int and ghi = Array.make ng (-1) in
  let release () =
    Array.iter
      (fun (nodes, _) ->
        List.iter (fun v -> if v >= 0 && v < n then owner.(v) <- -1) nodes)
      groups
  in
  let windows =
    try
      Array.iteri
        (fun gi (nodes, _) ->
          List.iter
            (fun v ->
              if v < 0 || v >= n || not d.live.(v) then
                invalid_arg "Rewrite.contract: bad node id";
              if v < glo.(gi) then glo.(gi) <- v;
              if v > ghi.(gi) then ghi.(gi) <- v)
            nodes;
          let lo = glo.(gi) and hi = ghi.(gi) in
          if lo < hi then begin
            fit ed (hi - lo + 1);
            fill_window ed.st lo hi nodes;
            if not (window_convex d ed.st lo hi) then
              invalid_arg "Rewrite.contract: non-convex group"
          end;
          List.iter
            (fun v ->
              if owner.(v) <> -1 then
                invalid_arg "Rewrite.contract: overlapping groups";
              owner.(v) <- gi)
            nodes)
        groups;
      (* windows (a group's smallest to largest member), overlapping ones
         merged, in ascending order *)
      let windows =
        List.filter (fun gi -> ghi.(gi) >= 0) (List.init ng Fun.id)
        |> List.sort (fun x y -> compare glo.(x) glo.(y))
        |> List.fold_left
             (fun acc gi ->
               match acc with
               | (a, b) :: rest when glo.(gi) <= b ->
                 (a, max b ghi.(gi)) :: rest
               | _ -> (glo.(gi), ghi.(gi)) :: acc)
             []
        |> List.rev
      in
      ed.gen <- ed.gen + 2;
      ed.ids.len <- 0;
      ed.origin.len <- 0;
      List.iter (fun (a, b) -> kahn_window ed glo a b) windows;
      windows
    with Invalid_argument _ as exn ->
      release ();
      raise exn
  in
  if windows <> [] then begin
    let ids = ed.ids.arr and origin = ed.origin.arr and m = ed.ids.len in
    let members i =
      let o = origin.(i) in
      if o >= 0 then [ o ] else if o = hole then [] else fst groups.(-o - 1)
    in
    for i = 0 to m - 1 do
      List.iter (fun x -> ed.remap.(x) <- ids.(i)) (members i)
    done;
    (* every changed window id's new gate and lists, read off the old
       graph before anything is written, and the outside neighbours of
       the nodes that move. A node that keeps its id and names no moved
       node keeps its lists: in the common merge, only the group, the
       freed id and their neighbours change *)
    ed.nbrs.len <- 0;
    let queue x =
      if ed.mark.(x) < ed.gen then begin
        ed.mark.(x) <- ed.gen + 1;
        ibuf_add ed.nbrs x
      end
    in
    let fresh = ref [] in
    for i = m - 1 downto 0 do
      let j = ids.(i) and o = origin.(i) in
      if ed.remap.(j) <> j then begin
        List.iter queue d.succ.(j);
        List.iter queue d.pred.(j)
      end;
      if o = hole then fresh := (j, d.gates.(j), [], [], false) :: !fresh
      else if o <> j || mentions_moved ed d.succ.(j)
              || mentions_moved ed d.pred.(j)
      then begin
        let ms = members i in
        fresh :=
          ( j,
            (if o >= 0 then d.gates.(o) else snd groups.(-o - 1)),
            remapped ed j (List.map (Array.get d.succ) ms),
            remapped ed j (List.map (Array.get d.pred) ms),
            true )
          :: !fresh
      end
    done;
    List.iter
      (fun (j, g, succ, pred, live) -> write ed j g succ pred live)
      !fresh;
    for i = 0 to ed.nbrs.len - 1 do
      let y = ed.nbrs.arr.(i) in
      write ed y d.gates.(y) (relist ed d.succ.(y)) (relist ed d.pred.(y)) true
    done;
    for i = 0 to m - 1 do
      ed.remap.(ids.(i)) <- ids.(i)
    done
  end;
  release ()

let undo ed =
  let d = ed.dag in
  List.iter
    (fun (j, g, succ, pred, live) ->
      d.gates.(j) <- g;
      d.succ.(j) <- succ;
      d.pred.(j) <- pred;
      d.live.(j) <- live)
    ed.log;
  ed.log <- []

let keep ed = ed.log <- []
