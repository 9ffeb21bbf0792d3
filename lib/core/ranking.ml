module Dag = Paqoc_circuit.Dag

(* The Section V-A benefit formula, its CP-free bound and the walk that
   hands candidates out in ranking order. The search's walk and the
   test-side reference scorer both score through [score_value], so
   there is exactly one copy of the arithmetic; the formula, the bound,
   the order and the walk share this module so the float arithmetic
   stays unboxed (under dune's default profile every module is compiled
   -opaque, and a call into another module boxes every float argument
   and result). *)

(* B(u, v) = L(u) + L(v) - est: the pair's local Observation-1 gain.
   It has no CP and no criticality term, and every case of
   [score_value] is at most B in exact arithmetic:
   - Case I subtracts max(CP(v), alt), which is at least CP(v);
   - Case II (u critical) is L(u) + alt - est - max(alt, CP(v)), at most
     L(u) - est, and Case II (v critical) is L(v) - est: each drops a
     latency, and latencies are never negative;
   - Case III is B itself, by this very expression, so under the
     pruning ablation a Case III score equals its bound bit for bit. *)
let[@inline] bound ~l_u ~l_v ~est = l_u +. l_v -. est

let[@inline] score_value ~case ~u_critical ~l_u ~l_v ~cp_v ~alt_after_u ~est =
  match case with
  | `I ->
    (* both on the critical path:
       orig = L(u) + L(v) + CP(v); new = L(uv) + max(CP(v), alt) *)
    l_u +. l_v +. cp_v -. (est +. Float.max cp_v alt_after_u)
  | `II ->
    if u_critical then
      (* u critical, v the off-path successor C: the critical
         continuation b is u's dominant other successor, so
         orig = L(u) + (L(b)+CP(b)); new = L(uv) + max(L(b)+CP(b), CP(v))
         — beneficial iff L(uv) < L(u) while CP(v) stays dominated,
         exactly the paper's comparison. *)
      l_u +. alt_after_u -. (est +. Float.max alt_after_u cp_v)
    else (* v critical, u the off-path predecessor *)
      l_v -. est
  | `III ->
    (* neither gate is critical: merging cannot shorten the circuit
       (Section V-A prunes these); scored only in the pruning ablation,
       by the local Observation-1 gain *)
    bound ~l_u ~l_v ~est

(* "Score <= B" holds in exact arithmetic only. Every operand is
   non-negative, and on any edge whose score can be positive each is at
   most the circuit total T: a CP-after value, a continuation, and the
   sums L(u) + L(v) + CP(v) and L(u) + alt are path lengths, and an
   estimate above the rounded L(u) + L(v) makes the score and B both
   non-positive (rounding is monotone). So each intermediate is at most
   2T, and each rounding moves a result by at most u * 2T, u = 2^-53.
   Case I shares B's first rounding (l_u +. l_v) and then rounds three
   times (two sums and the difference), B once more: the computed score
   exceeds the computed B by at most about 6u T. Case II with u critical
   rounds l_u +. alt instead, and B's own first sum may round down by
   u T: at most about 7u T. The stop test's sum B + margin rounds by u T
   more. (The waves' roundings can leave a computed CP-after a few
   thousand ulps above the computed T on a long path, which only scales
   these terms by 1 + 1e-12.) The margin is 32u T = T * 2^-48, four
   times 8u T: about 1.8e-10 dt on a 50,000 dt circuit, against the
   7.2e-12 a float probe with Table I magnitudes saw. Case II with v
   critical and Case III never exceed their bound: [bound]'s first sum
   is at least L(v) when rounded, and Case III is [bound]. *)
let margin total = total *. 0x1p-48

(* The ranking order: score descending, then (u, v) ascending —
   candidates are distinct pairs, so the order is total and the walk is
   unique whatever order the edges were scored in. *)
let[@inline] compare_fields (sa : float) (ua : int) (va : int) (sb : float)
    (ub : int) (vb : int) =
  if sa <> sb then compare sb sa
  else if ua <> ub then compare ua ub
  else compare va vb

(* ------------------------------------------------------------------ *)
(* The bound-ordered walk                                              *)
(* ------------------------------------------------------------------ *)

type key_state = { mutable blacklisted : bool }

(* A run of ordered edges as parallel arrays: each entry's bound, its
   pair's estimate and merged-key state, its two nodes' uids and the
   sum of their reprice stamps when it was added. *)
type run = {
  mutable n : int;
  mutable bnd : float array;
  mutable est : float array;
  mutable ua : int array;
  mutable ub : int array;
  mutable stamp : int array;
  mutable state : key_state array;
}

let no_state = { blacklisted = true }

let run () =
  { n = 0;
    bnd = [||];
    est = [||];
    ua = [||];
    ub = [||];
    stamp = [||];
    state = [||]
  }

let reserve_run r cap =
  if Array.length r.bnd < cap then begin
    let cap = max cap (max 16 (2 * Array.length r.bnd)) in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 r.n;
      a'
    in
    r.bnd <- grow r.bnd 0.0;
    r.est <- grow r.est 0.0;
    r.ua <- grow r.ua 0;
    r.ub <- grow r.ub 0;
    r.stamp <- grow r.stamp 0;
    r.state <- grow r.state no_state
  end

let copy_entry src i dst j =
  dst.bnd.(j) <- src.bnd.(i);
  dst.est.(j) <- src.est.(i);
  dst.ua.(j) <- src.ua.(i);
  dst.ub.(j) <- src.ub.(i);
  dst.stamp.(j) <- src.stamp.(i);
  dst.state.(j) <- src.state.(i)

type view = {
  lat : float array;
  cp : float array;
  crit : bool array;
  dag : Dag.t;
  uid : int array;
  id_of_uid : int array;
  stamps : int array;
  include_iii : bool;
  total : float;
}

(* The walk's state: the eligible edges as a sorted run ([main]) and a
   run of edges added since it was built ([pend], sorted up to
   [sorted]); the cursors of the current pass into both; and the kept
   candidates of the pass as parallel arrays plus an index heap in
   [compare_fields] order. *)
type buffer = {
  mutable main : run;
  mutable spare : run;
  mutable pend : run;
  mutable sorted : int;
  mutable mi : int;
  mutable pi : int;
  delta : float array;  (** one slot: the pass's margin *)
  mutable scored : int;
  mutable stale : int;  (** entries skipped as not current since [compact] *)
  mutable len : int;
  mutable bu : int array;
  mutable bv : int array;
  mutable bscore : float array;
  mutable heap : int array;
  mutable heap_len : int;
  alt : float array;  (** one slot: the continuation fold's result *)
}

let buffer () =
  { main = run ();
    spare = run ();
    pend = run ();
    sorted = 0;
    mi = 0;
    pi = 0;
    delta = [| 0.0 |];
    scored = 0;
    stale = 0;
    len = 0;
    bu = [||];
    bv = [||];
    bscore = [||];
    heap = [||];
    heap_len = 0;
    alt = [| 0.0 |]
  }

let add b ~lat ~u ~v ~ua ~ub ~stamp ~est state =
  let p = b.pend in
  reserve_run p (p.n + 1);
  let k = p.n in
  p.bnd.(k) <- bound ~l_u:lat.(u) ~l_v:lat.(v) ~est;
  p.est.(k) <- est;
  p.ua.(k) <- ua;
  p.ub.(k) <- ub;
  p.stamp.(k) <- stamp;
  p.state.(k) <- state;
  p.n <- k + 1

(* the id of entry [k]'s first node when the entry is current: both
   uids live, neither node repriced since it was added, its merged key
   not blacklisted; else -1 *)
let live (w : view) r k =
  let ua = r.ua.(k) and ub = r.ub.(k) in
  let u = w.id_of_uid.(ua) and v = w.id_of_uid.(ub) in
  if
    u >= 0 && v >= 0
    && w.uid.(u) = ua
    && w.uid.(v) = ub
    && w.stamps.(ua) + w.stamps.(ub) = r.stamp.(k)
    && not r.state.(k).blacklisted
  then u
  else -1

(* sorts [pend]'s unsorted tail into its sorted prefix: by insertion
   when the tail is short (the edges one commit adds), else the whole
   run through a sorted permutation (the initial load) *)
let sort_pending b =
  let p = b.pend in
  if p.n - b.sorted > 64 then begin
    let perm = Array.init p.n Fun.id in
    Array.stable_sort (fun i j -> Float.compare p.bnd.(j) p.bnd.(i)) perm;
    let s = b.spare in
    reserve_run s p.n;
    Array.iteri (fun j i -> copy_entry p i s j) perm;
    s.n <- p.n;
    p.n <- 0;
    b.spare <- p;
    b.pend <- s
  end
  else begin
    (* the slot past the end holds the entry being inserted *)
    reserve_run p (p.n + 1);
    for i = b.sorted to p.n - 1 do
      copy_entry p i p p.n;
      let j = ref i in
      while !j > 0 && p.bnd.(!j - 1) < p.bnd.(p.n) do
        copy_entry p (!j - 1) p !j;
        decr j
      done;
      copy_entry p p.n p !j
    done
  end;
  b.sorted <- b.pend.n

(* merges [pend] into [main], dropping the entries the walk would skip *)
let compact b w =
  let m = b.main and p = b.pend and s = b.spare in
  reserve_run s (m.n + p.n);
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let keep r x =
    if live w r x >= 0 then begin
      copy_entry r x s !k;
      incr k
    end
  in
  while !i < m.n || !j < p.n do
    if !j >= p.n || (!i < m.n && m.bnd.(!i) >= p.bnd.(!j)) then begin
      keep m !i;
      incr i
    end
    else begin
      keep p !j;
      incr j
    end
  done;
  s.n <- !k;
  m.n <- 0;
  p.n <- 0;
  b.main <- s;
  b.spare <- m;
  b.sorted <- 0;
  b.stale <- 0

(* A compaction costs a pass over both runs, so it waits until the added
   run is a sixteenth of the sorted one (each pass's insertions shift
   that run) or until the walk has skipped stale entries a quarter of
   its length of times: a Table I suite compacts 139 times in 1,048
   passes. *)
let start b (w : view) =
  b.len <- 0;
  b.heap_len <- 0;
  sort_pending b;
  if b.pend.n >= max 32 (b.main.n / 16) || b.stale >= max 32 (b.main.n / 4)
  then compact b w;
  b.mi <- 0;
  b.pi <- 0;
  b.delta.(0) <- margin w.total

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

let reserve b =
  if b.len = Array.length b.bu then begin
    let cap = 2 * max 8 b.len in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.bu <- grow b.bu 0;
    b.bv <- grow b.bv 0;
    b.bscore <- grow b.bscore 0.0;
    b.heap <- grow b.heap 0
  end

let before b i j =
  compare_fields b.bscore.(i) b.bu.(i) b.bv.(i) b.bscore.(j) b.bu.(j) b.bv.(j)
  < 0

let rec sift_up b i =
  if i > 0 then begin
    let h = b.heap in
    let parent = (i - 1) / 2 in
    if before b h.(i) h.(parent) then begin
      let t = h.(i) in
      h.(i) <- h.(parent);
      h.(parent) <- t;
      sift_up b parent
    end
  end

let rec sift_down b i =
  let l = (2 * i) + 1 in
  if l < b.heap_len then begin
    let h = b.heap in
    let m = if l + 1 < b.heap_len && before b h.(l + 1) h.(l) then l + 1 else l in
    if before b h.(m) h.(i) then begin
      let t = h.(i) in
      h.(i) <- h.(m);
      h.(m) <- t;
      sift_down b m
    end
  end

let pop b =
  if b.heap_len = 0 then -1
  else begin
    let top = b.heap.(0) in
    b.heap_len <- b.heap_len - 1;
    b.heap.(0) <- b.heap.(b.heap_len);
    sift_down b 0;
    top
  end

(* [alt_into acc lat cp v succs] raises [acc.(0)] to the longest
   continuation [lat.(s) +. cp.(s)] through the successors [s <> v] of
   the pair's first gate (the paper's C) *)
let rec alt_into (acc : float array) (lat : float array) (cp : float array) v
    = function
  | [] -> ()
  | s :: rest ->
    if s <> v then acc.(0) <- Float.max acc.(0) (lat.(s) +. cp.(s));
    alt_into acc lat cp v rest

(* scores entry [k] of [r] when it is current and Case III pruning keeps
   it, and keeps it as a candidate when the score is positive *)
let score_entry b (w : view) r k =
  let u = live w r k in
  if u < 0 then b.stale <- b.stale + 1
  else begin
    let v = w.id_of_uid.(r.ub.(k)) in
    let cu = w.crit.(u) and cv = w.crit.(v) in
    if w.include_iii || cu || cv then begin
      b.scored <- b.scored + 1;
      let case = if cu && cv then `I else if cu || cv then `II else `III in
      b.alt.(0) <- 0.0;
      alt_into b.alt w.lat w.cp v (Dag.succs w.dag u);
      let s =
        score_value ~case ~u_critical:cu ~l_u:w.lat.(u) ~l_v:w.lat.(v)
          ~cp_v:w.cp.(v) ~alt_after_u:b.alt.(0) ~est:r.est.(k)
      in
      if s > 1e-9 then begin
        reserve b;
        let c = b.len in
        b.bu.(c) <- u;
        b.bv.(c) <- v;
        b.bscore.(c) <- s;
        b.len <- c + 1;
        b.heap.(b.heap_len) <- c;
        b.heap_len <- b.heap_len + 1;
        sift_up b (b.heap_len - 1)
      end
    end
  end

(* The stop test. The next unscored edge has the largest bound B left,
   so every unscored score is at most B + margin: the best kept
   candidate is final only when its score is strictly above that. A
   tie must be scored, never passed over: the tied edge may come first
   by its pair. An edge with B + margin <= 1e-9 can never be kept, and
   nor can any after it, so the pass scores nothing past it. *)
let rec next b (w : view) =
  let m = b.main and p = b.pend in
  let mi = b.mi and pi = b.pi in
  if mi >= m.n && pi >= p.n then pop b
  else
    let from_main = pi >= p.n || (mi < m.n && m.bnd.(mi) >= p.bnd.(pi)) in
    let r = if from_main then m else p and k = if from_main then mi else pi in
    let limit = r.bnd.(k) +. b.delta.(0) in
    if limit <= 1e-9 then pop b
    else if b.heap_len > 0 && b.bscore.(b.heap.(0)) > limit then pop b
    else begin
      if from_main then b.mi <- mi + 1 else b.pi <- pi + 1;
      score_entry b w r k;
      next b w
    end

let scored b = b.scored
let cand_u b i = b.bu.(i)
let cand_v b i = b.bv.(i)
let cand_score b i = b.bscore.(i)
