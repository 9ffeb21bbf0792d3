(* The Section V-A benefit formula, shared by the search's candidate
   buffer below and the test-side reference scorer: both paths must
   produce bit-identical scores, so there is exactly one copy of the
   arithmetic. *)
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
    l_u +. l_v -. est

(* The ranking order: score descending, then (u, v) ascending —
   candidates are distinct pairs, so the order is total and the walk is
   unique whatever order the edges were scored in. *)
let[@inline] compare_fields (sa : float) (ua : int) (va : int) (sb : float)
    (ub : int) (vb : int) =
  if sa <> sb then compare sb sa
  else if ua <> ub then compare ua ub
  else compare va vb

(* ------------------------------------------------------------------ *)
(* Candidate buffer                                                    *)
(* ------------------------------------------------------------------ *)

(* The kept candidates of one scoring pass as parallel arrays, reused
   across passes, plus an index heap that hands them out in
   [compare_fields] order. Scoring, the formula and the order all live
   in this one module so the float arithmetic stays unboxed: a call
   into another module boxes every float argument and result. *)
type buffer = {
  mutable len : int;
  mutable bu : int array;
  mutable bv : int array;
  mutable bscore : float array;
  mutable heap : int array;
  mutable heap_len : int;
  alt : float array;  (** one slot: the continuation fold's result *)
}

let buffer () =
  { len = 0;
    bu = [||];
    bv = [||];
    bscore = [||];
    heap = [||];
    heap_len = 0;
    alt = [| 0.0 |]
  }

let clear b =
  b.len <- 0;
  b.heap_len <- 0

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

(* [alt_into acc lat cp v succs] raises [acc.(0)] to the longest
   continuation [lat.(s) +. cp.(s)] through the successors [s <> v] of
   the pair's first gate (the paper's C) *)
let rec alt_into (acc : float array) (lat : float array) (cp : float array) v
    = function
  | [] -> ()
  | s :: rest ->
    if s <> v then acc.(0) <- Float.max acc.(0) (lat.(s) +. cp.(s));
    alt_into acc lat cp v rest

let score_edge b ~include_iii ~lat ~cp ~crit ~succs ~u ~v ~est =
  let case =
    match (crit.(u), crit.(v)) with
    | true, true -> `I
    | true, false | false, true -> `II
    | false, false -> `III
  in
  if include_iii || case <> `III then begin
    b.alt.(0) <- 0.0;
    alt_into b.alt lat cp v succs;
    let s =
      score_value ~case ~u_critical:crit.(u) ~l_u:lat.(u) ~l_v:lat.(v)
        ~cp_v:cp.(v) ~alt_after_u:b.alt.(0) ~est
    in
    if s > 1e-9 then begin
      reserve b;
      let k = b.len in
      b.bu.(k) <- u;
      b.bv.(k) <- v;
      b.bscore.(k) <- s;
      b.len <- k + 1
    end
  end

let before b i j =
  compare_fields b.bscore.(i) b.bu.(i) b.bv.(i) b.bscore.(j) b.bu.(j) b.bv.(j)
  < 0

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

(* the walk consumes the order lazily: heapify once (linear), then pop
   only the few candidates the selection looks at *)
let start_walk b =
  for i = 0 to b.len - 1 do
    b.heap.(i) <- i
  done;
  b.heap_len <- b.len;
  for i = (b.len / 2) - 1 downto 0 do
    sift_down b i
  done

let next b =
  if b.heap_len = 0 then -1
  else begin
    let top = b.heap.(0) in
    b.heap_len <- b.heap_len - 1;
    b.heap.(0) <- b.heap.(b.heap_len);
    sift_down b 0;
    top
  end

let cand_u b i = b.bu.(i)
let cand_v b i = b.bv.(i)
let cand_score b i = b.bscore.(i)
