(* Test-side oracle for the token edit distance: the string DP the
   product ran before it interned tokens as int codes, and AccQOC's
   generation order as it was built on that DP (re-tokenizing both
   groups on every distance). [Generator.token_distance] must equal
   [token_distance] on any two token sequences once equal tokens get
   equal codes, and [Similarity.generation_order] must return the same
   list as [generation_order]. *)
module Gate = Paqoc_circuit.Gate
module Generator = Paqoc_pulse.Generator

(* token-level Levenshtein over strings, with the polymorphic [min] *)
let token_distance (ta : string array) (tb : string array) =
  let la = Array.length ta and lb = Array.length tb in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if String.equal ta.(i - 1) tb.(j - 1) then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let tokens (g : Generator.group) =
  List.map
    (fun (a : Gate.app) ->
      Gate.name a.Gate.kind ^ "@"
      ^ String.concat "," (List.map string_of_int a.Gate.qubits))
    g.Generator.gates
  |> Array.of_list

let distance a b =
  let d = token_distance (tokens a) (tokens b) in
  d + (4 * abs (a.Generator.n_qubits - b.Generator.n_qubits))

let generation_order groups =
  (* collapse duplicates, keep first occurrence order *)
  let seen = Hashtbl.create 64 in
  let uniq =
    List.filter
      (fun g ->
        let k = Generator.key g in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      groups
  in
  match uniq with
  | [] | [ _ ] -> uniq
  | _ ->
    let arr = Array.of_list uniq in
    let n = Array.length arr in
    (* Prim's MST, rooted at the smallest group *)
    let root = ref 0 in
    Array.iteri
      (fun i g ->
        if List.length g.Generator.gates
           < List.length arr.(!root).Generator.gates then root := i)
      arr;
    let in_tree = Array.make n false in
    let best_dist = Array.make n max_int in
    let parent = Array.make n (-1) in
    in_tree.(!root) <- true;
    for j = 0 to n - 1 do
      if j <> !root then begin
        best_dist.(j) <- distance arr.(!root) arr.(j);
        parent.(j) <- !root
      end
    done;
    let children = Array.make n [] in
    for _ = 1 to n - 1 do
      let pick = ref (-1) in
      for j = 0 to n - 1 do
        if (not in_tree.(j))
           && (!pick = -1 || best_dist.(j) < best_dist.(!pick)) then pick := j
      done;
      let j = !pick in
      in_tree.(j) <- true;
      children.(parent.(j)) <- j :: children.(parent.(j));
      for k = 0 to n - 1 do
        if not in_tree.(k) then begin
          let d = distance arr.(j) arr.(k) in
          if d < best_dist.(k) then begin
            best_dist.(k) <- d;
            parent.(k) <- j
          end
        end
      done
    done;
    (* pre-order walk *)
    let out = ref [] in
    let rec walk v =
      out := arr.(v) :: !out;
      List.iter walk (List.rev children.(v))
    in
    walk !root;
    List.rev !out
