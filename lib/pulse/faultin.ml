module Obs = Paqoc_obs.Obs

type point =
  | Grape_diverge
  | Db_save_error
  | Journal_append_error
  | Pool_task_crash
  | Timeout
  | Drift_shock

type trigger =
  | Always
  | First of int
  | Every of int
  | Prob of float * int

exception Injected of point

let point_name = function
  | Grape_diverge -> "grape-diverge"
  | Db_save_error -> "db-save-error"
  | Journal_append_error -> "journal-append-error"
  | Pool_task_crash -> "pool-task-crash"
  | Timeout -> "timeout"
  | Drift_shock -> "drift-shock"

let all_points =
  [ Grape_diverge; Db_save_error; Journal_append_error; Pool_task_crash;
    Timeout; Drift_shock ]

(* One cell per point; [armed] is the single load every disarmed [fire]
   pays. Counts survive individual firings but reset on [configure] so a
   test's triggers always see call numbers starting at 1. *)
type cell = { mutable trig : trigger option; mutable calls : int }

let armed = Atomic.make false
let lock = Mutex.create ()
let cells = List.map (fun p -> (p, { trig = None; calls = 0 })) all_points
let cell p = List.assq p cells

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let configure points =
  locked (fun () ->
      List.iter
        (fun (_, c) ->
          c.trig <- None;
          c.calls <- 0)
        cells;
      List.iter (fun (p, t) -> (cell p).trig <- Some t) points;
      Atomic.set armed (points <> []))

let reset () = configure []

let active () =
  locked (fun () ->
      List.filter_map
        (fun (p, c) -> Option.map (fun t -> (p, t)) c.trig)
        cells)

let evaluate trig ~call =
  match trig with
  | Always -> true
  | First n -> call <= n
  | Every n -> n >= 1 && call mod n = 0
  | Prob (p, seed) ->
    (* stateless per-call draw: the same (seed, call) pair always lands
       the same way, independent of other points' activity *)
    let rng = Random.State.make [| seed; call; 0x1f |] in
    Random.State.float rng 1.0 < p

let fire p =
  if not (Atomic.get armed) then false
  else
    let fired =
      locked (fun () ->
          let c = cell p in
          match c.trig with
          | None -> false
          | Some t ->
            c.calls <- c.calls + 1;
            evaluate t ~call:c.calls)
    in
    if fired then Obs.count ("faultin." ^ point_name p);
    fired

let call_count p = locked (fun () -> (cell p).calls)

(* ------------------------------------------------------------------ *)
(* CLI spec                                                            *)
(* ------------------------------------------------------------------ *)

let point_of_name s =
  List.find_opt (fun p -> String.equal (point_name p) s) all_points

let parse_clause clause =
  match String.split_on_char ':' (String.trim clause) with
  | [] | [ "" ] -> Error "empty injection clause"
  | name :: opts -> (
    match point_of_name name with
    | None ->
      Error
        (Printf.sprintf "unknown injection point %S (want %s)" name
           (String.concat ", " (List.map point_name all_points)))
    | Some p ->
      let prob = ref None and seed = ref 0 and counted = ref None in
      let step opt =
        match String.index_opt opt '=' with
        | None -> Error (Printf.sprintf "bad injection option %S (want k=v)" opt)
        | Some i -> (
          let k = String.sub opt 0 i in
          let v = String.sub opt (i + 1) (String.length opt - i - 1) in
          let int_v name =
            match Paqoc_obs.Scalar.int v with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (Printf.sprintf "bad %s value %S" name v)
          in
          match k with
          | "first" ->
            Result.map (fun n -> counted := Some (First n)) (int_v "first")
          | "every" ->
            Result.map (fun n -> counted := Some (Every n)) (int_v "every")
          | "seed" -> (
            match Paqoc_obs.Scalar.int v with
            | Some n ->
              seed := n;
              Ok ()
            | None -> Error (Printf.sprintf "bad seed value %S" v))
          | "prob" -> (
            match Paqoc_obs.Scalar.float v with
            | Ok f when f >= 0.0 && f <= 1.0 ->
              prob := Some f;
              Ok ()
            | _ -> Error (Printf.sprintf "bad prob value %S (want [0,1])" v))
          | _ -> Error (Printf.sprintf "unknown injection option %S" k))
      in
      let rec steps = function
        | [] -> (
          match (!prob, !counted) with
          | Some _, Some _ ->
            Error "prob= and first=/every= are mutually exclusive"
          | Some f, None -> Ok (p, Prob (f, !seed))
          | None, Some t -> Ok (p, t)
          | None, None -> Ok (p, Always))
        | o :: rest -> (
          match step o with Ok () -> steps rest | Error _ as e -> e)
      in
      steps opts)

let parse_spec s =
  let clauses =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  if clauses = [] then Error "empty injection spec"
  else
    List.fold_left
      (fun acc clause ->
        match (acc, parse_clause clause) with
        | Error _, _ -> acc
        | _, (Error _ as e) -> e
        | Ok pts, Ok pt -> Ok (pts @ [ pt ]))
      (Ok []) clauses

let trigger_to_string = function
  | Always -> ""
  | First n -> Printf.sprintf ":first=%d" n
  | Every n -> Printf.sprintf ":every=%d" n
  | Prob (p, seed) -> Printf.sprintf ":prob=%g:seed=%d" p seed

let spec_to_string pts =
  String.concat ","
    (List.map (fun (p, t) -> point_name p ^ trigger_to_string t) pts)

let with_faults points f =
  let previous = active () in
  configure points;
  Fun.protect ~finally:(fun () -> configure previous) f
