(* In-memory spans for the traced run: name, start, end, parent and
   request id, kept in a list and written out once as a Chrome
   trace-event file. Single-threaded by design — the traced run drives
   every layer from one thread, so nesting is a plain stack. *)

module Clock = Paqoc_obs.Clock
module Protocol = Paqoc_pulse.Protocol

type span = {
  id : int;
  name : string;
  parent : int option;
  request : int;
  start_s : float;
  end_s : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;
  mutable request : int;
  origin : float;
}

let create () =
  { spans = []; next_id = 0; stack = []; request = 0; origin = Clock.now_s () }

let set_request t id = t.request <- id

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  let request = t.request in
  t.stack <- id :: t.stack;
  let start_s = Clock.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let end_s = Clock.now_s () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; request; start_s; end_s } :: t.spans)
    f

let all t = List.rev t.spans
let count t = t.next_id
let duration s = s.end_s -. s.start_s

(* self time = own duration minus the durations of direct children *)
let self_times t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt children p) in
        Hashtbl.replace children p (prev +. duration s)
      | None -> ())
    t.spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      (s, duration s -. kids))
    (all t)

(* Chrome trace-event format: complete ("X") events in microseconds *)
let to_chrome t =
  let us x = Protocol.Num (Float.round ((x -. t.origin) *. 1e8) /. 100.0) in
  let event s =
    Protocol.Obj
      [ ("name", Protocol.Str s.name);
        ("ph", Protocol.Str "X");
        ("ts", us s.start_s);
        ("dur", Protocol.Num (Float.round (duration s *. 1e8) /. 100.0));
        ("pid", Protocol.Num 1.0);
        ("tid", Protocol.Num 1.0);
        ( "args",
          Protocol.Obj
            [ ("id", Protocol.Num (float_of_int s.id));
              ( "parent",
                match s.parent with
                | Some p -> Protocol.Num (float_of_int p)
                | None -> Protocol.Null );
              ("request", Protocol.Num (float_of_int s.request))
            ] )
      ]
  in
  Protocol.json_to_string
    (Protocol.Obj
       [ ("traceEvents", Protocol.Arr (List.map event (all t)));
         ("displayTimeUnit", Protocol.Str "ms")
       ])

let write_chrome t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome t));
  Sys.rename tmp path
