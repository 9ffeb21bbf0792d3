type provenance = Synthesized | Fallback

type entry = {
  latency : float;
  error : float;
  fidelity : float;
  provenance : provenance;
}

type class_info = {
  class_key : string;
  n_qubits : int;
  unitary : float array;
  rep_key : string;
}

type record = Priced of string * entry | Shape of string | Class of class_info

type version = V1 | V2 | V3 | V4

let magic = function
  | V1 -> "paqoc-pulse-db v1"
  | V2 -> "paqoc-pulse-db v2"
  | V3 -> "paqoc-pulse-db v3"
  | V4 -> "paqoc-pulse-db v4"

let version_of_magic line =
  if String.equal line (magic V1) then Some V1
  else if String.equal line (magic V2) then Some V2
  else if String.equal line (magic V3) then Some V3
  else if String.equal line (magic V4) then Some V4
  else None

let provenance_char = function Synthesized -> 'q' | Fallback -> 'f'

let record_line = function
  | Priced (key, e) ->
    Printf.sprintf "K %.17g %.17g %.17g %c %s" e.latency e.error e.fidelity
      (provenance_char e.provenance) key
  | Shape sign -> "S " ^ sign
  | Class c ->
    (* class key and arity are space-free, so the rep key (which may
       contain spaces) can close the line, mirroring K records *)
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "C %s %d" c.class_key c.n_qubits);
    Array.iter
      (fun f -> Buffer.add_string buf (Printf.sprintf " %.17g" f))
      c.unitary;
    Buffer.add_char buf ' ';
    Buffer.add_string buf c.rep_key;
    Buffer.contents buf

let journal_line r = "+" ^ record_line r

let snapshot_body ?(classes = []) entries shapes =
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  let shapes = List.sort String.compare shapes in
  let classes =
    List.sort (fun a b -> String.compare a.class_key b.class_key) classes
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (key, e) ->
      Buffer.add_string buf (record_line (Priced (key, e)));
      Buffer.add_char buf '\n')
    entries;
  List.iter
    (fun sign ->
      Buffer.add_string buf (record_line (Shape sign));
      Buffer.add_char buf '\n')
    shapes;
  List.iter
    (fun c ->
      Buffer.add_string buf (record_line (Class c));
      Buffer.add_char buf '\n')
    classes;
  Buffer.contents buf

let write ~what ?classes version path entries shapes =
  Paqoc_obs.Atomic_file.write ~what path (fun oc ->
      if Faultin.fire Faultin.Db_save_error then
        raise (Sys_error "injected db-save fault");
      output_string oc (magic version ^ "\n");
      output_string oc (snapshot_body ?classes entries shapes))

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type contents = {
  version : version;
  snapshot : record list;
  journal : record list;
  torn_tail : bool;
  valid_bytes : int;
}

(* A K record's values are finite ({!Paqoc_obs.Scalar.float}), its
   latency non-negative and its error a probability: [1 - error] in
   [0, 1]. A QOC row stores [1 - achieved], and a fidelity that rounds
   above 1 makes that a few ulps negative (-2^-52 seen), so the lower
   bound allows rounding. *)
let error_rounding = 1e-9
let valid_error e = e <= 1.0 && e >= -.error_rounding

(* Parse the body of a K/S line (the leading "K "/"S " included,
   any "+" already stripped). *)
let parse_record version line =
  if String.length line >= 2 && line.[0] = 'K' then
    match String.split_on_char ' ' line with
    | "K" :: lat :: err :: fid :: rest when rest <> [] -> (
      let num name valid s =
        match Paqoc_obs.Scalar.float s with
        | Ok f when valid f -> Ok f
        | Ok _ | Error _ -> Error ("bad " ^ name)
      in
      let provenance_and_key =
        match version with
        | V1 -> Ok (Synthesized, rest)
        | V2 | V3 | V4 -> (
          match rest with
          | "q" :: kp -> Ok (Synthesized, kp)
          | "f" :: kp -> Ok (Fallback, kp)
          | _ -> Error "bad provenance")
      in
      match
        ( num "latency" (fun l -> l >= 0.0) lat,
          num "error" valid_error err,
          num "fidelity" (fun _ -> true) fid,
          provenance_and_key )
      with
      | Ok latency, Ok error, Ok fidelity, Ok (provenance, key_parts) ->
        if key_parts = [] then Error "bad K line"
        else
          Ok
            (Priced
               ( String.concat " " key_parts,
                 { latency; error; fidelity; provenance } ))
      | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _
      | _, _, _, Error e ->
        Error e)
    | _ -> Error "bad K line"
  else if String.length line >= 2 && line.[0] = 'S' then
    Ok (Shape (String.sub line 2 (String.length line - 2)))
  else if String.length line >= 2 && line.[0] = 'C' then begin
    match version with
    | V1 | V2 | V3 -> Error "class record in a pre-v4 file"
    | V4 -> (
      match String.split_on_char ' ' line with
      | "C" :: ck :: nq :: rest when ck <> "" -> (
        match Paqoc_obs.Scalar.int nq with
        | None -> Error "bad class arity"
        | Some n_qubits ->
          if n_qubits < 1 || n_qubits > 3 then Error "bad class arity"
          else begin
            let d = 1 lsl n_qubits in
            let need = 2 * d * d in
            let rec take k acc rest =
              if k = 0 then Ok (List.rev acc, rest)
              else
                match rest with
                | [] -> Error "truncated class record"
                | x :: tl -> (
                  match Paqoc_obs.Scalar.float x with
                  | Ok f -> take (k - 1) (f :: acc) tl
                  | Error _ -> Error "bad class float")
            in
            match take need [] rest with
            | Error e -> Error e
            | Ok (floats, key_parts) ->
              if key_parts = [] then Error "truncated class record"
              else
                Ok
                  (Class
                     { class_key = ck;
                       n_qubits;
                       unitary = Array.of_list floats;
                       rep_key = String.concat " " key_parts
                     })
          end)
      | _ -> Error "bad C line")
  end
  else Error "unrecognised line"

let parse_string s =
  let len = String.length s in
  (* the header line *)
  let header_end =
    match String.index_opt s '\n' with Some i -> i | None -> len
  in
  if len = 0 then Error "empty file"
  else
    match version_of_magic (String.sub s 0 header_end) with
    | None -> Error "bad header"
    | Some version -> (
      let snapshot = ref [] in
      let journal = ref [] in
      let in_journal = ref false in
      let torn = ref false in
      let valid = ref (min len (header_end + 1)) in
      let error = ref None in
      let line_no = ref 1 in
      let fail e = error := Some (Printf.sprintf "line %d: %s" !line_no e) in
      let feed ~complete ~start line =
        incr line_no;
        match !error with
        | Some _ -> ()
        | None ->
          if String.length line = 0 then begin
            if complete then valid := start + 1
          end
          else if not complete then begin
            (* a trailing segment with no newline: in a v3 file this is
               the torn tail of a crashed append and is dropped; v1/v2
               snapshots are written atomically, so an unterminated final
               line there is parsed normally (hand-written files) *)
            match version with
            | V3 | V4 -> torn := true
            | V1 | V2 -> (
              match parse_record version line with
              | Ok r ->
                snapshot := r :: !snapshot;
                valid := start + String.length line
              | Error e -> fail e)
          end
          else if line.[0] = '+' then begin
            match version with
            | V1 | V2 -> fail "journal record in a snapshot file"
            | V3 | V4 -> (
              in_journal := true;
              match
                parse_record version
                  (String.sub line 1 (String.length line - 1))
              with
              | Ok r ->
                journal := r :: !journal;
                valid := start + String.length line + 1
              | Error e -> fail e)
          end
          else if !in_journal then
            fail "snapshot record after journal records"
          else
            match parse_record version line with
            | Ok r ->
              snapshot := r :: !snapshot;
              valid := start + String.length line + 1
            | Error e -> fail e
      in
      let pos = ref (header_end + 1) in
      while !pos <= len && !error = None do
        if !pos = len then pos := len + 1
        else
          match String.index_from_opt s !pos '\n' with
          | Some nl ->
            feed ~complete:true ~start:!pos
              (String.sub s !pos (nl - !pos));
            pos := nl + 1
          | None ->
            feed ~complete:false ~start:!pos
              (String.sub s !pos (len - !pos));
            pos := len + 1
      done;
      match !error with
      | Some e -> Error e
      | None ->
        Ok
          { version;
            snapshot = List.rev !snapshot;
            journal = List.rev !journal;
            torn_tail = !torn;
            valid_bytes = !valid
          })

(* A directory opens for reading and then fails with an errno that does
   not say why, so it is named first. *)
let parse_file path =
  match
    if Sys.is_directory path then Error "is a directory"
    else Ok (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok s -> parse_string s
  | Error _ as e -> e
  | exception Sys_error msg -> Error msg
