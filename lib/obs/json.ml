type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= 0x1p53 ->
    Some (int_of_float v)
  | _ -> None

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Printf.bprintf buf "%.17g" v
  | Str s -> escape_string buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* Recursive-descent parser. Errors are values ([Error msg]) because a
   malformed client frame must never raise past the connection loop. *)
exception Parse of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Parse (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> err (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else err (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then err "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          go ()
        | 'n' ->
          Buffer.add_char buf '\n';
          go ()
        | 'r' ->
          Buffer.add_char buf '\r';
          go ()
        | 't' ->
          Buffer.add_char buf '\t';
          go ()
        | 'b' ->
          Buffer.add_char buf '\b';
          go ()
        | 'f' ->
          Buffer.add_char buf '\012';
          go ()
        | 'u' ->
          if !pos + 4 > n then err "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            match Scalar.hex hex with
            | Some c -> c
            | None -> err "bad \\u escape"
          in
          (* ASCII only — enough for our own documents; anything else is
             encoded as raw UTF-8 by the writer, never escaped *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else err "non-ASCII \\u escape unsupported";
          go ()
        | _ -> err "bad escape")
      | c when Char.code c < 0x20 -> err "raw control character in string"
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match Scalar.float tok with
    | Ok v -> v
    | Error Scalar.Not_a_number -> err (Printf.sprintf "bad number %S" tok)
    | Error Scalar.Not_finite ->
      err (Printf.sprintf "number %S is past the float range" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> err "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> err "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> err (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then err "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg
