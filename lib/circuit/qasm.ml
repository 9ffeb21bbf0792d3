exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Number of float
  | Str of string
  | Punct of char  (* ; , ( ) [ ] { } *)
  | Op of char  (* + - * / *)
  | Eof

type lexer = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;
}

let error lx msg =
  raise (Parse_error (Printf.sprintf "line %d: %s" lx.line msg))

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let is_digit c = c >= '0' && c <= '9'

let rec skip_ws lx =
  if lx.pos < String.length lx.src then
    match lx.src.[lx.pos] with
    | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip_ws lx
    | '\n' ->
      lx.pos <- lx.pos + 1;
      lx.line <- lx.line + 1;
      skip_ws lx
    | '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/'
      ->
      while lx.pos < String.length lx.src && lx.src.[lx.pos] <> '\n' do
        lx.pos <- lx.pos + 1
      done;
      skip_ws lx
    | _ -> ()

let read_token lx =
  skip_ws lx;
  if lx.pos >= String.length lx.src then Eof
  else
    let c = lx.src.[lx.pos] in
    if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = lx.pos in
      while lx.pos < String.length lx.src && is_ident_char lx.src.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      Ident (String.sub lx.src start (lx.pos - start))
    end
    else if is_digit c || (c = '.' && lx.pos + 1 < String.length lx.src
                           && is_digit lx.src.[lx.pos + 1]) then begin
      let start = lx.pos in
      let seen_e = ref false in
      let continue = ref true in
      while !continue && lx.pos < String.length lx.src do
        let c = lx.src.[lx.pos] in
        if is_digit c || c = '.' then lx.pos <- lx.pos + 1
        else if (c = 'e' || c = 'E') && not !seen_e then begin
          seen_e := true;
          lx.pos <- lx.pos + 1;
          if lx.pos < String.length lx.src
             && (lx.src.[lx.pos] = '+' || lx.src.[lx.pos] = '-') then
            lx.pos <- lx.pos + 1
        end
        else continue := false
      done;
      let text = String.sub lx.src start (lx.pos - start) in
      match float_of_string_opt text with
      | Some f -> Number f
      | None -> error lx (Printf.sprintf "bad number %S" text)
    end
    else if c = '"' then begin
      let start = lx.pos + 1 in
      let stop = ref start in
      while !stop < String.length lx.src && lx.src.[!stop] <> '"' do
        incr stop
      done;
      if !stop >= String.length lx.src then error lx "unterminated string";
      lx.pos <- !stop + 1;
      Str (String.sub lx.src start (!stop - start))
    end
    else begin
      lx.pos <- lx.pos + 1;
      match c with
      | ';' | ',' | '(' | ')' | '[' | ']' | '{' | '}' -> Punct c
      | '+' | '*' | '/' | '-' -> Op c
      | '>' -> Punct '>'
      | _ -> error lx (Printf.sprintf "unexpected character %C" c)
    end

let advance lx = lx.tok <- read_token lx

let make_lexer src =
  let lx = { src; pos = 0; line = 1; tok = Eof } in
  advance lx;
  lx

let expect_punct lx c =
  match lx.tok with
  | Punct p when p = c -> advance lx
  | _ -> error lx (Printf.sprintf "expected %C" c)

let expect_ident lx =
  match lx.tok with
  | Ident s ->
    advance lx;
    s
  | _ -> error lx "expected identifier"

let expect_int lx =
  match lx.tok with
  | Number f when Float.is_integer f ->
    advance lx;
    int_of_float f
  | _ -> error lx "expected integer"

(* ------------------------------------------------------------------ *)
(* Expression parser for gate parameters                               *)
(* ------------------------------------------------------------------ *)

(* A parameter expression evaluates either to a constant or, if it contains
   exactly one free identifier used linearly, to a symbolic angle. Anything
   more exotic is rejected. *)
type pexpr = Pconst of float | Psym of string * float (* k * sym *)

let pexpr_neg = function
  | Pconst f -> Pconst (-.f)
  | Psym (s, k) -> Psym (s, -.k)

let pexpr_add lx a b =
  match (a, b) with
  | Pconst x, Pconst y -> Pconst (x +. y)
  | _ -> error lx "unsupported parameter expression (symbol under +/-)"

let pexpr_mul lx a b =
  match (a, b) with
  | Pconst x, Pconst y -> Pconst (x *. y)
  | Pconst x, Psym (s, k) | Psym (s, k), Pconst x -> Psym (s, k *. x)
  | Psym _, Psym _ -> error lx "unsupported parameter expression (sym*sym)"

let pexpr_div lx a b =
  match (a, b) with
  | Pconst x, Pconst y -> Pconst (x /. y)
  | Psym (s, k), Pconst y -> Psym (s, k /. y)
  | _, Psym _ -> error lx "unsupported parameter expression (division by sym)"

let rec parse_expr lx = parse_additive lx

and parse_additive lx =
  let left = ref (parse_multiplicative lx) in
  let continue = ref true in
  while !continue do
    match lx.tok with
    | Op '+' ->
      advance lx;
      left := pexpr_add lx !left (parse_multiplicative lx)
    | Op '-' ->
      advance lx;
      left := pexpr_add lx !left (pexpr_neg (parse_multiplicative lx))
    | _ -> continue := false
  done;
  !left

and parse_multiplicative lx =
  let left = ref (parse_unary lx) in
  let continue = ref true in
  while !continue do
    match lx.tok with
    | Op '*' ->
      advance lx;
      left := pexpr_mul lx !left (parse_unary lx)
    | Op '/' ->
      advance lx;
      left := pexpr_div lx !left (parse_unary lx)
    | _ -> continue := false
  done;
  !left

and parse_unary lx =
  match lx.tok with
  | Op '-' ->
    advance lx;
    pexpr_neg (parse_unary lx)
  | Op '+' ->
    advance lx;
    parse_unary lx
  | Number f ->
    advance lx;
    Pconst f
  | Ident "pi" ->
    advance lx;
    Pconst Angle.pi
  | Ident s ->
    advance lx;
    Psym (s, 1.0)
  | Punct '(' ->
    advance lx;
    let e = parse_expr lx in
    expect_punct lx ')';
    e
  | _ -> error lx "expected parameter expression"

(* A gate parameter: an expression whose folded constant, or the
   coefficient of its symbol, is finite. A literal past the float range
   ([1e999]) or a fold that overflows or divides by zero ([1e308*10],
   [pi/0]) would otherwise reach the pulse stack as inf or NaN. *)
let parse_param lx =
  let e = parse_expr lx in
  (match e with
  | Pconst f when not (Float.is_finite f) ->
    error lx (Printf.sprintf "parameter is not finite (%g)" f)
  | Psym (s, k) when not (Float.is_finite k) ->
    error lx (Printf.sprintf "coefficient of %s is not finite (%g)" s k)
  | Pconst _ | Psym _ -> ());
  e

let angle_of_pexpr = function
  | Pconst f -> Angle.Const f
  | Psym (s, k) ->
    if abs_float (k -. 1.0) < 1e-12 then Angle.Sym s else Angle.Scaled (s, k)

(* ------------------------------------------------------------------ *)
(* Program parser                                                      *)
(* ------------------------------------------------------------------ *)

type reg = { rname : string; size : int; offset : int }

let gate_of_name lx name args =
  let a1 () =
    match args with
    | [ a ] -> a
    | _ -> error lx (name ^ " expects one parameter")
  in
  let a0 () =
    match args with
    | [] -> ()
    | _ -> error lx (name ^ " expects no parameters")
  in
  match name with
  | "id" -> a0 (); Gate.I
  | "x" -> a0 (); Gate.X
  | "y" -> a0 (); Gate.Y
  | "z" -> a0 (); Gate.Z
  | "h" -> a0 (); Gate.H
  | "s" -> a0 (); Gate.S
  | "sdg" -> a0 (); Gate.Sdg
  | "t" -> a0 (); Gate.T
  | "tdg" -> a0 (); Gate.Tdg
  | "sx" -> a0 (); Gate.SX
  | "sxdg" -> a0 (); Gate.SXdg
  | "rx" -> Gate.RX (a1 ())
  | "ry" -> Gate.RY (a1 ())
  | "rz" | "u1" | "p" -> Gate.RZ (a1 ())
  | "u2" -> (
    match args with
    | [ phi; lam ] -> Gate.U3 (Angle.Const (Angle.pi /. 2.0), phi, lam)
    | _ -> error lx "u2 expects two parameters")
  | "u3" | "u" -> (
    match args with
    | [ t; p; l ] -> Gate.U3 (t, p, l)
    | _ -> error lx "u3 expects three parameters")
  | "cx" | "CX" -> a0 (); Gate.CX
  | "cz" -> a0 (); Gate.CZ
  | "swap" -> a0 (); Gate.SWAP
  | "cp" | "cu1" -> Gate.CPhase (a1 ())
  | "ccx" -> a0 (); Gate.CCX
  | _ -> error lx (Printf.sprintf "unsupported gate %s" name)

(* user-defined gates: formal parameter names, arity, body over local
   wires *)
type gate_def = { formals : string list; def_arity : int; body : Gate.app list }

let instantiate lx name (def : gate_def) args =
  if List.length args <> List.length def.formals then
    error lx (Printf.sprintf "%s expects %d parameters" name
                (List.length def.formals));
  let bindings =
    List.map2
      (fun formal (a : Angle.t) ->
        match a with
        | Angle.Const f -> (formal, f)
        | Angle.Sym _ | Angle.Scaled _ ->
          error lx "symbolic arguments to defined gates are not supported")
      def.formals args
  in
  let body =
    List.map
      (fun (g : Gate.app) ->
        { g with Gate.kind = Gate.bind_params bindings g.Gate.kind })
      def.body
  in
  Gate.Custom (Gate.make_custom ~name ~arity:def.def_arity body)

let parse src =
  let lx = make_lexer src in
  let regs : (string, reg) Hashtbl.t = Hashtbl.create 4 in
  let defs : (string, gate_def) Hashtbl.t = Hashtbl.create 4 in
  let total_qubits = ref 0 in
  let gates = ref [] in
  let resolve_qubit () =
    let rname = expect_ident lx in
    match Hashtbl.find_opt regs rname with
    | None -> error lx (Printf.sprintf "unknown register %s" rname)
    | Some reg ->
      expect_punct lx '[';
      let k = expect_int lx in
      expect_punct lx ']';
      if k < 0 || k >= reg.size then
        error lx (Printf.sprintf "index %d out of range for %s" k rname);
      reg.offset + k
  in
  let skip_to_semicolon () =
    let continue = ref true in
    while !continue do
      match lx.tok with
      | Punct ';' ->
        advance lx;
        continue := false
      | Eof -> continue := false
      | _ -> advance lx
    done
  in
  let continue = ref true in
  while !continue do
    match lx.tok with
    | Eof -> continue := false
    | Ident "OPENQASM" ->
      advance lx;
      skip_to_semicolon ()
    | Ident "include" ->
      advance lx;
      skip_to_semicolon ()
    | Ident "qreg" ->
      advance lx;
      let rname = expect_ident lx in
      expect_punct lx '[';
      let size = expect_int lx in
      expect_punct lx ']';
      expect_punct lx ';';
      Hashtbl.replace regs rname { rname; size; offset = !total_qubits };
      total_qubits := !total_qubits + size
    | Ident "creg" ->
      advance lx;
      skip_to_semicolon ()
    | Ident "barrier" | Ident "measure" | Ident "reset" ->
      advance lx;
      skip_to_semicolon ()
    | Ident "gate" ->
      advance lx;
      let gname = expect_ident lx in
      let formals =
        match lx.tok with
        | Punct '(' ->
          advance lx;
          let rec loop acc =
            match lx.tok with
            | Punct ')' ->
              advance lx;
              List.rev acc
            | Ident p ->
              advance lx;
              (match lx.tok with
              | Punct ',' -> advance lx
              | _ -> ());
              loop (p :: acc)
            | _ -> error lx "expected parameter name"
          in
          loop []
        | _ -> []
      in
      let wires = Hashtbl.create 4 in
      let rec wire_loop () =
        let w = expect_ident lx in
        Hashtbl.replace wires w (Hashtbl.length wires);
        match lx.tok with
        | Punct ',' ->
          advance lx;
          wire_loop ()
        | _ -> ()
      in
      wire_loop ();
      expect_punct lx '{';
      let body = ref [] in
      let rec body_loop () =
        match lx.tok with
        | Punct '}' -> advance lx
        | Ident sub ->
          advance lx;
          let args =
            match lx.tok with
            | Punct '(' ->
              advance lx;
              let rec loop acc =
                let e = parse_param lx in
                match lx.tok with
                | Punct ',' ->
                  advance lx;
                  loop (e :: acc)
                | Punct ')' ->
                  advance lx;
                  List.rev (e :: acc)
                | _ -> error lx "expected , or ) in parameter list"
              in
              List.map angle_of_pexpr (loop [])
            | _ -> []
          in
          let kind =
            match Hashtbl.find_opt defs sub with
            | Some def -> instantiate lx sub def args
            | None -> gate_of_name lx sub args
          in
          let rec operands acc =
            let w = expect_ident lx in
            let q =
              match Hashtbl.find_opt wires w with
              | Some q -> q
              | None -> error lx (Printf.sprintf "unknown wire %s in gate body" w)
            in
            match lx.tok with
            | Punct ',' ->
              advance lx;
              operands (q :: acc)
            | Punct ';' ->
              advance lx;
              List.rev (q :: acc)
            | _ -> error lx "expected , or ; after wire"
          in
          let qs = operands [] in
          (* Gate.app validates arity and operand distinctness; surface
             its rejection as a positioned parse error, not a leaked
             Invalid_argument *)
          (try body := Gate.app kind qs :: !body
           with Invalid_argument msg -> error lx msg);
          body_loop ()
        | _ -> error lx "expected gate application or } in gate body"
      in
      body_loop ();
      Hashtbl.replace defs gname
        { formals; def_arity = Hashtbl.length wires; body = List.rev !body }
    | Ident gname ->
      advance lx;
      let args =
        match lx.tok with
        | Punct '(' ->
          advance lx;
          let rec loop acc =
            let e = parse_param lx in
            match lx.tok with
            | Punct ',' ->
              advance lx;
              loop (e :: acc)
            | Punct ')' ->
              advance lx;
              List.rev (e :: acc)
            | _ -> error lx "expected , or ) in parameter list"
          in
          List.map angle_of_pexpr (loop [])
        | _ -> []
      in
      let kind =
        match Hashtbl.find_opt defs gname with
        | Some def -> instantiate lx gname def args
        | None -> gate_of_name lx gname args
      in
      let rec operands acc =
        let q = resolve_qubit () in
        match lx.tok with
        | Punct ',' ->
          advance lx;
          operands (q :: acc)
        | Punct ';' ->
          advance lx;
          List.rev (q :: acc)
        | _ -> error lx "expected , or ; after qubit operand"
      in
      let qs = operands [] in
      (try gates := Gate.app kind qs :: !gates
       with Invalid_argument msg -> error lx msg)
    | _ -> error lx "expected statement"
  done;
  if !total_qubits = 0 then raise (Parse_error "no qreg declared");
  Circuit.make ~n_qubits:!total_qubits (List.rev !gates)

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse src

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let angle_to_qasm = function
  | Angle.Const f -> Printf.sprintf "%.12g" f
  | Angle.Sym s -> s
  | Angle.Scaled (s, k) -> Printf.sprintf "%.12g*%s" k s

let app_to_qasm (g : Gate.app) =
  let qs =
    String.concat "," (List.map (Printf.sprintf "q[%d]") g.Gate.qubits)
  in
  match Gate.params g.Gate.kind with
  | [] -> Printf.sprintf "%s %s;" (Gate.name g.Gate.kind) qs
  | ps ->
    Printf.sprintf "%s(%s) %s;" (Gate.name g.Gate.kind)
      (String.concat "," (List.map angle_to_qasm ps))
      qs

let to_qasm c =
  let c = Circuit.flatten c in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" c.Circuit.n_qubits);
  List.iter
    (fun g ->
      Buffer.add_string buf (app_to_qasm g);
      Buffer.add_char buf '\n')
    c.Circuit.gates;
  Buffer.contents buf
