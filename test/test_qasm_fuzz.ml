(* QASM robustness: seeded round-trip properties over random circuits and
   a malformed-input fuzz battery. The parser's contract is binary — a
   well-formed program round-trips exactly, anything else raises a typed
   [Parse_error] (never an unhandled exception, never a junk circuit). *)
open Test_util
module Qasm = Paqoc_circuit.Qasm

let roundtrip_props =
  [ qcheck
      (QCheck.Test.make ~count:60 ~name:"printed QASM re-parses equivalently"
         (arb_circuit ~n:3 ~max_gates:10 ())
         (fun c ->
           let c' = Qasm.parse (Qasm.to_qasm c) in
           Circuit.equivalent (Circuit.flatten c) (Circuit.flatten c')));
    qcheck
      (QCheck.Test.make ~count:60 ~name:"round trip preserves shape exactly"
         (arb_circuit ~n:4 ~max_gates:8 ())
         (fun c ->
           let c' = Qasm.parse (Qasm.to_qasm c) in
           c'.Circuit.n_qubits = c.Circuit.n_qubits
           && Circuit.n_gates (Circuit.flatten c')
              = Circuit.n_gates (Circuit.flatten c)));
    qcheck
      (QCheck.Test.make ~count:40 ~name:"printing is idempotent"
         (arb_circuit ~n:3 ~max_gates:8 ())
         (fun c ->
           let once = Qasm.to_qasm c in
           String.equal once (Qasm.parse once |> Qasm.to_qasm)))
  ]

(* Every entry must raise [Parse_error] — a crash with any other exception
   or a silent acceptance fails the case. *)
let malformed =
  [ ("unknown gate", "qreg q[2];\nbadgate q[0];");
    ("missing register", "h q[0];");
    ("qubit out of range", "qreg q[1];\ncx q[0],q[7];");
    ("negative register size", "qreg q[-2];\nh q[0];");
    ("unterminated parameter", "qreg q[1];\nrz(0.5 q[0];");
    ("garbage parameter", "qreg q[1];\nrz(0.5**) q[0];");
    ("duplicate operand", "qreg q[2];\ncx q[0],q[0];");
    ("arity mismatch", "qreg q[2];\ncx q[0];");
    ("stray characters", "qreg q[2];\nh q[0]; $$$");
    ("unclosed gate body", "gate foo a { h a;\nqreg q[1];\nfoo q[0];");
    ("empty register name", "qreg [2];\nh q[0];");
    ("binary junk", "\x00\x01\x02qreg q[1];");
    ("infinite angle literal", "qreg q[1];\nrx(1e999) q[0];");
    ("negative infinite angle literal", "qreg q[1];\nrx(-1e999) q[0];");
    ("angle divided by zero", "qreg q[1];\nrx(pi/0) q[0];");
    ("angle whose fold overflows", "qreg q[1];\nrx(1e308*10) q[0];")
  ]

let fuzz_cases =
  [ case "malformed programs raise typed parse errors" (fun () ->
        List.iter
          (fun (name, src) ->
            match Qasm.parse src with
            | _ -> Alcotest.failf "%s: accepted malformed input" name
            | exception Qasm.Parse_error msg ->
              check_true
                (Printf.sprintf "%s: error message non-empty" name)
                (String.length msg > 0)
            | exception e ->
              Alcotest.failf "%s: leaked %s instead of Parse_error" name
                (Printexc.to_string e))
          malformed);
    qcheck
      (QCheck.Test.make ~count:120
         ~name:"random line mutations never leak untyped exceptions"
         (* seeded mutation of a known-good program: truncate, splice or
            corrupt one position; the parser must accept or raise
            Parse_error, nothing else *)
         QCheck.(pair (int_bound 1000) (int_bound 2))
         (fun (seed, mode) ->
           let base =
             "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\nrz(pi/4) \
              q[2];\nccx q[0],q[1],q[2];\nmeasure q[0] -> c[0];\n"
           in
           let rng = Random.State.make [| seed; mode; 0xfa |] in
           let n = String.length base in
           let src =
             match mode with
             | 0 -> String.sub base 0 (Random.State.int rng n)
             | 1 ->
               let i = Random.State.int rng n in
               let ch = Char.chr (32 + Random.State.int rng 95) in
               String.mapi (fun j c -> if j = i then ch else c) base
             | _ ->
               let i = Random.State.int rng n in
               String.sub base 0 i ^ "rz(" ^ String.sub base i (n - i)
           in
           match Qasm.parse src with
           | _ -> true
           | exception Qasm.Parse_error _ -> true
           | exception _ -> false))
  ]

let suite = roundtrip_props @ fuzz_cases
