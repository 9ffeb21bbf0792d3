(* One mutation harness for every reader of an input format.

   A reader is a parser whose failures are values, a printer, and a
   function that finds the numbers the parser reads in a document. Over
   seed documents the harness checks three properties:

   - totality: every truncation, every single-byte deletion, every
     single-byte substitution from the reader's alphabet and a seeded
     set of multi-byte edits parses or fails with a typed error; an
     exception is a finding;
   - non-finite refusal: every number the reader reads, replaced by
     [inf], [-inf], [nan] or [1e999], is refused;
   - print after parse: a seed printed after parsing is the seed, byte
     for byte (so seeds are written in the printer's canonical form).

   Each property costs one parse per mutant, about (2 + |alphabet|) x
   the seed's length for totality, so seeds under about 1 KB keep a
   reader's cases fast. *)

type 'a reader = {
  name : string;
  parse : string -> ('a, string) result;
  print : 'a -> string;
  numbers : string -> (int * int) list;
      (** the [(offset, length)] of every number [parse] reads in a
          document *)
  alphabet : string;  (** the substitution bytes *)
}

(* JSON's significant bytes, and a few that are not *)
let json_alphabet = "{}[]\",:\\-+.0129eEtfnx \000\255"

(* the line formats' delimiters, record tags and number spellings *)
let line_alphabet =
  " \n\000\255()@,;:|{}!=+-._#/*0129eEpxinaf\"KSCQPVNRMAOWqv"

let non_finite = [ "inf"; "-inf"; "nan"; "1e999" ]

let show doc =
  let s = Printf.sprintf "%S" doc in
  if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let attempt r doc =
  match r.parse doc with
  | v -> v
  | exception e ->
    Alcotest.failf "%s: parsing %s raised %s" r.name (show doc)
      (Printexc.to_string e)

(* [total r doc] is true when parsing [doc] returns, with either
   outcome; the QASM fuzzer's random property asks it. *)
let total r doc =
  match r.parse doc with _ -> true | exception _ -> false

let check_total r seeds =
  let rng = Random.State.make [| 17 |] in
  let try_doc doc = ignore (attempt r doc) in
  let alpha = r.alphabet in
  List.iter
    (fun s ->
      let n = String.length s in
      let b = Bytes.of_string s in
      for k = 0 to n - 1 do
        try_doc (String.sub s 0 k);
        try_doc (String.sub s 0 k ^ String.sub s (k + 1) (n - k - 1));
        String.iter
          (fun c ->
            Bytes.set b k c;
            try_doc (Bytes.to_string b))
          alpha;
        Bytes.set b k s.[k]
      done;
      for _ = 1 to 200 do
        let b = Bytes.of_string s in
        for _ = 1 to 1 + Random.State.int rng 4 do
          Bytes.set b (Random.State.int rng n)
            alpha.[Random.State.int rng (String.length alpha)]
        done;
        try_doc (Bytes.to_string b)
      done)
    seeds

let check_non_finite r seeds =
  if List.for_all (fun s -> r.numbers s = []) seeds then
    Alcotest.failf "%s: the seeds hold no number" r.name;
  List.iter
    (fun s ->
      List.iter
        (fun (off, len) ->
          let before = String.sub s 0 off
          and after = String.sub s (off + len) (String.length s - off - len) in
          List.iter
            (fun v ->
              let doc = before ^ v ^ after in
              match attempt r doc with
              | Error _ -> ()
              | Ok _ ->
                Alcotest.failf "%s: %S in place of %S was read: %s" r.name v
                  (String.sub s off len) (show doc))
            non_finite)
        (r.numbers s))
    seeds

let check_print_parse r seeds =
  List.iter
    (fun s ->
      match attempt r s with
      | Error e -> Alcotest.failf "%s: a seed was refused: %s" r.name e
      | Ok v ->
        let printed = r.print v in
        if not (String.equal printed s) then
          Alcotest.failf "%s: printing a parsed seed gave %s, not %s" r.name
            (show printed) (show s))
    seeds

let check r seeds =
  check_print_parse r seeds;
  check_non_finite r seeds;
  check_total r seeds

(* ---- finding numbers ---- *)

(* [tokens ~sep s ~off ~len] is the [(offset, length)] of every maximal
   run of bytes not in [sep] within [s]'s [off, off + len) *)
let tokens ~sep s ~off ~len =
  let stop = off + len in
  let rec go i acc =
    if i >= stop then List.rev acc
    else if String.contains sep s.[i] then go (i + 1) acc
    else
      let j = ref i in
      while !j < stop && not (String.contains sep s.[!j]) do
        incr j
      done;
      go !j ((i, !j - i) :: acc)
  in
  go off []

(* the [(offset, length)] of each line, newline excluded *)
let lines s = tokens ~sep:"\n" s ~off:0 ~len:(String.length s)

let reads_as_number s (off, len) =
  Option.is_some (float_of_string_opt (String.sub s off len))

(* every JSON number token outside strings *)
let json_numbers s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | '"' ->
        let j = ref (i + 1) in
        while !j < n && s.[!j] <> '"' do
          if s.[!j] = '\\' then incr j;
          incr j
        done;
        go (!j + 1) acc
      | '-' | '0' .. '9' ->
        let j = ref i in
        while
          !j < n
          && match s.[!j] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr j
        done;
        go !j ((i, !j - i) :: acc)
      | _ -> go (i + 1) acc
  in
  go 0 []
