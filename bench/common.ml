(* Shared machinery for the evaluation harness: scheme runs through
   Service.compile and plain-text table/series rendering. *)

module Circuit = Paqoc_circuit.Circuit
module Transpile = Paqoc_topology.Transpile
module Gen = Paqoc_pulse.Generator
module Protocol = Paqoc_pulse.Protocol
module Service = Paqoc_service.Service
module Suite = Paqoc_benchmarks.Suite

let schemes = Protocol.[ Acc3; Acc5; M0; Mtuned; Minf ]

let scheme_name = function
  | Protocol.Acc3 -> "accqoc_n3d3"
  | Protocol.Acc5 -> "accqoc_n3d5"
  | Protocol.M0 -> "paqoc(M=0)"
  | Protocol.Mtuned -> "paqoc(M=tuned)"
  | Protocol.Minf -> "paqoc(M=inf)"

(* One benchmark under one scheme on a rows x cols grid (default: the
   paper's 5x5 lattice). Every call compiles through a fresh generator,
   so compilation cost is measured from a cold pulse database, as the
   paper does. *)
let compile ?(rows = 5) ?(cols = 5) scheme name =
  Service.compile ~deadline:None
    { Protocol.default_compile with
      Protocol.circuit = Protocol.Benchmark name;
      scheme;
      rows;
      cols
    }

(* memoised sweep results: figs 10, 11, 12 and 14 share one sweep *)
let sweep_cache = Hashtbl.create 128

let sweep_run name scheme =
  match Hashtbl.find_opt sweep_cache (name, scheme) with
  | Some r -> r
  | None ->
    let r = (compile scheme name).Service.result in
    Hashtbl.replace sweep_cache (name, scheme) r;
    r

let benchmark_names = List.map (fun (e : Suite.entry) -> e.Suite.name) Suite.all

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let heading id title =
  Printf.printf "\n%s\n%s  %s\n%s\n"
    (String.make 78 '=') (String.uppercase_ascii id) title
    (String.make 78 '=')

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

let table ~columns ~rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left (fun w r -> max w (String.length (List.nth r i)))
          (String.length c) rows)
      columns
  in
  let print_row cells =
    let padded =
      List.map2 (fun w s -> Printf.sprintf "%-*s" w s) widths cells
    in
    Printf.printf "  %s\n" (String.concat "  " padded)
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  print_newline ()

let geomean values =
  match values with
  | [] -> nan
  | _ ->
    exp (List.fold_left (fun acc v -> acc +. log v) 0.0 values
         /. float_of_int (List.length values))

let mean values =
  match values with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
