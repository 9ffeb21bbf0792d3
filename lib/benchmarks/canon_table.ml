module Gen = Paqoc_pulse.Generator
module Cache = Paqoc_pulse.Cache

type row = {
  name : string;
  synthesized : int;
  hits : int;
  canonical_hits : int;
}

let hit_rate r =
  let consults = r.hits + r.synthesized in
  if consults = 0 then 0.0 else float_of_int r.hits /. float_of_int consults

let compute ?(jobs = 1) () =
  (* one shared cache across the suite in Table I order, as in a cold
     [compile-suite --canonical-cache]: each row's hits include
     cross-benchmark reuse. Deterministic at any [jobs] (the batch planner's
     serial-commit equivalence), so the golden needs no jobs caveat. *)
  let cache = Cache.create () in
  List.map
    (fun (e : Suite.entry) ->
      let gen = Gen.model_default () in
      Gen.set_shared_cache gen (Some cache);
      Gen.set_canonical gen true;
      let t = Suite.transpiled e in
      let s0 = Cache.stats cache in
      let r = Paqoc.compile ~jobs gen t.Paqoc_topology.Transpile.physical in
      let s1 = Cache.stats cache in
      { name = e.Suite.name;
        synthesized = r.Paqoc.pulses_generated;
        hits = s1.Cache.hits - s0.Cache.hits;
        canonical_hits = s1.Cache.canonical_hits - s0.Cache.canonical_hits
      })
    Suite.all

let header =
  "# paqoc golden canonical hit-rate table v1\n\
   # benchmark synthesized cache_hits canonical_hits hit_rate\n\
   # (cold shared-cache suite, --canonical-cache, model backend)\n\
   # regenerate with: make update-golden\n"

let render rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d %d %d %.4f\n" r.name r.synthesized r.hits
           r.canonical_hits (hit_rate r)))
    rows;
  Buffer.contents buf

let parse s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ name; synth; hits; canon; _rate ] -> (
           let int = Paqoc_obs.Scalar.int in
           match (int synth, int hits, int canon) with
           | Some synthesized, Some hits, Some canonical_hits ->
             { name; synthesized; hits; canonical_hits }
           | _ -> failwith ("Canon_table.parse: bad row " ^ l))
         | _ -> failwith ("Canon_table.parse: bad row " ^ l))
