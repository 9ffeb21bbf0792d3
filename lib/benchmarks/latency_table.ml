module Gen = Paqoc_pulse.Generator

type row = { name : string; latency : float; n_groups : int }

let compute ?(jobs = 1) () =
  List.map
    (fun (e : Suite.entry) ->
      (* a fresh generator per benchmark: rows must not depend on the
         compile order through shared pulse-database state *)
      let gen = Gen.model_default () in
      let t = Suite.transpiled e in
      let r = Paqoc.compile ~jobs gen t.Paqoc_topology.Transpile.physical in
      { name = e.Suite.name;
        latency = r.Paqoc.latency;
        n_groups = r.Paqoc.n_groups
      })
    Suite.all

let header =
  "# paqoc golden latency table v1\n\
   # benchmark latency_dt pulse_episodes (paqoc-m0, 5x5 grid, model backend)\n\
   # regenerate with: make update-golden\n"

let render rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s %.17g %d\n" r.name r.latency r.n_groups))
    rows;
  Buffer.contents buf

let parse s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ name; lat; groups ] -> (
           match (Paqoc_obs.Scalar.float lat, Paqoc_obs.Scalar.int groups) with
           | Ok latency, Some n_groups -> { name; latency; n_groups }
           | _ -> failwith ("Latency_table.parse: bad row " ^ l))
         | _ -> failwith ("Latency_table.parse: bad row " ^ l))
