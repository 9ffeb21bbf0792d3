module V = Paqoc.Variational
module Gen = Paqoc_pulse.Generator
module Coupling = Paqoc_topology.Coupling
module Transpile = Paqoc_topology.Transpile

type row = {
  iter : int;
  latency : float;
  esp : float;
  interp : int;
  fallback : int;
  resynth : int;
}

let seed = 11
let iterations = 32
let anchors = 5

let compute () =
  (* a fresh plan per call: fallback adoption mutates plans, so sharing
     one across calls would make the table depend on compute order *)
  let e = Suite.sweep_find "qaoa" in
  let t =
    Transpile.run
      ~coupling:(Coupling.grid ~rows:5 ~cols:5)
      (e.Suite.sweep_build ())
  in
  let plan =
    V.freeze ~anchors (V.prepare t.Transpile.physical) (Gen.model_default ())
  in
  let sweep = V.sweep_angles ~seed ~n:iterations (V.plan_params plan) in
  let gen = Gen.model_default () in
  List.mapi
    (fun i angles ->
      let it = V.recompile plan gen ~angles in
      { iter = i;
        latency = it.V.latency;
        esp = it.V.esp;
        interp = it.V.interp;
        fallback = it.V.fallback;
        resynth = it.V.resynth
      })
    sweep

let header =
  "# paqoc golden sweep table v1\n\
   # iter latency_dt esp interp fallback resynth (qaoa sweep benchmark, \
   5x5 grid, model backend, seed 11, 5 anchors)\n\
   # regenerate with: make update-golden\n"

let render rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d %.17g %.17g %d %d %d\n" r.iter r.latency r.esp
           r.interp r.fallback r.resynth))
    rows;
  Buffer.contents buf

let parse s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ iter; lat; esp; interp; fallback; resynth ] -> (
           let int = Paqoc_obs.Scalar.int
           and float s = Result.to_option (Paqoc_obs.Scalar.float s) in
           match
             (int iter, float lat, float esp, int interp, int fallback,
              int resynth)
           with
           | ( Some iter,
               Some latency,
               Some esp,
               Some interp,
               Some fallback,
               Some resynth ) ->
             { iter; latency; esp; interp; fallback; resynth }
           | _ -> failwith ("Sweep_table.parse: bad row " ^ l))
         | _ -> failwith ("Sweep_table.parse: bad row " ^ l))
