(* BENCH_serve.json: the resident compile daemon under load.

   Stands up an in-process daemon (real socket, real frames, the
   Service compile handler, one shared cache) and drives all 17 Table I
   benchmarks through a client connection twice: cold (every pulse
   synthesized and published) and warm (every lookup answered by the
   cache). The headline numbers are warm requests/sec and the warm
   request-latency percentiles — the round-trip cost of asking a hot
   daemon for a compile it has already priced.

   The entry also carries the lazy-pool regression gate: the warm
   in-process suite at --jobs 4 must be no slower than --jobs 1 (±10%).
   Before worker domains were spawned lazily, an all-cache-hit compile
   paid for 4 idle domains (spawn + louder minor-GC stop-the-world) and
   lost exactly this comparison. The bench refuses to write an entry
   that fails the gate, a warm pass that synthesized anything, or a
   daemon row that is not byte-identical to the in-process one. *)

module Protocol = Paqoc_pulse.Protocol
module Server = Paqoc_pulse.Server
module Cache = Paqoc_pulse.Cache
module Service = Paqoc_service.Service
module Suite = Paqoc_benchmarks.Suite
module Clock = Paqoc_obs.Clock
module Json = Paqoc_obs.Json

type pass = {
  phase : string;  (** "cold" / "warm" *)
  wall_s : float;
  requests : int;
  requests_per_s : float;
  p50_ms : float;
  p95_ms : float;
  synthesized : int;
  cache_hits : int;
  cache_misses : int;
  hit_rate : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  let idx = max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)) in
  sorted.(idx)

let req_of (e : Suite.entry) =
  { Protocol.default_compile with
    Protocol.circuit = Protocol.Benchmark e.Suite.name
  }

let rpc_result fd req =
  match Server.rpc fd (Protocol.Compile req) with
  | Protocol.Result r -> r
  | Protocol.Refused e ->
    failwith ("daemon refused a bench request: " ^ Protocol.error_name e)
  | _ -> failwith "unexpected daemon response"

(* one serial client pass over the whole suite; returns the pass summary
   and the suite-table rows (for the byte-identity gate) *)
let run_pass ~phase fd =
  let t0 = Clock.now_s () in
  let per =
    List.map
      (fun (e : Suite.entry) ->
        let r0 = Clock.now_s () in
        let r = rpc_result fd (req_of e) in
        (e.Suite.name, r, Clock.now_s () -. r0))
      Suite.all
  in
  let wall = Clock.now_s () -. t0 in
  let lat =
    Array.of_list (List.map (fun (_, _, w) -> w *. 1000.0) per)
  in
  Array.sort compare lat;
  let sum f = List.fold_left (fun acc (_, r, _) -> acc + f r) 0 per in
  let hits = sum (fun r -> r.Protocol.cache_hits) in
  let misses = sum (fun r -> r.Protocol.cache_misses) in
  let n = List.length per in
  let p =
    { phase;
      wall_s = wall;
      requests = n;
      requests_per_s = float_of_int n /. wall;
      p50_ms = percentile lat 0.50;
      p95_ms = percentile lat 0.95;
      synthesized = sum (fun r -> r.Protocol.synthesized);
      cache_hits = hits;
      cache_misses = misses;
      hit_rate =
        (if hits + misses = 0 then 0.0
         else float_of_int hits /. float_of_int (hits + misses))
    }
  in
  Printf.printf
    "  %-4s wall %6.2f s  %6.1f req/s  p50 %7.2f ms  p95 %7.2f ms  \
     (%d synthesized, hit rate %.1f%%)\n\
     %!"
    phase p.wall_s p.requests_per_s p.p50_ms p.p95_ms p.synthesized
    (100.0 *. p.hit_rate);
  let rows =
    List.map (fun (name, r, _) -> Service.suite_row name r) per
  in
  (p, rows)

(* one warm in-process suite pass at a given --jobs; the cache is
   pre-warmed by the caller. [Gc.full_major] first so every timed pass
   starts from the same heap state — otherwise whichever jobs setting
   is measured later inherits the larger heap and loses on GC time, not
   on anything the pool did. *)
let warm_suite_pass ~jobs cache =
  Gc.full_major ();
  let t0 = Clock.now_s () in
  List.iter
    (fun (e : Suite.entry) ->
      let r =
        Service.handle ~cache ~deadline:None { (req_of e) with Protocol.jobs }
      in
      if r.Protocol.synthesized > 0 then
        failwith
          (Printf.sprintf "warm pass synthesized %d pulses on %s"
             r.Protocol.synthesized e.Suite.name))
    Suite.all;
  Clock.now_s () -. t0

(* best-of-[tries] for both jobs settings, interleaved j1/j4/j1/j4 so
   slow drift (heap growth, machine load) hits both sides equally *)
let warm_suite_walls ~tries cache =
  let j1 = ref infinity and j4 = ref infinity in
  for _ = 1 to tries do
    j1 := Float.min !j1 (warm_suite_pass ~jobs:1 cache);
    j4 := Float.min !j4 (warm_suite_pass ~jobs:4 cache)
  done;
  (!j1, !j4)

let pass_json (p : pass) =
  Json.Obj
    [ ("phase", Json.Str p.phase);
      ("wall_s", Json.Num p.wall_s);
      ("requests", Json.int p.requests);
      ("requests_per_s", Json.Num p.requests_per_s);
      ("p50_ms", Json.Num p.p50_ms);
      ("p95_ms", Json.Num p.p95_ms);
      ("synthesized", Json.int p.synthesized);
      ("cache_hits", Json.int p.cache_hits);
      ("cache_misses", Json.int p.cache_misses);
      ("hit_rate", Json.Num p.hit_rate)
    ]

let run_bench_serve ?(path = "BENCH_serve.json") () =
  Printf.printf
    "\n%s\nSERVE  resident daemon, 17-benchmark suite over the wire\n%s\n"
    (String.make 78 '=') (String.make 78 '=');
  let socket_path = Filename.temp_file "paqoc_bench_serve" ".sock" in
  Sys.remove socket_path;
  let cache = Cache.create () in
  let config =
    { (Server.default_config ~socket_path) with Server.jobs = 2 }
  in
  let server = Server.create ~cache config (Service.handler ~cache ()) in
  let thread = Thread.create Server.run server in
  let cold, warm, warm_rows =
    Fun.protect
      ~finally:(fun () ->
        Server.request_stop server;
        Thread.join thread;
        if Sys.file_exists socket_path then Sys.remove socket_path)
      (fun () ->
        Server.with_connection socket_path (fun fd ->
            let cold, _ = run_pass ~phase:"cold" fd in
            let warm, warm_rows = run_pass ~phase:"warm" fd in
            (cold, warm, warm_rows)))
  in
  if warm.synthesized > 0 then
    failwith
      (Printf.sprintf
         "warm daemon pass synthesized %d pulses — refusing to write %s"
         warm.synthesized path);
  (* byte-identity gate: a fresh in-process warm pass over its own cache
     must print exactly the daemon's rows *)
  let local_cache = Cache.create () in
  let local_row (e : Suite.entry) =
    Service.suite_row e.Suite.name
      (Service.handle ~cache:local_cache ~deadline:None (req_of e))
  in
  ignore (List.map local_row Suite.all) (* cold: populate *);
  let local_rows = List.map local_row Suite.all in
  List.iter2
    (fun daemon local ->
      if not (String.equal daemon local) then
        failwith
          (Printf.sprintf
             "daemon row diverges from in-process:\n  daemon: %s  local:  \
              %s— refusing to write %s"
             daemon local path))
    warm_rows local_rows;
  (* lazy-pool regression gate: a warm all-cache-hit suite must not pay
     for idle worker domains *)
  let jobs1, jobs4 = warm_suite_walls ~tries:3 local_cache in
  let ratio = jobs4 /. jobs1 in
  Printf.printf
    "  warm suite: jobs=1 %.3f s, jobs=4 %.3f s  (ratio %.2fx, gate 1.10x)\n%!"
    jobs1 jobs4 ratio;
  if ratio > 1.1 then
    failwith
      (Printf.sprintf
         "warm --jobs 4 suite is %.2fx the --jobs 1 wall (budget 1.10x) — \
          idle worker domains are being paid for again; refusing to write %s"
         ratio path);
  Common.write_entry path ~bench:"serve"
    [ ("benchmarks", Json.int (List.length Suite.all));
      ("runs", Json.Arr [ pass_json cold; pass_json warm ]);
      ("warm_jobs1_wall_s", Json.Num jobs1);
      ("warm_jobs4_wall_s", Json.Num jobs4);
      ("warm_jobs_ratio", Json.Num ratio);
      ("byte_identical", Json.Bool true)
    ]
