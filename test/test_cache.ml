(* The shared cross-run pulse cache: one table lock, journaled persistence,
   crash-safe tail replay, v1/v2 migration, fault-injected appends, and
   the generator/compile integration (cold-vs-warm byte identity). *)
open Test_util
module Cache = Paqoc_pulse.Cache
module Db = Paqoc_pulse.Db_format
module Gen = Paqoc_pulse.Generator
module Faultin = Paqoc_pulse.Faultin
module Suite = Paqoc_benchmarks.Suite
module Canon = Paqoc_canon.Canon

let entry ?(provenance = Db.Synthesized) lat =
  { Cache.latency = lat; error = 0.001; fidelity = 0.999; provenance }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let with_tmp f =
  let path = Filename.temp_file "paqoc_cache" ".db" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let suite =
  [ case "publish, find, probe; duplicate publish is a no-op" (fun () ->
        let c = Cache.create () in
        Cache.publish c "k1" (entry 50.0);
        Cache.publish c "k1" (entry 999.0);
        (match Cache.find c "k1" with
        | Some e -> check_float "first publish wins" 50.0 e.Cache.latency
        | None -> Alcotest.fail "k1 not found");
        check_true "probe sees it too" (Cache.probe c "k1" <> None);
        check_true "missing key misses" (Cache.find c "nope" = None);
        Cache.publish_shape c "s1";
        Cache.publish_shape c "s1";
        check_true "shape present" (Cache.mem_shape c "s1");
        check_int "one entry" 1 (Cache.size c);
        check_int "one shape" 1 (Cache.n_shapes c);
        let s = Cache.stats c in
        check_int "hits" 1 s.Cache.hits;
        check_int "misses" 1 s.Cache.misses;
        check_int "publishes (dup not counted)" 1 s.Cache.publishes;
        (* probe must not count *)
        check_int "probe did not count a hit" 1 (Cache.stats c).Cache.hits);
    case "in-memory cache has no path and compacts as a no-op" (fun () ->
        let c = Cache.create () in
        check_true "no backing file" (Cache.path c = None);
        Cache.compact c;
        Cache.close c;
        check_int "no compactions" 0 (Cache.stats c).Cache.compactions);
    case "persistence round trip through close/reopen" (fun () ->
        with_tmp @@ fun path ->
        Cache.with_file path (fun c ->
            Cache.publish c "2;cx@0,1" (entry 96.0);
            Cache.publish c "3;cx@0,1;cx@1,2"
              (entry ~provenance:Db.Fallback 200.0);
            Cache.publish_shape c "2;cx@0,1");
        let bytes = read_file path in
        check_true "v3 header"
          (String.length bytes > 17
          && String.sub bytes 0 17 = "paqoc-pulse-db v3");
        check_true "closed file is fully compacted (no journal lines)"
          (not (String.exists (fun ch -> ch = '+') bytes));
        Cache.with_file path (fun c ->
            check_int "entries survive" 2 (Cache.size c);
            check_true "shape survives" (Cache.mem_shape c "2;cx@0,1");
            match Cache.find c "3;cx@0,1;cx@1,2" with
            | Some e ->
              check_true "fallback provenance survives"
                (e.Cache.provenance = Db.Fallback)
            | None -> Alcotest.fail "entry lost"));
    case "unclosed journal (simulated crash) replays on reopen" (fun () ->
        with_tmp @@ fun path ->
        let c1 = Cache.open_file path in
        Cache.publish c1 "2;cx@0,1" (entry 96.0);
        Cache.publish_shape c1 "2;cx@0,1";
        (* no close: the records live only as journal appends *)
        let bytes = read_file path in
        check_true "journal records on disk"
          (String.length bytes > 0
          &&
          match Db.parse_string bytes with
          | Ok c -> List.length c.Db.journal = 2 && c.Db.snapshot = []
          | Error _ -> false);
        Cache.with_file path (fun c2 ->
            check_int "replayed entry" 1 (Cache.size c2);
            check_true "replayed shape" (Cache.mem_shape c2 "2;cx@0,1")));
    case "torn journal tail is dropped and truncated away" (fun () ->
        with_tmp @@ fun path ->
        let good = Db.journal_line (Db.Priced ("2;cx@0,1", entry 96.0)) in
        let torn = "+K 50 0.001 0.999 q 2;h@0" (* no trailing newline *) in
        write_file path
          ("paqoc-pulse-db v3\nK 40 0.001 0.999 q 1;h@0\n" ^ good ^ "\n"
         ^ torn);
        Cache.with_file path (fun c ->
            check_int "torn record dropped" 2 (Cache.size c);
            check_true "snapshot record kept" (Cache.probe c "1;h@0" <> None);
            check_true "complete journal record kept"
              (Cache.probe c "2;cx@0,1" <> None);
            check_true "torn record not replayed"
              (Cache.probe c "2;h@0" = None);
            (* the tail must be gone from disk before new appends land *)
            let bytes = read_file path in
            check_true "file truncated to a record boundary"
              (String.length bytes > 0
              && bytes.[String.length bytes - 1] = '\n');
            Cache.publish c "3;cx@0,1;cx@1,2" (entry 150.0));
        Cache.with_file path (fun c ->
            check_int "clean tail accepts appends" 3 (Cache.size c)));
    case "compact bytes equal a fresh snapshot save" (fun () ->
        with_tmp @@ fun path ->
        with_tmp @@ fun snap ->
        let c = Cache.open_file path in
        List.iter
          (fun i -> Cache.publish c (Printf.sprintf "2;rz%d@0" i) (entry 10.0))
          [ 5; 3; 9; 1 ];
        Cache.publish_shape c "2;rz@0";
        Cache.save c snap;
        Cache.compact c;
        check_true "compacted file is byte-identical to save"
          (String.equal (read_file path) (read_file snap));
        check_int "compaction counted" 1 (Cache.stats c).Cache.compactions;
        Cache.close c);
    case "auto-compaction fires at compact_every appends" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file path in
        (* compact_every is 256 *)
        List.iter
          (fun i -> Cache.publish c (Printf.sprintf "1;h@%d" i) (entry 40.0))
          (List.init 256 Fun.id);
        check_true "journal folded into the snapshot"
          (not (String.exists (fun ch -> ch = '+') (read_file path)));
        check_true "compaction counted"
          ((Cache.stats c).Cache.compactions >= 1);
        Cache.close c);
    case "v1 and v2 snapshots migrate to v3 on open" (fun () ->
        with_tmp @@ fun path ->
        write_file path "paqoc-pulse-db v1\nK 96 0.001 0.999 2;cx@0,1\nS 2;cx@0,1\n";
        Cache.with_file path (fun c ->
            check_int "v1 entry loaded" 1 (Cache.size c);
            match Cache.find c "2;cx@0,1" with
            | Some e ->
              check_true "v1 entries default to synthesized"
                (e.Cache.provenance = Db.Synthesized)
            | None -> Alcotest.fail "v1 entry lost");
        check_true "file migrated to v3"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v3");
        write_file path
          "paqoc-pulse-db v2\nK 96 0.001 0.999 f 2;cx@0,1\nS 2;cx@0,1\n";
        Cache.with_file path (fun c ->
            match Cache.find c "2;cx@0,1" with
            | Some e ->
              check_true "v2 provenance preserved through migration"
                (e.Cache.provenance = Db.Fallback)
            | None -> Alcotest.fail "v2 entry lost");
        check_true "file migrated to v3"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v3"));
    case "malformed cache files fail loudly" (fun () ->
        with_tmp @@ fun path ->
        write_file path "not a pulse db\n";
        check_true "bad header raises"
          (try
             ignore (Cache.open_file path);
             false
           with Failure msg -> String.length msg > 0);
        write_file path "paqoc-pulse-db v2\nK 96 bogus 0.999 q k\n";
        check_true "bad number raises"
          (try
             ignore (Cache.open_file path);
             false
           with Failure _ -> true);
        write_file path "paqoc-pulse-db v2\n+K 96 0.001 0.999 q k\n";
        check_true "journal record in a snapshot file raises"
          (try
             ignore (Cache.open_file path);
             false
           with Failure _ -> true));
    case "injected journal-append fault never tears the file" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file path in
        Cache.publish c "1;h@0" (entry 40.0);
        let before = read_file path in
        Faultin.with_faults
          [ (Faultin.Journal_append_error, Faultin.First 1) ]
          (fun () ->
            check_true "publish surfaces the failure"
              (try
                 Cache.publish c "2;cx@0,1" (entry 96.0);
                 false
               with Failure msg ->
                 check_true "message names the path"
                   (String.length msg > String.length path);
                 true));
        check_true "file rolled back to the pre-append bytes"
          (String.equal before (read_file path));
        check_true "in-memory entry survives the failed append"
          (Cache.probe c "2;cx@0,1" <> None);
        (* the failed append counts as pending work, so close compacts the
           orphaned entry onto disk *)
        Cache.close c;
        Cache.with_file path (fun c2 ->
            check_int "orphaned entry persisted by close" 2 (Cache.size c2)));
    case "publish on a closed persistent cache raises" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file path in
        Cache.close c;
        Cache.close c (* idempotent *);
        check_true "publish after close raises"
          (try
             Cache.publish c "1;h@0" (entry 40.0);
             false
           with Failure _ -> true));
    slow_case "stripe-striped publishes race safely across 4 domains"
      (fun () ->
        (* the tables have one lock; the name is kept so the case keeps
           its identity *)
        with_tmp @@ fun path ->
        (* every domain publishes an overlapping window of keys through a
           journaled cache; 650 distinct keys cross the 256-append
           compaction point twice, so appends, compactions and duplicate
           publishes all interleave *)
        let c = Cache.open_file path in
        let per_domain = 200 and overlap = 50 in
        let worker d () =
          for i = 0 to per_domain - 1 do
            let k =
              Printf.sprintf "1;rz%d@0" ((d * (per_domain - overlap)) + i)
            in
            Cache.publish c k (entry (float_of_int (40 + (i mod 7))));
            ignore (Cache.find c k)
          done
        in
        let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
        List.iter Domain.join domains;
        let distinct = (3 * (per_domain - overlap)) + per_domain in
        check_int "every distinct key present exactly once" distinct
          (Cache.size c);
        let s = Cache.stats c in
        check_int "duplicate publishes were no-ops" distinct
          s.Cache.publishes;
        check_int "every post-publish find hit" (4 * per_domain)
          s.Cache.hits;
        Cache.close c;
        Cache.with_file path (fun c2 ->
            check_int "reopened contents match" distinct (Cache.size c2)));
    case "generator consults and fills the shared cache" (fun () ->
        let cache = Cache.create () in
        let g =
          fst
            (Gen.group_of_apps
               [ Gate.app2 Gate.CX 0 1;
                 Gate.app1 (Gate.RZ (Angle.const 0.4)) 1
               ])
        in
        let gen1 = Gen.model_default () in
        Gen.set_shared_cache gen1 (Some cache);
        let o1 = Gen.generate gen1 g in
        check_int "first generator synthesized" 1 (Gen.pulses_generated gen1);
        check_true "published to the shared cache"
          ((Cache.stats cache).Cache.publishes > 0);
        let gen2 = Gen.model_default () in
        Gen.set_shared_cache gen2 (Some cache);
        let o2 = Gen.generate gen2 g in
        check_int "second generator synthesized nothing" 0
          (Gen.pulses_generated gen2);
        check_int "it hit instead" 1 (Gen.cache_hits gen2);
        check_float "same latency" o1.Gen.latency o2.Gen.latency;
        check_float "same error" o1.Gen.error o2.Gen.error;
        check_true "marked as a cache hit" o2.Gen.cache_hit);
    case "fallback outcomes are never published" (fun () ->
        let cache = Cache.create () in
        let gen = Gen.model_default ~retry:{ Gen.default_retry with
                                             Gen.max_attempts = 1 } () in
        Gen.set_shared_cache gen (Some cache);
        let g =
          fst
            (Gen.group_of_apps
               [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ])
        in
        Faultin.with_faults
          [ (Faultin.Grape_diverge, Faultin.Always) ]
          (fun () ->
            let o = Gen.generate gen g in
            check_true "degraded to fallback"
              (o.Gen.provenance = Gen.Fallback));
        check_int "nothing published" 0 (Cache.stats cache).Cache.publishes;
        check_int "cache stays empty" 0 (Cache.size cache));
    case "load_database accepts the v3 journal format" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file path in
        Cache.publish c "2;cx@0,1" (entry 96.0);
        Cache.publish_shape c "2;cx@0,1";
        (* leave the journal unfolded: load must replay it like the cache *)
        let gen = Gen.model_default () in
        Gen.load_database gen path;
        check_int "v3 journal entries load" 1 (Gen.database_size gen);
        Cache.close c);
    slow_case "cold compile through an empty cache is byte-identical"
      (fun () ->
        let physical =
          (Suite.transpiled (Suite.find "simon"))
            .Paqoc_topology.Transpile.physical
        in
        let save gen =
          let path = Filename.temp_file "paqoc_cache_db" ".txt" in
          Gen.save_database gen path;
          let s = read_file path in
          Sys.remove path;
          s
        in
        (* baseline: no cache anywhere *)
        let gen0 = Gen.model_default () in
        let r0 = Paqoc.compile gen0 physical in
        let bytes0 = save gen0 in
        with_tmp @@ fun path ->
        (* cold: same compile through a fresh (empty) journaled cache *)
        let r1, bytes1, r2, bytes2 =
          Cache.with_file path (fun cache ->
              let gen1 = Gen.model_default () in
              let r1 = Paqoc.compile (attached cache gen1) physical in
              let b1 = save gen1 in
              (* warm: a fresh generator over the now-full cache *)
              let gen2 = Gen.model_default () in
              let r2 = Paqoc.compile (attached cache gen2) physical in
              (r1, b1, r2, save gen2))
        in
        check_true "cold run output is byte-identical to no-cache"
          (String.equal bytes0 bytes1);
        check_float "cold latency unchanged" r0.Paqoc.latency r1.Paqoc.latency;
        check_float "cold ESP unchanged" r0.Paqoc.esp r1.Paqoc.esp;
        check_int "warm run synthesized nothing" 0 r2.Paqoc.pulses_generated;
        check_float "warm latency identical" r0.Paqoc.latency
          r2.Paqoc.latency;
        check_true "warm database is byte-identical too"
          (String.equal bytes0 bytes2));
    case "v4 class records persist and reload" (fun () ->
        with_tmp @@ fun path ->
        let h = Canon.unitary_to_floats (Gate.unitary Gate.H) in
        Cache.with_file path (fun c ->
            Cache.publish c "1;h@0" (entry 40.0);
            Cache.publish_class c
              { Db.class_key = "1q:1570796"; n_qubits = 1; unitary = h;
                rep_key = "1;h@0" };
            check_int "one class held" 1 (Cache.n_classes c));
        check_true "file upgraded to v4"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v4");
        Cache.with_file path (fun c ->
            check_int "class survives reopen" 1 (Cache.n_classes c);
            match Cache.probe_class c "1q:1570796" with
            | None -> Alcotest.fail "class record lost"
            | Some ci ->
              check_true "rep key survives" (ci.Db.rep_key = "1;h@0");
              check_int "unitary floats survive" (Array.length h)
                (Array.length ci.Db.unitary);
              check_true "floats roundtrip exactly"
                (Array.for_all2 ( = ) h ci.Db.unitary)));
    case "first class publish upgrades a v3 file in place" (fun () ->
        with_tmp @@ fun path ->
        Cache.with_file path (fun c -> Cache.publish c "1;h@0" (entry 40.0));
        check_true "starts as v3"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v3");
        Cache.with_file path (fun c ->
            Cache.publish_class c
              { Db.class_key = "1q:0"; n_qubits = 1;
                unitary = Canon.unitary_to_floats (Cmat.identity 2);
                rep_key = "1;h@0" };
            (* the upgrade is a compaction, visible before close *)
            check_true "v4 header already on disk"
              (String.sub (read_file path) 0 17 = "paqoc-pulse-db v4");
            (* a duplicate class key is a no-op: first publisher wins *)
            Cache.publish_class c
              { Db.class_key = "1q:0"; n_qubits = 1;
                unitary = Canon.unitary_to_floats (Cmat.identity 2);
                rep_key = "9;other" };
            check_int "duplicate not recorded" 1 (Cache.n_classes c);
            match Cache.probe_class c "1q:0" with
            | Some ci -> check_true "first rep kept" (ci.Db.rep_key = "1;h@0")
            | None -> Alcotest.fail "class lost"));
    case "malformed class sections load as typed errors" (fun () ->
        with_tmp @@ fun path ->
        let expect_error want body =
          write_file path body;
          try
            ignore (Cache.open_file path);
            Alcotest.failf "expected failure %S" want
          with Failure msg ->
            check_true
              (Printf.sprintf "%S mentions %S" msg want)
              (contains msg want)
        in
        expect_error "class record in a pre-v4 file"
          "paqoc-pulse-db v3\nC 1q:0 1 1 0 0 0 0 0 1 0 k\n";
        expect_error "bad class arity"
          "paqoc-pulse-db v4\nC 1q:0 nine 1 0 0 0 0 0 1 0 k\n";
        expect_error "bad class arity"
          "paqoc-pulse-db v4\nC 1q:0 7 1 0 0 0 0 0 1 0 k\n";
        expect_error "bad class float"
          "paqoc-pulse-db v4\nC 1q:0 1 1 0 bogus 0 0 0 1 0 k\n";
        expect_error "truncated class record"
          "paqoc-pulse-db v4\nC 1q:0 1 1 0 0 0\n";
        expect_error "bad C line" "paqoc-pulse-db v4\nC 2q:0\n");
    case "v4 snapshots round-trip byte-stably" (fun () ->
        with_tmp @@ fun path ->
        Cache.with_file path (fun c ->
            Cache.publish c "2;cx@0,1" (entry 96.0);
            Cache.publish c "2;cz@0,1" (entry 96.0);
            Cache.publish_shape c "2;cx@0,1";
            Cache.publish_class c
              { Db.class_key = "2q:0:0:1000000:0"; n_qubits = 2;
                unitary = Canon.unitary_to_floats (Gate.unitary Gate.CX);
                rep_key = "2;cx@0,1" });
        let bytes1 = read_file path in
        check_true "v4 header" (String.sub bytes1 0 17 = "paqoc-pulse-db v4");
        (* open/close with no writes must not move a byte *)
        Cache.with_file path (fun c ->
            check_int "classes loaded" 1 (Cache.n_classes c));
        check_true "reopen/close is byte-stable"
          (String.equal bytes1 (read_file path));
        (* and a fresh save of the loaded contents reproduces the bytes *)
        with_tmp @@ fun snap ->
        Cache.with_file path (fun c -> Cache.save c snap);
        check_true "save reproduces the snapshot bytes"
          (String.equal bytes1 (read_file snap)));
    case "note_consult drives the same counters" (fun () ->
        let c = Cache.create () in
        Cache.note_consult c `Hit;
        Cache.note_consult c `Canonical_hit;
        Cache.note_consult c `Miss;
        let s = Cache.stats c in
        check_int "two hits" 2 s.Cache.hits;
        check_int "one canonical" 1 s.Cache.canonical_hits;
        check_int "one miss" 1 s.Cache.misses);
    slow_case "canonical compile publishes classes; off mode stays v3"
      (fun () ->
        let physical =
          (Suite.transpiled (Suite.find "bb84"))
            .Paqoc_topology.Transpile.physical
        in
        with_tmp @@ fun off_path ->
        Cache.with_file off_path (fun cache ->
            let gen = Gen.model_default () in
            ignore (Paqoc.compile (attached cache gen) physical);
            check_int "off mode records no classes" 0 (Cache.n_classes cache);
            check_int "off mode scores no canonical hits" 0
              (Cache.stats cache).Cache.canonical_hits);
        let off = read_file off_path in
        check_true "off mode file stays v3"
          (String.sub off 0 17 = "paqoc-pulse-db v3");
        with_tmp @@ fun on_path ->
        Cache.with_file on_path (fun cache ->
            let gen = Gen.model_default () in
            ignore
              (Paqoc.compile (attached ~canonical:true cache gen) physical);
            check_true "classes published" (Cache.n_classes cache > 0);
            check_true "in-batch class-mates replayed"
              ((Cache.stats cache).Cache.canonical_hits > 0));
        check_true "canonical file is v4"
          (String.sub (read_file on_path) 0 17 = "paqoc-pulse-db v4"));
    case "a generator saves the pinned v2 bytes" (fun () ->
        (* absolute bytes, not a comparison of two saves: two groups
           sharing one shape on the model backend, as every earlier
           version of the v2 writer printed them *)
        let expected =
          "paqoc-pulse-db v2\n\
           K 98 0.0079285903825677267 0.99207140961743223 q \
           2;rx(0.5)@0;cx@0,1\n\
           K 94 0.0077650967329922736 0.9922349032670077 q \
           2;rx(1.25)@0;cx@0,1\n\
           S 2;rx@0;cx@0,1\n"
        in
        let gen = Gen.model_default () in
        List.iter
          (fun theta ->
            ignore
              (Gen.generate gen
                 (fst
                    (Gen.group_of_apps
                       [ Gate.app1 (Gate.RX (Angle.const theta)) 0;
                         Gate.app2 Gate.CX 0 1
                       ]))))
          [ 0.5; 1.25 ];
        with_tmp (fun path ->
            Gen.save_database gen path;
            Alcotest.check Alcotest.string "v2 bytes" expected
              (read_file path)));
    case "one batch reaches every outcome of the shared consult" (fun () ->
        (* a canonical generator's planner consults the shared cache
           through probe / probe_class and scores each consult with one
           note_consult: exact hit, class hit, in-batch class-mate,
           failed relate, dangling class record, plain miss *)
        let group apps = fst (Gen.group_of_apps apps) in
        let rx theta = Gate.RX (Angle.const theta) in
        let h = group [ Gate.app1 Gate.H 0 ]
        and sx = group [ Gate.app1 Gate.SX 0 ]
        and cx = group [ Gate.app2 Gate.CX 0 1 ]
        and cz = group [ Gate.app2 Gate.CZ 0 1 ]
        and unrelated = group [ Gate.app1 (rx 0.7) 0 ]
        and dangling = group [ Gate.app1 (rx 1.1) 0 ]
        and x = group [ Gate.app1 Gate.X 0 ] in
        let class_of (g : Gen.group) =
          match Canon.class_key ~n_qubits:g.Gen.n_qubits g.Gen.gates with
          | Some (ck, _) -> ck
          | None -> Alcotest.fail "group has no class key"
        in
        check_true "SX is H's class-mate" (class_of sx = class_of h);
        check_true "CZ is CX's class-mate" (class_of cz = class_of cx);
        let record g u rep_key =
          { Db.class_key = class_of g; n_qubits = 1;
            unitary = Canon.unitary_to_floats u; rep_key }
        in
        let cache = Cache.create () in
        Cache.publish cache (Gen.key h) (entry 40.0);
        Cache.publish_class cache
          (record h (Gate.unitary Gate.H) (Gen.key h));
        (* RX(0.7)'s class, holding X's unitary: no virtual-Z correction
           turns X into RX(0.7) *)
        Cache.publish cache "1;rep@0" (entry 30.0);
        Cache.publish_class cache
          (record unrelated (Gate.unitary Gate.X) "1;rep@0");
        (* RX(1.1)'s class, whose representative entry is missing *)
        Cache.publish_class cache
          (record dangling (Gate.unitary (rx 1.1)) "1;gone@0");
        let gen = Gen.model_default () in
        Gen.set_shared_cache gen (Some cache);
        Gen.set_canonical gen true;
        let outcomes =
          Gen.generate_batch gen [ h; sx; cx; cz; unrelated; dangling; x ]
        in
        let s = Cache.stats cache in
        check_int "hits: H exact, SX class, CZ in-batch" 3 s.Cache.hits;
        check_int "canonical subset: SX and CZ" 2 s.Cache.canonical_hits;
        check_int "misses: CX, failed relate, dangling, X" 4 s.Cache.misses;
        check_int "four syntheses" 4 (Gen.pulses_generated gen);
        (match outcomes with
        | [ oh; osx; ocx; ocz; _; _; _ ] ->
          check_true "cache hits"
            (List.map (fun o -> o.Gen.cache_hit) outcomes
            = [ true; true; false; true; false; false; false ]);
          check_float "exact entry" 40.0 oh.Gen.latency;
          check_float "replayed entry" 40.0 osx.Gen.latency;
          check_float "in-batch replay prices as CX" ocx.Gen.latency
            ocz.Gen.latency
        | _ -> Alcotest.fail "one outcome per group");
        match Gen.canonical_replays gen with
        | [ (k_sx, r_sx); (k_cz, r_cz) ] ->
          check_true "SX replay key" (k_sx = Gen.key sx);
          check_true "SX borrowed H" (r_sx.Gen.rep_key = Gen.key h);
          check_mat_phase ~tol:1e-6 "SX correction verifies"
            (Gate.unitary Gate.SX)
            (Cmat.mul r_sx.Gen.correction_l
               (Cmat.mul (Gate.unitary Gate.H) r_sx.Gen.correction_r));
          check_true "CZ replay key" (k_cz = Gen.key cz);
          check_true "CZ borrowed CX" (r_cz.Gen.rep_key = Gen.key cx)
        | rs ->
          Alcotest.failf "expected two replays, got %d" (List.length rs));
    case "a newline-first file is refused untouched; a 0-byte file opens"
      (fun () ->
        with_tmp @@ fun path ->
        let bytes = "\npaqoc-pulse-db v3\nK 100 0.01 0.99 q 1;cx@0,1\n" in
        write_file path bytes;
        (match Cache.open_file path with
        | c ->
          Cache.close c;
          Alcotest.fail "a file with an empty header line opened"
        | exception Failure m ->
          check_true
            (Printf.sprintf "names the bad header (got %S)" m)
            (String.starts_with ~prefix:"Cache.open_file: bad header" m));
        check_true "bytes unchanged" (String.equal bytes (read_file path));
        write_file path "";
        let c = Cache.open_file path in
        check_int "fresh cache" 0 (Cache.size c);
        Cache.close c;
        check_true "initialised as v3"
          (String.equal "paqoc-pulse-db v3\n" (read_file path)));
    case "impossible K-record values are refused untouched" (fun () ->
        with_tmp @@ fun path ->
        let refused want body =
          let bytes = "paqoc-pulse-db v3\nS 2;cx@0,1\n" ^ body in
          write_file path bytes;
          (match Cache.open_file path with
          | c ->
            Cache.close c;
            Alcotest.failf "%S opened" body
          | exception Failure m ->
            check_true
              (Printf.sprintf "%S refused with %S (got %S)" body want m)
              (contains m want));
          check_true "bytes unchanged" (String.equal bytes (read_file path))
        in
        refused "line 3: bad latency" "K nan 0.01 0.99 q 2;cx@0,1\n";
        refused "line 3: bad latency" "K inf 0.01 0.99 q 2;cx@0,1\n";
        refused "line 3: bad latency" "K -1e9 0.01 0.99 q 2;cx@0,1\n";
        refused "line 3: bad error" "K 100 nan 0.99 q 2;cx@0,1\n";
        refused "line 3: bad error" "K 100 2.5 0.5 q 2;cx@0,1\n";
        refused "line 3: bad error" "K 100 -5 0.5 q 2;cx@0,1\n";
        refused "line 3: bad fidelity" "K 100 0.01 -inf q 2;cx@0,1\n";
        refused "line 4: bad latency"
          "K 100 0.01 0.99 q 2;cx@0,1\n+K nan nan nan q 2;cx@0,1;cx@1,0\n";
        (* a QOC row stores 1 - achieved, which rounds below 0 when the
           achieved fidelity rounds above 1 *)
        write_file path
          "paqoc-pulse-db v3\nK 100 -2.2e-16 1 q 2;cx@0,1\n";
        Cache.with_file path (fun c ->
            match Cache.find c "2;cx@0,1" with
            | Some e ->
              check_true "rounded error kept" (e.Cache.error = -2.2e-16)
            | None -> Alcotest.fail "rounded-error entry lost"));
    (* The latency golden sees keys only through their jitter, and the
       17-benchmark search pin compares two modes that share one key
       renderer, so neither catches a key byte that moved. This digest
       of a cold Table I suite's pulse table does; it was recorded with
       the list-copying renderer that test/reference_keys.ml keeps. *)
    case "a cold Table I suite at jobs 1 writes the pinned cache bytes"
      (fun () ->
        with_tmp @@ fun path ->
        check_int "Table I" 17 (List.length Suite.all);
        Cache.with_file path (fun cache ->
            List.iter
              (fun (e : Suite.entry) ->
                let physical =
                  (Suite.transpiled e).Paqoc_topology.Transpile.physical
                in
                ignore
                  (Paqoc.compile ~jobs:1
                     (attached cache (Gen.model_default ()))
                     physical))
              Suite.all);
        Alcotest.(check string)
          "cache file digest" "995ba8d6222da8104fc5f79165c7deef"
          (Digest.to_hex (Digest.file path)));
    (* The cache bytes above do not see how a synthesis was seeded, and
       on the model backend the seed class is what a warm start changes:
       it sets the synthesis's modelled seconds. This pins the classes
       a cold Table I suite plans (the nearest-neighbour scan picks the
       137 similar seeds and leaves the 58 cold ones) and the bits of
       their summed seconds, recorded with the sorted-candidate scan. *)
    case "a cold Table I suite plans the pinned seed classes and seconds"
      (fun () ->
        let cache = Cache.create () in
        let sum (c, p, s, m, secs) (e : Suite.entry) =
          let gen = attached cache (Gen.model_default ()) in
          ignore
            (Paqoc.compile ~jobs:1 gen
               (Suite.transpiled e).Paqoc_topology.Transpile.physical);
          let c', p', s', m' = Gen.seed_breakdown gen in
          (c + c', p + p', s + s', m + m', secs +. Gen.total_seconds gen)
        in
        let cold, prefix, shape, similar, secs =
          List.fold_left sum (0, 0, 0, 0, 0.0) Suite.all
        in
        check_int "cold" 58 cold;
        check_int "prefix" 650 prefix;
        check_int "shape" 260 shape;
        check_int "similar" 137 similar;
        if Int64.bits_of_float secs <> 4644324789901409470L then
          Alcotest.failf "summed total_seconds %h, pinned 0x1.3f4ca2b9d3cbep+8"
            secs);
    case "a directory path raises Failure and is left as it was" (fun () ->
        let dir = Filename.temp_dir "paqoc_cache" ".d" in
        Fun.protect
          ~finally:(fun () -> Sys.rmdir dir)
          (fun () ->
            (match Cache.open_file dir with
            | c ->
              Cache.close c;
              Alcotest.fail "a directory opened as a cache"
            | exception Failure m ->
              check_true
                (Printf.sprintf "names the path (got %S)" m)
                (String.equal m
                   (Printf.sprintf "Cache.open_file: is a directory (%s)" dir)));
            check_true "still a directory" (Sys.is_directory dir);
            check_int "still empty" 0 (Array.length (Sys.readdir dir))));
    (* Compaction is amortized: the journal may grow to the last
       snapshot's record count (never compacting before 256 appends), so
       however large the cache grows, the compactions before close
       rewrite at most twice the records appended. A compaction every
       256 appends rewrites about 16,900 records for these 3,000. *)
    case "compactions rewrite at most twice the records appended" (fun () ->
        with_tmp @@ fun path ->
        with_tmp @@ fun copy ->
        with_tmp @@ fun snap ->
        let c = Cache.open_file path in
        (* (snapshot records, journal records) of a file image *)
        let sections bytes =
          let snapshot = ref 0 and journal = ref 0 in
          for i = 0 to String.length bytes - 2 do
            if bytes.[i] = '\n' then
              if bytes.[i + 1] = '+' then incr journal else incr snapshot
          done;
          (!snapshot, !journal)
        in
        (* the tables a cache holds, as the snapshot bytes it saves *)
        let tables c =
          Cache.save c snap;
          read_file snap
        in
        (* ... and those a reopen of a file image loads *)
        let reopened ?(publish = ignore) bytes =
          write_file copy bytes;
          Cache.with_file copy (fun r ->
              publish r;
              tables r)
        in
        let rewritten = ref 0 and before = ref (read_file path) in
        for i = 0 to 2999 do
          let publish c =
            if i mod 2 = 0 then
              Cache.publish c (Printf.sprintf "1;h@%d" i) (entry 40.0)
            else Cache.publish_shape c (Printf.sprintf "1;x@%d" i)
          in
          let compactions = (Cache.stats c).Cache.compactions in
          publish c;
          let bytes = read_file path in
          let snapshot, journal = sections bytes in
          if journal > max 256 snapshot then
            Alcotest.failf
              "publish %d: %d journal records over %d snapshot ones" i journal
              snapshot;
          if (Cache.stats c).Cache.compactions > compactions then begin
            rewritten := !rewritten + snapshot;
            let now = tables c in
            check_true
              (Printf.sprintf "publish %d: a reopen just before, plus it" i)
              (String.equal (reopened ~publish !before) now);
            check_true
              (Printf.sprintf "publish %d: a reopen just after" i)
              (String.equal (reopened bytes) now)
          end;
          let appends = (Cache.stats c).Cache.appends in
          if !rewritten > 2 * appends then
            Alcotest.failf "%d appends: the compactions rewrote %d records"
              appends !rewritten;
          before := bytes
        done;
        let final = tables c in
        Cache.close c;
        check_true "the closed file is Cache.save's bytes"
          (String.equal (read_file path) final));
    (* A class record's unitary entries reach Canon's relation test, so
       a non-finite one is refused like a K record's values: by line,
       with the file left as it was. *)
    case "non-finite class-record entries are refused untouched" (fun () ->
        with_tmp @@ fun path ->
        (* six zeros: with a leading 1 and one more entry, the eight
           floats of a one-qubit unitary *)
        let fin = "0 0 0 0 0 0" in
        let refused want body =
          let bytes = "paqoc-pulse-db v4\n" ^ body in
          write_file path bytes;
          (match Cache.open_file path with
          | c ->
            Cache.close c;
            Alcotest.failf "%S opened" body
          | exception Failure m ->
            check_true
              (Printf.sprintf "%S refused with %S (got %S)" body want m)
              (contains m want));
          check_true "bytes unchanged" (String.equal bytes (read_file path))
        in
        refused "line 2: bad class float"
          "C abc 1 nan nan nan nan nan nan nan nan q 1;x@0\n";
        List.iter
          (fun x ->
            refused "line 2: bad class float"
              (Printf.sprintf "C abc 1 1 %s %s q 1;x@0\n" fin x))
          [ "inf"; "-inf"; "nan"; "1e999"; "-1e999" ];
        refused "line 4: bad class float"
          (Printf.sprintf "K 100 0.01 0.99 q 1;x@0\nC abc 1 1 %s 0 q 1;x@0\n\
                           +C abd 1 1 %s inf q 1;x@0\n" fin fin);
        let ok =
          Printf.sprintf "K 100 0.01 0.99 q 1;x@0\nC abc 1 1 %s 0 q 1;x@0\n"
            fin
        in
        write_file path ("paqoc-pulse-db v4\n" ^ ok);
        Cache.with_file path (fun c ->
            check_int "a finite class record loads" 1 (Cache.n_classes c)));
    case "Db_format v1-v4 under the mutation harness" (fun () ->
        (* a v1 K record carries no provenance token *)
        let line version r =
          let l = Db.record_line r in
          match (version, r, String.split_on_char ' ' l) with
          | Db.V1, Db.Priced _, k :: lat :: err :: fid :: _ :: key ->
            String.concat " " (k :: lat :: err :: fid :: key)
          | _ -> l
        in
        let print (c : Db.contents) =
          String.concat ""
            ((Db.magic c.Db.version ^ "\n")
            :: List.map (fun r -> line c.Db.version r ^ "\n") c.Db.snapshot
            @ List.map (fun r -> "+" ^ line c.Db.version r ^ "\n") c.Db.journal
            )
        in
        (* a K record's latency, error and fidelity; a C record's arity
           and unitary entries *)
        let numbers doc =
          List.concat_map
            (fun (off, len) ->
              match Mutation.tokens ~sep:" " doc ~off ~len with
              | tag :: rest -> (
                let field (o, l) = String.sub doc o l in
                match (field tag, rest) with
                | ("K" | "+K"), lat :: err :: fid :: _ -> [ lat; err; fid ]
                | ("C" | "+C"), _ :: arity :: rest ->
                  let d = 1 lsl int_of_string (field arity) in
                  arity :: List.filteri (fun i _ -> i < 2 * d * d) rest
                | _ -> [])
              | [] -> [])
            (Mutation.lines doc)
        in
        let k ?(provenance = Db.Synthesized) key latency =
          Db.Priced
            (key, { Db.latency; error = 0.01; fidelity = 0.99; provenance })
        in
        let cls class_key rep_key =
          Db.Class
            { Db.class_key;
              n_qubits = 1;
              unitary = [| 1.; 0.; 0.; 0.; 0.; 0.; 0.5; -0.25 |];
              rep_key
            }
        in
        let doc version snapshot journal =
          print
            { Db.version;
              snapshot;
              journal;
              torn_tail = false;
              valid_bytes = 0
            }
        in
        Mutation.check
          { Mutation.name = "pulse database";
            parse = Db.parse_string;
            print;
            numbers;
            alphabet = Mutation.line_alphabet
          }
          [ doc Db.V1 [ k "2;cx@0,1" 100.; Db.Shape "2;cx" ] [];
            doc Db.V2
              [ k "1;x@0" 38.5; k ~provenance:Db.Fallback "2;cx@0,1" 160.;
                Db.Shape "1;x" ]
              [];
            doc Db.V3
              [ k "1;x@0" 38.5; Db.Shape "1;x" ]
              [ k "2;cz@0,1" 96.; Db.Shape "2;cz" ];
            doc Db.V4
              [ k "1;x@0" 38.5; cls "c1" "1;x@0" ]
              [ k "1;h@0" 40.; cls "c2" "1;h@0" ]
          ])
  ]
