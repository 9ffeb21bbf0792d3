# Tier-1 gate in one command: first a lint that fails when
# float_of_string or int_of_string (either form, or a Float/Int/Int32/
# Int64.of_string alias) appears in lib/ or bin/ outside
# lib/obs/scalar.ml, so every reader keeps one number grammar
# (Paqoc_obs.Scalar); then build and tests (which include the mutation
# harness, test/mutation.ml: every truncation, deletion and byte
# substitution of each reader's seeds gives a typed error or a parse,
# every number replaced by inf, -inf, nan or 1e999 is refused, and a
# parsed seed prints back to itself, for Db_format v1-v4, the plan
# sidecar, paqoc-ir, the --inject spec, QASM and Protocol frames),
# docs, and CLI smoke runs (one clean metrics run, one fault-injected
# run that must still succeed via the decomposed-basis fallback, one
# shared-cache round trip that must be all hits the second time, a cold compile-suite into a fresh cache file
# that must report at most 4 cache.compaction (compaction is amortized:
# 256, 512 and 1,024 appends, then close), a canonical-cache and a
# sweep-plan smoke, a QOC-backend compile whose compile cost must read
# non-zero and be labelled with its backend), then the refusal table of
# scripts/check_refusals.py: each row is a command that must exit 1 with
# its error line, not crash, leaving the file or directory it refuses as
# it was (a malformed QASM file through every circuit-reading
# subcommand, a QASM angle that is not finite (rx(1e999)), a sweep plan
# aimed at an unwritable path, a device grid
# over the 1,024-qubit cap, a pulse waveform dump aimed at an unwritable
# path, a negative sweep count, a negative per-task synthesis budget, a
# cache file whose first line is empty, one whose K record holds NaN, a
# plan sidecar whose waveform shape overflows, one whose waveform holds
# an infinite amplitude (left as it was), a directory given as the
# cache and a directory given as the circuit, a v4 cache file whose
# class record's unitary holds NaN (refused by line, left as it was),
# a circuit with a free parameter (rx(theta)) through compile and
# export-ir, a one-slot plan sidecar whose gate angle reads rz(Cinf)
# (refused by line, left as it was) and a sweep angle file whose first
# binding reads inf), then the IR, daemon and bit-exact QOC gates below.
check:
	@if grep -rnE '(float|int)_of_string|(Float|Int|Int32|Int64)\.of_string' \
	  lib bin | grep -v '^lib/obs/scalar\.ml:'; then \
	  echo "check: a number is parsed outside lib/obs/scalar.ml (read it" \
	    "through Paqoc_obs.Scalar)"; \
	  exit 1; fi
	dune build && dune runtest
	$(MAKE) doc
	dune exec bin/paqoc_cli.exe -- compile bv --jobs 2 \
	  --metrics /tmp/paqoc_metrics.json --trace /tmp/paqoc_trace.json \
	  > /dev/null
	dune exec bin/paqoc_cli.exe -- compile bv --inject grape-diverge \
	  --metrics /tmp/paqoc_metrics.json > /dev/null
	@grep -q '"generator.fallback"' /tmp/paqoc_metrics.json \
	  || (echo "check: injected run emitted no fallback counter" && exit 1)
	@rm -f /tmp/paqoc_cache.db
	dune exec bin/paqoc_cli.exe -- compile bv --cache /tmp/paqoc_cache.db \
	  > /dev/null
	@dune exec bin/paqoc_cli.exe -- compile bv --cache /tmp/paqoc_cache.db \
	  | grep -q '/ 0 misses' \
	  || (echo "check: warm cache run still missed" && exit 1)
	@rm -f /tmp/paqoc_metrics.json /tmp/paqoc_trace.json /tmp/paqoc_cache.db
	@rm -f /tmp/paqoc_compact.db /tmp/paqoc_compact.json
	dune exec bin/paqoc_cli.exe -- compile-suite --cache /tmp/paqoc_compact.db \
	  --metrics /tmp/paqoc_compact.json > /dev/null
	@python3 -c "import json, sys; \
	  n = json.load(open('/tmp/paqoc_compact.json'))['counters']['cache.compaction']; \
	  sys.exit(0 if n <= 4 else \
	    'check: a cold suite compacted its cache %d times (at most 4)' % n)"
	@rm -f /tmp/paqoc_compact.db /tmp/paqoc_compact.json
	@rm -f /tmp/paqoc_canon.db
	dune exec bin/paqoc_cli.exe -- compile bb84 --canonical-cache \
	  --cache /tmp/paqoc_canon.db > /dev/null
	@head -1 /tmp/paqoc_canon.db | grep -q 'paqoc-pulse-db v4' \
	  || (echo "check: canonical cache did not upgrade to v4" && exit 1)
	@grep -q '^C ' /tmp/paqoc_canon.db \
	  || (echo "check: canonical compile published no class records" \
	      && exit 1)
	@rm -f /tmp/paqoc_canon.db
	@rm -f /tmp/paqoc_sweep.plan
	dune exec bin/paqoc_cli.exe -- compile-sweep qaoa --sweep 2 \
	  --plan /tmp/paqoc_sweep.plan > /dev/null
	@head -1 /tmp/paqoc_sweep.plan | grep -q 'paqoc-plan v1' \
	  || (echo "check: sweep left no plan sidecar" && exit 1)
	@dune exec bin/paqoc_cli.exe -- compile-sweep qaoa --sweep 2 \
	  --plan /tmp/paqoc_sweep.plan | grep -q 'interp hit rate 100.0%' \
	  || (echo "check: warm sweep recompile not all interp hits" && exit 1)
	@rm -f /tmp/paqoc_sweep.plan
	@dune exec bin/paqoc_cli.exe -- compile bb84 --backend qoc \
	  | grep -Eq '^compile cost    : ([1-9][0-9]*\.[0-9]+|0\.[0-9]*[1-9][0-9]*) s \(qoc backend: ' \
	  || (echo "check: QOC compile cost not printed non-zero and backend-labelled" \
	      && exit 1)
	python3 scripts/check_refusals.py _build/default/bin/paqoc_cli.exe
	$(MAKE) check-ir
	$(MAKE) check-daemon
	$(MAKE) check-qoc

# Daemon round trip: serve in the background, compile the suite through
# it cold and warm, then two single compiles (qaoa, and qft under
# accqoc-n3d3) and one sweep, hold the client output byte-identical to
# the in-process runs', then SIGTERM and require a clean drain — exit 0
# and a compacted cache file (pure snapshot, no '+' journal tail) whose
# bytes match the in-process run's (the single compiles and the sweep
# freeze publish pulses into the daemon cache, so they are mirrored
# into the in-process cache before comparing). The banner lines are the
# one permitted difference (they name the transport), so they are
# filtered first; so is a single compile's "compile cost" line, which
# includes the search's wall-clock time.
check-daemon:
	dune build bin/paqoc_cli.exe
	@rm -f /tmp/paqoc_dm.sock /tmp/paqoc_dm.db /tmp/paqoc_dm_inproc.db
	@_build/default/bin/paqoc_cli.exe compile-suite \
	  --cache /tmp/paqoc_dm_inproc.db \
	  | grep -v '^compiling\|^pulse cache' > /tmp/paqoc_dm_inproc.txt
	@_build/default/bin/paqoc_cli.exe serve --socket /tmp/paqoc_dm.sock \
	  --cache /tmp/paqoc_dm.db > /tmp/paqoc_dm_serve.txt 2>&1 & \
	pid=$$!; \
	ok=0; \
	for i in $$(seq 1 100); do \
	  [ -S /tmp/paqoc_dm.sock ] && { ok=1; break; }; sleep 0.1; done; \
	[ $$ok = 1 ] \
	  || { echo "check-daemon: daemon socket never appeared"; \
	       kill $$pid 2>/dev/null; exit 1; }; \
	_build/default/bin/paqoc_cli.exe compile-suite \
	  --connect /tmp/paqoc_dm.sock \
	  | grep -v '^compiling' > /tmp/paqoc_dm_cold.txt \
	  || { kill $$pid; exit 1; }; \
	_build/default/bin/paqoc_cli.exe compile-suite \
	  --connect /tmp/paqoc_dm.sock \
	  | grep -v '^compiling' > /tmp/paqoc_dm_warm.txt \
	  || { kill $$pid; exit 1; }; \
	diff /tmp/paqoc_dm_inproc.txt /tmp/paqoc_dm_cold.txt \
	  || { echo "check-daemon: daemon table diverged from in-process"; \
	       kill $$pid; exit 1; }; \
	grep -q '0 pulses synthesized' /tmp/paqoc_dm_warm.txt \
	  || { echo "check-daemon: warm daemon suite synthesized pulses"; \
	       kill $$pid; exit 1; }; \
	grep -q 'hit rate 100.0%' /tmp/paqoc_dm_warm.txt \
	  || { echo "check-daemon: warm daemon suite not all cache hits"; \
	       kill $$pid; exit 1; }; \
	for args in "qaoa" "qft -s accqoc-n3d3"; do \
	  _build/default/bin/paqoc_cli.exe compile $$args \
	    --cache /tmp/paqoc_dm_inproc.db \
	    | grep -v '^compile cost\|^pulse cache' \
	    > /tmp/paqoc_dm_one_local.txt || { kill $$pid; exit 1; }; \
	  _build/default/bin/paqoc_cli.exe compile $$args \
	    --connect /tmp/paqoc_dm.sock | grep -v '^compile cost' \
	    > /tmp/paqoc_dm_one.txt || { kill $$pid; exit 1; }; \
	  diff /tmp/paqoc_dm_one_local.txt /tmp/paqoc_dm_one.txt \
	    || { echo "check-daemon: compile $$args diverged from in-process"; \
	         kill $$pid; exit 1; }; \
	done; \
	_build/default/bin/paqoc_cli.exe compile-sweep qaoa --sweep 2 \
	  | grep -v '^sweeping' > /tmp/paqoc_dm_sweep_local.txt \
	  || { kill $$pid; exit 1; }; \
	_build/default/bin/paqoc_cli.exe compile-sweep qaoa --sweep 2 \
	  --cache /tmp/paqoc_dm_inproc.db > /dev/null \
	  || { kill $$pid; exit 1; }; \
	_build/default/bin/paqoc_cli.exe compile-sweep qaoa --sweep 2 \
	  --connect /tmp/paqoc_dm.sock \
	  | grep -v '^sweeping' > /tmp/paqoc_dm_sweep.txt \
	  || { kill $$pid; exit 1; }; \
	diff /tmp/paqoc_dm_sweep_local.txt /tmp/paqoc_dm_sweep.txt \
	  || { echo "check-daemon: daemon sweep table diverged from in-process"; \
	       kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid; rc=$$?; \
	[ $$rc = 0 ] \
	  || { echo "check-daemon: daemon exit $$rc after SIGTERM"; exit 1; }; \
	! grep -q '^+' /tmp/paqoc_dm.db \
	  || { echo "check-daemon: daemon cache left an uncompacted journal"; \
	       exit 1; }; \
	cmp /tmp/paqoc_dm.db /tmp/paqoc_dm_inproc.db \
	  || { echo "check-daemon: daemon cache bytes diverged"; exit 1; }
	@rm -f /tmp/paqoc_dm.sock /tmp/paqoc_dm.db /tmp/paqoc_dm_inproc.db \
	  /tmp/paqoc_dm_inproc.txt /tmp/paqoc_dm_cold.txt /tmp/paqoc_dm_warm.txt \
	  /tmp/paqoc_dm_serve.txt /tmp/paqoc_dm_sweep.txt \
	  /tmp/paqoc_dm_sweep_local.txt /tmp/paqoc_dm_one.txt \
	  /tmp/paqoc_dm_one_local.txt
	@echo "check-daemon: daemon output and cache byte-identical; clean drain"

# Bit-exact QOC gate: recompute the benchmark's pinned QOC results (six
# compiles on the real GRAPE backend, Table I simon included) and diff
# them against benchmark/expected/qoc.txt. The file prints ESP with
# %.17g, so latency and ESP are pinned to the last bit: a rounding step
# that moves in Grape, Expm or Cmat and reaches a pulse shows up here.
# It reads benchmark/ and writes nothing there.
check-qoc:
	dune build benchmark/paqoc_bench.exe
	@dune exec benchmark/paqoc_bench.exe -- --print-expected \
	  > /tmp/paqoc_qoc_expected.txt
	@diff benchmark/expected/qoc.txt /tmp/paqoc_qoc_expected.txt \
	  || (echo "check-qoc: QOC results diverged from benchmark/expected/qoc.txt" \
	      && rm -f /tmp/paqoc_qoc_expected.txt && exit 1)
	@rm -f /tmp/paqoc_qoc_expected.txt
	@echo "check-qoc: six QOC compiles match benchmark/expected/qoc.txt bit for bit"

# Pulse-IR export gate: a two-qubit QASM circuit exported on the QOC
# backend must self-verify (every waveform re-simulates to its recorded
# fidelity), the export must be byte-identical at --jobs 1 and --jobs 4,
# and the model-backend qaoa export must match the pinned golden
# byte-for-byte (the same bytes test/test_device.ml compares via
# Pulse_ir.reference_golden).
check-ir:
	dune build bin/paqoc_cli.exe
	@rm -f /tmp/paqoc_ir.qasm /tmp/paqoc_ir1.json /tmp/paqoc_ir4.json \
	  /tmp/paqoc_ir_qaoa.json
	@printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n' \
	  > /tmp/paqoc_ir.qasm
	@_build/default/bin/paqoc_cli.exe export-ir /tmp/paqoc_ir.qasm \
	  /tmp/paqoc_ir1.json --device 1x2 --backend qoc --check \
	  | grep -q 'IR verified' \
	  || (echo "check-ir: QOC export failed to self-verify" && exit 1)
	@_build/default/bin/paqoc_cli.exe export-ir /tmp/paqoc_ir.qasm \
	  /tmp/paqoc_ir4.json --device 1x2 --backend qoc --jobs 4 > /dev/null
	@cmp /tmp/paqoc_ir1.json /tmp/paqoc_ir4.json \
	  || (echo "check-ir: IR bytes differ between --jobs 1 and --jobs 4" \
	      && exit 1)
	@_build/default/bin/paqoc_cli.exe compile qaoa \
	  --emit-ir /tmp/paqoc_ir_qaoa.json > /dev/null
	@cmp /tmp/paqoc_ir_qaoa.json test/golden/ir_qaoa.json \
	  || (echo "check-ir: qaoa IR diverged from test/golden/ir_qaoa.json" \
	      && exit 1)
	@rm -f /tmp/paqoc_ir.qasm /tmp/paqoc_ir1.json /tmp/paqoc_ir4.json \
	  /tmp/paqoc_ir_qaoa.json
	@echo "check-ir: QOC export verified; jobs-invariant; qaoa golden matched"

# Render the API docs with odoc. Skipped with a notice when odoc is not
# installed locally; the CI job installs odoc and runs this on every
# push, so broken doc comments fail there.
doc:
	@if command -v odoc > /dev/null 2>&1; then \
	  dune build @doc \
	  && echo "doc: _build/default/_doc/_html/index.html"; \
	else \
	  echo "doc: odoc not installed, skipping (CI runs this)"; \
	fi

# Refresh the pinned goldens (test/golden/): the 17-benchmark latency
# table, the GRAPE bit-determinism reference, the per-benchmark canonical
# hit-rate table, the 32-point variational sweep table and the qaoa
# pulse-IR export. Run after an intentional change to latencies, episode
# counts, GRAPE arithmetic, the canonicalization invariants, the
# parametric fast path or the IR writer, and commit the result; the
# golden tests render through the same code paths.
update-golden:
	dune exec test/update_golden.exe -- test/golden/latency_table.txt \
	  test/golden/grape_amplitudes.txt test/golden/canon_hit_rates.txt \
	  test/golden/sweep_table.txt test/golden/ir_qaoa.json

# Worker-scaling benchmark (real GRAPE at 1/2/4 domains).
bench-scaling:
	dune exec bench/micro_main.exe

# Smoke run of the per-device suite emitter, the one bench path that
# benchmark/ does not cover (about 12 s): emit the devices entry to
# /tmp, then schema-check it and the committed BENCH_devices.json. The
# emitter refuses to write on a violated isolation gate, and the schema
# check repeats those gates on each file. CI runs this on every push.
bench-smoke:
	dune exec bench/micro_main.exe -- \
	  --bench-devices=/tmp/paqoc_bench_devices_smoke.json > /dev/null
	@python3 scripts/check_bench_schema.py \
	  /tmp/paqoc_bench_devices_smoke.json BENCH_devices.json
	@rm -f /tmp/paqoc_bench_devices_smoke.json
	@echo "bench-smoke: emitted and committed BENCH_devices schemas OK"

# Per-device suite trajectory: all 17 benchmarks compiled cold and warm
# on each of the four registry devices against one shared cache, plus
# the drift pass (a seed-1/epoch-1 lattice must resynthesize everything
# despite the warm cache). Refuses to emit when a warm miss loses a
# pulse or a stale pulse answers a drifted lookup; run after a device,
# drift or cache-namespacing change and commit the JSON.
bench-devices:
	dune exec bench/micro_main.exe -- --bench-devices
	@python3 scripts/check_bench_schema.py BENCH_devices.json

# Full evaluation harness (tables, figures, bechamel kernels).
bench:
	dune exec bench/main.exe

# Source line counts: .ml + .mli lines under each OCaml tree and .py
# lines under scripts/, build directories excluded.
loc:
	@for d in lib bin bench test benchmark examples; do \
	  printf '%-10s %6d\n' $$d $$(find $$d \( -name '*.ml' -o -name '*.mli' \) \
	    -not -path '*/_build/*' -exec cat {} + | wc -l); \
	done
	@printf '%-10s %6d\n' scripts $$(find scripts -name '*.py' \
	  -not -path '*/_build/*' -exec cat {} + | wc -l)

.PHONY: check check-ir check-daemon check-qoc doc bench bench-scaling \
  bench-smoke bench-devices update-golden loc
