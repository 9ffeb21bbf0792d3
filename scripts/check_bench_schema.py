#!/usr/bin/env python3
"""Validate BENCH_*.json files against the paqoc-bench v1 schemas.

Used by `make bench-smoke` (and CI) to catch drift in the benchmark
emission paths: a field rename, a type change or an empty run list fails
here before anyone tries to plot a perf trajectory from broken entries.
Dispatches on the document's "bench" tag: "scaling" (worker-scaling
GRAPE batch plus the metrics report), "grape" (per-iteration GRAPE
cost), "cache" (cold-vs-warm shared-cache suite compile), "search"
(the historical reference-vs-incremental criticality-search record),
"serve"
(resident-daemon throughput/latency plus the lazy-pool jobs gate),
"sweep" (variational fast-path speedup plus the interpolation-drift and
replay gates) or "devices" (per-device suite compile on one shared cache
plus the cross-device/drift isolation gates).
"""
import json
import sys

SCALING_RUN_FIELDS = {
    "jobs": int,
    "wall_s": (int, float),
    "accounted_gen_s": (int, float),
}

GRAPE_RUN_FIELDS = {
    "phase": str,
    "case": str,
    "dim": int,
    "n_slices": int,
    "iters": int,
    "repeats": int,
    "ns_per_iter": (int, float),
}

CACHE_RUN_FIELDS = {
    "phase": str,
    "wall_s": (int, float),
    "synthesized": int,
    "cache_hits": int,
    "cache_misses": int,
    "hit_rate": (int, float),
    "canonical_hits": int,
    "canonical_hit_rate": (int, float),
    "per_benchmark": list,
}

CACHE_PER_BENCHMARK_FIELDS = {
    "name": str,
    "synthesized": int,
    "cache_hits": int,
    "hit_rate": (int, float),
    "canonical_hits": int,
}


def fail(msg):
    print(f"check_bench_schema: {msg}", file=sys.stderr)
    sys.exit(1)


def check_fields(path, label, obj, fields):
    if not isinstance(obj, dict):
        fail(f"{path}: {label} is not an object")
    for field, ty in fields.items():
        if field not in obj:
            fail(f"{path}: {label} missing {field!r}")
        if not isinstance(obj[field], ty) or isinstance(obj[field], bool):
            fail(f"{path}: {label}.{field} has type "
                 f"{type(obj[field]).__name__}")


def check_scaling(path, doc, runs):
    tasks = doc.get("tasks")
    if not isinstance(tasks, int) or isinstance(tasks, bool) or tasks < 1:
        fail(f"{path}: tasks must be a positive int")
    for i, run in enumerate(runs):
        check_fields(path, f"runs[{i}]", run, SCALING_RUN_FIELDS)
        if run["jobs"] < 1 or run["wall_s"] <= 0:
            fail(f"{path}: runs[{i}] needs jobs >= 1 and a positive wall_s")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or \
            metrics.get("schema") != "paqoc-metrics v1":
        fail(f"{path}: metrics must be a paqoc-metrics v1 report")


def check_grape(path, doc, runs):
    for i, run in enumerate(runs):
        check_fields(path, f"runs[{i}]", run, GRAPE_RUN_FIELDS)
        if run["ns_per_iter"] <= 0:
            fail(f"{path}: runs[{i}].ns_per_iter must be positive")
        if run["dim"] < 1 or run["n_slices"] < 1:
            fail(f"{path}: runs[{i}] has non-positive dim/n_slices")


def check_cache(path, doc, runs):
    n = doc.get("benchmarks")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        fail(f"{path}: benchmarks must be a positive int")
    phases = []
    for i, run in enumerate(runs):
        check_fields(path, f"runs[{i}]", run, CACHE_RUN_FIELDS)
        phases.append(run["phase"])
        if not 0.0 <= run["hit_rate"] <= 1.0:
            fail(f"{path}: runs[{i}].hit_rate must be in [0,1]")
        if not 0.0 <= run["canonical_hit_rate"] <= 1.0:
            fail(f"{path}: runs[{i}].canonical_hit_rate must be in [0,1]")
        if run["canonical_hits"] > run["cache_hits"]:
            fail(f"{path}: runs[{i}].canonical_hits exceeds cache_hits — "
                 f"class-tier hits are a subset of all hits")
        per = run["per_benchmark"]
        if len(per) != n:
            fail(f"{path}: runs[{i}].per_benchmark has {len(per)} entries, "
                 f"want {n}")
        for j, b in enumerate(per):
            check_fields(path, f"runs[{i}].per_benchmark[{j}]", b,
                         CACHE_PER_BENCHMARK_FIELDS)
    if phases != ["cold", "warm"]:
        fail(f"{path}: run phases are {phases}, want ['cold', 'warm']")
    rate = doc.get("synthesis_skip_rate")
    if not isinstance(rate, (int, float)) or isinstance(rate, bool):
        fail(f"{path}: synthesis_skip_rate must be a number")
    if not 0.0 <= rate <= 1.0:
        fail(f"{path}: synthesis_skip_rate must be in [0,1]")


SEARCH_RUN_FIELDS = {
    "phase": str,
    "temp": str,
    "wall_s": (int, float),
    "suite_latency": (int, float),
    "iterations": int,
    "merges_committed": int,
    "per_benchmark": list,
}

SEARCH_PER_BENCHMARK_FIELDS = {
    "name": str,
    "latency": (int, float),
    "wall_s": (int, float),
}


def check_search(path, doc, runs):
    n = doc.get("benchmarks")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        fail(f"{path}: benchmarks must be a positive int")
    keys = []
    for i, run in enumerate(runs):
        check_fields(path, f"runs[{i}]", run, SEARCH_RUN_FIELDS)
        keys.append((run["phase"], run["temp"]))
        if run["wall_s"] <= 0:
            fail(f"{path}: runs[{i}].wall_s must be positive")
        per = run["per_benchmark"]
        if len(per) != n:
            fail(f"{path}: runs[{i}].per_benchmark has {len(per)} entries, "
                 f"want {n}")
        for j, b in enumerate(per):
            check_fields(path, f"runs[{i}].per_benchmark[{j}]", b,
                         SEARCH_PER_BENCHMARK_FIELDS)
    want = [("before", "cold"), ("before", "warm"),
            ("after", "cold"), ("after", "warm")]
    if keys != want:
        fail(f"{path}: run (phase, temp) pairs are {keys}, want {want}")
    for field in ("warm_speedup", "cold_speedup"):
        v = doc.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
            fail(f"{path}: {field} must be a positive number")
    if doc.get("latencies_identical") is not True:
        fail(f"{path}: latencies_identical must be true — the two searches "
             f"diverged")
    # the committed trajectory must actually show the win it claims
    if doc["warm_speedup"] < 1.0:
        fail(f"{path}: warm_speedup {doc['warm_speedup']} < 1 — the "
             f"incremental engine is slower than the reference")


SERVE_RUN_FIELDS = {
    "phase": str,
    "wall_s": (int, float),
    "requests": int,
    "requests_per_s": (int, float),
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "synthesized": int,
    "cache_hits": int,
    "cache_misses": int,
    "hit_rate": (int, float),
}


def check_serve(path, doc, runs):
    n = doc.get("benchmarks")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        fail(f"{path}: benchmarks must be a positive int")
    phases = []
    for i, run in enumerate(runs):
        check_fields(path, f"runs[{i}]", run, SERVE_RUN_FIELDS)
        phases.append(run["phase"])
        if run["wall_s"] <= 0 or run["requests_per_s"] <= 0:
            fail(f"{path}: runs[{i}] wall_s/requests_per_s must be positive")
        if run["requests"] != n:
            fail(f"{path}: runs[{i}].requests is {run['requests']}, want {n}")
        if not 0.0 <= run["hit_rate"] <= 1.0:
            fail(f"{path}: runs[{i}].hit_rate must be in [0,1]")
        if run["p50_ms"] <= 0 or run["p95_ms"] < run["p50_ms"]:
            fail(f"{path}: runs[{i}] needs 0 < p50_ms <= p95_ms")
    if phases != ["cold", "warm"]:
        fail(f"{path}: run phases are {phases}, want ['cold', 'warm']")
    warm = runs[1]
    # a warm daemon answers everything from the shared cache
    if warm["synthesized"] != 0:
        fail(f"{path}: warm run synthesized {warm['synthesized']} pulses, "
             f"want 0 — the daemon's shared cache is not being hit")
    if warm["hit_rate"] != 1.0:
        fail(f"{path}: warm hit_rate is {warm['hit_rate']}, want 1.0")
    for field in ("warm_jobs1_wall_s", "warm_jobs4_wall_s", "warm_jobs_ratio"):
        v = doc.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
            fail(f"{path}: {field} must be a positive number")
    # the lazy-pool guarantee: an all-cache-hit suite at --jobs 4 must not
    # pay for idle worker domains (±10%)
    if doc["warm_jobs_ratio"] > 1.1:
        fail(f"{path}: warm_jobs_ratio {doc['warm_jobs_ratio']} > 1.1 — "
             f"warm --jobs 4 is paying for worker domains again")
    if doc.get("byte_identical") is not True:
        fail(f"{path}: byte_identical must be true — daemon rows diverged "
             f"from the in-process path")


SWEEP_RUN_FIELDS = {
    "phase": str,
    "tol": (int, float),
    "iterations": int,
    "interp": int,
    "fallback": int,
    "resynth": int,
    "checks": int,
    "max_drift": (int, float),
}


def check_sweep(path, doc, runs):
    phases = []
    for i, run in enumerate(runs):
        check_fields(path, f"runs[{i}]", run, SWEEP_RUN_FIELDS)
        phases.append(run["phase"])
        if run["iterations"] < 1:
            fail(f"{path}: runs[{i}].iterations must be positive")
        if run["max_drift"] > run["tol"]:
            fail(f"{path}: runs[{i}].max_drift {run['max_drift']} exceeds "
                 f"its tolerance {run['tol']} — an over-drift interpolation "
                 f"was accepted instead of falling back")
    want = ["model", "qoc-strict", "qoc-loose"]
    if phases != want:
        fail(f"{path}: run phases are {phases}, want {want}")
    for field in ("freeze_s", "full_iter_s", "fast_iter_s", "speedup"):
        v = doc.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
            fail(f"{path}: {field} must be a positive number")
    rate = doc.get("interp_hit_rate")
    if not isinstance(rate, (int, float)) or isinstance(rate, bool):
        fail(f"{path}: interp_hit_rate must be a number")
    if not 0.0 <= rate <= 1.0:
        fail(f"{path}: interp_hit_rate must be in [0,1]")
    # the headline claim: the frozen-plan fast path is >= 10x a full
    # per-iteration recompile
    if doc["speedup"] < 10.0:
        fail(f"{path}: speedup {doc['speedup']} < 10 — the parametric "
             f"fast path lost its advantage")
    # the differential claim: the loose pass accepted interpolations and
    # replaying their stored pulses reproduced the recorded fidelities
    if runs[2]["checks"] < 1:
        fail(f"{path}: qoc-loose accepted no interpolations — the "
             f"differential gate is vacuous")
    err = doc.get("qoc_replay_err")
    if not isinstance(err, (int, float)) or isinstance(err, bool):
        fail(f"{path}: qoc_replay_err must be a number")
    if err > 1e-12:
        fail(f"{path}: qoc_replay_err {err} > 1e-12 — re-simulating stored "
             f"check pulses no longer reproduces their fidelities")


DEVICES_RUN_FIELDS = {
    "phase": str,
    "wall_s": (int, float),
    "synthesized": int,
    "cache_hits": int,
    "cache_misses": int,
    "hit_rate": (int, float),
}

DEVICES_DEVICE_FIELDS = {
    "name": str,
    "hash": str,
    "qubits": int,
    "runs": list,
}

DEVICES_DRIFT_FIELDS = {
    "seed": int,
    "epoch": int,
    "wall_s": (int, float),
    "synthesized": int,
    "cache_hits": int,
    "cache_misses": int,
}


def check_devices(path, doc, devices):
    n = doc.get("benchmarks")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        fail(f"{path}: benchmarks must be a positive int")
    names = []
    hashes = []
    for i, dev in enumerate(devices):
        check_fields(path, f"devices[{i}]", dev, DEVICES_DEVICE_FIELDS)
        names.append(dev["name"])
        hashes.append(dev["hash"])
        if len(dev["hash"]) != 32:
            fail(f"{path}: devices[{i}].hash is not 32 hex chars")
        if dev["qubits"] < 1:
            fail(f"{path}: devices[{i}].qubits must be positive")
        phases = []
        for j, run in enumerate(dev["runs"]):
            check_fields(path, f"devices[{i}].runs[{j}]", run,
                         DEVICES_RUN_FIELDS)
            phases.append(run["phase"])
            if not 0.0 <= run["hit_rate"] <= 1.0:
                fail(f"{path}: devices[{i}].runs[{j}].hit_rate must be "
                     f"in [0,1]")
        if phases != ["cold", "warm"]:
            fail(f"{path}: devices[{i}] run phases are {phases}, "
                 f"want ['cold', 'warm']")
        warm = dev["runs"][1]
        # fallbacks are never published, so every warm miss must be a
        # regenerated pulse — a surplus miss means a pulse was lost
        if warm["cache_misses"] != warm["synthesized"]:
            fail(f"{path}: devices[{i}] warm pass lost "
                 f"{warm['cache_misses'] - warm['synthesized']} pulses")
    if names != ["lattice", "heavy-hex", "square", "ring"]:
        fail(f"{path}: device names are {names}, want the registry order")
    if len(set(hashes)) != len(hashes):
        fail(f"{path}: device hashes are not distinct")
    drift = doc.get("drift")
    check_fields(path, "drift", drift, DEVICES_DRIFT_FIELDS)
    # the recalibration guarantee: a drifted lattice against the fully
    # warmed cache misses exactly as often as the pristine cold pass did
    cold_misses = devices[0]["runs"][0]["cache_misses"]
    if drift["cache_misses"] != cold_misses:
        fail(f"{path}: drifted lattice missed {drift['cache_misses']} "
             f"lookups vs {cold_misses} cold — stale pulses were replayed")
    if doc.get("isolated") is not True:
        fail(f"{path}: isolated must be true — cross-device isolation "
             f"was not upheld")


CHECKERS = {"scaling": check_scaling, "grape": check_grape,
            "cache": check_cache,
            "search": check_search, "serve": check_serve,
            "sweep": check_sweep, "devices": check_devices}

# most benches list their runs under "runs"; the devices bench groups
# runs per device under "devices"
RUN_LIST_KEY = {"devices": "devices"}


def check(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    if doc.get("schema") != "paqoc-bench v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, want 'paqoc-bench v1'")
    bench = doc.get("bench")
    if bench not in CHECKERS:
        fail(f"{path}: bench is {bench!r}, want one of "
             f"{sorted(CHECKERS)}")
    key = RUN_LIST_KEY.get(bench, "runs")
    runs = doc.get(key)
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: {key} must be a non-empty list")
    CHECKERS[bench](path, doc, runs)
    print(f"{path}: bench {bench!r}, {len(runs)} {key}, schema OK")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        fail("usage: check_bench_schema.py FILE...")
    for p in sys.argv[1:]:
        check(p)
