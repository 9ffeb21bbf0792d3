#!/usr/bin/env python3
"""Validate BENCH_devices.json files against the paqoc-bench v1 schema.

Used by `make bench-smoke` (and CI) to catch drift in the devices
emission path: a field rename, a type change or an empty device list
fails here before anyone reads a per-device trajectory from a broken
entry, and so does an entry that records broken cache isolation (a lost
warm-pass pulse, or a drifted lattice answered by stale pulses).
"""
import json
import sys


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
    if doc.get("bench") != "devices":
        fail(f"{path}: bench is {doc.get('bench')!r}, want 'devices'")
    devices = doc.get("devices")
    if not isinstance(devices, list) or not devices:
        fail(f"{path}: devices must be a non-empty list")
    check_devices(path, doc, devices)
    print(f"{path}: bench 'devices', {len(devices)} devices, schema OK")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        fail("usage: check_bench_schema.py FILE...")
    for p in sys.argv[1:]:
        check(p)
