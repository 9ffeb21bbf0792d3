#!/usr/bin/env python3
"""A/B the end-to-end benchmark between a parent revision and HEAD.

    python3 scripts/bench_ab.py PARENT_REV [--head REV] [--pairs N]
        [--workloads suite,daemon] [--seeds 1,2] [--seconds S]
        [--trace 0|1] [--claim WORKLOAD:METRIC] [--pin METRIC[,METRIC...]]
    python3 scripts/bench_ab.py --self-test

Both revisions are exported with `git archive` into fresh temporary
directories (running from the working checkout skews `suite`'s cold
pass) and built once each. Then, for every workload and seed, N pairs
of `sh benchmark/run.sh` runs alternate between the two copies, and
which side runs first swaps from pair to pair, so host phases that move
every timing hit both sides alike.

For every metric the script prints both sides' medians and quartiles
and how many pairs the change won; for an end-to-end metric it also
prints the quartiles of the per-pair change / parent ratio, which
cancels host phases that move both runs of a pair alike (a diagnostic:
the verdict does not read it). It then gives a verdict:

* a claim (`--claim suite:warm_pass_s`) holds when the change wins at
  least 9 pairs in 10 and its median beats the parent's by more than
  the parent's quartile spread (Q3 - Q1);
* no end-to-end metric may be worse than the parent by more than its
  `BENCHMARK.json` bound (relative, on the medians), and no workload may
  fail a larger share of its requests;
* an end-to-end metric whose parent runs spread (Q3 - Q1, relative to
  the median) wider than its bound is labelled UNRESOLVED, unless every
  change run beats every parent run: the medians then cannot show it
  unchanged. The label is information only; a broken bound still fails
  the verdict;
* a pinned metric (`--pin core.search_iterations,trace.staged_mismatch`)
  must take one value in every run of a workload and seed, parent and
  change alike: counts that must repeat exactly, such as merge decisions
  under `--trace 1`, are then checked mechanically.

The exit status is 0 when every claim holds and no bound is broken.
`--self-test` checks the verdict logic on canned numbers.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# statistics and verdicts (pure; what --self-test checks)
# ---------------------------------------------------------------------------


def quartiles(xs):
    """(Q1, median, Q3) by linear interpolation between order statistics."""
    s = sorted(xs)
    if not s:
        return (math.nan, math.nan, math.nan)

    def q(p):
        pos = p * (len(s) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return (q(0.25), q(0.5), q(0.75))


def better(x, y, direction):
    """Is x strictly better than y?"""
    return x < y if direction == "lower" else x > y


def wins(pairs, direction):
    """Pairs (parent, change) where the change is strictly better."""
    return sum(1 for p, c in pairs if better(c, p, direction))


def claim_holds(pairs, direction):
    """At least 9 wins in 10, and a median gap beyond the parent's
    quartile spread. Returns (holds, reason)."""
    n = len(pairs)
    if n == 0:
        return (False, "no pairs")
    w = wins(pairs, direction)
    need = math.ceil(0.9 * n)
    p_q1, p_med, p_q3 = quartiles([p for p, _ in pairs])
    _, c_med, _ = quartiles([c for _, c in pairs])
    gap = p_med - c_med if direction == "lower" else c_med - p_med
    spread = p_q3 - p_q1
    if w < need:
        return (False, "%d wins of %d, need %d" % (w, n, need))
    if not gap > spread:
        return (False, "median gap %.4g does not exceed the parent's "
                "quartile spread %.4g" % (gap, spread))
    return (True, "%d wins of %d, median gap %.4g > spread %.4g"
            % (w, n, gap, spread))


def bound_broken(pairs, direction, bound):
    """Is the change's median worse than the parent's by more than the
    relative bound? Returns (broken, relative change in the bad
    direction)."""
    _, p_med, _ = quartiles([p for p, _ in pairs])
    _, c_med, _ = quartiles([c for _, c in pairs])
    if p_med == 0:
        worse = (c_med > 0) if direction == "lower" else (c_med < 0)
        return (worse, math.inf if worse else 0.0)
    rel = (c_med - p_med) / abs(p_med)
    if direction == "higher":
        rel = -rel
    return (rel > bound, rel)


def unresolved(pairs, direction, bound):
    """Is the parent's own quartile spread, relative to its median,
    wider than the bound, while some change run fails to beat some
    parent run? Such a metric is unresolved, not unchanged. The verdict
    does not read it."""
    p_q1, p_med, p_q3 = quartiles([p for p, _ in pairs])
    spread = p_q3 - p_q1
    if p_med != 0:
        rel = spread / abs(p_med)
    else:
        rel = math.inf if spread > 0 else 0.0
    if not rel > bound:
        return False
    parents = [p for p, _ in pairs]
    changes = [c for _, c in pairs]
    if direction == "lower":
        every_run_better = max(changes) < min(parents)
    else:
        every_run_better = min(changes) > max(parents)
    return not every_run_better


def pair_ratios(pairs):
    """Per-pair change / parent ratios, skipping pairs whose parent is
    0. The two runs of a pair are back to back, so a slow host phase
    scales both and cancels in the ratio: a diagnostic that resolves
    smaller changes than the medians do. The verdict does not read it."""
    return [c / p for p, c in pairs if p != 0]


def pin_problem(name, values):
    """None when a pinned metric took one value in every run (None
    marks a run that did not report it), else the reason."""
    if any(v is None for v in values):
        return "pinned %s is missing from %d of %d runs" % (
            name, sum(1 for v in values if v is None), len(values))
    distinct = sorted(set(values))
    if len(distinct) > 1:
        return "pinned %s differs between runs: %s" % (
            name, ", ".join("%.6g" % v for v in distinct))
    return None


def failure_share(run):
    attempted = run.get("attempted", 0)
    return run.get("failed", 0) / attempted if attempted else 0.0


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def sh(cmd, cwd, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, **kw)


def export(rev, dest):
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    sh(["dune", "build", "--root", ".", "--display", "quiet",
        "benchmark/paqoc_bench.exe", "bin/paqoc_cli.exe"], tree, env=env)


def run_once(tree, workload, seed, seconds, trace):
    out = subprocess.run(
        ["sh", "benchmark/run.sh", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("%s %s seed %s printed no result (exit %d)"
                           % (tree, workload, seed, out.returncode))
    return json.loads(lines[-1])


def report(workload, seed, runs, spec, claims, pins):
    """Print one workload/seed table; return the list of problems."""
    problems = []
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec.get("per_layer", [])}
    print("\n== %s, seed %s: %d pairs (parent | change) ==" %
          (workload, seed, len(runs)))
    print("%-28s %27s   %27s  %s" % ("metric", "parent Q1 / median / Q3",
                                     "change Q1 / median / Q3", "wins"))
    names = sorted(set(runs[0][0]["metrics"]) & set(runs[0][1]["metrics"]),
                   key=lambda k: (k not in end_to_end, k))
    for name in names:
        meta = end_to_end.get(name) or per_layer.get(name) or {}
        direction = meta.get("better", "lower")
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in runs]
        pq = quartiles([p for p, _ in pairs])
        cq = quartiles([c for _, c in pairs])
        line = "%-28s %8.4g / %8.4g / %8.4g   %8.4g / %8.4g / %8.4g  %2d/%d" % (
            name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2],
            wins(pairs, direction), len(pairs))
        if name in end_to_end:
            broken, _ = bound_broken(pairs, direction,
                                     end_to_end[name]["bound"])
            change = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
            line += "  %+.1f%% (%s is better, bound %.1f%%)%s%s" % (
                100 * change, direction, 100 * end_to_end[name]["bound"],
                "  WORSE" if broken else "",
                "  UNRESOLVED" if unresolved(
                    pairs, direction, end_to_end[name]["bound"]) else "")
            ratios = pair_ratios(pairs)
            if ratios:
                line += "  change/parent %.3f / %.3f / %.3f" % quartiles(
                    ratios)
            if broken:
                problems.append("%s seed %s: %s worse than its bound"
                                % (workload, seed, name))
        if (workload, name) in claims:
            ok, why = claim_holds(pairs, direction)
            line += "  claim %s: %s" % ("holds" if ok else "FAILS", why)
            if not ok:
                problems.append("%s seed %s: claim on %s fails (%s)"
                                % (workload, seed, name, why))
        print(line)
    for name in pins:
        values = [r["metrics"].get(name, {}).get("value")
                  for pair in runs for r in pair]
        why = pin_problem(name, values)
        print("pin %s: %s" % (name, why or "%.6g in all %d runs"
                                % (values[0], len(values))))
        if why:
            problems.append("%s seed %s: %s" % (workload, seed, why))
    p_fail = max(failure_share(p) for p, _ in runs)
    c_fail = max(failure_share(c) for _, c in runs)
    print("failure share: parent %.3f, change %.3f" % (p_fail, c_fail))
    if c_fail > p_fail:
        problems.append("%s seed %s: larger failure share" % (workload, seed))
    return problems


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def self_test():
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    parent = [1.30, 1.32, 1.28, 1.35, 1.31, 1.29, 1.33, 1.30, 1.34, 1.31]
    # a clear gain: 10 wins of 10, gap far beyond the spread
    fast = [0.60, 0.62, 0.61, 0.59, 0.63, 0.60, 0.61, 0.62, 0.60, 0.61]
    assert claim_holds(list(zip(parent, fast)), "lower")[0]
    # 9 wins of 10 still holds
    nine = fast[:9] + [1.40]
    assert claim_holds(list(zip(parent, nine)), "lower")[0]
    # 8 wins of 10 does not
    eight = fast[:8] + [1.40, 1.50]
    ok, why = claim_holds(list(zip(parent, eight)), "lower")
    assert not ok and "8 wins" in why, why
    # every pair won, but by less than the parent's quartile spread
    tiny = [p - 0.001 for p in parent]
    ok, why = claim_holds(list(zip(parent, tiny)), "lower")
    assert not ok and "spread" in why, why
    # higher-is-better metrics mirror the test
    assert claim_holds([(0.5, 0.9)] * 10, "higher")[0]
    assert not claim_holds([(0.9, 0.5)] * 10, "higher")[0]
    # bounds are relative, on the medians, in the bad direction only
    assert not bound_broken(list(zip(parent, fast)), "lower", 0.25)[0]
    assert bound_broken([(40.0, 51.0)] * 5, "lower", 0.25)[0]
    assert not bound_broken([(40.0, 49.0)] * 5, "lower", 0.25)[0]
    assert bound_broken([(0.90, 0.89)] * 5, "higher", 0.005)[0]
    assert not bound_broken([(0.90, 0.9)] * 5, "higher", 0.005)[0]
    assert not bound_broken([(0.90, 0.95)] * 5, "higher", 0.005)[0]
    assert not bound_broken([(100.0, 100.0)] * 5, "lower", 0.005)[0]
    assert bound_broken([(0.0, 1.0)] * 3, "lower", 0.25)[0]
    # unresolved: the parent's spread (Q3 - Q1 over its median) is
    # wider than the bound, and not every change run beats every parent
    # run
    wide = [1.00, 1.40, 0.80, 1.20, 0.90, 1.30, 1.00, 1.10, 0.85, 1.25]
    assert unresolved(list(zip(wide, wide)), "lower", 0.25)
    assert not unresolved(list(zip(wide, [0.5] * 10)), "lower", 0.25)
    assert unresolved(list(zip(wide, [0.5] * 9 + [0.9])), "lower", 0.25)
    assert not unresolved(list(zip(parent, parent)), "lower", 0.25)
    assert not unresolved(list(zip(wide, wide)), "lower", 0.5)
    assert not unresolved(list(zip(wide, [2.0] * 10)), "higher", 0.25)
    assert unresolved(list(zip(wide, [1.39] * 10)), "higher", 0.25)
    assert unresolved([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)],
                      "lower", 0.25)
    assert not unresolved([(0.0, 0.0)] * 4, "lower", 0.25)
    # the label is information only: a broken bound still breaks
    slow = [w * 1.5 for w in wide]
    assert unresolved(list(zip(wide, slow)), "lower", 0.25)
    assert bound_broken(list(zip(wide, slow)), "lower", 0.25)[0]
    # a pin holds only when every run, parent and change, agrees
    assert pin_problem("core.search_iterations", [1048.0] * 10) is None
    why = pin_problem("core.search_iterations", [1048.0] * 9 + [1047.0])
    assert why and "differs" in why and "1047" in why, why
    why = pin_problem("trace.staged_mismatch", [0.0, None, 0.0])
    assert why and "missing from 1 of 3" in why, why
    # the per-pair ratio diagnostic skips a zero parent
    assert quartiles(pair_ratios([(2.0, 1.0), (4.0, 3.0), (0.0, 1.0),
                                  (1.0, 1.0)])) == (0.625, 0.75, 0.875)
    assert failure_share({"attempted": 10, "failed": 1}) == 0.1
    assert failure_share({"attempted": 0, "failed": 0}) == 0.0
    print("bench_ab self-test: ok")


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="parent revision")
    ap.add_argument("--head", default="HEAD", help="change revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="suite,daemon,qoc,sweep")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run.sh --seconds (default: BENCHMARK.json's)")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC")
    ap.add_argument("--pin", action="append", default=[],
                    metavar="METRIC[,METRIC...]",
                    help="metrics that must repeat exactly in every run")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not args.parent:
        ap.error("PARENT_REV is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec.get(
        "run_seconds", 20)
    pins = [m for p in args.pin for m in p.split(",") if m]
    claims = set()
    for c in args.claim:
        w, _, m = c.partition(":")
        claims.add((w, m))
    problems = []
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {}
        for side, rev in (("parent", args.parent), ("change", args.head)):
            trees[side] = os.path.join(tmp, side)
            os.makedirs(trees[side])
            export(rev, trees[side])
            print("building %s (%s) in %s" % (side, rev, trees[side]),
                  flush=True)
            build(trees[side])
        for workload in args.workloads.split(","):
            for seed in args.seeds.split(","):
                runs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else (
                        "change", "parent")
                    got = {side: run_once(trees[side], workload, seed,
                                          seconds, args.trace)
                           for side in order}
                    runs.append((got["parent"], got["change"]))
                    print("  %s seed %s pair %d/%d done" %
                          (workload, seed, i + 1, args.pairs), flush=True)
                problems += report(workload, seed, runs, spec, claims,
                                   pins)
    for w, m in sorted(claims):
        if w not in args.workloads.split(","):
            problems.append("claim on %s:%s, but %s was not run" % (w, m, w))
    print()
    for p in problems:
        print("PROBLEM: " + p)
    print("verdict: %s" % ("ok" if not problems else "REJECT"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
