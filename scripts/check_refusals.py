#!/usr/bin/env python3
"""The CLI refusal table `make check` runs.

Each row is one paqoc command that must be refused, not crash: it must
exit with status 1 and print an stderr line that starts with the row's
pattern. Where a row names a refused file or directory, that path must
be left as it was (a file byte for byte, a directory entry for entry).

Usage: python3 scripts/check_refusals.py PATH/TO/paqoc_cli.exe
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile

# Inputs the rows name as {name}: written fresh into a temporary
# directory, where {dir} is an empty directory and {out.json} a path
# nothing writes.
FILES = {
    "bad.qasm": "OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n",
    # a QASM angle past the float range
    "inf.qasm": "OPENQASM 2.0;\nqreg q[1];\nrx(1e999) q[0];\n",
    # a cache file whose first line is empty
    "header.db": "\npaqoc-pulse-db v3\nK 100 0.01 0.99 q 1;cx@0,1\n",
    # a cache file whose K record holds NaN values
    "nan.db": "paqoc-pulse-db v3\nK nan nan nan q 2;cx@0,1;cx@1,0;cx@0,1\n",
    # a one-slot plan sidecar whose W line overflows slices * controls
    "overflow.plan": "paqoc-plan v1\nQ 1\nP t\nV 0x0p+0\nN 1\nR t rz(St)@0\n"
    "A 0x0p+0\nO 0x1p+6 0x0p+0 0x1p+0 synthesized\n"
    "W 0x1p+0 2305843009213693952 4\n",
    # a v4 cache file whose class record's unitary holds NaN values
    "cnan.db": "paqoc-pulse-db v4\n"
    "C abc 1 nan nan nan nan nan nan nan nan q 1;x@0\n",
    # a one-gate circuit whose angle is a free parameter
    "free.qasm": "OPENQASM 2.0;\nqreg q[1];\nrx(theta) q[0];\n",
    # the same plan whose waveform holds an infinite amplitude
    "inf.plan": "paqoc-plan v1\nQ 1\nP t\nV 0x0p+0\nN 1\nR t rz(St)@0\n"
    "A 0x0p+0\nO 0x1p+6 0x0p+0 0x1p+0 synthesized\n"
    "W 0x1p+0 1 2 inf 0x0p+0\n",
    # a one-slot plan with no parameters whose gate angle is infinite
    "cinf.plan": "paqoc-plan v1\nQ 1\nP\nV\nN 1\nS rz(Cinf)@0\n"
    "O 0x1p+5 0x0p+0 0x1p+0 synthesized\n",
    # a sweep angle file whose first binding is infinite
    "inf.angles": "beta_0=inf beta_1=0.1 beta_2=0.2 gamma_0=0.3 gamma_1=0.4 "
    "gamma_2=0.5\n",
}

# (arguments, stderr pattern, the {name} that must stay as it was)
ROWS = [
    ("compile {bad.qasm}", "error: QASM parse error", None),
    ("export-ir {bad.qasm} {out.json}", "error: QASM parse error", None),
    ("mine {bad.qasm}", "error: QASM parse error", None),
    ("compile-sweep {bad.qasm}", "error: QASM parse error", None),
    ("compile {inf.qasm}", "error: QASM parse error", None),
    ("compile-sweep qaoa --sweep 1 --plan /nonexistent_paqoc_dir/x.plan",
     "error: ", None),
    ("compile bv --device 300x300", "error: ", None),
    ("pulse x --dump /nonexistent_paqoc_dir/x.csv", "error: ", None),
    ("compile-sweep qaoa --sweep=-2", "error: ", None),
    ("compile bv --task-seconds=-1", "error: --task-seconds", None),
    ("compile bv --cache {header.db}", "error: Cache.open_file: bad header",
     "header.db"),
    ("compile bv --cache {nan.db}", "error: ", "nan.db"),
    ("compile-sweep qaoa --sweep 1 --plan {overflow.plan}", "error: ", None),
    ("compile-sweep qaoa --sweep 1 --plan {inf.plan}",
     "error: {inf.plan}: bad plan sidecar (line 9", "inf.plan"),
    ("compile bv --cache {dir}",
     "error: Cache.open_file: is a directory ({dir})", "dir"),
    ("compile {dir}", "error: cannot read circuit: is a directory ({dir})",
     "dir"),
    ("compile bv --canonical-cache --cache {cnan.db}",
     "error: Cache.open_file: line 2: bad class float", "cnan.db"),
    ("compile {free.qasm}", "error: circuit has unbound parameter theta",
     None),
    ("export-ir {free.qasm} {out.json}",
     "error: circuit has unbound parameter theta", None),
    ("compile-sweep qaoa --sweep 1 --plan {cinf.plan}",
     "error: {cinf.plan}: bad plan sidecar (line 6", "cinf.plan"),
    ("compile-sweep qaoa --angles-file {inf.angles}",
     "error: {inf.angles}:1: bad angle value", None),
]

PLACEHOLDER = re.compile(r"\{([^}]+)\}")


def snapshot(path):
    if os.path.isdir(path):
        return sorted(os.listdir(path))
    with open(path, "rb") as f:
        return f.read()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="paqoc_refusals") as tmp:
        paths = {"dir": os.path.join(tmp, "dir"),
                 "out.json": os.path.join(tmp, "out.json")}
        os.mkdir(paths["dir"])
        for name, body in FILES.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w") as f:
                f.write(body)

        def fill(s):
            return PLACEHOLDER.sub(lambda m: paths[m.group(1)], s)

        for args, pattern, kept in ROWS:
            argv = [cli] + [fill(a) for a in shlex.split(args)]
            before = snapshot(paths[kept]) if kept else None
            run = subprocess.run(argv, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE, text=True)
            line_ok = any(line.startswith(fill(pattern))
                          for line in run.stderr.splitlines())
            kept_ok = kept is None or snapshot(paths[kept]) == before
            if run.returncode != 1 or not line_ok or not kept_ok:
                print(f"check: `{fill(args)}` exited {run.returncode}"
                      + ("" if kept_ok else f", and changed {kept}") + ":")
                sys.stdout.write(run.stderr)
                sys.exit(1)
    print(f"check-refusals: all {len(ROWS)} refusals exit 1 with their "
          "error line")


if __name__ == "__main__":
    main()
