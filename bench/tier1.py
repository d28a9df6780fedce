"""Record the tier-1 test suite's wall time and its five slowest tests.

    python3 bench/tier1.py [--out bench/BENCH_tier1.json]

This is not a workload and the benchmark never runs it: the suite takes
minutes. It runs the suite once from the repository root with ``src`` on
``PYTHONPATH`` and one BLAS thread, and writes the record as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time

import numpy

from run import ROOT, SRC, environment

DURATION = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)")
SUMMARY = re.compile(r"^=*\s*(.*\d+ passed.*?)\s*=*$")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "bench" / "BENCH_tier1.json"))
    args = ap.parse_args()

    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=5", "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0

    slowest, summary = [], None
    for line in proc.stdout.splitlines():
        if m := DURATION.match(line):
            slowest.append({"test": m.group(3), "phase": m.group(2), "seconds": float(m.group(1))})
        elif m := SUMMARY.match(line):
            summary = m.group(1)
    record = {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "exit_code": proc.returncode,
        "summary": summary,
        "wall_s": wall,
        "slowest": slowest,
        "env": environment(numpy.__version__),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"tier-1: {summary} in {wall:.1f} s (exit {proc.returncode}); slowest:")
    for s in slowest:
        print(f"  {s['seconds']:8.2f} s  {s['phase']:8s} {s['test']}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
