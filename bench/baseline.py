"""Run every workload on several seeds and write the committed baseline.

    python3 bench/baseline.py [--seeds 10] [--first-seed 1] [--workload NAME ...]
                              [--out bench/BENCH_baseline.json] [--compare FILE]

For each workload it makes ``--seeds`` untraced runs, one seed each, then one
traced run on the first seed. For each end-to-end metric it records every
value, the median, the quartiles and the spread (quartile distance over the
median), and prints the spread against the metric's bound in BENCHMARK.json.
It exits with code 1 if any spread, ``setup_s``'s included, reaches a third of
its bound. With ``--compare`` it also prints how far each median moved from the
same workload's median in an earlier record, read both ways (new over old and
old over new), and exits with code 1 if either reading exceeds the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: "))
    return {"env": env, **json.loads(lines[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out", default=str(BENCH / "BENCH_baseline.json"))
    ap.add_argument("--compare", help="an earlier record written by this script")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    passed = True
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k} {v['value']:.4f}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "env": runs[0]["env"],
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            ok = spread < metric["bound"] / 3
            passed = passed and ok
            print(f"{workload} {metric['name']}: median {median:.4f} {metric['unit']}, "
                  f"spread {spread:.4f} (bound {metric['bound']}){'' if ok else '  NOT STEADY'}",
                  flush=True)
            if workload in earlier:
                old = earlier[workload]["end_to_end"][metric["name"]]["median"]
                moved = max(median / old, old / median) - 1.0
                agree = moved <= metric["bound"]
                passed = passed and agree
                print(f"{workload} {metric['name']}: median {median / old - 1.0:+.4f} against "
                      f"{args.compare}{'' if agree else '  BEYOND BOUND'}", flush=True)
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["correct"] = entry["correct"] and traced["correct"]
        record["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
