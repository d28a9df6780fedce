"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (``bench/one_pass.py``), so the
library's process-level caches start empty and no number depends on run
order. Pass ``k`` draws its inputs from ``(seed, k)``, so the passes of one
run of ``exact-sim`` sweep different codebooks. With ``--trace 0`` the
run makes passes until the next one would end after ``--seconds``; before
each pass it makes a set-up-only process, so the set-up samples are
spread over the whole run. It prints the end-to-end metrics as medians. With
``--trace 1`` it makes one traced process (a cold pass and a warm pass) amid
untraced passes on the same inputs, two before it and one after, and prints
the per-layer metrics; the spans go to ``bench/out/``. The last line of
standard output is the result as one JSON object; the lines before it are for
people.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("worked-bsc", "asym-matrix", "exact-sim")
SETUP_ONLY = 1  # set-up-only processes before each pass, so setup_s is a median of many
UNTRACED_BEFORE, UNTRACED_AFTER = 2, 1  # untraced passes around the traced one
BUDGET_S = 165.0  # the whole run must end within 180 s


class PassError(RuntimeError):
    pass


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
    }


def spawn(args, mode: str, pass_no: int, workdir: Path, deadline: float,
          spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(BENCH / "one_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--pass", str(pass_no),
        "--workdir", str(workdir), "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass did not finish within the run's time budget") from exc
    if proc.returncode != 0:
        raise PassError(f"{mode} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["siexp_file"]).resolve().is_relative_to(SRC.resolve()):
        raise PassError(f"siexp imported from {result['siexp_file']}, not from {SRC}")
    return result


def measure(args, workdir: Path, deadline: float) -> tuple[dict, list[dict], list[float]]:
    """Make passes until the next, at the median length of those so far, would
    end after ``--seconds``, each preceded by ``SETUP_ONLY`` set-up-only
    processes; return the medians, the passes and every set-up time."""
    passes: list[dict] = []
    setups: list[float] = []
    cycles: list[float] = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        setups += [spawn(args, "setup", len(passes), workdir, deadline)["setup_s"]
                   for _ in range(SETUP_ONLY)]
        passes.append(spawn(args, "run", len(passes), workdir, deadline))
        setups.append(passes[-1]["setup_s"])
        now = time.monotonic()
        cycles.append(now - start)
        if now - t0 + statistics.median(cycles) > args.seconds or now + max(cycles) > deadline:
            break
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    for i, p in enumerate(passes, 1):
        print(f"pass {i}: wall_s {p['wall_s']:.4f} setup_s {p['setup_s']:.4f} "
              f"peak_rss_mb {p['peak_rss_mb']:.1f} failed {len(p['failures'])}/{p['attempted']}")
    print(f"setups (s): {' '.join(f'{s:.4f}' for s in setups)}")
    return metrics, passes, setups


def trace_run(args, workdir: Path, deadline: float) -> tuple[dict, list[dict]]:
    # The untraced passes run pass 0's inputs, as the traced one does, and
    # surround it, so that input cost and slow host drift cancel in the overhead.
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    passes = [spawn(args, "run", 0, workdir, deadline) for _ in range(UNTRACED_BEFORE)]
    traced = spawn(args, "trace", 0, workdir, deadline, spans)
    passes += [spawn(args, "run", 0, workdir, deadline) for _ in range(UNTRACED_AFTER)]
    untraced_wall = statistics.median(p["wall_s"] for p in passes)
    with open(spans, encoding="utf-8") as fh:
        trace = json.load(fh)
    metrics, tail_pct = tracer.derive(trace)
    metrics["trace_overhead_s"] = traced["wall_s"] - untraced_wall
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": untraced_wall,
        "untraced_passes": len(passes),
        "traced_wall_s": traced["wall_s"],
        "warm_wall_s": traced["warm_wall_s"],
        "tail_percentile": tail_pct,
        "metrics": metrics,
        "env": environment(traced["numpy"]),
    }
    with open(OUT / f"trace-{args.workload}-seed{args.seed}-summary.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"untraced wall_s {untraced_wall:.4f} (median of {len(passes)}), "
          f"traced cold {traced['wall_s']:.4f}, traced warm {traced['warm_wall_s']:.4f}; "
          f"spans in {spans.relative_to(ROOT)}")
    busiest = sorted((k[: -len(".self_s")] for k in metrics
                      if k.endswith(".self_s") and k.count(".") == 2 and metrics[k] > 0),
                     key=lambda name: -metrics[name + ".self_s"])[:12]
    for name in busiest:
        print(f"  {name}: calls {metrics[name + '.calls']} self_s {metrics[name + '.self_s']:.4f} "
              f"total_s {metrics[name + '.total_s']:.4f} "
              f"p{tail_pct[name]:g} {metrics[name + '.tail_s']:.4f} "
              f"repeat_frac {metrics[name + '.repeat_frac']:.3f}")
    return metrics, passes + [traced]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "siexp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no siexp sources under {SRC} or no {spec_path.name}; nothing to measure",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, passes = trace_run(args, workdir, deadline)
        else:
            metrics, passes, setups = measure(args, workdir, deadline)
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1

    print("env: " + json.dumps(environment(passes[0]["numpy"]), sort_keys=True))
    if not args.trace:
        print(f"wall_s {metrics['wall_s']:.4f} s (median of {len(passes)} passes)")
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups)} set-ups)")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MiB (median of {len(passes)} passes)")
    print(f"fail_frac {len(failures) / attempted:g} ({len(failures)} of {attempted} operations)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
