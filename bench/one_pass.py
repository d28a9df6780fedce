"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 bench/one_pass.py --workload NAME --seed N --pass K --workdir DIR --mode MODE

Set-up is timed inside this process, from just before ``import numpy`` and
``import siexp`` to the end of building the workload's inputs (config files,
random instances); interpreter start is left out. ``setup`` mode stops there.
``run`` then times the operations from the start of the first to the end of
the last and checks their outputs afterwards. ``trace`` installs the span
tracer, runs a cold pass and a warm pass in this process and writes the spans
to ``--spans``. ``bench/run.py`` starts this script with ``src`` on
``PYTHONPATH`` and one BLAS thread.
"""
import argparse
import json
import resource
import sys
import time
import traceback

SETUP_START = time.perf_counter()

import numpy  # noqa: E402  (imports from here on are part of set-up)

import siexp  # noqa: E402

import workloads  # noqa: E402


def run_pass(ops, trace=None, pass_no=0):
    """Run every operation, then check every output.

    Returns (wall seconds, one string per failed operation)."""
    if trace is not None:
        trace.start_pass(pass_no)
    outputs, results = {}, []
    t0 = time.perf_counter()
    for op in ops:
        if trace is not None:
            trace.op = op.name
        try:
            out, err = op.call(), None
        except Exception as exc:  # an operation's error is an outcome to check
            out, err = None, exc
        outputs[op.name] = out
        results.append((op, out, err))
    wall = time.perf_counter() - t0
    if trace is not None:
        trace.op = None

    failures = []
    for op, out, err in results:
        if op.expect is not None:
            if not isinstance(err, op.expect):
                got = "no error" if err is None else repr(err)
                failures.append(f"{op.name}: expected {op.expect.__name__}, got {got}")
            continue
        if err is not None:
            failures.append(f"{op.name}: {err!r}")
            continue
        try:
            problems = op.check(out, outputs)
        except Exception:  # a malformed output fails its check
            problems = [traceback.format_exc(limit=1).strip().splitlines()[-1]]
        if problems:
            failures.append(f"{op.name}: {'; '.join(problems)}")
    return wall, failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", type=int, required=True, dest="pass_no",
                    help="index of the pass within the run; with the seed it fixes the inputs")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    rng = numpy.random.default_rng((args.seed, args.pass_no))
    ops = workloads.WORKLOADS[args.workload](rng, args.workdir)
    result = {"setup_s": time.perf_counter() - SETUP_START}
    if args.mode == "run":
        wall, failures = run_pass(ops)
        result.update(wall_s=wall, attempted=len(ops), failures=failures)
    elif args.mode == "trace":
        import tracer  # only traced processes pay for the tracer

        trace = tracer.Tracer()
        trace.install(siexp)
        wall, failures = run_pass(ops, trace, 0)
        warm_wall, warm_failures = run_pass(ops, trace, 1)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(trace.dump(), fh)
        result.update(
            wall_s=wall,
            warm_wall_s=warm_wall,
            attempted=2 * len(ops),
            failures=failures + [f"warm {f}" for f in warm_failures],
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    result["siexp_file"] = siexp.__file__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
