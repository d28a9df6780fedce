"""Span tracer installed from outside the library.

Every public function defined in a traced ``siexp`` module is replaced by a
wrapper in every ``siexp`` module namespace that holds it, so calls through
names bound at import time (``from .channel_exponents import ...``) are traced
as well. Function-local imports resolve through the defining module at call
time and so pick up the wrapper without extra work.

Spans stay in memory as ``[name, start, end, parent, op, pass]`` rows and are
written once, when the traced process ends. ``derive`` turns them into the
per-layer metrics ``<module>.<function>.<stat>`` and ``<module>.self_s``.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import math
import sys
import time

import numpy as np

# probkit is left out on purpose: its public calls are tiny constructors and
# entropies, and spans around them would swamp the trace.
LAYERS = (
    "cli",
    "scenario",
    "joint_bounds",
    "source_si_exponents",
    "channel_exponents",
    "exact_sim",
    "numerics",
)

# Called hundreds of thousands of times per pass on asymmetric channels; a span
# per call would dominate the traced time, so only calls are counted.
COUNT_ONLY = frozenset({"channel_exponents.gallager_e0"})


def _exact_states(args, _out):
    codebook, p, w = args["codebook"], args["p"], args["w"]
    return (p.shape[0] * p.shape[1] * w.shape[1]) ** codebook.n


# Work counters computed from arguments and return values: (stat, function).
WORK = {
    "numerics.simplex_grid": ("points", lambda _args, out: len(out)),
    "numerics.rate_grid": ("points", lambda _args, out: len(out)),
    "exact_sim.exact_error_probability": ("states", _exact_states),
}

FIELDS = ("name", "start", "end", "parent", "op", "pass")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


class _Unkeyable(Exception):
    """Raised for arguments (callables) whose identity says nothing about the work."""


def _arg_key(value):
    if isinstance(value, np.ndarray):
        digest = hashlib.blake2b(np.ascontiguousarray(value).tobytes(), digest_size=16)
        return ("nd", value.dtype.str, value.shape, digest.digest())
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        return ("f", value.hex())
    if isinstance(value, (tuple, list)):
        return tuple(_arg_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _arg_key(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _arg_key(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, np.generic):
        return ("np", value.dtype.str, value.item())
    raise _Unkeyable(type(value).__name__)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.repeats: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.names: list[str] = []
        self.op: str | None = None
        self.pass_no = 0
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    def start_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self._seen = {}

    def _counting(self, name, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.pass_no == 0:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanning(self, name, fn):
        sig = inspect.signature(fn)
        work = WORK.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cold = self.pass_no == 0
            if cold:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    key = _arg_key(tuple(bound.arguments.items()))
                except _Unkeyable:
                    key = None
                if key is not None:
                    seen = self._seen.setdefault(name, set())
                    if key in seen:
                        self.repeats[name] = self.repeats.get(name, 0) + 1
                    seen.add(key)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, self.pass_no]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None and cold:
                stat_name = f"{name}.{work[0]}"
                self.work[stat_name] = self.work.get(stat_name, 0) + work[1](bound.arguments, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap each layer's public functions in every ``package`` module namespace."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.names.append(name)
                make = self._counting if name in COUNT_ONLY else self._spanning
                wrappers[id(obj)] = make(name, obj)
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def dump(self) -> dict:
        return {
            "fields": list(FIELDS),
            "spans": self.spans,
            "counts": self.counts,
            "repeats": self.repeats,
            "work": self.work,
            "names": self.names,
        }


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile with at least ten
    calls beyond it, falling back to the median when there are too few calls."""
    if not durations:
        return 50.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)
    pct = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    idx = max(0, math.ceil(pct / 100.0 * n) - 1)
    return pct, ordered[idx]


def derive(trace: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from a dumped trace, plus each function's tail percentile.

    Pass 0 is the cold pass; pass 1, run in the same process, gives ``warm_s``.
    Self time is a span's duration minus the durations of its direct children;
    spans nest strictly because the traced process runs one thread.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _pass in spans:
        if parent is not None:
            child_time[parent] += end - start
    per_call: dict[str, list[float]] = {n: [] for n in trace["names"]}
    self_s = dict.fromkeys(trace["names"], 0.0)
    warm_s = dict.fromkeys(trace["names"], 0.0)
    for idx, (name, start, end, _parent, _op, pass_no) in enumerate(spans):
        if pass_no == 0:
            per_call[name].append(end - start)
            self_s[name] += end - start - child_time[idx]
        else:
            warm_s[name] += end - start

    metrics: dict[str, float] = {}
    tail_pct: dict[str, float] = {}
    module_self: dict[str, float] = {}
    for name in trace["names"]:
        module = name.split(".")[0]
        if name in trace["counts"]:
            metrics[f"{name}.calls"] = trace["counts"][name]
            continue
        durations = per_call[name]
        calls = len(durations)
        pct, value = tail(durations)
        tail_pct[name] = pct
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_s"] = sum(durations, 0.0)
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.tail_s"] = value
        metrics[f"{name}.warm_s"] = warm_s[name]
        metrics[f"{name}.repeat_frac"] = trace["repeats"].get(name, 0) / calls if calls else 0.0
        module_self[module] = module_self.get(module, 0.0) + self_s[name]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = module_self.get(layer, 0.0)
    for name in WORK:
        stat = f"{name}.{WORK[name][0]}"
        metrics[stat] = trace["work"].get(stat, 0)
    return metrics, tail_pct
