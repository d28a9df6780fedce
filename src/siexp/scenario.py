"""Scenario configuration and deterministic text emission.

A scenario bundles one source joint law, one channel, grid settings,
tolerances, and a seed. The on-disk format is flat ``key = value`` lines with
dotted sections, chosen to be hand-editable and diff-friendly:

    source.preset = worked_example        # or source.matrix = 0.5 0.0 ; 0.05 0.45
    channel.kind = bsc                    # bsc | bec | matrix
    channel.param = 0.025                 # for bsc/bec; matrix kind uses channel.matrix
    grids.rate_step = 0.001
    grids.simplex_step = 0.05
    grids.refinement_levels = 1
    tolerances.matching = 0.0001
    sim.rule = uniform                    # uniform | optimized codeword compositions
    sim.n_cap = 8                         # largest blocklength the simulator accepts
    seed = 0

Parsing is strict: unknown keys, duplicate keys, and out-of-range values are
rejected with the offending key named. ``CONFIG_KEYS`` gives each key its type
and range, and parsing, emission and the checks that a ``Scenario`` makes when
it is built all read it. So every scenario that can be built round-trips:
``parse_config(emit_config(s)) == s`` exactly, as ``repr`` round-trips floats.

All emitters in this module produce byte-identical output for a fixed
scenario: numbers are printed with 9 significant digits, infinities as
``inf``, and no timestamps or environment data appear anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel_exponents import (
    bec,
    bsc,
    capacity,
    critical_rate,
    is_gallager_symmetric,
)
from .errors import ConfigError
from .exact_sim import build_codebooks, exact_error_probabilities
from .joint_bounds import (
    NestedEvaluator,
    both_si_bounds,
    game_solve,
    matching_check,
    separate_vs_joint,
    symmetric_flat_bounds,
    theorem1_bounds,
)
from .numerics import rate_grid
from .probkit import ConditionalDistribution, JointDistribution, conditional_entropy

CURVE_COLUMNS = ("R", "e_L", "e_U", "E_r", "E_sp", "e_U_plus_E_r", "e_U_plus_E_sp")

PRESET_SOURCES: dict[str, tuple[tuple[float, ...], ...]] = {
    "worked_example": ((0.50, 0.00), (0.05, 0.45)),
}


# Each config key in emission order, its value's type (a matrix: tuple of row
# tuples) and range: allowed words, or a number's bounds, open at lo for a float.
# Scenario checks the preset name and channel.param's range (by channel.kind).
CONFIG_KEYS: dict[str, tuple[type, tuple]] = {
    "source.preset": (str, ()),
    "source.matrix": (tuple, ()),
    "channel.kind": (str, ("bsc", "bec", "matrix")),
    "channel.param": (float, ()),
    "channel.matrix": (tuple, ()),
    "grids.rate_step": (float, (0.0, 0.5)),
    "grids.simplex_step": (float, (0.0, 0.5)),
    "grids.refinement_levels": (int, (0, 4)),
    "tolerances.matching": (float, (0.0, 1.0)),
    "sim.rule": (str, ("uniform", "optimized")),
    "sim.n_cap": (int, (1, 10)),
    "seed": (int, (0, 2**31 - 1)),
}
_KNOWN_KEYS = frozenset(CONFIG_KEYS)


def _number(typ: type, key: str, token: str):
    try:
        val = typ(token)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {token!r} is not {'an integer' if typ is int else 'a number'}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"key {key!r}: value must be finite, got {token!r}")
    return val


def _parse(key: str, token: str):
    """The value of ``key`` that ``token`` writes; a token that writes no
    value in the key's range raises ConfigError."""
    typ, allowed = CONFIG_KEYS[key]
    if typ is tuple:
        rows = tuple(tuple(_number(float, key, tok) for tok in row.split()) for row in token.split(";"))
        if not all(rows):
            raise ConfigError(f"key {key!r}: empty row")
        if len({len(row) for row in rows}) != 1:
            raise ConfigError(f"key {key!r}: rows have unequal lengths")
        return rows
    if typ is str:
        if allowed and token not in allowed:
            *head, last = allowed
            words = f"{', '.join(head)}{',' if len(head) > 1 else ''} or {last}"
            raise ConfigError(f"key {key!r}: must be {words}, got {token!r}")
        return token
    val = _number(typ, key, token)
    if allowed and not ((allowed[0] < val if typ is float else allowed[0] <= val) and val <= allowed[1]):
        bracket = "(" if typ is float else "["
        raise ConfigError(f"key {key!r}: must lie in {bracket}{allowed[0]}, {allowed[1]}], got {val!r}")
    return val


def _token(typ: type, val) -> str:
    """The config text of a ``typ`` value, a float's as a plain Python float."""
    if typ is tuple:
        return " ; ".join(" ".join(repr(float(v)) for v in row) for row in val)
    return repr(float(val)) if typ is float else str(val)


@dataclass(frozen=True)
class GridSpec:
    rate_step: float = 1e-3
    simplex_step: float = 0.05
    refinement_levels: int = 1


@dataclass(frozen=True)
class Tolerances:
    matching: float = 1e-4


@dataclass(frozen=True)
class SimSpec:
    rule: str = "uniform"
    n_cap: int = 8


_SECTIONS = {"grids": GridSpec, "tolerances": Tolerances, "sim": SimSpec}


def _value(s: Scenario, key: str):
    """The value that ``s`` holds for the config ``key``."""
    section, _, name = key.partition(".")
    return getattr(getattr(s, section), name) if section in _SECTIONS else getattr(s, key.replace(".", "_"))


@dataclass(frozen=True)
class Scenario:
    """One source/channel pair with its grids, tolerances and seed. Building
    one refuses what parse_config refuses, with the same ConfigError, and any
    value that its config text reads back as another (a matrix must be a tuple
    of row tuples), so parse_config(emit_config(s)) == s for every Scenario."""

    source_preset: str | None = None
    source_matrix: tuple[tuple[float, ...], ...] | None = None
    channel_kind: str | None = None
    channel_param: float | None = None
    channel_matrix: tuple[tuple[float, ...], ...] | None = None
    grids: GridSpec = field(default_factory=GridSpec)
    tolerances: Tolerances = field(default_factory=Tolerances)
    sim: SimSpec = field(default_factory=SimSpec)
    seed: int = 0

    def __post_init__(self):
        if (self.source_preset is None) == (self.source_matrix is None):
            raise ConfigError("exactly one of source.preset / source.matrix is required")
        if self.source_preset not in (None, *PRESET_SOURCES):
            raise ConfigError(
                f"unknown source preset {self.source_preset!r}; available: {sorted(PRESET_SOURCES)}"
            )
        for key, (typ, _) in CONFIG_KEYS.items():
            val = _value(self, key)
            if val is None and key.startswith(("source.", "channel.")):
                continue
            if _parse(key, _token(typ, val)) != val:
                raise ConfigError(f"key {key!r}: {val!r} is not a {typ.__name__}")
        kind, param = self.channel_kind, self.channel_param
        hi = {"bsc": 0.5, "bec": 1.0}.get(kind)
        if hi is not None and param is not None and not 0.0 <= param <= hi:
            raise ConfigError(f"key 'channel.param': {kind} needs a value in [0, {hi}], got {param!r}")
        if kind is None:
            raise ConfigError("channel.kind is required")
        needed, refused = ("matrix", "param") if kind == "matrix" else ("param", "matrix")
        if getattr(self, f"channel_{needed}") is None:
            raise ConfigError(f"channel.kind = {kind} requires channel.{needed}")
        if getattr(self, f"channel_{refused}") is not None:
            raise ConfigError(f"channel.{refused} is not accepted with channel.kind = {kind}")
        try:
            self.source_joint()
            self.channel_kernel()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def source_joint(self) -> JointDistribution:
        if self.source_preset is not None:
            return JointDistribution(np.array(PRESET_SOURCES[self.source_preset]))
        return JointDistribution(np.array(self.source_matrix))

    def channel_kernel(self) -> ConditionalDistribution:
        if self.channel_kind == "bsc":
            return bsc(self.channel_param)
        if self.channel_kind == "bec":
            return bec(self.channel_param)
        return ConditionalDistribution(np.array(self.channel_matrix))

    def source_label(self) -> str:
        if self.source_preset is not None:
            return self.source_preset
        rows = len(self.source_matrix)
        cols = len(self.source_matrix[0])
        return f"matrix {rows}x{cols}"

    def channel_label(self) -> str:
        if self.channel_kind in ("bsc", "bec"):
            return f"{self.channel_kind}({float(self.channel_param)!r})"
        rows = len(self.channel_matrix)
        cols = len(self.channel_matrix[0])
        return f"matrix {rows}x{cols}"


def worked_example() -> Scenario:
    """The running example pair: a 2x2 source with one zero cell and a binary
    symmetric channel with crossover 0.025."""
    return Scenario(source_preset="worked_example", channel_kind="bsc", channel_param=0.025)


# ---------------------------------------------------------------------------
# config parsing


def parse_config(text: str) -> Scenario:
    """Parse the documented key-value schema; any problem raises ConfigError."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in _KNOWN_KEYS:
            raise ConfigError(
                f"unknown key {key!r}; known keys: {', '.join(sorted(_KNOWN_KEYS))}"
            )
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: key {key!r} has an empty value")
        entries[key] = value

    top, parts = {}, {section: {} for section in _SECTIONS}
    for key, token in entries.items():
        section, _, name = key.partition(".")
        into, name = (parts[section], name) if section in parts else (top, key.replace(".", "_"))
        into[name] = _parse(key, token)
    return Scenario(**top, **{section: part(**parts[section]) for section, part in _SECTIONS.items()})


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def emit_config(s: Scenario) -> str:
    """Canonical config text; parse_config(emit_config(s)) == s for every Scenario."""
    lines = []
    for key, (typ, _) in CONFIG_KEYS.items():
        val = _value(s, key)
        if val is not None:
            lines.append(f"{key} = {_token(typ, val)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# emission helpers


def format_number(v: float) -> str:
    """9 significant digits, 'inf' for infinities, '0' for signed zeros."""
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if v == 0:
        return "0"
    return format(float(v), ".9g")


def _fmt_opt(v: float | None) -> str:
    return "none" if v is None else format_number(v)


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def parse_curve_table(text: str) -> dict[str, np.ndarray]:
    """Read a curve table back into column arrays; '#' lines are skipped."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in rows[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


def curve_table(
    scenario: Scenario,
    rate_step: float | None = None,
    *,
    evaluator: NestedEvaluator | None = None,
) -> str:
    """One row per grid rate with the source, channel, and summed exponents.
    The curves come from ``evaluator``'s source and input-optimized lattices
    when one built for the scenario's pair and this rate step is passed."""
    p = scenario.source_joint()
    w = scenario.channel_kernel()
    step = scenario.grids.rate_step if rate_step is None else rate_step
    rates = rate_grid(step, math.log2(p.shape[0]))
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, step)
    el, eu = ev.source_dual_curves(rates)
    er, esp = ev.input_optimized_curves(rates)
    sum_r = eu + er
    sum_sp = eu + esp
    lines = [",".join(CURVE_COLUMNS)]
    for k in range(len(rates)):
        row = (rates[k], el[k], eu[k], er[k], esp[k], sum_r[k], sum_sp[k])
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def report(scenario: Scenario, nested: bool = False, rate_step: float | None = None) -> str:
    """Structured text summary, stable key order.

    Without ``nested`` the flat bounds are presented on their own, which
    implicitly claims the rate-independent-optimal-input collapse, so the
    premise is verified first and its violation propagates to the caller.
    With ``nested`` the full triple optimization runs alongside the flat
    bounds and no premise is needed.
    """
    p = scenario.source_joint()
    w = scenario.channel_kernel()
    step = scenario.grids.rate_step if rate_step is None else rate_step
    g = scenario.grids
    tol = scenario.tolerances
    lines: list[str] = []

    def add(key: str, value: str) -> None:
        lines.append(f"{key}: {value}")

    add("source", scenario.source_label())
    add("channel", scenario.channel_label())
    add("conditional_entropy", format_number(conditional_entropy(p)))
    add("capacity", format_number(capacity(w)))
    symmetric, _ = is_gallager_symmetric(w)
    add("gallager_symmetric", _fmt_bool(symmetric))
    # every bound below reads its curves from one evaluator
    ev = NestedEvaluator(p, w, step)
    try:
        add("critical_rate", format_number(critical_rate(w, step, evaluator=ev).rate))
    except (ValueError, RuntimeError) as exc:
        add("critical_rate", f"undefined ({exc})")

    if nested:
        flat = both_si_bounds(p, w, step, evaluator=ev)
    else:
        flat = symmetric_flat_bounds(p, w, step, evaluator=ev)
    add("reliability", flat.reliability_flag or "ok")
    add("flat_lower", format_number(flat.lower))
    add("flat_lower_rate", _fmt_opt(flat.r_star_lower))
    add("flat_upper", format_number(flat.upper))
    add("flat_upper_rate", _fmt_opt(flat.r_star_upper))

    diag = matching_check(flat, w, tol.matching, evaluator=ev)
    add("matched", _fmt_bool(diag.matched))
    add("matching_gap", format_number(diag.gap))
    add("complete_characterization", _fmt_bool(diag.complete_characterization))
    add("joint_exponent", _fmt_opt(diag.exponent) if diag.exponent is not None else "undetermined")
    add("encoder_si_equivalent", _fmt_bool(diag.encoder_si_equivalent))
    if diag.complete_characterization:
        add(
            "exponent_statement",
            "bounds coincide at a rate at or above the critical rate; the exponent "
            "is exact and equals e_U(R*) + E_r(R*), so encoder side information "
            "cannot improve it",
        )

    grids = (step, g.simplex_step, g.simplex_step, g.refinement_levels)
    if nested:
        nb = theorem1_bounds(p, w, *grids, evaluator=ev)
        add("nested_lower", format_number(nb.lower))
        add("nested_lower_rate", _fmt_opt(nb.r_star_lower))
        add("nested_upper", format_number(nb.upper))
        add("nested_upper_rate", _fmt_opt(nb.r_star_upper))
        qa = "none" if nb.q_a_star is None else " ".join(format_number(v) for v in nb.q_a_star.probs)
        sx = "none" if nb.s_x_star is None else " ".join(format_number(v) for v in nb.s_x_star.probs)
        add("nested_qa_star", qa)
        add("nested_sx_star", sx)
        for name, nested_v, flat_v in (
            ("nested_minus_flat_lower", nb.lower, flat.lower),
            ("nested_minus_flat_upper", nb.upper, flat.upper),
        ):
            if math.isfinite(nested_v) and math.isfinite(flat_v):
                add(name, format_number(nested_v - flat_v))
            else:
                add(name, "0" if nested_v == flat_v else "inf")

    sep = separate_vs_joint(p, w, step, evaluator=ev)
    add("separate_exponent", format_number(sep.separate))
    add("separate_rate", _fmt_opt(sep.r_bar))
    add("separation_margin", format_number(sep.margin))
    add("separation_case", sep.case)

    game = game_solve(p, w, "random", *grids, evaluator=ev)
    add("game_maxmin", format_number(game.maxmin_value))
    add("game_minmax", format_number(game.minmax_value))
    add("game_gap", format_number(game.gap))
    add("game_worst_inner_gap", format_number(game.worst_inner_gap))
    return "\n".join(lines) + "\n"


def simulate_table(
    scenario: Scenario,
    n: int,
    decoders: tuple[str, ...] = ("mmi", "map"),
    seed_count: int = 5,
) -> str:
    """Exact per-seed error probabilities plus min/median/max aggregates.

    Seeds are scenario.seed, scenario.seed + 1, ... so distinct counts share
    their prefix rows.
    """
    p = scenario.source_joint()
    w = scenario.channel_kernel()
    lines = [
        f"# n: {n}",
        f"# rule: {scenario.sim.rule}",
        "seed,decoder,error_probability,empirical_exponent",
    ]
    results: dict[str, list] = {d: [] for d in decoders}
    seeds = range(scenario.seed, scenario.seed + seed_count)
    codebooks = build_codebooks(n, p, w, scenario.sim.rule, seeds, scenario.sim.n_cap)
    for seed, by_decoder in zip(seeds, exact_error_probabilities(codebooks, p, w, decoders)):
        for d, res in by_decoder.items():
            results[d].append(res)
            lines.append(
                f"{seed},{d},{format_number(res.error_probability)},"
                f"{format_number(res.empirical_exponent)}"
            )
    # statistics.median's float, without importing statistics (and fractions, decimal, random)
    median = lambda v: ((s := sorted(v))[(len(s) - 1) // 2] + s[len(s) // 2]) / 2
    for d in decoders:
        pes = [r.error_probability for r in results[d]]
        exps = [r.empirical_exponent for r in results[d]]
        for label, agg in (("min", min), ("median", median), ("max", max)):
            lines.append(
                f"{label},{d},{format_number(agg(pes))},{format_number(agg(exps))}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canned figure reproductions on the worked-example pair


def reproduce_fig1(rate_step: float = GridSpec.rate_step, *, evaluator: NestedEvaluator | None = None) -> str:
    """Curve table for the worked-example pair with the summary rates noted.
    Its channel curves read one evaluator, ``evaluator`` when passed."""
    sc = worked_example()
    p = sc.source_joint()
    w = sc.channel_kernel()
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
    header = [
        f"# conditional_entropy: {format_number(conditional_entropy(p))}",
        f"# capacity: {format_number(capacity(w))}",
        f"# critical_rate: {format_number(critical_rate(w, rate_step, evaluator=ev).rate)}",
    ]
    return "\n".join(header) + "\n" + curve_table(sc, rate_step, evaluator=ev)


def reproduce_fig2(rate_step: float = GridSpec.rate_step, *, evaluator: NestedEvaluator | None = None) -> str:
    """Curve table for the worked-example pair annotated with the bound minima,
    the matching verdict, and the separate-coding comparison. Its channel
    curves read one evaluator, ``evaluator`` when passed."""
    sc = worked_example()
    p = sc.source_joint()
    w = sc.channel_kernel()
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
    flat = both_si_bounds(p, w, rate_step, evaluator=ev)
    diag = matching_check(flat, w, sc.tolerances.matching, evaluator=ev)
    sep = separate_vs_joint(p, w, rate_step, evaluator=ev)
    header = [
        f"# flat_lower: {format_number(flat.lower)}",
        f"# flat_lower_rate: {_fmt_opt(flat.r_star_lower)}",
        f"# flat_upper: {format_number(flat.upper)}",
        f"# flat_upper_rate: {_fmt_opt(flat.r_star_upper)}",
        f"# matched: {_fmt_bool(diag.matched)}",
        f"# complete_characterization: {_fmt_bool(diag.complete_characterization)}",
        f"# critical_rate: {_fmt_opt(diag.critical_rate)}",
        f"# joint_exponent: {_fmt_opt(diag.exponent) if diag.exponent is not None else 'undetermined'}",
        f"# separate_exponent: {format_number(sep.separate)}",
        f"# separate_rate: {_fmt_opt(sep.r_bar)}",
        f"# separation_margin: {format_number(sep.margin)}",
    ]
    return "\n".join(header) + "\n" + curve_table(sc, rate_step, evaluator=ev)
