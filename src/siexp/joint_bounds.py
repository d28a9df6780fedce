"""Reliability bounds for joint source-channel coding with decoder side
information.

Flat bounds pair the source exponent with a channel exponent across a digital
interface rate R and minimize the sum: the achievable bound uses the
random-coding exponent, the converse bound the sphere-packing exponent. The
nested bounds additionally pin the source-type marginal Q_A (outer min), let
an adversarial input law S_X respond (max), and only then choose R (inner
min). When the channel's optimal input is rate-independent the nesting
collapses onto the flat bounds; `game_solve` measures how far the max/min
interchange is from exact on a given instance.

The nested bounds, the game and `best_input_for_marginal` read one payoff
table per Q_A from a `NestedEvaluator`, which solves each channel and source
curve once. Build one for (p, W, rate step) and pass it as `evaluator=` to
share its curves across calls; without it every call solves its own, and
nothing is kept between calls.

Rate-grid conventions: flat bounds scan the open interval (0, log2|A|); the
nested grids include R = 0 so a degenerate (point-mass) Q_A contributes its
finite value instead of an artificial infinity. Grid minima report the
smallest achieving rate.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .channel_exponents import (
    capacity,
    critical_rate,
    dual_exponent_curves,
    input_optimized_curves,
    is_gallager_symmetric,
    uniform_input_is_optimal_premise,
)
from .errors import PremiseViolationError
from .numerics import rate_grid, simplex_grid
from .probkit import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    conditional_entropy,
)
from .source_si_exponents import fixed_marginal_dual_curve, source_dual_curves

UNRELIABLE_FLAG = "conditional entropy is at or above capacity; reliable transmission fails"
ALL_INFINITE_FLAG = "source exponent infinite across the whole rate range"


@dataclass(frozen=True)
class JointBoundResult:
    lower: float
    upper: float
    r_star_lower: float | None
    r_star_upper: float | None
    rate_step: float
    kind: str
    q_a_star: Distribution | None = None
    s_x_star: Distribution | None = None
    matched: bool = False
    complete_characterization: bool = False
    reliability_flag: str | None = None


@dataclass(frozen=True)
class MatchingDiagnostics:
    matched: bool
    complete_characterization: bool
    gap: float
    r_star: float | None
    critical_rate: float | None
    exponent: float | None
    encoder_si_equivalent: bool
    result: JointBoundResult


@dataclass(frozen=True)
class SeparateCodingResult:
    value: float
    r_bar: float | None
    channel_value: float
    source_value: float
    rate_step: float


@dataclass(frozen=True)
class SeparationReport:
    separate: float
    joint_lower: float
    margin: float
    case: str
    r_star: float | None
    r_bar: float | None


@dataclass(frozen=True)
class GameReport:
    payoff: str
    maxmin_value: float
    minmax_value: float
    gap: float
    q_a_star: Distribution | None
    s_x_star: Distribution | None
    rate_star: float | None
    worst_inner_gap: float


def _first_finite_min(rates: np.ndarray, vals: np.ndarray):
    finite = np.isfinite(vals)
    if not np.any(finite):
        return math.inf, None
    idx = int(np.argmin(np.where(finite, vals, np.inf)))
    return float(vals[idx]), float(rates[idx])


def _reliability_flag(p: JointDistribution, w: ConditionalDistribution) -> str | None:
    if conditional_entropy(p) >= capacity(w) - 1e-12:
        return UNRELIABLE_FLAG
    return None


def both_si_bounds(
    p: JointDistribution,
    w: ConditionalDistribution,
    rate_step: float = 1e-3,
) -> JointBoundResult:
    """Flat bounds: min over R of (source upper exponent + channel exponent).

    Valid whether or not the encoder sees the side information; the two
    channel exponents give the achievable (random-coding) and converse
    (sphere-packing) ends.
    """
    rates = rate_grid(rate_step, math.log2(p.shape[0]))
    _, eu = source_dual_curves(rates, p)
    er, esp = input_optimized_curves(rates, w)
    with np.errstate(invalid="ignore"):
        lower_vals = eu + er
        upper_vals = eu + esp
    lower, r_lo = _first_finite_min(rates, lower_vals)
    upper, r_up = _first_finite_min(rates, upper_vals)
    flag = _reliability_flag(p, w)
    if flag is None and not np.any(np.isfinite(eu)):
        flag = ALL_INFINITE_FLAG
    return JointBoundResult(
        lower=lower,
        upper=upper,
        r_star_lower=r_lo,
        r_star_upper=r_up,
        rate_step=rate_step,
        kind="flat",
        reliability_flag=flag,
    )


def symmetric_flat_bounds(
    p: JointDistribution,
    w: ConditionalDistribution,
    rate_step: float = 1e-3,
) -> JointBoundResult:
    """Flat bounds guarded by the rate-independent-optimal-input premise.

    Gallager symmetry certifies the premise structurally; otherwise a numeric
    sweep checks that one input law is optimal at every rate, and the call is
    refused if some rate disagrees. The computation itself is the same code
    path as :func:`both_si_bounds`.
    """
    symmetric, _ = is_gallager_symmetric(w)
    if not symmetric:
        holds, offending = uniform_input_is_optimal_premise(w)
        if not holds:
            raise PremiseViolationError(
                f"optimal input law varies with rate (first offence near R = {offending}); "
                "the flat-bound shortcut does not apply"
            )
    return both_si_bounds(p, w, rate_step)


# ---------------------------------------------------------------------------
# nested bounds and the inner game


def _fine_window(point: np.ndarray, span: float) -> np.ndarray:
    """Simplex points at step span / 5 within `span` of `point` in max norm."""
    fine = simplex_grid(len(point), span / 5.0)
    return fine[np.abs(fine - point[None, :]).max(axis=1) <= span + 1e-12]


class NestedEvaluator:
    """Per-input channel curves and per-marginal source curves for one source,
    channel and rate step, solved on first use and kept for the evaluator's
    lifetime."""

    def __init__(self, p: JointDistribution, w: ConditionalDistribution, rate_step: float):
        self.p = p
        self.w = w
        self.rate_step = rate_step
        self.rates = rate_grid(rate_step, math.log2(p.shape[0]), include_zero=True)
        self._channel: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self._source: dict[bytes, np.ndarray] = {}

    def channel(self, s_arr: np.ndarray):
        key = s_arr.tobytes()
        if key not in self._channel:
            self._channel[key] = dual_exponent_curves(self.rates, Distribution(s_arr), self.w)
        return self._channel[key]

    def source(self, qa_arr: np.ndarray):
        key = qa_arr.tobytes()
        if key not in self._source:
            self._source[key] = fixed_marginal_dual_curve(self.rates, self.p, Distribution(qa_arr))
        return self._source[key]

    def payoff(self, qa_arr: np.ndarray, sx_grid: np.ndarray, which: int) -> np.ndarray:
        """(|S_X|, |R|) table of source(Q_A) + channel(S_X)[which], where
        which = 0 is the random-coding and 1 the sphere-packing exponent."""
        return self.source(qa_arr) + np.vstack([self.channel(s)[which] for s in sx_grid])


def _evaluator_for(evaluator, p, w, rate_step) -> NestedEvaluator:
    """The caller's evaluator, checked against (p, W, rate step), or a fresh one."""
    if evaluator is None:
        return NestedEvaluator(p, w, rate_step)
    if (evaluator.p, evaluator.w, evaluator.rate_step) != (p, w, rate_step):
        raise ValueError("evaluator was built for another source, channel or rate step")
    return evaluator


def _max_min(table: np.ndarray, rates: np.ndarray):
    """max over rows of min over R: the value, the first maximizing row and
    its smallest minimizing rate (None when that row is all infinite)."""
    mins = np.where(np.isfinite(table), table, np.inf).min(axis=1)
    s_idx = int(np.argmax(mins))
    val, rate = _first_finite_min(rates, table[s_idx])
    return val, s_idx, rate


def _nested_sweep(ev, qa_step, sx_step, refinement_levels, which, follow_minmax):
    """min over Q_A of the inner max-min (value, Q_A, S_X, rate) and of the
    inner min-max (the same fields), and the largest finite inner gap.

    The first pass sweeps the coarse grids. Each refinement level sweeps Q_A
    windows five times finer around the max-min incumbent (and, with
    `follow_minmax`, around the min-max one) against the coarse S_X grid plus
    a finer window around the max-min S_X.
    """
    sx_coarse = simplex_grid(ev.w.input_size, sx_step)
    qa_grid, sx_grid = simplex_grid(ev.p.shape[0], qa_step), sx_coarse
    qa_span, sx_span = qa_step, sx_step
    worst_inner = 0.0
    for level in range(max(0, refinement_levels) + 1):
        if level:
            if best_maxmin[1] is None:
                break
            centers = [best_maxmin[1]]
            if follow_minmax and best_minmax[1] is not None:
                centers.append(best_minmax[1])
            qa_grid = np.vstack([_fine_window(c, qa_span) for c in centers])
            sx_grid = np.vstack([sx_coarse, _fine_window(best_maxmin[2], sx_span)])
            qa_span /= 5.0
            sx_span /= 5.0
        best_maxmin = best_minmax = (math.inf, None, None, None)
        for qa_arr in qa_grid:
            table = ev.payoff(qa_arr, sx_grid, which)
            maxmin_qa, s_idx, rate = _max_min(table, ev.rates)
            col_max = np.max(table, axis=0)
            r_idx = int(np.argmin(col_max))
            minmax_qa = float(col_max[r_idx])
            if math.isfinite(maxmin_qa) and math.isfinite(minmax_qa):
                worst_inner = max(worst_inner, minmax_qa - maxmin_qa)
            if maxmin_qa < best_maxmin[0]:
                best_maxmin = (maxmin_qa, qa_arr, sx_grid[s_idx], rate)
            if minmax_qa < best_minmax[0]:
                s_at = int(np.argmax(table[:, r_idx]))
                best_minmax = (minmax_qa, qa_arr, sx_grid[s_at], float(ev.rates[r_idx]))
    return best_maxmin, best_minmax, worst_inner


def theorem1_bounds(
    p: JointDistribution,
    w: ConditionalDistribution,
    rate_step: float = 1e-3,
    qa_step: float = 0.05,
    sx_step: float = 0.05,
    refinement_levels: int = 1,
    *,
    evaluator: NestedEvaluator | None = None,
) -> JointBoundResult:
    """Nested bounds min_{Q_A} max_{S_X} min_R of (fixed-marginal source
    exponent + channel exponent), with grid refinement around incumbents.

    Pass an `evaluator` built for (p, w, rate_step) to share its curves with
    other calls; without one, a fresh evaluator serves this call alone."""
    ev = _evaluator_for(evaluator, p, w, rate_step)
    # random-coding term, then sphere-packing term
    (lower, qa_lo, sx_lo, r_lo), (upper, _, _, r_up) = [
        _nested_sweep(ev, qa_step, sx_step, refinement_levels, which, False)[0]
        for which in (0, 1)
    ]
    flag = _reliability_flag(p, w)
    if flag is None and math.isinf(lower) and math.isinf(upper):
        flag = ALL_INFINITE_FLAG
    return JointBoundResult(
        lower=lower,
        upper=upper,
        r_star_lower=r_lo,
        r_star_upper=r_up,
        rate_step=rate_step,
        kind="nested",
        q_a_star=Distribution(qa_lo) if qa_lo is not None else None,
        s_x_star=Distribution(sx_lo) if sx_lo is not None else None,
        reliability_flag=flag,
    )


def game_solve(
    p: JointDistribution,
    w: ConditionalDistribution,
    payoff: str = "random",
    rate_step: float = 1e-3,
    qa_step: float = 0.05,
    sx_step: float = 0.05,
    refinement_levels: int = 1,
    *,
    evaluator: NestedEvaluator | None = None,
) -> GameReport:
    """Analyze the inner (S_X, R) game of the nested bound for each Q_A.

    Reports min over Q_A of the max-min and of the min-max values; their gap
    is zero exactly when the interchange behind the flat-bound collapse is
    legitimate for this instance. The payoff's order of play always favors
    min-max, so gap >= 0 up to rounding. `evaluator` is shared as in
    :func:`theorem1_bounds`.
    """
    if payoff not in ("random", "sphere"):
        raise ValueError("payoff must be 'random' or 'sphere'")
    ev = _evaluator_for(evaluator, p, w, rate_step)
    (maxmin, qa_mm, _, _), (minmax, _, sx_star, rate_star), worst_inner = _nested_sweep(
        ev, qa_step, sx_step, refinement_levels, 0 if payoff == "random" else 1, True
    )
    gap = minmax - maxmin if (math.isfinite(minmax) and math.isfinite(maxmin)) else (
        0.0 if minmax == maxmin else math.inf
    )
    return GameReport(
        payoff=payoff,
        maxmin_value=maxmin,
        minmax_value=minmax,
        gap=gap,
        q_a_star=Distribution(qa_mm) if qa_mm is not None else None,
        s_x_star=Distribution(sx_star) if sx_star is not None else None,
        rate_star=rate_star,
        worst_inner_gap=worst_inner,
    )


def best_input_for_marginal(
    p: JointDistribution,
    w: ConditionalDistribution,
    q_a: Distribution,
    rate_step: float = 0.01,
    sx_step: float = 0.05,
    refinement_levels: int = 1,
    *,
    evaluator: NestedEvaluator | None = None,
) -> tuple[Distribution, float]:
    """Input law maximizing the nested lower-bound payoff for one fixed Q_A.

    This is what the simulator's optimized composition rule evaluates per
    source type before rounding to integer counts. `evaluator` is shared as
    in :func:`theorem1_bounds`.
    """
    ev = _evaluator_for(evaluator, p, w, rate_step)
    sx_grid = simplex_grid(w.input_size, sx_step)
    val, s_idx, _ = _max_min(ev.payoff(q_a.probs, sx_grid, 0), ev.rates)
    s_best = sx_grid[s_idx]
    span = sx_step
    for _ in range(refinement_levels):
        fine = _fine_window(s_best, span)
        fine_val, fine_idx, _ = _max_min(ev.payoff(q_a.probs, fine, 0), ev.rates)
        if fine_val > val:
            val, s_best = fine_val, fine[fine_idx]
        span /= 5.0
    return Distribution(s_best), val


# ---------------------------------------------------------------------------
# matching and separation diagnostics


def matching_check(
    result: JointBoundResult,
    w: ConditionalDistribution,
    matching_tol: float = 1e-4,
) -> MatchingDiagnostics:
    """Decide whether the two bounds pin the exponent down.

    Matched means the bound values agree within tolerance. Complete
    characterization additionally requires the minimizing rate to sit at or
    above the channel's critical rate (within one grid step), where the
    random-coding and sphere-packing exponents provably coincide; in that
    regime the exponent also equals the one with encoder side information.
    """
    lower, upper = result.lower, result.upper
    if math.isinf(lower) and math.isinf(upper):
        matched, gap = True, 0.0
    elif math.isinf(lower) or math.isinf(upper):
        matched, gap = False, math.inf
    else:
        gap = upper - lower
        matched = abs(gap) <= matching_tol

    rc: float | None
    try:
        rc = critical_rate(w, result.rate_step).rate
    except ValueError:
        rc = None

    complete = (
        matched
        and math.isfinite(lower)
        and rc is not None
        and result.r_star_lower is not None
        and result.r_star_lower >= rc - result.rate_step - 1e-12
    )
    exponent = lower if (matched and math.isfinite(lower)) else (math.inf if matched else None)
    updated = dataclasses.replace(result, matched=matched, complete_characterization=complete)
    return MatchingDiagnostics(
        matched=matched,
        complete_characterization=complete,
        gap=gap,
        r_star=result.r_star_lower,
        critical_rate=rc,
        exponent=exponent,
        encoder_si_equivalent=complete,
        result=updated,
    )


def separate_exponent(
    p: JointDistribution,
    w: ConditionalDistribution,
    rate_step: float = 1e-3,
) -> SeparateCodingResult:
    """Best exponent of a separated scheme: max over the interface rate of
    min(channel random-coding exponent, source lower exponent)."""
    upper_edge = max(math.log2(p.shape[0]), math.log2(w.input_size))
    rates = rate_grid(rate_step, upper_edge)
    el, _ = source_dual_curves(rates, p)
    er, _ = input_optimized_curves(rates, w)
    vals = np.minimum(er, el)
    idx = int(np.argmax(vals))
    value = float(vals[idx])
    if value <= 0.0:
        return SeparateCodingResult(
            value=0.0, r_bar=None, channel_value=0.0, source_value=0.0, rate_step=rate_step
        )
    return SeparateCodingResult(
        value=value,
        r_bar=float(rates[idx]),
        channel_value=float(er[idx]),
        source_value=float(el[idx]),
        rate_step=rate_step,
    )


def separate_vs_joint(
    p: JointDistribution,
    w: ConditionalDistribution,
    rate_step: float = 1e-3,
) -> SeparationReport:
    """Compare separate coding against the joint lower bound.

    The case label records where the joint bound's minimizing rate falls
    relative to the separate scheme's operating rate; each case comes with
    its own strict-improvement argument, and `margin` quantifies it.
    """
    flat = both_si_bounds(p, w, rate_step)
    sep = separate_exponent(p, w, rate_step)
    if math.isinf(flat.lower):
        margin = math.inf
    else:
        margin = flat.lower - sep.value
    r_star, r_bar = flat.r_star_lower, sep.r_bar
    if r_star is None or r_bar is None:
        case = "degenerate"
    elif abs(r_star - r_bar) <= rate_step + 1e-12:
        case = "equal_rates"
    elif r_star < r_bar:
        case = "joint_rate_below"
    else:
        case = "joint_rate_above"
    return SeparationReport(
        separate=sep.value,
        joint_lower=flat.lower,
        margin=margin,
        case=case,
        r_star=r_star,
        r_bar=r_bar,
    )
