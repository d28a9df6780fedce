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

The nested bounds and the game read one payoff table per Q_A from a
`NestedEvaluator`, which solves each channel and source curve once;
`best_input_for_marginal` reads its E_0* lattice, one fixed-input Lagrangian
and one payoff row per Q_A, and the flat bounds and separate coding read its
input-optimized and source lattices. Build one for (p, W, rate step) and
pass it as `evaluator=` to share its curves across calls; without it every
call solves its own, and nothing is kept between calls.

Every curve here is the Legendre envelope max_rho [E(rho) - rho R] of one
rho-lattice type of `channel_exponents`. A sphere-packing curve is first known
by its random-coding values, a lower bound float for float, and its tail
lattice (rho >= 1) is solved only when a reduction over the payoff table
could pick an entry it bounds, so the reductions return what the fully
solved table gives.

Rate-grid conventions: flat bounds scan the open interval (0, log2|A|); the
nested grids include R = 0 so a degenerate (point-mass) Q_A contributes its
finite value instead of an artificial infinity. Grid minima report the
smallest achieving rate.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel_exponents
from .channel_exponents import (
    _CC_RHO_UNIT,
    _Curve,
    _curves,
    _fixed_input_lattice,
    _input_optimized_lattice,
    _Lattice,
    capacity,
    critical_rate,
    is_gallager_symmetric,
    uniform_input_is_optimal_premise,
)
from .errors import BudgetError, EvaluatorMismatchError, PremiseViolationError
from .numerics import GRID_POINT_BUDGET, grid_resolution, rate_grid, simplex_grid
from .probkit import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    conditional_entropy,
    entropy_bits,
)
from .source_si_exponents import _fixed_marginal_curves, _source_curves, _source_lattice

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
    *,
    evaluator: NestedEvaluator | None = None,
) -> JointBoundResult:
    """Flat bounds: min over R of (source upper exponent + channel exponent).

    Valid whether or not the encoder sees the side information; the two
    channel exponents give the achievable (random-coding) and converse
    (sphere-packing) ends. `evaluator` is shared as in :func:`theorem1_bounds`.
    """
    rates = rate_grid(rate_step, math.log2(p.shape[0]))
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
    _, eu = ev.source_dual_curves(rates)
    er, esp = ev.input_optimized_curves(rates)
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
    *,
    evaluator: NestedEvaluator | None = None,
) -> JointBoundResult:
    """Flat bounds guarded by the rate-independent-optimal-input premise.

    Gallager symmetry certifies the premise structurally; otherwise a numeric
    sweep checks that one input law is optimal at every rate, and the call is
    refused if some rate disagrees. The computation itself is the same code
    path as :func:`both_si_bounds`, which receives `evaluator`.
    """
    symmetric, _ = is_gallager_symmetric(w)
    if not symmetric:
        holds, offending = uniform_input_is_optimal_premise(w)
        if not holds:
            raise PremiseViolationError(
                f"optimal input law varies with rate (first offence near R = {offending}); "
                "the flat-bound shortcut does not apply"
            )
    return both_si_bounds(p, w, rate_step, evaluator=evaluator)


# ---------------------------------------------------------------------------
# nested bounds and the inner game


def _fine_window(point: np.ndarray, span: float) -> np.ndarray:
    """Simplex points at step span / 5 within `span` of `point` in max norm.

    Only the integer box around `point` is enumerated, in lexicographic
    order, so the points and their order are those of the whole
    ``simplex_grid(len(point), span / 5)`` filtered to the window."""
    res = grid_resolution(span / 5.0)
    lo = np.clip(np.floor((point[:-1] - span) * res) - 1, 0, res).astype(int)
    hi = np.clip(np.ceil((point[:-1] + span) * res) + 1, 0, res).astype(int)
    sizes = (hi - lo + 1).tolist()
    n_points = math.prod(sizes)
    if n_points > GRID_POINT_BUDGET:
        raise BudgetError(
            f"refinement window over {len(point)} cells needs {n_points} points, "
            f"budget is {GRID_POINT_BUDGET}"
        )
    head = np.indices(sizes).reshape(len(sizes), n_points).T + lo
    counts = np.column_stack([head, res - head.sum(axis=1)])
    fine = counts[counts[:, -1] >= 0].astype(float) / res
    return fine[np.abs(fine - point[None, :]).max(axis=1) <= span + 1e-12]


class _Payoff:
    """The (|S_X|, |R|) payoff source(Q_A) + channel(S_X) from the curves'
    current values: an entry is exact unless one of its two curves is
    pending there, and a lower bound on the exact entry otherwise."""

    def __init__(self, source: _Curve, rows: list[_Curve]):
        self.source, self.rows = source, rows
        self._update()

    def _update(self) -> None:
        # summed in place: no second table-sized temporary
        self.table = np.vstack([c.values for c in self.rows])
        self.table += self.source.values
        self.pending = np.vstack([c.pending for c in self.rows])
        self.pending |= self.source.pending
        self.pending &= np.isfinite(self.table)

    def resolve(self, s_idx: int, cols: np.ndarray):
        """Solve the source's tail if it is pending in `cols`, else row
        s_idx's channel tail. Returns the rows that changed: every row, or
        the rows of that channel curve."""
        if self.source.pending[cols].any():
            self.source.resolve()
            self._update()
            return slice(None)
        curve = self.rows[s_idx]
        curve.resolve()
        rows = [i for i, c in enumerate(self.rows) if c is curve]
        self.table[rows] = curve.values + self.source.values
        self.pending[rows] = (curve.pending | self.source.pending) & np.isfinite(self.table[rows])
        return rows

    def max_min_floor(self) -> float:
        """max over rows of min over R of the current entries. No entry falls
        when a tail is solved, so this bounds the exact max-min from below."""
        return float(np.where(np.isfinite(self.table), self.table, np.inf).min(axis=1).max())


class NestedEvaluator:
    """Per-input channel curves, per-marginal source curves and the
    input-optimized and source E_s lattices for one source, channel and rate
    step, solved on first use and kept for the evaluator's lifetime."""

    def __init__(self, p: JointDistribution, w: ConditionalDistribution, rate_step: float):
        self.p = p
        self.w = w
        self.rate_step = rate_step
        self.rates = rate_grid(rate_step, math.log2(p.shape[0]), include_zero=True)
        self._channel: dict[bytes, tuple[_Curve, _Curve]] = {}
        self._source: dict[bytes, _Curve] = {}
        self._source_lagrangian: dict[bytes, np.ndarray] = {}

    def check(self, w: ConditionalDistribution, rate_step: float, p=None) -> None:
        """Refuse a call for another channel or rate step, or for another
        source p when the caller has one."""
        if (self.w, self.rate_step) != (w, rate_step) or (p is not None and self.p != p):
            raise EvaluatorMismatchError(
                "evaluator was built for another source, channel or rate step"
            )

    @classmethod
    def checked_or_new(cls, evaluator, p, w, rate_step) -> NestedEvaluator:
        """The caller's evaluator, checked against (p, W, rate step), or a
        fresh one when it is None."""
        if evaluator is None:
            return cls(p, w, rate_step)
        evaluator.check(w, rate_step, p)
        return evaluator

    @functools.cached_property
    def _optimized_lattice(self) -> _Lattice:
        return _input_optimized_lattice(self.w)

    @functools.cached_property
    def _es_lattice(self) -> _Lattice:
        return _source_lattice(self.p)

    def input_optimized_curves(self, rates: np.ndarray):
        """`input_optimized_curves(rates, w)`, from a lattice solved once."""
        return self._optimized_lattice.curves(rates)

    def source_dual_curves(self, rates: np.ndarray):
        """`source_dual_curves(rates, p)`, from a lattice solved once."""
        return _source_curves(rates, self.p, self._es_lattice)

    def channel(self, s_arr: np.ndarray) -> tuple[_Curve, _Curve]:
        """The random-coding and sphere-packing curves at input law s_arr."""
        if (key := s_arr.tobytes()) not in self._channel:
            self.solve_channels(s_arr[None])
        return self._channel[key]

    def solve_channels(self, sx_grid: np.ndarray) -> None:
        """Solve the random-coding and sphere-packing curves at every input
        law of sx_grid not yet kept, their unit lattices together."""
        todo = {s.tobytes(): s for s in sx_grid if s.tobytes() not in self._channel}
        lattices = [(_fixed_input_lattice(Distribution(s), self.w), self.rates, -0.0, slice(None))
                    for s in todo.values()]
        for key, esp in zip(todo, _curves(lattices)):
            self._channel[key] = (_Curve(esp.values, np.zeros_like(esp.pending), None), esp)

    def source(self, qa_arr: np.ndarray) -> _Curve:
        """The fixed-marginal source curve at Q_A = qa_arr."""
        if (key := qa_arr.tobytes()) not in self._source:
            self.solve_sources(qa_arr[None])
        return self._source[key]

    def solve_sources(self, qa_grid: np.ndarray) -> None:
        """Solve the fixed-marginal source curve at every Q_A of qa_grid not
        yet kept, their unit lattices together."""
        todo = {q.tobytes(): Distribution(q) for q in qa_grid if q.tobytes() not in self._source}
        self._source.update(zip(todo, _fixed_marginal_curves(self.rates, self.p, todo.values())))

    @functools.cached_property
    def _e0_star(self) -> tuple[np.ndarray, np.ndarray]:
        """E_0* and its maximizing laws on the fixed-input unit lattice."""
        return channel_exponents._e0_star_on_lattice(_CC_RHO_UNIT, self.w.matrix)[:2]

    def best_input(self, qa_arr: np.ndarray) -> np.ndarray:
        """The law of :func:`best_input_for_marginal`, G^src kept per Q_A."""
        self.source(qa_arr)  # refuses a Q_A of the wrong size
        if (key := qa_arr.tobytes()) not in self._source_lagrangian:
            kernel = self.p.conditional_rows().matrix
            self._source_lagrangian[key] = channel_exponents._cc_e0_on_lattice(_CC_RHO_UNIT, qa_arr, kernel)[0]
        e0_star, laws = self._e0_star
        return laws[np.argmax(e0_star + self._source_lagrangian[key] - _CC_RHO_UNIT * entropy_bits(qa_arr))]

    def payoff(self, qa_arr: np.ndarray, sx_grid: np.ndarray, which: int) -> _Payoff:
        """Payoff source(Q_A) + channel(S_X)[which] over the rows of sx_grid,
        where which = 0 is the random-coding and 1 the sphere-packing exponent."""
        self.solve_channels(sx_grid)
        return _Payoff(self.source(qa_arr), [self.channel(s)[which] for s in sx_grid])


def _row_mins(table: np.ndarray, pending: np.ndarray):
    """Each row's min over its entries and over its exact (not pending) ones."""
    return np.where(np.isfinite(table), table, np.inf).min(axis=1), np.where(pending, np.inf, table).min(axis=1)


def _max_min(pay: _Payoff, rates: np.ndarray):
    """max over rows of min over R: the value, the first maximizing row and
    its smallest minimizing rate (None when that row is all infinite).

    A row's min lies between the min of its current entries and the min of
    its exact ones. Tails are solved while some row that could still be the
    first maximizer has a pending entry at or below its exact min, and the
    mins of the rows each solve changes are recomputed."""
    mins, exact_mins = _row_mins(pay.table, pay.pending)
    while True:
        live = np.flatnonzero(exact_mins >= mins.max())
        open_ = pay.pending[live] & (pay.table[live] <= exact_mins[live, None])
        rows = np.flatnonzero(open_.any(axis=1))
        if rows.size == 0:
            break
        pick = rows[np.argmax(exact_mins[live[rows]])]
        changed = pay.resolve(live[pick], open_[pick])
        mins[changed], exact_mins[changed] = _row_mins(pay.table[changed], pay.pending[changed])
    s_idx = int(np.argmax(mins))
    val, rate = _first_finite_min(rates, pay.table[s_idx])
    return val, s_idx, rate


def _min_max(pay: _Payoff):
    """min over R of max over rows: the value, the first minimizing rate's
    index and the first row attaining that column's max.

    A column's max is known once none of its entries is pending, or one is
    infinite. Tails are solved while some column whose max is not known has
    a current max at or below the least known one."""
    while True:
        table, pending = pay.table, pay.pending
        col_max = np.max(table, axis=0)
        unknown = pending.any(axis=0) & np.isfinite(col_max)
        cols = np.flatnonzero(unknown & (col_max <= np.where(unknown, np.inf, col_max).min()))
        if cols.size == 0:
            break
        rows = np.flatnonzero(pending[:, cols[0]])
        pay.resolve(rows[np.argmax(table[rows, cols[0]])], cols[:1])
    r_idx = int(np.argmin(col_max))
    return float(col_max[r_idx]), r_idx, int(np.argmax(table[:, r_idx]))


def _nested_sweep(ev, qa_step, sx_step, refinement_levels, which, follow_minmax):
    """min over Q_A of the inner max-min (value, Q_A, S_X, rate) and, with
    `follow_minmax`, of the inner min-max (the same fields) and the largest
    finite inner gap.

    The first pass sweeps the coarse grids. Each refinement level sweeps Q_A
    windows five times finer around the max-min incumbent (and, with
    `follow_minmax`, around the min-max one) against the coarse S_X grid plus
    a finer window around the max-min S_X.

    Without `follow_minmax`, each level visits its Q_A grid best first, by
    the max-min of the payoff's current entries (`_Payoff.max_min_floor`),
    a lower bound on the exact one, and stops at the first Q_A whose bound
    exceeds the incumbent: neither it nor any later one can be the minimum.
    Each visited Q_A is solved exactly and ties go to the first grid index,
    so the result is the grid-order scan's. With `follow_minmax` every Q_A
    is visited in grid order, as the largest inner gap needs them all.
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
        ev.solve_sources(qa_grid)
        keys = np.full(len(qa_grid), -math.inf)
        if not follow_minmax:
            keys = np.array([ev.payoff(q, sx_grid, which).max_min_floor() for q in qa_grid])
        best_at = len(qa_grid)
        for i in np.argsort(keys, kind="stable"):
            if keys[i] > best_maxmin[0]:
                break  # this Q_A's max-min, and every later one's, exceeds the incumbent
            qa_arr = qa_grid[i]
            pay = ev.payoff(qa_arr, sx_grid, which)
            maxmin_qa, s_idx, rate = _max_min(pay, ev.rates)
            if math.isfinite(maxmin_qa) and (maxmin_qa, i) < (best_maxmin[0], best_at):
                best_maxmin, best_at = (maxmin_qa, qa_arr, sx_grid[s_idx], rate), i
            if not follow_minmax:
                continue
            minmax_qa, r_idx, s_at = _min_max(pay)
            if math.isfinite(maxmin_qa) and math.isfinite(minmax_qa):
                worst_inner = max(worst_inner, minmax_qa - maxmin_qa)
            if minmax_qa < best_minmax[0]:
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

    Each grid of marginals is searched best first and cut off once a lower
    bound on a Q_A's value exceeds the best found, so no tail lattice is
    solved for a Q_A that bound rules out; the values, rates, marginal and
    input law are those of the exhaustive scan.

    Pass an `evaluator` built for (p, w, rate_step) to share its curves with
    other calls; without one, a fresh evaluator serves this call alone."""
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
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
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
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
    *,
    evaluator: NestedEvaluator | None = None,
) -> tuple[Distribution, float]:
    """Input law maximizing the nested lower-bound payoff for one fixed Q_A,
    which the optimized codebook rule rounds to counts, and its value: the
    min over the evaluator's rate grid of that law's payoff row.

    Sion's minimax theorem turns min_R [source(Q_A, R) + E_r(R, S)] into
    D(Q_A||P_A) + max_{rho in [0, 1]} [G_S(rho) + G^src(rho) - rho H(Q_A)],
    with G_S and G^src the fixed-input Lagrangians of W at S and of P(B|A) at
    Q_A, and max_S G_S = E_0* (Csiszar 1995): E_0*'s law at the first rho*
    of the fixed-input unit lattice maximizing E_0* + G^src - rho H(Q_A)
    attains the max over S. Ties go to the law E_0*'s solver reaches from the
    uniform law, which is that law at rho* = 0, where every law ties.
    `evaluator` is shared as in :func:`theorem1_bounds`."""
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
    law = ev.best_input(q_a.probs)
    val, _, _ = _max_min(ev.payoff(q_a.probs, law[None], 0), ev.rates)
    return Distribution(law), val


# ---------------------------------------------------------------------------
# matching and separation diagnostics


def matching_check(
    result: JointBoundResult,
    w: ConditionalDistribution,
    matching_tol: float = 1e-4,
    *,
    evaluator: NestedEvaluator | None = None,
) -> MatchingDiagnostics:
    """Decide whether the two bounds pin the exponent down.

    Matched means the bound values agree within tolerance. Complete
    characterization additionally requires the minimizing rate to sit at or
    above the channel's critical rate (within one grid step), where the
    random-coding and sphere-packing exponents provably coincide; in that
    regime the exponent also equals the one with encoder side information.
    `evaluator`, built for W and the result's rate step, is passed to
    :func:`critical_rate`.
    """
    lower, upper = result.lower, result.upper
    if math.isinf(lower) and math.isinf(upper):
        matched, gap = True, 0.0
    elif math.isinf(lower) or math.isinf(upper):
        matched, gap = False, math.inf
    else:
        gap = upper - lower
        matched = abs(gap) <= matching_tol

    try:
        rc = critical_rate(w, result.rate_step, evaluator=evaluator).rate
    except EvaluatorMismatchError:
        raise
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
    *,
    evaluator: NestedEvaluator | None = None,
) -> SeparateCodingResult:
    """Best exponent of a separated scheme: max over the interface rate of
    min(channel random-coding exponent, source lower exponent). `evaluator`
    is shared as in :func:`theorem1_bounds`."""
    upper_edge = max(math.log2(p.shape[0]), math.log2(w.input_size))
    rates = rate_grid(rate_step, upper_edge)
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
    el, _ = ev.source_dual_curves(rates)
    er, _ = ev.input_optimized_curves(rates)
    vals = np.minimum(er, el)
    idx = int(np.argmax(vals))
    value = float(vals[idx])
    if value <= 0.0:
        return SeparateCodingResult(0.0, None, 0.0, 0.0, rate_step)
    return SeparateCodingResult(value, float(rates[idx]), float(er[idx]), float(el[idx]), rate_step)


def separate_vs_joint(
    p: JointDistribution,
    w: ConditionalDistribution,
    rate_step: float = 1e-3,
    *,
    evaluator: NestedEvaluator | None = None,
) -> SeparationReport:
    """Compare separate coding against the joint lower bound.

    The case label records where the joint bound's minimizing rate falls
    relative to the separate scheme's operating rate; each case comes with
    its own strict-improvement argument, and `margin` quantifies it. The
    flat bound and the separate scheme share `evaluator`, or a fresh one.
    """
    ev = NestedEvaluator.checked_or_new(evaluator, p, w, rate_step)
    flat = both_si_bounds(p, w, rate_step, evaluator=ev)
    sep = separate_exponent(p, w, rate_step, evaluator=ev)
    margin = math.inf if math.isinf(flat.lower) else flat.lower - sep.value
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
