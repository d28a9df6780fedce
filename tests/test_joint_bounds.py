"""Tests for the joint source-channel bounds: flat, nested, matching
diagnostics, separate-coding comparison, and the inner min-max game.

Frozen references were produced by independent mpmath/one-dimensional-search
computations on the worked source-channel pair.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siexp import channel_exponents, joint_bounds, scenario
from siexp.channel_exponents import bsc, capacity, critical_rate
from siexp.errors import BudgetError, EvaluatorMismatchError, PremiseViolationError
from siexp.joint_bounds import (
    UNRELIABLE_FLAG,
    NestedEvaluator,
    best_input_for_marginal,
    both_si_bounds,
    game_solve,
    matching_check,
    separate_exponent,
    separate_vs_joint,
    symmetric_flat_bounds,
    theorem1_bounds,
)
from siexp.numerics import simplex_grid
from siexp.probkit import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    conditional_entropy,
    entropy_bits,
)
from siexp.scenario import report, worked_example

WORKED_JOINT = ((0.50, 0.00), (0.05, 0.45))
ASYM_CHANNEL = ((0.9, 0.1), (0.2, 0.8))

# frozen values for the worked pair (source above, channel bsc(0.025))
FLAT_VALUE = 0.22158940485709555
FLAT_R_STAR = 0.481
SEP_VALUE = 0.1121375633193668
SEP_R_BAR = 0.508
SEP_MARGIN = 0.10945184153772874


def worked_pair():
    return JointDistribution(np.array(WORKED_JOINT)), bsc(0.025)


# ---------------------------------------------------------------------------
# flat bounds


def test_flat_bounds_worked_frozen():
    p, w = worked_pair()
    res = both_si_bounds(p, w)
    assert res.kind == "flat"
    assert res.lower == pytest.approx(FLAT_VALUE, abs=1e-12)
    # the two channel curves coincide above the critical rate, and the
    # minimizing rate lands there, so the bounds agree to the last bit
    assert res.upper == res.lower
    assert res.r_star_lower == pytest.approx(FLAT_R_STAR, abs=1e-12)
    assert res.r_star_upper == pytest.approx(FLAT_R_STAR, abs=1e-12)
    assert res.reliability_flag is None


def test_symmetric_flat_guard():
    p, w = worked_pair()
    guarded = symmetric_flat_bounds(p, w)
    plain = both_si_bounds(p, w)
    assert guarded.lower == plain.lower and guarded.upper == plain.upper
    asym = ConditionalDistribution(np.array([[0.9, 0.1], [0.3, 0.7]]))
    with pytest.raises(PremiseViolationError):
        symmetric_flat_bounds(p, asym)


# ---------------------------------------------------------------------------
# nested bounds


def test_nested_dominates_flat_on_worked_pair():
    p, w = worked_pair()
    flat = both_si_bounds(p, w)
    nested = theorem1_bounds(p, w)
    assert nested.kind == "nested"
    # restricting the codebook to per-type compositions can only help the
    # bound, so nested >= flat on both ends
    assert nested.lower >= flat.lower - 1e-9
    assert nested.upper >= flat.upper - 1e-9
    assert nested.upper >= nested.lower - 1e-9
    # and the collapse stays tight
    assert nested.upper - nested.lower <= 1e-2
    assert isinstance(nested.q_a_star, Distribution)
    assert isinstance(nested.s_x_star, Distribution)
    assert nested.reliability_flag is None


def test_nested_bounds_deterministic_across_calls():
    p, w = worked_pair()
    a = theorem1_bounds(p, w)
    b = theorem1_bounds(p, w)
    assert a.lower == b.lower and a.upper == b.upper
    assert a.r_star_lower == b.r_star_lower


def _nested_calls(p, w, rate_step, evaluator=None):
    q_a = Distribution(np.array([0.3, 0.7]))
    return [
        theorem1_bounds(p, w, rate_step, evaluator=evaluator),
        game_solve(p, w, "random", rate_step, evaluator=evaluator),
        game_solve(p, w, "sphere", rate_step, evaluator=evaluator),
        best_input_for_marginal(p, w, q_a, rate_step, evaluator=evaluator),
    ]


@pytest.mark.parametrize("channel", [bsc(0.025), ConditionalDistribution(np.array(ASYM_CHANNEL))])
def test_shared_evaluator_gives_the_fresh_results(channel, monkeypatch):
    p = JointDistribution(np.array(WORKED_JOINT))
    ev = NestedEvaluator(p, channel, 0.1)
    shared = _nested_calls(p, channel, 0.1, ev)
    # dataclass equality compares every field, floats exactly
    assert shared == _nested_calls(p, channel, 0.1)
    # the shared evaluator already holds every curve and tail these calls
    # need; every lattice, unit or tail, channel or source, is solved by one
    # of these, looked up when the solve runs
    solved = []
    for name in ("_cc_e0_on_lattice", "_e0_on_lattice", "_e0_star_on_lattice"):
        real = getattr(channel_exponents, name)
        spy = lambda *args, real=real: solved.append(args) or real(*args)
        monkeypatch.setattr(channel_exponents, name, spy)
    assert _nested_calls(p, channel, 0.1, ev) == shared
    assert solved == []


def _resolve_tails_up_front(monkeypatch):
    """Make every evaluator solve each curve's tail when it builds the curve."""
    channel, source = NestedEvaluator.channel, NestedEvaluator.source

    def eager_channel(self, s_arr):
        curves = channel(self, s_arr)
        curves[1].resolve()
        return curves

    def eager_source(self, qa_arr):
        curve = source(self, qa_arr)
        curve.resolve()
        return curve

    monkeypatch.setattr(NestedEvaluator, "channel", eager_channel)
    monkeypatch.setattr(NestedEvaluator, "source", eager_source)


LAZY_TAIL_CASES = {
    # the worked source over the two benchmark channels, at benchmark-like steps
    "worked-bsc": (WORKED_JOINT, ((0.975, 0.025), (0.025, 0.975)), 0.01, 0.05),
    "worked-asym": (WORKED_JOINT, ASYM_CHANNEL, 0.05, 0.05),
    "ternary-input": (WORKED_JOINT, ((0.9, 0.1), (0.5, 0.5), (0.15, 0.85)), 0.05, 0.1),
    # no output is reachable from every input: E_sp is infinite at low rates
    "zero-entries": (
        ((0.3, 0.1), (0.2, 0.4)), ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)), 0.05, 0.1
    ),
}


@pytest.mark.parametrize("case", list(LAZY_TAIL_CASES))
def test_lazy_tails_give_the_fully_solved_results(case, monkeypatch):
    joint, channel, rate_step, sx_step = LAZY_TAIL_CASES[case]
    p, w = JointDistribution(np.array(joint)), ConditionalDistribution(np.array(channel))
    grids = (rate_step, 0.1, sx_step, 1)
    q_a = Distribution(np.array([0.3, 0.7]))

    def calls(ev):
        return [
            theorem1_bounds(p, w, *grids, evaluator=ev),
            game_solve(p, w, "random", *grids, evaluator=ev),
            game_solve(p, w, "sphere", *grids, evaluator=ev),
            best_input_for_marginal(p, w, q_a, rate_step, evaluator=ev),
        ]

    lazy_ev = NestedEvaluator(p, w, rate_step)
    lazy = calls(lazy_ev)
    curves = [esp for _, esp in lazy_ev._channel.values()] + list(lazy_ev._source.values())
    # the lazy run left some tail unsolved, so the comparison is not vacuous
    assert any(c.pending.any() for c in curves)
    _resolve_tails_up_front(monkeypatch)
    eager_ev = NestedEvaluator(p, w, rate_step)
    # dataclass equality compares every field, floats exactly
    assert calls(eager_ev) == lazy
    if case == "zero-entries":
        assert any(np.isinf(esp.values).any() for _, esp in eager_ev._channel.values())


def _grid_order_sweep(ev, qa_step, sx_step, refinement_levels, which, follow_minmax):
    """Reference for `joint_bounds._nested_sweep`: every Q_A of every level
    solved in grid order, the first strict improvement kept."""
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
            qa_grid = np.vstack([joint_bounds._fine_window(c, qa_span) for c in centers])
            sx_grid = np.vstack([sx_coarse, joint_bounds._fine_window(best_maxmin[2], sx_span)])
            qa_span /= 5.0
            sx_span /= 5.0
        best_maxmin = best_minmax = (math.inf, None, None, None)
        ev.solve_sources(qa_grid)
        for qa_arr in qa_grid:
            pay = ev.payoff(qa_arr, sx_grid, which)
            maxmin_qa, s_idx, rate = joint_bounds._max_min(pay, ev.rates)
            if maxmin_qa < best_maxmin[0]:
                best_maxmin = (maxmin_qa, qa_arr, sx_grid[s_idx], rate)
            if not follow_minmax:
                continue
            minmax_qa, r_idx, s_at = joint_bounds._min_max(pay)
            if math.isfinite(maxmin_qa) and math.isfinite(minmax_qa):
                worst_inner = max(worst_inner, minmax_qa - maxmin_qa)
            if minmax_qa < best_minmax[0]:
                best_minmax = (minmax_qa, qa_arr, sx_grid[s_at], float(ev.rates[r_idx]))
    return best_maxmin, best_minmax, worst_inner


WIDE_CHANNEL = ((0.7, 0.1, 0.2), (0.1, 0.7, 0.2), (0.2, 0.2, 0.6), (0.3, 0.3, 0.4))
MIRROR_JOINT = ((0.45, 0.05), (0.05, 0.45))

SWEEP_ORACLE_CASES = {
    **{case: (joint, channel, (rate_step, 0.1, sx_step, 1))
       for case, (joint, channel, rate_step, sx_step) in LAZY_TAIL_CASES.items()},
    "wide-channel": (WORKED_JOINT, WIDE_CHANNEL, (0.1, 0.1, 0.1, 1)),
    # one source letter: no rate is lossy, so every Q_A's value is infinite
    "one-letter-source": (((0.4, 0.6),), ASYM_CHANNEL, (0.1, 0.1, 0.1, 1)),
    # noiseless: E_sp is infinite below R = 1 at the uniform input, so every
    # sphere-packing value is
    "noiseless-sphere": (WORKED_JOINT, ((1.0, 0.0), (0.0, 1.0)), (0.1, 0.1, 0.1, 1)),
    # 0.5 is on neither Q_A grid: the mirror points tie at 0.4|0.6 and 0.48|0.52
    "mirror-ties": (MIRROR_JOINT, ((0.975, 0.025), (0.025, 0.975)), (0.05, 0.2, 0.1, 1)),
}


@pytest.mark.parametrize("case", list(SWEEP_ORACLE_CASES))
def test_nested_sweep_equals_the_grid_order_scan(case, monkeypatch):
    joint, channel, grids = SWEEP_ORACLE_CASES[case]
    p, w = JointDistribution(np.array(joint)), ConditionalDistribution(np.array(channel))

    def calls():
        return [theorem1_bounds(p, w, *grids), game_solve(p, w, "random", *grids),
                game_solve(p, w, "sphere", *grids)]

    got = calls()
    monkeypatch.setattr(joint_bounds, "_nested_sweep", _grid_order_sweep)
    # dataclass equality compares every field, floats exactly
    assert got == calls()
    nested, _, sphere = got
    if case == "one-letter-source":
        assert nested.q_a_star is None and nested.s_x_star is None
        assert nested.reliability_flag == joint_bounds.ALL_INFINITE_FLAG
    if case == "noiseless-sphere":
        assert (nested.upper, nested.r_star_upper) == (math.inf, None)
        assert sphere.q_a_star is None and math.isinf(sphere.maxmin_value)
    if case == "mirror-ties":
        assert nested.q_a_star == Distribution(np.array([0.48, 0.52]))
        ev = NestedEvaluator(p, w, grids[0])
        sx_grid = simplex_grid(2, grids[2])
        ties = [joint_bounds._max_min(ev.payoff(np.array(q), sx_grid, 0), ev.rates)[0]
                for q in ((0.4, 0.6), (0.6, 0.4))]
        assert ties[0] == ties[1]


def test_best_first_sweep_gives_ties_to_the_first_grid_index():
    # Q_A = (1, 0), last in grid order, has the lowest order key, and its
    # tail raises it to tie (0, 1): it is solved first, yet (0, 1) wins
    sources = {(0.0, 1.0): ([1.0, 3.0], [False, False], []),
               (0.5, 0.5): ([2.0, 3.0], [False, False], []),
               (1.0, 0.0): ([0.0, 3.0], [True, False], [1.0])}

    def payoff(qa_arr, sx_grid, which):
        values, pending, tail = sources[tuple(qa_arr)]
        source = joint_bounds._Curve(np.array(values), np.array(pending), lambda: np.array(tail))
        row = joint_bounds._Curve(np.zeros(2), np.zeros(2, dtype=bool), None)
        return joint_bounds._Payoff(source, [row] * len(sx_grid))

    ev = NestedEvaluator(JointDistribution(np.array(WORKED_JOINT)), bsc(0.1), 0.5)
    ev.solve_sources, ev.payoff = lambda qa_grid: None, payoff
    for sweep in (joint_bounds._nested_sweep, _grid_order_sweep):
        (value, qa_arr, _, rate), _, _ = sweep(ev, 0.5, 0.5, 0, 0, False)
        assert (value, tuple(qa_arr), rate) == (1.0, (0.0, 1.0), 0.0)


# the benchmark pairs: the worked source over both benchmark channels
BENCHMARK_NESTED = [(ASYM_CHANNEL, 0.1), (((0.975, 0.025), (0.025, 0.975)), 1e-3)]


@pytest.mark.parametrize("channel,rate_step", BENCHMARK_NESTED)
def test_nested_bounds_solve_no_whole_tail(channel, rate_step, monkeypatch):
    p, w = JointDistribution(np.array(WORKED_JOINT)), ConditionalDistribution(np.array(channel))
    whole_tails = []
    real = channel_exponents._cc_e0_on_lattice

    def spy(rhos, *args):
        whole_tails.append(np.array_equal(rhos, channel_exponents._CC_RHO_TAIL))
        return real(rhos, *args)

    monkeypatch.setattr(channel_exponents, "_cc_e0_on_lattice", spy)
    theorem1_bounds(p, w, rate_step)
    # a grid-order scan solves 22 and 27 whole tails here, most for Q_A whose
    # lower bound already exceeds the minimum
    assert len(whole_tails) > 0 and sum(whole_tails) == 0


@pytest.mark.parametrize("channel,rate_step", BENCHMARK_NESTED)
def test_nested_sweep_order_keys_bound_the_exact_values(channel, rate_step, monkeypatch):
    p, w = JointDistribution(np.array(WORKED_JOINT)), ConditionalDistribution(np.array(channel))
    keyed = []
    real = joint_bounds._Payoff.max_min_floor

    def spy(pay):
        keyed.append((pay, real(pay)))
        return keyed[-1][1]

    monkeypatch.setattr(joint_bounds._Payoff, "max_min_floor", spy)
    ev = NestedEvaluator(p, w, rate_step)
    theorem1_bounds(p, w, rate_step, evaluator=ev)
    assert keyed
    for pay, key in keyed:
        for curve in [pay.source, *pay.rows]:
            curve.resolve()
        pay._update()
        assert key <= joint_bounds._max_min(pay, ev.rates)[0]


# small integers tie often, which exercises the first-index rules
_tie_values = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_lazy_reductions_match_the_solved_table(data):
    n_rates = data.draw(st.integers(1, 5))
    vector = lambda elements: st.lists(elements, min_size=n_rates, max_size=n_rates).map(np.array)
    specs = []
    for _ in range(data.draw(st.integers(2, 5))):
        lower, pending = data.draw(vector(_tie_values)), data.draw(vector(st.booleans()))
        raised = np.where(pending, lower + data.draw(vector(_tie_values)), lower)
        specs.append((lower, pending, raised))
    # rows may share a curve, as duplicate S_X rows do
    rows = data.draw(st.lists(st.integers(1, len(specs) - 1), min_size=1, max_size=4))
    rates = np.arange(n_rates) * 0.1

    def payoff(solved):
        curves = [joint_bounds._Curve(lo, pend, lambda t=t[pend]: t) for lo, pend, t in specs]
        for c in curves if solved else ():
            c.resolve()
        return joint_bounds._Payoff(curves[0], [curves[i] for i in rows])

    lazy, solved = payoff(False), payoff(True)
    assert joint_bounds._max_min(lazy, rates) == joint_bounds._max_min(solved, rates)
    val, r_idx, s_at = joint_bounds._min_max(solved)
    # the game reduces one payoff by its max-min, then its min-max
    for pay in (lazy, payoff(False)):
        got = joint_bounds._min_max(pay)
        assert got[:2] == (val, r_idx)
        # the row is read only when the min-max is finite
        assert got[2] == s_at or math.isinf(val)


def test_flat_helpers_share_the_evaluator_and_refuse_another():
    p, w = worked_pair()
    asym = ConditionalDistribution(np.array(ASYM_CHANNEL))
    ev = NestedEvaluator(p, asym, 0.1)
    flat = both_si_bounds(p, asym, 0.1, evaluator=ev)
    assert flat == both_si_bounds(p, asym, 0.1)
    assert matching_check(flat, asym, evaluator=ev) == matching_check(flat, asym)
    assert critical_rate(asym, 0.1, evaluator=ev) == critical_rate(asym, 0.1)
    assert separate_exponent(p, asym, 0.1, evaluator=ev) == separate_exponent(p, asym, 0.1)
    assert separate_vs_joint(p, asym, 0.1, evaluator=ev) == separate_vs_joint(p, asym, 0.1)
    other_p = JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]]))
    for args in ((other_p, asym, 0.1), (p, w, 0.1), (p, asym, 0.05)):
        for helper in (both_si_bounds, separate_exponent, separate_vs_joint):
            with pytest.raises(EvaluatorMismatchError, match="evaluator"):
                helper(*args, evaluator=ev)
    # a zero-capacity channel's ValueError is caught by matching_check, the
    # refusal is not
    useless = ConditionalDistribution(np.full((2, 2), 0.5))
    assert matching_check(flat, useless).critical_rate is None
    for channel, step in ((w, 0.1), (asym, 0.05), (useless, 0.1)):
        with pytest.raises(EvaluatorMismatchError, match="evaluator"):
            critical_rate(channel, step, evaluator=ev)
        with pytest.raises(EvaluatorMismatchError, match="evaluator"):
            matching_check(dataclasses.replace(flat, rate_step=step), channel, evaluator=ev)


def test_asymmetric_report_solves_e0_star_once_per_lattice(monkeypatch):
    sc = dataclasses.replace(worked_example(), channel_kind="matrix", channel_param=None,
                             channel_matrix=ASYM_CHANNEL)
    lattices = []
    real = channel_exponents._e0_star_on_lattice

    def spy(rhos, w, *args):
        lattices.append(len(rhos))
        return real(rhos, w, *args)

    monkeypatch.setattr(channel_exponents, "_e0_star_on_lattice", spy)
    report(sc, nested=True, rate_step=0.1)
    assert sorted(lattices) == [len(channel_exponents._RHO_TAIL), len(channel_exponents._RHO_UNIT)]


def test_worked_report_solves_fewer_tails_than_it_holds(monkeypatch):
    held, solved, evaluators = [], [], []

    class Spy(channel_exponents._Curve):
        def __init__(self, values, pending, tail):
            super().__init__(values, pending, tail)
            if self._tail is not None:
                held.append(self)
                self._tail = lambda: solved.append(self) or tail()

    class Recording(NestedEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

    monkeypatch.setattr(channel_exponents, "_Curve", Spy)
    monkeypatch.setattr(scenario, "NestedEvaluator", Recording)
    report(worked_example(), nested=True, rate_step=1e-3)
    # the flat-bound and critical-rate curves solve their tails at once: only
    # the evaluator's payoff curves count
    (ev,) = evaluators
    kept = {id(c) for c in [esp for _, esp in ev._channel.values()] + list(ev._source.values())}
    assert 0 < sum(id(c) in kept for c in solved) < sum(id(c) in kept for c in held)


def test_evaluator_for_another_instance_is_refused():
    p, w = worked_pair()
    ev = NestedEvaluator(p, w, 0.1)
    other_p = JointDistribution(np.array([[0.4, 0.1], [0.1, 0.4]]))
    for args in ((other_p, w, 0.1), (p, bsc(0.05), 0.1), (p, w, 0.05)):
        with pytest.raises(ValueError, match="evaluator"):
            theorem1_bounds(*args, evaluator=ev)
        with pytest.raises(ValueError, match="evaluator"):
            game_solve(args[0], args[1], "random", args[2], evaluator=ev)
        with pytest.raises(ValueError, match="evaluator"):
            best_input_for_marginal(args[0], args[1], Distribution.uniform(2), args[2], evaluator=ev)
    # best_input_for_marginal's default rate step is 0.01, not the evaluator's
    with pytest.raises(ValueError, match="evaluator"):
        best_input_for_marginal(p, w, Distribution.uniform(2), evaluator=ev)


_entries = st.floats(0.0, 1.0)


@pytest.mark.parametrize(
    "center",
    [(0.5, 0.5), (0.95, 0.05), (1.0, 0.0), (0.35, 0.3, 0.35), (0.0, 0.05, 0.95),
     (0.25, 0.25, 0.25, 0.25), (0.0, 0.9, 0.05, 0.05)],
)
def test_fine_window_equals_the_filtered_simplex(center):
    point = np.array(center)
    for span in (0.05, 0.01) if len(point) < 4 else (0.05,):
        fine = simplex_grid(len(point), span / 5.0)
        want = fine[np.abs(fine - point[None, :]).max(axis=1) <= span + 1e-12]
        assert np.array_equal(joint_bounds._fine_window(point, span), want)


def test_fine_window_needs_no_whole_simplex():
    # the whole simplex at step 0.002 over four letters has 21M points
    with pytest.raises(BudgetError):
        simplex_grid(4, 0.002)
    window = joint_bounds._fine_window(np.full(4, 0.25), 0.01)
    assert len(window) == 891 and np.all(np.abs(window - 0.25) <= 0.01 + 1e-12)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    st.lists(_entries, min_size=4, max_size=4),
    st.lists(st.lists(_entries, min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_nested_bounds_and_game_are_ordered_on_random_pairs(source, channel):
    m = np.array(channel)
    assume(sum(source) > 0.05 and np.all(m.sum(axis=1) > 0.05))
    p = JointDistribution(np.array(source).reshape(2, 2) / sum(source))
    w = ConditionalDistribution(m / m.sum(axis=1, keepdims=True))
    # a fresh evaluator per call, on coarse grids without refinement
    grid = dict(rate_step=0.05, qa_step=0.1, sx_step=0.1, refinement_levels=0)
    nested = theorem1_bounds(p, w, **grid)
    assert nested.lower <= nested.upper
    game = game_solve(p, w, "random", **grid)
    assert game.minmax_value >= game.maxmin_value - 1e-9


# ---------------------------------------------------------------------------
# matching diagnostics


def test_matching_check_worked():
    p, w = worked_pair()
    res = both_si_bounds(p, w)
    diag = matching_check(res, w)
    assert diag.matched
    assert diag.gap == 0.0
    assert diag.complete_characterization
    assert diag.encoder_si_equivalent
    assert diag.exponent == pytest.approx(FLAT_VALUE, abs=1e-12)
    assert diag.critical_rate == pytest.approx(0.421, abs=1e-12)
    assert diag.r_star == pytest.approx(FLAT_R_STAR, abs=1e-12)
    assert diag.result.matched and diag.result.complete_characterization


def test_matching_check_detects_gap():
    p, w = worked_pair()
    res = both_si_bounds(p, w)
    import dataclasses

    fake = dataclasses.replace(res, lower=res.lower - 0.01)
    diag = matching_check(fake, w)
    assert not diag.matched
    assert diag.exponent is None


# ---------------------------------------------------------------------------
# separate coding comparison


def test_separate_exponent_worked_frozen():
    p, w = worked_pair()
    sep = separate_exponent(p, w)
    assert sep.value == pytest.approx(SEP_VALUE, abs=1e-9)
    assert sep.r_bar == pytest.approx(SEP_R_BAR, abs=1e-12)
    assert min(sep.channel_value, sep.source_value) == pytest.approx(sep.value, abs=1e-12)


def test_separate_vs_joint_worked_frozen():
    p, w = worked_pair()
    rep = separate_vs_joint(p, w)
    assert rep.margin == pytest.approx(SEP_MARGIN, abs=1e-9)
    assert rep.case == "joint_rate_below"
    assert rep.joint_lower == pytest.approx(FLAT_VALUE, abs=1e-12)
    assert rep.separate == pytest.approx(SEP_VALUE, abs=1e-9)
    assert rep.r_star < rep.r_bar


def test_joint_beats_separate_on_random_reliable_instances():
    rng = np.random.default_rng(41)
    done = 0
    while done < 20:
        m = rng.random((2, 2)) + 0.05
        p = JointDistribution(m / m.sum())
        eps = float(rng.uniform(0.01, 0.12))
        w = bsc(eps)
        if conditional_entropy(p) >= capacity(w) - 0.05:
            continue  # keep a comfortable reliability margin
        rep = separate_vs_joint(p, w, rate_step=2e-3)
        assert rep.margin > 0.0
        done += 1


# ---------------------------------------------------------------------------
# the inner game


def test_game_worked_pair_has_zero_gap():
    p, w = worked_pair()
    g = game_solve(p, w)
    assert g.maxmin_value <= g.minmax_value + 1e-12
    assert 0.0 <= g.gap <= 1e-9
    assert g.worst_inner_gap >= -1e-12
    assert isinstance(g.q_a_star, Distribution)
    assert g.payoff == "random"
    with pytest.raises(ValueError):
        game_solve(p, w, payoff="nope")


def test_best_input_for_marginal_consistent_with_nested_lower():
    p, w = worked_pair()
    nested = theorem1_bounds(p, w)
    q_a = Distribution.uniform(2)
    dist, val = best_input_for_marginal(p, w, q_a, rate_step=1e-3)
    # the nested lower bound minimizes over marginals, so any fixed marginal
    # can only give a larger inner value
    assert val >= nested.lower - 1e-9
    np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=0.03)


def _grid_search_input(ev, qa_arr, sx_grid):
    """Reference for `best_input_for_marginal`: the S_X grid search it
    replaced, without its refinement window. The first law of sx_grid with
    the largest min over the rate grid of the payoff, and that min."""
    val, s_idx, _ = joint_bounds._max_min(ev.payoff(qa_arr, sx_grid, 0), ev.rates)
    return sx_grid[s_idx], val


def _pair(joint, channel):
    return lambda: (JointDistribution(np.array(joint)), ConditionalDistribution(np.array(channel)))


def _reliable_pair(seed, a, b, k, m):
    """A seeded a x b source over a k x m channel, H(A|B) below capacity."""
    def draw():
        rng = np.random.default_rng(seed)
        while True:
            p = JointDistribution(rng.dirichlet(np.full(a * b, 0.5)).reshape(a, b))
            w = ConditionalDistribution(rng.dirichlet(np.full(m, 0.5), size=k))
            if conditional_entropy(p) < capacity(w) - 0.05:
                return p, w
    return draw


TERNARY_JOINT = ((0.30, 0.00), (0.10, 0.20), (0.15, 0.25))
DOMINANCE_PAIRS = {
    "worked-bsc": _pair(WORKED_JOINT, ((0.975, 0.025), (0.025, 0.975))),
    "worked-asym": _pair(WORKED_JOINT, ASYM_CHANNEL),
    "worked-wide": _pair(WORKED_JOINT, WIDE_CHANNEL),
    "worked-ternary-input": _pair(WORKED_JOINT, ((0.9, 0.1), (0.5, 0.5), (0.15, 0.85))),
    "ternary-asym": _pair(TERNARY_JOINT, ASYM_CHANNEL),
    **{f"seeded-{a}x{b}-{k}x{m}": _reliable_pair(100 + i, a, b, k, m)
       for i, (a, b, k, m) in enumerate([(2, 2, 2, 3), (3, 2, 2, 2), (2, 3, 3, 2), (3, 3, 3, 3)])},
}


@pytest.mark.parametrize("case", list(DOMINANCE_PAIRS))
def test_best_input_dominates_every_fine_grid_law(case):
    p, w = DOMINANCE_PAIRS[case]()
    fine = simplex_grid(w.input_size, 0.005 if w.input_size == 2 else 0.02)
    # Only laws that may come near the returned one get whole rows. G_S is
    # concave in rho with slope I(S; W) at 0, so on [rho_k, rho_k + 1/n] it
    # stays below G_S(rho_k) + (the slope of the secant into rho_k) (rho -
    # rho_k); the solver's gaps bound how far its G_S lie above the true ones.
    n = 20
    rhos, g, gap = np.linspace(0.0, 1.0, n + 1), np.empty((len(fine), n + 1)), 0.0
    for support in np.unique(fine > 0.0, axis=0):
        on = np.all((fine > 0.0) == support, axis=1)
        laws = np.repeat(fine[on], n + 1, axis=0)
        vals, _, gaps = channel_exponents._cc_e0_on_lattice(np.tile(rhos, on.sum()), laws, w.matrix, False)
        g[on], gap = vals.reshape(-1, n + 1), max(gap, gaps.max())
    assert gap < 5e-7
    info = entropy_bits(fine @ w.matrix, axis=1) - fine @ entropy_bits(w.matrix, axis=1)
    rise = np.maximum(np.column_stack([info / n, np.diff(g[:, :-1], axis=1)]), 0.0)
    qa_grid = simplex_grid(p.shape[0], 0.25)
    for rate_step in (0.01, 0.001):
        ev = NestedEvaluator(p, w, rate_step)
        for qa_arr in qa_grid[np.all(qa_grid > 0.0, axis=1)]:
            law, val = best_input_for_marginal(p, w, Distribution(qa_arr), rate_step, evaluator=ev)
            # every row's min is at most its entry at the returned row's minimizing rate
            r_idx = np.flatnonzero(ev.payoff(qa_arr, law.probs[None], 0).table[0] == val)[0]
            r_hat, source = ev.rates[r_idx], ev.source(qa_arr).resolve()[r_idx]
            peaks = g - rhos * r_hat
            peaks[:, :-1] += np.maximum(rise - r_hat / n, 0.0)
            near = source + np.maximum(peaks.max(axis=1), 0.0) >= val - 1e-6
            _, oracle = _grid_search_input(ev, qa_arr, fine[near])
            assert oracle <= val + 1e-12


# ---------------------------------------------------------------------------
# unreliable regime


def test_unreliable_flag_when_conditional_entropy_exceeds_capacity():
    p, _ = worked_pair()
    noisy = bsc(0.4)  # capacity ~ 0.029 < H(A|B) ~ 0.242
    flat = both_si_bounds(p, noisy, rate_step=5e-3)
    assert flat.reliability_flag == UNRELIABLE_FLAG
    assert flat.lower == 0.0
    nested = theorem1_bounds(p, noisy, rate_step=0.01, qa_step=0.1, sx_step=0.1)
    assert nested.reliability_flag == UNRELIABLE_FLAG


def test_nested_ties_keep_the_first_input_law_and_smallest_rate():
    # over bsc(0.4) every input law reaches payoff 0, so all S_X rows tie:
    # the first grid law and the smallest minimizing rate are reported
    p, _ = worked_pair()
    noisy = bsc(0.4)
    ev = NestedEvaluator(p, noisy, 0.1)
    first_law = Distribution(np.array([0.0, 1.0]))
    nested = theorem1_bounds(p, noisy, 0.1, 0.1, 0.1, evaluator=ev)
    assert (nested.lower, nested.s_x_star, nested.r_star_lower) == (0.0, first_law, 0.1)
    game = game_solve(p, noisy, "random", 0.1, 0.1, 0.1, evaluator=ev)
    assert (game.maxmin_value, game.s_x_star, game.rate_star) == (0.0, first_law, 0.1)
    best = best_input_for_marginal(p, noisy, Distribution.uniform(2), 0.1, evaluator=ev)
    assert best == (Distribution.uniform(2), 0.0)
