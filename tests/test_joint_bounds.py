"""Tests for the joint source-channel bounds: flat, nested, matching
diagnostics, separate-coding comparison, and the inner min-max game.

Frozen references were produced by independent mpmath/one-dimensional-search
computations on the worked source-channel pair.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siexp import joint_bounds
from siexp.channel_exponents import bsc, capacity
from siexp.errors import PremiseViolationError
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
from siexp.probkit import ConditionalDistribution, Distribution, JointDistribution, conditional_entropy

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
    # the shared evaluator already holds every curve these calls need
    solved = []
    real = joint_bounds.dual_exponent_curves

    def spy(*args):
        solved.append(args)
        return real(*args)

    monkeypatch.setattr(joint_bounds, "dual_exponent_curves", spy)
    assert _nested_calls(p, channel, 0.1, ev) == shared
    assert solved == []


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
    best = best_input_for_marginal(p, noisy, Distribution.uniform(2), 0.1, 0.1, evaluator=ev)
    assert best == (first_law, 0.0)
