"""Tests for source-coding exponents with decoder side information.

Frozen references were computed independently with mpmath at 40 digits
(tilted-family parametrizations and high-precision ternary search).
"""
import math

import numpy as np
import pytest

from siexp.probkit import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    compose,
    conditional_entropy,
    entropy,
    kl_divergence,
)
from siexp.numerics import rate_grid
from siexp.source_si_exponents import (
    duality_check,
    e_lower,
    e_upper,
    e_upper_dual,
    e_upper_fixed_marginal,
    fixed_marginal_dual_curve,
    independent_si_exponent,
    source_dual_curves,
    source_gallager_function,
    source_primal_curves,
)

WORKED_JOINT = ((0.50, 0.00), (0.05, 0.45))

# mpmath oracles
ES_RHO1_WORKED = 0.39640916116311378819
H_COND_WORKED = 0.24172334280683231697
EU_048_WORKED = 0.087897395940161120164
# e_upper with the A-marginal pinned to (0.49, 0.51) at rate 0.48 splits into
# the marginal mismatch KL plus the kernel sphere-packing value:
D_MARG_4951 = 0.0002885582471900803
EFM_048_WORKED_4951 = 0.0880144006949032403


def worked():
    return JointDistribution(np.array(WORKED_JOINT))


# ---------------------------------------------------------------------------
# Gallager source function


def test_source_gallager_function_frozen():
    p = worked()
    assert source_gallager_function(1.0, p) == pytest.approx(ES_RHO1_WORKED, abs=1e-14)
    assert source_gallager_function(0.0, p) == 0.0
    with pytest.raises(ValueError):
        source_gallager_function(-1.0, p)


def test_source_gallager_slope_at_zero_is_conditional_entropy():
    p = worked()
    h = 1e-5
    slope = (
        4.0 * source_gallager_function(h, p) - source_gallager_function(2.0 * h, p)
    ) / (2.0 * h)
    assert slope == pytest.approx(H_COND_WORKED, abs=1e-6)


# ---------------------------------------------------------------------------
# per-rate exponents


def test_e_lower_zero_at_and_below_conditional_entropy():
    p = worked()
    assert e_lower(0.1, p, method="gallager_dual").value == pytest.approx(0.0, abs=1e-12)
    assert e_lower(H_COND_WORKED, p, method="gallager_dual").value == pytest.approx(
        0.0, abs=1e-9
    )
    assert e_lower(0.5, p, method="gallager_dual").value > 0.0
    with pytest.raises(ValueError):
        e_lower(-0.2, p)


def test_e_upper_dual_frozen():
    res = e_upper_dual(0.48, worked())
    assert res.value == pytest.approx(EU_048_WORKED, abs=1e-10)
    assert not res.diverged


def test_e_upper_infinite_at_log_alphabet():
    p = worked()
    assert e_upper_dual(1.0, p).value == math.inf
    assert e_upper_dual(1.0, p).diverged
    assert e_upper(1.0, p).value == math.inf
    assert independent_si_exponent(1.0, Distribution.uniform(2)).value == math.inf


def test_e_upper_primal_vs_dual_sandwich():
    p = worked()
    for r in (0.3, 0.48, 0.6):
        dual = e_upper_dual(r, p).value
        primal = e_upper(r, p, grid_step=0.005, refine=False).value
        assert primal >= dual - 1e-9  # grid restricts the minimization
        assert primal - dual <= 5e-3
        refined = e_upper(r, p, grid_step=0.01).value
        assert dual - 1e-9 <= refined <= primal + 1e-12


def test_e_upper_dominates_e_lower():
    p = worked()
    for r in (0.3, 0.45, 0.6, 0.8):
        lo = e_lower(r, p, method="gallager_dual").value
        hi = e_upper_dual(r, p).value
        assert hi >= lo - 1e-12


def test_primal_vs_dual_on_random_joints():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.random((2, 2)) + 0.05
        p = JointDistribution(m / m.sum())
        hc = conditional_entropy(p)
        r = float(hc + (1.0 - hc) * rng.uniform(0.2, 0.8))
        dual = e_upper_dual(r, p).value
        primal = e_upper(r, p, grid_step=0.005, refine=False).value
        assert primal >= dual - 1e-9
        assert primal - dual <= 5e-3
        lo_dual = e_lower(r, p, method="gallager_dual").value
        lo_primal = e_lower(r, p, method="primal_grid", grid_step=0.005).value
        assert lo_primal >= lo_dual - 1e-9
        assert lo_primal - lo_dual <= 5e-3


# ---------------------------------------------------------------------------
# whole curves


def test_source_dual_curves_consistency():
    p = worked()
    rates = rate_grid(0.01, 1.0)
    el, eu = source_dual_curves(rates, p)
    assert np.all(eu >= el - 1e-12)
    below = rates <= H_COND_WORKED
    assert np.all(el[below] == 0.0)
    assert np.all(eu[np.isfinite(eu)] >= 0.0)
    # both are nondecreasing in the rate
    fin = np.isfinite(eu)
    assert np.all(np.diff(el) >= -1e-12)
    assert np.all(np.diff(eu[fin]) >= -1e-12)
    # the constrained form diverges at the log-alphabet edge
    assert eu[-1] == math.inf
    # spot agreement with the per-rate calls
    i = int(np.argmin(np.abs(rates - 0.48)))
    assert eu[i] == pytest.approx(e_upper_dual(float(rates[i]), p).value, abs=1e-9)
    assert el[i] == pytest.approx(
        e_lower(float(rates[i]), p, method="gallager_dual").value, abs=1e-9
    )


def test_source_primal_curves_match_per_rate():
    p = worked()
    rates = np.array([0.3, 0.5])
    el, eu = source_primal_curves(rates, p, grid_step=0.02)
    for i, r in enumerate(rates):
        assert el[i] == pytest.approx(
            e_lower(float(r), p, method="primal_grid", grid_step=0.02).value, abs=1e-12
        )
        assert eu[i] == pytest.approx(
            e_upper(float(r), p, method="primal_grid", grid_step=0.02, refine=False).value,
            abs=1e-12,
        )


# ---------------------------------------------------------------------------
# fixed A-marginal variant


def test_e_upper_fixed_marginal_frozen():
    p = worked()
    q_a = Distribution(np.array([0.49, 0.51]))
    res = e_upper_fixed_marginal(0.48, p, q_a, method="gallager_dual")
    assert res.value == pytest.approx(EFM_048_WORKED_4951, abs=1e-9)


def test_e_upper_fixed_marginal_dominates_unconstrained():
    p = worked()
    rng = np.random.default_rng(31)
    for _ in range(8):
        qa0 = float(rng.uniform(0.15, 0.85))
        q_a = Distribution(np.array([qa0, 1.0 - qa0]))
        r = float(rng.uniform(0.3, 0.7))
        pinned = e_upper_fixed_marginal(r, p, q_a, method="gallager_dual").value
        free = e_upper_dual(r, p).value
        assert pinned >= free - 1e-9


def test_e_upper_fixed_marginal_primal_vs_dual():
    p = worked()
    q_a = Distribution(np.array([0.49, 0.51]))
    for r in (0.35, 0.48):
        dual = e_upper_fixed_marginal(r, p, q_a, method="gallager_dual").value
        primal = e_upper_fixed_marginal(r, p, q_a, method="primal_grid", grid_step=0.01).value
        assert primal >= dual - 1e-9
        assert primal - dual <= 1e-2


def test_fixed_marginal_dual_curve_matches_per_rate():
    p = worked()
    q_a = Distribution(np.array([0.49, 0.51]))
    rates = np.array([0.35, 0.48, 0.6])
    curve = fixed_marginal_dual_curve(rates, p, q_a)
    for i, r in enumerate(rates):
        per_rate = e_upper_fixed_marginal(float(r), p, q_a, method="gallager_dual").value
        assert curve[i] == pytest.approx(per_rate, abs=5e-7)


def test_fixed_marginal_splits_into_kl_plus_kernel_term():
    # The pinned minimization separates: the marginal mismatch KL plus the
    # sphere-packing exponent of the B|A kernel at input q_a and channel
    # rate H(q_a) - r.
    from siexp.channel_exponents import dual_exponent_curves

    p = worked()
    kernel = p.conditional_rows()
    p_a = p.row_marginal()
    for qa0, r in ((0.6, 0.5), (0.49, 0.48), (0.35, 0.4)):
        q_a = Distribution(np.array([qa0, 1.0 - qa0]))
        pinned = e_upper_fixed_marginal(r, p, q_a, method="gallager_dual").value
        channel_rate = max(0.0, entropy(q_a) - r)
        _, esp = dual_exponent_curves(np.array([channel_rate]), q_a, kernel)
        split = kl_divergence(q_a, p_a) + float(esp[0])
        assert pinned == pytest.approx(split, abs=5e-7)


# ---------------------------------------------------------------------------
# independent side information


def test_independent_si_matches_product_joint():
    p_a = Distribution(np.array([0.3, 0.7]))
    b_marg = Distribution(np.array([0.6, 0.4]))
    product = JointDistribution(np.outer(p_a.probs, b_marg.probs))
    for r in (0.4, 0.7, 0.9):
        alone = independent_si_exponent(r, p_a, method="gallager_dual").value
        joint = e_upper_dual(r, product).value
        assert alone == pytest.approx(joint, abs=1e-8)
    with pytest.raises(ValueError):
        independent_si_exponent(-0.1, p_a)


def test_independent_si_primal_route():
    p_a = Distribution(np.array([0.3, 0.7]))
    for r in (0.4, 0.7):
        dual = independent_si_exponent(r, p_a, method="gallager_dual").value
        primal = independent_si_exponent(r, p_a, method="primal_grid", grid_step=0.002).value
        assert primal >= dual - 1e-9
        assert primal - dual <= 5e-3


def test_independent_si_known_value():
    # uniform source: min D(Q || uniform) over H(Q) >= r equals 1 - r for
    # binary alphabets only at r = 1 (infinite by convention there); check
    # instead against a direct KL evaluation of the binary entropy inverse.
    p_a = Distribution.uniform(2)
    r = 0.5
    got = independent_si_exponent(r, p_a, method="gallager_dual").value
    # brute force over a fine grid of binary laws
    ts = np.linspace(1e-9, 0.5, 400001)
    hs = -(ts * np.log2(ts) + (1 - ts) * np.log2(1 - ts))
    feasible = hs >= r
    kls = 1.0 - hs  # D(Q||uniform) = 1 - H(Q) for binary Q
    brute = float(kls[feasible].min())
    assert got == pytest.approx(brute, abs=1e-8)


# ---------------------------------------------------------------------------
# duality against the kernel's sphere-packing exponent


def test_duality_check_on_worked_example():
    p = worked()
    q_a = p.row_marginal()
    w = p.conditional_rows()
    rep = duality_check(0.48, q_a, w, grid_step=0.01)
    assert rep.channel_rate == pytest.approx(entropy(q_a) - 0.48, abs=1e-12)
    assert rep.abs_diff <= 1e-2
    with pytest.raises(ValueError):
        duality_check(entropy(q_a) + 0.2, q_a, w)
    with pytest.raises(ValueError):
        duality_check(0.3, Distribution.uniform(3), w)


@pytest.mark.parametrize("k,grid_step", [(2, 0.01), (3, 0.1)])
def test_duality_check_random_instances(k, grid_step):
    rng = np.random.default_rng(37)
    for _ in range(5):
        qa0 = float(rng.uniform(0.2, 0.8))
        rest = (1.0 - qa0) * rng.dirichlet(np.ones(k - 1)) if k > 2 else [1.0 - qa0]
        q_a = Distribution(np.array([qa0, *rest]))
        m = rng.random((k, k)) + 0.1 + 2.0 * np.eye(k)  # informative kernel
        w = ConditionalDistribution(m / m.sum(axis=1, keepdims=True))
        h_qa = entropy(q_a)
        hc = conditional_entropy(compose(q_a, w))
        r = float(hc + (h_qa - hc) * rng.uniform(0.2, 0.8))
        rep = duality_check(r, q_a, w, grid_step=grid_step)
        assert rep.abs_diff <= 1e-2
