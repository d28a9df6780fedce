"""Tests for channel reliability exponents: fixed-input and input-optimized
random-coding and sphere-packing curves, capacity, and symmetry detection.

Frozen reference numbers come from independent mpmath computations (40
digits): closed forms where available, otherwise high-precision ternary
search on the one-dimensional convex/concave subproblems.
"""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siexp import channel_exponents, cli
from siexp.channel_exponents import (
    RHO_MAX,
    _CC_RHO_TAIL,
    _CC_RHO_UNIT,
    _CC_TOL,
    _RHO_TAIL,
    _RHO_UNIT,
    _cc_e0_on_lattice,
    _cc_upper,
    _e0_on_lattice,
    _e0_star_on_lattice,
    bec,
    bsc,
    capacity,
    constant_composition_e0,
    critical_rate,
    dual_exponent_curves,
    gallager_e0,
    input_optimized_curves,
    is_gallager_symmetric,
    optimize_input,
    primal_exponent_curves,
    random_coding_exponent,
    sphere_packing_exponent,
    uniform_input_is_optimal_premise,
)
from siexp.joint_bounds import both_si_bounds
from siexp.numerics import golden_section_max, rate_grid, simplex_grid
from siexp.probkit import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    kl_bits,
    mutual_information,
)
from siexp.source_si_exponents import _es_on_lattice, source_dual_curves, source_gallager_function

# mpmath oracles
E0_RHO1_UNIF_BSC0025 = 0.60795751247991748236
CAP_BSC0025 = 0.83133906850332978543  # 1 - h2(0.025)
CAP_BEC03 = 0.7
RCR_BSC0025_TRUE = 0.4209536595607840388
RCR_BEC03_TRUE = 7.0 / 13.0

# Fixed input s = (0.49, 0.51) on the kernel [[1, 0], [0.1, 0.9]]: the plain
# Gallager function only lower-bounds the exact fixed-input Lagrangian
# min_V [D(V||W|s) + rho I(s;V)], and the gap is visible at rho = 1.
CC_KERNEL = ((1.0, 0.0), (0.1, 0.9))
CC_INPUT = (0.49, 0.51)
CC_EXACT_RHO1 = 0.6033935334576267
CC_PLAIN_RHO1 = 0.603291081497858
CC_RATE = 0.5197114417528099
CC_SPHERE_AT_RATE = 0.08772584244771316
CC_PLAIN_SPHERE_AT_RATE = 0.08744898672598994


def uniform2():
    return Distribution.uniform(2)


def cc_pair():
    return Distribution(np.array(CC_INPUT)), ConditionalDistribution(np.array(CC_KERNEL))


# ---------------------------------------------------------------------------
# constructors and the Gallager function


def test_bsc_bec_matrices():
    np.testing.assert_allclose(bsc(0.025).matrix, [[0.975, 0.025], [0.025, 0.975]])
    np.testing.assert_allclose(bec(0.3).matrix, [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])


def test_gallager_e0_frozen():
    w = bsc(0.025)
    assert gallager_e0(1.0, uniform2(), w) == pytest.approx(E0_RHO1_UNIF_BSC0025, abs=1e-14)
    assert gallager_e0(0.0, uniform2(), w) == 0.0
    ident = ConditionalDistribution(np.eye(2))
    assert gallager_e0(1.0, uniform2(), ident) == pytest.approx(1.0, abs=1e-14)


def test_gallager_e0_slope_at_zero_is_mutual_information():
    w = bsc(0.025)
    s = uniform2()
    h = 1e-5
    slope = (4.0 * gallager_e0(h, s, w) - gallager_e0(2.0 * h, s, w)) / (2.0 * h)
    assert slope == pytest.approx(mutual_information(s, w), abs=1e-6)


# ---------------------------------------------------------------------------
# exact fixed-input function


def test_constant_composition_e0_matches_plain_form_at_uniform_symmetric():
    w = bsc(0.025)
    got = constant_composition_e0(1.0, uniform2(), w)
    assert got == pytest.approx(E0_RHO1_UNIF_BSC0025, abs=1e-11)
    assert constant_composition_e0(0.0, uniform2(), w) == 0.0


@pytest.mark.parametrize("k,draws", [(2, 25), (3, 40)])
def test_constant_composition_e0_dominates_plain_form(k, draws):
    rng = np.random.default_rng(17)
    for _ in range(draws):
        s = Distribution(np.sort(rng.dirichlet(np.ones(k))))
        m = rng.random((k, k)) + 0.05
        w = ConditionalDistribution(m / m.sum(axis=1, keepdims=True))
        rho = float(rng.uniform(0.05, 3.0))
        exact = constant_composition_e0(rho, s, w)
        plain = gallager_e0(rho, s, w)
        assert exact >= plain - 1e-10
        assert exact >= 0.0


def test_constant_composition_e0_frozen_gap():
    s, w = cc_pair()
    exact = constant_composition_e0(1.0, s, w)
    plain = gallager_e0(1.0, s, w)
    assert exact == pytest.approx(CC_EXACT_RHO1, abs=1e-9)
    assert plain == pytest.approx(CC_PLAIN_RHO1, abs=1e-12)
    assert exact - plain > 5e-5  # a genuine gap, not rounding


def test_constant_composition_e0_validation():
    s, w = cc_pair()
    with pytest.raises(ValueError):
        constant_composition_e0(-0.5, s, w)
    with pytest.raises(ValueError):
        constant_composition_e0(1.0, Distribution.uniform(3), w)


# ---------------------------------------------------------------------------
# per-rate exponents, primal versus dual


def test_random_coding_primal_dual_sandwich():
    w = bsc(0.025)
    s = uniform2()
    dual = random_coding_exponent(0.5, s, w).value
    primal = random_coding_exponent(0.5, s, w, method="primal_grid", grid_step=0.005).value
    assert primal >= dual - 1e-9  # the grid restricts the minimization
    assert primal - dual <= 5e-3
    with pytest.raises(ValueError):
        random_coding_exponent(-0.1, s, w)
    with pytest.raises(ValueError):
        random_coding_exponent(0.5, s, w, method="nope")


def test_sphere_packing_primal_dual_sandwich():
    w = bsc(0.025)
    s = uniform2()
    dual = sphere_packing_exponent(0.5, s, w).value
    primal = sphere_packing_exponent(0.5, s, w, method="primal_grid", grid_step=0.005).value
    assert primal >= dual - 1e-9
    assert primal - dual <= 1e-2
    assert dual > 0.0
    # above mutual information the constraint is satisfied by the channel itself
    above = sphere_packing_exponent(0.9, s, w).value
    assert above == pytest.approx(0.0, abs=1e-12)


def test_sphere_packing_divergence_on_noiseless_channel():
    ident = ConditionalDistribution(np.eye(2))
    res = sphere_packing_exponent(0.5, uniform2(), ident)
    assert res.diverged and res.value == math.inf
    res_p = sphere_packing_exponent(0.5, uniform2(), ident, method="primal_grid", grid_step=0.02)
    assert res_p.value == math.inf
    # at the alphabet edge the exponent collapses to zero
    assert sphere_packing_exponent(1.0, uniform2(), ident).value == pytest.approx(0.0, abs=1e-9)


def test_fixed_input_sphere_packing_frozen():
    # The per-rate dual keeps the plain Gallager form, which is a lower
    # bound at this non-optimizing input; the exact value is strictly larger
    # and is delivered by the curve API (next test).
    s, w = cc_pair()
    got = sphere_packing_exponent(CC_RATE, s, w).value
    assert got == pytest.approx(CC_PLAIN_SPHERE_AT_RATE, abs=1e-9)
    assert got < CC_SPHERE_AT_RATE - 1e-5


# ---------------------------------------------------------------------------
# whole curves


def test_dual_curves_shape_and_coincidence():
    w = bsc(0.025)
    rates = rate_grid(0.01, 1.0)
    er, esp = dual_exponent_curves(rates, uniform2(), w)
    finite = np.isfinite(esp)
    assert np.all(er[finite] <= esp[finite] + 1e-12)
    # positivity exactly below capacity
    below = rates < CAP_BSC0025 - 1e-9
    assert np.all(er[below] > 0.0)
    assert np.all(er[~below] == 0.0)
    # identical floats above the critical rate: both come from the same
    # rho-in-[0,1] stage
    above = rates >= 0.43
    assert np.array_equal(er[above], esp[above])
    # monotone nonincreasing, convex where finite
    assert np.all(np.diff(er) <= 1e-12)
    d2 = np.diff(er, 2)
    assert np.all(d2 >= -1e-8)


def test_dual_curves_use_exact_form_for_fixed_asymmetric_input():
    s, w = cc_pair()
    rates = np.array([CC_RATE])
    er, esp = dual_exponent_curves(rates, s, w)
    # the curve maximizes over a fine rho lattice, hence the 1e-7 slack
    assert esp[0] == pytest.approx(CC_SPHERE_AT_RATE, abs=1e-7)
    assert esp[0] > CC_PLAIN_SPHERE_AT_RATE + 1e-5
    # the curve must dominate the plain-Gallager lower bound
    plain = random_coding_exponent(CC_RATE, s, w).value
    assert er[0] >= plain - 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ternary_primal_curves_bound_the_dual_curves(seed):
    # the grid restricts the minimization, so the primal oracle sits above
    # the exact dual curves, whose tails take the Newton steps at |X| = 3
    rng = np.random.default_rng(seed)
    s = Distribution(rng.dirichlet(2.0 * np.ones(3)))
    w = ConditionalDistribution(0.6 * np.eye(3) + 0.4 * rng.dirichlet(np.ones(3), size=3))
    rates = rate_grid(0.05, math.log2(3.0))
    primal = primal_exponent_curves(rates, s, w, grid_step=0.1)
    dual = dual_exponent_curves(rates, s, w)
    assert np.any(dual[0] > 0.0)
    for p_curve, d_curve in zip(primal, dual):
        assert np.all(p_curve >= d_curve - 1e-9)


def test_primal_curves_match_per_rate_calls():
    w = bsc(0.025)
    s = uniform2()
    rates = np.array([0.2, 0.5, 0.8])
    er, esp = primal_exponent_curves(rates, s, w, grid_step=0.02)
    for i, r in enumerate(rates):
        assert er[i] == pytest.approx(
            random_coding_exponent(float(r), s, w, "primal_grid", 0.02).value, abs=1e-12
        )
        assert esp[i] == pytest.approx(
            sphere_packing_exponent(float(r), s, w, "primal_grid", 0.02).value, abs=1e-12
        )


# ---------------------------------------------------------------------------
# capacity


def test_capacity_frozen():
    assert capacity(bsc(0.025)) == pytest.approx(CAP_BSC0025, abs=1e-8)
    assert capacity(bec(0.3)) == pytest.approx(CAP_BEC03, abs=1e-8)
    ident3 = ConditionalDistribution(np.eye(3))
    assert capacity(ident3) == pytest.approx(math.log2(3.0), abs=1e-8)
    flat = ConditionalDistribution(np.array([[0.4, 0.6], [0.4, 0.6]]))
    assert capacity(flat) <= 1e-9


def test_capacity_converges_on_nearly_identical_rows():
    w = ConditionalDistribution(
        np.array([[0.41353184, 0.58646816], [0.41203715, 0.58796285]])
    )
    c = capacity(w)
    assert 0.0 <= c < 1e-4
    w2 = ConditionalDistribution(np.array([[0.90492666, 0.09507334], [0.9068675, 0.0931325]]))
    c2 = capacity(w2)
    assert 0.0 <= c2 < 1e-4


def _three_input_capacity(w):
    """max_S I(S; W) over three inputs by nested golden sections: I is
    concave in S, so its max over the fiber S_0 = a is concave in a."""
    info = lambda a, t: mutual_information(Distribution(np.array([a, (1 - a) * t, (1 - a) * (1 - t)])), w)
    return golden_section_max(lambda a: golden_section_max(lambda t: info(a, t), 0.0, 1.0)[1], 0.0, 1.0)[1]


def test_capacity_stall_and_budget_exits_stay_within_their_gap():
    # rows 1e-4 apart: the certified gap max_x D(W_x||SW) - I(S; W) stays
    # near 1.1e-8 for thousands of iterations, above the 1e-9 floor, so only
    # the stall check (every 512 iterations, from the second window on) or
    # the iteration budget ends the loop
    w = ConditionalDistribution(np.array([[0.3, 0.3, 0.4], [0.3001, 0.3, 0.3999], [0.2999, 0.3001, 0.4]]))
    ref = _three_input_capacity(w)
    c = kl_bits(w.matrix, w.matrix.mean(axis=0)[None], axis=1)
    gap0 = float(c.max() - c.mean())  # at the uniform start, where the gap is largest here
    assert 1e-9 < gap0 < 1e-6
    stalled = capacity(w)
    assert stalled == capacity(w, max_iter=1024)  # the stall check at iteration 1,024
    best_mid = capacity(w, max_iter=600)  # the budget ends before the second window
    assert best_mid != stalled
    for value in (stalled, best_mid):
        assert abs(value - ref) <= 0.5 * gap0
    # rows 1e-2 apart start from a gap of 1.1e-4, which 50 iterations do not
    # bring under 1e-6
    far = ConditionalDistribution(np.array([[0.3, 0.3, 0.4], [0.31, 0.3, 0.39], [0.29, 0.31, 0.4]]))
    with pytest.raises(RuntimeError, match="did not converge"):
        capacity(far, max_iter=50)
    assert abs(capacity(far) - _three_input_capacity(far)) <= 1e-9


@pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
def test_capacity_tolerance_bounds_the_shortfall(tol):
    # the converged exit returns the lower estimate I(S; W) once the gap is
    # within tol of the upper one, so it falls short of capacity by at most that
    w = ConditionalDistribution(np.array([[0.9, 0.1], [0.2, 0.8]]))
    ref, coarse = capacity(w), capacity(w, tol=tol)
    assert 0.0 < ref - coarse <= tol * ref


# ---------------------------------------------------------------------------
# critical rate


def test_critical_rate_bsc():
    res = critical_rate(bsc(0.025))
    assert res.rate == pytest.approx(0.421, abs=1e-12)
    assert abs(res.rate - RCR_BSC0025_TRUE) <= 1e-3 + 1e-12
    assert res.earlier_coincidences == ()


def test_critical_rate_bec():
    res = critical_rate(bec(0.3))
    assert abs(res.rate - RCR_BEC03_TRUE) <= 1e-3 + 1e-12


def test_critical_rate_edge_cases():
    ident = ConditionalDistribution(np.eye(2))
    assert critical_rate(ident).rate == 1.0
    flat = ConditionalDistribution(np.array([[0.4, 0.6], [0.4, 0.6]]))
    with pytest.raises(ValueError):
        critical_rate(flat)


# ---------------------------------------------------------------------------
# symmetry and input optimization


def test_is_gallager_symmetric():
    assert is_gallager_symmetric(bsc(0.025))[0]
    assert is_gallager_symmetric(bec(0.3))[0]
    assert is_gallager_symmetric(ConditionalDistribution(np.eye(2)))[0]
    asym = ConditionalDistribution(np.array([[0.9, 0.1], [0.3, 0.7]]))
    assert not is_gallager_symmetric(asym)[0]


def _set_partitions(n: int):
    """Set partitions of range(n) in restricted-growth-string order."""
    rgs = [0] * n

    def blocks():
        out: dict[int, list[int]] = {}
        for idx, lab in enumerate(rgs):
            out.setdefault(lab, []).append(idx)
        return tuple(tuple(b) for b in out.values())

    def rec(pos: int, maxlab: int):
        if pos == n:
            yield blocks()
            return
        for lab in range(maxlab + 2):
            rgs[pos] = lab
            yield from rec(pos + 1, max(maxlab, lab))

    yield from rec(1, 0)


def _symmetric_block(matrix, block, atol=1e-9):
    """Gallager's block test: the rows of the submatrix permute one another,
    and so do its columns."""
    sub = matrix[:, list(block)]
    rows = np.sort(sub, axis=1)
    cols = np.sort(sub, axis=0)
    return bool(np.all(np.abs(rows - rows[0]) <= atol) and np.all(np.abs(cols - cols[:, :1]) <= atol))


def _symmetric_by_search(w):
    """Reference: some set partition of the outputs passes the block test."""
    return any(
        all(_symmetric_block(w.matrix, block) for block in partition)
        for partition in _set_partitions(w.output_size)
    )


@st.composite
def _planted_channels(draw):
    """Channels on at most 4 inputs and 7 outputs built from 1-3 blocks
    v[(x + y) mod g] (g dividing |X|), whose rows and columns permute one
    another; columns and rows shuffled, half of them with one entry moved.
    Coarse blocks draw entries from {0, ..., 3}, so ties abound."""
    perturb = draw(st.booleans())  # drawn first, or hypothesis rarely sets it
    k = draw(st.integers(2, 4))
    blocks, width = [], 0
    for _ in range(draw(st.integers(1, 3))):
        room = 7 - width
        g = draw(st.sampled_from([d for d in range(1, min(k, room) + 1) if k % d == 0]))
        m = g * draw(st.integers(1, room // g))
        hi = 3 if draw(st.booleans()) else 50
        v = draw(st.lists(st.integers(0 if blocks else 1, hi), min_size=g, max_size=g))
        blocks.append([[v[(x + y) % g] for y in range(m)] for x in range(k)])
        width += m
        if width == 7:
            break
    mat = np.hstack([np.array(b, dtype=float) for b in blocks])
    mat = mat[draw(st.permutations(range(k)))][:, draw(st.permutations(range(width)))]
    if perturb:
        x, y = draw(st.integers(0, k - 1)), draw(st.integers(0, width - 1))
        factor = (10 + draw(st.integers(1, 5))) / 10
        mat[x, y] = mat[x, y] * factor if mat[x, y] else mat[x].sum() / 10
    return ConditionalDistribution(mat / mat.sum(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_planted_channels())
def test_is_gallager_symmetric_matches_the_partition_search(w):
    flag, groups = is_gallager_symmetric(w)
    assert flag == _symmetric_by_search(w)
    if flag:
        assert sorted(y for group in groups for y in group) == list(range(w.output_size))
        assert list(groups) == sorted(groups) and all(list(g) == sorted(g) for g in groups)
        assert all(_symmetric_block(w.matrix, group) for group in groups)
    else:
        assert groups is None


def test_input_optimized_curves_on_eleven_outputs():
    # E_0* has no limit on the output alphabet, and neither has the symmetry
    # test that picks between it and the uniform-input lattice
    w = ConditionalDistribution(np.random.default_rng(11).dirichlet(np.ones(11), size=2))
    assert not is_gallager_symmetric(w)[0]
    rates = np.array([0.0, 0.05, 0.1, 0.2])
    er = input_optimized_curves(rates, w)[0]
    assert er.tolist() == [optimize_input(r, w)[1] for r in rates]
    p = JointDistribution(np.array(((0.50, 0.00), (0.05, 0.45))))
    res = both_si_bounds(p, w, rate_step=0.01)
    assert 0.0 <= res.lower <= res.upper


def test_optimize_input_prefers_uniform_on_bsc():
    w = bsc(0.025)
    dist, val = optimize_input(0.5, w, "random")
    np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-9)
    assert val == pytest.approx(random_coding_exponent(0.5, uniform2(), w).value, abs=1e-9)
    with pytest.raises(ValueError):
        optimize_input(0.5, w, "nope")
    with pytest.raises(ValueError):
        optimize_input(-1.0, w, "random")


def test_uniform_premise_report():
    holds, offending = uniform_input_is_optimal_premise(bsc(0.025))
    assert holds and offending is None
    asym = ConditionalDistribution(np.array([[0.9, 0.1], [0.3, 0.7]]))
    holds, offending = uniform_input_is_optimal_premise(asym)
    assert not holds and offending is not None


@pytest.mark.parametrize(
    "matrix", [((0.9, 0.1), (0.2, 0.8)), ((0.9, 0.1), (0.5, 0.5), (0.15, 0.85))]
)
def test_uniform_premise_solves_no_tail_lattice(matrix, monkeypatch):
    # the check reads random-coding values and unit-lattice laws only; both
    # channels' E_r peaks at rho = 1 at the low rates, where E_sp needs a tail
    solved = []
    for name in ("_cc_e0_on_lattice", "_e0_on_lattice", "_e0_star_on_lattice"):
        real = getattr(channel_exponents, name)
        spy = lambda rhos, *args, name=name, real=real: solved.append((name, rhos)) or real(rhos, *args)
        monkeypatch.setattr(channel_exponents, name, spy)
    w = ConditionalDistribution(np.array(matrix))
    assert uniform_input_is_optimal_premise(w) == (False, 0.05)
    # E_0* on the unit lattice once, the fixed input's Lagrangian on unit points
    assert [rhos is _RHO_UNIT for name, rhos in solved if name == "_e0_star_on_lattice"] == [True]
    assert all(rhos.max() <= 1.0 for name, rhos in solved if name == "_cc_e0_on_lattice")
    assert {name for name, _ in solved} == {"_e0_star_on_lattice", "_cc_e0_on_lattice"}
    assert channel_exponents.input_optimized_curves(np.array([0.05]), w)[1] > 0.0
    assert any(rhos is _RHO_TAIL for _, rhos in solved)


def test_input_optimized_curves_on_symmetric_channel():
    w = bsc(0.025)
    rates = np.array([0.3, 0.5])
    er, esp = input_optimized_curves(rates, w)
    er_u, esp_u = dual_exponent_curves(rates, uniform2(), w)
    np.testing.assert_array_equal(er, er_u)
    np.testing.assert_array_equal(esp, esp_u)


def test_input_optimized_curves_on_asymmetric_channel():
    asym = ConditionalDistribution(np.array([[0.9, 0.1], [0.3, 0.7]]))
    rates = np.array([0.2, 0.4])
    er, esp = input_optimized_curves(rates, asym)
    assert np.all(er <= esp + 1e-12)
    # optimizing over inputs can only improve on any fixed input
    for i, r in enumerate(rates):
        fixed = random_coding_exponent(float(r), uniform2(), asym).value
        assert er[i] >= fixed - 1e-9


# ---------------------------------------------------------------------------
# input optimization on the certified rho lattice

ASYM_TWO = ((0.9, 0.1), (0.3, 0.7))


def test_optimize_input_matches_fine_binary_scan():
    # A pairwise golden-section search once returned 4.9066e-5 at s = (0.55, 0.45)
    # here; the true optimum sits near s = (0.527, 0.473) at 5.7742e-5.
    w = ConditionalDistribution(np.array(ASYM_TWO))
    r = float(np.linspace(0.01, 0.6, 20)[9])
    scan = max(
        random_coding_exponent(r, Distribution(np.array([t, 1.0 - t])), w).value
        for t in np.linspace(0.0, 1.0, 20001)
    )
    assert optimize_input(r, w, "random")[1] == pytest.approx(scan, abs=1e-8)


def _fixed_input_duals(laws, w, r, hi):
    """max over rho in [0, hi] of E_0(rho, s) - rho r for every law s at once,
    by a golden-section search vectorized over laws (independent of the library)."""

    def g(rho):
        inner = np.einsum("nx,nxy->ny", laws, np.power(w[None], 1.0 / (1.0 + rho)[:, None, None]))
        return -np.log2(np.power(inner, (1.0 + rho)[:, None]).sum(axis=1)) - rho * r

    a, b = np.zeros(len(laws)), np.full(len(laws), hi)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    while b[0] - a[0] > 1e-7:
        c, d = b - golden * (b - a), a + golden * (b - a)
        left = g(c) >= g(d)
        a, b = np.where(left, a, c), np.where(left, d, b)
    return np.maximum(np.maximum(g(0.5 * (a + b)), g(np.full(len(laws), hi))), 0.0)


@pytest.mark.parametrize("k, seed", [(3, 5), (4, 6)])
def test_input_optimized_curves_dominate_simplex_grid(k, seed):
    w = ConditionalDistribution(np.random.default_rng(seed).dirichlet(np.ones(k), size=k))
    laws = simplex_grid(k, 0.02)
    rates = np.array([0.25, 0.5]) * capacity(w)
    er, esp = input_optimized_curves(rates, w)
    assert np.all(er <= esp)
    for idx, r in enumerate(rates):
        fixed_er = _fixed_input_duals(laws, w.matrix, r, 1.0)
        fixed_esp = _fixed_input_duals(laws, w.matrix, r, RHO_MAX)
        assert er[idx] >= fixed_er.max() - 1e-9
        assert esp[idx] >= fixed_esp.max() - 1e-9
        # the vectorized search agrees with the library's per-rate dual
        best = Distribution(laws[np.argmax(fixed_er)])
        assert fixed_er.max() == pytest.approx(random_coding_exponent(float(r), best, w).value, abs=1e-9)
        law, value = optimize_input(float(r), w, "random")
        assert value == er[idx]
        assert random_coding_exponent(float(r), law, w).value == pytest.approx(value, abs=1e-9)
    for rhos in (_RHO_UNIT, _RHO_TAIL):
        assert np.all(_e0_star_on_lattice(rhos, w.matrix)[2] <= 1e-12)


# Sparse kernel on which mass transfers between pairs of inputs alone stall
# for hundreds of sweeps on the tail lattice.
SPARSE_FOUR = (
    (0.008, 0.0, 0.616, 0.376),
    (0.0, 0.012, 0.988, 0.0),
    (0.459, 0.279, 0.262, 0.0),
    (0.028, 0.31, 0.314, 0.348),
)
CERTIFIED_KERNELS = [np.random.default_rng(seed).dirichlet(np.ones(k), size=k)
                     for k, seed in ((2, 4), (3, 5), (4, 6))] + [np.array(SPARSE_FOUR)]


@pytest.mark.parametrize("w", CERTIFIED_KERNELS, ids=["2x2", "3x3", "4x4", "sparse4x4"])
def test_e0_star_lattice_certificate(w):
    for rhos in (_RHO_UNIT, _RHO_TAIL):
        e0, laws, gap = _e0_star_on_lattice(rhos, w)
        # 1e-12, or the rounding floor of evaluating the gap near the top of the tail
        bound = np.maximum(1e-12, w.shape[0] * (1.0 + rhos) ** 2 * np.finfo(float).eps)
        assert np.all(gap <= bound)
        np.testing.assert_allclose(laws.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(laws >= 0.0)
        # recompute the Frank-Wolfe gap from the returned laws
        wpow = np.power(w[None], (1.0 / (1.0 + rhos))[:, None, None])
        alpha = np.einsum("nx,nxy->ny", laws, wpow)
        c = np.einsum("nxy,ny->nx", wpow, np.power(alpha, rhos[:, None]))
        f = np.power(alpha, 1.0 + rhos[:, None]).sum(axis=1)
        assert np.all((1.0 + rhos) * (f - c.min(axis=1)) <= 2.0 * bound * f)
        np.testing.assert_allclose(e0, np.maximum(-np.log2(f), 0.0), rtol=0.0, atol=1e-13)


IDENTITY_CHANNELS = {
    "bsc": bsc(0.025).matrix,
    "asym": np.array(((0.9, 0.1), (0.2, 0.8))),
    "wide": np.array(((0.7, 0.1, 0.2), (0.1, 0.7, 0.2), (0.2, 0.2, 0.6), (0.3, 0.3, 0.4))),
    **{f"seeded-{k}x{m}": np.random.default_rng(seed).dirichlet(np.ones(m), size=k)
       for k, m, seed in ((3, 3, 21), (4, 2, 22))},
}


@pytest.mark.parametrize("name", list(IDENTITY_CHANNELS))
def test_fixed_input_lagrangian_peaks_at_e0_star(name):
    # max over S of G_S(rho) = min_V D(V||W|S) + rho I(S;V) is E_0*(rho)
    # (Csiszar 1995): no law of a fine grid exceeds it, and E_0*'s own law
    # reaches it, up to E_0*'s certified gap and _CC_TOL
    w, rhos = IDENTITY_CHANNELS[name], np.array([0.1, 0.5, 1.0])
    e0, laws, gap = _e0_star_on_lattice(rhos, w)
    # a relative gap g on F = 2^-E_0 puts E_0* at most log2(1 / (1 - g)) above
    tol = -np.log2(1.0 - np.maximum(gap, 0.0)) + _CC_TOL
    grid = simplex_grid(len(w), 0.005 if len(w) == 2 else 0.02)
    for support in np.unique(grid > 0, axis=0):
        group = grid[np.all((grid > 0) == support, axis=1)]
        g = _cc_e0_on_lattice(np.tile(rhos, len(group)), np.repeat(group, len(rhos), axis=0), w, False)[0]
        assert np.all(g.reshape(-1, len(rhos)) <= e0 + tol)
    own = [_cc_e0_on_lattice(rhos[i : i + 1], laws[i], w, True)[0][0] for i in range(len(rhos))]
    assert np.all(np.abs(np.array(own) - e0) <= tol)


def test_lattice_solvers_raise_when_unconverged():
    w = np.array(ASYM_TWO)
    with pytest.raises(RuntimeError):
        _cc_e0_on_lattice(_CC_RHO_TAIL, np.array([0.3, 0.7]), w, max_iter=2)
    with pytest.raises(RuntimeError):
        _e0_star_on_lattice(_RHO_TAIL, np.array(SPARSE_FOUR), max_iter=2)


def _bisect_line_min(alpha, d, r, hi):
    """argmin over t in [0, hi] of the convex sum_y (alpha + t d)_y^(1+r), row
    by row, by 60 bisections on the sign of its derivative: the line search
    E_0* once took, kept as the reference."""
    slope = lambda t: (np.power(np.maximum(alpha + t[:, None] * d, 0.0), r) * d).sum(axis=1)
    lo, top = np.zeros(len(hi)), hi
    for _ in range(60):
        mid = 0.5 * (lo + top)
        down = slope(mid) < 0.0
        lo, top = np.where(down, mid, lo), np.where(down, top, mid)
    return np.where(slope(hi) <= 0.0, hi, 0.5 * (lo + top))


# (alpha, d, rho, hi): the minimum at 0, the minimum at hi, an output emptying
# exactly at hi with the minimum 2e-8 below it (rho = 0.1) and closer than
# rounding (rho = 1e-4), and interior minima at rho = 1e-4 and rho = 100
LINE_EDGE_ROWS = [
    ((0.5, 0.5), (0.1, -0.05), 0.5, 0.5),
    ((0.5, 0.5), (-0.1, 0.05), 0.5, 0.1),
    ((0.3, 0.7), (-0.6, 0.1), 0.1, 0.5),
    ((0.3, 0.7), (-0.6, 0.5), 1e-4, 0.5),
    ((0.6, 0.4), (-0.2, 0.2), 1e-4, 1.0),
    ((0.6, 0.4), (-0.2, 0.2), 100.0, 1.0),
]


def test_line_search_is_as_good_as_the_bisection_oracle(monkeypatch):
    # the solver passes (|Y|, points) arrays and a 1-D rho; the rows here are points
    calls, real = [], channel_exponents._line_min
    monkeypatch.setattr(channel_exponents, "_line_min", lambda alpha, d, r, hi: calls.append(
        [alpha.T.copy(), d.T.copy(), r[:, None].copy(), hi.copy()]) or real(alpha, d, r, hi))
    for w in CERTIFIED_KERNELS + [np.array(ASYM_TWO)]:
        for rhos in (_RHO_UNIT, _RHO_TAIL):
            _e0_star_on_lattice(rhos, w)
    # pairwise rows of seeded random 3 x 3 channels, rho log-uniform over the lattices
    rng = np.random.default_rng(17)
    s, w = rng.dirichlet(np.ones(3), size=500), rng.dirichlet(np.full(3, 0.5), size=(500, 3))
    rho = np.exp(rng.uniform(np.log(1e-4), np.log(RHO_MAX), 500))[:, None]
    wpow = np.power(w, 1.0 / (1.0 + rho)[:, :, None])
    calls.append([np.einsum("nx,nxy->ny", s, wpow), wpow[:, 1] - wpow[:, 0], rho, s[:, 0]])
    edges = [np.array(column, dtype=float) for column in zip(*LINE_EDGE_ROWS)]
    calls.append([edges[0], edges[1], edges[2][:, None], edges[3]])
    eps = np.finfo(float).eps
    for alpha, d, r, hi in calls:
        t, want = real(alpha.T, d.T, r[:, 0], hi), _bisect_line_min(alpha, d, r, hi)
        assert np.all((0.0 <= t) & (t <= hi))
        phi = lambda t: (np.maximum(alpha + t[:, None] * d, 0.0) ** (1.0 + r)).sum(axis=1)
        # phi rounds by about (1 + r) eps phi; the worst row came within 1.5 of that
        assert np.all(phi(t) <= phi(want) * (1.0 + 4.0 * (1.0 + r[:, 0]) * eps))
    assert t[0] == 0.0 and t[1] == hi[1]


@pytest.mark.parametrize("w, most", [(ASYM_TWO, (16, 16)), (SPARSE_FOUR, (502 // 3, 877 // 3))],
                         ids=["asym", "sparse4x4"])
def test_e0_star_lattice_makes_few_power_calls(w, most, monkeypatch):
    # the 60-bisection line search made 64 calls per lattice on ASYM_TWO, and
    # 502 (unit) and 877 (tail) on SPARSE_FOUR
    real = np.power
    for rhos, limit in zip((_RHO_UNIT, _RHO_TAIL), most):
        calls = []
        monkeypatch.setattr(np, "power", lambda *args, **kw: calls.append(1) or real(*args, **kw))
        _e0_star_on_lattice(rhos, np.array(w))
        monkeypatch.undo()
        assert 0 < len(calls) <= limit


# ---------------------------------------------------------------------------
# fixed-input Lagrangian: Newton solve against alternating minimization


def _alternating_oracle(rhos, s, w, tol=1e-13, max_iter=6000):
    """min over V of D(V||W|S) + rho I(S;V) by plain alternating minimization:
    tilt the rows toward q, take their output marginal as the next q, and stop
    each point once its value moves by less than tol."""
    sl, wl = s[s > 0], w[s > 0]
    theta = rhos / (1.0 + rhos)
    wpow = np.power(wl[None, :, :], (1.0 / (1.0 + rhos))[:, None, None])
    q = np.broadcast_to(sl @ wl, (len(rhos), w.shape[1])).copy()
    vals = np.full(len(rhos), np.inf)
    active = np.flatnonzero(rhos > 0.0)
    for _ in range(max_iter):
        if active.size == 0:
            break
        with np.errstate(divide="ignore"):
            qt = np.where(q[active] > 0.0, np.power(q[active], theta[active, None]), 0.0)
        tilted = wpow[active] * qt[:, None, :]
        row = tilted.sum(axis=2)
        new_vals = -(1.0 + rhos[active]) * (np.log2(row) @ sl)
        q[active] = np.einsum("x,nxy->ny", sl, tilted / row[:, :, None])
        settled = np.abs(new_vals - vals[active]) < tol
        vals[active] = new_vals
        active = active[~settled]
    assert active.size == 0
    vals[rhos == 0.0] = 0.0
    return np.maximum(vals, 0.0)


def _lagrangian_and_gap(rhos, s, w, q):
    """G(q) = -(1+rho) sum_x s_x log2 sum_y W^(1/(1+rho)) q^(rho/(1+rho)) and its
    Frank-Wolfe gap q . grad G - min_y grad_y G over the outputs s can reach."""
    reach = s @ w > 0.0
    sl, wl, q = s[s > 0], w[s > 0][:, reach], q[:, reach]
    wpow = np.power(wl[None], (1.0 / (1.0 + rhos))[:, None, None])
    theta = (rhos / (1.0 + rhos))[:, None]
    row = np.einsum("nxy,ny->nx", wpow, np.power(q, theta))
    g = -(1.0 + rhos) * (np.log2(row) * sl).sum(axis=1)
    # grad_y G = -(rho/ln2) q_y^(theta-1) sum_x s_x W^(1/(1+rho)) / row_x; the
    # gap is rho/ln2 (max_y q_y * |grad_y G| ln2/rho - 1), since q . grad G = -rho/ln2
    pull = np.power(q, theta) * np.einsum("nx,nxy->ny", sl / row, wpow) / q
    return g, rhos / math.log(2.0) * (pull.max(axis=1) - 1.0)


ORACLE_PAIRS = [
    (np.random.default_rng(seed).dirichlet(np.ones(k)),
     np.random.default_rng(seed + 100).dirichlet(np.ones(m), size=k))
    for seed, (k, m) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
] + [
    (np.array([0.4, 0.6]), bec(0.3).matrix),
    (np.array([0.45, 0.55]), np.array([[1.0, 0.0], [0.3, 0.7]])),
    (np.array([0.1, 0.2, 0.3, 0.4]), np.array(SPARSE_FOUR)),
]
ORACLE_IDS = ["2x2", "2x3", "3x2", "3x3", "4x2", "4x3", "bec", "z", "sparse4x4"]


@pytest.mark.parametrize("s, w", ORACLE_PAIRS, ids=ORACLE_IDS)
def test_cc_lattice_matches_alternating_oracle(s, w):
    eps = np.finfo(float).eps
    for rhos in (_CC_RHO_UNIT, _CC_RHO_TAIL):
        vals, q, gap = _cc_e0_on_lattice(rhos, s, w)
        oracle = _alternating_oracle(rhos, s, w)
        assert np.all(np.abs(vals - oracle) <= 1e-10)
        assert np.all(vals <= oracle + 4.0 * eps * np.abs(oracle))
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        g, fw = _lagrangian_and_gap(rhos, s, w, q)
        live = rhos > 0.0
        np.testing.assert_allclose(vals[live], np.maximum(g[live], 0.0), rtol=0.0, atol=1e-12)
        tol = 1e-13 * np.maximum(np.abs(vals), 1.0)
        certified = live & (gap <= tol)
        if rhos[-1] > 1.0:  # the Newton solve certifies the whole tail lattice
            assert np.all(certified)
        # evaluating max_y pull - 1 rounds by a few eps, times rho/ln2
        rounding = 4.0 * rhos / math.log(2.0) * eps
        assert np.all(fw[certified] <= (tol + rounding)[certified])


def test_cc_lattice_fallback_sweeps_report_their_true_gap(monkeypatch):
    # with no Newton steps every point falls back to the alternating sweeps
    monkeypatch.setattr(channel_exponents, "_CC_NEWTON_STEPS", 0)
    s, w = ORACLE_PAIRS[ORACLE_IDS.index("z")]
    vals, q, gap = _cc_e0_on_lattice(_CC_RHO_TAIL, s, w)
    assert np.all(np.abs(vals - _alternating_oracle(_CC_RHO_TAIL, s, w)) <= 1e-10)
    _, fw = _lagrangian_and_gap(_CC_RHO_TAIL, s, w, q)
    rounding = 4.0 * _CC_RHO_TAIL / math.log(2.0) * np.finfo(float).eps
    assert np.all(np.abs(gap - fw) <= rounding)
    assert np.mean(gap > 1e-13 * np.maximum(np.abs(vals), 1.0)) > 0.5


def test_cc_lattice_leaves_newton_where_an_output_mass_vanishes():
    # output 1 is reached only from the input of mass 1/33, and the optimal q
    # empties it at large rho: its mass in q_next once rounded to zero, and the
    # Newton step divided by it
    s = np.array([16.0, 16.0, 1.0]) / 33.0
    w = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    vals = _cc_e0_on_lattice(_CC_RHO_TAIL, s, w)[0]
    assert np.all(np.abs(vals - _alternating_oracle(_CC_RHO_TAIL, s, w)) <= 1e-10)


def test_cc_lattice_trial_step_survives_an_unreachable_input():
    # the input of mass 1e-30 reaches only output 0; an Armijo trial step that
    # underflows q_0 leaves that input's tilted row all zero, where the trial
    # once formed the kernel 0/0 (warnings are errors in this suite)
    s = np.array([0.0588235294, 0.941176471, 1e-30])
    s /= s.sum()
    w = np.array([[2.0 / 3.0, 0.0, 1.0 / 3.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    vals = _cc_e0_on_lattice(_CC_RHO_TAIL, s, w)[0]
    assert np.all(np.abs(vals - _alternating_oracle(_CC_RHO_TAIL, s, w)) <= 1e-10)


# ---------------------------------------------------------------------------
# fixed-input Lagrangian: the rho-last layout keeps the lattice-first floats


def _lattice_first_value(q, wpow, rhos, sl):
    tilted = wpow * np.power(q, (rhos / (1.0 + rhos))[:, None])[:, None, :]
    row = tilted.sum(axis=2)
    with np.errstate(divide="ignore"):
        logs = np.log2(row)
    # the sum over inputs in sequence
    total = sl[0] * logs[:, 0]
    for x in range(1, len(sl)):
        total = total + sl[x] * logs[:, x]
    return -(1.0 + rhos) * total, tilted, row


def _lattice_first_terms(q, wpow, rhos, sl):
    g, tilted, row = _lattice_first_value(q, wpow, rhos, sl)
    kernel = tilted / row[:, :, None]
    return g, np.einsum("x,nxy->ny", sl, kernel), kernel


def _lattice_first_gap(q, q_next, rhos):
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = rhos / math.log(2.0) * ((q_next / q).max(axis=1) - 1.0)
    return np.where(np.isnan(gap), np.inf, gap)


def _in_sequence(terms):
    """The sum of the terms, first to last."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _schur_step(r, sl, ks, a, b):
    """The solver's Newton step written lattice-first: u of the bordered
    system [H a; a' 0] [u; lam] = [b; 0] for H = I + rho K' diag(s) K, by the
    Schur complement of H through its Cholesky factor, every sum in sequence."""
    n, m = a.shape
    gram = _in_sequence([sl[x] * ks[:, x, :, None] * ks[:, x, None, :] for x in range(len(sl))])
    h = r[:, None, None] * gram + np.eye(m)
    low, y = np.zeros((n, m, m)), np.zeros((n, m, 2))
    for i in range(m):
        for j in range(i + 1):
            d = h[:, i, j] - _in_sequence([low[:, i, k] * low[:, j, k] for k in range(j)]) if j else h[:, i, j]
            low[:, i, j] = np.sqrt(d) if i == j else d / low[:, j, j]
        for c, rhs in enumerate((a, b)):
            e = rhs[:, i] - _in_sequence([low[:, i, k] * y[:, k, c] for k in range(i)]) if i else rhs[:, i]
            y[:, i, c] = e / low[:, i, i]
    ya, yb = y[:, :, 0], y[:, :, 1]
    lam = _in_sequence([ya[:, i] * yb[:, i] for i in range(m)])
    lam = lam / _in_sequence([ya[:, i] * ya[:, i] for i in range(m)])
    u = yb - lam[:, None] * ya
    for i in reversed(range(m)):
        if i < m - 1:
            u[:, i] = u[:, i] - _in_sequence([low[:, k, i] * u[:, k] for k in range(i + 1, m)])
        u[:, i] = u[:, i] / low[:, i, i]
    return u


def _kkt_step(r, sl, ks, a, b):
    """The Newton step the solver once took: the whole bordered KKT system
    through np.linalg.solve, kept as an accuracy oracle."""
    n, m = a.shape
    kkt = np.zeros((n, m + 1, m + 1))
    kkt[:, :m, :m] = r[:, None, None] * np.einsum("x,nxy,nxz->nyz", sl, ks, ks) + np.eye(m)
    kkt[:, :m, m] = kkt[:, m, :m] = a
    rhs = np.concatenate([b, np.zeros((n, 1))], axis=1)
    return np.linalg.solve(kkt, rhs[:, :, None])[:, :m, 0]


def _lattice_first_reference(rhos, s, w, newton=None, newton_steps=30, tol=1e-13, max_iter=6000,
                             step=_schur_step):
    """The fixed-input Lagrangian as the solver computes it, written with the
    lattice on the first axis of every array: the value sums the inputs in
    sequence, and Newton steps, by `step`, run on the points flagged
    `newton`, by default those with rho >= 1. With `_kkt_step` it takes the
    dense KKT solves the solver once took, an accuracy oracle."""
    live = s > 0
    sl, wl = s[live], w[live]
    wpow = np.power(wl[None, :, :], (1.0 / (1.0 + rhos))[:, None, None])
    q0 = _in_sequence([sl[x] * wl[x] for x in range(len(sl))])
    q = np.broadcast_to(q0, (len(rhos), w.shape[1])).copy()
    vals, gap = np.full(len(rhos), np.inf), np.zeros(len(rhos))
    reach = q0 > 0.0
    nq, nw = q[:, reach], wpow[:, :, reach]
    newton = np.broadcast_to(rhos >= 1.0 if newton is None else newton, rhos.shape)
    active = np.flatnonzero(newton)
    steps = min(newton_steps, max_iter)
    for it in range(steps + 1):
        r, wa, qa = rhos[active], nw[active], nq[active]
        g, _, v = _lattice_first_terms(qa, wa, r, sl)
        q_next = _in_sequence([sl[x] * v[:, x] for x in range(len(sl))])
        vals[active], gap[active] = g, _lattice_first_gap(qa, q_next, r)
        keep = (gap[active] > tol * np.maximum(np.abs(g), 1.0)) & np.all(q_next > 0.0, axis=1)
        active, r, wa, qa, g, q_next, v = (a[keep] for a in (active, r, wa, qa, g, q_next, v))
        if active.size == 0 or it == steps:
            break
        sc = 1.0 / np.sqrt(q_next)
        delta = sc * step(r, sl, v * sc[:, None, :], qa * sc, (1.0 + r)[:, None] / sc)
        delta -= (qa * delta).sum(axis=1, keepdims=True)
        slope = 1e-4 * r / math.log(2.0) * ((qa - q_next) * delta).sum(axis=1)
        floor = 16.0 * np.finfo(float).eps * (1.0 + r) * np.maximum(np.abs(g), 1.0)
        t, todo = np.ones(active.size), np.arange(active.size)
        for _ in range(40):
            q_t = qa[todo] * np.exp(t[todo, None] * delta[todo])
            q_n = q_t / q_t.sum(axis=1, keepdims=True)
            g_t = _lattice_first_value(q_n, wa[todo], r[todo], sl)[0]
            ok = (g_t <= g[todo] + t[todo] * slope[todo] + floor[todo]) & np.all(q_t > 0.0, axis=1)
            if (todo := todo[~ok]).size == 0:
                break
            t[todo] *= 0.5
        t[todo] = 0.0
        qa = qa * np.exp(t[:, None] * delta)
        nq[active] = qa / qa.sum(axis=1, keepdims=True)
        active = active[t > 0.0]
    done = newton & (gap <= tol * np.maximum(np.abs(vals), 1.0))
    q[np.ix_(done, reach)] = nq[done]
    swept = active = np.flatnonzero((rhos > 0.0) & ~done)
    vals[swept] = np.inf
    for _ in range(max_iter):
        if active.size == 0:
            break
        new_vals, q[active], _ = _lattice_first_terms(q[active], wpow[active], rhos[active], sl)
        settled = np.abs(new_vals - vals[active]) < tol
        vals[active] = new_vals
        active = active[~settled]
    assert active.size == 0
    q_next = _lattice_first_terms(q[swept], wpow[swept], rhos[swept], sl)[1]
    gap[swept] = _lattice_first_gap(q[swept][:, reach], q_next[:, reach], rhos[swept])
    vals[rhos == 0.0] = 0.0
    return np.maximum(vals, 0.0), q, gap


def _bit_identity_cases():
    rng = np.random.default_rng(2024)
    cases = {
        f"{k}x{m}": (rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m), size=k))
        for k in (2, 3, 4) for m in (2, 3, 4)
    }
    kernels = {"asym": ((0.9, 0.1), (0.2, 0.8)), "bsc": bsc(0.025).matrix, "source": CC_KERNEL}
    for name, kernel in kernels.items():
        for a in range(1, 20):
            cases[f"{name}-{a / 20:.2f}"] = (np.array([a / 20, 1.0 - a / 20]), np.array(kernel))
    cases["one-letter"] = (np.array([1.0, 0.0]), bsc(0.025).matrix)
    tiny = np.array([0.0588235294, 0.941176471, 1e-30])
    cases["mass-1e-30"] = (
        tiny / tiny.sum(),
        np.array([[2.0 / 3.0, 0.0, 1.0 / 3.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
    )
    cases["vanishing-output"] = (
        np.array([16.0, 16.0, 1.0]) / 33.0,
        np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
    )
    # a law whose start q_0 = S W once rounded apart as one law (a gemv) and
    # as a row of per-point laws (a strided dot): 0.360276859033007 against
    # 0.3602768590330071 at the second output
    law = np.random.default_rng(0).random((10, 4))[9]
    cases["start-4x3"] = (law / law.sum(), np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.4, 0.3, 0.3]]))
    return cases


BIT_IDENTITY_CASES = _bit_identity_cases()


def _assert_same_floats(got, want):
    # q is compared as a law per lattice point, whatever its memory order
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


@pytest.mark.parametrize("case", list(BIT_IDENTITY_CASES))
def test_cc_lattice_keeps_the_lattice_first_floats(case):
    s, w = BIT_IDENTITY_CASES[case]
    # on two points the one that settles later is swept alone; the unit
    # lattice takes no Newton step, the tail lattice one on every point
    for rhos, newton in ((_CC_RHO_UNIT, False), (_CC_RHO_TAIL, True), (np.array([0.05, 0.9]), None)):
        got = _cc_e0_on_lattice(rhos, s, w, newton)
        _assert_same_floats(got, _lattice_first_reference(rhos, s, w, newton))


@pytest.mark.parametrize("case", ["3x3", "4x2", "source-0.45", "vanishing-output"])
def test_cc_lattice_keeps_the_lattice_first_floats_without_newton(case, monkeypatch):
    monkeypatch.setattr(channel_exponents, "_CC_NEWTON_STEPS", 0)
    s, w = BIT_IDENTITY_CASES[case]
    got = _cc_e0_on_lattice(_CC_RHO_TAIL, s, w)
    _assert_same_floats(got, _lattice_first_reference(_CC_RHO_TAIL, s, w, newton_steps=0))


@pytest.mark.parametrize("point", [("unit", 600), ("unit", 1999), ("tail", 0), ("tail", 500)])
def test_one_point_cc_e0_keeps_the_lattice_first_float(point):
    # a point solved alone has its float on the whole lattice, whose floats
    # are the lattice-first ones: the unit lattice's below rho = 1, the tail
    # lattice's, Newton-certified, from rho = 1 on
    rhos, k = (_CC_RHO_UNIT, _CC_RHO_TAIL)[point[0] == "tail"], point[1]
    for case in ("2x2", "3x3", "4x3", "source-0.45"):
        s, w = (f(a) for f, a in zip((Distribution, ConditionalDistribution), BIT_IDENTITY_CASES[case]))
        got = constant_composition_e0(rhos[k], s, w)
        assert got == _cc_e0_on_lattice(rhos, s.probs, w.matrix, point[0] == "tail")[0][k]


# ---------------------------------------------------------------------------
# fixed-input Lagrangian: the Newton step's Schur solve against the KKT oracle


def _certified(vals, gap):
    return gap <= _CC_TOL * np.maximum(np.abs(vals), 1.0)


@pytest.mark.parametrize("case", list(BIT_IDENTITY_CASES))
def test_cc_tail_stays_within_tolerance_of_the_kkt_oracle(case):
    s, w = BIT_IDENTITY_CASES[case]
    vals, _, gap = _cc_e0_on_lattice(_CC_RHO_TAIL, s, w, True)
    want, _, want_gap = _lattice_first_reference(_CC_RHO_TAIL, s, w, True, step=_kkt_step)
    assert np.all(np.abs(vals - want) <= _CC_TOL * np.maximum(np.abs(want), 1.0))
    assert np.array_equal(_certified(vals, gap), _certified(want, want_gap))


def _newton_point_steps(monkeypatch, argv_list):
    """Newton point-steps of the solver and of the KKT oracle on every tail
    the CLI runs in argv_list solve."""
    tails, real = {}, channel_exponents._cc_e0_on_lattice

    def spy(rhos, s, w, newton=None, *args):
        if np.any(newton):
            tails[s.tobytes() + w.tobytes()] = (s, w)
        return real(rhos, s, w, newton, *args)

    monkeypatch.setattr(channel_exponents, "_cc_e0_on_lattice", spy)
    for argv in argv_list:
        assert cli.main(argv) == 0
    monkeypatch.undo()
    solver, oracle = [], []
    real_solve = channel_exponents._bordered_solve
    monkeypatch.setattr(channel_exponents, "_bordered_solve",
                        lambda h, a, b: solver.append(h.shape[-1]) or real_solve(h, a, b))
    counted_kkt = lambda r, *args: oracle.append(len(r)) or _kkt_step(r, *args)
    for s, w in tails.values():
        _cc_e0_on_lattice(_CC_RHO_TAIL, s, w, True)
        _lattice_first_reference(_CC_RHO_TAIL, s, w, True, step=counted_kkt)
    assert tails
    return sum(solver), sum(oracle)


@pytest.mark.parametrize("workload", ["worked-bsc", "asym-matrix"])
def test_cc_tails_take_no_more_newton_steps_than_the_kkt_oracle(workload, monkeypatch, tmp_path, capsys):
    channel = {"worked-bsc": "channel.kind = bsc\nchannel.param = 0.025\n",
               "asym-matrix": "channel.kind = matrix\nchannel.matrix = 0.9 0.1 ; 0.2 0.8\n"}[workload]
    cfg = tmp_path / "w.cfg"
    cfg.write_text("source.preset = worked_example\n" + channel)
    step = {"worked-bsc": "0.001", "asym-matrix": "0.1"}[workload]
    argv = [["report", "--config", str(cfg), "--nested", "--rate-step", step]]
    if workload == "worked-bsc":
        argv += [["reproduce-fig1"], ["reproduce-fig2"]]
    solver, oracle = _newton_point_steps(monkeypatch, argv)
    capsys.readouterr()
    # where the gap after a step lands at the tolerance, rounding decides
    # whether a point takes one more step, either way: 128,442 against
    # 128,447 point-steps on worked-bsc, 70,808 against 70,787 on asym-matrix
    assert 0 < solver <= 1.001 * oracle


def test_cc_tail_solve_calls_no_dense_solver(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for case in ("2x2", "4x4", "asym-0.30", "vanishing-output"):
        s, w = BIT_IDENTITY_CASES[case]
        assert _certified(*_cc_e0_on_lattice(_CC_RHO_TAIL, s, w, True)[::2]).any()


def _bordered_backward_error(h, a, b, u):
    """The normwise backward error of u in [h a; a' 0] [u; lam] = [b; 0] at
    its best lam, per point on the last axis, in long double, with h read
    from its lower triangle."""
    h, a, b, u = (np.asarray(t, dtype=np.longdouble) for t in (h, a, b, u))
    low = np.tril(np.moveaxis(h, -1, 0))
    h = np.moveaxis(low + np.swapaxes(np.tril(low, -1), 1, 2), 0, -1)
    res = np.einsum("yzn,zn->yn", h, u) - b
    lam = (a * res).sum(axis=0) / (a * a).sum(axis=0)
    norm = lambda t, axes=0: np.sqrt((t * t).sum(axis=axes))
    err = norm(res - lam * a) + np.abs((a * u).sum(axis=0))
    return err / (norm(h, (0, 1)) * norm(u) + norm(b) + norm(a) * np.abs(lam))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.sampled_from([1, 2, 1201]), st.integers(1, 4),
       st.floats(0.0, 100.0), st.integers(0, 2**32 - 1))
def test_bordered_solve_is_as_accurate_as_the_dense_solve(m, n, inputs, rho_max, seed):
    # H = I + rho K' diag(s) K as the Newton step builds it: the rows of a
    # kernel with masses down to 1e-12, scaled by 1/sqrt(s K)
    rng = np.random.default_rng(seed)
    s = rng.dirichlet(np.ones(inputs))
    kernel = np.maximum(rng.dirichlet(np.full(m, 0.3), size=(inputs, n)), 1e-12)
    kernel = np.moveaxis(kernel / kernel.sum(axis=-1, keepdims=True), -1, 1)
    sc = 1.0 / np.sqrt((s[:, None, None] * kernel).sum(axis=0))
    ks, r = kernel * sc, rng.uniform(0.0, rho_max, n)
    h = r * (s[:, None, None, None] * ks[:, :, None] * ks[:, None]).sum(axis=0) + np.eye(m)[:, :, None]
    a, b = rng.dirichlet(np.ones(m), size=n).T * sc, (1.0 + r) / sc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = channel_exponents._bordered_solve(h, a, b)
    kkt = np.zeros((n, m + 1, m + 1))
    low = np.tril(np.moveaxis(h, -1, 0))
    kkt[:, :m, :m] = low + np.swapaxes(np.tril(low, -1), 1, 2)
    kkt[:, :m, m] = kkt[:, m, :m] = a.T
    rhs = np.concatenate([b.T, np.zeros((n, 1))], axis=1)
    dense = np.moveaxis(np.linalg.solve(kkt, rhs[:, :, None])[:, :m, 0], 0, -1)
    # both are backward stable to the unit roundoff, where neither wins every
    # point: the helper's worst point is the dense solve's worst up to 2 eps
    got, want = _bordered_backward_error(h, a, b, u).max(), _bordered_backward_error(h, a, b, dense).max()
    assert got <= want + 2.0 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# fixed-input Lagrangian: sub-lattice and stacked solves


SUBSET_CASES = ["2x2", "3x4", "4x4", "asym-0.30", "source-0.45", "mass-1e-30", "vanishing-output", "start-4x3"]


@pytest.mark.parametrize("case", SUBSET_CASES)
def test_cc_lattice_subsets_and_stacks_keep_the_whole_lattice_floats(case):
    s, w = BIT_IDENTITY_CASES[case]
    rng = np.random.default_rng(len(case))
    # a second law on the same support, to stack with the first
    other = np.where(s > 0, rng.dirichlet(np.ones(len(s))) + 0.1, 0.0)
    other /= other.sum()
    for rhos, newton in ((_CC_RHO_UNIT, False), (_CC_RHO_TAIL, True)):
        solved = [_cc_e0_on_lattice(rhos, law, w, newton) for law in (s, other)]
        whole = [part[0] for part in solved]
        if not newton:
            # both laws' whole lattices in one stack, one law per point: on
            # start-4x3 the stack's q_0 once rounded apart at rho = 0.4895 only
            laws = np.repeat([s, other], len(rhos), axis=0)
            got = _cc_e0_on_lattice(np.r_[rhos, rhos], laws, w, False)
            _assert_same_floats(got, [np.r_[a, b] for a, b in zip(*solved)])
        # each end alone: at rho = 1 a batch of one once took a square root
        for idx in ([0], [len(rhos) - 1]):
            assert np.array_equal(_cc_e0_on_lattice(rhos[idx], s, w, newton)[0], whole[0][idx])
        for size in (1, 2, 7, 33, 200):
            idx = np.sort(rng.choice(len(rhos), size, replace=False))
            assert np.array_equal(_cc_e0_on_lattice(rhos[idx], s, w, newton)[0], whole[0][idx])
            # the two laws' points interleaved in one call, one law per point;
            # Newton steps take one law
            jdx = np.sort(rng.choice(len(rhos), size, replace=False))
            laws = np.vstack([np.repeat(s[None], size, 0), np.repeat(other[None], size, 0)])
            order = rng.permutation(2 * size)
            if newton:
                with pytest.raises(ValueError, match="one input law"):
                    _cc_e0_on_lattice(np.r_[rhos[idx], rhos[jdx]][order], laws[order], w, newton)
                continue
            got = _cc_e0_on_lattice(np.r_[rhos[idx], rhos[jdx]][order], laws[order], w, newton)[0]
            assert np.array_equal(got, np.r_[whole[0][idx], whole[1][jdx]][order])


def _subset_cases(rhos):
    # (input law, channel, lattice points) on up to 9 inputs and 9 outputs:
    # numpy sums a contiguous axis of 8 or more terms pairwise, not in sequence
    return st.tuples(st.sampled_from([2, 3, 4, 9]), st.sampled_from([1, 2, 3, 4, 9])).flatmap(
        lambda km: st.tuples(_stochastic(1, km[0]).map(lambda m: m[0]), _stochastic(*km),
                             st.sets(st.integers(0, len(rhos) - 1), min_size=1, max_size=40))
    )


def _assert_subsets_keep_the_whole_lattice_floats(rhos, newton, case):
    s, w, picked = case
    whole = _cc_e0_on_lattice(rhos, s, w, newton)
    upper = _cc_upper(rhos, s, w)
    for idx in [np.array(sorted(picked))] + [np.array([k]) for k in sorted(picked)[:3]]:
        _assert_same_floats(_cc_e0_on_lattice(rhos[idx], s, w, newton), [part[idx] for part in whole])
        _assert_same_floats([_cc_upper(rhos[idx], s, w)], [upper[idx]])
    if not newton:
        # stacked with a second law on the same support, one law per point
        other = np.where(s > 0, np.arange(1.0, len(s) + 1.0), 0.0)
        other /= other.sum()
        idx = np.array(sorted(picked))
        laws = np.repeat([s, other], len(idx), axis=0)
        got = _cc_e0_on_lattice(np.r_[rhos[idx], rhos[idx]], laws, w, False)[0]
        want = np.r_[whole[0][idx], _cc_e0_on_lattice(rhos, other, w, False)[0][idx]]
        _assert_same_floats([got], [want])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_subset_cases(_CC_RHO_UNIT))
# rho = 0 is not swept, so the other point was once swept alone
@example((np.array([1.0, 0.0]), np.array([[0.0] * 5 + [4 / 9, 2 / 9, 1 / 3, 0.0], [0.0] * 8 + [1.0]]), {0, 1}))
def test_cc_unit_lattice_subsets_keep_the_whole_lattice_floats(case):
    # the swept sums over inputs run in sequence, not in an order numpy picks:
    # einsum once summed the inputs of a one-output, one-point batch as a dot,
    # and a one-point batch's (|X|, 1) arrays summed 9 inputs pairwise
    _assert_subsets_keep_the_whole_lattice_floats(_CC_RHO_UNIT, False, case)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_subset_cases(_CC_RHO_TAIL))
def test_cc_newton_tail_subsets_keep_the_whole_lattice_floats(case):
    _assert_subsets_keep_the_whole_lattice_floats(_CC_RHO_TAIL, True, case)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.tuples(st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4])).flatmap(
    # (input law, channel) on up to 4 x 4, zero entries and masses included
    lambda km: st.tuples(_stochastic(1, km[0]).map(lambda m: m[0]), _stochastic(*km))
))
def test_cc_upper_bounds_every_value(pair):
    s, w = pair
    for rhos, newton in ((_CC_RHO_UNIT, False), (_CC_RHO_TAIL, True)):
        vals, upper = _cc_e0_on_lattice(rhos, s, w, newton)[0], _cc_upper(rhos, s, w)
        assert np.all(vals <= upper)


@pytest.mark.parametrize("case", list(BIT_IDENTITY_CASES))
def test_cc_upper_bounds_every_value_on_the_bit_identity_cases(case):
    s, w = BIT_IDENTITY_CASES[case]
    for rhos, newton in ((_CC_RHO_UNIT, False), (_CC_RHO_TAIL, True)):
        assert np.all(_cc_e0_on_lattice(rhos, s, w, newton)[0] <= _cc_upper(rhos, s, w))


def _curve_floats(curve):
    return curve.values.copy(), curve.pending.copy(), curve.resolve()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(_stochastic(1, k).map(lambda m: m[0]), _stochastic(k, k))))
def test_sparse_curves_equal_the_whole_lattice_curves(pair):
    s, w = Distribution(pair[0]), ConditionalDistribution(pair[1])
    for step in (0.1, 0.01):
        rates = rate_grid(step, math.log2(w.input_size), include_zero=True)
        sparse = _curve_floats(channel_exponents._fixed_input_lattice(s, w).curve(rates))
        with pytest.MonkeyPatch.context() as mp:
            # every lattice at least as small as its rates: solved whole
            mp.setattr(channel_exponents, "_ENTRIES", len(_CC_RHO_UNIT))
            whole = _curve_floats(channel_exponents._fixed_input_lattice(s, w).curve(rates))
        for got, want in zip(sparse, whole):
            _assert_same_floats([got], [want])


def test_sparse_curves_solve_a_fraction_of_the_unit_lattice(monkeypatch):
    unit, tail = [], []
    real = channel_exponents._cc_e0_on_lattice

    def spy(rhos, s, w, newton=None, *args):
        (tail if np.any(newton) else unit).append(len(rhos))
        return real(rhos, s, w, newton, *args)

    monkeypatch.setattr(channel_exponents, "_cc_e0_on_lattice", spy)
    s, w = Distribution(np.array([0.3, 0.7])), ConditionalDistribution(np.array(ASYM_TWO))
    dual_exponent_curves(rate_grid(0.1, 1.0, include_zero=True), s, w)
    # the tail, where the bound is loose, is solved whole
    assert 0 < sum(unit) <= len(_CC_RHO_UNIT) // 4
    assert tail == [len(_CC_RHO_TAIL)]


# ---------------------------------------------------------------------------
# one power-sum kernel for E_0 and E_s


def _lattice_first_e0(rhos, s, w):
    """E_0 as `_e0_on_lattice` computed it with the lattice on the first axis."""
    wpow = np.power(w[None], (1.0 / (1.0 + rhos))[:, None, None])
    inner = np.tensordot(wpow, s, axes=([1], [0]))
    with np.errstate(divide="ignore"):
        vals = -np.log2(np.power(inner, (1.0 + rhos)[:, None]).sum(axis=1))
    vals[rhos == 0.0] = 0.0
    return np.maximum(vals, 0.0)


def _lattice_first_es(rhos, pm):
    """E_s as `_es_on_lattice` computed it with the lattice on the first axis."""
    cols = np.power(pm[None], (1.0 / (1.0 + rhos))[:, None, None]).sum(axis=1)
    vals = np.log2(np.power(cols, (1.0 + rhos)[:, None]).sum(axis=1))
    vals[rhos == 0.0] = 0.0
    return vals


def _scalar_e0(rho, s, w):
    """The scalar E_0 as `gallager_e0` computed it before the kernel."""
    if rho == 0.0:
        return 0.0
    val = -math.log2(float(np.power(s @ np.power(w, 1.0 / (1.0 + rho)), 1.0 + rho).sum()))
    return max(0.0, val) if rho > 0 else val


def _scalar_es(rho, pm):
    """The scalar E_s as `source_gallager_function` computed it before the kernel."""
    if rho == 0.0:
        return 0.0
    return math.log2(np.power(np.power(pm, 1.0 / (1.0 + rho)).sum(axis=0), 1.0 + rho).sum())


KERNEL_LATTICES = {
    "unit": _RHO_UNIT,
    "tail": _RHO_TAIL,
    "strided": np.concatenate([_RHO_UNIT[3::70], _RHO_TAIL[5::40]]),
    "one-point": np.array([0.37]),
    "one-tail-point": np.array([7.5]),
}


def _symmetric_channels(k):
    """Channels on k inputs whose rows permute one row, zeros included."""
    rng = np.random.default_rng(k)
    out = {"bsc": bsc(0.025).matrix, "bec": bec(0.3).matrix} if k == 2 else {}
    for m in (2, 3, 4, 6):
        row = rng.dirichlet(np.ones(m))
        if m > 2:
            row[m - 1] = 0.0
        out[f"rows-{m}"] = np.array([np.roll(row, i) for i in range(k)]) / row.sum()
    return out


def _kernel_joints():
    rng = np.random.default_rng(11)
    out = {"worked": np.array(((0.50, 0.00), (0.05, 0.45)))}
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            pm = rng.dirichlet(np.ones(a * b)).reshape(a, b)
            pm.flat[rng.permutation(a * b)[: (a * b) // 4]] = 0.0
            out[f"{a}x{b}"] = pm / pm.sum()
    return out


@pytest.mark.parametrize("lattice", list(KERNEL_LATTICES))
def test_e0_lattice_keeps_the_lattice_first_floats_on_binary_inputs(lattice):
    rhos, s = KERNEL_LATTICES[lattice], np.array([0.5, 0.5])
    for w in _symmetric_channels(2).values():
        _assert_same_floats([_e0_on_lattice(rhos, s, w)], [_lattice_first_e0(rhos, s, w)])


@pytest.mark.parametrize("k", [3, 4])
def test_e0_lattice_moves_by_rounding_past_binary_inputs(k):
    # the old inner sum was a gemv over (n |Y|, |X|) rows, which adds three or
    # four terms in another order than the kernel's sum in sequence over the
    # inputs: lattices of every size, one point included, move by at most
    # 2.9 (1 + rho) eps relative, measured over 60 seeded symmetric channels
    # on 3 and 4 inputs; the bound allows 4
    s, eps = np.full(k, 1.0 / k), np.finfo(float).eps
    for w in _symmetric_channels(k).values():
        for rhos in KERNEL_LATTICES.values():
            got, want = _e0_on_lattice(rhos, s, w), _lattice_first_e0(rhos, s, w)
            assert np.all(np.abs(got - want) <= 4.0 * (1.0 + rhos) * eps * np.maximum(want, 1.0))


@pytest.mark.parametrize("joint", list(_kernel_joints()))
def test_es_lattice_keeps_the_lattice_first_floats(joint):
    # one-point lattices too: a one-point gemv over four unit weights added
    # out of sequence
    pm = _kernel_joints()[joint]
    for rhos in KERNEL_LATTICES.values():
        _assert_same_floats([_es_on_lattice(rhos, pm)], [_lattice_first_es(rhos, pm)])


_KERNEL_RHOS = np.concatenate([_RHO_UNIT, _RHO_TAIL[1:]])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.tuples(st.sampled_from([1, 2, 3, 4, 5]), st.sampled_from([1, 2, 3, 4, 9])).flatmap(
    lambda km: st.tuples(_stochastic(1, km[0]).map(lambda m: m[0]), _stochastic(*km),
                         st.sets(st.integers(0, len(_KERNEL_RHOS) - 1), min_size=1, max_size=40))
))
def test_e0_and_es_lattice_subsets_keep_the_whole_lattice_floats(case):
    # E_0 at any input law, and E_s: at rho = 1 a batch of one once took a
    # square root, and the gemv's float hung on the point's place in its call
    s, w, picked = case
    idx = np.array(sorted(picked))
    for lattice in (lambda r: _e0_on_lattice(r, s, w), lambda r: _es_on_lattice(r, w / w.sum())):
        whole = lattice(_KERNEL_RHOS)
        for part in (idx, idx[:1], idx[-1:], np.array([len(_RHO_UNIT) - 1])):
            _assert_same_floats([lattice(_KERNEL_RHOS[part])], [whole[part]])


_BLOCK_LATTICES = {"unit": _RHO_UNIT, "tail": _RHO_TAIL, "cc-unit": _CC_RHO_UNIT}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.tuples(st.sampled_from([2, 3, 5, 8]), st.sampled_from([1, 2, 4, 8])).flatmap(
    # (input law, channel with zero entries, lattice, points, points per block
    # of a split of those points and of a split of the whole lattice)
    lambda km: st.tuples(_stochastic(1, km[0]).map(lambda m: m[0]), _stochastic(*km),
                         st.sampled_from(list(_BLOCK_LATTICES)),
                         st.sets(st.integers(0, 10_000), min_size=1, max_size=30),
                         st.integers(1, 7), st.integers(50, 3000))
))
def test_every_split_into_blocks_keeps_the_whole_lattice_floats(case):
    # E_0*, E_0 and E_s: one-point blocks (solved as two copies) and ragged
    # blocks give the whole lattice's values, laws and gaps
    s, w, name, picked, small, large = case
    rhos = _BLOCK_LATTICES[name]
    idx = np.unique(np.array(sorted(picked)) * (len(rhos) - 1) // 10_000)
    solvers = (lambda r: _e0_star_on_lattice(r, w), lambda r: (_e0_on_lattice(r, s, w),),
               lambda r: (_es_on_lattice(r, w / w.sum()),))
    for solve in solvers:
        whole = solve(rhos)
        with pytest.MonkeyPatch.context() as mp:
            for points, part in ((small, idx), (large, slice(None))):
                mp.setattr(channel_exponents, "_BLOCK_CELLS", points * w.size)
                mp.setattr(channel_exponents, "_E0_STAR_POINTS", points)
                _assert_same_floats(solve(rhos[part]), [values[part] for values in whole])


def test_e0_star_memory_is_bounded_by_blocks():
    # solved whole, with the lattice first, an 8 x 8 kernel over the unit
    # lattice peaked at 31 MiB; a block holds at most _E0_STAR_CELLS cells
    w = np.random.default_rng(0).dirichlet(np.ones(8), size=8)
    tracemalloc.start()
    try:
        _e0_star_on_lattice(_RHO_UNIT, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_scalar_gallager_functions_are_one_point_kernel_calls():
    rhos = (-0.5, 0.0, 0.3, 1.0, 2.5, 40.0)
    for k in (2, 3, 4):
        s = Distribution(np.random.default_rng(k).dirichlet(np.ones(k)))
        for w in map(ConditionalDistribution, _symmetric_channels(k).values()):
            for rho in rhos:
                want = _scalar_e0(rho, s.probs, w.matrix)
                assert gallager_e0(rho, s, w) == pytest.approx(want, abs=1e-14)
    for p in map(JointDistribution, _kernel_joints().values()):
        for rho in rhos:
            want = _scalar_es(rho, p.matrix)
            assert source_gallager_function(rho, p) == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# blocked Legendre envelope


def _dense_envelope(rates, rho_unit, rho_tail, unit_vals, tail_vals, table):
    """Envelopes from the whole (rho lattice x rates) table at once, with
    ``table(rhos, vals, rates)`` the objective each curve maximizes."""
    vals_unit = table(rho_unit, unit_vals, rates)
    best_idx = np.argmax(vals_unit, axis=0)
    low = np.maximum(vals_unit[best_idx, np.arange(len(rates))], 0.0)
    high = low.copy()
    needs_tail = best_idx == len(rho_unit) - 1
    if np.any(needs_tail):
        sub = rates[needs_tail]
        vals_tail = table(rho_tail, tail_vals, sub)
        tail_idx = np.argmax(vals_tail, axis=0)
        tail_val = vals_tail[tail_idx, np.arange(len(sub))]
        slope_end = (vals_tail[-1] - vals_tail[-2]) / (rho_tail[-1] - rho_tail[-2])
        still_climbing = (tail_idx == len(rho_tail) - 1) & (slope_end > 1e-12)
        tail_val = np.where(still_climbing, np.inf, tail_val)
        high[needs_tail] = np.maximum(high[needs_tail], tail_val)
    return low, high


def _same_floats(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _channel_table(rhos, vals, r):
    return vals[:, None] - rhos[:, None] * r[None, :]


def _source_table(rhos, es, r):
    return rhos[:, None] * r[None, :] - es[:, None]


def _matches_dense(got, rates, rho_unit, rho_tail, unit, tail, table=_channel_table):
    """``got`` equals the dense oracle float for float; the oracle runs on 128
    rates at a time, which keeps its tables small and leaves its floats alone."""
    for lo in range(0, len(rates), 128):
        blk = slice(lo, lo + 128)
        want = _dense_envelope(rates[blk], rho_unit, rho_tail, unit, tail, table)
        if not (_same_floats(got[0][blk], want[0]) and _same_floats(got[1][blk], want[1])):
            return False
    return True


def _cc_lattices(s, w):
    """The fixed-input Lagrangian on the unit lattice, without Newton steps,
    and on the tail lattice, with them, as its curves solve it."""
    return _cc_e0_on_lattice(_CC_RHO_UNIT, s, w, False)[0], _cc_e0_on_lattice(_CC_RHO_TAIL, s, w, True)[0]


def _dense_rows(monkeypatch):
    """Spy on the envelope's dense fallback: a list of the rates it was given."""
    seen = []
    dense = channel_exponents._dense_argmax

    def spy(rates, rhos, vals):
        seen.append(rates.copy())
        return dense(rates, rhos, vals)

    monkeypatch.setattr(channel_exponents, "_dense_argmax", spy)
    return seen


@pytest.mark.parametrize("block", [7, channel_exponents._RATE_BLOCK])
def test_blocked_envelope_matches_dense_table(monkeypatch, block):
    monkeypatch.setattr(channel_exponents, "_RATE_BLOCK", block)
    dense_rows = _dense_rows(monkeypatch)
    rates = np.concatenate([[0.0], np.linspace(0.002, 1.2, 300)])
    # rows with disjoint supports: I(S;V) = H(S) for every admissible V, so the
    # sphere-packing curve diverges below H(S)
    s, w = np.array([0.45, 0.55]), np.array([[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.4, 0.6]])
    got = dual_exponent_curves(rates, Distribution(s), ConditionalDistribution(w))
    unit, tail = _cc_lattices(s, w)
    assert np.isinf(got[1]).any() and np.isfinite(got[1][1:]).any()
    assert _matches_dense(got, rates, _CC_RHO_UNIT, _CC_RHO_TAIL, unit, tail)
    # input-optimized curves over the E_0* lattice
    w = np.array(ASYM_TWO)
    got = input_optimized_curves(rates, ConditionalDistribution(w))
    unit, tail = (_e0_star_on_lattice(rhos, w)[0] for rhos in (_RHO_UNIT, _RHO_TAIL))
    assert _matches_dense(got, rates, _RHO_UNIT, _RHO_TAIL, unit, tail)
    # source curves, max over rho of rho R - E_s(rho): the support caps H(A|B)
    # at 1 bit, so e_upper diverges between 1 and log2(3)
    p = JointDistribution(np.array([[0.3, 0.0], [0.2, 0.1], [0.0, 0.4]]))
    got = source_dual_curves(rates, p)
    unit, tail = (_es_on_lattice(rhos, p.matrix) for rhos in (_RHO_UNIT, _RHO_TAIL))
    assert np.isinf(got[1][rates < math.log2(3.0)]).any()
    assert _matches_dense(got, rates, _RHO_UNIT, _RHO_TAIL, unit, tail, _source_table)
    # the uniform input on bsc(0.025): 1,001 rates on the 10,001-point E_0 lattice
    dense_rows.clear()
    s, w = uniform2(), bsc(0.025)
    bsc_rates = np.linspace(0.0, 1.0, 1001)
    unit, tail = (_e0_on_lattice(rhos, s.probs, w.matrix) for rhos in (_RHO_UNIT, _RHO_TAIL))
    got = dual_exponent_curves(bsc_rates, s, w)
    assert _matches_dense(got, bsc_rates, _RHO_UNIT, _RHO_TAIL, unit, tail)
    # rate 0, rates equal to lattice slopes (ties), all in no order
    slopes = np.diff(unit) / np.diff(_RHO_UNIT)
    mixed = np.random.default_rng(3).permutation(np.concatenate([[0.0], slopes[::40], bsc_rates]))
    got = dual_exponent_curves(mixed, s, w)
    assert _matches_dense(got, mixed, _RHO_UNIT, _RHO_TAIL, unit, tail)
    assert not dense_rows
    # an input on one letter: the curve is zero up to rounding, and rate 0 ties
    # every lattice point, so it takes the dense fallback
    s = np.array([1.0, 0.0])
    got = dual_exponent_curves(bsc_rates, Distribution(s), w)
    unit, tail = _cc_lattices(s, w.matrix)
    assert _matches_dense(got, bsc_rates, _CC_RHO_UNIT, _CC_RHO_TAIL, unit, tail)
    assert len(dense_rows) == 1 and np.array_equal(dense_rows.pop(), [0.0])
    # the zero entry of CC_KERNEL caps the fixed-input Lagrangian, so its tail
    # flattens at large rho and rates below the flat top's slopes fall back
    s, w = cc_pair()
    tiny = np.concatenate([[0.0, 1e-14, 1e-13, 1e-12], bsc_rates[1:]])
    got = dual_exponent_curves(tiny, s, w)
    unit, tail = _cc_lattices(s.probs, w.matrix)
    assert _matches_dense(got, tiny, _CC_RHO_UNIT, _CC_RHO_TAIL, unit, tail)
    assert dense_rows and all(np.all(r <= 1e-12) for r in dense_rows)


def test_envelope_reads_few_lattice_points_on_concave_curves(monkeypatch):
    # a certificate too strict would send these curves back to the dense table
    dense_rows = _dense_rows(monkeypatch)
    rates = rate_grid(1e-3, 1.0, include_zero=True)
    # the worked pair's channel: the E_0 lattice of the uniform input
    dual_exponent_curves(rates, uniform2(), bsc(0.025))
    # a strictly concave constant-composition curve
    dual_exponent_curves(rates, Distribution(np.array([0.3, 0.7])), bsc(0.025))
    assert len(rates) == 1001 and not dense_rows


_weight = st.floats(0.0, 1.0)


def _stochastic(rows, cols):
    """Row-stochastic (rows, cols) arrays from entries in [0, 1], zeros included."""
    return (
        st.lists(_weight, min_size=rows * cols, max_size=rows * cols)
        .map(lambda v: np.array(v).reshape(rows, cols))
        .filter(lambda m: np.all(m.sum(axis=1) > 0.05))
        .map(lambda m: m / m.sum(axis=1, keepdims=True))
    )


# (input law, channel) pairs on 2x2 and 3x3 channels, and 2x2 and 3x2 joints
_channel_pairs = st.sampled_from([2, 3]).flatmap(
    lambda k: st.tuples(_stochastic(1, k).map(lambda m: m[0]), _stochastic(k, k))
)
_source_joints = st.sampled_from([2, 3]).flatmap(
    lambda k: _stochastic(1, 2 * k).map(lambda m: m.reshape(k, 2))
)
_PROPERTY_RATES = np.linspace(0.0, 1.6, 161)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_channel_pairs, _source_joints)
def test_envelope_matches_dense_table_on_random_instances(pair, joint):
    envelope, calls = channel_exponents._Lattice.curves, []

    def recording(lattice, rates):
        out = envelope(lattice, rates)
        # copies: source_dual_curves marks its lossless rates in place; the
        # tail is memoized, so reading it solves nothing the call did not
        calls.append(((out[0].copy(), out[1].copy()), rates, lattice.rho_unit, lattice.rho_tail,
                      lattice.unit[0], lattice.tail()[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel_exponents._Lattice, "curves", recording)
        dual_exponent_curves(_PROPERTY_RATES, Distribution(pair[0]), ConditionalDistribution(pair[1]))
        source_dual_curves(_PROPERTY_RATES, JointDistribution(joint / joint.sum()))
    assert len(calls) == 2
    for call in calls:
        assert _matches_dense(*call)


def test_curve_pairs_are_two_arrays_where_no_rate_needs_the_tail():
    # every unit argmax peaks below rho = 1, so the two curves hold the same
    # floats; a caller writing into one must not change the other
    source = JointDistribution(np.array([[0.5, 0.0], [0.05, 0.45]]))
    skewed = Distribution(np.array([0.3, 0.7]))
    pairs = [
        dual_exponent_curves(np.linspace(0.5, 0.7, 5), uniform2(), bsc(0.025)),
        dual_exponent_curves(np.linspace(0.4, 0.6, 5), skewed, bsc(0.025)),
        input_optimized_curves(np.linspace(0.3, 0.5, 5), ConditionalDistribution(np.array(ASYM_TWO))),
        source_dual_curves(np.linspace(0.25, 0.4, 4), source),
    ]
    for a, b in pairs:
        assert np.array_equal(a, b) and not np.shares_memory(a, b)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_channel_pairs)
def test_dual_curves_are_ordered_convex_and_nonincreasing(pair):
    rates = _PROPERTY_RATES
    er, esp = dual_exponent_curves(rates, Distribution(pair[0]), ConditionalDistribution(pair[1]))
    # each table entry E(rho) - rho R rounds by about eps (|E| + R rho), with
    # rho up to RHO_MAX: the tolerance is four such roundings per value
    tol = 4.0 * np.finfo(float).eps * (np.abs(er) + rates * RHO_MAX)
    assert np.all(er <= esp + tol)
    for e in (er, esp):
        e = np.where(np.isfinite(e), e, np.nan)  # nan compares false, silently
        assert not np.any(np.diff(e) > tol[1:] + tol[:-1])
        assert not np.any(np.diff(e, 2) < -(tol[2:] + 2.0 * tol[1:-1] + tol[:-2]))
