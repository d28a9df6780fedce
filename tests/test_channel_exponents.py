"""Tests for channel reliability exponents: fixed-input and input-optimized
random-coding and sphere-packing curves, capacity, and symmetry detection.

Frozen reference numbers come from independent mpmath computations (40
digits): closed forms where available, otherwise high-precision ternary
search on the one-dimensional convex/concave subproblems.
"""
import math

import numpy as np
import pytest

from siexp import channel_exponents
from siexp.channel_exponents import (
    RHO_MAX,
    _CC_RHO_TAIL,
    _CC_RHO_UNIT,
    _RHO_TAIL,
    _RHO_UNIT,
    _cc_e0_on_lattice,
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
from siexp.numerics import rate_grid, simplex_grid
from siexp.probkit import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    mutual_information,
)
from siexp.source_si_exponents import _es_on_lattice, source_dual_curves

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


def test_lattice_solvers_raise_when_unconverged():
    w = np.array(ASYM_TWO)
    with pytest.raises(RuntimeError):
        _cc_e0_on_lattice(_CC_RHO_TAIL, np.array([0.3, 0.7]), w, max_iter=2)
    with pytest.raises(RuntimeError):
        _e0_star_on_lattice(_RHO_TAIL, np.array(SPARSE_FOUR), max_iter=2)


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


@pytest.mark.parametrize("block", [7, channel_exponents._RATE_BLOCK])
def test_blocked_envelope_matches_dense_table(monkeypatch, block):
    monkeypatch.setattr(channel_exponents, "_RATE_BLOCK", block)
    rates = np.concatenate([[0.0], np.linspace(0.002, 1.2, 300)])
    table = lambda rhos, vals, r: vals[:, None] - rhos[:, None] * r[None, :]
    # rows with disjoint supports: I(S;V) = H(S) for every admissible V, so the
    # sphere-packing curve diverges below H(S)
    s, w = np.array([0.45, 0.55]), np.array([[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.4, 0.6]])
    er, esp = dual_exponent_curves(rates, Distribution(s), ConditionalDistribution(w))
    unit, tail = (_cc_e0_on_lattice(rhos, s, w)[0] for rhos in (_CC_RHO_UNIT, _CC_RHO_TAIL))
    want = _dense_envelope(rates, _CC_RHO_UNIT, _CC_RHO_TAIL, unit, tail, table)
    assert np.isinf(esp).any() and np.isfinite(esp[1:]).any()
    assert _same_floats(er, want[0]) and _same_floats(esp, want[1])
    # input-optimized curves over the E_0* lattice
    w = np.array(ASYM_TWO)
    er, esp = input_optimized_curves(rates, ConditionalDistribution(w))
    unit, tail = (_e0_star_on_lattice(rhos, w)[0] for rhos in (_RHO_UNIT, _RHO_TAIL))
    want = _dense_envelope(rates, _RHO_UNIT, _RHO_TAIL, unit, tail, table)
    assert _same_floats(er, want[0]) and _same_floats(esp, want[1])
    # source curves, max over rho of rho R - E_s(rho): the support caps H(A|B)
    # at 1 bit, so e_upper diverges between 1 and log2(3)
    p = JointDistribution(np.array([[0.3, 0.0], [0.2, 0.1], [0.0, 0.4]]))
    el, eu = source_dual_curves(rates, p)
    unit, tail = (_es_on_lattice(rhos, p.matrix) for rhos in (_RHO_UNIT, _RHO_TAIL))
    source_table = lambda rhos, es, r: rhos[:, None] * r[None, :] - es[:, None]
    want = _dense_envelope(rates, _RHO_UNIT, _RHO_TAIL, unit, tail, source_table)
    assert np.isinf(eu[rates < math.log2(3.0)]).any()
    assert _same_floats(el, want[0]) and _same_floats(eu, want[1])
