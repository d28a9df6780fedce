"""Tests for grid enumeration, one-dimensional search, and envelope helpers."""
import math

import numpy as np
import pytest

from siexp.errors import BudgetError
from siexp.numerics import (
    concave_dual_max,
    concave_tail_max,
    conditional_grid,
    golden_section_max,
    grid_resolution,
    hinge_min_increasing,
    largest_remainder_counts,
    min_where_constraint_at_least,
    rate_grid,
    simplex_grid,
)


def test_grid_resolution():
    assert grid_resolution(0.02) == 50
    assert grid_resolution(0.01) == 100
    assert grid_resolution(0.005) == 200
    assert grid_resolution(1e-3) == 1000
    assert grid_resolution(0.5) == 2
    for bad in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            grid_resolution(bad)


def test_simplex_grid_small_exact():
    g2 = simplex_grid(2, 0.5)
    np.testing.assert_array_equal(g2, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    g3 = simplex_grid(3, 0.5)
    np.testing.assert_array_equal(
        g3,
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
            [1.0, 0.0, 0.0],
        ],
    )


def test_simplex_grid_counts_sums_order():
    for k, step in [(2, 0.01), (3, 0.05), (4, 0.1)]:
        g = simplex_grid(k, step)
        res = grid_resolution(step)
        assert len(g) == math.comb(res + k - 1, k - 1)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(g >= 0.0)
        # lexicographic: rows must be strictly increasing as tuples
        as_int = np.rint(g * res).astype(int)
        keys = [tuple(row) for row in as_int]
        assert keys == sorted(keys)
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 2.0


def test_simplex_grid_budget():
    with pytest.raises(BudgetError):
        simplex_grid(5, 0.005)


def test_conditional_grid():
    g = conditional_grid(2, 2, 0.5)
    assert g.shape == (9, 2, 2)
    np.testing.assert_allclose(g.sum(axis=2), 1.0, atol=1e-12)
    # every pair of simplex rows appears exactly once
    seen = {tuple(m.ravel()) for m in g}
    assert len(seen) == 9
    with pytest.raises(BudgetError):
        conditional_grid(3, 3, 0.05)


def test_golden_section_max_interior_and_boundary():
    x, v = golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-8 and abs(v) <= 1e-15
    x, v = golden_section_max(lambda t: t, 0.0, 1.0)
    assert x == 1.0 and v == 1.0
    x, v = golden_section_max(lambda t: -t, 0.0, 1.0)
    assert x == 0.0 and v == 0.0
    with pytest.raises(ValueError):
        golden_section_max(lambda t: t, 1.0, 0.0)


def test_concave_tail_max():
    v, x, diverged = concave_tail_max(lambda r: -((r - 5.0) ** 2))
    assert not diverged and abs(x - 5.0) <= 1e-7 and abs(v) <= 1e-12
    v, x, diverged = concave_tail_max(lambda r: r)
    assert diverged and v == math.inf and x is None
    # peak near the far end of the doubling schedule
    v, x, diverged = concave_tail_max(lambda r: -((r - 90.0) ** 2))
    assert not diverged and abs(x - 90.0) <= 1e-6


def test_concave_dual_max_stages():
    # interior optimum: both variants return the same float
    g = lambda r: 0.5 * r - 0.5 * r * r
    assert concave_dual_max(g) == concave_dual_max(g, tail=True)
    v, x, diverged = concave_dual_max(g)
    assert abs(x - 0.5) <= 1e-7 and v == pytest.approx(0.125, abs=1e-14) and not diverged
    # optimum past 1: the unit stage stops at the boundary, the tail finds it
    g = lambda r: -((r - 5.0) ** 2) + 25.0
    v, x, _ = concave_dual_max(g)
    assert x == 1.0 and v == 9.0
    v, x, diverged = concave_dual_max(g, tail=True)
    assert abs(x - 5.0) <= 1e-7 and v == pytest.approx(25.0, abs=1e-12) and not diverged
    # still climbing at the end of the tail, and negative values clipped to 0
    assert concave_dual_max(lambda r: r, tail=True) == (math.inf, None, True)
    assert concave_dual_max(lambda r: -r - 1.0)[0] == 0.0


def test_rate_grid():
    r = rate_grid(0.1, 1.0)
    np.testing.assert_allclose(r, np.arange(1, 11) * 0.1, atol=1e-12)
    assert r[-1] == 1.0  # snapped, not 0.9999999999999999
    r0 = rate_grid(0.1, 1.0, include_zero=True)
    assert r0[0] == 0.0 and len(r0) == 11
    assert rate_grid(0.1, 0.95)[-1] == pytest.approx(0.9, abs=1e-12)
    fine = rate_grid(1e-3, 1.0)
    assert len(fine) == 1000 and fine[-1] == 1.0
    with pytest.raises(ValueError):
        rate_grid(0.0, 1.0)


def _brute(c, d, rates, kind):
    out = []
    for r in rates:
        if kind == "at_least":
            vals = [di for ci, di in zip(c, d) if ci >= r]
        elif kind == "at_most":
            vals = [di for ci, di in zip(c, d) if ci <= r]
        elif kind == "hinge_inc":
            vals = [di + max(0.0, r - ci) for ci, di in zip(c, d)]
        else:
            vals = [di + max(0.0, ci - r) for ci, di in zip(c, d)]
        out.append(min(vals) if vals else math.inf)
    return np.array(out)


def test_constrained_minima_match_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(20):
        c = rng.random(60) * 2.0
        d = rng.random(60) * 3.0
        if trial % 3 == 0:
            d[rng.integers(0, 60, size=5)] = np.inf
        rates = np.sort(rng.random(15) * 2.2)
        np.testing.assert_allclose(
            min_where_constraint_at_least(c, d, rates), _brute(c, d, rates, "at_least")
        )
        # the decreasing forms are the increasing ones on -c and -rates
        np.testing.assert_allclose(
            min_where_constraint_at_least(-c, d, -rates), _brute(c, d, rates, "at_most")
        )
        np.testing.assert_allclose(
            hinge_min_increasing(c, d, rates), _brute(c, d, rates, "hinge_inc"), atol=1e-12
        )
        np.testing.assert_allclose(
            hinge_min_increasing(-c, d, -rates), _brute(c, d, rates, "hinge_dec"), atol=1e-12
        )


def test_hinge_monotonicity():
    rng = np.random.default_rng(5)
    c = rng.random(40)
    d = rng.random(40)
    rates = np.linspace(0.0, 1.5, 200)
    inc = hinge_min_increasing(c, d, rates)
    dec = hinge_min_increasing(-c, d, -rates)
    assert np.all(np.diff(inc) >= -1e-12)
    assert np.all(np.diff(dec) <= 1e-12)


def test_largest_remainder_counts():
    np.testing.assert_array_equal(
        largest_remainder_counts(np.array([0.5, 0.5]), 3), [2, 1]
    )
    np.testing.assert_array_equal(
        largest_remainder_counts(np.array([0.3, 0.3, 0.4]), 10), [3, 3, 4]
    )
    rng = np.random.default_rng(9)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        p = rng.random(k)
        p /= p.sum()
        n = int(rng.integers(1, 12))
        counts = largest_remainder_counts(p, n)
        assert counts.sum() == n
        assert np.all(counts >= 0)
        assert np.all(np.abs(counts - n * p) < 1.0)
