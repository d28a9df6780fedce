"""Error exponents for fixed-rate compression of a source A observed with
side information B at the decoder.

The lower-bound exponent penalizes excess conditional entropy linearly
(min over Q of D(Q||P) + |R - H_Q(A|B)|+), the upper-bound exponent imposes
it as a constraint (min over Q with H_Q(A|B) >= R of D(Q||P)). Both have
Gallager duals through the convex function

    E_s(rho, P) = log2 sum_b [ sum_a P(a,b)^(1/(1+rho)) ]^(1+rho)

as max over rho of rho*R - E_s(rho); the lower form caps rho at 1, the upper
form searches all rho >= 0 with the same expanding bracket the channel module
uses. Primal grid enumeration is retained as the independent oracle.

Rates at or above log2|A| are assigned an infinite exponent by convention:
a code of that rate can ship the source losslessly, so no error event
survives. Divergent dual searches (rates above the largest conditional
entropy the support of P allows) come out infinite as well.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel_exponents import _RHO_TAIL, _RHO_UNIT, _envelope_curves, _primal_tables
from .channel_exponents import constant_composition_e0, dual_exponent_curves
from .channel_exponents import sphere_packing_exponent
from .numerics import (
    concave_dual_max,
    conditional_grid,
    golden_section_max,
    hinge_min_increasing,
    min_where_constraint_at_least,
    simplex_grid,
)
from .probkit import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    entropy_bits,
    kl_bits,
)

_BOUNDARY_SLACK = 1e-12


@dataclass(frozen=True)
class SourceExponentResult:
    rate: float
    value: float
    method: str
    rho: float | None = None
    minimizer: JointDistribution | None = None
    diverged: bool = False
    infeasible: bool = False


@dataclass(frozen=True)
class DualityReport:
    rate: float
    channel_rate: float
    lhs: float
    rhs: float
    abs_diff: float


def source_gallager_function(rho: float, p: JointDistribution) -> float:
    """E_s(rho, P) in bits; convex and increasing in rho, zero at rho = 0."""
    if rho <= -1.0:
        raise ValueError("rho must exceed -1")
    if rho == 0.0:
        return 0.0
    cols = np.power(p.matrix, 1.0 / (1.0 + rho)).sum(axis=0)
    return float(math.log2(np.power(cols, 1.0 + rho).sum()))


def _es_on_lattice(rhos: np.ndarray, pm: np.ndarray) -> np.ndarray:
    expo = 1.0 / (1.0 + rhos)
    cols = np.power(pm[None, :, :], expo[:, None, None]).sum(axis=1)
    vals = np.log2(np.power(cols, (1.0 + rhos)[:, None]).sum(axis=1))
    vals[rhos == 0.0] = 0.0
    return vals


def _log_alphabet(p: JointDistribution) -> float:
    return math.log2(p.shape[0])


def _at_or_above_lossless_rate(r: float, log_a: float) -> bool:
    return r >= log_a - _BOUNDARY_SLACK


# ---------------------------------------------------------------------------
# joint-distribution grid tables


def _joint_tables(p: JointDistribution, step: float):
    """All grid joints Q with D(Q||P) and the conditional entropy H_Q(A|B)."""
    na, nb = p.shape
    flat = simplex_grid(na * nb, step)
    d = kl_bits(flat, p.matrix.reshape(-1)[None, :], axis=1)
    joint_h = entropy_bits(flat, axis=1)
    col_mass = flat.reshape(-1, na, nb).sum(axis=1)
    h_cond = joint_h - entropy_bits(col_mass, axis=1)
    np.maximum(h_cond, 0.0, out=h_cond)
    return flat, d, h_cond


def e_lower(
    r: float,
    p: JointDistribution,
    method: str = "primal_grid",
    grid_step: float = 0.01,
) -> SourceExponentResult:
    """Exponent guaranteed by random binning at rate r (hinge penalty form)."""
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if method == "gallager_dual":
        val, rho, _ = concave_dual_max(lambda rho: rho * r - source_gallager_function(rho, p))
        return SourceExponentResult(rate=r, value=val, method=method, rho=rho)
    if method == "primal_grid":
        flat, d, h_cond = _joint_tables(p, grid_step)
        vals = d + np.maximum(r - h_cond, 0.0)
        idx = int(np.argmin(vals))
        na, nb = p.shape
        return SourceExponentResult(
            rate=r,
            value=float(vals[idx]),
            method=method,
            minimizer=JointDistribution(flat[idx].reshape(na, nb)),
        )
    raise ValueError(f"unknown method {method!r}")


def _pairwise_descent(q: np.ndarray, p_flat: np.ndarray, r: float, na: int, nb: int):
    """Polish a feasible joint law by golden-section mass transfers between
    cell pairs, keeping H(A|B) >= r. The objective is convex along every such
    line and the feasible slice is an interval, so each 1-D step is exact."""

    def objective(flat):
        if flat.min() < -1e-15:
            return math.inf
        h = entropy_bits(flat) - entropy_bits(flat.reshape(na, nb).sum(axis=0))
        if h < r - 1e-12:
            return math.inf
        return kl_bits(np.maximum(flat, 0.0), p_flat)

    best = q.copy()
    best_val = objective(best)
    cells = len(q)
    for _ in range(60):
        improved = False
        for i in range(cells):
            for j in range(cells):
                if i == j:
                    continue
                span = best[i]
                if span <= 0:
                    continue

                def along(t):
                    cand = best.copy()
                    cand[i] -= t
                    cand[j] += t
                    return -objective(cand)

                t_star, neg = golden_section_max(along, 0.0, span, xtol=1e-12)
                if -neg < best_val - 1e-14:
                    best[i] -= t_star
                    best[j] += t_star
                    best_val = -neg
                    improved = True
        if not improved:
            break
    return np.maximum(best, 0.0), best_val


def e_upper(
    r: float,
    p: JointDistribution,
    method: str = "primal_grid",
    grid_step: float = 0.01,
    refine: bool = True,
) -> SourceExponentResult:
    """Constrained-form exponent: min D(Q||P) over H_Q(A|B) >= r."""
    if r < 0:
        raise ValueError("rate must be nonnegative")
    log_a = _log_alphabet(p)
    if _at_or_above_lossless_rate(r, log_a):
        return SourceExponentResult(rate=r, value=math.inf, method=method, diverged=True)
    if method == "gallager_dual":
        return e_upper_dual(r, p)
    if method != "primal_grid":
        raise ValueError(f"unknown method {method!r}")

    na, nb = p.shape
    flat, d, h_cond = _joint_tables(p, grid_step)
    feasible = h_cond >= r - 1e-12
    if not np.any(feasible):
        return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
    vals = np.where(feasible, d, np.inf)
    idx = int(np.argmin(vals))
    best = flat[idx].copy()
    best_val = float(vals[idx])
    if refine and math.isfinite(best_val):
        p_flat = p.matrix.reshape(-1)
        seeds = [best]
        h_p = float(
            entropy_bits(p_flat) - entropy_bits(p.matrix.sum(axis=0))
        )
        if h_p >= r - 1e-12:
            seeds.append(p_flat.copy())
        for seed in seeds:
            polished, val = _pairwise_descent(seed, p_flat, r, na, nb)
            if val < best_val:
                best, best_val = polished, val
    return SourceExponentResult(
        rate=r,
        value=best_val,
        method=method,
        minimizer=JointDistribution(best.reshape(na, nb)),
    )


def e_upper_dual(r: float, p: JointDistribution) -> SourceExponentResult:
    """Gallager-dual route for the constrained-form exponent."""
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if _at_or_above_lossless_rate(r, _log_alphabet(p)):
        return SourceExponentResult(rate=r, value=math.inf, method="gallager_dual", diverged=True)
    g = lambda rho: rho * r - source_gallager_function(rho, p)
    val, rho, diverged = concave_dual_max(g, tail=True)
    return SourceExponentResult(
        rate=r,
        value=math.inf if diverged else val,
        method="gallager_dual",
        rho=rho,
        diverged=diverged,
    )


def source_dual_curves(rates: np.ndarray, p: JointDistribution):
    """(e_lower, e_upper) dual values for every rate at once.

    Shares the channel curves' Legendre envelope: a unit-interval rho
    lattice, with a geometric tail consulted only where the unit argmax
    saturates, and exact e_lower == e_upper floats wherever the optimizer
    stays inside [0, 1].
    """
    rates = np.asarray(rates, dtype=float)
    pm = p.matrix
    # rho R - E_s(rho) == -E_s(rho) - rho (-R) as floats, so the channel
    # envelope of -E_s at the rates -R gives the source curves exactly
    el, eu = _envelope_curves(
        -rates, _RHO_UNIT, _RHO_TAIL, -_es_on_lattice(_RHO_UNIT, pm),
        lambda: -_es_on_lattice(_RHO_TAIL, pm),
    )
    lossless = rates >= _log_alphabet(p) - _BOUNDARY_SLACK
    eu[lossless] = np.inf
    return el, eu


def source_primal_curves(rates: np.ndarray, p: JointDistribution, grid_step: float = 0.01):
    """Grid-oracle counterpart of :func:`source_dual_curves`."""
    rates = np.asarray(rates, dtype=float)
    _, d, h_cond = _joint_tables(p, grid_step)
    el = hinge_min_increasing(h_cond, d, rates)
    eu = min_where_constraint_at_least(h_cond, d, rates)
    eu = eu.copy()
    eu[rates >= _log_alphabet(p) - _BOUNDARY_SLACK] = np.inf
    return el, eu


# ---------------------------------------------------------------------------
# fixed source marginal


def e_upper_fixed_marginal(
    r: float,
    p: JointDistribution,
    q_a: Distribution,
    method: str = "gallager_dual",
    grid_step: float = 0.01,
) -> SourceExponentResult:
    """Constrained-form exponent with the law of A pinned to q_a.

    The dual route rides on the sphere-packing value of the conditional
    kernel P(B|A) at the fixed input q_a: constraining H_Q(A|B) >= r with a
    fixed marginal is the same as constraining I(q_a; Q_B|A) <= H(q_a) - r.
    Because the input stays fixed, the exact fixed-input Lagrangian is used
    rather than the E_0 form, which is only a lower bound off its maximizing
    input and would break the ordering against the unconstrained exponent.
    """
    na, nb = p.shape
    if q_a.size != na:
        raise ValueError("marginal alphabet does not match the joint law")
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if _at_or_above_lossless_rate(r, _log_alphabet(p)):
        return SourceExponentResult(rate=r, value=math.inf, method=method, diverged=True)

    if method == "gallager_dual":
        d_marg = float(kl_bits(q_a.probs, p.matrix.sum(axis=1)))
        if math.isinf(d_marg):
            return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
        budget = float(entropy_bits(q_a.probs)) - r
        if budget < -1e-12:
            return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
        w = p.conditional_rows()
        g = lambda rho: constant_composition_e0(rho, q_a, w) - rho * max(0.0, budget)
        val, rho, diverged = concave_dual_max(g, tail=True)
        return SourceExponentResult(
            rate=r,
            value=math.inf if diverged else d_marg + val,
            method=method,
            rho=rho,
            diverged=diverged,
        )

    if method != "primal_grid":
        raise ValueError(f"unknown method {method!r}")
    kernels = conditional_grid(na, nb, grid_step)
    joints = q_a.probs[None, :, None] * kernels
    flat = joints.reshape(len(kernels), na * nb)
    h_cond = entropy_bits(flat, axis=1) - entropy_bits(joints.sum(axis=1), axis=1)
    feasible = h_cond >= r - 1e-12
    if not np.any(feasible):
        return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
    d = kl_bits(flat, p.matrix.reshape(-1)[None, :], axis=1)
    vals = np.where(feasible, d, np.inf)
    idx = int(np.argmin(vals))
    if not math.isfinite(vals[idx]):
        return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
    return SourceExponentResult(
        rate=r,
        value=float(vals[idx]),
        method=method,
        minimizer=JointDistribution(joints[idx]),
    )


def fixed_marginal_dual_curve(
    rates: np.ndarray, p: JointDistribution, q_a: Distribution
) -> np.ndarray:
    """Fixed-marginal exponent across a rate vector (dual route)."""
    rates = np.asarray(rates, dtype=float)
    out = np.full(len(rates), math.inf)
    d_marg = float(kl_bits(q_a.probs, p.matrix.sum(axis=1)))
    if math.isinf(d_marg):
        return out
    h_qa = float(entropy_bits(q_a.probs))
    log_a = _log_alphabet(p)
    valid = (rates < log_a - _BOUNDARY_SLACK) & (h_qa - rates >= -1e-12)
    if not np.any(valid):
        return out
    channel_rates = np.maximum(h_qa - rates[valid], 0.0)
    _, esp = dual_exponent_curves(channel_rates, q_a, p.conditional_rows())
    out[valid] = d_marg + esp
    return out


# ---------------------------------------------------------------------------
# no side information


def independent_si_exponent(
    r: float,
    p_a: Distribution,
    method: str = "gallager_dual",
    grid_step: float = 0.005,
) -> SourceExponentResult:
    """Exponent when the side information is independent of the source, which
    reduces to compressing A alone: min D(Q||P_A) over H(Q) >= r."""
    if r < 0:
        raise ValueError("rate must be nonnegative")
    log_a = math.log2(p_a.size)
    if r >= log_a - _BOUNDARY_SLACK:
        return SourceExponentResult(rate=r, value=math.inf, method=method, diverged=True)
    if method == "gallager_dual":
        def es(rho: float) -> float:
            if rho == 0.0:
                return 0.0
            return (1.0 + rho) * math.log2(
                float(np.power(p_a.probs, 1.0 / (1.0 + rho)).sum())
            )

        val, rho, diverged = concave_dual_max(lambda rho: rho * r - es(rho), tail=True)
        return SourceExponentResult(rate=r, value=val, method=method, rho=rho, diverged=diverged)
    if method != "primal_grid":
        raise ValueError(f"unknown method {method!r}")
    grid = simplex_grid(p_a.size, grid_step)
    h = entropy_bits(grid, axis=1)
    feasible = h >= r - 1e-12
    if not np.any(feasible):
        return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
    d = kl_bits(grid, p_a.probs[None, :], axis=1)
    vals = np.where(feasible, d, np.inf)
    idx = int(np.argmin(vals))
    return SourceExponentResult(
        rate=r,
        value=float(vals[idx]),
        method=method,
        minimizer=JointDistribution(grid[idx][:, None]),
    )


# ---------------------------------------------------------------------------
# duality with the sphere-packing exponent


def duality_check(
    r: float,
    q_a: Distribution,
    p_b_given_a: ConditionalDistribution,
    grid_step: float = 0.01,
) -> DualityReport:
    """Compare the fixed-marginal source minimization against the
    sphere-packing exponent of the kernel at the complementary rate.

    Both sides enumerate the same kernel grid; only the constraint is
    phrased differently (conditional entropy >= r versus mutual information
    <= H(q_a) - r), so any gap is pure grid-boundary noise.
    """
    if q_a.size != p_b_given_a.input_size:
        raise ValueError("marginal alphabet does not match the kernel")
    h_qa = float(entropy_bits(q_a.probs))
    if r < 0 or r > h_qa + 1e-12:
        raise ValueError(f"rate must lie in [0, H(q_a)] = [0, {h_qa}], got {r}")

    na, nb = p_b_given_a.shape
    kernels, cond_kl, _ = _primal_tables(q_a, p_b_given_a, grid_step)
    joints = q_a.probs[None, :, None] * kernels
    flat = joints.reshape(len(kernels), na * nb)
    h_cond = entropy_bits(flat, axis=1) - entropy_bits(joints.sum(axis=1), axis=1)
    feasible = h_cond >= r - 1e-12
    lhs = float(np.where(feasible, cond_kl, np.inf).min()) if np.any(feasible) else math.inf

    channel_rate = max(0.0, h_qa - r)
    rhs = sphere_packing_exponent(
        channel_rate, q_a, p_b_given_a, method="primal_grid", grid_step=grid_step
    ).value
    diff = abs(lhs - rhs) if (math.isfinite(lhs) and math.isfinite(rhs)) else (
        0.0 if lhs == rhs else math.inf
    )
    return DualityReport(rate=r, channel_rate=channel_rate, lhs=lhs, rhs=rhs, abs_diff=diff)
