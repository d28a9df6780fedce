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

from .channel_exponents import _RHO_TAIL, _RHO_UNIT, _Curve, _curves, _fixed_input_lattice, _Lattice
from .channel_exponents import _power_sum_on_lattice, _primal_tables
from .channel_exponents import constant_composition_e0, sphere_packing_exponent
from .numerics import (
    concave_dual_max,
    conditional_grid,
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
    return float(_es_on_lattice(np.array([rho]), p.matrix)[0])


def _es_on_lattice(rhos: np.ndarray, pm: np.ndarray) -> np.ndarray:
    return _power_sum_on_lattice(rhos, pm, np.ones(pm.shape[0]))


def _at_or_above_lossless_rate(r, p: JointDistribution):
    """Whether rate r, a float or an array, reaches log2|A|."""
    return r >= math.log2(p.shape[0]) - _BOUNDARY_SLACK


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
        return SourceExponentResult(
            rate=r,
            value=float(vals[idx]),
            method=method,
            minimizer=JointDistribution(flat[idx].reshape(p.shape)),
        )
    raise ValueError(f"unknown method {method!r}")


def e_upper(
    r: float,
    p: JointDistribution,
    method: str = "primal_grid",
    grid_step: float = 0.01,
) -> SourceExponentResult:
    """Constrained-form exponent: min D(Q||P) over H_Q(A|B) >= r. The primal
    route returns the grid minimum, like :func:`e_lower`."""
    if method not in ("primal_grid", "gallager_dual"):
        raise ValueError(f"unknown method {method!r}")
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if _at_or_above_lossless_rate(r, p):
        return SourceExponentResult(rate=r, value=math.inf, method=method, diverged=True)
    if method == "gallager_dual":
        return e_upper_dual(r, p)

    flat, d, h_cond = _joint_tables(p, grid_step)
    feasible = h_cond >= r - 1e-12
    if not np.any(feasible):
        return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
    vals = np.where(feasible, d, np.inf)
    idx = int(np.argmin(vals))
    return SourceExponentResult(
        rate=r,
        value=float(vals[idx]),
        method=method,
        minimizer=JointDistribution(flat[idx].reshape(p.shape)),
    )


def e_upper_dual(r: float, p: JointDistribution) -> SourceExponentResult:
    """Gallager-dual route for the constrained-form exponent."""
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if _at_or_above_lossless_rate(r, p):
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


def _source_lattice(p: JointDistribution) -> _Lattice:
    """The lattice of -E_s: every rate grid over one source can share it."""
    return _Lattice(_RHO_UNIT, _RHO_TAIL, lambda rhos: (-_es_on_lattice(rhos, p.matrix),))


def _source_curves(rates: np.ndarray, p: JointDistribution, lattice: _Lattice):
    """:func:`source_dual_curves` over the lattice of :func:`_source_lattice`."""
    rates = np.asarray(rates, dtype=float)
    # rho R - E_s(rho) == -E_s(rho) - rho (-R) as floats, so the channel
    # envelope of -E_s at the rates -R gives the source curves exactly
    el, eu = lattice.curves(-rates)
    eu[_at_or_above_lossless_rate(rates, p)] = np.inf
    return el, eu


def source_dual_curves(rates: np.ndarray, p: JointDistribution):
    """(e_lower, e_upper) dual values for every rate at once.

    Shares the channel curves' Legendre envelope: a unit-interval rho
    lattice, with a geometric tail consulted only where the unit argmax
    saturates, and exact e_lower == e_upper floats wherever the optimizer
    stays inside [0, 1].
    """
    return _source_curves(rates, p, _source_lattice(p))


def source_primal_curves(rates: np.ndarray, p: JointDistribution, grid_step: float = 0.01):
    """Grid-oracle counterpart of :func:`source_dual_curves`."""
    rates = np.asarray(rates, dtype=float)
    _, d, h_cond = _joint_tables(p, grid_step)
    el = hinge_min_increasing(h_cond, d, rates)
    eu = min_where_constraint_at_least(h_cond, d, rates)
    eu[_at_or_above_lossless_rate(rates, p)] = np.inf
    return el, eu


# ---------------------------------------------------------------------------
# fixed source marginal


def _fixed_marginal_joints(q_a: Distribution, kernels: np.ndarray):
    """The joint laws q_a(a) V(b|a) of a kernel grid, flattened, and H(A|B) of each."""
    joints = q_a.probs[None, :, None] * kernels
    flat = joints.reshape(len(kernels), -1)
    return joints, flat, entropy_bits(flat, axis=1) - entropy_bits(joints.sum(axis=1), axis=1)


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
    if method not in ("primal_grid", "gallager_dual"):
        raise ValueError(f"unknown method {method!r}")
    na, nb = p.shape
    if q_a.size != na:
        raise ValueError("marginal alphabet does not match the joint law")
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if _at_or_above_lossless_rate(r, p):
        return SourceExponentResult(rate=r, value=math.inf, method=method, diverged=True)

    if method == "gallager_dual":
        d_marg = float(kl_bits(q_a.probs, p.matrix.sum(axis=1)))
        budget = float(entropy_bits(q_a.probs)) - r
        if math.isinf(d_marg) or budget < -1e-12:
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

    joints, flat, h_cond = _fixed_marginal_joints(q_a, conditional_grid(na, nb, grid_step))
    d = kl_bits(flat, p.matrix.reshape(-1)[None, :], axis=1)
    vals = np.where(h_cond >= r - 1e-12, d, np.inf)
    idx = int(np.argmin(vals))
    # no feasible grid joint, or none within the support of P
    if not math.isfinite(vals[idx]):
        return SourceExponentResult(rate=r, value=math.inf, method=method, infeasible=True)
    return SourceExponentResult(
        rate=r,
        value=float(vals[idx]),
        method=method,
        minimizer=JointDistribution(joints[idx]),
    )


def _fixed_marginal_curves(rates: np.ndarray, p: JointDistribution, laws) -> list[_Curve]:
    """:func:`fixed_marginal_dual_curve` at each marginal q_a of `laws` with
    its tail deferred: d_marg + E_r at the rates H(q_a) - R, pending
    d_marg + E_sp, inf where d_marg is. Their unit lattices are solved
    together."""
    rates, w = np.asarray(rates, dtype=float), p.conditional_rows()
    lossy, specs = ~_at_or_above_lossless_rate(rates, p), []
    for q_a in laws:
        if q_a.size != p.shape[0]:
            raise ValueError("marginal alphabet does not match the joint law")
        d_marg = float(kl_bits(q_a.probs, p.matrix.sum(axis=1)))
        h_qa = float(entropy_bits(q_a.probs))
        valid = lossy & (h_qa - rates >= -1e-12) & math.isfinite(d_marg)
        specs.append((_fixed_input_lattice(q_a, w), np.maximum(h_qa - rates, 0.0), d_marg, valid))
    return _curves(specs)


def fixed_marginal_dual_curve(
    rates: np.ndarray, p: JointDistribution, q_a: Distribution
) -> np.ndarray:
    """Fixed-marginal exponent across a rate vector (dual route)."""
    return _fixed_marginal_curves(rates, p, [q_a])[0].resolve()


# ---------------------------------------------------------------------------
# no side information


def independent_si_exponent(
    r: float,
    p_a: Distribution,
    method: str = "gallager_dual",
    grid_step: float = 0.005,
) -> SourceExponentResult:
    """Exponent when the side information is independent of the source, which
    reduces to compressing A alone: min D(Q||P_A) over H(Q) >= r. A side
    letter independent of A carries nothing, so this is :func:`e_upper` of
    P_A as a joint law with one column."""
    return e_upper(r, JointDistribution(p_a.probs[:, None]), method, grid_step)


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

    kernels, cond_kl, _ = _primal_tables(q_a, p_b_given_a, grid_step)
    h_cond = _fixed_marginal_joints(q_a, kernels)[2]
    lhs = float(np.where(h_cond >= r - 1e-12, cond_kl, np.inf).min())

    channel_rate = max(0.0, h_qa - r)
    rhs = sphere_packing_exponent(
        channel_rate, q_a, p_b_given_a, method="primal_grid", grid_step=grid_step
    ).value
    # both sides are nonnegative or +inf: equal infinities differ by 0
    diff = 0.0 if lhs == rhs else abs(lhs - rhs)
    return DualityReport(rate=r, channel_rate=channel_rate, lhs=lhs, rhs=rhs, abs_diff=diff)
