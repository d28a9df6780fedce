"""Channel coding exponents for discrete memoryless channels.

Two routes are kept deliberately separate:

* ``method='gallager_dual'`` evaluates the concave dual objective
  E_0(rho) - rho*R by golden-section search. The random-coding curve
  maximizes over rho in [0, 1]; the sphere-packing curve extends the search
  past 1 only when the objective is still climbing there, so above the
  critical rate both exponents are the *same float*, not merely close.
  A sphere-packing search still climbing at RHO_MAX is reported as infinite
  with ``diverged=True`` (channels with zero entries below their zero-error
  threshold genuinely diverge; finite optima past RHO_MAX are declared
  infinite as well, which the flag makes visible).

* ``method='primal_grid'`` enumerates conditional laws V on a simplex grid
  and evaluates the defining minimization directly. It is the independent
  oracle: slower, biased upward by grid quantization, and never allowed to
  share optimizer state with the dual route.

A subtlety governs how tight the E_0 dual is. At a *fixed* input law,
max_rho [E_0(rho,S,W) - rho R] lower-bounds the defining minimization: the
Lagrangian of the primal produces min over V of D(V||W|S) + rho I(S;V),
which equals a min over auxiliary output laws q of a per-row tilted
integral, and E_0 replaces that min over q with the specific q induced by
averaging rows before taking logs. The two coincide exactly when S is an
E_0-maximizing input for the relevant rho (in particular at the uniform
input of a Gallager-symmetric channel, where every row integral is equal),
which is why input-optimized quantities computed through E_0 are exact
while fixed-input dual values can sit slightly below the primal truth.
:func:`constant_composition_e0` evaluates the exact Lagrangian value, a
convex minimization over output laws q: alternating minimization up to rho = 1,
Newton steps in q beyond, each Newton value certified by its Frank-Wolfe gap.
:func:`dual_exponent_curves` uses it whenever the fast E_0 path is not
provably exact, so every whole-curve consumer (nested bounds, fixed-marginal
source exponents) sees exact fixed-input values. The single-rate
``gallager_dual`` method keeps the classical E_0 form; the primal oracle
quantifies its gap.

Input-optimized exponents need no per-rate search: the maxima over inputs and
over rho commute, so E_r(R, W) = max_rho [E_0*(rho) - rho R] with
E_0*(rho) = max_s E_0(rho, s, W), and likewise for E_sp over rho >= 0 (S.
Arimoto, IEEE Trans. IT, 1976). E_0* and its maximizing laws are computed once
on the rho lattices by a convex solver whose Frank-Wolfe gap certifies every
point, then fed through the same envelope as the fixed-input curves.

The strict sphere-packing constraint I(S;V) < R is evaluated on the closed
set I(S;V) <= R throughout; rate 0 is therefore admitted (the closed set is
nonempty) while negative rates are rejected.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .numerics import (
    DUAL_RHO_MAX,
    concave_dual_max,
    conditional_grid,
    min_where_constraint_at_most,
    hinge_min_decreasing,
    rate_grid,
)
from .probkit import ConditionalDistribution, Distribution, entropy_bits

RHO_MAX = DUAL_RHO_MAX
# rho lattice used by the vectorized curve evaluator
_RHO_UNIT = np.linspace(0.0, 1.0, 10001)
_RHO_TAIL = np.geomspace(1.0, RHO_MAX, 4001)
# coarser lattices for the iterative constant-composition evaluator; envelope
# quantization there is far below every tolerance that consumes these curves
_CC_RHO_UNIT = np.linspace(0.0, 1.0, 2001)
_CC_RHO_TAIL = np.geomspace(1.0, RHO_MAX, 1201)
# rates per Legendre-envelope block: a block's table is 128 x 10001 floats
_RATE_BLOCK = 128


def bsc(eps: float) -> ConditionalDistribution:
    """Binary symmetric channel with crossover probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"crossover probability must be in [0, 1], got {eps}")
    return ConditionalDistribution(np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))


def bec(eps: float) -> ConditionalDistribution:
    """Binary erasure channel; output symbols are (0, 1, erasure)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {eps}")
    return ConditionalDistribution(
        np.array([[1.0 - eps, 0.0, eps], [0.0, 1.0 - eps, eps]])
    )


def gallager_e0(rho: float, s: Distribution, w: ConditionalDistribution) -> float:
    """E_0(rho, S, W) in bits; nonnegative for rho >= 0 and exactly 0 at rho = 0."""
    if s.size != w.input_size:
        raise ValueError("input distribution does not match channel input alphabet")
    if rho <= -1.0:
        raise ValueError("rho must exceed -1")
    if rho == 0.0:
        return 0.0
    inner = s.probs @ np.power(w.matrix, 1.0 / (1.0 + rho))
    with np.errstate(divide="ignore"):
        val = -math.log2(float(np.power(inner, 1.0 + rho).sum()))
    return max(0.0, val) if rho > 0 else val


def _e0_on_lattice(rhos: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized E_0 over a rho lattice for raw arrays s (k,) and w (k, m)."""
    expo = 1.0 / (1.0 + rhos)
    inner = np.tensordot(np.power(w[None, :, :], expo[:, None, None]), s, axes=([1], [0]))
    with np.errstate(divide="ignore"):
        vals = -np.log2(np.power(inner, (1.0 + rhos)[:, None]).sum(axis=1))
    vals[rhos == 0.0] = 0.0
    return np.maximum(vals, 0.0)


@dataclass(frozen=True)
class ChannelExponentResult:
    rate: float
    value: float
    method: str
    rho: float | None = None
    minimizer: ConditionalDistribution | None = None
    diverged: bool = False
    constraint_active: bool = False


# ---------------------------------------------------------------------------
# exact fixed-input (constant-composition) Lagrangian


_CC_NEWTON_STEPS = 30


def _cc_terms(q, wpow, rhos, sl):
    """The Lagrangian G(q) in bits at output laws q, one row per lattice point,
    with the best kernel for each q and that kernel's output law."""
    tilted = wpow * np.power(q, (rhos / (1.0 + rhos))[:, None])[:, None, :]
    row = tilted.sum(axis=2)
    kernel = tilted / row[:, :, None]
    return -(1.0 + rhos) * (np.log2(row) @ sl), np.einsum("x,nxy->ny", sl, kernel), kernel


def _cc_gap(q, q_next, rhos):
    """Frank-Wolfe gap of G at q in bits, from grad G = -rho/ln2 * q_next/q; inf if q_y = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = rhos / math.log(2.0) * ((q_next / q).max(axis=1) - 1.0)
    return np.where(np.isnan(gap), np.inf, gap)


def _cc_e0_on_lattice(
    rhos: np.ndarray,
    s: np.ndarray,
    w: np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 6000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min over kernels V of D(V||W|S) + rho * I(S;V), for every rho at once.

    Expressing I(S;V) as a minimum over output laws q of the mean divergence
    of the rows of V from q makes the objective jointly convex with two
    closed-form blocks: for fixed q the best kernel tilts each channel row
    toward q, for fixed kernel the best q is its output marginal. Eliminating
    the kernel leaves the convex G(q) = -(1+rho) sum_x s_x log2 sum_y
    W(y|x)^(1/(1+rho)) q_y^(rho/(1+rho)). Alternating minimization, the two
    blocks in turn, settles to ``tol`` within 16 sweeps for rho <= 1 but takes
    some 10 rho sweeps beyond, so points with rho > 1 take Newton steps in q
    until the Frank-Wolfe gap of G, which bounds G(q) - min G, certifies the
    value to tol * max(|G|, 1). The points left are swept from the start.

    Returns (values, output laws q, gaps in bits); swept points report the
    law after their last sweep and its true gap, mostly above that bound.
    Points still moving after ``max_iter`` sweeps raise instead of returning
    an unconverged upper bound.
    """
    rhos = np.asarray(rhos, dtype=float)
    live = s > 0
    sl = s[live]
    wl = w[live]
    wpow = np.power(wl[None, :, :], (1.0 / (1.0 + rhos))[:, None, None])
    q = np.broadcast_to(sl @ wl, (len(rhos), w.shape[1])).copy()
    vals, gap = np.full(len(rhos), np.inf), np.zeros(len(rhos))
    # Newton steps on the simplex, from rho = 1 on in lattices reaching past
    # 1. The KKT system of the quadratic model is solved for the relative step
    # delta = d / q, scaled by 1/sqrt(q_next), and q * exp(t delta) stays
    # positive, so masses of 1e-20 and less (erasure and Z channels at large
    # rho) take a few steps. Outputs the input law cannot reach stay out.
    reach = sl @ wl > 0.0
    nq, nw = q[:, reach], wpow[:, :, reach]
    newton = (rhos >= 1.0) & (rhos.max(initial=0.0) > 1.0)
    active = np.flatnonzero(newton)
    steps = min(_CC_NEWTON_STEPS, max_iter)
    for it in range(steps + 1):
        r, wa, qa = rhos[active], nw[active], nq[active]
        g, q_next, v = _cc_terms(qa, wa, r, sl)
        vals[active], gap[active] = g, _cc_gap(qa, q_next, r)
        keep = gap[active] > tol * np.maximum(np.abs(g), 1.0)
        active, r, wa, qa, g, q_next, v = (a[keep] for a in (active, r, wa, qa, g, q_next, v))
        if active.size == 0 or it == steps:
            break
        m, sc = qa.shape[1], 1.0 / np.sqrt(q_next)
        ks = v * sc[:, None, :]
        kkt = np.zeros((active.size, m + 1, m + 1))
        kkt[:, :m, :m] = r[:, None, None] * np.einsum("x,nxy,nxz->nyz", sl, ks, ks) + np.eye(m)
        kkt[:, :m, m] = kkt[:, m, :m] = qa * sc
        rhs = np.concatenate([(1.0 + r)[:, None] / sc, np.zeros((active.size, 1))], axis=1)
        delta = sc * np.linalg.solve(kkt, rhs[:, :, None])[:, :m, 0]
        # back onto sum(d) = 0, lest a rounding residue outweigh the true slope
        delta -= (qa * delta).sum(axis=1, keepdims=True)
        # Armijo: descend by 1e-4 of the slope, up to the rounding error of G
        slope = 1e-4 * r / math.log(2.0) * ((qa - q_next) * delta).sum(axis=1)
        floor = 16.0 * np.finfo(float).eps * (1.0 + r) * np.maximum(np.abs(g), 1.0)
        t, todo = np.ones(active.size), np.arange(active.size)
        for _ in range(40):
            q_t = qa[todo] * np.exp(t[todo, None] * delta[todo])
            g_t = _cc_terms(q_t / q_t.sum(axis=1, keepdims=True), wa[todo], r[todo], sl)[0]
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
    # alternating minimization for the other points, from the start
    swept = active = np.flatnonzero((rhos > 0.0) & ~done)
    vals[swept] = np.inf
    for _ in range(max_iter):
        if active.size == 0:
            break
        new_vals, q[active], _ = _cc_terms(q[active], wpow[active], rhos[active], sl)
        settled = np.abs(new_vals - vals[active]) < tol
        vals[active] = new_vals
        active = active[~settled]
    if active.size:
        raise RuntimeError("fixed-input Lagrangian did not settle on the rho lattice")
    q_next = _cc_terms(q[swept], wpow[swept], rhos[swept], sl)[1]
    gap[swept] = _cc_gap(q[swept][:, reach], q_next[:, reach], rhos[swept])
    vals[rhos == 0.0] = 0.0
    return np.maximum(vals, 0.0), q, gap


def constant_composition_e0(rho: float, s: Distribution, w: ConditionalDistribution) -> float:
    """Exact fixed-input counterpart of :func:`gallager_e0`.

    Evaluates min over kernels V of D(V||W|S) + rho * I(S;V) in bits. Always
    at least ``gallager_e0(rho, s, w)``, with equality when s maximizes E_0 at
    this rho; legendre-transforming this function over rho therefore yields
    the exact fixed-input exponents rather than a lower bound.
    """
    if s.size != w.input_size:
        raise ValueError("input distribution does not match channel input alphabet")
    if rho < 0.0:
        raise ValueError("rho must be nonnegative for the fixed-input Lagrangian")
    return float(_cc_e0_on_lattice(np.array([rho]), s.probs, w.matrix)[0][0])


# ---------------------------------------------------------------------------
# primal grids


def _primal_tables(s: Distribution, w: ConditionalDistribution, step: float):
    """Grid of kernels V with conditional divergence to w and mutual information."""
    grid = conditional_grid(w.input_size, w.output_size, step)
    sp = s.probs
    wm = w.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        elem = np.where(grid > 0, grid * (np.log2(grid) - np.log2(wm[None])), 0.0)
    row_kl = elem.sum(axis=2)  # (N, |X|), +inf where support violated
    live = sp > 0
    d = row_kl[:, live] @ sp[live]

    out = np.tensordot(grid, sp, axes=([1], [0]))  # output marginal per grid point
    h_rows = entropy_bits(grid, axis=2)
    i = entropy_bits(out, axis=1) - h_rows[:, live] @ sp[live]
    np.maximum(i, 0.0, out=i)
    return grid, d, i


def _result_from_primal(rate, value, idx, grid, method_note_active):
    kernel = None
    if idx is not None and np.isfinite(value):
        kernel = ConditionalDistribution(grid[idx])
    return ChannelExponentResult(
        rate=rate,
        value=float(value),
        method="primal_grid",
        minimizer=kernel,
        constraint_active=method_note_active,
    )


def random_coding_exponent(
    r: float,
    s: Distribution,
    w: ConditionalDistribution,
    method: str = "gallager_dual",
    grid_step: float = 0.01,
) -> ChannelExponentResult:
    """Random-coding exponent at rate r for input law s over channel w."""
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if method == "gallager_dual":
        val, rho, _ = concave_dual_max(lambda rho: gallager_e0(rho, s, w) - rho * r)
        return ChannelExponentResult(rate=r, value=val, method=method, rho=rho)
    if method == "primal_grid":
        grid, d, i = _primal_tables(s, w, grid_step)
        vals = d + np.maximum(i - r, 0.0)
        idx = int(np.argmin(vals))
        return _result_from_primal(r, vals[idx], idx, grid, bool(i[idx] >= r - 1e-12))
    raise ValueError(f"unknown method {method!r}")


def sphere_packing_exponent(
    r: float,
    s: Distribution,
    w: ConditionalDistribution,
    method: str = "gallager_dual",
    grid_step: float = 0.01,
) -> ChannelExponentResult:
    """Sphere-packing exponent at rate r; the constraint is the closed set I <= r."""
    if r < 0:
        raise ValueError("rate must be nonnegative: the constraint set would be empty")
    if method == "gallager_dual":
        g = lambda rho: gallager_e0(rho, s, w) - rho * r
        val, rho, diverged = concave_dual_max(g, tail=True)
        return ChannelExponentResult(rate=r, value=val, method=method, rho=rho, diverged=diverged)
    if method == "primal_grid":
        grid, d, i = _primal_tables(s, w, grid_step)
        feasible = i <= r + 1e-12
        if not np.any(feasible):
            return ChannelExponentResult(rate=r, value=math.inf, method=method, diverged=True)
        vals = np.where(feasible, d, np.inf)
        idx = int(np.argmin(vals))
        return _result_from_primal(r, vals[idx], idx, grid, bool(i[idx] >= r - 1e-9))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# whole-curve evaluation


def _envelope_curves(rates, rho_unit, rho_tail, unit_vals, tail_vals_fn):
    """Legendre envelopes over a precomputed unit-interval lattice, extending
    into the tail lattice only for rates whose unit argmax saturates at 1.
    Where it does not, the sphere-packing entry is copied from the
    random-coding entry, preserving exact coincidence above the critical rate.
    Rates go through in blocks of ``_RATE_BLOCK``, one table row per rate, so
    the (rates x lattice) table stays small; every entry is the same float."""
    er, esp = np.empty(len(rates)), np.empty(len(rates))
    tail_vals = functools.cache(tail_vals_fn)
    table = np.empty((min(_RATE_BLOCK, len(rates)), len(rho_unit)))  # reused by every block
    for lo in range(0, len(rates), _RATE_BLOCK):
        blk = slice(lo, lo + _RATE_BLOCK)
        sub = rates[blk]
        vals_unit = np.multiply(sub[:, None], rho_unit[None, :], out=table[: len(sub)])
        np.subtract(unit_vals[None, :], vals_unit, out=vals_unit)
        best_idx = np.argmax(vals_unit, axis=1)
        er[blk] = esp[blk] = np.maximum(vals_unit[np.arange(len(sub)), best_idx], 0.0)
        needs_tail = best_idx == len(rho_unit) - 1
        if np.any(needs_tail):
            vals_tail = tail_vals()[None, :] - sub[needs_tail][:, None] * rho_tail[None, :]
            tail_idx = np.argmax(vals_tail, axis=1)
            tail_val = vals_tail[np.arange(len(vals_tail)), tail_idx]
            slope_end = (vals_tail[:, -1] - vals_tail[:, -2]) / (rho_tail[-1] - rho_tail[-2])
            still_climbing = (tail_idx == len(rho_tail) - 1) & (slope_end > 1e-12)
            tail_val = np.where(still_climbing, np.inf, tail_val)
            esp[blk][needs_tail] = np.maximum(er[blk][needs_tail], tail_val)
    return er, esp


def _uniform_on_symmetric(s: Distribution, w: ConditionalDistribution) -> bool:
    """True when the E_0 lattice is provably exact for this fixed input: the
    uniform input on a Gallager-symmetric channel, where every row of the
    tilted channel integrates identically and the Jensen step is tight."""
    probs = s.probs
    if np.any(np.abs(probs - probs[0]) > 1e-15):
        return False
    try:
        return bool(is_gallager_symmetric(w)[0])
    except BudgetError:
        return False


def dual_exponent_curves(rates: np.ndarray, s: Distribution, w: ConditionalDistribution):
    """Exact random-coding and sphere-packing values at a fixed input for
    every rate at once. Returns (er, esp) arrays.

    Uses the fast E_0 lattice when that is provably exact (uniform input on a
    Gallager-symmetric channel); otherwise evaluates the fixed-input
    Lagrangian lattice, so the curves are true exponents rather than E_0
    lower bounds.
    """
    rates = np.asarray(rates, dtype=float)
    if _uniform_on_symmetric(s, w):
        unit = _e0_on_lattice(_RHO_UNIT, s.probs, w.matrix)
        tail = lambda: _e0_on_lattice(_RHO_TAIL, s.probs, w.matrix)
        return _envelope_curves(rates, _RHO_UNIT, _RHO_TAIL, unit, tail)
    unit = _cc_e0_on_lattice(_CC_RHO_UNIT, s.probs, w.matrix)[0]
    tail = lambda: _cc_e0_on_lattice(_CC_RHO_TAIL, s.probs, w.matrix)[0]
    return _envelope_curves(rates, _CC_RHO_UNIT, _CC_RHO_TAIL, unit, tail)


def primal_exponent_curves(
    rates: np.ndarray, s: Distribution, w: ConditionalDistribution, grid_step: float = 0.01
):
    """Grid-oracle counterpart of :func:`dual_exponent_curves`."""
    rates = np.asarray(rates, dtype=float)
    _, d, i = _primal_tables(s, w, grid_step)
    er = hinge_min_decreasing(i, d, rates)
    esp = min_where_constraint_at_most(i, d, rates)
    return er, esp


# ---------------------------------------------------------------------------
# input optimization, capacity, critical rate


def _line_min(alpha, d, r, hi):
    """argmin over t in [0, hi] of the convex sum_y (alpha + t d)_y^(1+r), row
    by row, by bisection on the sign of its derivative."""
    slope = lambda t: (np.power(np.maximum(alpha + t[:, None] * d, 0.0), r) * d).sum(axis=1)
    lo, top = np.zeros(len(hi)), hi
    for _ in range(60):
        mid = 0.5 * (lo + top)
        down = slope(mid) < 0.0
        lo, top = np.where(down, mid, lo), np.where(down, top, mid)
    return np.where(slope(hi) <= 0.0, hi, 0.5 * (lo + top))


def _e0_star_on_lattice(
    rhos: np.ndarray, w: np.ndarray, max_iter: int = 500
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max over input laws of E_0(rho, S, W) for every rho at once.

    Maximizing E_0 minimizes F(s) = sum_y alpha_y^(1+rho) with
    alpha = s @ W^(1/(1+rho)), which is convex in s; its gradient is
    (1+rho) * c with c_x = sum_y W(y|x)^(1/(1+rho)) alpha_y^rho, and s @ c = F.
    Each sweep moves mass from the worst input in the support to the best
    input, which alone is exact for two inputs; with more, a Newton step
    within the face of the support follows, which keeps ill-conditioned rho
    from stalling. Both steps use an exact line search. A lattice point stops
    once the Frank-Wolfe gap (1+rho)(F - min c), which bounds F(s) - min F,
    is at most 1e-12 * F, or at most the rounding floor k (1+rho)^2 eps * F
    of evaluating it from alpha^rho, which is larger only near the top of
    the tail. Returns (E_0*, maximizing laws, relative gaps); unsettled
    points after ``max_iter`` sweeps raise.
    """
    rhos = np.asarray(rhos, dtype=float)
    k = w.shape[0]
    tol = np.maximum(1e-12, k * (1.0 + rhos) ** 2 * np.finfo(float).eps)
    wpow = np.power(w[None, :, :], (1.0 / (1.0 + rhos))[:, None, None])
    s = np.full((len(rhos), k), 1.0 / k)
    f = np.ones(len(rhos))
    gap = np.zeros(len(rhos))
    active = np.flatnonzero(rhos > 0.0)
    for _ in range(max_iter):
        r, wa, sa = rhos[active, None], wpow[active], s[active]
        alpha = np.einsum("nx,nxy->ny", sa, wa)
        c = np.einsum("nxy,ny->nx", wa, np.power(alpha, r))
        f[active] = (sa * c).sum(axis=1)
        gap[active] = (1.0 + r[:, 0]) * (f[active] - c.min(axis=1)) / f[active]
        keep = gap[active] > tol[active]
        active, r, wa, sa, alpha, c = (a[keep] for a in (active, r, wa, sa, alpha, c))
        if active.size == 0:
            break
        rows = np.arange(active.size)
        i = np.argmax(np.where(sa > 0.0, c, -np.inf), axis=1)
        j = np.argmin(c, axis=1)
        t = _line_min(alpha, wa[rows, j] - wa[rows, i], r, sa[rows, i])
        sa[rows, i] -= t
        sa[rows, j] += t
        if k > 2:
            # inputs holding at most 1e-12 stay with the pairwise step: the
            # curvature grows like alpha^(rho-1) as their outputs empty, and
            # the Newton step would stall against them
            on = sa > 1e-12
            alpha = np.einsum("nx,nxy->ny", sa, wa)
            c = np.einsum("nxy,ny->nx", wa, np.power(alpha, r))
            curv = r * np.power(np.where(alpha > 0.0, alpha, 1.0), r - 1.0)
            h = np.einsum("nxy,ny,nzy->nxz", wa, curv, wa)
            h += 1e-12 * h * np.eye(k)  # keeps faces with duplicate rows solvable
            kkt = np.zeros((active.size, k + 1, k + 1))
            kkt[:, :k, :k] = np.where(on[:, :, None] & on[:, None, :], h, np.eye(k))
            kkt[:, :k, k] = kkt[:, k, :k] = on
            rhs = np.concatenate([-np.where(on, c, 0.0), np.zeros((active.size, 1))], axis=1)
            d = np.linalg.solve(kkt, rhs[:, :, None])[:, :k, 0]
            # back onto the sum-zero plane: along c's common mode a rounding
            # residue in sum(d) would swamp the line search's slope
            d = np.where(on, d - (d * on).sum(axis=1, keepdims=True) / on.sum(axis=1)[:, None], 0.0)
            stop = np.where(d < 0.0, sa / np.where(d < 0.0, -d, 1.0), 4.0).min(axis=1)
            t = _line_min(alpha, np.einsum("nx,nxy->ny", d, wa), r, np.minimum(stop, 4.0))
            sa = np.maximum(sa + t[:, None] * d, 0.0)
            sa /= sa.sum(axis=1, keepdims=True)
        s[active] = sa
    else:
        raise RuntimeError("input optimization did not certify its gap on the rho lattice")
    return np.maximum(-np.log2(f), 0.0), s, gap


def _optimal_input_envelope(rates, w: ConditionalDistribution):
    """Input-optimized (er, esp) read off the E_0* lattices, and the lattices:
    the unit one, and a memoized thunk for the tail, which only sphere-packing
    envelopes below the critical rate need."""
    unit = _e0_star_on_lattice(_RHO_UNIT, w.matrix)
    tail = functools.cache(lambda: _e0_star_on_lattice(_RHO_TAIL, w.matrix))
    er, esp = _envelope_curves(rates, _RHO_UNIT, _RHO_TAIL, unit[0], lambda: tail()[0])
    return er, esp, unit, tail


def _optimal_law(r, value, er_value, unit, tail, k):
    """Maximizing law at the lattice rho that attains ``value``; values at most
    1e-12 break the tie toward the uniform law."""
    if value <= 1e-12:
        return Distribution.uniform(k)
    rhos, (e0, laws, _) = (_RHO_UNIT, unit) if value == er_value else (_RHO_TAIL, tail())
    return Distribution(laws[int(np.argmax(e0 - rhos * r))])


def optimize_input(
    r: float, w: ConditionalDistribution, which: str = "random"
) -> tuple[Distribution, float]:
    """Maximize the chosen exponent over input distributions.

    Reads the answer off the certified E_0* lattice: the value is the Legendre
    envelope at r, the law the maximizer of E_0 at the attaining rho. Values
    within 1e-12 of zero return the uniform distribution.
    """
    if which not in ("random", "sphere"):
        raise ValueError("which must be 'random' or 'sphere'")
    if r < 0:
        raise ValueError("rate must be nonnegative")
    er, esp, unit, tail = _optimal_input_envelope(np.array([float(r)]), w)
    value = float(er[0] if which == "random" else esp[0])
    return _optimal_law(r, value, er[0], unit, tail, w.input_size), value


def capacity(w: ConditionalDistribution, tol: float = 1e-9, max_iter: int = 200000) -> float:
    """Channel capacity in bits via alternating maximization.

    Stops when the gap between the upper and lower capacity estimates is
    below tol relative to the current value, with an absolute floor of 1e-9:
    the gap certifies the absolute error directly. Channels whose rows are
    almost identical contract too slowly to close that floor in any sensible
    iteration budget; for those the best certified midpoint is returned as
    long as its gap stays below 1e-6 absolute, otherwise the failure is
    raised rather than hidden.
    """
    wm = w.matrix
    q = np.full(w.input_size, 1.0 / w.input_size)
    best_gap = math.inf
    best_mid = 0.0
    window_gap = math.inf
    for it in range(max_iter):
        out = q @ wm
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(wm > 0, wm * (np.log2(wm) - np.log2(out[None, :])), 0.0)
        c = ratios.sum(axis=1)
        i_lower = float(q @ c)
        i_upper = float(c.max())
        gap = i_upper - i_lower
        if gap < best_gap:
            best_gap = gap
            best_mid = i_lower + 0.5 * max(gap, 0.0)
        if gap <= max(tol * max(i_upper, 0.0), 1e-9):
            return max(0.0, i_lower)
        if it % 512 == 511:
            # stagnating runs with a tiny certified gap are accepted early
            if gap > 0.99 * window_gap and gap <= 1e-6:
                return max(0.0, i_lower + 0.5 * gap)
            window_gap = gap
        q = q * np.exp2(c - c.max())
        q /= q.sum()
    if best_gap <= 1e-6:
        return max(0.0, best_mid)
    raise RuntimeError("capacity iteration did not converge")


@dataclass(frozen=True)
class CriticalRateResult:
    rate: float
    grid_step: float
    earlier_coincidences: tuple[float, ...] = ()


def critical_rate(
    w: ConditionalDistribution, rate_step: float = 1e-3, agreement_tol: float = 1e-6
) -> CriticalRateResult:
    """Smallest grid rate above which the input-optimized random-coding and
    sphere-packing exponents agree within ``agreement_tol`` at every grid rate.

    Both curves come from :func:`input_optimized_curves`, so every grid rate
    reads the same certified E_0* lattice. Grid rates below the certified
    point where the two curves also touch are reported separately instead of
    silently extending the interval.
    """
    cap = capacity(w)
    if cap <= 1e-12:
        raise ValueError("channel has zero capacity; the exponents are identically zero")
    rates = rate_grid(rate_step, math.log2(w.input_size))
    er, esp = input_optimized_curves(rates, w)
    with np.errstate(invalid="ignore"):
        agree = np.abs(esp - er) <= agreement_tol
    agree |= np.isinf(esp) & np.isinf(er)
    if not agree[-1]:
        raise RuntimeError("exponent curves never certify agreement on the grid")
    start = len(rates)
    while start > 0 and agree[start - 1]:
        start -= 1
    earlier = tuple(float(r) for r in rates[:start][agree[:start]])
    return CriticalRateResult(
        rate=float(rates[start]), grid_step=rate_step, earlier_coincidences=earlier
    )


# ---------------------------------------------------------------------------
# symmetry


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

    if n == 0:
        return
    yield from rec(1, 0)


def is_gallager_symmetric(
    w: ConditionalDistribution, atol: float = 1e-9
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Whether the outputs split into groups whose submatrices have mutually
    permuted rows and mutually permuted columns. Returns (flag, partition)."""
    ny = w.output_size
    if ny > 10:
        raise BudgetError("symmetry search over more than 10 outputs is not supported")
    for partition in _set_partitions(ny):
        ok = True
        for part in partition:
            sub = w.matrix[:, list(part)]
            rows = np.sort(sub, axis=1)
            if not np.all(np.abs(rows - rows[0]) <= atol):
                ok = False
                break
            cols = np.sort(sub, axis=0)
            if not np.all(np.abs(cols - cols[:, :1]) <= atol):
                ok = False
                break
        if ok:
            return True, partition
    return False, None


def uniform_input_is_optimal_premise(
    w: ConditionalDistribution, rate_step: float = 0.05, tol: float = 1e-6
) -> tuple[bool, float | None]:
    """Numeric check that one input law maximizes the random-coding exponent at
    every rate. Returns (holds, offending_rate)."""
    cap = capacity(w)
    rates = rate_grid(rate_step, max(cap - rate_step, rate_step))
    best, _, unit, tail = _optimal_input_envelope(rates, w)
    m = len(rates) // 2
    mid = _optimal_law(rates[m], best[m], best[m], unit, tail, w.input_size)
    # the candidate input is held fixed, so its values must come from the
    # exact fixed-input Lagrangian, not the E_0 lower bound
    fixed, _ = dual_exponent_curves(rates, mid, w)
    off = np.flatnonzero(np.abs(best - fixed) > tol)
    if off.size:
        return False, float(rates[off[0]])
    return True, None


def input_optimized_curves(rates: np.ndarray, w: ConditionalDistribution):
    """(E_r(R, W), E_sp(R, W)) maximized over inputs for every rate.

    Gallager-symmetric channels use the uniform input directly. Otherwise the
    two maxima commute, E_r(R) = max_rho [E_0*(rho) - rho R] with
    E_0*(rho) = max_s E_0(rho, s), so E_0* is computed once with a certified
    gap on the rho lattices and every rate reads its envelope.
    """
    rates = np.asarray(rates, dtype=float)
    if is_gallager_symmetric(w)[0]:
        return dual_exponent_curves(rates, Distribution.uniform(w.input_size), w)
    return _optimal_input_envelope(rates, w)[:2]
