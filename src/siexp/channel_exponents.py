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

from .numerics import (
    DUAL_RHO_MAX,
    concave_dual_max,
    conditional_grid,
    hinge_min_increasing,
    min_where_constraint_at_least,
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
# rates per block of the envelope's dense fallback: a block's table is at
# most 128 x 10001 floats
_RATE_BLOCK = 128
# table entries per rate that :func:`_lattice_argmax` reads, 2 W + 3 for its
# window W = 2; a lattice with no more points per rate is solved whole
_ENTRIES = 7
# lattice points x |X| x |Y| per block of the E_0, E_s and fixed-input lattice
# solves (see _blocked): 2,048 points of a 2 x 2 channel, a whole 2 x 2
# fixed-input lattice
_BLOCK_CELLS = 2**13
# an E_0* block holds _E0_STAR_POINTS points, the unit lattice in two blocks,
# or _E0_STAR_CELLS cells, |X| (|X| + |Y|) per point for the channel's powers
# and the Newton step's KKT system, where that is fewer points: each block
# repeats the sweeps' fixed cost, their np.power calls, some 60 other numpy
# calls and the line searches' Newton steps, which blocks of _BLOCK_CELLS would
# repeat 5 times on a 2 x 2 channel and 79 times on an 8 x 8 one
_E0_STAR_POINTS = 5001
_E0_STAR_CELLS = 2**18


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


def _blocked(solve, n: int, step: int):
    """``solve(idx)`` over the n points of a rho lattice in consecutive blocks
    of ``step`` points (at least one), a lone point as two copies (see
    :func:`_two`); the results, an array or a tuple of arrays with the points
    on the first axis, joined. A solver whose points' floats do not depend on
    their batch gives the whole lattice's floats, and its transient memory is
    that of one block."""
    step, parts = max(1, step), []
    for lo in range(0, max(n, 1), step):
        idx = np.arange(lo, min(lo + step, n))
        out = solve(_two(idx))
        parts.append([a[: len(idx)] for a in (out if isinstance(out, tuple) else (out,))])
    joined = [col[0] if len(col) == 1 else np.concatenate(col) for col in zip(*parts)]
    return tuple(joined) if isinstance(out, tuple) else joined[0]


def _power_sum_on_lattice(rhos: np.ndarray, m: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log2 sum_j (sum_i weights_i m_ij^(1/(1+rho)))^(1+rho) for every rho at
    once, 0 at rho = 0: -E_0 with the input law as weights and the channel as
    m, E_s with unit weights and the joint law as m.

    The lattice sits on the last, contiguous axis and both sums add rows in
    sequence (a gemv's float hung on the other points), so any subset of a
    lattice, one point too, has the whole lattice's floats; it is solved in
    blocks of at most ``_BLOCK_CELLS`` point-matrix cells. Where the weighted
    powers are exact (unit weights, or a uniform input on 2 or 4 letters) they
    are the floats of the lattice-first forms in tests/test_channel_exponents.py.
    """
    rhos = np.asarray(rhos, dtype=float)

    def solve(idx):
        r = rhos[idx]
        mpow = np.power(m[:, :, None], 1.0 / (1.0 + r))
        inner = _mix(weights, mpow)
        with np.errstate(divide="ignore"):
            vals = np.log2(sum(np.power(inner, 1.0 + r)))
        vals[r == 0.0] = 0.0
        return vals

    return _blocked(solve, len(rhos), _BLOCK_CELLS // m.size)


def gallager_e0(rho: float, s: Distribution, w: ConditionalDistribution) -> float:
    """E_0(rho, S, W) in bits; nonnegative for rho >= 0 and exactly 0 at rho = 0."""
    if s.size != w.input_size:
        raise ValueError("input distribution does not match channel input alphabet")
    if rho <= -1.0:
        raise ValueError("rho must exceed -1")
    val = -float(_power_sum_on_lattice(np.array([rho]), w.matrix, s.probs)[0])
    return max(0.0, val) if rho >= 0 else val


def _e0_on_lattice(rhos: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized E_0 over a rho lattice for raw arrays s (k,) and w (k, m)."""
    return np.maximum(-_power_sum_on_lattice(rhos, w, s), 0.0)


@dataclass(frozen=True)
class ChannelExponentResult:
    rate: float
    value: float
    method: str
    diverged: bool = False


# ---------------------------------------------------------------------------
# exact fixed-input (constant-composition) Lagrangian


_CC_NEWTON_STEPS = 30
_CC_TOL = 1e-13  # the accuracy _cc_e0_on_lattice certifies and _cc_upper adds


def _cc_value(q, wpow, rhos, sl):
    """The Lagrangian G(q) in bits at output laws q (|Y|, n), with the tilted
    channel (|X|, |Y|, n), its row sums and the input weights sl (|X|, n or
    1), summed in sequence. A live input none of whose outputs q reaches (its row
    sum underflows to 0) makes G(q) infinite."""
    tilted = wpow * np.power(q, rhos / (1.0 + rhos))
    row = tilted.sum(axis=1)
    with np.errstate(divide="ignore"):
        return -(1.0 + rhos) * (sl * np.log2(row)).sum(axis=0), tilted, row


def _cc_terms(q, wpow, rhos, sl):
    """G(q) of :func:`_cc_value` and the output law of the best kernel for each q."""
    g, tilted, row = _cc_value(q, wpow, rhos, sl)
    return g, (sl[:, None] * (tilted / row[:, None, :])).sum(axis=0)


def _cc_gap(q, q_next, rhos):
    """Frank-Wolfe gap of G at q in bits, from grad G = -rho/ln2 * q_next/q; inf if q_y = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = rhos / math.log(2.0) * ((q_next / q).max(axis=0) - 1.0)
    return np.where(np.isnan(gap), np.inf, gap)


def _cc_start(rhos, s, w):
    """The first input law, the live inputs' weights per point (|X|, n), the
    channel powers (|X|, |Y|, n) and the start q_0 = S W (|Y|, n), summed in
    sequence over the inputs for one law and for per-point laws alike, for
    :func:`_cc_e0_on_lattice` and :func:`_cc_upper`."""
    live = (s if s.ndim == 1 else s[0]) > 0
    wl, sn = w[live], np.atleast_2d(s)[:, live]
    sw = np.ascontiguousarray(np.broadcast_to(sn.T, (len(wl), len(rhos))))
    q0 = (sw[:, None] * wl[:, :, None]).sum(axis=0)
    return sn[0], sw, np.power(wl[:, :, None], 1.0 / (1.0 + rhos)), q0


def _cc_upper(rhos, s, w):
    """An upper bound on every value :func:`_cc_e0_on_lattice` returns, from
    two alternating updates q_0 -> q_1 -> q_2. A swept point settles at q_1,
    where this bound reads G(q_1) as the sweeps do, or descends from q_2; a
    Newton value lies within _CC_TOL * max(|G|, 1) of min G <= G(q_2). The bound
    adds that and 32 (1 + rho) eps max(|G|, 1) for either evaluation's rounding.
    Solved in blocks of at most ``_BLOCK_CELLS`` point-channel cells."""
    rhos = np.asarray(rhos, dtype=float)

    def solve(idx):
        r = rhos[idx]
        _, sw, wpow, q = _cc_start(r, s, w)
        g0, q = _cc_terms(q, wpow, r, sw)
        g1, q = _cc_terms(q, wpow, r, sw)
        g = np.where(np.abs(g1 - g0) < _CC_TOL, g1, _cc_value(q, wpow, r, sw)[0])
        slack = (_CC_TOL + 32.0 * np.finfo(float).eps * (1.0 + r)) * np.maximum(np.abs(g), 1.0)
        return np.where(r > 0.0, np.maximum(g + slack, 0.0), 0.0)

    return _blocked(solve, len(rhos), _BLOCK_CELLS // w.size)


def _two(idx):
    """Point indices, a lone one twice: numpy sums the contiguous axis of a one-point
    batch's (|X|, 1) arrays pairwise, from 8 terms on, not in sequence as for more points,
    and takes an exponent constant along its inner loop as a scalar, 0.5 as a square root."""
    return np.repeat(idx, 2) if len(idx) == 1 else idx


def _bordered_solve(h, a, b):
    """u of [h a; a' 0] [u; lam] = [b; 0] at each point on the last axis, h (m, m, n) >= I read from
    its lower triangle: lam = a' h^-1 b / a' h^-1 a (the Schur complement) and u = h^-1 (b - lam a),
    from y = L^-1 [a, b] for the Cholesky factor L of h, whose pivots are all at least 1."""
    low, y = np.zeros_like(h), np.stack([a, b], axis=1)
    for j in range(len(a)):
        low[j, j] = np.sqrt(h[j, j] - (low[j, :j] * low[j, :j]).sum(axis=0))
        low[j + 1 :, j] = (h[j + 1 :, j] - (low[j + 1 :, :j] * low[j, :j]).sum(axis=1)) / low[j, j]
        y[j] = (y[j] - (low[j, :j, None] * y[:j]).sum(axis=0)) / low[j, j]
    u = y[:, 1] - (y[:, 0] * y[:, 1]).sum(axis=0) / (y[:, 0] * y[:, 0]).sum(axis=0) * y[:, 0]
    for i in reversed(range(len(a))):
        u[i] = (u[i] - (low[i + 1 :, i] * u[i + 1 :]).sum(axis=0)) / low[i, i]
    return u


def _cc_e0_on_lattice(
    rhos: np.ndarray,
    s: np.ndarray,
    w: np.ndarray,
    newton=None,
    max_iter: int = 6000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min over kernels V of D(V||W|S) + rho * I(S;V), for every rho at once.

    Expressing I(S;V) as a minimum over output laws q of the mean divergence
    of the rows of V from q makes the objective jointly convex with two
    closed-form blocks: for fixed q the best kernel tilts each channel row
    toward q, for fixed kernel the best q is its output marginal. Eliminating
    the kernel leaves the convex G(q) = -(1+rho) sum_x s_x log2 sum_y
    W(y|x)^(1/(1+rho)) q_y^(rho/(1+rho)). Alternating minimization, the two
    blocks in turn, settles to ``_CC_TOL`` within 16 sweeps for rho <= 1 but
    takes some 10 rho sweeps beyond, so the points flagged ``newton`` (by
    default rho >= 1) take Newton steps in q (:func:`_bordered_solve`) until
    the Frank-Wolfe gap of G, which bounds G(q) - min G, certifies the value
    to _CC_TOL * max(|G|, 1). The points left are swept from the start.

    ``s`` is one input law, or one law per point (n, |X|) for inputs of one
    support solved together without Newton steps. Every per-point array holds
    the lattice on its last, contiguous axis and sums over inputs in sequence,
    so a point's floats are those it gets alone, in any subset or stack; the
    lattice is solved in blocks of at most ``_BLOCK_CELLS`` point-channel cells.

    Returns (values, output laws q of shape (n, |Y|), gaps in bits); swept
    points report the law after their last sweep and its true gap, mostly
    above that bound. Points still moving after ``max_iter`` sweeps raise
    instead of returning an unconverged upper bound.
    """
    rhos = np.asarray(rhos, dtype=float)
    newton = np.broadcast_to(rhos >= 1.0 if newton is None else newton, rhos.shape)
    if s.ndim > 1 and newton.any():
        raise ValueError("Newton steps take one input law")
    solve = lambda idx: _cc_block(rhos[idx], s if s.ndim == 1 else s[idx], w, newton[idx], max_iter)
    return _blocked(solve, len(rhos), _BLOCK_CELLS // w.size)


def _cc_block(rhos, s, w, newton, max_iter):
    """:func:`_cc_e0_on_lattice` on one block of at least two points."""
    sv, sw, wpow, q = _cc_start(rhos, s, w)
    vals, gap = np.full(len(rhos), np.inf), np.zeros(len(rhos))
    # Newton steps on the simplex, for the relative step delta = d / q scaled by
    # 1/sqrt(q_next): the KKT system's Hessian block is then I + rho K' diag(s) K
    # for the kernel K so scaled. q * exp(t delta) stays positive, so masses of
    # 1e-20 and less (erasure and Z channels at large rho) take a few steps.
    # Outputs the input law cannot reach stay out.
    reach = q[:, 0] > 0.0
    nq, nw = q[reach], wpow if reach.all() else np.compress(reach, wpow, axis=1)
    active = _two(np.flatnonzero(newton & (rhos > 0.0)))
    steps = min(_CC_NEWTON_STEPS, max_iter)
    for it in range(steps + 1):
        r, wa, qa = rhos[active], np.take(nw, active, axis=2), np.take(nq, active, axis=1)
        g, kernel, row = _cc_value(qa, wa, r, sv[:, None])
        kernel /= row[:, None, :]
        q_next = (sv[:, None, None] * kernel).sum(axis=0)
        vals[active], gap[active] = g, _cc_gap(qa, q_next, r)
        # a point whose q_next loses an output mass leaves Newton for the sweeps
        keep = (gap[active] > _CC_TOL * np.maximum(np.abs(g), 1.0)) & np.all(q_next > 0.0, axis=0)
        keep = _two(np.flatnonzero(keep))
        active, r, g, q_next, kernel, wa, qa = (
            np.take(a, keep, axis=-1) for a in (active, r, g, q_next, kernel, wa, qa))
        if active.size == 0 or it == steps:
            break
        ks = kernel * (sc := 1.0 / np.sqrt(q_next))
        h = r * (sv[:, None, None, None] * ks[:, :, None] * ks[:, None]).sum(axis=0)
        delta = sc * _bordered_solve(h + np.eye(len(qa))[:, :, None], qa * sc, (1.0 + r) / sc)
        # back onto sum(d) = 0, lest a rounding residue outweigh the true slope
        delta -= (qa * delta).sum(axis=0)
        # Armijo: descend by 1e-4 of the slope, up to the rounding error of G
        slope = 1e-4 * r / math.log(2.0) * ((qa - q_next) * delta).sum(axis=0)
        floor = 16.0 * np.finfo(float).eps * (1.0 + r) * np.maximum(np.abs(g), 1.0)
        t, todo = np.ones(active.size), np.arange(active.size)
        for _ in range(40):
            q_t = np.take(qa, todo, axis=1) * np.exp(t[todo] * np.take(delta, todo, axis=1))
            g_t = _cc_value(q_t / q_t.sum(axis=0), np.take(wa, todo, axis=2), r[todo], sv[:, None])[0]
            ok = (g_t <= g[todo] + t[todo] * slope[todo] + floor[todo]) & np.all(q_t > 0.0, axis=0)
            if (todo := _two(todo[~ok])).size == 0:
                break
            t[todo] *= 0.5
        t[todo] = 0.0
        qa = qa * np.exp(t * delta)
        nq[:, active] = qa / qa.sum(axis=0)
        active = _two(active[t > 0.0])
    done = newton & (gap <= _CC_TOL * np.maximum(np.abs(vals), 1.0))
    q[np.ix_(reach, done)] = nq[:, done]
    # alternating minimization for the other points, from the start; the
    # batch sheds settled points once fewer than half of it, or one, is open
    swept = (rhos > 0.0) & ~done
    idx, qs, ws, rs, ss, open_ = np.arange(len(rhos)), q, wpow, rhos, sw, swept
    prev = np.where(swept, np.inf, 0.0)
    for _ in range(max_iter):
        left = np.count_nonzero(open_)
        if left == 0:
            break
        if 2 * left < idx.size or left == 1 < idx.size:
            keep = _two(np.flatnonzero(open_))
            idx, qs, ws, rs, ss, prev, open_ = [
                np.take(a, keep, axis=-1) for a in (idx, qs, ws, rs, ss, prev, open_)]
        new_vals, qs = _cc_terms(qs, ws, rs, ss)
        settled = open_ & (np.abs(new_vals - prev) < _CC_TOL)
        vals[idx[settled]], q[:, idx[settled]] = new_vals[settled], qs[:, settled]
        prev, open_ = new_vals, open_ & ~settled
    if open_.any():
        raise RuntimeError("fixed-input Lagrangian did not settle on the rho lattice")
    swept = _two(np.flatnonzero(swept))
    q_next = _cc_terms(q[:, swept], np.take(wpow, swept, axis=2), rhos[swept], sw[:, swept])[1]
    gap[swept] = _cc_gap(q[np.ix_(reach, swept)], q_next[reach], rhos[swept])
    vals[rhos == 0.0] = 0.0
    return np.maximum(vals, 0.0), q.T, gap


def constant_composition_e0(rho: float, s: Distribution, w: ConditionalDistribution) -> float:
    """Exact fixed-input counterpart of :func:`gallager_e0`.

    Evaluates min over kernels V of D(V||W|S) + rho * I(S;V) in bits. Always
    at least ``gallager_e0(rho, s, w)``, with equality when s maximizes E_0 at
    this rho; legendre-transforming this function over rho therefore yields
    the exact fixed-input exponents rather than a lower bound. The float is
    the unit lattice's at rho below 1 and the tail lattice's from 1 on.
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


def random_coding_exponent(
    r: float,
    s: Distribution,
    w: ConditionalDistribution,
    method: str = "gallager_dual",
    grid_step: float = 0.01,
) -> ChannelExponentResult:
    """Random-coding exponent at rate r for input law s over channel w.

    ``method="gallager_dual"`` is Gallager's i.i.d. form max_rho E_0 - rho r.
    Off the E_0-maximizing input it lower-bounds the constant-composition
    exponent, which :func:`dual_exponent_curves` gives exactly: at
    s = (0.3, 0.7) over ``0.9 0.1 ; 0.2 0.8`` and r = 0.02, 0.169376 against
    0.174275."""
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if method == "gallager_dual":
        val, _, _ = concave_dual_max(lambda rho: gallager_e0(rho, s, w) - rho * r)
        return ChannelExponentResult(rate=r, value=val, method=method)
    if method == "primal_grid":
        _, d, i = _primal_tables(s, w, grid_step)
        vals = d + np.maximum(i - r, 0.0)
        return ChannelExponentResult(rate=r, value=float(vals.min()), method=method)
    raise ValueError(f"unknown method {method!r}")


def sphere_packing_exponent(
    r: float,
    s: Distribution,
    w: ConditionalDistribution,
    method: str = "gallager_dual",
    grid_step: float = 0.01,
) -> ChannelExponentResult:
    """Sphere-packing exponent at rate r; the constraint is the closed set I <= r.

    ``method="gallager_dual"`` is Gallager's i.i.d. E_0 form, a lower bound
    as in :func:`random_coding_exponent`: 0.247551 at that example's s, W and
    r against 0.253365 from :func:`dual_exponent_curves`, the exact value."""
    if r < 0:
        raise ValueError("rate must be nonnegative: the constraint set would be empty")
    if method == "gallager_dual":
        g = lambda rho: gallager_e0(rho, s, w) - rho * r
        val, _, diverged = concave_dual_max(g, tail=True)
        return ChannelExponentResult(rate=r, value=val, method=method, diverged=diverged)
    if method == "primal_grid":
        _, d, i = _primal_tables(s, w, grid_step)
        feasible = i <= r + 1e-12
        if not np.any(feasible):
            return ChannelExponentResult(rate=r, value=math.inf, method=method, diverged=True)
        vals = np.where(feasible, d, np.inf)
        return ChannelExponentResult(rate=r, value=float(vals.min()), method=method)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# whole-curve evaluation


def _lattice_argmax(rates, rhos, vals):
    """(first argmax, max) over k of the table entry fl(vals[k] - fl(rate *
    rhos[k])) for every rate: the same index and float as arg-maxing the whole
    (rates x lattice) table, from a few entries per rate.

    While the lattice slopes of ``vals`` decrease by more than their rounding
    error, they decrease in exact arithmetic too. For a rate above every later
    slope, vals - rate * rho is then unimodal in exact arithmetic, and the
    slopes locate its peak. The table is evaluated on 2W + 1 points around the
    peak and one outer neighbour on each side. When both neighbours sit below
    the window's maximum by more than two entries' rounding bound, the peak
    lies strictly between them, so every entry outside the window is below
    that maximum too. Every other rate falls back to :func:`_dense_argmax`."""
    w, n = 2, len(rhos)
    fi = np.finfo(float)
    idx, best = np.empty(len(rates), dtype=np.intp), np.empty(len(rates))
    fast = np.zeros(len(rates), dtype=bool)
    if n > 2 * w and np.isfinite(vals).all():
        slopes = (vals[1:] - vals[:-1]) / (rhos[1:] - rhos[:-1])
        # each slope is within three roundings, 2 eps relative, of the exact one
        err = 2.0 * fi.eps * np.abs(slopes) + fi.tiny
        certified = slopes[:-1] - slopes[1:] > err[:-1] + err[1:]
        m = len(certified) if certified.all() else certified.argmin()
        fast = rates > np.max(slopes[m + 1 :] + err[m + 1 :], initial=-np.inf)
        r = rates[fast]
        peak = np.searchsorted(-slopes[: m + 1], -r)  # the number of steps that climb
        # windows index a copy of the lattice padded with -inf at both ends,
        # so the outer neighbour past either end loses every comparison
        lo = np.minimum(np.maximum(peak - w, 0), n - 2 * w - 1)
        cols = lo[:, None] + np.arange(2 * w + 3)
        padded = np.concatenate(([-np.inf], vals, [-np.inf])), np.concatenate(([0.0], rhos, [0.0]))
        table = padded[0][cols] - r[:, None] * padded[1][cols]
        k = np.argmax(table[:, 1:-1], axis=1)
        top = table[np.arange(len(r)), k + 1]
        # an entry rounds by at most eps/2 (|vals| + 2 |rate rho|); the margin
        # is twice the sum of two entries' bounds
        margin = 2.0 * fi.eps * (np.abs(vals).max() + 2.0 * np.abs(r) * rhos[-1])
        ok = np.maximum(table[:, 0], table[:, -1]) < top - margin
        fast[fast] = ok
        idx[fast], best[fast] = lo[ok] + k[ok], top[ok]
    dense = np.flatnonzero(~fast)
    if dense.size:
        idx[dense], best[dense] = _dense_argmax(rates[dense], rhos, vals)
    return idx, best


def _tables(rates, rhos, vals):
    """The table fl(vals[k] - fl(rate * rhos[k])), ``_RATE_BLOCK`` rates at a time."""
    for lo in range(0, len(rates), _RATE_BLOCK):
        blk = slice(lo, lo + _RATE_BLOCK)
        table = np.multiply(rates[blk, None], rhos[None, :])
        yield blk, np.subtract(vals[None, :], table, out=table)


def _dense_argmax(rates, rhos, vals):
    """:func:`_lattice_argmax` from the whole table."""
    idx, best = np.empty(len(rates), dtype=np.intp), np.empty(len(rates))
    for blk, table in _tables(rates, rhos, vals):
        idx[blk] = np.argmax(table, axis=1)
        best[blk] = table[np.arange(len(table)), idx[blk]]
    return idx, best


class _Curve:
    """A curve that equals `values` off `pending` and is bounded below by it,
    float for float, on `pending` until :meth:`resolve` raises it there to
    `tail()`, the tail envelope at the pending rates."""

    def __init__(self, values: np.ndarray, pending: np.ndarray, tail):
        self.values, self.pending = values, pending
        self._tail = tail if pending.any() else None

    def resolve(self) -> np.ndarray:
        """The values with every pending rate raised to the tail envelope, in
        a new array; rounding is monotone, so raising c + er to c + tail gives
        c + max(er, tail) bit for bit."""
        if self._tail is not None:
            values = self.values.copy()
            values[self.pending] = np.maximum(values[self.pending], self._tail())
            self.values, self.pending, self._tail = values, np.zeros_like(self.pending), None
        return self.values


def _stacked(items) -> None:
    """Solve each fixed-input (lattice, idx) into ``lattice.vals`` at the unit
    points idx not yet solved, lattices of one channel and input support in
    one call, which solves at most ``_BLOCK_CELLS`` point-channel cells at once."""
    groups: dict[tuple, list] = {}
    for lat, idx in items:
        if (idx := idx[np.isnan(lat.vals[idx])]).size:
            s, w = lat.law
            groups.setdefault((w.tobytes(), w.shape, (s > 0).tobytes()), []).append((lat, idx))
    for group in groups.values():
        w, sizes = group[0][0].law[1], [len(idx) for _, idx in group]
        rhos = np.concatenate([lat.rho_unit[idx] for lat, idx in group])
        laws = np.repeat([lat.law[0] for lat, _ in group], sizes, axis=0)
        vals = _cc_e0_on_lattice(rhos, laws, w, False)[0]
        for (lat, idx), v in zip(group, np.split(vals, np.cumsum(sizes)[:-1])):
            lat.vals[idx] = v


def _unit_argmax(requests) -> list:
    """:func:`_lattice_argmax` on the unit lattice of each (lattice, rates).

    A fixed-input lattice with more than ``_ENTRIES`` points per rate is
    solved at the peak of each rate's table of the bound U >= E of
    :func:`_cc_upper`, then at every point whose U entry fl(U_k - fl(rate
    rho_k)), which bounds its E entry as rounding is monotone, reaches some
    rate's best solved entry. The points left lie strictly below it, so the
    first argmax over the solved points is the whole table's, index and float."""
    thin = [lat.law is not None and len(lat.rho_unit) > _ENTRIES * len(r) for lat, r in requests]
    sparse = [(lat, r) for (lat, r), t in zip(requests, thin) if t and len(r)]
    peaks = [np.zeros(len(lat.rho_unit), dtype=bool) for lat, _ in sparse]
    for (lat, r), peak in zip(sparse, peaks):
        lat.upper, lat.vals = _cc_upper(lat.rho_unit, *lat.law), np.full(len(lat.rho_unit), np.nan)
        peak[_dense_argmax(r, lat.rho_unit, lat.upper)[0]] = True  # a peak that rates share, once
    _stacked([(lat, np.flatnonzero(peak)) for (lat, _), peak in zip(sparse, peaks)])
    reached = []
    for lat, r in sparse:
        solved = np.flatnonzero(~np.isnan(lat.vals))
        best = _dense_argmax(r, lat.rho_unit[solved], lat.vals[solved])[1]
        reach = np.zeros(len(lat.rho_unit), dtype=bool)
        for blk, table in _tables(r, lat.rho_unit, lat.upper):
            reach |= np.any(table >= best[blk, None], axis=0)
        reached.append((lat, np.flatnonzero(reach)))
    _stacked(reached)
    out = []
    for (lat, rates), t in zip(requests, thin):
        if not len(rates):
            out.append((np.empty(0, dtype=np.intp), np.empty(0)))
        elif not t:
            out.append(_lattice_argmax(rates, lat.rho_unit, lat.unit[0]))
        else:
            solved = np.flatnonzero(~np.isnan(lat.vals))
            idx, best = _dense_argmax(rates, lat.rho_unit[solved], lat.vals[solved])
            out.append((solved[idx], best))
    return out


class _Lattice:
    """A function E on the unit rho lattice and on the tail lattice, each
    solved whole on first use and kept: ``solve(rhos)`` returns a tuple whose
    first item is E(rho) (the E_0* solve adds its laws and gaps). With the
    fixed-input Lagrangian's ``law`` (s, w), :func:`_unit_argmax` may solve the
    unit lattice point by point into ``vals`` (nan where unsolved)."""

    def __init__(self, rho_unit: np.ndarray, rho_tail: np.ndarray, solve, law=None):
        self.rho_unit, self.rho_tail, self.law, self._solve = rho_unit, rho_tail, law, solve
        self.tail = functools.cache(lambda: solve(rho_tail))

    @functools.cached_property
    def unit(self) -> tuple:
        return self._solve(self.rho_unit)

    def curve(self, rates, shift: float = -0.0, where=slice(None)) -> _Curve:
        """shift + the Legendre envelope max_rho [E(rho) - rho R] at the
        rates on `where`, inf elsewhere: the random-coding values, and the
        sphere-packing curve pending where the unit argmax saturates at 1.
        There the tail envelope (inf while it still climbs) raises it, so
        er <= esp float for float; off the mask esp is er, preserving exact
        coincidence above the critical rate. Each argmax is that of
        :func:`_unit_argmax` or :func:`_lattice_argmax`, so every value is the
        float the whole (rates x lattice) table gives. The default shift,
        -0.0, is the identity of float addition."""
        return _curves([(self, rates, shift, where)])[0]

    def curves(self, rates):
        """(er, esp) of :meth:`curve` as two arrays, the tail solved at once."""
        curve = self.curve(rates)
        return curve.values.copy(), curve.resolve()


def _curves(specs) -> list[_Curve]:
    """:meth:`_Lattice.curve` for each (lattice, rates, shift, where), the
    unit lattices solved together."""
    specs = [(lat, np.asarray(rates, dtype=float), shift, where) for lat, rates, shift, where in specs]
    found = _unit_argmax([(lat, rates[where]) for lat, rates, _, where in specs])
    out = []
    for (lat, rates, shift, where), (idx, best) in zip(specs, found):
        values, pending = np.full(len(rates), np.inf), np.zeros(len(rates), dtype=bool)
        values[where] = shift + np.maximum(best, 0.0)
        pending[where] = idx == len(lat.rho_unit) - 1
        # the tail holds only what it reads: a pending curve must not keep
        # the unit lattice alive
        tail = functools.partial(_tail_envelope, lat.tail, lat.rho_tail, rates[pending], shift)
        out.append(_Curve(values, pending, tail))
    return out


def _tail_envelope(solve_tail, rhos: np.ndarray, rates: np.ndarray, shift: float) -> np.ndarray:
    """shift + the tail envelope at `rates`, inf where it still climbs at its end."""
    vals = solve_tail()[0]
    idx, best = _lattice_argmax(rates, rhos, vals)
    end = vals[-2:] - rates[:, None] * rhos[-2:]
    slope_end = (end[:, 1] - end[:, 0]) / (rhos[-1] - rhos[-2])
    still_climbing = (idx == len(rhos) - 1) & (slope_end > 1e-12)
    return shift + np.where(still_climbing, np.inf, best)


def _uniform_on_symmetric(s: Distribution, w: ConditionalDistribution) -> bool:
    """True when the E_0 lattice is provably exact for this fixed input: the
    uniform input on a Gallager-symmetric channel, where every row of the
    tilted channel integrates identically and the Jensen step is tight."""
    probs = s.probs
    if np.any(np.abs(probs - probs[0]) > 1e-15):
        return False
    return is_gallager_symmetric(w)[0]


def _fixed_input_lattice(s: Distribution, w: ConditionalDistribution) -> _Lattice:
    """The lattice of the fixed-input curves of :func:`dual_exponent_curves`."""
    if s.size != w.input_size:
        raise ValueError("input distribution does not match channel input alphabet")
    if _uniform_on_symmetric(s, w):
        return _Lattice(_RHO_UNIT, _RHO_TAIL, lambda r: (_e0_on_lattice(r, s.probs, w.matrix),))
    solve = lambda r: _cc_e0_on_lattice(r, s.probs, w.matrix, r[0] >= 1.0)[:1]  # Newton from rho = 1
    return _Lattice(_CC_RHO_UNIT, _CC_RHO_TAIL, solve, (s.probs, w.matrix))


def dual_exponent_curves(rates: np.ndarray, s: Distribution, w: ConditionalDistribution):
    """Exact random-coding and sphere-packing values at a fixed input for
    every rate at once. Returns (er, esp) arrays.

    Uses the fast E_0 lattice when that is provably exact (uniform input on a
    Gallager-symmetric channel); otherwise evaluates the fixed-input
    Lagrangian lattice, so the curves are true exponents rather than E_0
    lower bounds.
    """
    return _fixed_input_lattice(s, w).curves(rates)


def primal_exponent_curves(
    rates: np.ndarray, s: Distribution, w: ConditionalDistribution, grid_step: float = 0.01
):
    """Grid-oracle counterpart of :func:`dual_exponent_curves`, the oracle of
    `test_ternary_primal_curves_bound_the_dual_curves`."""
    rates = np.asarray(rates, dtype=float)
    _, d, i = _primal_tables(s, w, grid_step)
    # min d + max(0, i - R) and min d over i <= R are the increasing forms
    # on -i and -R, which negation gives exactly
    return hinge_min_increasing(-i, d, -rates), min_where_constraint_at_least(-i, d, -rates)


# ---------------------------------------------------------------------------
# input optimization, capacity, critical rate


def _line_min(alpha, d, r, hi):
    """argmin over t in [0, hi] of the convex phi(t) = sum_y (alpha + t d)_y^(1+r), point by
    point for alpha and d of shape (|Y|, points): hi where phi'(hi) <= 0, else 0 where
    phi'(0) >= 0, else Newton steps on phi' from 0 (midpoints where a step would leave the
    sign bracket [lo, top]) until |phi'| is within its rounding 8 |Y| eps sum_y |terms|, the
    bracket is 4 eps top wide or 100 steps are taken, on all points in place. The caller's
    Frank-Wolfe gap, not this search, certifies each point."""
    eps, t, top, n = np.finfo(float).eps, hi.copy(), hi.copy(), len(hi)
    base, p, g, curv, lo = np.empty(d.shape), np.empty(d.shape), np.zeros(n), np.zeros(n), np.zeros(n)

    def settled(t):  # phi' / (1+r) into g, phi'' / (1+r) into curv; True where a point may stop
        np.maximum(np.add(alpha, np.multiply(d, t, out=base), out=base), 0.0, out=base)
        np.multiply(np.power(base, r, out=p), d, out=p).sum(axis=0, out=g)
        np.copyto(lo, t, where=g < 0.0)
        np.copyto(top, t, where=g > 0.0)
        stop = lo >= np.multiply(top, 1.0 - 4.0 * eps, out=curv)
        np.multiply(np.abs(p, out=p).sum(axis=0, out=curv), 8 * len(d) * eps, out=curv)
        stop |= (g <= curv) & (g >= np.negative(curv, out=curv))
        np.divide(np.abs(np.multiply(p, d, out=p), out=p), base, out=p, where=base > 0.0)
        np.multiply(p.sum(axis=0, out=curv), r, out=curv)
        return stop

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # inf or nan steps bisect
        done = settled(t) | (g <= 0.0)
        np.copyto(t, 0.0, where=~done)
        done |= settled(t) | (g >= 0.0)
        for _ in range(100):
            if done.all():
                break
            np.subtract(t, np.divide(g, curv, out=curv), out=curv)  # the Newton step
            np.multiply(np.add(lo, top, out=g), 0.5, out=g)
            np.copyto(curv, g, where=~((curv > lo) & (curv < top)))
            np.copyto(t, curv, where=~done)
            done |= settled(t)
    return t


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
    from stalling. Both steps take the bracketed Newton line search of
    :func:`_line_min`, which stops at its rounding; the Frank-Wolfe gap
    (1+rho)(F - min c), which bounds F(s) - min F, certifies each point. A
    point stops once that gap is at most 1e-12 * F, or at most the rounding
    floor k (1+rho)^2 eps * F of evaluating it from alpha^rho, which is larger
    only near the top of the tail. Returns (E_0*, maximizing laws, relative
    gaps); unsettled points after ``max_iter`` sweeps raise.

    Every per-point array holds the lattice on its last axis, and every sum
    over inputs or outputs adds them in sequence, so any subset of a lattice,
    one point too, has the whole lattice's floats. The lattice is solved in
    blocks of ``_E0_STAR_POINTS`` points, or of at most ``_E0_STAR_CELLS``
    cells, |X| (|X| + |Y|) per point, where that is fewer points.
    """
    rhos = np.asarray(rhos, dtype=float)
    step = min(_E0_STAR_POINTS, _E0_STAR_CELLS // (len(w) * (len(w) + w.shape[1])))
    return _blocked(lambda idx: _e0_star_block(rhos[idx], w, max_iter), len(rhos), step)


def _e0_star_block(rhos, w, max_iter):
    """:func:`_e0_star_on_lattice` on one block of at least two points."""
    k, n = len(w), len(rhos)
    tol = np.maximum(1e-12, k * (1.0 + rhos) ** 2 * np.finfo(float).eps)
    s, f, gap = np.full((k, n), 1.0 / k), np.ones(n), np.zeros(n)
    active = _two(np.flatnonzero(rhos > 0.0))
    wa = np.power(w[:, :, None], 1.0 / (1.0 + rhos[active]))  # (k, |Y|, points)
    for _ in range(max_iter):
        r, sa = rhos[active], s[:, active]
        alpha, c = _e0_star_terms(sa, wa, r)
        f[active] = (sa * c).sum(axis=0)
        gap[active] = (1.0 + r) * (f[active] - c.min(axis=0)) / f[active]
        keep = _two(np.flatnonzero(gap[active] > tol[active]))
        active, r, sa, alpha, c, wa = (np.take(a, keep, axis=-1) for a in (active, r, sa, alpha, c, wa))
        if active.size == 0:
            break
        i = np.argmax(np.where(sa > 0.0, c, -np.inf), axis=0)
        j = np.argmin(c, axis=0)
        pick = lambda x: np.take_along_axis(wa, x[None, None], axis=0)[0]
        t = _line_min(alpha, pick(j) - pick(i), r, np.take_along_axis(sa, i[None], axis=0)[0])
        cols = np.arange(active.size)
        sa[i, cols] -= t
        sa[j, cols] += t
        if k > 2:
            sa = _e0_star_newton(sa, wa, r)
        s[:, active] = sa
    else:
        raise RuntimeError("input optimization did not certify its gap on the rho lattice")
    return np.maximum(-np.log2(f), 0.0), s.T, gap


def _mix(weights, rows):
    """sum_i weights_i rows_i, added in sequence."""
    return sum(weight * row for weight, row in zip(weights, rows))


def _e0_star_terms(sa, wa, r):
    """alpha = sa @ W^(1/(1+rho)) (|Y|, points) and the gradient's
    c_x = sum_y W(y|x)^(1/(1+rho)) alpha_y^rho (|X|, points), summed in sequence."""
    alpha = _mix(sa, wa)
    return alpha, _mix(np.power(alpha, r), wa.transpose(1, 0, 2))


def _e0_star_newton(sa, wa, r):
    """The laws sa (|X|, points) after a Newton step of F within the face of
    their support, and its line search. Inputs holding at most 1e-12 stay with
    the pairwise step: the curvature grows like alpha^(rho-1) as their outputs
    empty, and the Newton step would stall against them."""
    k, ny, n = wa.shape
    on = sa > 1e-12
    alpha, c = _e0_star_terms(sa, wa, r)
    curv = r * np.power(np.where(alpha > 0.0, alpha, 1.0), r - 1.0)
    # the KKT matrix, points last: the Hessian's |Y| terms added in sequence
    kkt, term = np.zeros((k + 1, k + 1, n)), np.empty((k, k, n))
    for y in range(ny):
        kkt[:k, :k] += np.multiply(np.multiply(wa[:, None, y], wa[None, :, y], out=term), curv[y], out=term)
    for x in range(k):  # keeps faces with duplicate rows solvable
        kkt[x, x] += 1e-12 * kkt[x, x]
    np.copyto(kkt[:k, :k], np.eye(k)[:, :, None], where=~(on[:, None] & on[None, :]))
    kkt[:k, k] = kkt[k, :k] = on
    rhs = np.zeros((n, k + 1, 1))
    rhs[:, :k, 0] = -np.where(on, c, 0.0).T
    d = np.linalg.solve(kkt.transpose(2, 0, 1), rhs)[:, :k, 0].T
    # back onto the sum-zero plane: along c's common mode a rounding residue
    # in sum(d) would swamp the line search's slope
    d = np.where(on, d - (d * on).sum(axis=0) / on.sum(axis=0), 0.0)
    stop = np.where(d < 0.0, sa / np.where(d < 0.0, -d, 1.0), 4.0).min(axis=0)
    t = _line_min(alpha, _mix(d, wa), r, np.minimum(stop, 4.0))
    sa = np.maximum(sa + t * d, 0.0)
    return sa / sa.sum(axis=0)


def _e0_star_lattice(w: ConditionalDistribution) -> _Lattice:
    """The certified E_0* solves of W, each (values, laws, gaps), which
    :func:`optimize_input` and :func:`uniform_input_is_optimal_premise` read."""
    return _Lattice(_RHO_UNIT, _RHO_TAIL, lambda rhos: _e0_star_on_lattice(rhos, w.matrix))


def _input_optimized_lattice(w: ConditionalDistribution) -> _Lattice:
    """The lattice :func:`input_optimized_curves` reads: E_0 of the uniform
    input on a Gallager-symmetric channel, E_0* otherwise. Envelopes of
    several rate grids over one channel can share it; only the values are
    kept."""
    if is_gallager_symmetric(w)[0]:
        return _fixed_input_lattice(Distribution.uniform(w.input_size), w)
    return _Lattice(_RHO_UNIT, _RHO_TAIL, lambda rhos: _e0_star_on_lattice(rhos, w.matrix)[:1])


def _optimal_law(r, value, er_value, lattice: _Lattice, k):
    """Maximizing law at the lattice rho that attains ``value`` on an E_0*
    lattice; values at most 1e-12 break the tie toward the uniform law."""
    if value <= 1e-12:
        return Distribution.uniform(k)
    if value == er_value:
        rhos, (e0, laws, _) = lattice.rho_unit, lattice.unit
    else:
        rhos, (e0, laws, _) = lattice.rho_tail, lattice.tail()
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
    lattice = _e0_star_lattice(w)
    curve = lattice.curve([float(r)])
    er = curve.values[0]
    value = float(er if which == "random" else curve.resolve()[0])
    return _optimal_law(r, value, er, lattice, w.input_size), value


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
    earlier_coincidences: tuple[float, ...] = ()


def critical_rate(
    w: ConditionalDistribution,
    rate_step: float = 1e-3,
    agreement_tol: float = 1e-6,
    *,
    evaluator=None,
) -> CriticalRateResult:
    """Smallest grid rate above which the input-optimized random-coding and
    sphere-packing exponents agree within ``agreement_tol`` at every grid rate.

    Both curves come from :func:`input_optimized_curves`, so every grid rate
    reads the same certified E_0* lattice. Grid rates below the certified
    point where the two curves also touch are reported separately instead of
    silently extending the interval. An ``evaluator``
    (:class:`siexp.joint_bounds.NestedEvaluator`) built for this channel and
    rate step lends its lattices; one built for another raises
    :class:`siexp.errors.EvaluatorMismatchError`.
    """
    if evaluator is not None:
        evaluator.check(w, rate_step)
    cap = capacity(w)
    if cap <= 1e-12:
        raise ValueError("channel has zero capacity; the exponents are identically zero")
    rates = rate_grid(rate_step, math.log2(w.input_size))
    if evaluator is None:
        er, esp = input_optimized_curves(rates, w)
    else:
        er, esp = evaluator.input_optimized_curves(rates)
    with np.errstate(invalid="ignore"):
        agree = np.abs(esp - er) <= agreement_tol
    agree |= np.isinf(esp) & np.isinf(er)
    if not agree[-1]:
        raise RuntimeError("exponent curves never certify agreement on the grid")
    start = len(rates)
    while start > 0 and agree[start - 1]:
        start -= 1
    earlier = tuple(float(r) for r in rates[:start][agree[:start]])
    return CriticalRateResult(rate=float(rates[start]), earlier_coincidences=earlier)


# ---------------------------------------------------------------------------
# symmetry


def is_gallager_symmetric(
    w: ConditionalDistribution, atol: float = 1e-9
) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """Whether the outputs split into groups whose submatrices have mutually
    permuted rows and mutually permuted columns (Gallager 1968, section 4.5).
    Returns (flag, partition).

    The groups are the column classes: each output joins the first class
    whose first sorted column matches its own within ``atol``. Every block of
    a valid partition lies inside one column class, and a union of valid
    blocks in one class is valid, since each row's multiset over the union is
    the union of its multisets over the blocks. So a valid partition exists
    exactly when every column class passes the row test (given that any two
    entries lie within atol or more than 2 atol apart). The partition
    returned lists each class in ascending output order, ordered by first
    output."""
    cols = np.sort(w.matrix, axis=0)
    classes: list[list[int]] = []
    for y in range(w.output_size):
        for group in classes:
            if np.all(np.abs(cols[:, y] - cols[:, group[0]]) <= atol):
                group.append(y)
                break
        else:
            classes.append([y])
    for group in classes:
        rows = np.sort(w.matrix[:, group], axis=1)
        if not np.all(np.abs(rows - rows[0]) <= atol):
            return False, None
    return True, tuple(tuple(group) for group in classes)


def uniform_input_is_optimal_premise(
    w: ConditionalDistribution, rate_step: float = 0.05, tol: float = 1e-6
) -> tuple[bool, float | None]:
    """Numeric check that one input law maximizes the random-coding exponent at
    every rate. Returns (holds, offending_rate). Only random-coding values and
    the unit lattice's laws are read, so no tail lattice is solved."""
    cap = capacity(w)
    rates = rate_grid(rate_step, max(cap - rate_step, rate_step))
    star = _e0_star_lattice(w)
    best = star.curve(rates).values
    m = len(rates) // 2
    mid = _optimal_law(rates[m], best[m], best[m], star, w.input_size)
    # the candidate input is held fixed, so its values must come from the
    # exact fixed-input Lagrangian, not the E_0 lower bound
    fixed = _fixed_input_lattice(mid, w).curve(rates).values
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
    return _input_optimized_lattice(w).curves(rates)
