"""Grid enumeration and one-dimensional search used by the exponent modules.

The primal exponent definitions are evaluated by brute force over simplex
grids; the dual (Gallager) forms need a reliable concave maximizer. Both live
here so the exponent modules stay focused on the formulas.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Hard cap on enumerated grid points; primal sweeps past this are a sign the
# caller wants a coarser step, not a bigger machine. It counts points, not
# bytes: the primal source oracle peaks at about 3.3 times its grid array.
GRID_POINT_BUDGET = 4_000_000


def grid_resolution(step: float) -> int:
    if not 0 < step <= 0.5:
        raise ValueError(f"grid step must be in (0, 0.5], got {step}")
    return max(1, int(round(1.0 / step)))


def _compositions(total: int, k: int) -> np.ndarray:
    """Nonnegative integer k-tuples summing to total, lexicographically ordered.

    Built one part at a time: each prefix, in order, is followed by every
    value of the next part from 0 up to what the prefix leaves, which yields
    exactly the lexicographic tuple order. Each level keeps only its new part
    and the row of its prefix; the columns are gathered at the end.
    """
    room = np.array([total], dtype=np.int32)  # what each prefix leaves
    parts, parents = [], []
    for _ in range(k - 1):
        counts = room + 1
        parent = np.repeat(np.arange(len(room), dtype=np.int32), counts)
        first = np.cumsum(counts, dtype=np.int32) - counts
        part = np.arange(len(parent), dtype=np.int32) - first[parent]
        room = room[parent] - part
        parts.append(part)
        parents.append(parent)
    out = np.empty((len(room), k), dtype=np.int32)
    out[:, -1] = room
    rows = np.arange(len(room))  # each output row's index at level j
    for j in range(k - 2, -1, -1):
        out[:, j] = parts[j][rows]
        rows = parents[j][rows]
    return out


def simplex_grid(k: int, step: float) -> np.ndarray:
    """All probability vectors over k symbols with entries on a 1/round(1/step) lattice.

    Returned array has shape (N, k) and is read-only.
    """
    res = grid_resolution(step)
    n_points = math.comb(res + k - 1, k - 1)
    if n_points > GRID_POINT_BUDGET:
        raise BudgetError(
            f"simplex grid with step {step} over {k} cells needs {n_points} points, "
            f"budget is {GRID_POINT_BUDGET}; use a coarser step"
        )
    pts = _compositions(res, k).astype(float) / res
    pts.flags.writeable = False
    return pts


def conditional_grid(n_rows: int, n_cols: int, step: float) -> np.ndarray:
    """All row-stochastic (n_rows, n_cols) matrices with rows on the simplex grid.

    Shape (N, n_rows, n_cols), read-only.
    """
    rows = simplex_grid(n_cols, step)
    m = rows.shape[0]
    n_points = m**n_rows
    if n_points > GRID_POINT_BUDGET:
        raise BudgetError(
            f"conditional grid with step {step} for a {n_rows}x{n_cols} kernel needs "
            f"{n_points} points, budget is {GRID_POINT_BUDGET}; use a coarser step"
        )
    idx = np.indices((m,) * n_rows).reshape(n_rows, -1).T
    out = rows[idx]
    out.flags.writeable = False
    return out


def golden_section_max(f, lo: float, hi: float, xtol: float = 1e-10):
    """Maximize a unimodal (concave) f on [lo, hi].

    Returns (argmax, max). Endpoints are always evaluated, so monotone
    objectives resolve to the correct boundary.
    """
    if hi < lo:
        raise ValueError("empty interval")
    best_x, best_f = lo, f(lo)
    fhi = f(hi)
    if fhi > best_f:
        best_x, best_f = hi, fhi

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
    return best_x, best_f


DUAL_RHO_MAX = 100.0
DUAL_EXPANSION = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, DUAL_RHO_MAX)


def concave_tail_max(g, xtol: float = 1e-10):
    """Maximize a concave g over [1, DUAL_RHO_MAX], knowing g climbs at 1.

    Walks the doubling schedule until the objective drops, then refines by
    golden section. Returns (value, argmax, diverged); diverged means the
    objective was still climbing at DUAL_RHO_MAX and the caller should treat
    the supremum as infinite.
    """
    vals = [g(p) for p in DUAL_EXPANSION]
    stop = None
    for i in range(1, len(DUAL_EXPANSION)):
        if vals[i] < vals[i - 1]:
            stop = i
            break
    if stop is None:
        if g(DUAL_RHO_MAX) - g(DUAL_RHO_MAX - 1.0) > 1e-12:
            return math.inf, None, True
        stop = len(DUAL_EXPANSION) - 1
    lo = DUAL_EXPANSION[max(0, stop - 2)]
    x_star, val = golden_section_max(g, lo, DUAL_EXPANSION[stop], xtol)
    return val, x_star, False


def concave_dual_max(g, tail: bool = False, xtol: float = 1e-10):
    """Maximize a concave dual objective g over rho in [0, 1], or over
    rho >= 0 with ``tail``. Returns (value, argmax, diverged), the value
    clipped at 0.

    The tail stage runs only when g still climbs at 1, so wherever the optimum
    lies in [0, 1] both variants return the *same* float; a tail still climbing
    at DUAL_RHO_MAX reports (inf, None, True).
    """
    rho_u, val_u = golden_section_max(g, 0.0, 1.0, xtol)
    val_u = max(0.0, val_u)
    if not tail or g(1.0 + 1e-6) <= g(1.0):
        return val_u, rho_u, False
    val, rho, diverged = concave_tail_max(g, xtol)
    if diverged:
        return math.inf, None, True
    return (val_u, rho_u, False) if val <= val_u else (val, rho, False)


def rate_grid(step: float, upper: float, include_zero: bool = False) -> np.ndarray:
    """Grid of rates k*step covering (0, upper], snapped to 12 decimals.

    The snap makes grid points like 1000 * 0.001 come out as exactly 1.0,
    which matters because the alphabet-size boundary is treated specially.
    """
    if step <= 0:
        raise ValueError("rate step must be positive")
    k_max = int(math.floor(upper / step + 1e-9))
    start = 0 if include_zero else 1
    rates = np.round(np.arange(start, k_max + 1) * step, 12)
    return rates[rates <= upper + 1e-12]


# ---------------------------------------------------------------------------
# envelope helpers: given grid points with a constraint value c_i and an
# objective d_i, evaluate constrained minima for a whole vector of rates at
# once. Sorting plus running minima replaces a per-rate scan.


def min_where_constraint_at_least(c: np.ndarray, d: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """out[r] = min{ d_i : c_i >= rate } (inf when empty)."""
    order = np.argsort(c, kind="stable")
    c_sorted = c[order]
    # suffix minima over d in c-ascending order
    suffix = np.minimum.accumulate(d[order][::-1])[::-1]
    pos = np.searchsorted(c_sorted, rates, side="left")
    out = np.full(rates.shape, np.inf)
    inside = pos < len(c_sorted)
    out[inside] = suffix[pos[inside]]
    return out


def hinge_min_increasing(c: np.ndarray, d: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """out[r] = min_i d_i + max(0, rate - c_i). Increasing in rate."""
    order = np.argsort(c, kind="stable")
    c_sorted = c[order]
    d_sorted = d[order]
    with np.errstate(invalid="ignore"):
        shifted = d_sorted - c_sorted  # inf - finite stays inf
    prefix_shift = np.minimum.accumulate(shifted)
    suffix_plain = np.minimum.accumulate(d_sorted[::-1])[::-1]

    pos_right = np.searchsorted(c_sorted, rates, side="left")
    out = np.full(rates.shape, np.inf)
    inside = pos_right < len(c_sorted)
    out[inside] = suffix_plain[pos_right[inside]]
    pos_left = pos_right - 1
    has_left = pos_left >= 0
    out[has_left] = np.minimum(out[has_left], prefix_shift[pos_left[has_left]] + rates[has_left])
    return out


def largest_remainder_counts(probs: np.ndarray, n: int) -> np.ndarray:
    """Round n * probs to integer counts summing to n, largest remainders first.

    Remainder ties break toward lower index, so the result is deterministic.
    """
    probs = np.asarray(probs, dtype=float)
    scaled = probs * n
    counts = np.floor(scaled).astype(int)
    short = n - counts.sum()
    if short > 0:
        remainders = scaled - counts
        order = np.lexsort((np.arange(len(probs)), -remainders))
        counts[order[:short]] += 1
    return counts
