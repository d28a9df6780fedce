"""Probability containers and base-2 information measures.

Every other module consumes these types. Validation happens once, at
construction: entries must be nonnegative and finite, and any mass that is
within ``SUM_TOLERANCE`` of 1 is renormalized. All entropies and divergences
are in bits. Infinity (``math.inf``) is the authoritative value for divergences
with support violations; nothing in this package uses a large-float sentinel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUM_TOLERANCE = 1e-9


def _validated_array(values, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    if arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{what} contains negative entries")
    return arr


def _renormalized(arr: np.ndarray, axis, what: str) -> np.ndarray:
    total = arr.sum(axis=axis, keepdims=axis is not None)
    if np.any(np.abs(total - 1.0) > SUM_TOLERANCE):
        raise ValueError(f"{what} mass deviates from 1 by more than {SUM_TOLERANCE}")
    out = arr / total
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _validated_array(self.probs, 1, "distribution")
        object.__setattr__(self, "probs", _renormalized(arr, None, "distribution"))

    @property
    def size(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def uniform(cls, k: int) -> "Distribution":
        return cls(np.full(k, 1.0 / k))

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.probs, other.probs)

    def __repr__(self) -> str:
        return f"Distribution({self.probs.tolist()})"


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint probability matrix; rows index the first variable (A), columns the second (B)."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _validated_array(self.matrix, 2, "joint distribution")
        object.__setattr__(self, "matrix", _renormalized(arr, None, "joint distribution"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def row_marginal(self) -> Distribution:
        return Distribution(self.matrix.sum(axis=1))

    def col_marginal(self) -> Distribution:
        return Distribution(self.matrix.sum(axis=0))

    def conditional_rows(self) -> "ConditionalDistribution":
        """P(B|A). Rows whose marginal mass is zero are filled uniformly;
        they carry no probability and must never influence a result."""
        m = self.matrix.copy()
        row_mass = m.sum(axis=1)
        ncols = m.shape[1]
        for i, mass in enumerate(row_mass):
            if mass > 0:
                m[i] /= mass
            else:
                m[i] = 1.0 / ncols
        return ConditionalDistribution(m)

    def __eq__(self, other) -> bool:
        return isinstance(other, JointDistribution) and np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"JointDistribution({self.matrix.tolist()})"


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    """Row-stochastic matrix; row x is the output law given input x."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _validated_array(self.matrix, 2, "conditional distribution")
        object.__setattr__(self, "matrix", _renormalized(arr, 1, "conditional distribution row"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def input_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def output_size(self) -> int:
        return self.matrix.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, ConditionalDistribution) and np.array_equal(
            self.matrix, other.matrix
        )

    def __repr__(self) -> str:
        return f"ConditionalDistribution({self.matrix.tolist()})"


def compose(s: Distribution, v: ConditionalDistribution) -> JointDistribution:
    """Joint law s(x) v(y|x)."""
    if s.size != v.input_size:
        raise ValueError("input distribution size does not match conditional rows")
    return JointDistribution(s.probs[:, None] * v.matrix)


# ---------------------------------------------------------------------------
# array kernels, shared with the grid enumeration code


def entropy_bits(p: np.ndarray, axis=None) -> np.ndarray | float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p), 0.0)
    return -terms.sum(axis=axis)


def kl_bits(q: np.ndarray, p: np.ndarray, axis=None) -> np.ndarray | float:
    """D(q||p) in bits; +inf where q places mass outside the support of p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * (np.log2(q) - np.log2(p)), 0.0)
    return terms.sum(axis=axis)


# ---------------------------------------------------------------------------
# public measures


def entropy(p: Distribution) -> float:
    return float(entropy_bits(p.probs))


def conditional_entropy(j: JointDistribution) -> float:
    """H(A|B) = H(A,B) - H(B) in bits."""
    return float(entropy_bits(j.matrix) - entropy_bits(j.matrix.sum(axis=0)))


def mutual_information(s: Distribution, v: ConditionalDistribution) -> float:
    """I(S;V) = H(output marginal) - sum_x s(x) H(row x), clamped at 0."""
    if s.size != v.input_size:
        raise ValueError("input distribution size does not match conditional rows")
    out = s.probs @ v.matrix
    val = float(entropy_bits(out) - s.probs @ entropy_bits(v.matrix, axis=1))
    if val < 0:
        if val < -1e-9:
            raise AssertionError(f"mutual information came out {val}, below rounding noise")
        return 0.0
    return val


def kl_divergence(q: Distribution, p: Distribution) -> float:
    if q.size != p.size:
        raise ValueError("distributions live on different alphabets")
    return float(kl_bits(q.probs, p.probs))


def conditional_kl(
    v: ConditionalDistribution, w: ConditionalDistribution, s: Distribution
) -> float:
    """D(V||W|S) = sum_x s(x) D(v_x || w_x); rows with s(x) = 0 are skipped."""
    if v.shape != w.shape or s.size != v.input_size:
        raise ValueError("shape mismatch between v, w, s")
    total = 0.0
    for x in range(s.size):
        sx = s.probs[x]
        if sx == 0.0:
            continue
        row = float(kl_bits(v.matrix[x], w.matrix[x]))
        if math.isinf(row):
            return math.inf
        total += sx * row
    return total
