"""Exhaustive small-blocklength simulation of joint source-channel coding
with decoder side information.

Scope is deliberately tiny: alphabets up to size 4 and blocklengths where the
full (source, side, output) state space fits a budget, so the error
probability is a finite sum evaluated exactly rather than an estimate. A
Monte-Carlo estimator over the same decoders exists for cross-checking.

Codebooks assign every source sequence a channel input drawn uniformly from
one type class; which type class depends only on the source sequence's own
type. Decoding uses empirical-type statistics (mutual information of the
candidate codeword with the channel output, penalized by the candidate's
conditional entropy given the side sequence) or exact maximum a posteriori
scoring. All score ties decode to an error, a pessimistic convention applied
to both decoders alike.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError
from .joint_bounds import best_input_for_marginal
from .numerics import largest_remainder_counts
from .probkit import ConditionalDistribution, Distribution, JointDistribution, entropy_bits

MAX_ALPHABET = 4
DEFAULT_N_CAP = 8
DEFAULT_STATE_BUDGET = 2**24
_TIE_TOL = 1e-12
# 512 KiB of float scores per block stay in cache across the block's passes;
# 2**20-cell blocks made the n = 8 sweep loop about 1.6x slower.
_SWEEP_BLOCK_CELLS = 2**16


def _all_sequences(k: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)


def _lex_index(seqs: np.ndarray, k: int) -> np.ndarray:
    n = seqs.shape[-1]
    powers = k ** np.arange(n - 1, -1, -1)
    return seqs @ powers


def _sequence_type(seq, k: int) -> tuple[int, ...]:
    return tuple(int(c) for c in np.bincount(np.asarray(seq), minlength=k))


@dataclass(frozen=True)
class Codebook:
    n: int
    source_size: int
    input_size: int
    rule: str
    seed: int
    codewords: np.ndarray  # (source_size**n, n), row index = lexicographic a-sequence
    compositions: dict[tuple[int, ...], tuple[int, ...]]
    composition_targets: dict[tuple[int, ...], tuple[float, ...]] = field(default_factory=dict)

    def codeword_for(self, a_seq) -> np.ndarray:
        idx = int(_lex_index(np.asarray(a_seq, dtype=np.int64), self.source_size))
        return self.codewords[idx]


@dataclass(frozen=True)
class SimulationResult:
    n: int
    decoder: str
    error_probability: float
    empirical_exponent: float
    method: str
    samples: int | None = None
    std_error: float | None = None


def _empirical_exponent(pe: float, n: int) -> float:
    if pe <= 0.0:
        return math.inf
    return -math.log2(pe) / n


def build_codebook(
    n: int,
    p: JointDistribution,
    w: ConditionalDistribution,
    rule: str = "uniform",
    seed: int = 0,
    n_cap: int = DEFAULT_N_CAP,
) -> Codebook:
    """Draw one codeword per source sequence, uniformly within a type class.

    rule='uniform' uses the balanced input composition for every source type;
    rule='optimized' picks, per source type, the input law maximizing the
    nested lower-bound payoff and rounds it to integer counts by largest
    remainders (the real-valued target is kept in the metadata).
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    if n > n_cap:
        raise BudgetError(
            f"blocklength {n} exceeds the cap {n_cap}: the exact sweep enumerates "
            f"|A|^n * |B|^n * |Y|^n states and grows out of desk scale"
        )
    if rule not in ("uniform", "optimized"):
        raise ValueError("rule must be 'uniform' or 'optimized'")
    na = p.shape[0]
    nx = w.input_size
    if max(na, p.shape[1], nx, w.output_size) > MAX_ALPHABET:
        raise BudgetError(f"alphabets beyond size {MAX_ALPHABET} are out of scope")

    a_seqs = _all_sequences(na, n)
    types = sorted({_sequence_type(row, na) for row in a_seqs})
    compositions: dict[tuple[int, ...], tuple[int, ...]] = {}
    targets: dict[tuple[int, ...], tuple[float, ...]] = {}
    for t in types:
        if rule == "uniform":
            base, rem = divmod(n, nx)
            counts = np.array([base + (1 if i < rem else 0) for i in range(nx)])
        else:
            q_a = Distribution(np.array(t, dtype=float) / n)
            target, _ = best_input_for_marginal(p, w, q_a)
            targets[t] = tuple(float(v) for v in target.probs)
            counts = largest_remainder_counts(target.probs, n)
        compositions[t] = tuple(int(c) for c in counts)

    rng = np.random.default_rng(seed)
    codewords = np.empty((len(a_seqs), n), dtype=np.int64)
    for idx, row in enumerate(a_seqs):
        counts = compositions[_sequence_type(row, na)]
        base = np.repeat(np.arange(nx), counts)
        codewords[idx] = base[rng.permutation(n)]
    codewords.flags.writeable = False
    return Codebook(
        n=n,
        source_size=na,
        input_size=nx,
        rule=rule,
        seed=seed,
        codewords=codewords,
        compositions=compositions,
        composition_targets=targets,
    )


# ---------------------------------------------------------------------------
# single-shot decoders (reference implementations; the exhaustive sweep uses
# the vectorized tables below and is cross-checked against these)


def _empirical_mi(seq1, seq2, k1: int, k2: int) -> float:
    n = len(seq1)
    joint = np.zeros((k1, k2))
    np.add.at(joint, (seq1, seq2), 1.0 / n)
    return float(
        entropy_bits(joint.sum(axis=1)) + entropy_bits(joint.sum(axis=0)) - entropy_bits(joint)
    )


def _empirical_cond_entropy(seq1, seq2, k1: int, k2: int) -> float:
    n = len(seq1)
    joint = np.zeros((k1, k2))
    np.add.at(joint, (seq1, seq2), 1.0 / n)
    return float(entropy_bits(joint) - entropy_bits(joint.sum(axis=0)))


def mmi_si_decode(codebook: Codebook, p: JointDistribution, b_seq, y_seq):
    """Decode by maximizing empirical I(codeword; output) - H(candidate | side).

    Returns the decoded source sequence, or None on a score tie (ties count
    as errors). Only alphabet sizes are read off ``p``; the decoder itself is
    distribution-blind.
    """
    b_seq = np.asarray(b_seq, dtype=np.int64)
    y_seq = np.asarray(y_seq, dtype=np.int64)
    nb = p.shape[1]
    ny = int(y_seq.max()) + 1 if len(y_seq) else 1
    best: list[int] = []
    best_score = -math.inf
    for idx in range(codebook.codewords.shape[0]):
        a_seq = np.array(
            np.unravel_index(idx, (codebook.source_size,) * codebook.n), dtype=np.int64
        )
        x_seq = codebook.codewords[idx]
        score = _empirical_mi(
            x_seq, y_seq, codebook.input_size, max(ny, 1)
        ) - _empirical_cond_entropy(a_seq, b_seq, codebook.source_size, nb)
        if score > best_score + _TIE_TOL:
            best_score = score
            best = [idx]
        elif score > best_score - _TIE_TOL:
            best.append(idx)
    if len(best) != 1:
        return None
    return tuple(
        int(v) for v in np.unravel_index(best[0], (codebook.source_size,) * codebook.n)
    )


def map_decode(
    codebook: Codebook,
    p: JointDistribution,
    w: ConditionalDistribution,
    b_seq,
    y_seq,
):
    """Maximum a posteriori decoding of the source sequence from (side, output).

    Scores are exact log-joints; ties (including the all-impossible case)
    return None and count as errors.
    """
    b_seq = np.asarray(b_seq, dtype=np.int64)
    y_seq = np.asarray(y_seq, dtype=np.int64)
    with np.errstate(divide="ignore"):
        logp = np.log2(p.matrix)
        logw = np.log2(w.matrix)
    best: list[int] = []
    best_score = -math.inf
    for idx in range(codebook.codewords.shape[0]):
        a_seq = np.unravel_index(idx, (codebook.source_size,) * codebook.n)
        x_seq = codebook.codewords[idx]
        score = float(logp[a_seq, b_seq].sum() + logw[x_seq, y_seq].sum())
        if math.isnan(score):
            score = -math.inf
        if score > best_score + 1e-10:
            best_score = score
            best = [idx]
        elif score > best_score - 1e-10 or (score == -math.inf and best_score == -math.inf):
            best.append(idx)
    if len(best) != 1:
        return None
    return tuple(
        int(v) for v in np.unravel_index(best[0], (codebook.source_size,) * codebook.n)
    )


# ---------------------------------------------------------------------------
# exhaustive evaluation


def _pair_type_counts(s1: np.ndarray, s2: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """(len(s1), len(s2), k1*k2) joint-type counts for every sequence pair."""
    n1, n = s1.shape
    n2 = s2.shape[0]
    codes = (s1[:, None, :] * k2 + s2[None, :, :]).reshape(-1, n)
    offsets = np.arange(codes.shape[0], dtype=np.int64)[:, None] * (k1 * k2)
    flat = np.bincount((codes + offsets).ravel(), minlength=codes.shape[0] * k1 * k2)
    return flat.reshape(n1, n2, k1 * k2)


def _decoder_tables(codebook: Codebook, p: JointDistribution, w: ConditionalDistribution):
    n = codebook.n
    na, nb = p.shape
    nx, ny = w.shape
    a_seqs = _all_sequences(na, n)
    b_seqs = _all_sequences(nb, n)
    y_seqs = _all_sequences(ny, n)

    t_ab = _pair_type_counts(a_seqs, b_seqs, na, nb) / n
    t_xy = _pair_type_counts(codebook.codewords, y_seqs, nx, ny) / n

    h_ab = entropy_bits(t_ab, axis=2)
    h_b = entropy_bits(t_ab.reshape(len(a_seqs), len(b_seqs), na, nb).sum(axis=2), axis=2)
    cond_h = h_ab - h_b  # (NA, NB)

    h_xy = entropy_bits(t_xy, axis=2)
    marg = t_xy.reshape(len(a_seqs), len(y_seqs), nx, ny)
    h_x = entropy_bits(marg.sum(axis=3), axis=2)
    h_y = entropy_bits(marg.sum(axis=2), axis=2)
    mi = h_x + h_y - h_xy  # (NA, NY)

    with np.errstate(divide="ignore"):
        logp = np.log2(p.matrix).reshape(-1)
        logw = np.log2(w.matrix).reshape(-1)
    counts_ab = t_ab * n
    counts_xy = t_xy * n
    with np.errstate(invalid="ignore"):  # 0 * -inf in the masked branch
        logjoint_ab = np.where(counts_ab > 0, counts_ab * logp[None, None, :], 0.0).sum(axis=2)
        logjoint_xy = np.where(counts_xy > 0, counts_xy * logw[None, None, :], 0.0).sum(axis=2)
    return mi, cond_h, logjoint_ab, logjoint_xy


def _error_mask(scores: np.ndarray, tol: float, out: np.ndarray | None = None) -> np.ndarray:
    """Decode failures of every candidate along axis 0 (optionally into ``out``).

    A candidate is near when it scores within ``tol`` of the top. A point with
    more than one near candidate (all of them when every score is -inf) is a
    tie, an error; otherwise its one near candidate is the argmax, the only
    candidate decoded correctly.
    """
    top = scores.max(axis=0)
    top -= tol
    out = np.greater_equal(scores, top, out=out)
    tie = np.count_nonzero(out, axis=0) > 1
    np.logical_not(out, out=out)
    out |= tie
    return out


def exact_error_probability(
    codebook: Codebook,
    p: JointDistribution,
    w: ConditionalDistribution,
    decoder: str = "mmi",
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SimulationResult:
    """Evaluate the exact error probability by enumerating every
    (source, side, output) triple and weighting decode failures.

    The side sequences are walked in blocks of about ``_SWEEP_BLOCK_CELLS``
    (source, side, output) cells, at least one side sequence each, so the
    score and mask buffers never hold the whole state table."""
    if decoder not in ("mmi", "map"):
        raise ValueError("decoder must be 'mmi' or 'map'")
    n = codebook.n
    na, nb = p.shape
    nx, ny = w.shape
    if na != codebook.source_size or nx != codebook.input_size:
        raise ValueError("codebook alphabets do not match the given laws")
    states = (na * nb * ny) ** n
    if states > state_budget:
        raise BudgetError(
            f"exact sweep needs {states} states, budget is {state_budget}; "
            "reduce the blocklength or raise the budget explicitly"
        )

    mi, cond_h, logjoint_ab, logjoint_xy = _decoder_tables(codebook, p, w)
    tol = _TIE_TOL if decoder == "mmi" else 1e-10
    na_n, nb_n = logjoint_ab.shape
    ny_n = logjoint_xy.shape[1]
    pab = np.exp2(logjoint_ab)
    wxy = np.exp2(logjoint_xy)
    rows = min(nb_n, max(1, _SWEEP_BLOCK_CELLS // (na_n * ny_n)))
    scores = np.empty((na_n, rows, ny_n))
    err = np.empty(scores.shape, dtype=bool)
    pe = 0.0
    for b0 in range(0, nb_n, rows):
        blk = slice(b0, min(b0 + rows, nb_n))
        s, e = scores[:, : blk.stop - b0], err[:, : blk.stop - b0]
        if decoder == "mmi":
            np.subtract(mi[:, None, :], cond_h[:, blk, None], out=s)
        else:
            np.add(logjoint_ab[:, blk, None], logjoint_xy[:, None, :], out=s)
        # once masked, the score block holds the mask as floats for the matmul
        s[...] = _error_mask(s, tol, e)
        pe += float(np.vdot(pab[:, blk], s @ wxy[:, :, None]))
    pe = min(max(pe, 0.0), 1.0)
    return SimulationResult(
        n=n,
        decoder=decoder,
        error_probability=pe,
        empirical_exponent=_empirical_exponent(pe, n),
        method="exact",
    )


def monte_carlo_error_probability(
    codebook: Codebook,
    p: JointDistribution,
    w: ConditionalDistribution,
    decoder: str = "mmi",
    samples: int = 100_000,
    seed: int = 0,
) -> SimulationResult:
    """Estimate the same error probability by sampling the true generative
    law; useful as an independent check on the exhaustive sweep.

    The decoder tables hold a joint-type count per letter pair for every
    (source, side) and (codeword, output) sequence pair, |A|^n * max(|B|^n *
    |A||B|, |Y|^n * |X||Y|) entries, which must fit ``DEFAULT_STATE_BUDGET``;
    the samples are scored in blocks."""
    if decoder not in ("mmi", "map"):
        raise ValueError("decoder must be 'mmi' or 'map'")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = codebook.n
    na, nb = p.shape
    nx, ny = w.shape
    table_cells = na**n * max(nb**n * na * nb, ny**n * nx * ny)
    if table_cells > DEFAULT_STATE_BUDGET:
        raise BudgetError(
            f"Monte Carlo decoder tables need {table_cells} entries, budget is "
            f"{DEFAULT_STATE_BUDGET}; reduce the blocklength"
        )
    rng = np.random.default_rng(seed)
    pairs = rng.choice(na * nb, size=(samples, n), p=p.matrix.reshape(-1))
    a = pairs // nb
    b = pairs % nb
    a_idx = _lex_index(a, na)
    b_idx = _lex_index(b, nb)
    x = codebook.codewords[a_idx]
    cum = np.cumsum(w.matrix, axis=1)
    cum[:, -1] = 1.0
    u = rng.random((samples, n))
    y = (u[:, :, None] > cum[x][:, :, :]).sum(axis=2)
    y_idx = _lex_index(y, w.output_size)

    mi, cond_h, logjoint_ab, logjoint_xy = _decoder_tables(codebook, p, w)
    tol = _TIE_TOL if decoder == "mmi" else 1e-10
    cols = max(1, _SWEEP_BLOCK_CELLS // mi.shape[0])
    errors = 0
    for s0 in range(0, samples, cols):
        j = slice(s0, s0 + cols)
        if decoder == "mmi":
            scores = mi[:, y_idx[j]] - cond_h[:, b_idx[j]]
        else:
            scores = logjoint_ab[:, b_idx[j]] + logjoint_xy[:, y_idx[j]]
        err = _error_mask(scores, tol)
        errors += int(np.count_nonzero(err[a_idx[j], np.arange(scores.shape[1])]))
    pe = errors / samples
    return SimulationResult(
        n=n,
        decoder=decoder,
        error_probability=pe,
        empirical_exponent=_empirical_exponent(pe, n),
        method="monte_carlo",
        samples=samples,
        std_error=float(math.sqrt(max(pe * (1 - pe), 1e-12) / samples)),
    )


def codeword_compositions_ok(codebook: Codebook) -> bool:
    """Every codeword carries exactly the composition assigned to its source type."""
    na = codebook.source_size
    for idx in range(codebook.codewords.shape[0]):
        a_seq = np.unravel_index(idx, (na,) * codebook.n)
        t = _sequence_type(np.array(a_seq), na)
        comp = _sequence_type(codebook.codewords[idx], codebook.input_size)
        if comp != codebook.compositions[t]:
            return False
    return True
