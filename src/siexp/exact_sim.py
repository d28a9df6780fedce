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
    return np.ascontiguousarray(np.indices((k,) * n, dtype=np.int64).reshape(n, -1).T)


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
    # each source sequence's type (letter counts) and its index among the sorted types
    a_types = (a_seqs[:, :, None] == np.arange(na)).sum(axis=1)
    keys = _lex_index(a_types, n + 1)  # base n + 1 keeps the tuple order
    _, first, type_idx = np.unique(keys, return_index=True, return_inverse=True)
    compositions: dict[tuple[int, ...], tuple[int, ...]] = {}
    targets: dict[tuple[int, ...], tuple[float, ...]] = {}
    for t in map(tuple, a_types[first].tolist()):
        if rule == "uniform":
            base, rem = divmod(n, nx)
            counts = np.array([base + (1 if i < rem else 0) for i in range(nx)])
        else:
            q_a = Distribution(np.array(t, dtype=float) / n)
            target, _ = best_input_for_marginal(p, w, q_a)
            targets[t] = tuple(float(v) for v in target.probs)
            counts = largest_remainder_counts(target.probs, n)
        compositions[t] = tuple(int(c) for c in counts)

    bases = np.array([np.repeat(np.arange(nx), c) for c in compositions.values()])
    rng = np.random.default_rng(seed)  # one permutation per source sequence, in order
    perms = np.array([rng.permutation(n) for _ in range(len(a_seqs))])
    codewords = np.take_along_axis(bases[type_idx], perms, axis=1)
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


def _pair_tables(s1: np.ndarray, matrix: np.ndarray, entropy: str | None):
    """log2 of the product law ``matrix``^n for every pair of an ``s1`` row and
    a sequence over the columns of ``matrix`` and, when ``entropy`` is "cond"
    or "mi", the pair's empirical H(1|2) or I(1;2) in bits. Built in blocks of
    ``s1`` rows, so no letter-pair count table covers every pair at once."""
    (k1, k2), n = matrix.shape, s1.shape[1]
    s2 = _all_sequences(k2, n)
    with np.errstate(divide="ignore"):
        logm = np.log2(matrix).reshape(-1)
    rows = max(1, _SWEEP_BLOCK_CELLS // (len(s2) * max(n, k1 * k2)))
    logjoint = np.empty((len(s1), len(s2)))
    h = np.empty(logjoint.shape) if entropy else None
    for r0 in range(0, len(s1), rows):
        blk = slice(r0, r0 + rows)
        counts = _pair_type_counts(s1[blk], s2, k1, k2)
        with np.errstate(invalid="ignore"):  # 0 * -inf in the masked branch
            logjoint[blk] = np.where(counts > 0, counts * logm, 0.0).sum(axis=2)
        if entropy:
            t = counts / n
            marg = t.reshape(-1, len(s2), k1, k2)
            h12, h2 = entropy_bits(t, axis=2), entropy_bits(marg.sum(axis=2), axis=2)
            h1 = entropy_bits(marg.sum(axis=3), axis=2) if entropy == "mi" else None
            h[blk] = h12 - h2 if h1 is None else h1 + h2 - h12
    return logjoint, h


def _codeword_tables(codebooks, w: ConditionalDistribution, mmi: bool):
    """(log2 W^n(y|x), I(x; y) for MMI or None) over the distinct codewords x
    of ``codebooks``, and each codebook's row indices into them."""
    words = np.concatenate([cb.codewords for cb in codebooks])
    distinct, inverse = np.unique(words, axis=0, return_inverse=True)
    tables = _pair_tables(distinct, w.matrix, "mi" if mmi else None)
    return tables, inverse.reshape(len(codebooks), -1)


def _decoder_tables(codebook: Codebook, p: JointDistribution, w: ConditionalDistribution):
    """One codebook's (mi, cond_h, logjoint_ab, logjoint_xy), gathered from the shared tables."""
    logjoint_ab, cond_h = _pair_tables(_all_sequences(p.shape[0], codebook.n), p.matrix, "cond")
    (logjoint_xy, mi), (rows,) = _codeword_tables([codebook], w, True)
    return mi[rows], cond_h, logjoint_ab, logjoint_xy[rows]


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
    tie = np.add.reduce(out, axis=0, dtype=np.int32) > 1
    np.logical_not(out, out=out)
    out |= tie
    return out


# MMI scores mi - cond_h, MAP logjoint_xy + logjoint_ab; (op, tie tolerance)
_SCORES = {"mmi": (np.subtract, _TIE_TOL), "map": (np.add, 1e-10)}


def _sweep(decoder: str, n: int, x_tab, ab_tab, wxy, pab) -> SimulationResult:
    """One codebook's exact result, walking the side sequences in blocks of
    about ``_SWEEP_BLOCK_CELLS`` (source, side, output) cells, at least one
    side sequence each, so the score and mask buffers never hold every state."""
    op, tol = _SCORES[decoder]
    (na_n, nb_n), ny_n = ab_tab.shape, x_tab.shape[1]
    rows = min(nb_n, max(1, _SWEEP_BLOCK_CELLS // (na_n * ny_n)))
    scores = np.empty((na_n, rows, ny_n))
    err = np.empty(scores.shape, dtype=bool)
    pe = 0.0
    for b0 in range(0, nb_n, rows):
        blk = slice(b0, min(b0 + rows, nb_n))
        s, e = scores[:, : blk.stop - b0], err[:, : blk.stop - b0]
        op(x_tab[:, None, :], ab_tab[:, blk, None], out=s)
        # once masked, the score block holds the mask as floats for the matmul
        s[...] = _error_mask(s, tol, e)
        pe += float(np.vdot(pab[:, blk], s @ wxy[:, :, None]))
    pe = min(max(pe, 0.0), 1.0)
    return SimulationResult(n, decoder, pe, _empirical_exponent(pe, n), "exact")


def exact_error_probabilities(
    codebooks: list[Codebook],
    p: JointDistribution,
    w: ConditionalDistribution,
    decoders: tuple[str, ...] = ("mmi", "map"),
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[dict[str, SimulationResult]]:
    """Exact results of codebooks of one blocklength, a {decoder: result} dict each.

    The (source, side) tables are built once, the (codeword, output) tables
    once over the distinct codewords of all the codebooks if there are at most
    |A|^n (else per codebook). MMI builds entropy tables, MAP log-joints."""
    if any(d not in _SCORES for d in decoders):
        raise ValueError("decoder must be 'mmi' or 'map'")
    (na, nb), (nx, ny), ns = p.shape, w.shape, {cb.n for cb in codebooks}
    if len(ns) != 1 or any((cb.source_size, cb.input_size) != (na, nx) for cb in codebooks):
        raise ValueError("codebooks must share one blocklength and the laws' alphabets")
    (n,) = ns
    states = (na * nb * ny) ** n
    if states > state_budget:
        raise BudgetError(
            f"exact sweep needs {states} states, budget is {state_budget}; "
            "reduce the blocklength or raise the budget explicitly"
        )
    mmi = "mmi" in decoders
    logjoint_ab, cond_h = _pair_tables(_all_sequences(na, n), p.matrix, "cond" if mmi else None)
    pab, results = np.exp2(logjoint_ab), []
    words = np.unique(np.concatenate([cb.codewords for cb in codebooks]), axis=0)
    for run in [codebooks] if len(words) <= na**n else [[cb] for cb in codebooks]:
        (logjoint_xy, mi), rows = _codeword_tables(run, w, mmi)
        wxy, tabs = np.exp2(logjoint_xy), {"mmi": (mi, cond_h), "map": (logjoint_xy, logjoint_ab)}
        for r in rows:
            results.append(
                {d: _sweep(d, n, tabs[d][0][r], tabs[d][1], wxy[r], pab) for d in decoders}
            )
    return results


def exact_error_probability(
    codebook: Codebook,
    p: JointDistribution,
    w: ConditionalDistribution,
    decoder: str = "mmi",
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> SimulationResult:
    """Evaluate the exact error probability by enumerating every (source, side,
    output) triple and weighting decode failures (see exact_error_probabilities)."""
    return exact_error_probabilities([codebook], p, w, (decoder,), state_budget)[0][decoder]


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

    The decoder tables count the letter pairs of every (source, side) and
    (codeword, output) sequence pair, |A|^n * max(|B|^n * |A||B|, |Y|^n *
    |X||Y|) counts, which must fit ``DEFAULT_STATE_BUDGET``; the counts are
    taken and the samples scored in blocks."""
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

    mmi = decoder == "mmi"
    logjoint_ab, cond_h = _pair_tables(_all_sequences(na, n), p.matrix, "cond" if mmi else None)
    (logjoint_xy, mi), (rows,) = _codeword_tables([codebook], w, mmi)
    x_tab, ab_tab = (mi[rows], cond_h) if mmi else (logjoint_xy[rows], logjoint_ab)
    op, tol = _SCORES[decoder]
    cols = max(1, _SWEEP_BLOCK_CELLS // na**n)
    errors = 0
    for s0 in range(0, samples, cols):
        j = slice(s0, s0 + cols)
        err = _error_mask(op(x_tab[:, y_idx[j]], ab_tab[:, b_idx[j]]), tol)
        errors += int(np.count_nonzero(err[a_idx[j], np.arange(err.shape[1])]))
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
