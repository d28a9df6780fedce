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
from .joint_bounds import NestedEvaluator
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
    """The one-seed case of :func:`build_codebooks`."""
    return build_codebooks(n, p, w, rule, (seed,), n_cap)[0]


def build_codebooks(
    n: int,
    p: JointDistribution,
    w: ConditionalDistribution,
    rule: str = "uniform",
    seeds: tuple[int, ...] | range = (0,),
    n_cap: int = DEFAULT_N_CAP,
) -> list[Codebook]:
    """Draw one codeword per source sequence, uniformly within a type class,
    once per seed.

    rule='uniform' uses the balanced input composition for every source type;
    rule='optimized' rounds E_0*'s law at each source type's best rho, which
    maximizes the nested lower-bound payoff (`best_input_for_marginal`'s law), to
    integer counts by largest remainders, keeping the real-valued target in
    the metadata. The compositions depend only on (p, W, n, rule): they are
    solved once, over one nested evaluator, and every seed draws from them.
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
    ev = NestedEvaluator(p, w, rate_step=0.01) if rule == "optimized" else None
    for t in map(tuple, a_types[first].tolist()):
        target = Distribution.uniform(nx)  # rounds to the balanced composition
        if rule == "optimized":
            q_a = Distribution(np.array(t, dtype=float) / n)
            target = Distribution(ev.best_input(q_a.probs))
            targets[t] = tuple(float(v) for v in target.probs)
        compositions[t] = tuple(int(c) for c in largest_remainder_counts(target.probs, n))

    bases = np.array([np.repeat(np.arange(nx), c) for c in compositions.values()])[type_idx]
    codebooks = []
    for seed in seeds:
        rng = np.random.default_rng(seed)  # one permutation per source sequence, in order
        perms = np.array([rng.permutation(n) for _ in range(len(a_seqs))])
        codewords = np.take_along_axis(bases, perms, axis=1)
        codewords.flags.writeable = False
        codebooks.append(
            Codebook(
                n=n,
                source_size=na,
                input_size=nx,
                rule=rule,
                seed=seed,
                codewords=codewords,
                compositions=dict(compositions),
                composition_targets=dict(targets),
            )
        )
    return codebooks


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
    """(len(s1), len(s2), k1*k2) joint-type counts for every sequence pair, in
    the smallest unsigned dtype that holds n, one letter position at a time."""
    counts = np.zeros((len(s1), len(s2), k1 * k2), dtype=np.min_scalar_type(s1.shape[1]))
    for i in range(s1.shape[1]):
        counts += (s1[:, None, i, None] * k2 + s2[None, :, i, None]) == np.arange(k1 * k2)
    return counts


def _pair_tables(s1: np.ndarray, matrix: np.ndarray, entropy: str | None):
    """log2 of the product law ``matrix``^n for every pair of an ``s1`` row and
    a sequence over the columns of ``matrix`` and, when ``entropy`` is "cond"
    or "mi", the pair's empirical H(1|2) or I(1;2) in bits. Built in blocks of
    ``s1`` rows whose float temporaries, one float per pair and letter pair,
    take ``_SWEEP_BLOCK_CELLS`` bytes, so no table of counts covers every pair."""
    (k1, k2), n = matrix.shape, s1.shape[1]
    s2 = _all_sequences(k2, n)
    with np.errstate(divide="ignore"):
        logm = np.log2(matrix).reshape(-1)
    rows = max(1, _SWEEP_BLOCK_CELLS // (8 * len(s2) * k1 * k2))
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


def _near(scores: np.ndarray, tol: float, out: np.ndarray | None = None):
    """The candidates along axis 0 that score within ``tol`` of the top
    (optionally into ``out``), and the points where more than one is near (all
    of them when every score is -inf): ties."""
    top = scores.max(axis=0)
    top -= tol
    near = np.greater_equal(scores, top, out=out)
    count = np.min_scalar_type(len(scores))  # never wraps, all candidates may tie
    return near, np.add.reduce(near.view(np.uint8), axis=0, dtype=count) > 1


def _failures(near: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """Decode failures, in place of ``near``: a tie is an error, and otherwise
    the one near candidate is the argmax, the only one decoded correctly."""
    np.logical_not(near, out=near)
    near |= tie
    return near


def _error_mask(scores: np.ndarray, tol: float, out: np.ndarray | None = None) -> np.ndarray:
    """Decode failures of every candidate along axis 0 (optionally into ``out``)."""
    return _failures(*_near(scores, tol, out))


# MMI scores mi - cond_h, MAP logjoint_xy + logjoint_ab; (op, tie tolerance,
# whether only candidates of finite log-mass compete)
_SCORES = {"mmi": (np.subtract, _TIE_TOL, False), "map": (np.add, 1e-10, True)}


def _view(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading cells of a scratch buffer as a C-contiguous array."""
    return flat[: math.prod(shape)].reshape(shape)


def _index(idx: np.ndarray, total: int):
    """Sorted distinct row indices ``idx``, as a slice when they take all
    ``total`` rows: a slice indexes by view instead of by copy."""
    return slice(None) if len(idx) == total else idx


def _sweep_plan(logjoint_ab: np.ndarray, rows: int) -> list:
    """The side sequences in blocks of ``rows``, each (block, sources, count,
    sides): the source rows with mass at some side of the block and their
    count, and for each side b with mass, (j, b, its rows with mass, their
    count, their positions in ``sources``). Blocks without mass add exactly 0
    and are left out."""
    mass = logjoint_ab > -np.inf
    (na_n, nb_n), plan = mass.shape, []
    for b0 in range(0, nb_n, rows):
        blk = slice(b0, min(b0 + rows, nb_n))
        m = mass[:, blk]
        src = np.flatnonzero(m.any(axis=1))
        sides = []
        for j in np.flatnonzero(m.any(axis=0)):
            pos = np.flatnonzero(m[src, j])
            own = src[pos]
            sides.append((j, b0 + j, _index(own, na_n), len(own), _index(pos, len(src))))
        if sides:
            plan.append((blk, _index(src, na_n), len(src), sides))
    return plan


def _word_table(rows: np.ndarray, mi: np.ndarray, cond_h: np.ndarray):
    """MMI's scoring rows of one codebook, whose source sequence a has the
    codeword row ``rows[a]`` of ``mi``: one row per distinct codeword.

    Candidates sharing a codeword differ only in their penalty H(a|b), and
    the rounded score mi - h never rises with h, so at each side b the top
    over candidates is, bit for bit, the top over the words scored with their
    least penalty. A penalty more than delta = _TIE_TOL + 8 eps (max|mi| +
    max|h|) above its word's least is never near the top; a closer one off
    the least gets a row of its own. Returns the words' mi rows, the least
    penalty per (side, word), {b: (the words, the penalties)} of the rows of
    their own at the sides that have any, and per (candidate, side) the
    row whose near flag decides it: its word's if it alone is on the least,
    its own, or -1 when it never decodes (one of several on the least, or
    more than delta off it). Built one word's candidates at a time."""
    words, word = np.unique(rows, return_inverse=True)
    x_tab, rep = mi[words], np.full(cond_h.shape, -1, dtype=np.int32)
    least, close = np.empty((cond_h.shape[1], len(words))), np.empty(cond_h.shape, dtype=bool)
    delta = _TIE_TOL + 8 * np.finfo(float).eps * (np.abs(x_tab).max() + np.abs(cond_h).max())
    for k, group in enumerate(np.split(np.argsort(word), np.cumsum(np.bincount(word))[:-1])):
        gap = cond_h[group]  # the candidates of word k
        least[:, k] = gap.min(axis=0)
        gap -= least[:, k]  # exactly 0 where h is its word's least
        on = gap == 0
        rep[group] = np.where(on & (np.count_nonzero(on, axis=0) == 1), k, -1)
        close[group] = (gap > 0) & (gap <= delta)
    sides, cands = np.nonzero(close.T)  # by side, then candidate
    rep[cands, sides] = len(words) + np.arange(len(sides)) - np.searchsorted(sides, sides)
    own_rows = {int(b := sides[g[0]]): (word[cands[g]], cond_h[cands[g], b])
                for g in np.split(np.arange(len(sides)), np.flatnonzero(np.diff(sides)) + 1) if len(g)}
    return x_tab, least, own_rows, rep


def _sweep(decoder: str, n: int, tables, r, wxy, pab, plan, scratch) -> SimulationResult:
    """One codebook's exact result, walking the side sequences in the blocks
    of ``plan``, so the buffers of ``scratch`` never hold every state.

    ``tables`` are MAP's (log2 W^n(y|x), log2 P^n(a, b)), or MMI's
    :func:`_word_table`; source sequence a reads row ``r[a]`` of the shared
    codeword tables (``wxy`` = W^n(y|x) and MAP's), never copied whole. MAP
    scores each side b only over its candidates of finite log-mass (the
    others score -inf and never come near a finite top); MMI, blind to the
    distribution, scores the codewords of every candidate and reads each
    candidate's near flag off its row. Either builds the error mask and its
    product with W^n only on the rows with mass. The rows' products are
    scattered into zeros before the block's dot with P^n(a, b), so the sum
    takes the same terms in the same order as over every cell: the dropped
    ones are exact zeros."""
    op, tol, finite_only = _SCORES[decoder]
    na_n, ny_n = len(r), wxy.shape[1]
    score, near_buf, err_buf, mask_buf, prod_buf, dots_buf = scratch
    if finite_only:
        x_tab, ab_tab = tables
    else:
        x_tab, least, own_rows, rep = tables
        words = _view(score, len(x_tab), ny_n)
        near_rows = near_buf.reshape(na_n + 1, ny_n)
        near_rows[-1] = False  # the row of index -1: never decoded
    pe = 0.0
    for blk, sources, n_src, sides in plan:
        k = blk.stop - blk.start
        mask = _view(mask_buf, n_src, k, ny_n)
        if k > 1:  # a pair without mass meets P^n = 0 in the dot: keep it finite
            mask.fill(0.0)
        for j, b, own, n_own, pos in sides:
            if finite_only:  # each candidate of finite mass is a word of its own
                s = x_tab.take(r[own], axis=0, out=_view(score, n_own, ny_n))
                mask[pos, j] = _error_mask(op(s, ab_tab[own, b, None], out=s), tol, _view(near_buf, *s.shape))
                continue
            s = op(x_tab, least[b, :, None], out=words)
            if b in own_rows:  # rows of their own follow the words'
                own_words, pen = own_rows[b]
                s = _view(score, len(x_tab) + len(pen), ny_n)
                rows = x_tab.take(own_words, axis=0, out=s[len(x_tab) :])
                op(rows, pen[:, None], out=rows)
            tie = _near(s, tol, near_rows[: len(s)])[1]
            out = _view(err_buf, n_own, ny_n)  # each candidate takes its row's flag
            err = near_rows.take(rep[own, b], axis=0, out=out, mode="wrap")
            mask[pos, j] = _failures(err, tie)
        prod = np.matmul(mask, wxy[r[sources], :, None], out=_view(prod_buf, n_src, k, 1))[:, :, 0]
        dots = prod
        if n_src < na_n:
            dots = _view(dots_buf, na_n, k)
            dots.fill(0.0)
            dots[sources] = prod
        pe += float(np.vdot(pab[:, blk], dots))
    pe = min(max(pe, 0.0), 1.0)
    return SimulationResult(n, decoder, pe, _empirical_exponent(pe, n), "exact")


def _check_state_count(n: int, p: JointDistribution, w: ConditionalDistribution, state_budget: int) -> None:
    """Refuse an exact sweep over more (source, side, output) states than
    ``state_budget``, before any codebook or table is built."""
    states = (p.shape[0] * p.shape[1] * w.output_size) ** n
    if states > state_budget:
        raise BudgetError(
            f"exact sweep needs {states} states, budget is {state_budget}; "
            "reduce the blocklength or raise the budget explicitly"
        )


def exact_error_probabilities(
    codebooks: list[Codebook],
    p: JointDistribution,
    w: ConditionalDistribution,
    decoders: tuple[str, ...] = ("mmi", "map"),
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> list[dict[str, SimulationResult]]:
    """Exact results of codebooks of one blocklength, a {decoder: result} dict each.

    The (source, side) tables and the sweep's blocks are built once, the
    (codeword, output) tables once over the distinct codewords of all the
    codebooks if there are at most |A|^n (else per codebook), and MMI's word
    table once per codebook. MMI builds entropy tables, MAP log-joints. Every
    sweep reuses one set of score, mask and product buffers."""
    if any(d not in _SCORES for d in decoders):
        raise ValueError("decoder must be 'mmi' or 'map'")
    (na, nb), (nx, ny), ns = p.shape, w.shape, {cb.n for cb in codebooks}
    if len(ns) != 1 or any((cb.source_size, cb.input_size) != (na, nx) for cb in codebooks):
        raise ValueError("codebooks must share one blocklength and the laws' alphabets")
    (n,) = ns
    _check_state_count(n, p, w, state_budget)
    mmi = "mmi" in decoders
    logjoint_ab, cond_h = _pair_tables(_all_sequences(na, n), p.matrix, "cond" if mmi else None)
    pab, results = np.exp2(logjoint_ab), []
    rows = min(nb**n, max(1, _SWEEP_BLOCK_CELLS // (na * ny) ** n))
    plan = _sweep_plan(logjoint_ab, rows)
    cells = (na * ny) ** n
    scratch = (np.empty(cells), np.empty(cells + ny**n, dtype=bool), np.empty(cells, dtype=bool),
               np.empty(cells * rows), np.empty(na**n * rows), np.empty(na**n * rows))
    # return_inverse keeps numpy's unique from importing numpy.ma mid-pass
    words = np.unique(np.vstack([cb.codewords for cb in codebooks]), axis=0, return_inverse=True)[0]
    for run in [codebooks] if len(words) <= na**n else [[cb] for cb in codebooks]:
        (logjoint_xy, mi), rows_of = _codeword_tables(run, w, mmi)
        wxy = np.exp2(logjoint_xy)
        for r in rows_of:
            res = {}
            for d in decoders:
                tables = (logjoint_xy, logjoint_ab) if d == "map" else _word_table(r, mi, cond_h)
                res[d] = _sweep(d, n, tables, r, wxy, pab, plan, scratch)
            results.append(res)
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


def _choice_bytes(rng: np.random.Generator, p: np.ndarray, shape: tuple, rows: int) -> np.ndarray:
    """``rng.choice(p.size, shape, p=p.ravel())`` as bytes, by its own steps but
    ``rows`` rows of draws at a time: the same letters and the same next draw."""
    cdf, out = (c := p.cumsum()) / c[-1], np.empty(shape, dtype=np.uint8)
    for r0 in range(0, len(out), rows):
        out[r0 : r0 + rows] = cdf.searchsorted(rng.random(out[r0 : r0 + rows].shape), side="right")
    return out


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
    |X||Y|) counts, which must fit ``DEFAULT_STATE_BUDGET``; the samples keep
    their n (source, side) letters at a byte each, which must fit the bytes
    of that many float64 entries, 8 ``DEFAULT_STATE_BUDGET``. Both are checked
    before anything is drawn. The samples are drawn a block at a time with ``Generator.choice``'s
    steps; then each block draws its outputs and scores each distinct (side,
    output) pair it holds once, reading its codebook's rows of the codeword
    table for the outputs it holds only."""
    if decoder not in ("mmi", "map"):
        raise ValueError("decoder must be 'mmi' or 'map'")
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise TypeError(f"samples must be an integer, got {samples!r}")
    if (samples := int(samples)) < 1:
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
    if samples * n > 8 * DEFAULT_STATE_BUDGET:
        raise BudgetError(
            f"{samples} samples of {n} letter pairs take {samples * n} bytes, budget is "
            f"{8 * DEFAULT_STATE_BUDGET} bytes; reduce the samples"
        )
    rng, cols = np.random.default_rng(seed), max(1, _SWEEP_BLOCK_CELLS // na**n)
    pairs, cum = _choice_bytes(rng, p.matrix, (samples, n), cols), np.cumsum(w.matrix, axis=1)

    mmi = decoder == "mmi"
    logjoint_ab, cond_h = _pair_tables(_all_sequences(na, n), p.matrix, "cond" if mmi else None)
    (logjoint_xy, mi), (rows,) = _codeword_tables([codebook], w, mmi)
    x_tab, ab_tab = (mi, cond_h) if mmi else (logjoint_xy, logjoint_ab)
    op, tol, _ = _SCORES[decoder]
    errors = 0
    for s0 in range(0, samples, cols):
        a, b = np.divmod(pairs[s0 : s0 + cols], nb)
        a_idx = _lex_index(a, na)
        x = codebook.codewords[a_idx]
        u = rng.random(x.shape)  # y is the number of the row's cumulative sums below u
        y = sum((u > cum[:, k][x] for k in range(ny - 1)), np.zeros_like(x))
        seen, obs = np.unique(_lex_index(b, nb) * ny**n + _lex_index(y, ny), return_inverse=True)
        err = _error_mask(op(x_tab[np.ix_(rows, seen % ny**n)], ab_tab[:, seen // ny**n]), tol)
        errors += int(np.count_nonzero(err[a_idx, obs]))
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
    return all(
        _sequence_type(x, codebook.input_size) == codebook.compositions[_sequence_type(a, na)]
        for a, x in zip(_all_sequences(na, codebook.n), codebook.codewords)
    )
