"""Tests for the exact small-blocklength simulator.

The n = 1 error probabilities are verified against by-hand sums over the
full (source, side, output) space; they are exact rational values.
"""
import dataclasses
import hashlib
import math
import os
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siexp import exact_sim
from siexp.channel_exponents import bsc
from siexp.errors import BudgetError
from siexp.joint_bounds import NestedEvaluator
from siexp.exact_sim import (
    Codebook,
    build_codebook,
    build_codebooks,
    codeword_compositions_ok,
    exact_error_probabilities,
    exact_error_probability,
    map_decode,
    mmi_si_decode,
    monte_carlo_error_probability,
)
from siexp.probkit import ConditionalDistribution, JointDistribution
from siexp.scenario import Scenario, SimSpec, format_number, simulate_table, worked_example

WORKED_JOINT = ((0.50, 0.00), (0.05, 0.45))
# |A| = 3 with a zero entry, over an asymmetric binary channel
TERNARY_JOINT = ((0.30, 0.00), (0.10, 0.20), (0.15, 0.25))
ASYM_CHANNEL = ((0.9, 0.1), (0.2, 0.8))
# four inputs and three outputs, for the binary worked source
WIDE_CHANNEL = ((0.7, 0.1, 0.2), (0.1, 0.7, 0.2), (0.2, 0.2, 0.6), (0.3, 0.3, 0.4))
# |A| = |B| = |X| = |Y| = 4, both with zero entries
QUAD_JOINT = (
    (0.30, 0.05, 0.00, 0.02),
    (0.05, 0.20, 0.03, 0.00),
    (0.00, 0.04, 0.10, 0.06),
    (0.03, 0.02, 0.00, 0.10),
)
QUAD_CHANNEL = (
    (0.70, 0.10, 0.10, 0.10),
    (0.10, 0.70, 0.10, 0.10),
    (0.05, 0.05, 0.80, 0.10),
    (0.20, 0.00, 0.10, 0.70),
)


def worked_pair():
    return JointDistribution(np.array(WORKED_JOINT)), bsc(0.025)


def ternary_pair():
    return JointDistribution(np.array(TERNARY_JOINT)), ConditionalDistribution(
        np.array(ASYM_CHANNEL)
    )


def wide_pair():
    return JointDistribution(np.array(WORKED_JOINT)), ConditionalDistribution(
        np.array(WIDE_CHANNEL)
    )


def quad_pair():
    return JointDistribution(np.array(QUAD_JOINT)), ConditionalDistribution(
        np.array(QUAD_CHANNEL)
    )


# ---------------------------------------------------------------------------
# codebook construction


def test_uniform_codebook_structure_and_determinism():
    p, w = worked_pair()
    cb = build_codebook(3, p, w, "uniform", seed=0)
    assert cb.codewords.shape == (8, 3)
    assert cb.rule == "uniform" and cb.seed == 0
    # the balanced composition (2, 1) applies to every source type
    assert set(cb.compositions.values()) == {(2, 1)}
    assert codeword_compositions_ok(cb)
    again = build_codebook(3, p, w, "uniform", seed=0)
    np.testing.assert_array_equal(cb.codewords, again.codewords)
    other = build_codebook(3, p, w, "uniform", seed=1)
    assert not np.array_equal(cb.codewords, other.codewords)


def test_optimized_codebook_structure():
    p, w = worked_pair()
    cb = build_codebook(4, p, w, "optimized", seed=0)
    assert codeword_compositions_ok(cb)
    assert set(cb.compositions) == set(cb.composition_targets)
    for t, target in cb.composition_targets.items():
        assert sum(target) == pytest.approx(1.0, abs=1e-9)
        assert sum(cb.compositions[t]) == 4


# the optimized ternary compositions are all balanced, so the optimized ternary
# case repeats the uniform one; at n = 3 the wide pair's 4 types take 3
@pytest.mark.parametrize(
    "rule,pair", [("uniform", ternary_pair), ("optimized", ternary_pair), ("optimized", wide_pair)],
    ids=["uniform", "optimized", "optimized-wide"],
)
def test_batch_codebooks_equal_one_seed_builds(rule, pair):
    p, w = pair()
    if pair is wide_pair:
        assert len(set(build_codebook(3, p, w, rule).compositions.values())) == 3
    seeds = (0, 3, 7)
    batch = build_codebooks(3, p, w, rule, seeds)
    for seed, cb in zip(seeds, batch):
        one = build_codebook(3, p, w, rule, seed)
        assert cb.seed == seed
        assert cb.codewords.tobytes() == one.codewords.tobytes()
        assert cb.compositions == one.compositions
        assert cb.composition_targets == one.composition_targets
    # each codebook owns its metadata
    assert batch[0].compositions is not batch[1].compositions


def test_codebook_validation():
    p, w = worked_pair()
    with pytest.raises(ValueError):
        build_codebook(0, p, w)
    with pytest.raises(BudgetError):
        build_codebook(9, p, w)
    with pytest.raises(ValueError):
        build_codebook(2, p, w, rule="nope")
    wide = JointDistribution(np.full((5, 2), 0.1))
    with pytest.raises(BudgetError):
        build_codebook(2, wide, w)


# ---------------------------------------------------------------------------
# hand-computed n = 1 error probabilities


def test_n1_uniform_rule_hand_values():
    p, w = worked_pair()
    cb = build_codebook(1, p, w, "uniform", seed=0)
    # the rounded uniform composition puts both codewords on input 0, so the
    # channel output is uninformative: every MMI score ties (error), while
    # MAP still reads the side information and errs only on (a=1, b=0)
    np.testing.assert_array_equal(cb.codewords, [[0], [0]])
    mmi = exact_error_probability(cb, p, w, "mmi")
    # the sweep reconstructs the weights via exp2(log2(.)), hence 1 ulp slack
    assert mmi.error_probability == pytest.approx(1.0, abs=1e-12)
    assert abs(mmi.empirical_exponent) <= 1e-12
    mp = exact_error_probability(cb, p, w, "map")
    assert mp.error_probability == pytest.approx(0.05, abs=1e-12)
    assert mp.empirical_exponent == pytest.approx(-math.log2(0.05), abs=1e-12)


def test_n1_identity_codebook_hand_values():
    p, w = worked_pair()
    cb = Codebook(
        n=1,
        source_size=2,
        input_size=2,
        rule="uniform",
        seed=0,
        codewords=np.array([[0], [1]]),
        compositions={(1, 0): (1, 0), (0, 1): (0, 1)},
    )
    assert codeword_compositions_ok(cb)
    # by-hand MAP sum: 0.5 * 0.025 (a=0, b=0, y flipped)
    #                + 0.05 * 0.025 (a=1, b=0, y flipped)  = 0.01375
    mp = exact_error_probability(cb, p, w, "map")
    assert mp.error_probability == pytest.approx(0.01375, abs=1e-12)
    # single-symbol empirical mutual information is always zero, so the MMI
    # decoder ties on every observation at n = 1
    mmi = exact_error_probability(cb, p, w, "mmi")
    assert mmi.error_probability == pytest.approx(1.0, abs=1e-12)


def test_n2_uniform_rule_mmi_always_ties():
    # with two input letters and the balanced (1, 1) composition, both
    # codeword patterns give the same empirical mutual information and the
    # constant source sequences tie the side-information term, so the
    # pessimistic convention scores every observation as an error
    p, w = worked_pair()
    cb = build_codebook(2, p, w, "uniform", seed=0)
    assert exact_error_probability(cb, p, w, "mmi").error_probability == pytest.approx(
        1.0, abs=1e-12
    )
    assert exact_error_probability(cb, p, w, "map").error_probability < 0.1


# ---------------------------------------------------------------------------
# the vectorized sweep equals the reference decoders


def _brute_force_pe(cb, p, w, decoder):
    import itertools

    n = cb.n
    na, nb = p.shape
    ny = w.output_size
    total = 0.0
    for a_seq in itertools.product(range(na), repeat=n):
        for b_seq in itertools.product(range(nb), repeat=n):
            p_ab = float(np.prod([p.matrix[a, b] for a, b in zip(a_seq, b_seq)]))
            if p_ab == 0.0:
                continue
            x_seq = cb.codeword_for(a_seq)
            for y_seq in itertools.product(range(ny), repeat=n):
                w_y = float(np.prod([w.matrix[x, y] for x, y in zip(x_seq, y_seq)]))
                if w_y == 0.0:
                    continue
                if decoder == "mmi":
                    got = mmi_si_decode(cb, p, np.array(b_seq), np.array(y_seq))
                else:
                    got = map_decode(cb, p, w, np.array(b_seq), np.array(y_seq))
                if got != tuple(a_seq):
                    total += p_ab * w_y
    return total


@pytest.mark.parametrize("decoder", ["mmi", "map"])
def test_reference_decoders_match_exact_sweep(decoder):
    p, w = worked_pair()
    cb = build_codebook(2, p, w, "uniform", seed=3)
    brute = _brute_force_pe(cb, p, w, decoder)
    fast = exact_error_probability(cb, p, w, decoder).error_probability
    assert fast == pytest.approx(brute, abs=1e-12)


# at n = 2 every MMI score ties (Pe = 1); n = 3 gives MMI untied decodes. The
# wide pair's optimized codebooks at n = 3 use three compositions, one of them
# on the third input
@pytest.mark.parametrize(
    "n,rule,pair",
    [
        pytest.param(2, "uniform", ternary_pair, id="2-uniform"),
        pytest.param(2, "optimized", ternary_pair, id="2-optimized"),
        pytest.param(3, "optimized", ternary_pair, id="3-optimized"),
        pytest.param(3, "optimized", wide_pair, id="3-optimized-wide"),
    ],
)
@pytest.mark.parametrize("decoder", ["mmi", "map"])
def test_reference_decoders_match_exact_sweep_ternary_source(decoder, n, rule, pair):
    p, w = pair()
    cb = build_codebook(n, p, w, rule, seed=1)
    brute = _brute_force_pe(cb, p, w, decoder)
    fast = exact_error_probability(cb, p, w, decoder).error_probability
    assert fast == pytest.approx(brute, abs=1e-12)


def _decoder_tables(cb, p, w):
    """One codebook's (mi, cond_h, logjoint_ab, logjoint_xy), built for it alone."""
    a_seqs = exact_sim._all_sequences(p.shape[0], cb.n)
    logjoint_ab, cond_h = exact_sim._pair_tables(a_seqs, p.matrix, "cond")
    (logjoint_xy, mi), (rows,) = exact_sim._codeword_tables([cb], w, True)
    return mi[rows], cond_h, logjoint_ab, logjoint_xy[rows]


def _whole_table_oracle(cb, p, w, decoder):
    """The sweep over the whole (source, side, output) table that the blocked
    one replaced: an argmax winner plus a tolerance-grouped tie mask."""
    mi, cond_h, logjoint_ab, logjoint_xy = _decoder_tables(cb, p, w)
    if decoder == "mmi":
        scores = mi[:, None, :] - cond_h[:, :, None]
        tol = 1e-12
    else:
        scores = logjoint_ab[:, :, None] + logjoint_xy[:, None, :]
        tol = 1e-10
    top = scores.max(axis=0)
    tie = (scores >= top[None] - tol).sum(axis=0) > 1
    winner = scores.argmax(axis=0)
    err = (winner != np.arange(scores.shape[0])[:, None, None]) | tie[None, :, :]
    pab, wxy = np.exp2(logjoint_ab), np.exp2(logjoint_xy)
    pe = float(np.einsum("ab,ay,aby->", pab, wxy, err.astype(float)))
    return min(max(pe, 0.0), 1.0)


@pytest.mark.parametrize("block", ["default", "one_row", "ragged"])
@pytest.mark.parametrize("rule", ["uniform", "optimized"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_blocked_sweep_matches_whole_table_oracle(n, rule, block, monkeypatch):
    p, w = worked_pair()
    # one block row is |A|^n * |Y|^n cells; three rows never divide |B|^n = 2^n
    row_cells = (p.shape[0] * w.output_size) ** n
    cells = {"default": exact_sim._SWEEP_BLOCK_CELLS, "one_row": 1, "ragged": 3 * row_cells}
    monkeypatch.setattr(exact_sim, "_SWEEP_BLOCK_CELLS", cells[block])
    for cb in build_codebooks(n, p, w, rule, (0, 1, 2)):
        for decoder in ("mmi", "map"):
            blocked = exact_error_probability(cb, p, w, decoder).error_probability
            assert abs(blocked - _whole_table_oracle(cb, p, w, decoder)) <= 1e-13


def test_exact_sweep_memory_is_bounded_by_blocks():
    # the whole-table sweep peaked at 292 MiB here
    p, w = worked_pair()
    cb = build_codebook(8, p, w, "uniform", seed=0)
    tracemalloc.start()
    try:
        exact_error_probability(cb, p, w, "mmi")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2**20


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_map_sweep_memory_is_bounded_by_blocks():
    p, w = worked_pair()
    cb = build_codebook(8, p, w, "uniform", seed=0)
    assert _traced_peak(lambda: exact_error_probability(cb, p, w, "map")) <= 48 * 2**20


@pytest.mark.parametrize("samples,mib", [(100_000, 3), (1_000_000, 8)])
@pytest.mark.parametrize("decoder", ["mmi", "map"])
def test_monte_carlo_sample_memory_is_bounded_by_blocks(decoder, samples, mib):
    # deriving every sample's sequences at once peaked at about 24 MiB at 10^5
    # samples; drawing every sample at once, as int64 letters and float64
    # uniforms, at 6.9 MiB there and 61.9 MiB at 10^6. Streamed, a sample
    # keeps its n = 4 letters at a byte each: 1.2 and 4.6 MiB
    p, w = worked_pair()
    cb = build_codebook(4, p, w, "uniform", seed=0)
    peak = _traced_peak(lambda: monte_carlo_error_probability(cb, p, w, decoder, samples, 11))
    assert peak <= mib * 2**20


def test_simulate_table_memory_is_bounded():
    # n = 8 over 8 seeds: 5.8 MiB with a copy of W^n and of log2 W^n per
    # codebook and MMI's word table gathered over every (source, side) cell;
    # 4.6 MiB reading the shared tables through each codebook's rows
    peak = _traced_peak(lambda: simulate_table(worked_example(), n=8, decoders=("mmi", "map"), seed_count=8))
    assert peak <= 5.2 * 2**20


# ---------------------------------------------------------------------------
# the pruned sweep keeps the floats of the sweep over every cell


def _todays_sweep(decoder, x_tab, ab_tab, wxy, pab):
    """The sweep before candidate pruning: each block of side sequences
    scores, masks and multiplies every (source, side, output) cell."""
    op, tol = {"mmi": (np.subtract, 1e-12), "map": (np.add, 1e-10)}[decoder]
    (na_n, nb_n), ny_n = ab_tab.shape, x_tab.shape[1]
    rows = min(nb_n, max(1, exact_sim._SWEEP_BLOCK_CELLS // (na_n * ny_n)))
    scores = np.empty((na_n, rows, ny_n))
    err = np.empty(scores.shape, dtype=bool)
    pe = 0.0
    for b0 in range(0, nb_n, rows):
        blk = slice(b0, min(b0 + rows, nb_n))
        s, e = scores[:, : blk.stop - b0], err[:, : blk.stop - b0]
        op(x_tab[:, None, :], ab_tab[:, blk, None], out=s)
        top = s.max(axis=0)
        top -= tol
        np.greater_equal(s, top, out=e)
        tie = np.add.reduce(e, axis=0, dtype=np.int32) > 1
        np.logical_not(e, out=e)
        e |= tie
        s[...] = e
        pe += float(np.vdot(pab[:, blk], s @ wxy[:, :, None]))
    return min(max(pe, 0.0), 1.0)


def _todays_pe(cb, p, w, decoder):
    mi, cond_h, logjoint_ab, logjoint_xy = _decoder_tables(cb, p, w)
    x_tab, ab_tab = (mi, cond_h) if decoder == "mmi" else (logjoint_xy, logjoint_ab)
    return _todays_sweep(decoder, x_tab, ab_tab, np.exp2(logjoint_xy), np.exp2(logjoint_ab))


PRUNING_CASES = {
    # no zero: every (source, side) pair is kept
    "full-support": (((0.40, 0.10), (0.20, 0.30)), ((0.9, 0.1), (0.1, 0.9))),
    # side letter 1 has no mass: every candidate of a side sequence using it is -inf
    "zero-side-letter": (((0.50, 0.00, 0.10), (0.20, 0.00, 0.20)), ASYM_CHANNEL),
    "ternary": (TERNARY_JOINT, ASYM_CHANNEL),
    # -inf + -inf MAP cells, and outputs no codeword reaches
    "zero-channel": (WORKED_JOINT, ((0.0, 0.0, 1.0), (0.5, 0.0, 0.5))),
}


def _spy_scores(monkeypatch) -> dict:
    """Record the shape of every score table each decoder fills."""
    scored = {"mmi": [], "map": []}

    def spy(decoder, op):
        def scores(x, y, out):
            scored[decoder].append(out.shape)
            return op(x, y, out=out)

        return scores

    spies = {d: (spy(d, op), *rest) for d, (op, *rest) in exact_sim._SCORES.items()}
    monkeypatch.setattr(exact_sim, "_SCORES", spies)
    return scored


@pytest.mark.parametrize("block", ["default", "one_row", "ragged"])
@pytest.mark.parametrize("n", [3, 5, 6])
@pytest.mark.parametrize("case", list(PRUNING_CASES))
def test_pruned_sweep_equals_todays_sweep_bit_for_bit(case, n, block, monkeypatch):
    joint, channel = PRUNING_CASES[case]
    p, w = JointDistribution(np.array(joint)), ConditionalDistribution(np.array(channel))
    row_cells = (p.shape[0] * w.output_size) ** n
    cells = {"default": exact_sim._SWEEP_BLOCK_CELLS, "one_row": 1, "ragged": 3 * row_cells}
    monkeypatch.setattr(exact_sim, "_SWEEP_BLOCK_CELLS", cells[block])
    cbs = build_codebooks(n, p, w, "uniform", (0, 1))
    scored = _spy_scores(monkeypatch)
    results = exact_error_probabilities(cbs, p, w)
    for cb, res in zip(cbs, results):
        for decoder in ("mmi", "map"):
            assert res[decoder].error_probability == _todays_pe(cb, p, w, decoder)
    # at n = 6 conditional entropies of candidates sharing a codeword differ by
    # ulps, so MMI scores such candidates on rows of their own beyond the words
    a_seqs = exact_sim._all_sequences(p.shape[0], n)
    sides = np.count_nonzero((exact_sim._pair_tables(a_seqs, p.matrix, None)[0] > -np.inf).any(0))
    words = sum(len(np.unique(cb.codewords, axis=0)) for cb in cbs) * sides * w.output_size**n
    mmi = sum(math.prod(shape) for shape in scored["mmi"])
    assert mmi >= words and (mmi > words) == (n == 6)


def _close_candidates(cb, p, w) -> int:
    """The (side, candidate) pairs whose H(a|b) exceeds the least over the
    candidates of its codeword, but by at most MMI's delta."""
    a_seqs = exact_sim._all_sequences(p.shape[0], cb.n)
    cond_h = exact_sim._pair_tables(a_seqs, p.matrix, "cond")[1]
    (_, mi), (rows,) = exact_sim._codeword_tables([cb], w, True)
    delta = 1e-12 + 8 * np.finfo(float).eps * (np.abs(mi[rows]).max() + np.abs(cond_h).max())
    close = 0
    for r in np.unique(rows):
        gap = cond_h[rows == r] - cond_h[rows == r].min(axis=0)
        close += int(np.count_nonzero((gap > 0) & (gap <= delta)))
    return close


def test_map_scores_only_candidates_of_finite_mass(monkeypatch):
    p, w = worked_pair()
    cb = build_codebook(6, p, w, "uniform", seed=0)
    scored = _spy_scores(monkeypatch)
    (res,) = exact_error_probabilities([cb], p, w)
    cells = {d: sum(math.prod(shape) for shape in shapes) for d, shapes in scored.items()}
    # P(a=0, b=1) = 0, so a side sequence with k ones leaves 2^(6-k) candidates
    # of finite mass, 3^6 over all side sequences. MMI scores each distinct
    # codeword once per side sequence, and on rows of their own the candidates
    # whose penalty lies within ulps of their codeword's least
    words = len(np.unique(cb.codewords, axis=0))
    assert cells["map"] == 3**6 * 2**6
    assert cells["mmi"] == (words * 2**6 + _close_candidates(cb, p, w)) * 2**6
    assert cells["mmi"] < 4**6 * 2**6
    for decoder in ("mmi", "map"):
        assert res[decoder].error_probability == _todays_pe(cb, p, w, decoder)


# ---------------------------------------------------------------------------
# decoder ordering and Monte-Carlo cross-check


def test_map_never_worse_than_mmi():
    p, w = worked_pair()
    for n in (2, 3):
        for rule in ("uniform", "optimized"):
            for cb in build_codebooks(n, p, w, rule, range(5)):
                pe_map = exact_error_probability(cb, p, w, "map").error_probability
                pe_mmi = exact_error_probability(cb, p, w, "mmi").error_probability
                assert pe_map <= pe_mmi + 1e-12


@pytest.mark.parametrize("decoder", ["mmi", "map"])
def test_monte_carlo_agrees_with_exact(decoder):
    p, w = worked_pair()
    cb = build_codebook(2, p, w, "uniform", seed=0)
    exact = exact_error_probability(cb, p, w, decoder).error_probability
    mc = monte_carlo_error_probability(cb, p, w, decoder, samples=100_000, seed=5)
    assert mc.method == "monte_carlo" and mc.samples == 100_000
    assert abs(mc.error_probability - exact) <= 3.0 * mc.std_error + 1e-12


@pytest.mark.parametrize("decoder", ["mmi", "map"])
def test_monte_carlo_agrees_with_exact_ternary_source(decoder):
    p, w = ternary_pair()  # 12^3 = 1,728 states at n = 3
    cb = build_codebook(3, p, w, "uniform", seed=0)
    exact = exact_error_probability(cb, p, w, decoder).error_probability
    mc = monte_carlo_error_probability(cb, p, w, decoder, samples=100_000, seed=5)
    assert abs(mc.error_probability - exact) <= 3.0 * mc.std_error + 1e-12


@pytest.mark.parametrize("decoder", ["mmi", "map"])
def test_monte_carlo_count_does_not_depend_on_blocks(decoder, monkeypatch):
    p, w = ternary_pair()
    cb = build_codebook(3, p, w, "uniform", seed=0)
    whole = monte_carlo_error_probability(cb, p, w, decoder, samples=5_000, seed=2)
    # 27 source sequences per block column: 7 columns, the last block ragged
    monkeypatch.setattr(exact_sim, "_SWEEP_BLOCK_CELLS", 7 * 27)
    blocked = monte_carlo_error_probability(cb, p, w, decoder, samples=5_000, seed=2)
    assert blocked == whole


def _todays_monte_carlo_errors(cb, p, w, decoder, samples, seed):
    """The error count of the estimator that drew every sample first: all the
    (source, side) letters by ``rng.choice``, then all the output uniforms,
    and found each block's output letters by a (block, n, |Y|) gather-and-sum."""
    n, (na, nb), (nx, ny) = cb.n, p.shape, w.shape
    rng = np.random.default_rng(seed)
    pairs = rng.choice(na * nb, size=(samples, n), p=p.matrix.reshape(-1))
    u = rng.random((samples, n))
    cum = np.cumsum(w.matrix, axis=1)
    cum[:, -1] = 1.0
    mmi = decoder == "mmi"
    logjoint_ab, cond_h = exact_sim._pair_tables(exact_sim._all_sequences(na, n), p.matrix, "cond" if mmi else None)
    (logjoint_xy, mi), (rows,) = exact_sim._codeword_tables([cb], w, mmi)
    x_tab, ab_tab = (mi[rows], cond_h) if mmi else (logjoint_xy[rows], logjoint_ab)
    op, tol, _ = exact_sim._SCORES[decoder]
    cols = max(1, exact_sim._SWEEP_BLOCK_CELLS // na**n)
    errors = 0
    for s0 in range(0, samples, cols):
        j = slice(s0, s0 + cols)
        a, b = np.divmod(pairs[j], nb)
        a_idx = exact_sim._lex_index(a, na)
        x = cb.codewords[a_idx]
        y_idx = exact_sim._lex_index((u[j, :, None] > cum[x]).sum(axis=2), ny)
        seen, obs = np.unique(exact_sim._lex_index(b, nb) * ny**n + y_idx, return_inverse=True)
        err = exact_sim._error_mask(op(x_tab[:, seen % ny**n], ab_tab[:, seen // ny**n]), tol)
        errors += int(np.count_nonzero(err[a_idx, obs]))
    return errors


def _laws(rows, cols):
    """Row-stochastic (rows, cols) arrays with zero cells, as one joint law
    when ``rows`` is None."""
    shape = (rows or 2, cols)
    cells = st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5, 1.0]), min_size=math.prod(shape),
                     max_size=math.prod(shape)).map(lambda v: np.array(v).reshape(shape))
    if rows is None:
        return cells.filter(lambda m: m.sum() > 0).map(lambda m: m / m.sum())
    return cells.filter(lambda m: np.all(m.sum(axis=1) > 0)).map(lambda m: m / m.sum(axis=1, keepdims=True))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(1, 3).flatmap(lambda nb: _laws(None, nb)),
    st.integers(2, 4).flatmap(lambda ny: _laws(2, ny)),
    st.integers(1, 4),
    st.sampled_from(["mmi", "map"]),
    st.integers(1, 2_500),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 1, 7, 100]),
)
def test_streamed_monte_carlo_counts_equal_todays(joint, channel, n, decoder, samples, seed, cells):
    # laws with zero cells, |Y| from 2 to 4, sample counts that blocks of 2^n
    # * (1, 7 or 100) or the default blocks do not divide
    p, w = JointDistribution(joint), ConditionalDistribution(channel)
    cb = build_codebook(n, p, w, "uniform", seed % 7)
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(exact_sim, "_SWEEP_BLOCK_CELLS", cells * 2**n)
        mc = monte_carlo_error_probability(cb, p, w, decoder, samples, seed)
        assert mc.error_probability == _todays_monte_carlo_errors(cb, p, w, decoder, samples, seed) / samples


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(lambda nb: _laws(None, nb)),
    st.tuples(st.integers(1, 300), st.integers(1, 6)),
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
)
def test_blockwise_letters_are_generator_choice_letters(joint, shape, rows, seed):
    # the letters and the draw after them, whatever the block
    rng = np.random.default_rng(seed)
    got = exact_sim._choice_bytes(rng, joint, shape, rows)
    ref = np.random.default_rng(seed)
    want = ref.choice(joint.size, size=shape, p=joint.reshape(-1))
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert rng.random(3).tolist() == ref.random(3).tolist()


# ---------------------------------------------------------------------------
# budgets and validation


def test_exact_sweep_budget_and_validation():
    p, w = worked_pair()
    cb = build_codebook(2, p, w, "uniform", seed=0)
    with pytest.raises(BudgetError):
        exact_error_probability(cb, p, w, state_budget=10)
    with pytest.raises(ValueError):
        exact_error_probability(cb, p, w, decoder="nope")
    p3 = JointDistribution(np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(ValueError):
        exact_error_probability(cb, p3, w)
    with pytest.raises(ValueError):
        monte_carlo_error_probability(cb, p, w, decoder="nope")


def test_monte_carlo_checks_budget_and_samples_before_allocating():
    # 4^8 source sequences against 4^8 side or output sequences: the decoder
    # tables alone would take tens of GiB
    p = JointDistribution(np.full((4, 4), 1.0 / 16.0))
    w = ConditionalDistribution(np.full((4, 4), 0.25))
    cb = build_codebook(8, p, w, "uniform", seed=0)
    with pytest.raises(BudgetError):
        monte_carlo_error_probability(cb, p, w, samples=10)
    # 4^6 * 4^6 sequence pairs alone fit the budget, but with 16 letter-pair
    # counts each the tables would take about 13 GiB (848 MiB at n = 5)
    cb = build_codebook(6, p, w, "uniform", seed=0)
    with pytest.raises(BudgetError):
        monte_carlo_error_probability(cb, p, w, samples=10)
    p2, w2 = worked_pair()
    with pytest.raises(ValueError):
        monte_carlo_error_probability(build_codebook(2, p2, w2), p2, w2, samples=0)


def test_monte_carlo_budgets_the_sample_letters_before_drawing():
    # a sample keeps n letter-pair bytes, budgeted as the bytes of as many
    # float64 table entries: one sample past that at n = 4 would have held
    # 128 MiB of letters, and is refused before any is drawn
    p, w = worked_pair()
    cb = build_codebook(4, p, w, "uniform", seed=0)
    samples = 8 * exact_sim.DEFAULT_STATE_BUDGET // 4 + 1

    def refused():
        with pytest.raises(BudgetError, match="samples"):
            monte_carlo_error_probability(cb, p, w, samples=samples)

    assert _traced_peak(refused) <= 2**16


@pytest.mark.parametrize("samples", [2.5, 1e3, True, np.float64(10), "10", None])
def test_monte_carlo_refuses_samples_that_are_not_integers(samples):
    # each of these once failed inside numpy's draw, after the tables were built
    p, w = worked_pair()
    with pytest.raises(TypeError, match="samples must be an integer"):
        monte_carlo_error_probability(build_codebook(2, p, w), p, w, samples=samples)


def test_monte_carlo_accepts_numpy_integer_samples():
    p, w = worked_pair()
    cb = build_codebook(3, p, w)
    want = monte_carlo_error_probability(cb, p, w, "map", samples=1_000, seed=4)
    for samples in (np.int64(1_000), np.uint16(1_000)):
        got = monte_carlo_error_probability(cb, p, w, "map", samples=samples, seed=4)
        assert got == want and type(got.samples) is int and type(got.error_probability) is float


def test_empirical_exponent_definition():
    p, w = worked_pair()
    cb = build_codebook(3, p, w, "uniform", seed=0)
    res = exact_error_probability(cb, p, w, "map")
    assert 0.0 < res.error_probability < 1.0
    assert res.empirical_exponent == pytest.approx(
        -math.log2(res.error_probability) / 3.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# codebooks and Monte-Carlo counts frozen before the vectorized codebook build
# and the shared, blocked decoder tables; the optimized ternary and wide
# codebooks since the optimized rule reads E_0*'s law at rho*


@pytest.mark.parametrize(
    "pair,n,rule,seed,digest",
    [
        (quad_pair, 8, "uniform", 0, "f0bf920f902290bb"),
        (ternary_pair, 8, "optimized", 1, "778beea02547c250"),
        (wide_pair, 8, "uniform", 5, "e6a4f196594ede7b"),
        # 2 of its 7 compositions are unbalanced
        (wide_pair, 6, "optimized", 2, "3913adc0530be378"),
        (worked_pair, 8, "optimized", 3, "1679d738c49a30f9"),
    ],
)
def test_codewords_are_frozen(pair, n, rule, seed, digest):
    # one rng.permutation(n) per source sequence, in lexicographic order
    p, w = pair()
    cb = build_codebook(n, p, w, rule, seed)
    assert hashlib.sha256(cb.codewords.tobytes()).hexdigest()[:16] == digest
    assert codeword_compositions_ok(cb)


@pytest.mark.parametrize(
    "pair,n,decoder,errors",
    [
        (worked_pair, 5, "mmi", 11977),
        (worked_pair, 5, "map", 2042),
        (ternary_pair, 4, "mmi", 19848),
        (ternary_pair, 4, "map", 15793),
        (wide_pair, 5, "mmi", 16913),
        (wide_pair, 5, "map", 3595),
        (quad_pair, 3, "map", 9863),
    ],
)
def test_monte_carlo_error_counts_are_frozen(pair, n, decoder, errors):
    p, w = pair()
    cb = build_codebook(n, p, w, "uniform", seed=n)
    mc = monte_carlo_error_probability(cb, p, w, decoder, samples=20_000, seed=n + 3)
    assert mc.error_probability == errors / 20_000


# ---------------------------------------------------------------------------
# decoder tables shared across codebooks and decoders


def _whole_decoder_tables(cb, p, w):
    """The table build that the blocked, shared one replaced: every letter-pair
    count of every sequence pair held at once, one build per codebook."""
    n = cb.n
    na, nb = p.shape
    nx, ny = w.shape
    a_seqs = exact_sim._all_sequences(na, n)
    b_seqs = exact_sim._all_sequences(nb, n)
    y_seqs = exact_sim._all_sequences(ny, n)
    t_ab = exact_sim._pair_type_counts(a_seqs, b_seqs, na, nb) / n
    t_xy = exact_sim._pair_type_counts(cb.codewords, y_seqs, nx, ny) / n
    h_ab = exact_sim.entropy_bits(t_ab, axis=2)
    h_b = exact_sim.entropy_bits(t_ab.reshape(len(a_seqs), len(b_seqs), na, nb).sum(axis=2), axis=2)
    marg = t_xy.reshape(len(a_seqs), len(y_seqs), nx, ny)
    h_x = exact_sim.entropy_bits(marg.sum(axis=3), axis=2)
    h_y = exact_sim.entropy_bits(marg.sum(axis=2), axis=2)
    mi = h_x + h_y - exact_sim.entropy_bits(t_xy, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.log2(p.matrix).reshape(-1)
        logw = np.log2(w.matrix).reshape(-1)
        counts_ab, counts_xy = t_ab * n, t_xy * n
        logjoint_ab = np.where(counts_ab > 0, counts_ab * logp[None, None, :], 0.0).sum(axis=2)
        logjoint_xy = np.where(counts_xy > 0, counts_xy * logw[None, None, :], 0.0).sum(axis=2)
    return mi, h_ab - h_b, logjoint_ab, logjoint_xy


# the wide pair's optimized codebooks are unbalanced at n = 3, 5 and 6
@pytest.mark.parametrize("pair", [worked_pair, ternary_pair, wide_pair])
@pytest.mark.parametrize("rule", ["uniform", "optimized"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_shared_tables_match_per_codebook_tables_bit_for_bit(n, rule, pair):
    p, w = pair()
    cbs = build_codebooks(n, p, w, rule, range(3))
    a_seqs = exact_sim._all_sequences(p.shape[0], n)
    logjoint_ab, cond_h = exact_sim._pair_tables(a_seqs, p.matrix, "cond")
    (logjoint_xy, mi), rows = exact_sim._codeword_tables(cbs, w, True)
    # the MAP-only build reads no entropies and gives the same log-joints
    map_ab, no_cond_h = exact_sim._pair_tables(a_seqs, p.matrix, None)
    (map_xy, no_mi), map_rows = exact_sim._codeword_tables(cbs, w, False)
    assert no_cond_h is None and no_mi is None
    assert map_ab.tobytes() == logjoint_ab.tobytes()
    assert len(logjoint_xy) == len(np.unique(np.concatenate([cb.codewords for cb in cbs]), axis=0))
    for cb, r, map_r in zip(cbs, rows, map_rows):
        shared = (mi[r], cond_h, logjoint_ab, logjoint_xy[r])
        for got, one, whole in zip(shared, _decoder_tables(cb, p, w), _whole_decoder_tables(cb, p, w)):
            assert got.tobytes() == one.tobytes() == whole.tobytes()
        assert map_xy[map_r].tobytes() == logjoint_xy[r].tobytes()


def _per_seed_table(sc, n, decoders, seed_count):
    """``simulate_table`` as one codebook build and one exact sweep per seed
    and decoder."""
    p, w = sc.source_joint(), sc.channel_kernel()
    lines = [f"# n: {n}", f"# rule: {sc.sim.rule}", "seed,decoder,error_probability,empirical_exponent"]
    results = {d: [] for d in decoders}
    for seed in range(sc.seed, sc.seed + seed_count):
        cb = build_codebook(n, p, w, sc.sim.rule, seed, sc.sim.n_cap)
        for d in decoders:
            res = exact_error_probability(cb, p, w, d)
            results[d].append(res)
            pe, ex = format_number(res.error_probability), format_number(res.empirical_exponent)
            lines.append(f"{seed},{d},{pe},{ex}")
    for d in decoders:
        pes = [r.error_probability for r in results[d]]
        exps = [r.empirical_exponent for r in results[d]]
        for label, agg in (("min", min), ("median", statistics.median), ("max", max)):
            lines.append(f"{label},{d},{format_number(agg(pes))},{format_number(agg(exps))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("decoders", [("mmi", "map"), ("map",), ("mmi",)])
def test_simulate_table_builds_the_tables_once(decoders, monkeypatch):
    builds = []
    real = exact_sim._pair_tables

    def spy(s1, matrix, entropy):
        builds.append((matrix.shape, entropy))
        return real(s1, matrix, entropy)

    monkeypatch.setattr(exact_sim, "_pair_tables", spy)
    sc = dataclasses.replace(worked_example(), sim=SimSpec(rule="optimized"), seed=3)
    text = simulate_table(sc, n=5, decoders=decoders, seed_count=4)
    # one (source, side) and one (codeword, output) build for all 4 seeds;
    # MMI builds entropy tables, MAP only log-joints
    mmi = "mmi" in decoders
    assert builds == [((2, 2), "cond" if mmi else None), ((2, 2), "mi" if mmi else None)]
    monkeypatch.undo()
    assert text == _per_seed_table(sc, 5, decoders, 4)


def test_simulate_table_solves_the_compositions_once(monkeypatch):
    solved = []
    real = NestedEvaluator.best_input

    def spy(evaluator, qa_arr):
        solved.append((tuple(qa_arr), evaluator))
        return real(evaluator, qa_arr)

    monkeypatch.setattr(NestedEvaluator, "best_input", spy)
    sc = dataclasses.replace(worked_example(), sim=SimSpec(rule="optimized"), seed=3)
    text = simulate_table(sc, n=5, decoders=("mmi", "map"), seed_count=4)
    # the six binary source types at n = 5, each solved once for all 4 seeds,
    # over one evaluator
    assert len(solved) == len({q for q, _ in solved}) == 6
    assert len({id(ev) for _, ev in solved}) == 1
    monkeypatch.undo()
    assert text == _per_seed_table(sc, 5, ("mmi", "map"), 4)


def test_optimized_codebooks_solve_no_payoff_or_source_curve(monkeypatch):
    # the rule reads only each source type's law, which E_0*'s lattice and the
    # type's fixed-input Lagrangian give; payoff rows and source curves would
    # only price that law
    def refuse(*args):
        raise AssertionError("the optimized rule solved a payoff row or a source curve")

    monkeypatch.setattr(NestedEvaluator, "payoff", refuse)
    monkeypatch.setattr(NestedEvaluator, "solve_sources", refuse)
    for p, w in (worked_pair(), ternary_pair(), wide_pair()):
        cbs = build_codebooks(4, p, w, "optimized", (0, 1))
        assert all(codeword_compositions_ok(cb) for cb in cbs)


def test_refused_simulate_builds_no_codebook(monkeypatch):
    # 27^8 (source, side, output) states on 3-letter alphabets at n = 8: the
    # budget refuses the sweep before any codebook (15.8 MiB of them at n = 9)
    # is drawn
    built = []
    monkeypatch.setattr("siexp.scenario.build_codebooks", lambda *args: built.append(args))
    sc = Scenario(
        source_matrix=((0.1, 0.1, 0.05), (0.1, 0.1, 0.05), (0.2, 0.2, 0.1)),
        channel_kind="matrix",
        channel_matrix=((0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.1, 0.1, 0.8)),
    )
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="states"):
            simulate_table(sc, n=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [] and peak < 64 * 2**10


@pytest.mark.parametrize("n,seeds,shared", [(3, 2, True), (6, 8, False)])
def test_codeword_tables_hold_only_distinct_codewords(n, seeds, shared, monkeypatch):
    # a binary source over a 4-input channel: 4^n input sequences, of which
    # the codewords use far fewer than the 2^n source sequences
    p, w = wide_pair()
    cbs = [build_codebook(n, p, w, "uniform", seed) for seed in range(seeds)]
    distinct = [len(np.unique(cb.codewords, axis=0)) for cb in cbs]
    union = len(np.unique(np.concatenate([cb.codewords for cb in cbs]), axis=0))
    assert (union <= 2**n) == shared
    rows = []
    real = exact_sim._pair_tables

    def spy(s1, matrix, entropy):
        if matrix is w.matrix:
            rows.append(len(s1))
        return real(s1, matrix, entropy)

    monkeypatch.setattr(exact_sim, "_pair_tables", spy)
    batch = exact_error_probabilities(cbs, p, w)
    monkeypatch.undo()
    # one build over the union when it fits 2^n rows, else one per codebook
    assert rows == ([union] if shared else distinct)
    assert max(rows) <= 2**n < 4**n
    for cb, res in zip(cbs, batch):
        for decoder in ("mmi", "map"):
            single = exact_error_probability(cb, p, w, decoder)
            assert res[decoder] == single


def test_exact_error_probabilities_validation():
    p, w = worked_pair()
    cbs = [build_codebook(2, p, w, "uniform", 0), build_codebook(3, p, w, "uniform", 0)]
    with pytest.raises(ValueError):  # two blocklengths
        exact_error_probabilities(cbs, p, w)
    with pytest.raises(ValueError):
        exact_error_probabilities([], p, w)
    with pytest.raises(ValueError):
        exact_error_probabilities(cbs[:1], p, w, ("mmi", "nope"))
    with pytest.raises(BudgetError):
        exact_error_probabilities(cbs[:1], p, w, state_budget=10)


def test_monte_carlo_table_memory_is_bounded_by_blocks():
    # the whole-array letter-pair counts took about 848 MiB at this size
    p, w = quad_pair()
    cb = build_codebook(5, p, w, "uniform", seed=0)
    tracemalloc.start()
    try:
        monte_carlo_error_probability(cb, p, w, "mmi", samples=1_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


@pytest.mark.parametrize("candidates", [255, 256, 65_536])
def test_tie_count_never_wraps(candidates):
    # every candidate scores -inf, so all of them tie; a count held in a
    # dtype too small for the number of candidates would wrap to 0 or 1
    near, tie = exact_sim._near(np.full((candidates, 3), -np.inf), 1e-9)
    assert near.all() and tie.all()


def test_simulate_imports_no_masked_arrays():
    # numpy's unique over rows imports numpy.ma unless asked for the inverse,
    # which costs a fresh process milliseconds and memory mid-pass
    code = (
        "import sys\n"
        "from siexp.scenario import simulate_table, worked_example\n"
        "simulate_table(worked_example(), n=4, decoders=('mmi', 'map'), seed_count=2)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(exact_sim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
