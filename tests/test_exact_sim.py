"""Tests for the exact small-blocklength simulator.

The n = 1 error probabilities are verified against by-hand sums over the
full (source, side, output) space; they are exact rational values.
"""
import math
import tracemalloc

import numpy as np
import pytest

from siexp import exact_sim
from siexp.channel_exponents import bsc
from siexp.errors import BudgetError
from siexp.exact_sim import (
    Codebook,
    _decoder_tables,
    build_codebook,
    codeword_compositions_ok,
    exact_error_probability,
    map_decode,
    mmi_si_decode,
    monte_carlo_error_probability,
)
from siexp.probkit import ConditionalDistribution, JointDistribution

WORKED_JOINT = ((0.50, 0.00), (0.05, 0.45))
# |A| = 3 with a zero entry, over an asymmetric binary channel
TERNARY_JOINT = ((0.30, 0.00), (0.10, 0.20), (0.15, 0.25))
ASYM_CHANNEL = ((0.9, 0.1), (0.2, 0.8))


def worked_pair():
    return JointDistribution(np.array(WORKED_JOINT)), bsc(0.025)


def ternary_pair():
    return JointDistribution(np.array(TERNARY_JOINT)), ConditionalDistribution(
        np.array(ASYM_CHANNEL)
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


# at n = 2 every MMI score ties (Pe = 1); n = 3 gives MMI untied decodes
@pytest.mark.parametrize("n,rule", [(2, "uniform"), (2, "optimized"), (3, "optimized")])
@pytest.mark.parametrize("decoder", ["mmi", "map"])
def test_reference_decoders_match_exact_sweep_ternary_source(decoder, n, rule):
    p, w = ternary_pair()
    cb = build_codebook(n, p, w, rule, seed=1)
    brute = _brute_force_pe(cb, p, w, decoder)
    fast = exact_error_probability(cb, p, w, decoder).error_probability
    assert fast == pytest.approx(brute, abs=1e-12)


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
    for seed in (0, 1, 2):
        cb = build_codebook(n, p, w, rule, seed)
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


# ---------------------------------------------------------------------------
# decoder ordering and Monte-Carlo cross-check


def test_map_never_worse_than_mmi():
    p, w = worked_pair()
    for n in (2, 3):
        for rule in ("uniform", "optimized"):
            for seed in range(5):
                cb = build_codebook(n, p, w, rule, seed)
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


def test_empirical_exponent_definition():
    p, w = worked_pair()
    cb = build_codebook(3, p, w, "uniform", seed=0)
    res = exact_error_probability(cb, p, w, "map")
    assert 0.0 < res.error_probability < 1.0
    assert res.empirical_exponent == pytest.approx(
        -math.log2(res.error_probability) / 3.0, abs=1e-12
    )
