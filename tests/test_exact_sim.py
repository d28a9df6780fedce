"""Tests for the exact small-blocklength simulator.

The n = 1 error probabilities are verified against by-hand sums over the
full (source, side, output) space; they are exact rational values.
"""
import dataclasses
import hashlib
import math
import statistics
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
    build_codebooks,
    codeword_compositions_ok,
    exact_error_probabilities,
    exact_error_probability,
    map_decode,
    mmi_si_decode,
    monte_carlo_error_probability,
)
from siexp.probkit import ConditionalDistribution, JointDistribution
from siexp.scenario import SimSpec, format_number, simulate_table, worked_example

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


@pytest.mark.parametrize("rule", ["uniform", "optimized"])
def test_batch_codebooks_equal_one_seed_builds(rule):
    p, w = ternary_pair()
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


# ---------------------------------------------------------------------------
# codebooks and Monte-Carlo counts frozen before the vectorized codebook build
# and the shared, blocked decoder tables


@pytest.mark.parametrize(
    "pair,n,rule,seed,digest",
    [
        (quad_pair, 8, "uniform", 0, "f0bf920f902290bb"),
        (ternary_pair, 8, "optimized", 1, "19298bcfe88c2fbc"),
        (wide_pair, 8, "uniform", 5, "e6a4f196594ede7b"),
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


@pytest.mark.parametrize("pair", [worked_pair, ternary_pair])
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
    real = exact_sim.best_input_for_marginal

    def spy(p, w, q_a, *args, evaluator):
        solved.append((tuple(q_a.probs), evaluator))
        return real(p, w, q_a, *args, evaluator=evaluator)

    monkeypatch.setattr(exact_sim, "best_input_for_marginal", spy)
    sc = dataclasses.replace(worked_example(), sim=SimSpec(rule="optimized"), seed=3)
    text = simulate_table(sc, n=5, decoders=("mmi", "map"), seed_count=4)
    # the six binary source types at n = 5, each solved once for all 4 seeds,
    # over one evaluator
    assert len(solved) == len({q for q, _ in solved}) == 6
    assert len({id(ev) for _, ev in solved}) == 1
    monkeypatch.undo()
    assert text == _per_seed_table(sc, 5, ("mmi", "map"), 4)


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
