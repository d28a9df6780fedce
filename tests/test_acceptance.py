"""Release-gate acceptance suite.

Each test covers one numbered gate and prints a single PASS/FAIL verdict
line before asserting, so ``pytest -s tests/test_acceptance.py`` shows the
whole verdict table up to the first failure.  Frozen reference numbers were
computed independently with mpmath at 40 decimal digits; grid-derived
regression constants were frozen only after the coarse-to-fine primal
type-grid oracle (re-run inside gates 2 and 3) reproduced them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pytest

from siexp import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    bec,
    bsc,
    both_si_bounds,
    build_codebook,
    build_codebooks,
    cli,
    conditional_entropy,
    dual_exponent_curves,
    duality_check,
    e_lower,
    e_upper,
    e_upper_dual,
    entropy,
    exact_error_probability,
    game_solve,
    matching_check,
    monte_carlo_error_probability,
    mutual_information,
    parse_curve_table,
    random_coding_exponent,
    reproduce_fig1,
    separate_vs_joint,
    source_dual_curves,
    symmetric_flat_bounds,
    theorem1_bounds,
)
from siexp.numerics import rate_grid

WORKED_JOINT = ((0.50, 0.00), (0.05, 0.45))

# Independent mpmath oracle values (40-digit evaluation, rounded to float).
H_COND_WORKED = 0.24172334280683231697
CAP_BSC0025 = 0.83133906850332978543

# Grid regression constants for the worked pair at rate step 1e-3.  They were
# frozen from the dual-curve pipeline only after the primal type-grid oracle
# (re-run in gate 2 below) reproduced them.
CRIT_RATE_GRID = 0.421
FLAT_VALUE = 0.22158940485709555
FLAT_R_STAR = 0.481
SEP_VALUE = 0.1121375633193668
SEP_R_BAR = 0.508
SEP_MARGIN = 0.10945184153772874
BEC_GAME_VALUE = 0.22507958121610638

_memo: dict[str, object] = {}


def _worked_pair() -> tuple[JointDistribution, ConditionalDistribution]:
    return JointDistribution(np.array(WORKED_JOINT)), bsc(0.025)


def _fig1_run() -> tuple[str, float]:
    """First full-resolution curve reproduction in this process, timed."""
    if "fig1" not in _memo:
        t0 = time.perf_counter()
        text = reproduce_fig1()
        _memo["fig1"] = (text, time.perf_counter() - t0)
    return _memo["fig1"]  # type: ignore[return-value]


def _nested_worked():
    if "nested" not in _memo:
        p, w = _worked_pair()
        _memo["nested"] = theorem1_bounds(p, w)
    return _memo["nested"]


def _headers(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            out[key] = value
    return out


def _verdict(num: int, label: str, checks: dict[str, bool], detail: str) -> None:
    ok = all(checks.values())
    status = "PASS" if ok else "FAIL"
    failing = ", ".join(name for name, good in checks.items() if not good)
    suffix = detail if ok else f"{detail}; failing: {failing}"
    print(f"acceptance {num} {status}: {label} ({suffix})")
    assert ok, f"gate {num} failed: {failing}"


def _random_distribution(rng: np.random.Generator, k: int) -> Distribution:
    v = rng.random(k) + 0.1
    return Distribution(v / v.sum())


def _random_kernel(rng: np.random.Generator, k: int, m: int) -> ConditionalDistribution:
    mat = rng.random((k, m)) + 0.05
    return ConditionalDistribution(mat / mat.sum(axis=1, keepdims=True))


def _random_joint(rng: np.random.Generator, k: int, m: int) -> JointDistribution:
    mat = rng.random((k, m)) + 0.05
    return JointDistribution(mat / mat.sum())


def _second_diffs_min(values: np.ndarray) -> float:
    """Smallest second difference over the finite segment of a curve."""
    finite = np.flatnonzero(np.isfinite(values))
    seg = values[finite[0] : finite[-1] + 1]
    if not np.all(np.isfinite(seg)) or len(seg) < 3:
        # a convex curve with +inf tails has a contiguous finite region
        return math.inf if np.all(np.isfinite(seg)) else -math.inf
    d2 = seg[2:] - 2.0 * seg[1:-1] + seg[:-2]
    return float(np.min(d2))


# ---------------------------------------------------------------------------
# gate 1: worked-pair curve reproduction at rate step 1e-3


def test_1_worked_pair_curve_reproduction():
    text, elapsed = _fig1_run()
    head = _headers(text)
    cols = parse_curve_table(text)
    r, eu, er, esp = cols["R"], cols["e_U"], cols["E_r"], cols["E_sp"]

    crit = float(head["critical_rate"])
    below_h = r <= H_COND_WORKED + 1e-12
    above_crit = r >= crit - 1e-12
    agree = float(np.max(np.abs(er[above_crit] - esp[above_crit])))
    below_cap = r < CAP_BSC0025 - 1e-12

    checks = {
        "runtime <= 60s": elapsed <= 60.0,
        "header conditional entropy": abs(float(head["conditional_entropy"]) - H_COND_WORKED) <= 1e-8,
        "header capacity": abs(float(head["capacity"]) - CAP_BSC0025) <= 1e-8,
        "grid critical rate regression": crit == pytest.approx(CRIT_RATE_GRID, abs=1e-12),
        "e_U == 0 up to H(A|B)": bool(np.all(eu[below_h] == 0.0)),
        "E_r == E_sp above critical rate (1e-6)": agree <= 1e-6,
        "E_r > 0 below capacity": bool(np.all(er[below_cap] > 0.0)),
        "E_sp > 0 below capacity": bool(np.all(esp[below_cap] > 0.0)),
        "E_r == 0 at/above capacity": bool(np.all(er[~below_cap] == 0.0)),
        "E_sp == 0 at/above capacity": bool(np.all(esp[~below_cap] == 0.0)),
    }
    _verdict(
        1,
        "worked-pair curve reproduction",
        checks,
        f"runtime {elapsed:.1f}s, max|E_r-E_sp| above R_cr {agree:.2e}",
    )


# ---------------------------------------------------------------------------
# gate 2: flat-bound minimum, matching verdict, separation margin, and the
# primal type-grid oracle behind the frozen regression constants


def test_2_flat_bound_minimum_matching_and_separation():
    p, w = _worked_pair()
    flat = both_si_bounds(p, w)
    diag = matching_check(flat, w)
    rep = separate_vs_joint(p, w)

    checks = {
        "bound minima within 1e-4": abs(flat.upper - flat.lower) <= 1e-4,
        "shared minimizing rate": flat.r_star_lower == flat.r_star_upper,
        "minimizer >= critical rate": flat.r_star_lower >= CRIT_RATE_GRID - 1e-12,
        "complete characterization": diag.matched and diag.complete_characterization,
        "strictly positive separation margin": rep.margin > 0.0,
        "joint exponent regression": flat.lower == pytest.approx(FLAT_VALUE, abs=1e-12),
        "joint minimizer regression": flat.r_star_lower == pytest.approx(FLAT_R_STAR, abs=1e-12),
        "separate exponent regression": rep.separate == pytest.approx(SEP_VALUE, abs=1e-9),
        "separate rate regression": rep.r_bar == pytest.approx(SEP_R_BAR, abs=1e-12),
        "separation margin regression": rep.margin == pytest.approx(SEP_MARGIN, abs=1e-9),
    }

    # Primal type-grid oracle: recompute both operating points from scratch on
    # coarse-to-fine type grids (resolutions 50 | 100 | 200 nest, so each gap
    # must shrink monotonically toward the frozen dual-route constant).
    s_x = Distribution.uniform(2)
    win_joint = np.round(np.arange(0.470, 0.4921, 1e-3), 9)
    win_sep = np.round(np.arange(0.496, 0.5201, 1e-3), 9)
    el_win, eu_win = source_dual_curves(win_joint, p)
    er_win, _ = dual_exponent_curves(win_joint, s_x, w)
    dual_sums = eu_win + er_win
    gaps_joint: list[float] = []
    gaps_sep: list[float] = []
    argmin_joint = argmax_sep = math.nan
    for step in (0.02, 0.01, 0.005):
        sums = [
            e_upper(float(rr), p, "primal_grid", step).value
            + random_coding_exponent(float(rr), s_x, w, "primal_grid", step).value
            for rr in win_joint
        ]
        k = int(np.argmin(sums))
        gaps_joint.append(sums[k] - FLAT_VALUE)
        argmin_joint = float(win_joint[k])

        mins = [
            min(
                e_lower(float(rr), p, "primal_grid", step).value,
                random_coding_exponent(float(rr), s_x, w, "primal_grid", step).value,
            )
            for rr in win_sep
        ]
        k = int(np.argmax(mins))
        gaps_sep.append(mins[k] - SEP_VALUE)
        argmax_sep = float(win_sep[k])

    def shrinking(gaps: list[float]) -> bool:
        return all(g >= -1e-9 for g in gaps) and all(
            gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1)
        )

    checks["joint oracle gap nonnegative and shrinking"] = shrinking(gaps_joint)
    checks["joint oracle final gap <= 5e-3"] = gaps_joint[-1] <= 5e-3
    # the summed objective is flat to ~1e-4 over roughly +/-5e-3 around its
    # minimum, so the argmin is only determined up to that flat region; check
    # the objective value at the oracle's argmin instead of its coordinate
    at_argmin = float(dual_sums[np.flatnonzero(win_joint == argmin_joint)[0]])
    checks["joint oracle minimizer in flat-minimum region"] = (
        at_argmin <= FLAT_VALUE + 2.5e-4 and abs(argmin_joint - FLAT_R_STAR) <= 8e-3
    )
    checks["separate oracle gap nonnegative and shrinking"] = shrinking(gaps_sep)
    checks["separate oracle final gap <= 5e-3"] = gaps_sep[-1] <= 5e-3
    checks["separate oracle maximizer near frozen rate"] = abs(argmax_sep - SEP_R_BAR) <= 3e-3

    _verdict(
        2,
        "flat bound minimum, matching, separation",
        checks,
        "min gap {:.1e}, margin {:.6f}, oracle gaps joint {} sep {}".format(
            abs(flat.upper - flat.lower),
            rep.margin,
            "/".join(f"{g:.1e}" for g in gaps_joint),
            "/".join(f"{g:.1e}" for g in gaps_sep),
        ),
    )


# ---------------------------------------------------------------------------
# gate 3: primal/dual agreement on random binary instances


def test_3_primal_dual_agreement_on_random_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    steps = (0.02, 0.01, 0.005)
    sign_ok = True
    mono_ok = True
    worst_final = 0.0
    for _ in range(50):
        s = _random_distribution(rng, 2)
        w = _random_kernel(rng, 2, 2)
        r_c = float(rng.uniform(0.15, 0.85)) * mutual_information(s, w)
        er_dual = float(dual_exponent_curves(np.array([r_c]), s, w)[0][0])
        gaps_c = [
            random_coding_exponent(r_c, s, w, "primal_grid", g).value - er_dual
            for g in steps
        ]

        p = _random_joint(rng, 2, 2)
        hc = conditional_entropy(p)
        r_s = hc + (1.0 - hc) * float(rng.uniform(0.2, 0.8))
        eu_dual = e_upper_dual(r_s, p).value
        gaps_s = [
            e_upper(r_s, p, "primal_grid", g).value - eu_dual
            for g in steps
        ]

        for gaps in (gaps_c, gaps_s):
            sign_ok = sign_ok and all(g >= -1e-9 for g in gaps)
            mono_ok = mono_ok and all(
                gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1)
            )
            worst_final = max(worst_final, gaps[-1])
    elapsed = time.perf_counter() - t0

    checks = {
        "primal never below dual": sign_ok,
        "gap shrinks across the 3 grid levels": mono_ok,
        "final gap <= 5e-3 at step 0.005": worst_final <= 5e-3,
        "runtime <= 300s": elapsed <= 300.0,
    }
    _verdict(
        3,
        "primal/dual agreement on 50 random binary instances",
        checks,
        f"worst final gap {worst_final:.2e}, runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# gate 4: fixed-marginal source exponent vs kernel sphere packing


def test_4_fixed_marginal_matches_kernel_sphere_packing():
    rng = np.random.default_rng(4)
    worst = 0.0
    rates_ok = True
    for _ in range(50):
        qa0 = float(rng.uniform(0.1, 0.9))
        q_a = Distribution(np.array([qa0, 1.0 - qa0]))
        m = rng.random((2, 2)) + 0.1 + 2.0 * np.eye(2)
        w = ConditionalDistribution(m / m.sum(axis=1, keepdims=True))
        r = float(rng.uniform(0.15, 0.85)) * entropy(q_a)
        rep = duality_check(r, q_a, w, grid_step=0.01)
        worst = max(worst, rep.abs_diff)
        rates_ok = rates_ok and abs(rep.channel_rate - (entropy(q_a) - r)) <= 1e-12

    checks = {
        "|fixed-marginal - sphere-packing| <= 1e-2": worst <= 1e-2,
        "channel rate is H(q_a) - R": rates_ok,
    }
    _verdict(
        4,
        "fixed-marginal duality on 50 random triples",
        checks,
        f"worst |difference| {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# gate 5: nested bounds collapse onto flat bounds for symmetric channels,
# and the inner game has (numerically) no duality gap


def test_5_nested_collapse_and_game_gap_on_symmetric_pairs():
    p, _ = _worked_pair()
    checks: dict[str, bool] = {}
    details: list[str] = []
    for label, w in (("bsc(0.025)", bsc(0.025)), ("bec(0.3)", bec(0.3))):
        flat = symmetric_flat_bounds(p, w)
        nested = _nested_worked() if label == "bsc(0.025)" else theorem1_bounds(p, w)
        game = game_solve(p, w)
        checks[f"{label} lower collapse <= 1e-2"] = abs(nested.lower - flat.lower) <= 1e-2
        checks[f"{label} upper collapse <= 1e-2"] = abs(nested.upper - flat.upper) <= 1e-2
        # the nested path scores grid inputs through the exact
        # constant-composition route while the flat path uses the plain
        # uniform-input dual; their rho-lattices differ, so equality on a
        # symmetric channel holds only up to a few 1e-7 of lattice noise
        checks[f"{label} nested at least flat"] = (
            nested.lower >= flat.lower - 5e-6 and nested.upper >= flat.upper - 5e-6
        )
        checks[f"{label} game gap <= 1e-6"] = 0.0 <= game.gap <= 1e-6
        details.append(
            f"{label}: collapse {abs(nested.lower - flat.lower):.1e}, game gap {game.gap:.1e}"
        )
        if label == "bec(0.3)":
            checks["bec(0.3) game value regression"] = game.maxmin_value == pytest.approx(
                BEC_GAME_VALUE, abs=1e-9
            )
    _verdict(5, "nested/flat collapse and game gap", checks, "; ".join(details))


# ---------------------------------------------------------------------------
# gate 6: convexity and ordering properties across randomized instances


def test_6_convexity_and_ordering_across_randomized_instances():
    rng = np.random.default_rng(6)
    rates = rate_grid(0.02, 1.0)
    min_d2 = math.inf
    order_ok = True
    game_ok = True
    for _ in range(100):
        s = _random_distribution(rng, 2)
        w = _random_kernel(rng, 2, 2)
        er, esp = dual_exponent_curves(rates, s, w)
        min_d2 = min(min_d2, _second_diffs_min(er), _second_diffs_min(esp))

        p = _random_joint(rng, 2, 2)
        _, eu = source_dual_curves(rates, p)
        min_d2 = min(min_d2, _second_diffs_min(eu))

        wb = bsc(float(rng.uniform(0.02, 0.45)))
        res = both_si_bounds(p, wb, rate_step=0.02)
        order_ok = order_ok and res.lower <= res.upper + 1e-12
        game = game_solve(
            p, wb, rate_step=0.02, qa_step=0.2, sx_step=0.2, refinement_levels=0
        )
        game_ok = game_ok and game.maxmin_value <= game.minmax_value + 1e-9

    checks = {
        "second differences >= -1e-8": min_d2 >= -1e-8,
        "lower <= upper on every bounds result": order_ok,
        "maxmin <= minmax on every game": game_ok,
    }
    _verdict(
        6,
        "convexity/ordering over 100 randomized instances",
        checks,
        f"min second difference {min_d2:.2e}",
    )


# ---------------------------------------------------------------------------
# gate 7: exact simulator vs Monte Carlo, decoder ordering, finite-n slack


def test_7_exact_simulator_monte_carlo_and_decoder_ordering():
    p, w = _worked_pair()
    cb4 = build_codebook(4, p, w, rule="uniform", seed=0)
    sigmas: dict[str, float] = {}
    mc_ok = True
    for decoder in ("mmi", "map"):
        exact = exact_error_probability(cb4, p, w, decoder=decoder)
        mc = monte_carlo_error_probability(
            cb4, p, w, decoder=decoder, samples=100_000, seed=11
        )
        dev = abs(mc.error_probability - exact.error_probability)
        sigmas[decoder] = dev / mc.std_error
        mc_ok = mc_ok and dev <= 3.0 * mc.std_error

    map_ok = True
    exponents: list[float] = []
    # one composition solve for all 20 seeds; the batch draws the same
    # codebooks as one build_codebook call per seed
    books = build_codebooks(6, p, w, "optimized", range(20))
    one = build_codebook(6, p, w, rule="optimized", seed=19)
    assert books[19].codewords.tobytes() == one.codewords.tobytes()
    assert books[19].compositions == one.compositions
    for cb in books:
        mmi = exact_error_probability(cb, p, w, decoder="mmi")
        map_res = exact_error_probability(cb, p, w, decoder="map")
        map_ok = map_ok and map_res.error_probability <= mmi.error_probability
        exponents.append(mmi.empirical_exponent)
    # finite-blocklength polynomial correction: (2/n) * log2(n+1) * |A|*|B|
    slack = (2.0 / 6.0) * math.log2(7.0) * 4.0
    mean_exponent = statistics.fmean(exponents)
    upper = _nested_worked().upper

    checks = {
        "exact matches Monte Carlo within 3 sigma": mc_ok,
        "Pe(map) <= Pe(mmi) for every seed": map_ok,
        "mean mmi exponent within slack of upper bound": mean_exponent
        <= upper + slack,
    }
    _verdict(
        7,
        "exact simulator checks at n=4 and n=6",
        checks,
        "sigmas mmi {:.2f} map {:.2f}, mean exponent {:.3f} vs {:.3f}+{:.2f}".format(
            sigmas["mmi"], sigmas["map"], mean_exponent, upper, slack
        ),
    )


# ---------------------------------------------------------------------------
# gate 8: reproduction subcommands are byte-identical across consecutive runs


def test_8_reproduction_commands_byte_identical(tmp_path):
    checks: dict[str, bool] = {}
    for sub in ("reproduce-fig1", "reproduce-fig2"):
        blobs: list[bytes] = []
        rc_ok = True
        for run in (1, 2):
            out = tmp_path / f"{sub}-{run}.txt"
            rc_ok = rc_ok and cli.main([sub, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        checks[f"{sub} exit code 0"] = rc_ok
        checks[f"{sub} byte-identical"] = blobs[0] == blobs[1]
    _verdict(8, "byte-identical reproduction outputs", checks, "two consecutive runs each")
