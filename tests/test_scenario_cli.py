"""Tests for config parsing, table/report emission, and the command-line
driver including its documented exit codes."""
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siexp import channel_exponents, cli, scenario, source_si_exponents
from siexp.errors import ConfigError, EvaluatorMismatchError, PremiseViolationError
from siexp.joint_bounds import NestedEvaluator
from siexp.probkit import Distribution
from siexp.scenario import (
    _KNOWN_KEYS,
    GridSpec,
    Scenario,
    SimSpec,
    Tolerances,
    curve_table,
    emit_config,
    format_number,
    parse_config,
    parse_curve_table,
    report,
    reproduce_fig1,
    reproduce_fig2,
    simulate_table,
    worked_example,
)
from siexp.source_si_exponents import independent_si_exponent

WORKED_CFG = "source.preset = worked_example\nchannel.kind = bsc\nchannel.param = 0.025\n"
ASYM_CFG = (
    "source.preset = worked_example\n"
    "channel.kind = matrix\n"
    "channel.matrix = 0.9 0.1 ; 0.3 0.7\n"
    "grids.rate_step = 0.1\n"
)
H_COND_WORKED = 0.24172334280683231697


# ---------------------------------------------------------------------------
# config parsing


def test_parse_worked_preset_minimal():
    sc = parse_config(WORKED_CFG)
    assert sc == worked_example()
    assert sc.grids == GridSpec() and sc.tolerances == Tolerances() and sc.sim == SimSpec()
    np.testing.assert_allclose(sc.source_joint().matrix, [[0.5, 0.0], [0.05, 0.45]])


def test_parse_comments_blanks_and_inline_comments():
    text = (
        "# leading comment\n"
        "\n"
        "source.preset = worked_example   # preset\n"
        "channel.kind = bsc\n"
        "channel.param = 0.025\n"
        "seed = 7\n"
    )
    sc = parse_config(text)
    assert sc.seed == 7 and sc.source_preset == "worked_example"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("source.preset = worked_example\nchannel.kind = bsc\n", "channel.param"),
        ("channel.kind = bsc\nchannel.param = 0.1\n", "source.preset / source.matrix"),
        (
            "source.preset = worked_example\nsource.matrix = 0.5 0.5\n"
            "channel.kind = bsc\nchannel.param = 0.1\n",
            "source.preset / source.matrix",
        ),
        (WORKED_CFG + "bogus.key = 1\n", "bogus.key"),
        (WORKED_CFG + "seed = 3\nseed = 4\n", "duplicate"),
        ("source.preset = nope\nchannel.kind = bsc\nchannel.param = 0.1\n", "nope"),
        ("source.preset = worked_example\nchannel.kind = bsc\nchannel.param = 0.6\n", "[0, 0.5]"),
        ("source.preset = worked_example\nchannel.kind = bec\nchannel.param = 1.5\n", "[0, 1.0]"),
        ("source.preset = worked_example\nchannel.kind = laplace\nchannel.param = 0.1\n", "bsc"),
        ("source.preset = worked_example\nchannel.kind = matrix\n", "channel.matrix"),
        (
            "source.preset = worked_example\nchannel.kind = matrix\n"
            "channel.matrix = 0.9 0.1 ; 0.3 0.7\nchannel.param = 0.1\n",
            "not accepted",
        ),
        (WORKED_CFG + "grids.refinement_levels = 7\n", "[0, 4]"),
        (WORKED_CFG + "sim.rule = best\n", "uniform or optimized"),
        (WORKED_CFG + "sim.n_cap = 11\n", "[1, 10]"),
        (WORKED_CFG + "seed = -3\n", "seed"),
        (WORKED_CFG + "grids.rate_step = abc\n", "not a number"),
        ("source.matrix = 0.5 0.5 ; 0.4\nchannel.kind = bsc\nchannel.param = 0.1\n", "unequal"),
        # mass 0.9: caught when the joint law is constructed
        ("source.matrix = 0.5 0.4\nchannel.kind = bsc\nchannel.param = 0.1\n", "deviates"),
        (WORKED_CFG + "justoneword\n", "key = value"),
        (WORKED_CFG + "sim.rule =\n", "empty value"),
        (WORKED_CFG + "tolerances.agreement = 0.005\n", "tolerances.agreement"),
    ],
)
def test_parse_config_rejections(text, fragment):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_emit_parse_round_trip():
    scenarios = [
        worked_example(),
        Scenario(
            source_matrix=((1.0 / 3.0, 1.0 / 6.0), (1.0 / 6.0, 1.0 / 3.0)),
            channel_kind="matrix",
            channel_matrix=((0.123456789123456789, 0.876543210876543211), (0.25, 0.75)),
            grids=GridSpec(rate_step=0.0007, simplex_step=0.04, refinement_levels=2),
            tolerances=Tolerances(matching=2e-4),
            sim=SimSpec(rule="optimized", n_cap=6),
            seed=12345,
        ),
        Scenario(source_preset="worked_example", channel_kind="bec", channel_param=0.3),
        # numpy floats subclass float, but their repr is no config number
        Scenario(
            source_matrix=tuple(map(tuple, np.array([[0.4, 0.1], [0.2, 0.3]]))),
            channel_kind="matrix",
            channel_matrix=tuple(map(tuple, np.array([[0.9, 0.1], [0.2, 0.8]]))),
            grids=GridSpec(rate_step=np.float64(0.01), simplex_step=np.float64(0.05)),
            tolerances=Tolerances(matching=np.float64(1e-3)),
        ),
        Scenario(source_preset="worked_example", channel_kind="bec", channel_param=np.float64(0.9)),
    ]
    for sc in scenarios:
        assert parse_config(emit_config(sc)) == sc


@pytest.mark.parametrize("kind,param", [("bsc", 0.025), ("bec", 0.3)])
def test_report_header_prints_a_numpy_parameter_as_a_plain_float(kind, param):
    plain = Scenario(source_preset="worked_example", channel_kind=kind, channel_param=param)
    numpy_param = dataclasses.replace(plain, channel_param=np.float64(param))
    assert numpy_param.channel_label() == f"{kind}({param!r})"
    # the same floats give the same report bytes
    assert report(numpy_param, rate_step=0.1) == report(plain, rate_step=0.1)


IDENTITY = ((1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "channel,text",
    [
        ({}, ""),
        ({"channel_kind": "bsc"}, "channel.kind = bsc\n"),
        ({"channel_kind": "bec", "channel_matrix": IDENTITY}, "channel.kind = bec\nchannel.matrix = 1 0 ; 0 1\n"),
        ({"channel_kind": "matrix"}, "channel.kind = matrix\n"),
        ({"channel_kind": "bsc", "channel_param": 0.1, "channel_matrix": IDENTITY},
         "channel.kind = bsc\nchannel.param = 0.1\nchannel.matrix = 1 0 ; 0 1\n"),
        ({"channel_kind": "matrix", "channel_param": 0.1, "channel_matrix": IDENTITY},
         "channel.kind = matrix\nchannel.param = 0.1\nchannel.matrix = 1 0 ; 0 1\n"),
        ({"channel_kind": "laplace", "channel_param": 0.1}, "channel.kind = laplace\nchannel.param = 0.1\n"),
    ],
)
def test_scenario_refuses_an_incomplete_channel(channel, text):
    # the dataclass once defaulted to a bsc with no crossover, which only
    # channel_kernel() refused, with a TypeError
    with pytest.raises(ConfigError) as built:
        Scenario(source_preset="worked_example", **channel)
    with pytest.raises(ConfigError) as parsed:
        parse_config("source.preset = worked_example\n" + text)
    assert str(built.value) == str(parsed.value)


def _worked(**fields):
    return lambda: dataclasses.replace(worked_example(), **fields)


@pytest.mark.parametrize(
    "build,text",
    [
        # a scenario with no source once built, and report failed on it with
        # "joint distribution must be 2-dimensional"
        (lambda: Scenario(channel_kind="bsc", channel_param=0.025), WORKED_CFG.split("\n", 1)[1]),
        # once built, and source_joint() raised KeyError
        (_worked(source_preset="nope"), WORKED_CFG.replace("worked_example", "nope")),
        # once built, and emit_config dropped the matrix
        (_worked(source_matrix=((0.5, 0.5),)), WORKED_CFG + "source.matrix = 0.5 0.5\n"),
        (_worked(channel_param=0.7), WORKED_CFG.replace("0.025", "0.7")),
        (_worked(grids=GridSpec(rate_step=0.0)), WORKED_CFG + "grids.rate_step = 0.0\n"),
        (_worked(grids=GridSpec(simplex_step=0.6)), WORKED_CFG + "grids.simplex_step = 0.6\n"),
        (_worked(grids=GridSpec(refinement_levels=5)), WORKED_CFG + "grids.refinement_levels = 5\n"),
        (_worked(tolerances=Tolerances(matching=math.inf)), WORKED_CFG + "tolerances.matching = inf\n"),
        (_worked(sim=SimSpec(n_cap=0)), WORKED_CFG + "sim.n_cap = 0\n"),
        (_worked(sim=SimSpec(rule="best")), WORKED_CFG + "sim.rule = best\n"),
        (_worked(seed=2**31), WORKED_CFG + f"seed = {2**31}\n"),
        (_worked(seed=True), WORKED_CFG + "seed = True\n"),
        (_worked(seed=1.5), WORKED_CFG + "seed = 1.5\n"),
        (_worked(source_preset=None, source_matrix=((0.5, 0.4),)),
         WORKED_CFG.replace("preset = worked_example", "matrix = 0.5 0.4")),
        (_worked(source_preset=None, source_matrix=((0.5, 0.25), (0.25,))),
         WORKED_CFG.replace("preset = worked_example", "matrix = 0.5 0.25 ; 0.25")),
        (_worked(source_preset=None, source_matrix=((1.0,), ())),
         WORKED_CFG.replace("preset = worked_example", "matrix = 1.0 ;")),
    ],
    ids=["no-source", "unknown-preset", "two-sources", "bsc-0.7", "rate-step-0", "simplex-step-0.6",
         "refinement-5", "matching-inf", "n-cap-0", "rule-best", "seed-2^31", "seed-true", "seed-1.5",
         "mass-0.9", "unequal-rows", "empty-row"],
)
def test_scenario_refuses_what_parse_config_refuses(build, text):
    with pytest.raises(ConfigError) as built:
        build()
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    assert str(built.value) == str(parsed.value)


def _law_rows(rows, cols, joint=False):
    """Rows of positive integer weights made a joint law or a row-stochastic matrix."""
    def normalize(m):
        m = np.array(m, dtype=float)
        return tuple(map(tuple, (m / (m.sum() if joint else m.sum(axis=1, keepdims=True))).tolist()))
    return st.lists(st.lists(st.integers(1, 1000), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(normalize)


_unit = st.floats(0.0, 0.5, exclude_min=True)
_channels = st.one_of(
    st.builds(dict, channel_kind=st.just("bsc"), channel_param=st.floats(0.0, 0.5)),
    st.builds(dict, channel_kind=st.just("bec"), channel_param=st.floats(0.0, 1.0)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda km: st.builds(dict, channel_kind=st.just("matrix"), channel_matrix=_law_rows(*km))),
)
_sources = st.one_of(
    st.builds(dict, source_preset=st.just("worked_example")),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda ab: st.builds(dict, source_matrix=_law_rows(*ab, joint=True))),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sources, _channels, st.builds(GridSpec, _unit, _unit, st.integers(0, 4)),
       st.builds(Tolerances, st.floats(0.0, 1.0, exclude_min=True)),
       st.builds(SimSpec, st.sampled_from(["uniform", "optimized"]), st.integers(1, 10)),
       st.integers(0, 2**31 - 1))
def test_emit_parse_round_trips_every_valid_scenario(source, channel, grids, tolerances, sim, seed):
    sc = Scenario(**source, **channel, grids=grids, tolerances=tolerances, sim=sim, seed=seed)
    assert parse_config(emit_config(sc)) == sc


# values of each field's own type, in and out of its range: numbers of every
# numeric type, not finite or inexact as floats; words; ragged, empty,
# unnormalized or list matrices
_NUMBERS = st.one_of(
    st.floats(-1.0, 2.0),
    st.sampled_from([0, 0.0, 0.5, 1.0, 4, 10, 2**31 - 1, 2**31, -1, math.nan, math.inf]),
    st.booleans(),
    st.integers(-2, 12),
    st.fractions(0, 1, max_denominator=6),
    st.floats(0.0, 1.0).map(np.float64),
    st.integers(0, 12).map(np.int64),
)
_WORDS = st.sampled_from(
    [None, "worked_example", "nope", "bsc", "bec", "matrix", "laplace", "uniform", "optimized", "best", ""]
)
_MATRICES = st.one_of(
    st.none(),
    _law_rows(2, 2),
    st.lists(st.lists(st.floats(-0.5, 1.5), max_size=3).map(tuple), min_size=1, max_size=3).map(tuple),
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2), min_size=1, max_size=2),
)
_WILD = {
    "source_preset": _WORDS,
    "source_matrix": _MATRICES,
    "channel_kind": _WORDS,
    "channel_param": st.one_of(st.none(), _NUMBERS),
    "channel_matrix": _MATRICES,
    "grids.rate_step": _NUMBERS,
    "grids.simplex_step": _NUMBERS,
    "grids.refinement_levels": _NUMBERS,
    "tolerances.matching": _NUMBERS,
    "sim.rule": _WORDS,
    "sim.n_cap": _NUMBERS,
    "seed": _NUMBERS,
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sources, _channels, st.data())
def test_every_scenario_that_builds_round_trips(source, channel, data):
    values = {**source, **channel}
    for name in data.draw(st.lists(st.sampled_from(sorted(_WILD)), max_size=2, unique=True)):
        values[name] = data.draw(_WILD[name], label=name)
    kwargs = {name: v for name, v in values.items() if "." not in name}
    for section, part in (("grids", GridSpec), ("tolerances", Tolerances), ("sim", SimSpec)):
        kwargs[section] = part(**{n.split(".")[1]: v for n, v in values.items() if n.startswith(section + ".")})
    try:
        sc = Scenario(**kwargs)
    except ConfigError:
        return
    assert parse_config(emit_config(sc)) == sc


def _readme_config_table():
    """(key, default) rows of the README's "Config schema" table."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    return [(cells[0].strip(" `"), cells[3].strip(" `")) for cells in rows]


def test_readme_config_table_matches_the_parser():
    table = _readme_config_table()
    assert {key for key, _ in table} == _KNOWN_KEYS
    for key, default in table:
        if default == "—":
            continue
        # a documented default holds when the key is left out
        sc = parse_config("".join(ln + "\n" for ln in WORKED_CFG.splitlines() if not ln.startswith(key)))
        section, _, name = key.partition(".")
        part = getattr(sc, section, None)
        value = getattr(part, name) if dataclasses.is_dataclass(part) else getattr(sc, key.replace(".", "_"))
        assert value == type(value)(default), key


# ---------------------------------------------------------------------------
# number formatting and curve tables


def test_format_number():
    assert format_number(0.123456789123) == "0.123456789"
    assert format_number(math.inf) == "inf"
    assert format_number(-math.inf) == "-inf"
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(1e-12) == "1e-12"


def test_curve_table_structure():
    sc = worked_example()
    text = curve_table(sc, rate_step=0.05)
    lines = text.splitlines()
    assert lines[0] == "R,e_L,e_U,E_r,E_sp,e_U_plus_E_r,e_U_plus_E_sp"
    assert len(lines) == 1 + 20  # rates 0.05 .. 1.00
    cols = parse_curve_table(text)
    np.testing.assert_allclose(cols["R"], np.arange(1, 21) * 0.05, atol=1e-9)
    # both source exponents vanish at rates below the conditional entropy
    low = cols["R"] <= H_COND_WORKED
    assert np.all(cols["e_L"][low] == 0.0) and np.all(cols["e_U"][low] == 0.0)
    # the constrained source form diverges at the log-alphabet edge
    assert math.isinf(cols["e_U"][-1])
    assert "inf" in lines[-1]
    # channel curves coincide above the critical rate (0.421)
    hi = cols["R"] >= 0.45
    np.testing.assert_array_equal(cols["E_r"][hi], cols["E_sp"][hi])
    # the summed columns really are sums (up to the 9-digit rendering)
    fin = np.isfinite(cols["e_U"])
    np.testing.assert_allclose(
        cols["e_U_plus_E_r"][fin], (cols["e_U"] + cols["E_r"])[fin], atol=1e-6
    )


def test_curve_table_independent_source_matches_marginal_only_exponent():
    sc = parse_config(
        "source.matrix = 0.18 0.12 ; 0.42 0.28\n"  # A independent of B
        "channel.kind = bsc\nchannel.param = 0.025\n"
    )
    cols = parse_curve_table(curve_table(sc, rate_step=0.1))
    p_a = Distribution(np.array([0.3, 0.7]))
    for r, eu in zip(cols["R"], cols["e_U"]):
        want = independent_si_exponent(float(r), p_a, method="gallager_dual").value
        if math.isinf(want):
            assert math.isinf(eu)
        else:
            assert eu == pytest.approx(want, abs=1e-5)


# ---------------------------------------------------------------------------
# report


def test_report_worked_example_flat():
    text = report(worked_example())
    want_lines = [
        "capacity: 0.831339069",
        "gallager_symmetric: true",
        "critical_rate: 0.421",
        "reliability: ok",
        "flat_lower: 0.221589405",
        "flat_upper: 0.221589405",
        "flat_lower_rate: 0.481",
        "matched: true",
        "matching_gap: 0",
        "complete_characterization: true",
        "joint_exponent: 0.221589405",
        "encoder_si_equivalent: true",
        "separate_exponent: 0.112137563",
        "separate_rate: 0.508",
        "separation_margin: 0.109451842",
        "separation_case: joint_rate_below",
        "game_gap: 0",
    ]
    for line in want_lines:
        assert line in text.splitlines(), line
    assert "exponent_statement:" in text
    assert "nested_lower" not in text


def test_report_nested_adds_triple_bounds():
    text = report(worked_example(), nested=True)
    fields = dict(ln.split(": ", 1) for ln in text.splitlines())
    assert float(fields["nested_minus_flat_lower"]) >= -1e-9
    assert float(fields["nested_minus_flat_upper"]) >= -1e-9
    assert float(fields["nested_upper"]) >= float(fields["nested_lower"]) - 1e-9
    assert float(fields["nested_upper"]) - float(fields["nested_lower"]) <= 1e-2
    assert fields["nested_qa_star"].count(" ") == 1


def test_report_asymmetric_channel_requires_nested():
    sc = parse_config(ASYM_CFG)
    with pytest.raises(PremiseViolationError):
        report(sc)
    nested_text = report(sc, nested=True)
    assert "nested_lower" in nested_text


# ---------------------------------------------------------------------------
# simulate table


def test_simulate_table_layout_and_determinism():
    sc = worked_example()
    text = simulate_table(sc, n=2, decoders=("mmi", "map"), seed_count=5)
    lines = text.splitlines()
    assert lines[0] == "# n: 2"
    assert lines[1] == "# rule: uniform"
    assert lines[2] == "seed,decoder,error_probability,empirical_exponent"
    data = lines[3:13]
    aggregates = lines[13:]
    assert len(data) == 10 and len(aggregates) == 6
    seeds = [row.split(",")[0] for row in data]
    assert seeds == ["0", "0", "1", "1", "2", "2", "3", "3", "4", "4"]
    assert [row.split(",")[0] for row in aggregates] == ["min", "median", "max"] * 2
    # exponent column is consistent with the error-probability column
    for row in data:
        _, _, pe_s, exp_s = row.split(",")
        pe, ex = float(pe_s), float(exp_s)
        if pe > 0:
            assert ex == pytest.approx(-math.log2(pe) / 2.0, rel=1e-6)
    assert simulate_table(sc, n=2, decoders=("mmi", "map"), seed_count=5) == text


def test_simulate_table_n1_hand_values():
    text = simulate_table(worked_example(), n=1, decoders=("map",), seed_count=2)
    for row in text.splitlines()[3:5]:
        assert row.split(",")[2] == "0.05"


# ---------------------------------------------------------------------------
# CLI exit codes and output handling


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_cli_curves_ok_and_out_file(tmp_path, capsys):
    cfg = write(tmp_path, "w.cfg", WORKED_CFG)
    assert cli.main(["curves", "--config", cfg, "--rate-step", "0.1"]) == 0
    stdout_text = capsys.readouterr().out
    assert stdout_text.startswith("R,e_L,e_U")
    out = tmp_path / "table.csv"
    assert cli.main(["curves", "--config", cfg, "--rate-step", "0.1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout_text


def test_cli_report_ok(tmp_path, capsys):
    cfg = write(tmp_path, "w.cfg", WORKED_CFG)
    assert cli.main(["report", "--config", cfg]) == 0
    assert "joint_exponent: 0.221589405" in capsys.readouterr().out


def test_cli_report_on_twelve_outputs(tmp_path, capsys):
    # two copies of a 2x6 block whose rows permute each other: Gallager
    # symmetric over 12 outputs, which have 4,213,597 set partitions
    half = "0.2 0.01 0.15 0.015 0.1 0.025"
    swapped = "0.01 0.2 0.015 0.15 0.025 0.1"
    cfg = write(
        tmp_path,
        "wide.cfg",
        "source.preset = worked_example\nchannel.kind = matrix\n"
        f"channel.matrix = {half} {half} ; {swapped} {swapped}\n",
    )
    assert cli.main(["report", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "channel: matrix 2x12" in lines and "gallager_symmetric: true" in lines


def test_cli_simulate_ok(tmp_path, capsys):
    cfg = write(tmp_path, "w.cfg", WORKED_CFG)
    assert cli.main(["simulate", "--config", cfg, "--n", "2", "--seeds", "2", "--decoder", "mmi"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 + 2 + 3  # comments, header, 2 data rows, 3 aggregates


def test_cli_reproduce_smoke(tmp_path, capsys):
    assert cli.main(["reproduce-fig1", "--rate-step", "0.1"]) == 0
    fig1 = capsys.readouterr().out
    assert fig1.startswith("# conditional_entropy: 0.241723343")
    assert "# critical_rate:" in fig1
    assert cli.main(["reproduce-fig2", "--rate-step", "0.1"]) == 0
    fig2 = capsys.readouterr().out
    # the annotations reflect the requested coarse grid, so check structure
    # here; the default-step values are pinned in the acceptance tests
    assert "# flat_lower: " in fig2
    assert "# matched: true" in fig2
    assert "# separation_margin: " in fig2
    flat_lower = float(fig2.splitlines()[0].split(": ")[1])
    assert flat_lower == pytest.approx(0.22158940485709555, abs=2e-3)


def test_figures_read_their_channel_lattices_from_one_evaluator(monkeypatch):
    sc = worked_example()
    p, w = sc.source_joint(), sc.channel_kernel()
    fresh = [reproduce_fig1(0.1), reproduce_fig2(0.1)]
    solved = []
    for name in ("_cc_e0_on_lattice", "_e0_on_lattice", "_e0_star_on_lattice"):
        real = getattr(channel_exponents, name)
        spy = lambda *args, real=real: solved.append(len(args[0])) or real(*args)
        monkeypatch.setattr(channel_exponents, name, spy)
    # bsc(0.025) is Gallager-symmetric: the uniform input's unit and tail
    # lattices, each solved once per figure, however many curves read them
    ev = NestedEvaluator(p, w, 0.1)
    assert reproduce_fig2(0.1, evaluator=ev) == fresh[1]
    lattices = (channel_exponents._RHO_UNIT, channel_exponents._RHO_TAIL)
    assert sorted(solved) == sorted(map(len, lattices))
    solved.clear()
    assert reproduce_fig1(0.1, evaluator=ev) == fresh[0]
    assert curve_table(sc, 0.1, evaluator=ev) == fresh[0].split("\n", 3)[3]
    assert solved == []
    with pytest.raises(EvaluatorMismatchError, match="evaluator"):
        reproduce_fig1(0.05, evaluator=ev)
    with pytest.raises(EvaluatorMismatchError, match="evaluator"):
        curve_table(sc, 0.05, evaluator=ev)


def test_figures_read_their_source_lattices_from_one_evaluator(monkeypatch):
    sc = worked_example()
    p, w = sc.source_joint(), sc.channel_kernel()
    fresh = [reproduce_fig1(0.1), reproduce_fig2(0.1)]
    solved = []
    real = source_si_exponents._es_on_lattice
    spy = lambda rhos, pm: solved.append(len(rhos)) or real(rhos, pm)
    monkeypatch.setattr(source_si_exponents, "_es_on_lattice", spy)
    # fig2 reads the source curves in its flat bounds, its separate scheme
    # and its table, fig1 in its table: the unit and tail lattices of -E_s,
    # each solved once for both figures
    ev = NestedEvaluator(p, w, 0.1)
    assert reproduce_fig2(0.1, evaluator=ev) == fresh[1]
    assert reproduce_fig1(0.1, evaluator=ev) == fresh[0]
    assert solved == [len(channel_exponents._RHO_UNIT), len(channel_exponents._RHO_TAIL)]
    # without an evaluator every call solves its own
    solved.clear()
    for _ in range(2):
        source_si_exponents.source_dual_curves(np.arange(1, 10) / 10.0, p)
    assert solved == 2 * [len(channel_exponents._RHO_UNIT), len(channel_exponents._RHO_TAIL)]


# fixed-input Lagrangian points the nested report on the worked source over
# 0.9 0.1 ; 0.2 0.8 solved when every curve solved its whole unit lattice
# (2,001 points) and each tail it read (1,201 points): 58 and 22 of them
ASYM_REPORT_UNIT_POINTS, ASYM_REPORT_TAILS = 58 * 2001, 22


def test_asym_report_solves_a_quarter_of_its_unit_lattice_points(tmp_path, capsys, monkeypatch):
    matrix = "channel.kind = matrix\nchannel.matrix = 0.9 0.1 ; 0.2 0.8\n"
    cfg = write(tmp_path, "a.cfg", "source.preset = worked_example\n" + matrix)
    unit, tail = [], []
    real = channel_exponents._cc_e0_on_lattice

    def spy(rhos, s, w, newton=None, *args):
        (tail if np.any(newton) else unit).append(len(rhos))
        return real(rhos, s, w, newton, *args)

    monkeypatch.setattr(channel_exponents, "_cc_e0_on_lattice", spy)
    assert cli.main(["report", "--config", cfg, "--nested", "--rate-step", "0.1"]) == 0
    capsys.readouterr()
    assert 0 < sum(unit) <= ASYM_REPORT_UNIT_POINTS // 4
    # tails are solved whole, and no more of them than before
    assert set(tail) == {len(channel_exponents._CC_RHO_TAIL)} and len(tail) <= ASYM_REPORT_TAILS


def test_asym_report_stacks_each_unit_point_once(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "a.cfg", ASYM_NESTED_CFG)
    calls, real = [], channel_exponents._stacked

    def spy(items):
        items = list(items)
        calls.append([(id(lat), int(k)) for lat, idx in items for k in idx])
        return real(items)

    monkeypatch.setattr(channel_exponents, "_stacked", spy)
    assert cli.main(["report", "--config", cfg, "--nested", "--rate-step", "0.1"]) == 0
    capsys.readouterr()
    assert calls and all(len(points) == len(set(points)) for points in calls)


def test_cli_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert cli.main(["curves", "--config", missing]) == 2
    assert "config error" in capsys.readouterr().err
    bad = write(tmp_path, "bad.cfg", WORKED_CFG + "bogus.key = 1\n")
    assert cli.main(["curves", "--config", bad]) == 2
    assert "bogus.key" in capsys.readouterr().err
    cfg = write(tmp_path, "w.cfg", WORKED_CFG)
    assert cli.main(["curves", "--config", cfg, "--rate-step", "0.7"]) == 2
    assert cli.main(["simulate", "--config", cfg, "--n", "0"]) == 2
    assert cli.main(["simulate", "--config", cfg, "--seeds", "0"]) == 2


def test_cli_rate_step_bound_is_the_config_tables(capsys, monkeypatch):
    assert cli.main(["reproduce-fig1", "--rate-step", "0.7"]) == 2
    assert "--rate-step must lie in (0, 0.5], got 0.7" in capsys.readouterr().err
    monkeypatch.setitem(scenario.CONFIG_KEYS, "grids.rate_step", (float, (0.0, 0.25)))
    assert cli.main(["reproduce-fig1", "--rate-step", "0.3"]) == 2
    assert "--rate-step must lie in (0, 0.25], got 0.3" in capsys.readouterr().err


def test_cli_budget_error_exit_3(tmp_path, capsys):
    cfg = write(tmp_path, "w.cfg", WORKED_CFG)
    assert cli.main(["simulate", "--config", cfg, "--n", "9"]) == 3
    assert "budget error" in capsys.readouterr().err


def test_cli_premise_violation_exit_4(tmp_path, capsys):
    cfg = write(tmp_path, "asym.cfg", ASYM_CFG)
    assert cli.main(["report", "--config", cfg]) == 4
    assert "premise violation" in capsys.readouterr().err
    assert cli.main(["report", "--config", cfg, "--nested"]) == 0


def test_cli_byte_determinism(tmp_path, capsys):
    cfg = write(tmp_path, "w.cfg", WORKED_CFG)
    outputs = []
    for _ in range(2):
        assert cli.main(["curves", "--config", cfg, "--rate-step", "0.05"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# SHA-256 of the `simulate --decoder both` stdout, frozen before the exact
# sweep shared its decoder tables across seeds and decoders
TERNARY_CFG = (
    "source.matrix = 0.30 0.00 ; 0.10 0.20 ; 0.15 0.25\n"
    "channel.kind = matrix\n"
    "channel.matrix = 0.9 0.1 ; 0.2 0.8\n"
)
SIMULATE_SHA256 = [
    (WORKED_CFG, "uniform", "8", "8", "2a9d60d096df86416600b4d680559a1b73bbb1c190944b17bc5a21922bcebb7b"),
    (WORKED_CFG, "optimized", "6", "8", "60deed84a6d6c56e5b5d6dd0e7583430cecbb5c2750be661e10f4cf7628b7efa"),
    (TERNARY_CFG, "uniform", "5", "4", "dc4655650d8dfa76ef154f651ba3dc08d757465ee55de112b110bfa782fd4b0a"),
]


@pytest.mark.parametrize(
    "base,rule,n,seeds,digest",
    SIMULATE_SHA256,
    ids=["worked-uniform-n8", "worked-optimized-n6", "ternary-uniform-n5"],
)
def test_cli_simulate_output_is_frozen(tmp_path, capsys, base, rule, n, seeds, digest):
    cfg = write(tmp_path, "sim.cfg", base + f"sim.rule = {rule}\n")
    argv = ["simulate", "--config", cfg, "--n", n, "--seeds", seeds, "--decoder", "both"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the `report --nested` stdout, frozen before the nested evaluator
# deferred its tail lattices and shared its input-optimized lattices
ASYM_NESTED_CFG = (
    "source.preset = worked_example\n"
    "channel.kind = matrix\n"
    "channel.matrix = 0.9 0.1 ; 0.2 0.8\n"
)
REPORT_NESTED_SHA256 = [
    (WORKED_CFG, "0.001", "bc13955c25d8db07341af6cb75c7de67a602ddd4159066c0a3e231891a76cca2"),
    (ASYM_NESTED_CFG, "0.1", "5279c9cec7184702ff00a44a3231243c953d48bd7b37c557164a72fe4bd458ee"),
]


@pytest.mark.parametrize(
    "base,step,digest", REPORT_NESTED_SHA256, ids=["worked-bsc-0.001", "asym-matrix-0.1"]
)
def test_cli_report_nested_output_is_frozen(tmp_path, capsys, base, step, digest):
    cfg = write(tmp_path, "report.cfg", base)
    assert cli.main(["report", "--config", cfg, "--nested", "--rate-step", step]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
