"""Command-line driver.

Subcommands:

* ``curves``          — emit the full exponent-curve table for a scenario
* ``report``          — emit the structured summary (``--nested`` adds the
                        triple-optimization bounds and lifts the flat-only
                        premise requirement)
* ``simulate``        — exact small-blocklength error probabilities
* ``reproduce-fig1``  — curve table for the built-in worked-example pair
* ``reproduce-fig2``  — the same table annotated with the bound minima

Exit codes: 0 success, 2 configuration problem (bad file, bad flag value,
usage error), 3 computation budget exceeded, 4 premise violation (a shortcut
was requested whose mathematical precondition fails on this instance).
"""
from __future__ import annotations

import argparse
import sys

from .errors import BudgetError, ConfigError, PremiseViolationError
from .scenario import (
    CONFIG_KEYS,
    curve_table,
    load_scenario,
    report,
    reproduce_fig1,
    reproduce_fig2,
    simulate_table,
)

_DECODER_SETS = {"mmi": ("mmi",), "map": ("map",), "both": ("mmi", "map")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siexp",
        description=(
            "Error-exponent curves, bounds, and exact small-blocklength "
            "simulation for source-channel pairs with decoder side information."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--out", default=None, help="write output to this file instead of stdout")

    def add_rate_step(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--rate-step", type=float, help="override the scenario's rate grid step")

    curves = sub.add_parser("curves", help="emit the exponent-curve table")
    curves.add_argument("--config", required=True, help="scenario config file")
    add_out(curves)
    add_rate_step(curves)

    rep = sub.add_parser("report", help="emit the structured summary")
    rep.add_argument("--config", required=True, help="scenario config file")
    add_out(rep)
    add_rate_step(rep)
    rep.add_argument(
        "--nested",
        action="store_true",
        help="include the nested (marginal / input / rate) bounds",
    )

    sim = sub.add_parser("simulate", help="exact error probabilities at small blocklengths")
    sim.add_argument("--config", required=True, help="scenario config file")
    add_out(sim)
    sim.add_argument("--n", type=int, default=4, help="blocklength (default 4)")
    sim.add_argument("--seeds", type=int, default=5, help="number of codebook seeds (default 5)")
    sim.add_argument(
        "--decoder",
        choices=sorted(_DECODER_SETS),
        default="both",
        help="which decoder(s) to evaluate (default both)",
    )

    fig1 = sub.add_parser("reproduce-fig1", help="worked-example curve table")
    add_out(fig1)
    add_rate_step(fig1)

    fig2 = sub.add_parser("reproduce-fig2", help="worked-example table with bound minima")
    add_out(fig2)
    add_rate_step(fig2)

    return parser


def _checked_step(value: float | None) -> float | None:
    lo, hi = CONFIG_KEYS["grids.rate_step"][1]
    if value is not None and not lo < value <= hi:
        raise ConfigError(f"--rate-step must lie in ({lo:g}, {hi:g}], got {value!r}")
    return value


def _dispatch(args: argparse.Namespace) -> str:
    step = _checked_step(getattr(args, "rate_step", None))
    if args.command == "curves":
        return curve_table(load_scenario(args.config), rate_step=step)
    if args.command == "report":
        return report(load_scenario(args.config), nested=args.nested, rate_step=step)
    if args.command == "simulate":
        if args.n < 1:
            raise ConfigError(f"--n must be at least 1, got {args.n}")
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
        return simulate_table(
            load_scenario(args.config),
            args.n,
            decoders=_DECODER_SETS[args.decoder],
            seed_count=args.seeds,
        )
    if args.command == "reproduce-fig1":
        return reproduce_fig1() if step is None else reproduce_fig1(step)
    if args.command == "reproduce-fig2":
        return reproduce_fig2() if step is None else reproduce_fig2(step)
    raise AssertionError(f"unreachable command {args.command!r}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _dispatch(args)
        _write(text, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except PremiseViolationError as exc:
        print(f"premise violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
