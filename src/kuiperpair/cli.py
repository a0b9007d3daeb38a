"""Command-line interface: solves, tables, curves, data tests and simulation.

Exit codes are disjoint and stable: 0 success (or test acceptance),
1 numerical/solver error, 2 usage or data error, 3 statistical rejection.
All output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from .empirical import (
    approximate_p_value,
    kuiper_statistic_one_sample,
    monte_carlo_exceedance,
    run_test,
)
from .errors import KuiperError, OutOfRangeError
from .quantile import (
    DEFAULT_GUESS,
    GuessWindowWarning,
    IterationMethod,
    TestKind,
    check_alpha,
    check_n,
    kuiper_inv_cdf,
    kuiper_ltq,
    kuiper_pair_solver,
    kuiper_utq,
)

CURVE_P_MIN = 0.0002
CURVE_P_MAX = 0.9998

# argparse's own negative-number pattern (Python 3.11) has no exponent, so
# it reads "--params -1e-3 1" as an option; any token that starts like a
# negative number is taken as a value instead.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")

_TESTS = tuple(kind.value for kind in TestKind)
_METHODS = tuple(method.value for method in IterationMethod)


def _check_decimals(decimals: int) -> int:
    if not 1 <= decimals <= 12:
        raise ValueError(f"decimals must lie in [1, 12], got {decimals}")
    return decimals


def round_half_away(value: float, decimals: int) -> float:
    """Round to ``decimals`` places with ties going away from zero."""
    quantum = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def format_number(value: float, decimals: int) -> str:
    rounded = round_half_away(value, decimals)
    if rounded == 0.0:
        rounded = 0.0  # normalize -0.0
    return f"{rounded:.{decimals}f}"


def _format_n(n: int | float) -> str:
    return "inf" if math.isinf(n) else str(int(n))


def _to_n(text: str) -> int | float:
    return math.inf if text.strip().lower() in ("inf", "infinity") else int(text)


def _arg(convert, check):
    """argparse type: convert the text, then apply the library's range rule."""
    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _list_arg(item):
    """argparse type: a nonempty comma-separated list, each piece parsed by ``item``."""
    def parse(text: str):
        values = tuple(item(piece) for piece in text.split(",") if piece.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"expected a nonempty list, got {text!r}")
        return values
    return parse


_ALPHA = _arg(float, check_alpha)
_N = _arg(_to_n, check_n)


def _read_data_file(path: str) -> list[float]:
    """One decimal number per line; '#' comment lines and blanks are skipped."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read data file {path!r}: {exc}") from exc
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: not a decimal number: {line!r}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(f"{path}:{lineno}: non-finite value: {line!r}")
        values.append(value)
    if not values:
        raise ValueError(f"data file {path!r} contains no values")
    return values


def _normal_cdf(x: float, mu: float, sigma: float) -> float:
    # Phi((x - mu)/sigma) through math.erf, exact to double precision.
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


def _uniform_cdf(x: float, low: float, high: float) -> float:
    if x <= low:
        return 0.0
    if x >= high:
        return 1.0
    return (x - low) / (high - low)


def _probability_transform(values: list[float], args: argparse.Namespace) -> list[float]:
    if args.pit:
        return values
    dist = args.dist or "uniform"
    params = args.params if args.params is not None else (0.0, 1.0)
    first, second = params
    if not (math.isfinite(first) and math.isfinite(second)):
        raise ValueError(f"--params must be finite numbers, got {first!r} {second!r}")
    if dist == "uniform":
        if second <= first:
            raise ValueError(
                f"uniform needs --params A B with B > A, got {first!r} {second!r}"
            )
        return [_uniform_cdf(x, first, second) for x in values]
    if second <= 0.0:
        raise ValueError(f"normal needs a positive sigma, got {second!r}")
    return [_normal_cdf(x, first, second) for x in values]


def cmd_pair(args: argparse.Namespace) -> int:
    pair = kuiper_pair_solver(
        args.guess, args.alpha, args.n, TestKind(args.test),
        IterationMethod(args.method),
    )
    c_text = format_number(pair.critical_value, args.decimals)
    v_text = format_number(pair.quantile, args.decimals)
    print(f"c={c_text} v={v_text}")
    return 0


def render_table(alphas: Sequence[float], ns: Sequence[int | float], kind: TestKind,
                 format: str = "csv", decimals: int = 4) -> tuple[str, list[str]]:
    """Render the csv or markdown table; return (text, per-cell failure notes)."""
    if format == "csv":
        lines = ["alpha,n,c,v"]
    else:
        lines = ["| alpha | " + " | ".join(f"n={_format_n(n)}" for n in ns) + " |",
                 "| --- |" + " --- |" * len(ns)]
    failures: list[str] = []
    for alpha in alphas:
        row = [f"{alpha:g}"]
        for n in ns:
            try:
                pair = kuiper_pair_solver(
                    DEFAULT_GUESS, alpha, n, kind, IterationMethod.NEWTON
                )
            except KuiperError as exc:
                failures.append(
                    f"(alpha={alpha:g}, n={_format_n(n)}): {type(exc).__name__}"
                )
                c_text = v_text = "NA"
            else:
                c_text = format_number(pair.critical_value, decimals)
                v_text = format_number(pair.quantile, decimals)
            if format == "csv":
                lines.append(f"{alpha:g},{_format_n(n)},{c_text},{v_text}")
            else:
                row.append("NA" if c_text == "NA" else f"({c_text}, {v_text})")
        if format != "csv":
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n", failures


def cmd_table(args: argparse.Namespace) -> int:
    text, failures = render_table(
        args.alphas, args.ns, TestKind(args.test), args.format, args.decimals
    )
    sys.stdout.write(text)
    if failures:
        print(f"{len(failures)} cell(s) unsolvable: " + "; ".join(failures),
              file=sys.stderr)
        return 1
    return 0


def cmd_quantile(args: argparse.Namespace) -> int:
    print(format_number(args.quantile(args.level, args.n), args.decimals))
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    step = (CURVE_P_MAX - CURVE_P_MIN) / (args.points - 1)
    print("p,x")
    for index in range(args.points):
        p = CURVE_P_MIN + index * step
        try:
            cell = format_number(kuiper_inv_cdf(p, args.n), args.decimals)
        except KuiperError:
            cell = "NA"
        print(f"{p:g},{cell}")
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    values = _read_data_file(args.data)
    try:
        result = kuiper_statistic_one_sample(sorted(_probability_transform(values, args)))
    except OutOfRangeError as exc:  # a data error, not a numerical one
        raise ValueError(f"{type(exc).__name__}: {exc}") from exc
    decision = run_test(result, args.alpha, TestKind.ONE_SAMPLE)
    p_value = approximate_p_value(result)
    decimals = args.decimals
    print(f"n={result.n}")
    print(f"d_plus={format_number(result.d_plus, decimals)}")
    print(f"d_minus={format_number(result.d_minus, decimals)}")
    print(f"v={format_number(result.v, decimals)}")
    print(f"k={format_number(result.k, decimals)}")
    print(f"v_alpha={format_number(decision.quantile, decimals)}")
    print(f"p_value={format_number(p_value, decimals)}")
    print(f"decision={'REJECT' if decision.reject else 'ACCEPT'}")
    return 3 if decision.reject else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    threshold = kuiper_pair_solver(DEFAULT_GUESS, args.alpha, args.n).quantile
    fraction = monte_carlo_exceedance(args.n, threshold, args.reps, args.seed)
    print(
        f"target={args.alpha:g} empirical={format_number(fraction, args.decimals)} "
        f"reps={args.reps} seed={args.seed}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--decimals", type=_arg(int, _check_decimals), default=4,
        help="printed precision, 1-12 decimal places (default 4)",
    )

    parser = argparse.ArgumentParser(
        prog="kuiperpair",
        description="Critical values, tail quantiles and empirical statistics "
                    "for Kuiper's goodness-of-fit tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", parents=[shared],
                          help="solve the (critical value, quantile) pair")
    pair.add_argument("--alpha", type=_ALPHA, required=True)
    pair.add_argument("--n", type=_N, required=True,
                      help="sample size, or 'inf' for the large-sample limit")
    pair.add_argument("--test", choices=_TESTS, default="vn")
    pair.add_argument("--method", choices=_METHODS, default="newton")
    pair.add_argument("--guess", type=float, default=DEFAULT_GUESS)
    pair.set_defaults(handler=cmd_pair)

    table = sub.add_parser("table", parents=[shared],
                           help="generate a critical-value/quantile table")
    table.add_argument("--alphas", type=_list_arg(_ALPHA), required=True,
                       help="comma-separated significance levels")
    table.add_argument("--ns", type=_list_arg(_N), required=True,
                       help="comma-separated sample sizes ('inf' allowed)")
    table.add_argument("--test", choices=_TESTS, default="vn")
    table.add_argument("--format", choices=("csv", "markdown"), default="csv")
    table.set_defaults(handler=cmd_table)

    for name, quantile, flag, text in (
        ("utq", kuiper_utq, "--alpha", "upper tail quantile"),
        ("ltq", kuiper_ltq, "--alpha", "lower tail quantile"),
        ("invcdf", kuiper_inv_cdf, "--p", "inverse CDF of the one-sample statistic"),
    ):
        command = sub.add_parser(name, parents=[shared], help=text)
        command.add_argument(flag, dest="level", metavar=flag[2:].upper(), type=float,
                             required=True)
        command.add_argument("--n", type=_N, required=True)
        command.set_defaults(handler=cmd_quantile, quantile=quantile)

    curve = sub.add_parser("curve", parents=[shared],
                           help="emit p,x rows of the inverse CDF for plotting")
    curve.add_argument("--n", type=_N, required=True)
    curve.add_argument("--points", type=int, required=True)
    curve.set_defaults(handler=cmd_curve)

    test = sub.add_parser("test", parents=[shared],
                          help="goodness-of-fit decision for a data file")
    test.add_argument("--data", required=True, help="file with one value per line")
    test.add_argument("--alpha", type=_ALPHA, required=True)
    group = test.add_mutually_exclusive_group()
    group.add_argument("--dist", choices=("uniform", "normal"),
                       help="reference distribution for the probability transform")
    group.add_argument("--pit", action="store_true",
                       help="values are already probabilities in [0, 1]")
    test.add_argument("--params", type=float, nargs=2, metavar=("A", "B"),
                      help="distribution parameters: uniform bounds or normal mu sigma")
    test.set_defaults(handler=cmd_test)

    simulate = sub.add_parser("simulate", parents=[shared],
                              help="Monte Carlo check of a solved quantile")
    simulate.add_argument("--n", type=_N, required=True)
    simulate.add_argument("--alpha", type=_ALPHA, required=True)
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.set_defaults(handler=cmd_simulate)

    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # One line, like the error lines: no source path or line, which would
    # change with the install location.
    return f"{category.__name__}: {message}\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code or 0)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.handler(args)
    except (KuiperError, GuessWindowWarning) as exc:  # the warning under -W error
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


def console_main() -> None:
    sys.exit(main())
