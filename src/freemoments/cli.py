"""Command-line front end for the exact engines, solvers, and the matrix lab.

Subcommands: ``moments``, ``nu``, ``verify``, ``density``, ``simulate``.
Every command accepts ``--format {table,csv,json}``, ``--out PATH`` and
``--seed``; parameter values (including defaults) are echoed in every report
header so runs are reproducible from their output alone.

Exit codes: 0 success; 1 a verification suite failed; 2 usage error;
3 numerical failure (non-convergence, branch/positivity violation, series
overflow; a verify check that refused still prints its report).  Rationals
are rendered as ``p/q`` strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from io import StringIO
from typing import Sequence

# only imports that load neither numpy nor dataclasses: the handlers that
# need the numerical layers (freeconv, rmtlab) or the verify checks import
# them when they run
from ._errors import SubordinationError
from .moments import _mgf_sums, moment_polynomial, moment_polynomials_from_recursion

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_MAX_SEED = 2**64 - 1


# ---------------------------------------------------------------------------
# argument types


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer seed: {text!r}")
    if not 0 <= value <= _MAX_SEED:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _complex_value(text: str) -> complex:
    # accept both 2i and 2j spellings; the i of inf and infinity is followed by a letter
    try:
        value = complex(re.sub(r"i(?![a-z])", "j", text.strip()))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed complex number: {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise argparse.ArgumentTypeError(f"non-finite complex number: {text!r}")
    return value


def _size_list(text: str) -> list[int]:
    sizes: list[int] = []
    for chunk in text.split(","):
        try:
            value = int(chunk)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer size: {chunk!r}")
        if value < 2:
            raise argparse.ArgumentTypeError("matrix sizes must be at least 2")
        sizes.append(value)
    return sizes


# ---------------------------------------------------------------------------
# rendering helpers


def _table_number(value: float) -> str:
    return f"{value:.6g}"


def _is_real(value: complex) -> bool:
    """Whether ``value`` is shown as real: its imaginary part is round-off."""
    return abs(value.imag) <= 1e-13 * (1.0 + abs(value.real))


def _maybe_real(value: complex) -> str:
    return repr(value.real) if _is_real(value) else repr(value)


def _write_output(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _header_lines(command: str, params: dict) -> list[str]:
    pairs = " ".join(f"{key}={value}" for key, value in params.items())
    return [f"# {command} {pairs}"]


def _render_rows(
    args: argparse.Namespace,
    command: str,
    params: dict,
    columns: Sequence[str],
    rows: Sequence[Sequence[str]],
) -> str:
    if args.format == "json":
        payload = {
            "command": command,
            "params": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in params.items()},
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        return json.dumps(payload, indent=2)
    out = StringIO()
    if args.format == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return out.getvalue()
    for line in _header_lines(command, params):
        out.write(line + "\n")
    widths = [
        max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    out.write("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# moments


def cmd_moments(args: argparse.Namespace) -> int:
    params = {
        "mode": args.mode,
        "n_max": args.n_max,
        "oracle": args.oracle,
    }
    if args.mode == "at-t":
        if args.t is None:
            print("moments: --mode at-t requires --t", file=sys.stderr)
            return EXIT_USAGE
        params["t"] = args.t

    polynomials = [moment_polynomial(n) for n in range(args.n_max + 1)]
    oracle_polys = (
        moment_polynomials_from_recursion(args.n_max) if args.oracle else None
    )

    columns = ["n", "m_n"]
    if args.oracle:
        columns.append("oracle_diff")
    rows: list[list[str]] = []
    clean = True
    for n, poly in enumerate(polynomials):
        if args.mode == "polynomial":
            cells = [str(n), str(poly)]
            if oracle_polys is not None:
                diff = poly - oracle_polys[n]
                cells.append(str(diff))
                clean = clean and not diff
        else:
            value = poly(args.t)
            cells = [str(n), str(value)]
            if oracle_polys is not None:
                diff = value - oracle_polys[n](args.t)
                cells.append(str(diff))
                clean = clean and diff == 0
        rows.append(cells)

    _write_output(args, _render_rows(args, "moments", params, columns, rows))
    return EXIT_OK if clean else EXIT_VERIFY


# ---------------------------------------------------------------------------
# nu


def cmd_nu(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.alpha is None):
        print("nu: give exactly one of --n or --alpha", file=sys.stderr)
        return EXIT_USAGE
    params = {"t": args.t}
    if args.n is not None:
        params["n_max"] = args.n
        from .checks import _exp_image_rows

        columns = ["n", "laguerre", "hypergeometric", "rel_diff"]
        rows = []
        for n, via_laguerre, via_1f1, rel in _exp_image_rows(args.n, args.t):
            if args.format == "table":
                cells = [str(n), _table_number(via_laguerre), _table_number(via_1f1)]
            else:
                cells = [str(n), repr(via_laguerre), repr(via_1f1)]
            cells.append(f"{rel:.3e}")
            rows.append(cells)
    else:
        params["alpha"] = _maybe_real(args.alpha)
        columns = ["alpha", "direct", "reflected", "rel_diff"]
        direct, reflected = _mgf_sums(args.alpha, args.t, -args.t / 2.0, args.t / 2.0)
        rel = abs(direct - reflected) / (1.0 + abs(direct))
        if args.format == "table":
            shown = (
                [_table_number(direct.real), _table_number(reflected.real)]
                if _is_real(direct)
                else [str(direct), str(reflected)]
            )
        else:
            shown = [_maybe_real(direct), _maybe_real(reflected)]
        rows = [[_maybe_real(args.alpha), *shown, f"{rel:.3e}"]]

    _write_output(args, _render_rows(args, "nu", params, columns, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    params = {
        "suite": args.suite,
        "l_max": args.l_max,
        "m_max": args.m_max,
        "n_max": args.n_max,
        "t": args.t,
        "samples": args.samples,
        "tolerance": args.tolerance,
        "seed": args.seed,
    }
    results, refused = checks.run(checks.SUITES[args.suite], args)
    all_passed = all(check.passed for check in results)
    if args.format == "json":
        payload = {
            "command": "verify",
            "params": params,
            "checks": [check._asdict() for check in results],
            "passed": all_passed,
        }
        _write_output(args, json.dumps(payload, indent=2))
    else:
        columns = ["status", "check", "detail"]
        rows = [["ok" if passed else "FAIL", name, detail] for name, passed, detail in results]
        if args.format == "table":
            rows.append(["", "result", "PASS" if all_passed else "FAIL"])
        _write_output(args, _render_rows(args, "verify", params, columns, rows))
    if refused:
        return EXIT_NUMERICAL
    return EXIT_OK if all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# density


def cmd_density(args: argparse.Namespace) -> int:
    from . import freeconv
    from .freeconv import density_grid, exp_pushforward_density, free_lognormal_support

    t = args.t
    radius = 2.0 * math.sqrt(t)
    half = t / 2.0
    support = free_lognormal_support(t)
    log_edge = math.log(support.upper)
    x_lo = args.x_lo if args.x_lo is not None else -log_edge - args.margin
    x_hi = args.x_hi if args.x_hi is not None else log_edge + args.margin
    if not x_lo < x_hi:
        print("density: need --x-lo < --x-hi", file=sys.stderr)
        return EXIT_USAGE

    grid = density_grid(radius, -half, half, x_lo, x_hi, args.points, args.eta)
    output = exp_pushforward_density(grid) if args.exp else grid
    meta = {
        "command": "density",
        "t": t,
        "points": args.points,
        "eta": args.eta,
        "exp": bool(args.exp),
        "window": {"lo": x_lo, "hi": x_hi},
        "mass_estimate": output.mass_estimate,
        "support": {"lower": support.lower, "upper": support.upper},
        "solver": {
            "tolerance": freeconv._TOLERANCE,
            "max_iterations": freeconv._MAX_ITERATIONS,
        },
    }

    if args.format == "json":
        document = {"meta": meta, "grid": json.loads(output.to_json())}
        _write_output(args, json.dumps(document, indent=2))
        return EXIT_OK

    body = StringIO()
    output.to_csv(body)
    if args.format == "table":
        text = "# density " + json.dumps(meta, sort_keys=True) + "\n" + body.getvalue()
        _write_output(args, text)
        return EXIT_OK

    sidecar = json.dumps(meta, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(body.getvalue())
        with open(args.out + ".meta.json", "w") as handle:
            handle.write(sidecar + "\n")
    else:
        sys.stdout.write(body.getvalue())
        print(sidecar, file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    from .rmtlab import convergence_report

    report = convergence_report(
        args.model,
        args.t,
        args.sizes,
        args.trials,
        args.n_max,
        seed=args.seed,
        steps=args.steps,
    )
    if args.format == "json":
        _write_output(args, report.to_json())
        return EXIT_OK

    params = {
        "model": report.model,
        "N": ",".join(str(size) for size in args.sizes),
        "t": report.time,
        "trials": report.trials,
        "n_max": report.n_max,
        "steps": report.steps,
        "seed": report.seed,
    }
    columns = ["N", "n", "empirical", "oracle", "rel_err", "std_err"]
    rows = []
    for row in report.rows:
        if args.format == "table":
            empirical, oracle = _table_number(row.empirical), _table_number(row.oracle)
        else:
            empirical, oracle = repr(row.empirical), repr(row.oracle)
        rows.append(
            [
                str(row.size),
                str(row.order),
                empirical,
                oracle,
                "" if row.rel_err is None else f"{row.rel_err:.3e}",
                f"{row.std_err:.3e}",
            ]
        )
    _write_output(args, _render_rows(args, "simulate", params, columns, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output rendering (default: table)",
    )
    common.add_argument("--out", metavar="PATH", help="write output to a file")
    common.add_argument(
        "--seed", type=_seed_value, default=0,
        help="64-bit seed for randomized checks and simulations (default: 0)",
    )

    parser = argparse.ArgumentParser(
        prog="freemoments",
        description="Exact and numerical moment engines for free convolutions "
        "of semicircle and uniform laws, and the free log-normal spectral law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "moments", parents=[common],
        help="moment polynomials of the centered free semicircle/uniform sum",
    )
    p.add_argument("--n-max", type=_natural, default=10)
    p.add_argument("--mode", choices=("polynomial", "at-t"), default="polynomial")
    p.add_argument(
        "--t", type=_rational, default=None,
        help="exact rational evaluation point for --mode at-t (e.g. 1/4)",
    )
    p.add_argument(
        "--oracle", action="store_true",
        help="also run the quadratic recursion and print the (all-zero) diff column",
    )
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser(
        "nu", parents=[common], help="moments of the free log-normal law"
    )
    p.add_argument("--n", type=_positive_int, default=None, help="largest integer order")
    p.add_argument(
        "--alpha", type=_complex_value, default=None,
        help="complex order, e.g. '0.5+2i' (use --alpha=-1 for negatives)",
    )
    p.add_argument("--t", type=_positive_float, required=True)
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser(
        "verify", parents=[common], help="run invariant suites; exit 0 iff all pass"
    )
    p.add_argument("suite", choices=("stirling", "kummer", "theorem-main", "all"))
    p.add_argument("--l-max", type=_positive_int, default=12)
    p.add_argument("--m-max", type=_positive_int, default=12)
    p.add_argument("--n-max", type=_positive_int, default=10)
    p.add_argument("--t", type=_positive_float, default=1.0)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--tolerance", type=_positive_float, default=1e-10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "density", parents=[common],
        help="density of the log-scale free sum (or its exponential pushforward)",
    )
    p.add_argument("--t", type=_positive_float, required=True)
    p.add_argument("--points", type=_positive_int, default=2000)
    p.add_argument("--eta", type=_positive_float, default=1e-3)
    p.add_argument(
        "--exp", action="store_true",
        help="emit the exponential pushforward instead of the log-scale density",
    )
    p.add_argument("--x-lo", type=float, default=None, help="window start (log scale)")
    p.add_argument("--x-hi", type=float, default=None, help="window end (log scale)")
    p.add_argument(
        "--margin", type=_positive_float, default=0.25,
        help="window margin beyond the closed-form support (log scale, default 0.25)",
    )
    p.set_defaults(func=cmd_density)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="random-matrix Monte Carlo vs the exact moment oracles",
    )
    p.add_argument("model", choices=("additive", "multiplicative"))
    p.add_argument(
        "--N", dest="sizes", type=_size_list, required=True,
        help="matrix size or comma-separated list, e.g. 50,200,800",
    )
    p.add_argument("--t", type=_positive_float, required=True)
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--n-max", type=_positive_int, default=4)
    p.add_argument(
        "--steps", type=_positive_int, default=None,
        help="time steps for the multiplicative scheme (default: ceil(10 t))",
    )
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SubordinationError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
