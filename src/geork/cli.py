"""Command-line front end: print tableaus, run integrations, launch campaigns."""

from __future__ import annotations

import argparse
import os
import sys as _sys

import numpy as np

from .dynamics import kepler_system, quartic_oscillator
from .experiments import (
    PERIOD,
    convergence_study,
    drift_study,
    write_convergence_csv,
    write_convergence_plot,
    write_drift_csv,
    write_drift_plot,
    write_step_csv,
)
from .integrator import IntegrationError, SolverConfig, integrate_adaptive, integrate_fixed
from .tableau import MethodSpec, build_tableau, format_tableau, tableau_csv

__all__ = [
    "parse_method",
    "parse_method_list",
    "main",
]

CONVERGENCE_METHODS = "gauss:s=3,hbvm:k=4,s=3,hbvm:k=6,s=3,hbvm:k=9,s=3,hbvm:k=12,s=3,equip:s=3"
DRIFT_METHODS = "gauss:s=3,hbvm:k=12,s=3,equip:s=3"
CONVERGENCE_DIVISORS = "50,70,100,140,200"


def parse_method(text: str) -> MethodSpec:
    """Parse 'gauss:s=3', 'hbvm:k=6,s=3' or 'equip:s=3' (kind is case-insensitive)."""
    kind, sep, rest = text.strip().partition(":")
    kind = kind.strip().lower()
    params: dict[str, int] = {}
    if sep and rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip().lower()
            if not eq or key not in ("s", "k"):
                raise ValueError(f"bad parameter {item!r} in {text!r}")
            if key in params:
                raise ValueError(f"duplicate parameter {key!r} in {text!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"parameter {key}={value!r} is not an integer") from None
    if "s" not in params:
        raise ValueError(f"{kind} requires s (got {text!r})")
    try:
        return MethodSpec(kind, params["s"], params.get("k"))
    except ValueError as exc:
        raise ValueError(f"{exc} (got {text!r})") from None


def parse_method_list(text: str) -> list[MethodSpec]:
    """Split a comma-separated list; a new method starts at each kind: token."""
    groups: list[str] = []
    for token in text.split(","):
        if ":" in token or not groups:
            groups.append(token)
        else:
            groups[-1] += "," + token
    return [parse_method(g) for g in groups]


def _write_or_discard(path, writer):
    try:
        writer(path)
    except OSError:
        if os.path.exists(path):
            os.unlink(path)
        raise


def _cmd_tableau(args) -> int:
    spec = parse_method(args.method)
    if not np.isfinite(args.alpha):
        raise ValueError(f"--alpha must be finite, got {args.alpha}")
    tab = build_tableau(spec, alpha=args.alpha)
    if tab.alpha == 0.0 and args.alpha != 0.0:
        raise ValueError(f"--alpha has no effect on {spec}; only equip with s >= 2 takes it")
    print(tableau_csv(tab) if args.csv else format_tableau(tab), end="")
    return 0


def _cmd_run(args) -> int:
    spec = parse_method(args.method)
    if args.problem == "quartic" and args.e is not None:
        raise ValueError("--e has no effect with --problem quartic")
    sys_, state0 = (kepler_system(0.6 if args.e is None else args.e) if args.problem == "kepler"
                    else quartic_oscillator())
    cfg = SolverConfig()
    mode, partner, other = (("--h", "steps", "periods") if args.h is not None
                            else ("--tol", "periods", "steps"))
    if getattr(args, partner) is None:
        raise ValueError(f"{mode} requires --{partner}")
    if getattr(args, other) is not None:
        raise ValueError(f"--{other} has no effect with {mode}")
    if args.h is not None:
        records = integrate_fixed(spec, sys_, state0.y, args.h, args.steps, cfg)
    else:
        if not 0.0 < args.periods < np.inf:  # NaN fails every comparison
            raise ValueError(f"--periods must be positive and finite, got {args.periods}")
        (records,) = integrate_adaptive(spec, sys_, state0.y, [args.periods * PERIOD],
                                        args.tol, cfg)
    _write_or_discard(args.out, lambda p: write_step_csv(records, p, sys_, state0.y))
    print(f"wrote {len(records)} steps to {args.out}")
    return 0


def _write_campaign(args, items, write_csv, write_plot, lines) -> int:
    """Write the campaign CSV, print one line per series, then the optional plot."""
    csv_path = args.out + ".csv"
    _write_or_discard(csv_path, lambda p: write_csv(items, p))
    print(f"wrote {csv_path}")
    for line in lines:
        print(f"  {line}")
    if args.plot:
        gp_path = args.out + ".gp"
        _write_or_discard(gp_path, lambda p: write_plot(csv_path, p, items))
        print(f"wrote {gp_path}")
    return 0


def _cmd_convergence(args) -> int:
    methods = parse_method_list(args.methods)
    try:
        divisors = [int(d) for d in args.h_divisors.split(",")]
    except ValueError:
        raise ValueError(f"--h-divisors must be comma-separated integers, "
                         f"got {args.h_divisors!r}") from None
    if any(d < 1 for d in divisors):
        raise ValueError("stepsize divisors must be positive")
    h_grid = [PERIOD / d for d in divisors]
    results = convergence_study(methods, args.e, args.periods, h_grid, SolverConfig())
    lines = []
    for res in results:
        slope, fine = ("n/a" if np.isnan(v) else f"{v:.3f}" for v in (res.slope, res.fine_slope))
        lines.append(f"{res.method} {res.observable}: slope {slope}, small-h slope {fine}")
    return _write_campaign(args, results, write_convergence_csv, write_convergence_plot, lines)


def _cmd_drift(args) -> int:
    methods = parse_method_list(args.methods)
    reports = drift_study(methods, args.e, args.periods, args.tol, SolverConfig())
    return _write_campaign(args, reports, write_drift_csv, write_drift_plot,
                           [f"{rep.method} {rep.invariant}: {rep.verdict}" for rep in reports])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geork",
        description="Geometric Runge-Kutta integrators: Gauss, HBVM and EQUIP methods "
                    "with Kepler benchmark campaigns.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_tab = sub.add_parser("tableau", help="construct and print a Butcher tableau")
    p_tab.add_argument("--method", required=True,
                       help="method spec, e.g. gauss:s=3, hbvm:k=6,s=3, equip:s=3")
    p_tab.add_argument("--alpha", type=float, default=0.0,
                       help="tableau parameter for equip with s >= 2 (default 0)")
    p_tab.add_argument("--csv", action="store_true", help="machine-readable output")
    p_tab.set_defaults(func=_cmd_tableau)

    p_run = sub.add_parser("run", help="integrate one trajectory and write a step CSV")
    p_run.add_argument("--method", required=True)
    p_run.add_argument("--problem", choices=("kepler", "quartic"), default="kepler")
    p_run.add_argument("--e", type=float, help="Kepler eccentricity (default 0.6)")
    mode = p_run.add_mutually_exclusive_group(required=True)
    mode.add_argument("--h", type=float, help="fixed stepsize (with --steps)")
    mode.add_argument("--tol", type=float, help="adaptive tolerance (with --periods)")
    p_run.add_argument("--steps", type=int, help="number of fixed steps")
    p_run.add_argument("--periods", type=float, help="adaptive run length in units of 2*pi")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="fixed-step order/error-constant study")
    p_conv.add_argument("--methods", default=CONVERGENCE_METHODS)
    p_conv.add_argument("--e", type=float, default=0.6)
    p_conv.add_argument("--periods", type=int, default=10)
    p_conv.add_argument("--h-divisors", default=CONVERGENCE_DIVISORS,
                        help="stepsizes as 2*pi/d for each divisor d")
    p_conv.add_argument("--out", default="geork-convergence", help="output path prefix")
    p_conv.add_argument("--plot", action="store_true", help="also emit a gnuplot script")
    p_conv.set_defaults(func=_cmd_convergence)

    p_drift = sub.add_parser("drift", help="adaptive-step invariant drift study")
    p_drift.add_argument("--methods", default=DRIFT_METHODS)
    p_drift.add_argument("--e", type=float, default=0.99)
    p_drift.add_argument("--tol", type=float, default=1e-8)
    p_drift.add_argument("--periods", type=int, default=20)
    p_drift.add_argument("--out", default="geork-drift", help="output path prefix")
    p_drift.add_argument("--plot", action="store_true", help="also emit a gnuplot script")
    p_drift.set_defaults(func=_cmd_drift)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IntegrationError, OSError) as exc:
        print(f"geork {args.subcommand}: error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
