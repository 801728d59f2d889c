"""Command-line front end.

Every computation in the library is reachable from here; grid scans emit
CSV with 17-significant-digit numbers and ``\\n`` line endings, so repeated
invocations with identical arguments produce byte-identical output.

Exit codes:

- 0 on success;
- 1 when the command line does not parse, or a flag fails its own check
  (``--p``, ``--d``, ``--steps``, ``--x``/``--y``, ``--numeric-check`` with
  ``--d > 10``);
- 2 when a state file is invalid, when the library rejects the configuration
  built from the flags (``RoofConfig`` or ``TcmConfig``: ``--restarts 0``,
  ``--nbar nan``, an inadequate ``--n-max``), or when a computation fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .convex_roof import RoofConfig, minimize_roof
from .io import load_state
from .linalg import DensityMatrix, PureState, _check_order, schmidt_coefficients
from .majorization import majorizes, weakly_submajorizes
from .monotones import (
    concurrence_lower_bound,
    monotone_report,
    negativity,
    pure_concurrence,
    pure_tangle,
    tangle_lower_bound,
)
from .states import (
    _check_d,
    isotropic_concurrence_bound,
    isotropic_state,
    isotropic_tangle_bound,
    mixing_parameter,
)
from .tcm import TcmConfig, run_trace


class UsageError(Exception):
    """Bad flag combinations that argparse cannot catch itself."""


def _library_rule(check, value):
    """Apply a library input check, its ``ValueError`` as a usage error."""
    try:
        return check(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _order(text: str) -> float:
    return _library_rule(_check_order, float(text))


def _dimension(text: str) -> int:
    return _library_rule(_check_d, int(text))


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_density(path) -> DensityMatrix:
    state = load_state(path)
    if isinstance(state, PureState):
        return state.to_density()
    return state


def _load_pure(path) -> PureState:
    state = load_state(path)
    if not isinstance(state, PureState):
        raise ValueError(f'{path}: expected a "pure" state file')
    return state


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise UsageError(f"{flag}: expected a comma-separated list of numbers") from exc


def _cmd_monotone(args) -> str:
    rep = monotone_report(_load_density(args.input), args.p)
    neg = [float(x) for x in rep.negative_eigenvalues]
    fields = {"p": rep.p, "pnorm": rep.pnorm, "power_sum": rep.power_sum,
              "neg_count": rep.neg_count, "negative_eigenvalues": neg}
    if args.json:
        return json.dumps(fields) + "\n"
    row = [_fmt(rep.p), _fmt(rep.pnorm), _fmt(rep.power_sum), str(rep.neg_count),
           ";".join(_fmt(x) for x in neg)]
    return ",".join(fields) + "\n" + ",".join(row) + "\n"


def _cmd_negativity(args) -> str:
    return _fmt(negativity(_load_density(args.input))) + "\n"


def _cmd_bound(args) -> str:
    rho = _load_density(args.input)
    fn = concurrence_lower_bound if args.kind == "concurrence" else tangle_lower_bound
    return _fmt(fn(rho)) + "\n"


def _cmd_pure(args) -> str:
    psi = _load_pure(args.input)
    coeffs = ";".join(_fmt(c) for c in schmidt_coefficients(psi))
    return (
        "schmidt_coefficients,concurrence,tangle\n"
        f"{coeffs},{_fmt(pure_concurrence(psi))},{_fmt(pure_tangle(psi))}\n"
    )


def _cmd_isotropic(args) -> str:
    if args.numeric_check and args.d > 10:
        raise UsageError("--numeric-check builds the full matrix and needs --d <= 10")
    header = "d,F,lambda,m2pt,n2pt"
    if args.numeric_check:
        header += ",m2pt_numeric"
    lines = [header]
    for f in np.linspace(args.f_min, args.f_max, args.steps):
        f = float(f)
        row = [
            str(args.d),
            _fmt(f),
            _fmt(mixing_parameter(args.d, f)),
            _fmt(isotropic_concurrence_bound(args.d, f)),
            _fmt(isotropic_tangle_bound(args.d, f)),
        ]
        if args.numeric_check:
            row.append(_fmt(concurrence_lower_bound(isotropic_state(args.d, f))))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_tcm(args) -> str:
    cfg = TcmConfig(
        nbar=args.nbar,
        n_max=args.n_max,
        t_grid=np.linspace(0.0, args.t_max, args.steps),
    )
    trace = run_trace(cfg)
    lines = ["gt,n2pt,rank,purity"]
    for gt, n2, rank, pur in trace.rows:
        lines.append(f"{_fmt(gt)},{_fmt(n2)},{int(rank)},{_fmt(pur)}")
    return "\n".join(lines) + "\n"


def _cmd_roof(args) -> str:
    rho = _load_density(args.input)
    cfg = RoofConfig(
        objective=args.objective,
        ensemble_size=args.m,
        restarts=args.restarts,
        max_iters=args.iters,
        seed=args.seed,
    )
    result = minimize_roof(rho, cfg)
    return (
        "value,reconstruction_residual\n"
        f"{_fmt(result.value)},{_fmt(result.residual)}\n"
    )


def _cmd_majorize(args) -> str:
    x = _parse_vector(args.x, "--x")
    y = _parse_vector(args.y, "--y")
    pred = weakly_submajorizes if args.weak else majorizes
    return ("true" if pred(y, x) else "false") + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmono",
        description="Entanglement monotones from negative partial-transpose eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--output", default=None, help="write to this file instead of stdout")
        return p

    p = add("monotone", _cmd_monotone, "evaluate the monotone family on a state file")
    p.add_argument("--p", type=_order, required=True, help="order, any real >= 1")
    p.add_argument("--input", required=True, help="state file (JSON)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    p = add("negativity", _cmd_negativity, "negativity of a density matrix")
    p.add_argument("--input", required=True)

    p = add("bound", _cmd_bound, "concurrence or tangle lower bound")
    p.add_argument("--kind", choices=("concurrence", "tangle"), required=True)
    p.add_argument("--input", required=True)

    p = add("pure", _cmd_pure, "Schmidt coefficients, concurrence and tangle of a pure state")
    p.add_argument("--input", required=True)

    p = add("isotropic", _cmd_isotropic, "analytic bounds on an isotropic fidelity grid (CSV)")
    p.add_argument("--d", type=_dimension, required=True)
    p.add_argument("--f-min", type=float, default=0.0)
    p.add_argument("--f-max", type=float, default=1.0)
    p.add_argument("--steps", type=_count, default=21)
    p.add_argument("--numeric-check", action="store_true",
                   help="add a column with the dense-matrix bound (d <= 10)")

    p = add("tcm", _cmd_tcm, "two-atom cavity run: tangle bound vs effective time (CSV)")
    p.add_argument("--nbar", type=float, default=100.0)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--steps", type=_count, default=1000)

    p = add("roof", _cmd_roof, "convex-roof upper estimate by ensemble search")
    p.add_argument("--objective", choices=("concurrence", "tangle"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, default=None, help="ensemble size (default: rank-based)")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = add("majorize", _cmd_majorize, "majorization predicate on two vectors")
    p.add_argument("--x", required=True, help="comma-separated list")
    p.add_argument("--y", required=True, help="comma-separated list")
    p.add_argument("--weak", action="store_true", help="weak submajorization instead")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 0 if exc.code in (0, None) else 1
    try:
        text = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
