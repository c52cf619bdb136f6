"""certground command line: certified lower bounds for translation-invariant
nearest-neighbour lattice models.

Subcommands: anderson, marginal, moment, sweep, sandwich, models, oracle.
A run checks the whole request (the model, every sweep point and every
sandwich method) before it solves anything. Exit codes: 0 success, 2 a bad
request or an unwritable --json/--csv path, 3 solver failure (a ValueError or
RuntimeError raised inside a solve). Reports go to stdout as JSON unless
--json/--csv paths are given; a sweep given both writes both files.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import reports, upper
from .models import BUILTIN_MODELS, ModelSpec, builtin_model, parse_model


def _parse_range(text: str) -> list:
    """Inclusive 'a..b' ranges or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _load_model(args) -> ModelSpec:
    """The model the request names; every method reads its lattice dimension
    from it. A model file gives its own D, which --dim may only repeat."""
    if args.model_file:
        try:
            with open(args.model_file) as f:
                model = parse_model(f.read())
        except (OSError, ValueError) as e:
            raise ValueError(f"cannot load model file: {e}")
        if args.dim not in (None, model.D):
            raise ValueError(f"--dim {args.dim} disagrees with the model file's D = {model.D}")
        return model
    if not args.model:
        raise ValueError("one of --model or --model-file is required")
    params = [float(p) for p in args.params.split(",")] if args.params else []
    return builtin_model(args.model, params, D=1 if args.dim is None else args.dim)


def _emit(args, payload):
    csv_path = getattr(args, "csv", None)  # sweep's rows
    if csv_path:
        reports.emit_csv(payload["rows"], reports.CSV_COLUMNS[args.method], csv_path)
    if args.json or not csv_path:
        text = reports.emit_json(payload, args.json)
        if not args.json:
            sys.stdout.write(text)


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return value


def _at_least(low: int, high: float = math.inf):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        if value > high:
            raise argparse.ArgumentTypeError(f"{text} is more than {high}")
        return value
    return parse


def _add_common(p):
    p.add_argument("--model", choices=BUILTIN_MODELS, help="builtin model name")
    p.add_argument("--params", default="", help="comma-separated model parameters")
    p.add_argument("--model-file", help="JSON model document (see README)")
    p.add_argument("--dim", type=int, help="lattice dimension D (default 1, or a model file's D)")
    p.add_argument("--tol", type=_positive, default=1e-8, help="eigensolver tolerance")
    p.add_argument("--gap-tol", type=_positive, default=1e-9, help="SDP duality-gap tolerance")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--json", help="write the JSON report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (`parse_args` leaves it
    unchanged, so every `run` shares it)."""
    ap = argparse.ArgumentParser(prog="certground", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anderson", help="Anderson bound with guarantee")
    _add_common(p)
    p.add_argument("--m", type=int, required=True, help="patch size")

    p = sub.add_parser("marginal", help="improved Anderson bound (marginal SDP)")
    _add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--mode", choices=("consecutive", "wrap"), default="consecutive")
    p.add_argument("--placement", choices=("middle", "literal_last"), default="middle")

    p = sub.add_parser("moment", help="translation-invariant moment-matrix bound")
    _add_common(p)
    p.add_argument("--l", type=int, required=True, help="operator window length")

    p = sub.add_parser("sweep", help="parameter sweeps with CSV/JSON output")
    _add_common(p)
    p.add_argument("--method", choices=("anderson", "moment", "marginal"), required=True)
    p.add_argument("--m", default=None, help="patch range a..b")
    p.add_argument("--s", default=None, help="half-window range a..b (marginal)")
    p.add_argument("--l", default=None, help="window range a..b (moment)")
    p.add_argument("--mode", choices=("consecutive", "wrap"), default="consecutive")
    p.add_argument("--placement", choices=("middle", "literal_last"), default="middle")
    p.add_argument("--csv", help="write CSV rows to this path")
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored; kept for old scripts (sweeps run in one process)")

    p = sub.add_parser("sandwich", help="best certified lower bound + variational upper")
    _add_common(p)
    p.add_argument("--anderson-m", type=int, default=None)
    p.add_argument("--moment-l", type=int, default=None)
    p.add_argument("--marginal", default=None, help="e.g. m=5,s=2")
    p.add_argument("--restarts", type=_at_least(1, upper.MAX_RESTARTS), default=8,
                   help=f"product-state multistarts (1 to {upper.MAX_RESTARTS})")

    p = sub.add_parser("models", help="list builtin models")
    p.add_argument("--json", help="write the JSON report to this path")

    p = sub.add_parser("oracle", help="exact tiny-ring energy density reference")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="ring size")
    return ap


def _checked_bound(model, args, method: str, point):
    """Check one point of `method` (an Anderson m, a moment window, or a
    marginal (m, s, mode, placement)); ValueError unless it can be solved.
    Returns a zero-argument function that solves it and gives its BoundReport.
    Only `method`'s module is imported, so a command loads only what it runs."""
    if method == "anderson":
        from . import anderson
        anderson.open_patch(model, point)
        return lambda: anderson.anderson_bound(model, point, tol=args.tol, seed=args.seed)
    if method == "moment":
        from . import moment
        moment.check_request(model, point)
        return lambda: moment.ti_moment_bound(model, point, gap_tol=args.gap_tol)
    from . import marginal
    spec = marginal.MarginalProblemSpec(model, *point)
    return lambda: marginal.improved_anderson_bound(spec, gap_tol=args.gap_tol)


def _sweep(model, args):
    method = args.method
    if method == "marginal":
        if not args.m or not args.s:
            raise ValueError("sweep marginal requires --m a..b and --s a..b")
        points = [(m, s, args.mode, args.placement) for m in _parse_range(args.m)
                  for s in _parse_range(args.s) if 2 * s <= m]
        if not points:
            raise ValueError("sweep marginal has no point with 2s <= m")
    else:
        flag, text = ("--m", args.m) if method == "anderson" else ("--l", args.l)
        if not text:
            raise ValueError(f"sweep {method} requires {flag} a..b")
        points = _parse_range(text)
    bounds = [_checked_bound(model, args, method, point) for point in points]

    def row(point, bound) -> dict:
        t0 = time.perf_counter()
        try:
            report = bound()
        except Exception as e:  # an Anderson point's failure is recorded, the sweep goes on
            if method != "anderson":
                raise
            return {"model": model.name, "m": point, "D": model.D, "error": str(e)}
        return reports.sweep_row(report, time.perf_counter() - t0)

    return lambda: {"sweep": method, "model": model.name,
                    "rows": [row(point, bound) for point, bound in zip(points, bounds)]}


def _parse_marginal(text: str):
    """'m=5,s=2[,mode=..][,placement=..]' -> (m, s, mode, placement)."""
    kv = {}
    for item in text.split(","):
        key, eq, value = item.partition("=")
        if not eq or key not in ("m", "s", "mode", "placement"):
            raise ValueError(f"bad --marginal item {item!r}; "
                             "expected m=..,s=..[,mode=..][,placement=..]")
        if key in kv:
            raise ValueError(f"--marginal gives {key} twice")
        kv[key] = value
    if "m" not in kv or "s" not in kv:
        raise ValueError("--marginal needs both m and s")
    return int(kv["m"]), int(kv["s"]), kv.get("mode", "consecutive"), kv.get("placement", "middle")


def _sandwich(model, args):
    requested = [("anderson", args.anderson_m), ("moment", args.moment_l),
                 ("marginal", None if args.marginal is None else _parse_marginal(args.marginal))]
    bounds = [_checked_bound(model, args, method, point) for method, point in requested
              if point is not None]
    if not bounds:
        raise ValueError("sandwich needs at least one of --anderson-m, --moment-l, "
                         "--marginal")

    def solve() -> dict:
        lower = [bound() for bound in bounds]
        # the best certified row, or the best row when none is certified
        best = max(lower, key=lambda r: (r.certified, r.lower))
        up = upper.product_state_upper(model, restarts=args.restarts, seed=args.seed)
        return {"model": model.name, "lower": best.lower, "lower_method": best.method,
                "certified": best.certified, "upper": up, "upper_method": "product_state",
                "width": up - best.lower,
                "rows": [{"method": r.method, "bound": r.lower, "certified": r.certified,
                          "params": r.params, "diagnostics": r.diagnostics} for r in lower]}
    return solve


def _request(args):
    """Load the model and check the whole request: every sweep point and every
    sandwich method, raising ValueError on a bad one before anything is solved.
    Returns a zero-argument function that solves the request and gives the
    report's payload."""
    if args.command == "models":
        return lambda: {"models": list(BUILTIN_MODELS)}
    model = _load_model(args)
    if args.command == "sweep":
        return _sweep(model, args)
    if args.command == "sandwich":
        return _sandwich(model, args)
    if args.command == "oracle":
        upper.check_ring(model, args.n)
        return lambda: {"method": "ring_oracle", "model": model.name, "n": args.n,
                        "density": upper.ring_reference(model, args.n, tol=args.tol,
                                                        seed=args.seed),
                        "note": "exact tiny-ring value; reference, not certified"}
    if args.command == "marginal":
        return _checked_bound(model, args, "marginal", (args.m, args.s, args.mode, args.placement))
    return _checked_bound(model, args, args.command, args.m if args.command == "anderson" else args.l)


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        solve = _request(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        payload = solve()
    except (ValueError, RuntimeError) as e:  # numpy's LinAlgError is a ValueError
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    try:
        _emit(args, payload)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
