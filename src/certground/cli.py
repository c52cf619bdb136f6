"""certground command line: certified lower bounds for translation-invariant
nearest-neighbour lattice models.

Subcommands: anderson, marginal, moment, sweep, sandwich, models, oracle.
Exit codes: 0 success, 2 validation error, 3 solver failure. Reports go to
stdout as JSON unless --json/--csv paths are given.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from . import anderson, marginal, moment, reports, upper
from .models import BUILTIN_MODELS, ModelSpec, builtin_model, parse_model


class ValidationError(Exception):
    pass


def _parse_range(text: str) -> list:
    """Inclusive 'a..b' ranges or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValidationError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _load_model(args) -> ModelSpec:
    if args.model_file:
        try:
            with open(args.model_file) as f:
                return parse_model(f.read())
        except (OSError, ValueError) as e:
            raise ValidationError(f"cannot load model file: {e}")
    if not args.model:
        raise ValidationError("one of --model or --model-file is required")
    params = [float(p) for p in args.params.split(",")] if args.params else []
    try:
        return builtin_model(args.model, params, D=args.dim)
    except ValueError as e:
        raise ValidationError(str(e))


def _emit(args, payload, csv_rows=None, csv_columns=None):
    if getattr(args, "csv", None):
        if csv_rows is None:
            raise ValidationError("this subcommand has no CSV form")
        reports.emit_csv(csv_rows, csv_columns, args.csv)
        return
    text = reports.emit_json(payload, getattr(args, "json", None))
    if not getattr(args, "json", None):
        sys.stdout.write(text)


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
    return value


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is less than 1")
    return value


def _add_common(p):
    p.add_argument("--model", choices=BUILTIN_MODELS, help="builtin model name")
    p.add_argument("--params", default="", help="comma-separated model parameters")
    p.add_argument("--model-file", help="JSON model document (see README)")
    p.add_argument("--dim", type=int, default=1, help="lattice dimension D")
    p.add_argument("--tol", type=_positive, default=1e-8, help="eigensolver tolerance")
    p.add_argument("--gap-tol", type=_positive, default=1e-9, help="SDP duality-gap tolerance")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--restarts", type=_at_least_one, default=8,
                   help="product-state multistarts (at least 1)")

    p = sub.add_parser("models", help="list builtin models")
    p.add_argument("--json", help="write the JSON report to this path")

    p = sub.add_parser("oracle", help="exact tiny-ring energy density reference")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="ring size")
    return ap


def _solve(fn):
    """`fn` as a solve. Every request is checked before the first solve starts,
    so a ValueError from inside one (numpy or scipy on the solver's own data)
    is a solver failure, exit 3, not a validation error."""
    @functools.wraps(fn)
    def solve(*args):
        try:
            return fn(*args)
        except ValueError as e:
            raise RuntimeError(str(e)) from e
    return solve


@_solve
def _anderson(model, args, m):
    return anderson.anderson_bound(model, m, args.dim, tol=args.tol, seed=args.seed)


@_solve
def _marginal(args, spec):
    return marginal.improved_anderson_bound(spec, gap_tol=args.gap_tol)


@_solve
def _moment(model, args, window):
    return moment.ti_moment_bound(model, window, gap_tol=args.gap_tol)


@_solve
def _product_state(model, args):
    return upper.product_state_upper(model, restarts=args.restarts, seed=args.seed)


@_solve
def _oracle(model, args):
    return upper.ring_reference(model, args.n, tol=args.tol, seed=args.seed)


def _timed_row(solve, *point) -> dict:
    """`solve(*point)`'s report as a sweep row, timed here."""
    t0 = time.perf_counter()
    report = solve(*point)
    return reports.sweep_row(report, time.perf_counter() - t0)


def _run_sweep(model, args):
    if args.method == "anderson":
        if not args.m:
            raise ValidationError("sweep anderson requires --m a..b")
        ms = _parse_range(args.m)
        for m in ms:  # the whole range, before any solve
            anderson.open_patch(model, m, args.dim)
        rows = []
        for m in ms:
            try:
                rows.append(_timed_row(_anderson, model, args, m))
            except Exception as e:  # recorded per row, the sweep continues
                rows.append({"m": m, "D": args.dim, "error": str(e)})
    elif args.method == "moment":
        if not args.l:
            raise ValidationError("sweep moment requires --l a..b")
        windows = _parse_range(args.l)
        for window in windows:  # the whole range, before any solve
            moment.check_request(model, window)
        rows = [_timed_row(_moment, model, args, window) for window in windows]
    else:
        if not args.m or not args.s:
            raise ValidationError("sweep marginal requires --m a..b and --s a..b")
        specs = [marginal.MarginalProblemSpec(model, m, s, args.mode, args.placement)
                 for m in _parse_range(args.m) for s in _parse_range(args.s)
                 if 2 * s <= m]  # the whole range, before any solve
        rows = [_timed_row(_marginal, args, spec) for spec in specs]
    return rows, reports.CSV_COLUMNS[args.method]


def _parse_marginal(text: str):
    """'m=5,s=2[,mode=..][,placement=..]' -> (m, s, mode, placement)."""
    kv = {}
    for item in text.split(","):
        key, eq, value = item.partition("=")
        if not eq or key not in ("m", "s", "mode", "placement"):
            raise ValidationError(f"bad --marginal item {item!r}; "
                                  "expected m=..,s=..[,mode=..][,placement=..]")
        kv[key] = value
    if "m" not in kv or "s" not in kv:
        raise ValidationError("--marginal needs both m and s")
    return int(kv["m"]), int(kv["s"]), kv.get("mode", "consecutive"), kv.get("placement", "middle")


def _run_sandwich(model, args):
    if not (args.anderson_m or args.moment_l or args.marginal):
        raise ValidationError("sandwich needs at least one of --anderson-m, "
                              "--moment-l, --marginal")
    # every requested method is checked before the first solve
    if args.anderson_m:
        anderson.open_patch(model, args.anderson_m, args.dim)
    if args.moment_l:
        moment.check_request(model, args.moment_l)
    spec = (marginal.MarginalProblemSpec(model, *_parse_marginal(args.marginal))
            if args.marginal else None)
    lower = []
    if args.anderson_m:
        lower.append(_anderson(model, args, args.anderson_m))
    if args.moment_l:
        lower.append(_moment(model, args, args.moment_l))
    if spec:
        lower.append(_marginal(args, spec))
    lower_rows = [{"method": r.method, "bound": r.lower, "certified": r.certified,
                   "params": r.params, "diagnostics": r.diagnostics} for r in lower]
    up = _product_state(model, args)
    report = upper.SandwichReport.from_rows(model.name, lower_rows, up)
    return {"model": report.model, "lower": report.lower,
            "lower_method": report.lower_method, "certified": report.certified,
            "upper": report.upper,
            "upper_method": "product_state", "width": report.width,
            "rows": list(report.rows)}


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2
    try:
        if args.command == "models":
            _emit(args, {"models": list(BUILTIN_MODELS)})
            return 0
        model = _load_model(args) if args.command != "models" else None
        if args.command == "anderson":
            anderson.open_patch(model, args.m, args.dim)
            _emit(args, _anderson(model, args, args.m))
        elif args.command == "marginal":
            _emit(args, _marginal(args, marginal.MarginalProblemSpec(
                model, args.m, args.s, args.mode, args.placement)))
        elif args.command == "moment":
            moment.check_request(model, args.l)
            _emit(args, _moment(model, args, args.l))
        elif args.command == "sweep":
            rows, columns = _run_sweep(model, args)
            _emit(args, {"sweep": args.method, "model": model.name, "rows": rows},
                  csv_rows=rows, csv_columns=columns)
        elif args.command == "sandwich":
            _emit(args, _run_sandwich(model, args))
        elif args.command == "oracle":
            upper.check_ring(model, args.n)
            val = _oracle(model, args)
            _emit(args, {"method": "ring_oracle", "model": model.name, "n": args.n,
                         "density": val,
                         "note": "exact tiny-ring value; reference, not certified"})
        return 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
