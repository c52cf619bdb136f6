"""Run one certground benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: certground is imported from `src/` of that
checkout and from nowhere else. The workload's cases run serially,
in-process, through `certground.cli.run`, in this fresh process (a closed
loop with one client). One untimed warm-up pass is followed by timed passes
until S seconds have gone by; every case of every pass is checked against
the frozen references in `workloads.py`.

--trace 0 prints the end-to-end metrics: `wall_s` (seconds per pass, see
`pass_seconds`),
`peak_rss_mb` (this process's ru_maxrss) and `setup_s` (median over several
fresh interpreters of start-up, numpy/scipy/certground import and model
construction). --trace 1 alternates untraced and traced passes and prints the
per-layer metrics of `tracing.LAYER_METRICS` (medians over traced passes),
including `trace.overhead_s`; the spans of the last traced pass are written to
perfbench/out/. The last line of stdout is the result object; the line before
it is a report with the environment, per-case outcomes and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 5
READY = "ready"


def require_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit without a result."""
    if not (SRC / "certground" / "__init__.py").is_file():
        sys.exit(f"error: no certground package under {SRC}; "
                 "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str) -> None:
    """Child mode: import everything and build the workload's models, then report."""
    require_source()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from certground import builtin_model
    from workloads import WORKLOADS
    for case in WORKLOADS[workload].cases:
        name, params = case.model
        builtin_model(name, [float(p) for p in params.split(",")] if params else [])
    print(READY, flush=True)


def measure_setup(workload: str, probes: int = SETUP_PROBES) -> list:
    """Seconds from spawning a fresh interpreter to its READY line, per probe."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--setup-probe", "--workload", workload],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line != READY:
            sys.exit(f"error: setup probe failed (exit {proc.returncode}, said {line!r})")
    return times


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6,
        "seed": seed,
    }


def run_pass(cli, cases, seed: int, tracer=None, pass_id: int = 0):
    """One serial pass over the cases: (seconds per case, failure reasons per case)."""
    from workloads import check
    outputs, seconds = [], []
    for i, case in enumerate(cases):
        argv = list(case.argv) + ["--seed", str(seed)]
        buf = io.StringIO()
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.case = f"{pass_id}:{i}"
            span = tracer.span("case")
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(buf):
                code = cli.run(argv)
        except Exception:  # a failed case is counted, the pass goes on
            outputs.append(["exception: " + traceback.format_exc(limit=3)])
        else:
            outputs.append((code, buf.getvalue()))
        seconds.append(time.perf_counter() - t0)
    failures = [out if isinstance(out, list) else check(case, *out)
                for case, out in zip(cases, outputs)]
    return seconds, failures


def pass_seconds(passes: list) -> float:
    """Seconds for one pass: the sum over cases of each case's median time.

    Taking the median per case before summing uses every case of every pass
    as a sample, which steadies the figure against interference from other
    load on the machine.
    """
    return sum(statistics.median(case) for case in zip(*passes))


def summarize(samples: list) -> dict:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it, when there is one."""
    out = {"median": statistics.median(samples), "samples": len(samples),
           "values": samples}
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    require_source()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cases = WORKLOADS[args.workload].cases

    setup = measure_setup(args.workload) if args.trace == 0 else []
    from certground import cli
    import tracing

    warm, failures = run_pass(cli, cases, args.seed)
    plain, traced, per_pass, spans = [], [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    pass_id = 1
    while (not plain or (args.trace and not traced)
           or time.perf_counter() - start < args.seconds):
        use_trace = args.trace == 1 and len(traced) <= len(plain)
        if use_trace:
            with tracer.installed():
                times, fail = run_pass(cli, cases, args.seed, tracer, pass_id)
            spans = tracer.take()
            traced.append(times)
            per_pass.append(tracing.layer_metrics(spans, sum(times)))
        else:
            times, fail = run_pass(cli, cases, args.seed)
            plain.append(times)
        failures += fail
        pass_id += 1

    attempted = len(failures)
    failed = sum(bool(f) for f in failures)
    report = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "cases": [" ".join(c.argv) for c in cases],
        "warmup_wall_s": sum(warm),
        "wall_s": {"value": pass_seconds(plain), "passes": summarize([sum(p) for p in plain])},
        "failed_frac": failed / attempted,
        "failures": [f for f in failures if f][:10],
    }
    if args.trace == 0:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        report["setup_s"] = summarize(setup)
        metrics = {
            "wall_s": (pass_seconds(plain), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
    else:
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        values = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        values["trace.overhead_s"] = pass_seconds(traced) - pass_seconds(plain)
        metrics = {name: (values[name], units[name]) for name in units}
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(spans, span_path)
        report["traced_wall_s"] = {"value": pass_seconds(traced),
                                   "passes": summarize([sum(p) for p in traced])}
        report["self_share"] = tracing.self_shares(spans, sum(traced[-1]))
        report["spans"] = str(span_path.relative_to(ROOT))

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
