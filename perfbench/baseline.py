"""Re-measure the ROADMAP "Baseline" entries and flag the ones more than 25% off.

    python3 perfbench/baseline.py > perfbench/BASELINE.md

Each entry runs once, after a small untimed warm-up command, in its own fresh
interpreter, through `certground.cli.run` with the layers traced (for solver
status, pruning and stalls). This is a report, not a gate: it takes a few minutes and is not
part of the timed benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

TOLERANCE = 0.25

# run untimed before the measured command, so that lazy imports and BLAS
# start-up are not charged to it
WARMUP = {
    "anderson": "anderson --model heisenberg --m 10",
    "marginal": "marginal --model heisenberg --m 4 --s 1",
    "moment": "moment --model heisenberg --l 2",
}

# (command line, ROADMAP wall seconds, ROADMAP peak RSS in MB or None)
ENTRIES = (
    ("anderson --model heisenberg --m 11", 0.87, None),
    ("anderson --model heisenberg --m 12", 6.85, None),
    ("anderson --model heisenberg --m 13", 0.05, None),
    ("anderson --model heisenberg --m 15", 0.22, None),
    ("anderson --model heisenberg --m 18", 2.6, 1150.0),
    ("marginal --model heisenberg --m 6 --s 3", 19.0, None),
    ("marginal --model heisenberg --m 7 --s 2", 11.0, None),
    ("marginal --model heisenberg --m 8 --s 2", 51.0, None),
    ("moment --model heisenberg --l 4", 39.0, None),
)


def measure(cmd: str) -> dict:
    """Child mode: run one command line, return its wall time, RSS and SDP facts."""
    import run
    run.require_source()
    import tracing
    from certground import cli
    tracer = tracing.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(WARMUP[cmd.split()[0]].split())
    buf = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.run(cmd.split())
        wall = time.perf_counter() - t0
    solves = [s[5] for s in tracer.take() if s[0] == "sdp.solve"]
    report = json.loads(buf.getvalue()) if code == 0 else {}
    return {"exit": code, "wall_s": wall, "lower": report.get("lower"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "sdp": [{k: i.get(k) for k in ("constraints", "A_bytes", "status", "iterations",
                                           "stalled", "schur_fallback", "pruned")}
                    for i in solves]}


def _off(value: float, ref: float | None) -> str:
    if ref is None:
        return ""
    share = value / ref - 1.0
    return f"{share:+.0%}" + (" **off**" if abs(share) > TOLERANCE else "")


def main() -> int:
    import numpy
    import scipy
    print("| command | exit | lower | ROADMAP s | measured s | off "
          "| ROADMAP MB | measured MB | off | SDP |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for cmd, ref_s, ref_mb in ENTRIES:
        proc = subprocess.run([sys.executable, __file__, "--one", cmd],
                              capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout.splitlines()[-1])
        sdp = "; ".join(f"{s['constraints']} cons, A {s['A_bytes'] / 1e6:.0f} MB, "
                        f"{s['status']}, {s['iterations']} it"
                        + (", stalled" if s["stalled"] else "")
                        + (", schur fallback" if s["schur_fallback"] else "")
                        + (f", pruned {s['pruned']}" if s["pruned"] else "")
                        for s in got["sdp"])
        print(f"| `{cmd}` | {got['exit']} | {got['lower']} | {ref_s} | {got['wall_s']:.2f} | {_off(got['wall_s'], ref_s)} "
              f"| {ref_mb or ''} | {got['peak_rss_mb']:.0f} | {_off(got['peak_rss_mb'], ref_mb)} "
              f"| {sdp} |", flush=True)
    print(f"\nPython {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}.")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure(sys.argv[2])))
        sys.exit(0)
    sys.exit(main())
