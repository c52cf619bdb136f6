"""Self-tests of the benchmark harness on tiny cases (a few seconds).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from certground import cli, eigensolver, sdp  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Case, chain_bound, check  # noqa: E402

TINY = (
    Case(("anderson", "--model", "heisenberg", "--m", "6"), {"lower": chain_bound(6)}),
    Case(("anderson", "--model", "heisenberg", "--m", "13"), {"lower": chain_bound(13)}),
    Case(("sandwich", "--model", "tfim", "--params", "1", "--anderson-m", "5"),
         {"lower": -1.30618762698, "upper": -1.25}),
    Case(("marginal", "--model", "heisenberg", "--m", "4", "--s", "1"),
         {"lower": -1.0}),
    Case(("moment", "--model", "heisenberg", "--l", "2"), {"lower": -1.5}),
)


@pytest.fixture(scope="module")
def traced_pass():
    tracer = tracing.Tracer()
    with tracer.installed():
        times, failures = run.run_pass(cli, TINY, seed=0, tracer=tracer)
    return tracer.take(), sum(times), failures


def test_tiny_cases_pass(traced_pass):
    _, _, failures = traced_pass
    assert failures == [[]] * len(TINY)


def test_wrong_reference_counts_as_failed():
    wrong = Case(TINY[0].argv, {"lower": chain_bound(6) + 1e-6})
    _, failures = run.run_pass(cli, (TINY[0], wrong), seed=0)
    assert not failures[0]
    assert failures[1] and "differs from reference" in failures[1][0]
    assert sum(bool(f) for f in failures) / len(failures) > 0


def test_bound_above_exact_density_fails():
    loose = Case(TINY[0].argv, {"lower": -0.5})
    assert any("e_min" in p for p in check(loose, 0, json.dumps({"lower": -0.5})))


def test_self_time_never_exceeds_parent(traced_pass):
    spans, wall, _ = traced_pass
    selfs = tracing.self_times(spans)
    for (name, start, end, parent, case, _info), st in zip(spans, selfs):
        assert end >= start
        assert -1e-9 <= st <= end - start + 1e-12, name
        if parent is not None:
            pstart, pend = spans[parent][1], spans[parent][2]
            assert pstart <= start and end <= pend, name
            assert spans[parent][4] == case
    roots = sum(s[2] - s[1] for s in spans if s[3] is None)
    assert roots <= wall
    # self times partition the root spans: nothing counted twice or lost
    assert abs(sum(selfs) - roots) < 1e-6


def test_layer_metrics_cover_the_table(traced_pass):
    spans, wall, _ = traced_pass
    got = tracing.layer_metrics(spans, wall)
    names = {name for name, *_ in tracing.LAYER_METRICS}
    assert set(got) | {"trace.overhead_s"} == names
    assert got["eigensolver.dense_s"] > 0 and got["eigensolver.lanczos_s"] > 0
    assert got["eigensolver.matvecs"] >= got["eigensolver.lanczos_iters"] > 0
    assert got["sdp.solve_calls"] >= 2 and got["pauli.multiply_calls"] == 16 * 16
    assert 0.5 < got["trace.coverage"] <= 1.0


def test_uninstall_restores_originals():
    before = (sdp.solve, eigensolver.min_eig_lanczos)
    with tracing.Tracer().installed():
        assert sdp.solve is not before[0]
    assert (sdp.solve, eigensolver.min_eig_lanczos) == before


def test_dependent_constraints_restart_once():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 4))
    h = (b + b.T) / 2
    # the trace constraint twice: exactly dependent and consistent
    prob = sdp.SdpProblem([4], [h], [np.stack([np.eye(4), np.eye(4)])], np.array([1.0, 1.0]))
    tracer = tracing.Tracer()
    with tracer.installed():
        t0 = tracing.time.perf_counter()
        sol = sdp.solve(prob)
        wall = tracing.time.perf_counter() - t0
    assert sol.status == "optimal"
    got = tracing.layer_metrics(tracer.take(), wall)
    assert got["sdp.restarts"] == 1
    assert got["sdp.solve_calls"] == 2
    assert got["sdp.pruned_constraints"] == 1


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(metric) for metric in tracing.LAYER_METRICS]


def test_exits_without_result_when_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "moment",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
