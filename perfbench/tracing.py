"""Span tracing for the traced benchmark run, installed from outside `src/`.

`Tracer.installed()` replaces the module attributes that certground's own
callers look up at call time (`anderson.build_patch`, `sdp.solve`, ...) with
wrappers that record one span per call: name, start, end, parent span and
case id. Spans stay in memory; `layer_metrics` turns the spans of one pass
into the per-layer metrics, and `write_spans` writes them out at the end of
a run. Nothing in `src/` is edited, and uninstalling restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from certground import anderson, eigensolver, marginal, moment, reports, sdp, upper

MB = 1e6

# (name, unit, better). BENCHMARK.json's per_layer list is checked against this
# table; README.md says which end-to-end metric each should move, on which workload.
LAYER_METRICS = (
    ("models.build_patch_s", "s", "lower"),
    ("models.patch_nnz", "count", "lower"),
    ("models.embed_on_sites_s", "s", "lower"),
    ("models.embed_on_sites_calls", "count", "lower"),
    ("eigensolver.dense_s", "s", "lower"),
    ("eigensolver.lanczos_s", "s", "lower"),
    ("eigensolver.matvec_s", "s", "lower"),
    ("eigensolver.matvecs", "count", "lower"),
    ("eigensolver.lanczos_iters", "count", "lower"),
    ("anderson.bound_s", "s", "lower"),
    ("sdp.solve_s", "s", "lower"),
    ("sdp.solve_calls", "count", "lower"),
    ("sdp.restarts", "count", "lower"),
    ("sdp.iterations", "count", "lower"),
    ("sdp.s_per_iter", "s", "lower"),
    ("sdp.real_embed_s", "s", "lower"),
    ("sdp.dual_lower_bound_s", "s", "lower"),
    ("sdp.optimal_ratio", "ratio", "higher"),
    ("sdp.schur_fallbacks", "count", "lower"),
    ("sdp.pruned_constraints", "count", "lower"),
    ("sdp.stalls", "count", "lower"),
    ("sdp.constraints", "count", "lower"),
    ("sdp.A_mb", "MB", "lower"),
    ("marginal.build_sdp_s", "s", "lower"),
    ("marginal.constraints", "count", "lower"),
    ("marginal.A_mb", "MB", "lower"),
    ("moment.build_structure_s", "s", "lower"),
    ("moment.coefficient_matrices_s", "s", "lower"),
    ("moment.variables", "count", "lower"),
    ("pauli.s", "s", "lower"),
    ("pauli.multiply_calls", "count", "lower"),
    ("pauli.hermitian_class_calls", "count", "lower"),
    ("upper.product_state_s", "s", "lower"),
    ("reports.emit_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

CASE = "case"
PAULI_SPANS = ("pauli.multiply", "pauli.hermitian_class", "pauli.dagger")


def _problem_size(problem) -> dict:
    return {"constraints": int(problem.n_constraints),
            "A_bytes": int(sum(a.nbytes for a in problem.A))}


def _solve_before(args, kwargs, info):
    info.update(_problem_size(args[0]))
    return args, kwargs


def _solve_after(result, info):
    diag = result.diagnostics
    info.update(iterations=int(result.iterations), status=result.status,
                schur_fallback=bool(diag.get("schur_fallback")),
                stalled=bool(diag.get("stalled")),
                pruned=int(diag.get("pruned_constraints", 0)))


class Tracer:
    """Spans kept in memory as [name, start, end, parent, case, info] lists."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.case = None

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.case, {}]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.open(name)
        try:
            yield
        finally:
            self.close(rec)

    def take(self) -> list:
        """Return the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs, rec[5])
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(result, rec[5])
            return result
        return wrapper

    def _lanczos_before(self, args, kwargs, info):
        op = args[0]
        apply = op if callable(op) else (lambda v: op @ v)
        return (self._wrap(apply, "eigensolver.matvec"),) + args[1:], kwargs

    def _wrap_points(self):
        def nnz(result, info):
            info["nnz"] = int(result.nnz)

        def iterations(result, info):
            info["iterations"] = int(result.iterations)

        def problem(result, info):
            info.update(_problem_size(result))

        def variables(result, info):
            info["variables"] = int(result.n_variables)

        return (
            (anderson, "anderson_bound", "anderson.anderson_bound", None, None),
            (anderson, "build_patch", "models.build_patch", None, nnz),
            (marginal, "build_patch", "models.build_patch", None, nnz),
            (marginal, "embed_on_sites", "models.embed_on_sites", None, None),
            (eigensolver, "min_eig_lanczos", "eigensolver.lanczos",
             self._lanczos_before, iterations),
            (eigensolver, "min_eig_dense_certified", "eigensolver.dense", None, None),
            (marginal, "build_marginal_sdp", "marginal.build_marginal_sdp", None, problem),
            (sdp, "solve", "sdp.solve", _solve_before, _solve_after),
            (sdp, "real_embed", "sdp.real_embed", None, None),
            (sdp, "dual_lower_bound", "sdp.dual_lower_bound", None, None),
            (moment, "build_structure", "moment.build_structure", None, variables),
            (moment, "coefficient_matrices", "moment.coefficient_matrices", None, None),
            (moment, "multiply", "pauli.multiply", None, None),
            (moment, "hermitian_class", "pauli.hermitian_class", None, None),
            (moment, "dagger", "pauli.dagger", None, None),
            (upper, "product_state_upper", "upper.product_state_upper", None, None),
            (reports, "emit_json", "reports.emit", None, None),
            (reports, "emit_csv", "reports.emit", None, None),
        )

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        saved = []
        try:
            for module, attr, name, before, after in self._wrap_points():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, before, after))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times(spans) -> list:
    """Per span: its duration minus the time its direct children cover."""
    children = [0.0] * len(spans)
    for name, start, end, parent, case, info in spans:
        if parent is not None:
            children[parent] += end - start
    return [end - start - children[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans, pass_wall: float) -> dict:
    """Every LAYER_METRICS value for one traced pass except trace.overhead_s."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    for (name, start, end, *_rest), st in zip(spans, selfs):
        self_s[name] += st
        total_s[name] += end - start
        calls[name] += 1

    def infos(name):
        return [s[5] for s in spans if s[0] == name]

    top_solves = [s for s in spans if s[0] == "sdp.solve"
                  and (s[3] is None or spans[s[3]][0] != "sdp.solve")]
    solve_info = [s[5] for s in top_solves]
    iters = sum(i["iterations"] for i in solve_info)
    solve_wall = sum(s[2] - s[1] for s in top_solves)
    covered = sum(s[2] - s[1] for s in spans
                  if s[3] is not None and spans[s[3]][0] == CASE)
    return {
        "models.build_patch_s": total_s["models.build_patch"],
        "models.patch_nnz": sum(i["nnz"] for i in infos("models.build_patch")),
        "models.embed_on_sites_s": total_s["models.embed_on_sites"],
        "models.embed_on_sites_calls": calls["models.embed_on_sites"],
        "eigensolver.dense_s": self_s["eigensolver.dense"],
        "eigensolver.lanczos_s": self_s["eigensolver.lanczos"],
        "eigensolver.matvec_s": total_s["eigensolver.matvec"],
        "eigensolver.matvecs": calls["eigensolver.matvec"],
        "eigensolver.lanczos_iters": sum(i["iterations"] for i in infos("eigensolver.lanczos")),
        "anderson.bound_s": self_s["anderson.anderson_bound"],
        "sdp.solve_s": self_s["sdp.solve"],
        "sdp.solve_calls": calls["sdp.solve"],
        "sdp.restarts": calls["sdp.solve"] - len(top_solves),
        "sdp.iterations": iters,
        "sdp.s_per_iter": solve_wall / iters if iters else 0.0,
        "sdp.real_embed_s": total_s["sdp.real_embed"],
        "sdp.dual_lower_bound_s": total_s["sdp.dual_lower_bound"],
        "sdp.optimal_ratio": (sum(i["status"] == "optimal" for i in solve_info)
                              / len(solve_info) if solve_info else 0.0),
        "sdp.schur_fallbacks": sum(i["schur_fallback"] for i in solve_info),
        "sdp.pruned_constraints": sum(i["pruned"] for i in solve_info),
        "sdp.stalls": sum(i["stalled"] for i in solve_info),
        "sdp.constraints": sum(i["constraints"] for i in solve_info),
        "sdp.A_mb": sum(i["A_bytes"] for i in solve_info) / MB,
        "marginal.build_sdp_s": self_s["marginal.build_marginal_sdp"],
        "marginal.constraints": sum(i["constraints"]
                                    for i in infos("marginal.build_marginal_sdp")),
        "marginal.A_mb": sum(i["A_bytes"] for i in infos("marginal.build_marginal_sdp")) / MB,
        "moment.build_structure_s": self_s["moment.build_structure"],
        "moment.coefficient_matrices_s": total_s["moment.coefficient_matrices"],
        "moment.variables": sum(i["variables"] for i in infos("moment.build_structure")),
        "pauli.s": sum(total_s[n] for n in PAULI_SPANS),
        "pauli.multiply_calls": calls["pauli.multiply"],
        "pauli.hermitian_class_calls": calls["pauli.hermitian_class"],
        "upper.product_state_s": total_s["upper.product_state_upper"],
        "reports.emit_s": total_s["reports.emit"],
        "cli.self_s": self_s[CASE],
        "trace.coverage": covered / pass_wall,
    }


def self_shares(spans, pass_wall: float) -> dict:
    """Self time of each span name as a share of the pass wall time."""
    out = defaultdict(float)
    for (name, *_rest), st in zip(spans, self_times(spans)):
        out[name] += st / pass_wall
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def write_spans(spans, path) -> None:
    with open(path, "w") as f:
        for i, (name, start, end, parent, case, info) in enumerate(spans):
            f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                "parent": parent, "case": case, **info}) + "\n")
