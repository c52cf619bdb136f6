"""The Anderson lower bound on the ground-state energy density, its
performance-guarantee width, and sweep tooling.

For a translationally invariant nearest-neighbour model, the smallest
eigenvalue of an open m^D patch gives the density lower bound
lambda_min(h_m)/(m-1)^D, with an explicit guarantee width so the true
density lies in [bound, bound + width].
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import eigensolver
from .models import ModelSpec, PatchSpec, build_patch, operator_norm

ANDERSON_CSV_COLUMNS = ("model", "D", "m", "lambda_min_patch", "bound",
                        "certified_bound", "guarantee_width", "residual", "seconds")


@dataclass(frozen=True)
class AndersonResult:
    m: int
    D: int
    lambda_min_patch: float
    bound: float
    guarantee_width: float
    certified_bound: float
    residual: float
    converged: bool
    iterations: int
    seconds: float
    lambda_min_certified: float  # the lower edge certified_bound is computed from
    minimality: str              # "cholesky" (proven) or "unverified"

    def csv_row(self, model_name: str) -> dict:
        return {
            "model": model_name, "D": self.D, "m": self.m,
            "lambda_min_patch": self.lambda_min_patch, "bound": self.bound,
            "certified_bound": self.certified_bound,
            "guarantee_width": self.guarantee_width,
            "residual": self.residual, "seconds": self.seconds,
        }


def anderson_formula(lambda_min_patch: float, m: int, D: int) -> float:
    """The density bound lambda_min(h_m)/(m-1)^D; valid for any D."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return lambda_min_patch / (m - 1) ** D


def guarantee_formula(lambda_min_patch: float, h_norm: float, m: int, D: int) -> float:
    """Guarantee width: D/m * ||h|| - lambda_min(h_m) (1/(m-1)^D - 1/m^D)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return D / m * h_norm - lambda_min_patch * (1.0 / (m - 1) ** D - 1.0 / m ** D)


def anderson_bound(model: ModelSpec, m: int, D: int = 1, tol: float = 1e-8,
                   seed: int = 0) -> AndersonResult:
    """The Anderson bound with guarantee for one patch size.

    `bound` uses the eigensolver's point estimate; `certified_bound` uses
    its lower edge, proven below lambda_min up to DENSE_CAP and
    value - residual above it, so floating point cannot invalidate the
    lower-bound claim.
    """
    t0 = time.perf_counter()
    if D not in (1, 2):
        raise ValueError("patch diagonalization supports D in {1, 2} only")
    h = build_patch(model, PatchSpec(m, D, "open"))
    eig = eigensolver.min_eig(h, tol=tol, seed=seed)
    width = guarantee_formula(eig.value, operator_norm(model), m, D)
    return AndersonResult(
        m=m, D=D,
        lambda_min_patch=eig.value,
        bound=anderson_formula(eig.value, m, D),
        guarantee_width=width,
        certified_bound=anderson_formula(eig.lower_edge, m, D),
        residual=eig.residual,
        converged=eig.converged,
        iterations=eig.iterations,
        seconds=time.perf_counter() - t0,
        lambda_min_certified=eig.lower_edge,
        minimality=eig.minimality,
    )


def anderson_sweep(model: ModelSpec, m_values, D: int = 1, tol: float = 1e-8,
                   seed: int = 0, jobs: int = 1) -> list:
    """One AndersonResult per m; failures are recorded per row, the sweep continues."""
    m_values = list(m_values)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(partial(_sweep_point, model, D, tol, seed), m_values))
    return [_sweep_point(model, D, tol, seed, m) for m in m_values]


def _sweep_point(model, D, tol, seed, m):
    try:
        return anderson_bound(model, m, D, tol=tol, seed=seed)
    except Exception as e:  # recorded per row
        return {"m": m, "D": D, "error": str(e)}
