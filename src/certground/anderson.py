"""The Anderson lower bound on the ground-state energy density, its
performance-guarantee width, and sweep tooling.

For a translationally invariant nearest-neighbour model, the smallest
eigenvalue of an open m^D patch gives the density lower bound
lambda_min(h_m)/(m-1)^D, with an explicit guarantee width so the true
density lies in [bound, bound + width]. The patch is solved one block at a
time (`models.charge_sectors`): a conserved S^z block when the term allows
it (one of each pair of flip partners), reduced to its reflection- and
flip-symmetric sector when the term is stoquastic, or becomes so under the
sublattice sign gauge (Heisenberg, XXZ), and each block is assembled
directly (`models.build_patch`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import eigensolver
from .models import (SYMMETRIES, ModelSpec, PatchSpec, assembly_margin, build_patch,
                     charge_sectors, divide_down, operator_norm)

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
    reorthogonalized: int        # Lanczos steps that reorthogonalized against the basis
    sectors: int                 # blocks solved
    sector_dim: int              # dimension of the largest of them
    symmetry: tuple              # reductions used, in models.SYMMETRIES order
    assembly_margin: float       # largest assembly-rounding margin subtracted from an edge

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

    The patch is solved one block at a time (`models.charge_sectors`), each
    block assembled on its own (`models.build_patch`): lambda_min and its
    certified edge are the minima over the blocks. `bound` uses the
    eigensolver's point estimate; `certified_bound` uses its lower edge,
    proven below lambda_min when every block fits DENSE_CAP and
    value - residual otherwise. Each block's edge also subtracts its
    `models.assembly_margin`, and the edge's quotient is rounded down
    (`models.divide_down`), so neither floating-point assembly, the
    eigensolver nor the division can invalidate the lower-bound claim. When a
    block exceeds DENSE_CAP the result is "unverified" whatever happens, so no
    block is then factored: all of them are solved by Lanczos alone.
    """
    t0 = time.perf_counter()
    if D not in (1, 2):
        raise ValueError("patch diagonalization supports D in {1, 2} only")
    patch = PatchSpec(m, D, "open")
    sectors = charge_sectors(model, patch.sites, D)
    prove = max(len(s) for s in sectors) <= eigensolver.DENSE_CAP
    eigs, edges, margins = [], [], []
    for sector in sectors:
        eig = eigensolver.min_eig(build_patch(model, patch, sector), tol=tol, seed=seed,
                                  prove=prove)
        margin = assembly_margin(model, patch, sector)
        eigs.append(eig)
        margins.append(margin)
        # rounded down, so the subtraction cannot lift the edge
        edges.append(float(np.nextafter(eig.lower_edge - margin, -np.inf)) if margin
                     else eig.lower_edge)
    eig = min(eigs, key=lambda e: e.value)
    edge = min(edges)
    proven = all(e.minimality == "cholesky" for e in eigs)
    width = guarantee_formula(eig.value, operator_norm(model), m, D)
    used = {name for s in sectors for name in s.symmetry}
    return AndersonResult(
        m=m, D=D,
        lambda_min_patch=eig.value,
        bound=anderson_formula(eig.value, m, D),
        guarantee_width=width,
        certified_bound=divide_down(edge, (m - 1) ** D),
        residual=eig.residual,
        converged=all(e.converged for e in eigs),
        iterations=sum(e.iterations for e in eigs),
        seconds=time.perf_counter() - t0,
        lambda_min_certified=edge,
        minimality="cholesky" if proven else "unverified",
        reorthogonalized=sum(e.reorthogonalized for e in eigs),
        sectors=len(sectors),
        sector_dim=max(len(s) for s in sectors),
        symmetry=tuple(name for name in SYMMETRIES if name in used),
        assembly_margin=max(margins),
    )


def anderson_sweep(model: ModelSpec, m_values, D: int = 1, tol: float = 1e-8,
                   seed: int = 0) -> list:
    """One AndersonResult per m, computed in order in this process; failures
    are recorded per row, the sweep continues."""
    return [_sweep_point(model, D, tol, seed, m) for m in m_values]


def _sweep_point(model, D, tol, seed, m):
    try:
        return anderson_bound(model, m, D, tol=tol, seed=seed)
    except Exception as e:  # recorded per row
        return {"m": m, "D": D, "error": str(e)}
