"""The Anderson lower bound on the ground-state energy density, its
performance-guarantee width.

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

import numpy as np

from . import eigensolver
from .models import (SYMMETRIES, ModelSpec, PatchSpec, assembly_margin, build_patch,
                     charge_sectors, divide_down, operator_norm)
from .reports import BoundReport

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


def open_patch(m: int, D: int) -> PatchSpec:
    """The open m^D patch that `anderson_bound` solves; ValueError unless D is
    1 or 2 and m >= 2."""
    if D not in (1, 2):
        raise ValueError("patch diagonalization supports D in {1, 2} only")
    return PatchSpec(m, D, "open")


def anderson_bound(model: ModelSpec, m: int, D: int = 1, tol: float = 1e-8,
                   seed: int = 0) -> BoundReport:
    """The Anderson bound with guarantee for one patch size.

    The patch is solved one block at a time (`models.charge_sectors`), each
    block assembled on its own (`models.build_patch`): lambda_min and its
    certified edge are the minima over the blocks. The diagnostics'
    `bound_point_estimate` uses the eigensolver's point estimate; `lower` uses
    its lower edge, proven below lambda_min when every block fits DENSE_CAP
    and value - residual otherwise, so the report is `certified` exactly when
    `minimality` is "cholesky". Each block's edge also subtracts its
    `models.assembly_margin`, and the edge's quotient is rounded down
    (`models.divide_down`), so neither floating-point assembly, the
    eigensolver nor the division can invalidate the lower-bound claim. When a
    block exceeds DENSE_CAP the result is "unverified" whatever happens, so no
    block is then factored: all of them are solved by Lanczos alone.
    """
    patch = open_patch(m, D)
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
    used = {name for s in sectors for name in s.symmetry}
    return BoundReport(
        method="anderson", model=model.name,
        params={"m": m, "D": D, "tol": tol, "seed": seed},
        lower=divide_down(edge, (m - 1) ** D), certified=proven,
        guarantee_width=guarantee_formula(eig.value, operator_norm(model), m, D),
        diagnostics={"bound_point_estimate": anderson_formula(eig.value, m, D),
                     "lambda_min_patch": eig.value,
                     "residual": eig.residual,
                     "iterations": sum(e.iterations for e in eigs),
                     "minimality": "cholesky" if proven else "unverified",
                     "lambda_min_certified": edge,
                     "reorthogonalized_steps": sum(e.reorthogonalized for e in eigs),
                     "sectors": len(sectors),
                     "sector_dim": max(len(s) for s in sectors),
                     "symmetry": [name for name in SYMMETRIES if name in used],
                     "assembly_margin": max(margins)})
