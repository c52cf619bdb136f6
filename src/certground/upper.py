"""Variational upper bounds and display references to sandwich the certified
lower bounds.

The upper bound is deliberately weak: a two-site-periodic product state
optimized by alternating d x d eigenproblems with multistart. The finite-ring
reference is display-only; ring densities can undershoot the asymptotic
value and are never reported as certified.
"""

from __future__ import annotations

import numpy as np

from .eigensolver import min_eig
from .models import ModelSpec, build_ring, max_qubits


def _bond_energy(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = np.kron(a, b)
    ba = np.kron(b, a)
    return float(np.real(np.vdot(ab, h @ ab) + np.vdot(ba, h @ ba)) / 2.0)


def _site_effective(h: np.ndarray, other: np.ndarray, d: int) -> np.ndarray:
    """Effective one-site operator: average of h with `other` on the partner
    site, over both bond orientations."""
    h = np.asarray(h, dtype=complex)
    rho = np.outer(other.conj(), other)
    t = h.reshape(d, d, d, d)  # (row left, row right, col left, col right)
    right_traced = np.einsum("arbs,rs->ab", t, rho)   # other on the right site
    left_traced = np.einsum("rasb,rs->ab", t, rho)    # other on the left site
    return (right_traced + left_traced) / 2.0


def product_state_upper(model: ModelSpec, restarts: int = 8, seed: int = 0,
                        max_sweeps: int = 200, tol: float = 1e-13) -> float:
    """Best two-site-periodic product-state energy density.

    Alternating optimization: with one sublattice vector fixed, the other's
    optimal vector is the ground vector of a d x d effective operator. The
    result is the per-site energy of an actual product state, hence a
    rigorous upper bound on the density; multistart mitigates local minima.
    For lattice dimension D the per-bond value is multiplied by D. Raises
    ValueError unless `restarts` is at least 1.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    d = model.d
    h = np.asarray(model.term, dtype=complex)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        prev = _bond_energy(h, a, b)
        for _ in range(max_sweeps):
            w, v = np.linalg.eigh(_site_effective(h, b, d))
            a = v[:, 0]
            w, v = np.linalg.eigh(_site_effective(h, a, d))
            b = v[:, 0]
            cur = _bond_energy(h, a, b)
            if prev - cur < tol * max(1.0, abs(cur)):
                prev = cur
                break
            prev = cur
        best = min(best, prev)
    return model.D * best


def ring_reference(model: ModelSpec, n: int, tol: float = 1e-10, seed: int = 0) -> float:
    """Finite periodic-ring density lambda_min/n. Reference only, NOT a
    certified bound in either direction.

    This is also the exact optimum of the unrelaxed convex program over the
    full ring state (the tiny-n oracle behind `certground oracle`). Rings
    are one-dimensional, so a model with D != 1 is rejected.
    """
    check_ring(model, n)
    return min_eig(build_ring(model, n), tol=tol, seed=seed).value / n


def check_ring(model: ModelSpec, n: int) -> None:
    """ValueError unless `ring_reference` can solve the n-site ring: D = 1,
    n >= 2 and at most 24 qubit equivalents (fewer when `max_qubits()` says so)."""
    if model.D != 1:
        raise ValueError("the ring reference is one-dimensional")
    if n < 2:
        raise ValueError("ring size n must be >= 2")
    if n * np.log2(model.d) > min(max_qubits(), 24):
        raise ValueError("ring reference capped at 24 qubit equivalents")

