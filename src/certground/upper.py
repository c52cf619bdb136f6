"""Variational upper bounds and display references to sandwich the certified
lower bounds.

The upper bound is deliberately weak: a two-site-periodic product state
optimized by alternating d x d eigenproblems with multistart, all restarts
in one batch. The finite-ring reference is display-only; ring densities can
undershoot the asymptotic value and are never reported as certified.
"""

from __future__ import annotations

import numpy as np

from .eigensolver import min_eig
from .models import ModelSpec, PatchSpec, build_patch, max_qubits

MAX_RESTARTS = 100_000  # each batch array holds restarts x d^2 entries


def _bond_energies(h: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Per restart (a row of `ab`, holding a and b), the mean of <ab|h|ab> and
    <ba|h|ba>, from the same BLAS products as `vdot(ab, h @ ab)`."""
    x = (ab[:, :, :, None] * ab[:, ::-1, None, :]).reshape(len(ab), 2, -1)
    e = (x.conj()[..., None, :] @ (h @ x[..., None]))[..., 0, 0]
    return (e[:, 0] + e[:, 1]).real / 2.0


def _ground_vectors(h: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Per restart, the ground vector of the one-site operator: h with `other`
    on the partner site, averaged over both bond orientations."""
    t = h.reshape((other.shape[1],) * 4)  # (row left, row right, col left, col right)
    rho = other.conj()[:, :, None] * other[:, None, :]
    eff = (np.einsum("arbs,nrs->nab", t, rho) + np.einsum("rasb,nrs->nab", t, rho)) / 2.0
    return np.linalg.eigh(eff)[1][:, :, 0]


def product_state_upper(model: ModelSpec, restarts: int = 8, seed: int = 0,
                        max_sweeps: int = 200, tol: float = 1e-13) -> float:
    """Best two-site-periodic product-state energy density.

    Alternating optimization: with one sublattice vector fixed, the other's
    optimal vector is the ground vector of a d x d effective operator. The
    result is the per-site energy of an actual product state, hence a
    rigorous upper bound on the density; multistart mitigates local minima.
    The restarts run as one batch; each stops at the first sweep that lowers
    its energy by less than tol * max(1, |energy|). For lattice dimension D
    the per-bond value is multiplied by D. Raises ValueError unless
    1 <= restarts <= MAX_RESTARTS.
    """
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValueError(f"restarts must be at least 1 and at most {MAX_RESTARTS}")
    h = np.asarray(model.term, dtype=complex)
    z = np.random.default_rng(seed).standard_normal((restarts, 2, 2, model.d))
    ab = z[:, :, 0] + 1j * z[:, :, 1]  # z: restart, a|b, re|im, site; ab: restart, a|b, site
    sq = ab.real[..., None, :] @ ab.real[..., None] + ab.imag[..., None, :] @ ab.imag[..., None]
    ab /= np.sqrt(sq)[..., 0]  # each norm as numpy.linalg.norm computes it
    energy = _bond_energies(h, ab)
    live = np.arange(restarts)  # the restarts still sweeping
    for _ in range(max_sweeps):
        ab[:, 0] = _ground_vectors(h, ab[:, 1])
        ab[:, 1] = _ground_vectors(h, ab[:, 0])
        cur = _bond_energies(h, ab)
        going = ~(energy[live] - cur < tol * np.maximum(1.0, np.abs(cur)))
        energy[live] = cur
        live, ab = live[going], ab[going]
        if not len(live):
            break
    return model.D * float(energy.min())


def ring_reference(model: ModelSpec, n: int, tol: float = 1e-10, seed: int = 0) -> float:
    """Finite periodic-ring density lambda_min/n. Reference only, NOT a
    certified bound in either direction.

    This is also the exact optimum of the unrelaxed convex program over the
    full ring state (the tiny-n oracle behind `certground oracle`). Rings
    are one-dimensional, so a model with D != 1 is rejected.
    """
    check_ring(model, n)
    ring = build_patch(model, PatchSpec(n, 1, "periodic"))
    return min_eig(ring, tol=tol, seed=seed).value / n


def check_ring(model: ModelSpec, n: int) -> None:
    """ValueError unless `ring_reference` can solve the n-site ring: D = 1,
    n >= 2 and at most 24 qubit equivalents (fewer when `max_qubits()` says so)."""
    if model.D != 1:
        raise ValueError("the ring reference is one-dimensional")
    if n < 2:
        raise ValueError("ring size n must be >= 2")
    if n * np.log2(model.d) > min(max_qubits(), 24):
        raise ValueError("ring reference capped at 24 qubit equivalents")

