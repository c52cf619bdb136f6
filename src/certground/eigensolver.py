"""Smallest-eigenvalue solvers: dense for small operators, matrix-free
Lanczos with full reorthogonalization for large sparse patches. `min_eig`
is the one entry point that chooses between them.

The Lanczos result carries an explicitly recomputed residual; `value` is a
Rayleigh quotient (an upper bound on the smallest eigenvalue) and
`value - residual` is the lower edge used for certified bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

DENSE_CAP = 1 << 12
_BASIS_ROWS = 32  # initial Lanczos basis capacity; doubled when full


@dataclass(frozen=True)
class EigResult:
    value: float
    residual: float
    iterations: int
    converged: bool

    @property
    def lower_edge(self) -> float:
        """Certified lower edge value - residual."""
        return self.value - self.residual


def min_eig_dense_certified(m) -> EigResult:
    """Dense smallest eigenpair with an explicit residual for certification.

    Only the lowest eigenpair is computed; the Rayleigh quotient and the
    residual are recomputed from the returned vector. Sized for dimensions up
    to DENSE_CAP; `min_eig` sends nothing larger here.
    """
    if hasattr(m, "toarray"):
        m = m.toarray()
    m = np.asarray(m)
    _, v = scipy.linalg.eigh(m, subset_by_index=[0, 0])
    vec = v[:, 0]
    mv = m @ vec
    val = float(np.real(np.vdot(vec, mv)))
    res = float(np.linalg.norm(mv - val * vec))
    return EigResult(val, res, 1, True)


def min_eig_lanczos(apply, dim: int, tol: float = 1e-8, seed: int = 0,
                    max_iter: int = 500) -> EigResult:
    """Smallest eigenvalue of a Hermitian operator given by its matvec.

    Full reorthogonalization (two classical Gram-Schmidt passes per step)
    keeps the basis orthonormal; convergence is decided on the tridiagonal
    Ritz pair and certified by recomputing the residual with a final matvec.
    Deterministic for a fixed seed. `apply` may be a callable or anything
    supporting `@` (e.g. a scipy sparse matrix); it is always given a
    contiguous vector.

    The basis is stored one contiguous row per Lanczos vector, in an array
    that doubles when full, so memory grows with the iteration count and not
    with `max_iter`.
    """
    if not callable(apply):
        op = apply
        apply = lambda v: op @ v
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    w0 = apply(v)
    dtype = np.result_type(w0.dtype, np.float64)
    kmax = min(max_iter, dim)
    q = np.empty((min(kmax + 1, _BASIS_ROWS), dim), dtype=dtype)
    q[0] = v
    alphas: list[float] = []
    betas: list[float] = []
    w = np.asarray(w0, dtype=dtype)

    for j in range(kmax):
        if j > 0:
            w = apply(q[j])
        a = float(np.real(np.vdot(q[j], w)))
        alphas.append(a)
        w = w - a * q[j]
        if j > 0:
            w = w - betas[-1] * q[j - 1]
        basis = q[: j + 1]
        for _ in range(2):  # full reorthogonalization: w -= Q (Q^H w)
            w = w - (basis @ w.conj()).conj() @ basis
        beta = float(np.linalg.norm(w))
        theta, u = _smallest_ritz(alphas, betas)
        est = beta * abs(u[-1])
        if est <= 0.1 * tol or beta <= 1e-14 or j == kmax - 1:
            vec = u @ basis
            vec /= np.linalg.norm(vec)
            mv = apply(vec)
            val = float(np.real(np.vdot(vec, mv)))
            res = float(np.linalg.norm(mv - val * vec))
            if res <= tol or beta <= 1e-14:
                return EigResult(val, res, j + 1, True)
            if j == kmax - 1:
                return EigResult(val, res, j + 1, False)
        betas.append(beta)
        if j + 1 == len(q):  # basis full: double it, never beyond kmax + 1 rows
            grown = np.empty((min(2 * len(q), kmax + 1), dim), dtype=dtype)
            grown[: len(q)] = q
            q = grown
        q[j + 1] = w / beta

    raise AssertionError("unreachable")  # loop always returns


def min_eig(h, tol: float = 1e-8, seed: int = 0) -> EigResult:
    """Certified smallest eigenpair of a Hermitian operator.

    Dense up to DENSE_CAP, Lanczos above; a Lanczos run that does not reach
    `tol` raises RuntimeError rather than returning an uncertified value.
    """
    dim = h.shape[0]
    if dim <= DENSE_CAP:
        return min_eig_dense_certified(h)
    res = min_eig_lanczos(h, dim, tol=tol, seed=seed)
    if not res.converged:
        raise RuntimeError(
            f"Lanczos did not converge at dimension {dim} (residual {res.residual:g})")
    return res


def _smallest_ritz(alphas, betas):
    w, v = scipy.linalg.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas[: len(alphas) - 1]))
    return float(w[0]), v[:, 0]
