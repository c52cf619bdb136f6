"""Smallest-eigenvalue solvers: matrix-free Lanczos with full
reorthogonalization, plus a Cholesky proof of minimality for operators up to
DENSE_CAP. `min_eig` is the one entry point that chooses between them.

Every result carries an explicitly recomputed residual; `value` is a
Rayleigh quotient (an upper bound on the smallest eigenvalue). Up to
DENSE_CAP a successful factorization of h - sI proves lambda_min(h) above
`proven_edge`; above it `value - residual` brackets some eigenvalue, and
that it is the smallest one is not verified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

DENSE_CAP = 1 << 12  # largest dimension whose minimality is proven
_U = np.finfo(np.float64).eps / 2  # unit roundoff
_ETA = float(np.nextafter(0.0, 1.0))  # smallest subnormal
_BASIS_ROWS = 32  # initial Lanczos basis capacity; doubled when full


@dataclass(frozen=True)
class EigResult:
    value: float
    residual: float
    iterations: int
    converged: bool
    proven_edge: float | None = None  # lambda_min > proven_edge, shown by a factorization

    @property
    def lower_edge(self) -> float:
        """Certified lower edge: the proven edge when there is one, else
        value - residual (which brackets some eigenvalue, not necessarily the
        smallest)."""
        if self.proven_edge is not None:
            return self.proven_edge
        return self.value - self.residual

    @property
    def minimality(self) -> str:
        """How lower_edge <= lambda_min was shown: "cholesky" or "unverified"."""
        return "unverified" if self.proven_edge is None else "cholesky"


def _cholesky_margin(diag) -> float:
    """Rounding margin of a floating-point Cholesky factorization (Rump 2006).

    If the Cholesky factorization of the Hermitian matrix A, with diagonal
    `diag`, completes in floating point, then lambda_min(A) > -margin. The
    computed factor satisfies R^H R = A + dA with |dA| <= g |R^H| |R|
    (Higham, Thm 10.3, g = gamma_{n+1} for real data), and Cauchy-Schwarz
    turns that into ||dA|| <= g/(1-g) tr(A). Here g = gamma_{n+4}: a complex
    product errs by at most sqrt(2) gamma_2 <= gamma_3 instead of gamma_1,
    and a triangular solve may multiply by a rounded reciprocal instead of
    dividing. 2u more covers the rounding of the shifted diagonal, and the
    last term bounds gradual underflow. Over-estimates are safe;
    under-estimates are not.
    """
    n = len(diag)
    g = (n + 4) * _U / (1 - (n + 4) * _U)
    diag = np.abs(diag)
    under = 4 * n * (n + 2) * (2 + float(np.max(diag))) * _ETA
    return ((g / (1 - g) + 2 * _U) * (1 + g) * float(np.sum(diag)) + under) * (1 + 16 * _U)


def min_eig_dense_certified(h, tol: float = 1e-8, seed: int = 0) -> EigResult:
    """Smallest eigenpair with a proof that it is the smallest.

    Lanczos gives a Ritz value theta and residual r. The shift
    s = theta - r - c (c = `_cholesky_margin`) is subtracted from the diagonal
    of a dense copy of h, which is then factored once by Cholesky. Success
    proves lambda_min(h) > s - c' (Sylvester's law of inertia, with c' the
    margin of the matrix actually factored); failure raises RuntimeError.
    Two inverse-iteration steps through the same factor then give a value and
    residual of dense-eigensolver quality. Sized for dimensions up to
    DENSE_CAP; `min_eig` sends nothing larger here.
    """
    dim = h.shape[0]
    ritz = min_eig_lanczos(h, dim, tol=tol, seed=seed)
    hdiag = np.real(h.diagonal())
    edge = ritz.value - ritz.residual
    shift = edge - _cholesky_margin(hdiag - edge)
    # the factorization reads one triangle, i.e. the Hermitian matrix built
    # from it; h's own Hermitian part differs from that by at most ||h - h^H||_F / 2
    skew = h - h.conj().T
    skew = skew.data if scipy.sparse.issparse(skew) else skew
    asym = float(np.linalg.norm(skew)) * (1 + 1e-6) / 2
    dense = h.toarray() if hasattr(h, "toarray") else np.array(h, dtype=np.result_type(h, 1.0))
    # h^T in Fortran order is the same memory: conj(h) for Hermitian h, which
    # has the same spectrum, so potrf overwrites it without a second n x n array
    a = dense.T
    idx = np.arange(dim)
    a[idx, idx] -= shift
    try:
        r = scipy.linalg.cholesky(a, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise RuntimeError(
            f"minimality not proven at dimension {dim}: the Cholesky factorization "
            f"of h - s I (s = {shift:.17g}) failed, so nothing shows that the Ritz "
            f"value {ritz.value:.17g} is the smallest eigenvalue") from None
    proven = shift - _cholesky_margin(hdiag - shift) - asym
    # one step down per rounded subtraction
    proven = float(np.nextafter(np.nextafter(proven, -np.inf), -np.inf))

    value, residual = ritz.value, ritz.residual
    y = np.random.default_rng(seed).standard_normal(dim)
    for _ in range(2):  # inverse iteration: A y = x  <=>  conj(A) conj(y) = conj(x)
        y = scipy.linalg.cho_solve((r, False), y.conj(), check_finite=False).conj()
        top = float(np.max(np.abs(y)))
        if not np.isfinite(top) or top == 0.0:
            break  # the shift sits within underflow of lambda_min: keep the Ritz pair
        y /= top
        y /= np.linalg.norm(y)
        hy = h @ y
        val = float(np.real(np.vdot(y, hy)))
        res = float(np.linalg.norm(hy - val * y))
        if res < residual:
            value, residual = val, res
    return EigResult(value, residual, ritz.iterations, residual <= tol, proven)


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

    Lanczos at every size, with a Cholesky proof of minimality up to
    DENSE_CAP; a result that does not reach `tol` raises RuntimeError rather
    than returning an uncertified value, and so does a failed proof.
    """
    dim = h.shape[0]
    if dim <= DENSE_CAP:
        res = min_eig_dense_certified(h, tol=tol, seed=seed)
    else:
        res = min_eig_lanczos(h, dim, tol=tol, seed=seed)
    if not res.converged:
        raise RuntimeError(
            f"eigensolver did not converge at dimension {dim} (residual {res.residual:g})")
    return res


def _smallest_ritz(alphas, betas):
    w, v = scipy.linalg.eigh_tridiagonal(np.asarray(alphas), np.asarray(betas[: len(alphas) - 1]))
    return float(w[0]), v[:, 0]
