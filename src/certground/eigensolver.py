"""Smallest-eigenvalue solvers: matrix-free Lanczos with partial
reorthogonalization, plus a Cholesky proof of minimality for operators up to
DENSE_CAP. `min_eig` is the one entry point that chooses between them.

Every result carries an explicitly recomputed residual; `value` is a
Rayleigh quotient (an upper bound on the smallest eigenvalue). Up to
DENSE_CAP a successful factorization of h - sI proves lambda_min(h) above
`proven_edge`, and adds nothing else to Lanczos's result; above it
`value - residual` brackets some eigenvalue, and that it is the smallest one
is not verified. The same shifted Cholesky proof, run by numpy
(`numpy_cholesky_edge`), certifies the SDP bounds.
NUMPY_CAP picks only kernels: numpy alone solves operators of at most
NUMPY_CAP rows, on the Lanczos schedule of every size. A complex
vector over a real scalar is one multiply of its (Re, Im) float view by
the rounded reciprocal (`_divide`), as numpy rounds it.
Inner products, norms and Gram-Schmidt coefficients of vectors longer than
10^4 entries sum equal chunks of at most 10^4 left to right (`_chunked`):
OpenBLAS splits no such chunk across threads, so Lanczos results do not
depend on the BLAS thread count, and neither does a proven edge, which is
set by the matrix, the estimate and whether the factorization completes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

DENSE_CAP = 1 << 12  # largest dimension whose minimality is proven
NUMPY_CAP = 256  # largest dimension solved, and built by `models.build_patch`, without scipy
_CHECK = 8  # the most Lanczos steps between convergence tests
_U = np.finfo(np.float64).eps / 2  # unit roundoff
_ETA = float(np.nextafter(0.0, 1.0))  # smallest subnormal
_EPS = 2 * _U
_BASIS_ROWS = 32  # rows per block of the Lanczos basis
_SKEW_COLS = 16  # columns per panel of the asymmetry norm in `_shifted_edge`
_REORTH_TOL = _EPS ** 0.75  # omega estimate above which Lanczos reorthogonalizes
_CHUNK = 10 ** 4  # longest sum that OpenBLAS does not split across threads


@functools.cache
def _scipy_linalg() -> SimpleNamespace:
    """What this module calls from scipy.linalg for operators above NUMPY_CAP,
    imported on first use (the import costs more than a small SDP solve or
    Anderson block): bisection and inverse iteration on a real symmetric
    tridiagonal matrix (?stebz, ?stein), and `cholesky_edge`'s Cholesky.
    """
    import scipy.linalg
    stebz, stein = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (np.empty(0),))
    return SimpleNamespace(stebz=stebz, stein=stein, cholesky=scipy.linalg.cholesky)


@dataclass(frozen=True)
class EigResult:
    value: float
    residual: float
    iterations: int
    converged: bool
    proven_edge: float | None = None  # lambda_min > proven_edge, shown by a factorization
    reorthogonalized: int = 0  # Lanczos steps that read the stored basis

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


def _shifted_edge(a: np.ndarray, estimate: float, target: np.ndarray, factor):
    """The shifted Cholesky proof behind both routes below.

    The shift s = estimate - c, with c the larger of `_cholesky_margin` and
    4u times the largest of |a_ii| and |estimate|, is subtracted from the
    diagonal of `target` (a or a view of it), and `factor(target)`
    factors it once. Success proves lambda_min(a) > s - c' (Sylvester's law
    of inertia, with c' the margin of the matrix actually factored),
    whatever the factor's entries; failure raises RuntimeError. Returns t.
    """
    n = a.shape[0]
    idx = np.arange(n)
    diag = np.real(a[idx, idx])
    # at least the rounding of a_ii - s below the estimate, so that an exact
    # eigenpair (a_ii == estimate, e.g. a 1 x 1 block) does not leave a - sI singular
    scale = max(float(np.max(np.abs(diag))), abs(estimate))
    shift = estimate - max(_cholesky_margin(diag - estimate), 4 * _U * scale)
    # the factorization reads one triangle, i.e. the Hermitian matrix built
    # from it; a's own Hermitian part differs from that by at most
    # ||a - a^H||_F / 2. Column panels from the diagonal down: the transposed
    # read stays within a few pages, no second n x n array is made, and no
    # BLAS call lets idle threads spin through the factorization (see `sdp`)
    sq = 0.0
    for i in range(0, n, _SKEW_COLS):
        skew = np.abs(a[i:, i:i + _SKEW_COLS] - a[i:i + _SKEW_COLS, i:].conj().T) ** 2
        # the diagonal block once, the entries below it for themselves and their mirrors
        sq += float(np.sum(skew[:_SKEW_COLS])) + 2 * float(np.sum(skew[_SKEW_COLS:]))
    asym = float(np.sqrt(sq)) * (1 + 1e-6) / 2
    target[idx, idx] -= shift
    try:
        factor(target)
    except np.linalg.LinAlgError:
        raise RuntimeError(
            f"minimality not proven at dimension {n}: the Cholesky factorization "
            f"of h - s I (s = {shift:.17g}) failed, so nothing shows that "
            f"{estimate:.17g} is the smallest eigenvalue") from None
    proven = shift - _cholesky_margin(diag - shift) - asym
    # one step down per rounded subtraction
    return float(np.nextafter(np.nextafter(proven, -np.inf), -np.inf))


def cholesky_edge(a: np.ndarray, estimate: float) -> float:
    """Proven t < lambda_min(a) from one shifted Cholesky factorization, in place.

    `a` is a dense Hermitian array, overwritten by the factor, and `estimate`
    an estimate of lambda_min(a) that only places the shift (`_shifted_edge`).
    a^T in Fortran order is the same memory: conj(a) for Hermitian a, which
    has the same spectrum, so scipy's potrf factors conj(a) - sI without a
    second n x n array. Returns t; raises RuntimeError when the factorization
    fails.
    """
    cholesky = _scipy_linalg().cholesky
    return _shifted_edge(a, estimate, a.T,
                         lambda at: cholesky(at, overwrite_a=True, check_finite=False))


def numpy_cholesky_edge(a: np.ndarray, estimate: float) -> float:
    """`cholesky_edge`'s t from numpy's Cholesky of `a` - sI, which leaves `a`
    shifted in place and otherwise unchanged. The edge depends only on whether
    the factorization completes, so when both routes complete they prove the
    same t for the same `a` and `estimate`."""
    return _shifted_edge(a, estimate, a, np.linalg.cholesky)


def min_eig_dense_certified(h, tol: float = 1e-8, seed: int = 0) -> EigResult:
    """Lanczos's smallest Ritz pair and a proven edge below lambda_min(h).

    `min_eig_lanczos` gives a Ritz value theta and residual r; `cholesky_edge`
    (`numpy_cholesky_edge` up to NUMPY_CAP) proves lambda_min(h) above a dense
    copy's edge from theta - r. The result is that Ritz pair, every field as
    Lanczos returns it, with the edge as `proven_edge`. Sized for dimensions up
    to DENSE_CAP.
    """
    dim = h.shape[0]
    ritz = min_eig_lanczos(h, dim, tol=tol, seed=seed)
    if not ritz.converged:  # `min_eig` refuses it, so there is nothing to prove
        return ritz
    dense = h.toarray() if hasattr(h, "toarray") else np.array(h, dtype=np.result_type(h, 1.0))
    edge = numpy_cholesky_edge if dim <= NUMPY_CAP else cholesky_edge
    return replace(ritz, proven_edge=edge(dense, ritz.value - ritz.residual))


def min_eig_lanczos(apply, dim: int, tol: float = 1e-8, seed: int = 0,
                    max_iter: int = 500) -> EigResult:
    """Smallest eigenvalue of a Hermitian operator given by its matvec.

    Partial reorthogonalization (Simon, Math. Comp. 42, 1984) keeps the basis
    orthogonal to about eps^(3/4): the three-term omega recurrence estimates
    |q_{j+1}^H q_k| at every step, and the stored basis is read only when the
    largest estimate passes `_REORTH_TOL`, and at the step after that. Such a
    step makes one Gram-Schmidt pass, and a second one when the pass removed
    more than 1 - 1/sqrt(2) of the norm (Daniel, Gragg, Kaufman & Stewart,
    Math. Comp. 30, 1976). Convergence is decided on the tridiagonal Ritz pair
    at checkpoints, on one schedule at every dimension (NUMPY_CAP picks only the
    Ritz vector's kernel), and certified by recomputing the residual with a final
    matvec. Deterministic for a fixed seed. `apply` may be a callable or anything
    supporting `@` (e.g. a `models.CsrBlock` or a scipy sparse matrix); it is
    always given a contiguous vector.

    The basis is stored one contiguous row per Lanczos vector, in blocks of
    `_BASIS_ROWS` rows that are allocated as needed and never copied, so
    memory grows with the iteration count and not with `max_iter`.
    """
    if not callable(apply):
        op = apply
        apply = lambda v: op @ v
    if tol <= 0:
        raise ValueError("tol must be positive")
    if dim < 1 or max_iter < 1:
        raise ValueError(f"dim and max_iter must be at least 1, not {dim} and {max_iter}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= _norm(v)
    w = apply(v)
    dtype = np.result_type(w.dtype, np.float64)
    kmax = min(max_iter, dim)
    blocks = [np.empty((min(_BASIS_ROWS, kmax), dim), dtype=dtype)]
    blocks[0][0] = v
    # alpha[k] = alpha_k, beta[k + 1] = beta_k (so beta[0] = 0), and
    # omega[k + 1] estimates q_j^H q_k for the current j (omega[0] = 0);
    # omega_prev holds those of q_{j-1}, omega_next receives those of q_{j+1}
    alpha, beta, omega, omega_prev, omega_next = np.zeros((5, kmax + 2))
    omega[1] = 1.0
    anorm = 0.0  # running estimate of ||T_j||, the scale of rounding errors
    second = False  # the step after a reorthogonalization reorthogonalizes too
    reorthogonalized, counts = 0, []  # counts[j]: reorthogonalizations up to step j
    due, seen = _CHECK, (-1, 0.0)  # the next checkpoint, the last (step, estimate)

    @functools.cache
    def ritz(k):  # the lowest Ritz vector of T_k: ?stebz/?stein above NUMPY_CAP, else eigh
        if dim > NUMPY_CAP:
            return _lowest_ritz_vector(alpha[:k + 1], beta[1:k + 1])
        t = np.diag(alpha[:k + 1]) + np.diag(beta[1:k + 1], -1)  # eigh reads the lower triangle
        return np.linalg.eigh(t)[1][:, 0].copy()

    for j in range(kmax):
        qj = blocks[j // _BASIS_ROWS][j % _BASIS_ROWS]
        if j > 0:
            w = apply(qj)
        a = float(np.real(_chunked(np.vdot, qj, w)))
        alpha[j] = a
        w = w - a * qj
        if j > 0:
            w -= beta[j] * qprev
        b = _norm(w)
        anorm = max(anorm, abs(a) + beta[j] + b)
        if b > 1e-14:
            # beta_j omega_{j+1,k} = beta_k omega_{j,k+1} + (alpha_k - alpha_j) omega_{j,k}
            #     + beta_{k-1} omega_{j,k-1} - beta_{j-1} omega_{j-1,k} + rounding, for k < j
            t = (beta[1:j + 1] * omega[2:j + 2] + (alpha[:j] - a) * omega[1:j + 1]
                 + beta[:j] * omega[:j] - beta[j] * omega_prev[1:j + 1])
            t += np.copysign(_EPS * anorm, t)
            omega_next[1:j + 1] = t / b
            omega_next[j + 1] = _EPS * anorm / b
            omega_next[j + 2] = 1.0
            if second or (j > 0 and float(np.max(np.abs(omega_next[1:j + 1]))) > _REORTH_TOL):
                second = not second
                reorthogonalized += 1
                w = _orthogonalize(blocks, j + 1, w)
                b0, b = b, _norm(w)
                if b < b0 / np.sqrt(2):
                    w = _orthogonalize(blocks, j + 1, w)
                    b = _norm(w)
                omega_next[1:j + 2] = _EPS
        beta[j + 1], last = b, b <= 1e-14 or j == kmax - 1
        counts.append(reorthogonalized)
        # no Ritz vector feeds the recurrence, so steps are tested at checkpoints, the
        # next one step on after a pass, else where the last two estimates' rate predicts
        # one (at most _CHECK on); a pass tests the steps back to the first that fails
        steps = ()
        if last or j + 1 == due:
            est, ahead = b * abs(ritz(j)[-1]), _CHECK
            if last or est <= 0.1 * tol:
                k = j
                while k > seen[0] + 1 and beta[k] * abs(ritz(k - 1)[-1]) <= 0.1 * tol:
                    k -= 1
                steps, ahead = range(k, j + 1), 1
            elif est < seen[1]:  # steps to a pass at the rate since the last checkpoint
                ahead = min(max(1, math.ceil((j - seen[0]) * math.log(est / (0.1 * tol))
                                             / max(math.log(seen[1] / est), _EPS))), _CHECK)
            due, seen = j + 1 + ahead, (j, est)
        for k in steps:  # each passes the Ritz test, or is the last step
            vec = np.zeros(dim, dtype=dtype)
            for i, blk in zip(range(0, k + 1, _BASIS_ROWS), blocks):
                part = ritz(k)[i:i + _BASIS_ROWS]
                vec += part @ blk[:len(part)]
            _divide(vec, _norm(vec), vec)
            mv = apply(vec)
            val = float(np.real(_chunked(np.vdot, vec, mv)))
            res = _norm(mv - val * vec)
            if res <= tol or (k == j and last):
                return EigResult(val, res, k + 1, res <= tol, reorthogonalized=counts[k])
        if (j + 1) % _BASIS_ROWS == 0:  # block full: start the next one
            blocks.append(np.empty((min(_BASIS_ROWS, kmax - j - 1), dim), dtype=dtype))
        _divide(w, b, blocks[-1][(j + 1) % _BASIS_ROWS])  # no temporary
        qprev = qj
        omega_prev, omega, omega_next = omega, omega_next, omega_prev

    raise AssertionError("unreachable")  # loop always returns


def _chunked(dot, x, y):
    """dot(x, y) over x's last axis and the 1-D y: one call up to _CHUNK entries,
    else the left-to-right sum over the fewest equal chunks of at most _CHUNK."""
    if len(y) <= _CHUNK:
        return dot(x, y)
    step = -(-len(y) // -(-len(y) // _CHUNK))
    return sum(dot(x[..., i:i + step], y[i:i + step]) for i in range(0, len(y), step))


def _norm(x) -> float:
    """numpy.linalg.norm of a 1-D x without its dispatch, bit for bit up to _CHUNK entries."""
    if x.dtype.kind == "c":
        return math.sqrt(_chunked(np.matmul, x.real, x.real) + _chunked(np.matmul, x.imag, x.imag))
    return math.sqrt(_chunked(np.matmul, x, x))


def _divide(x, s: float, out) -> None:
    """out = x / s for a real s, as numpy rounds it: a complex x / s multiplies
    both parts by the rounded 1 / s, done here on the (Re, Im) float view."""
    if x.dtype.kind == "c":
        np.multiply(x.view(np.float64), 1.0 / s, out=out.view(np.float64))
    else:
        np.divide(x, s, out=out)


def _orthogonalize(blocks, rows, w):
    """One Gram-Schmidt pass of w against the first `rows` basis rows, block by block."""
    for i, blk in enumerate(blocks):
        q = blk[:rows - i * _BASIS_ROWS]
        w -= _chunked(np.matmul, q, w.conj()).conj() @ q
    return w


def min_eig(h, tol: float = 1e-8, seed: int = 0, prove: bool = True) -> EigResult:
    """Certified smallest eigenpair of a Hermitian operator.

    Lanczos at every size, with a Cholesky proof of minimality up to
    DENSE_CAP unless `prove` is False; a result that does not reach `tol`
    raises RuntimeError rather than returning an uncertified value, and so
    does a failed proof.
    """
    dim = h.shape[0]
    if prove and dim <= DENSE_CAP:
        res = min_eig_dense_certified(h, tol=tol, seed=seed)
    else:
        res = min_eig_lanczos(h, dim, tol=tol, seed=seed)
    if not res.converged:
        raise RuntimeError(
            f"eigensolver did not converge at dimension {dim} (residual {res.residual:g})")
    return res


def _lowest_ritz_vector(alpha, beta):
    """Eigenvector of the lowest eigenvalue of the tridiagonal matrix with
    diagonal alpha and off-diagonal beta; no other eigenpair is computed.

    The LAPACK pair behind `scipy.linalg.eigh_tridiagonal(alpha, beta,
    select="i", select_range=(0, 0))`, bisection (?stebz) then inverse
    iteration (?stein), called directly: the same vector, bit for bit,
    without the wrapper's argument checks at every convergence checkpoint.
    """
    if len(alpha) == 1:
        return np.ones(1)
    lapack = _scipy_linalg()
    m, w, iblock, isplit, info = lapack.stebz(alpha, beta, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz failed (LAPACK info={info})")
    v, info = lapack.stein(alpha, beta, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"stein failed (LAPACK info={info})")
    return v[:, 0]
