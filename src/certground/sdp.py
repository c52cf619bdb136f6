"""Self-contained block-diagonal semidefinite programming.

Primal standard form over symmetric blocks X_k >= 0:

    minimize    sum_k tr(C_k X_k)
    subject to  sum_k tr(A_{i,k} X_k) = b_i,   i = 1..m

solved by a dense symmetric primal-dual path-following method with a
Mehrotra predictor-corrector step (HKM direction). Each iterate factors
every X and S block once by Cholesky; the inverse factors give S^{-1},
both step-length searches (the step to the PSD boundary is read off
L^{-1} D L^{-T}) and the Schur complement, assembled as the Gram matrix
M_ij = <P_i, P_j> of P_i = L_S^{-1} A_i L_X. M is factored once by
Cholesky too, and its inverse factor turns every solve of the iterative
refinement into two matrix-vector products.

Every factorization and inverse inside the iteration goes through
`numpy.linalg`. numpy and scipy each ship their own OpenBLAS, and when a
loop alternates between the two, each library's idle worker threads spin
while the other one runs: on a 2-core machine with two OpenBLAS threads,
a 137 x 137 matmul plus Cholesky took 11.6-12.1 ms mixed and 0.7-0.9 ms
with numpy alone. scipy's pivoted QR runs only to drop rows that are
linearly dependent, before a restart.

The solver's numbers are not certified. `dual_lower_bound` turns any dual
vector y into a rigorous lower bound for trace-bounded problems, through a
Cholesky proof on C - A^T y and a bound on every rounding in forming it.
Complex Hermitian data enters through `real_embed` upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import eigensolver

_SYM_TOL = 1e-12
_U = np.finfo(np.float64).eps / 2  # unit roundoff
# a solve that stalls short of its tolerances is still used by a certificate
# that charges every residual, as long as its gap and primal residual are below
QUALITY_TOL = 1e-6


@dataclass
class SdpProblem:
    """Block-diagonal SDP data.

    blocks: block sizes.
    C: one symmetric matrix per block.
    A: one array of shape (m, n_k, n_k) per block holding the constraint
       matrices (stacked over constraints).
    b: right-hand sides, length m.
    """

    blocks: list
    C: list
    A: list
    b: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if len(self.blocks) != len(self.C) or len(self.blocks) != len(self.A):
            raise ValueError("blocks, C and A must align")
        if self.b.ndim != 1 or self.b.size < 1:
            raise ValueError("need at least one constraint")
        for n, c, a in zip(self.blocks, self.C, self.A):
            if n < 1:
                raise ValueError("block sizes must be >= 1")
            if c.shape != (n, n) or a.shape != (self.b.size, n, n):
                raise ValueError("matrix shapes inconsistent with block sizes")
            if np.max(np.abs(c - c.T)) > _SYM_TOL * max(1, _max_abs(c)):
                raise ValueError("objective block is not symmetric")
            # one constraint matrix at a time into one buffer: no temporary as large as `a`
            tol = _SYM_TOL * max(1, _max_abs(a))
            dev = np.empty_like(a[0])
            for ai in a:
                if _max_abs(np.subtract(ai, ai.T, out=dev)) > tol:
                    raise ValueError("constraint block is not symmetric")

    @property
    def n_constraints(self) -> int:
        return self.b.size


@dataclass
class SdpSolution:
    status: str                 # optimal | infeasible | max_iter
    X: list
    y: np.ndarray
    S: list
    primal_obj: float
    dual_obj: float
    gap: float                  # normalized duality gap
    feas_primal: float
    feas_dual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def real_embed(h: np.ndarray) -> np.ndarray:
    """Real embedding [[Re h, -Im h], [Im h, Re h]] of a Hermitian matrix.

    The embedding is PSD iff h is, and its trace is 2 tr(h).
    """
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-10 * max(1, np.max(np.abs(h))):
        raise ValueError("matrix is not Hermitian")
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _max_abs(x: np.ndarray) -> float:
    """Largest |entry| of x without allocating |x|."""
    return max(float(x.max()), -float(x.min()))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the rounding bound of a length-k dot product."""
    return k * _U / (1 - k * _U)


def _data_norm(C, A) -> float:
    """Largest |entry| of C or A (at least 1): `solve`'s dual-residual normaliser."""
    return max(1.0, max(_max_abs(c) for c in C),
               max(_max_abs(a) if a.size else 1.0 for a in A))


def _op_A(A, Xs) -> np.ndarray:
    """The constraint map: (sum_k tr(A_{i,k} X_k))_i."""
    m = A[0].shape[0]
    out = np.zeros(m)
    for a, x in zip(A, Xs):
        out += a.reshape(m, -1) @ x.ravel()
    return out


def _op_At(A, y) -> list:
    """Its adjoint: sum_i y_i A_{i,k} per block."""
    return [np.tensordot(y, a, axes=1) for a in A]


def _residuals(C, A, b, X, y, S, norm_data):
    """Objectives, normalized gap, primal and dual feasibility of an iterate,
    and the dual residual matrices R_d = C - S - A^T y, for `solve`."""
    p_obj = sum(float(np.sum(c * x)) for c, x in zip(C, X))
    d_obj = float(b @ y)
    gap = abs(p_obj - d_obj) / (1.0 + abs(p_obj) + abs(d_obj))
    feas_p = float(np.linalg.norm(b - _op_A(A, X))) / max(1.0, float(np.linalg.norm(b)))
    R_d = [c - s - aty for c, s, aty in zip(C, S, _op_At(A, y))]
    feas_d = max(float(np.max(np.abs(r))) for r in R_d) / norm_data
    return p_obj, d_obj, gap, feas_p, feas_d, R_d


def _psd_factor(m_psd: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a PSD block; a numerically singular block is
    lifted by a ridge of 1e-12 tr(m_psd) first."""
    try:
        return np.linalg.cholesky(m_psd)
    except np.linalg.LinAlgError:
        return np.linalg.cholesky(m_psd + 1e-12 * np.trace(m_psd) * np.eye(m_psd.shape[0]))


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular factor, through numpy's LAPACK.

    The inverse is lower triangular; `np.tril` drops the roundoff a pivoting
    LU leaves above the diagonal.
    """
    Linv = np.tril(np.linalg.inv(L))
    if not np.all(np.isfinite(Linv)):
        raise np.linalg.LinAlgError("singular triangular factor")
    return Linv


def _max_step(Linv: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with M + alpha*direction staying PSD, where M = L L^T > 0
    and Linv = L^{-1}: the step is -1/lambda_min(L^{-1} D L^{-T})."""
    lam = float(np.min(np.linalg.eigvalsh(_sym(Linv @ direction @ Linv.T))))
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _schur(A, LX, LinvS) -> np.ndarray:
    """Schur complement M_ij = sum_k tr(A_{i,k} X_k A_{j,k} S_k^{-1}) as a Gram
    matrix: M_ij = <P_i, P_j> with P_i = L_S^{-1} A_i L_X, X = L_X L_X^T and
    S = L_S L_S^T, so one temporary as large as A[k] holds every P_i."""
    m = A[0].shape[0]
    M = np.zeros((m, m))
    for a, lx, lsi in zip(A, LX, LinvS):
        n = lx.shape[0]
        P = (a.reshape(m * n, n) @ lx).reshape(m, n, n)
        for i in range(m):
            P[i] = lsi @ P[i]
        P = P.reshape(m, n * n)
        M += P @ P.T
    return M


def _independent_rows(A, m: int, tol: float = 1e-11) -> np.ndarray:
    """Indices of a maximal linearly independent subset of the constraints.

    The rank comes from the singular values; the pivoted QR that picks the
    rows runs only when some row has to go.
    """
    K = np.hstack([a.reshape(m, -1) for a in A])
    sv = np.linalg.svd(K, compute_uv=False)
    rank = int(np.sum(sv > tol * max(sv[0], 1.0)))
    if rank == m:
        return np.arange(m)
    _, _, piv = scipy.linalg.qr(K.T, mode="economic", pivoting=True)
    return np.sort(piv[:rank])


def solve(problem: SdpProblem, gap_tol: float = 1e-9, feas_tol: float = 1e-9,
          max_iter: int = 100, _assume_independent: bool = False) -> SdpSolution:
    """Primal-dual path-following solve with a certified duality gap.

    On numerical breakdown or stalling the current iterate is returned with
    status 'max_iter' (never a fabricated optimum); divergence is reported
    as 'infeasible'.
    """
    nb = len(problem.blocks)
    m = problem.n_constraints
    b = problem.b
    C = [np.asarray(c, dtype=float) for c in problem.C]
    A = [np.asarray(a, dtype=float) for a in problem.A]
    n_tot = sum(problem.blocks)
    norm_data = _data_norm(C, A)

    tau_p = max(1.0, float(np.max(np.abs(b)))) * np.sqrt(max(n_tot, 1))
    tau_d = norm_data
    X = [tau_p * np.eye(n) for n in problem.blocks]
    S = [tau_d * np.eye(n) for n in problem.blocks]
    y = np.zeros(m)

    status = "max_iter"
    it = 0
    diagnostics = {}
    best = None        # (score, X, y, S) snapshot; roundoff can undo progress
    best_score = np.inf
    stall = 0
    for it in range(1, max_iter + 1):
        mu = sum(float(np.sum(X[k] * S[k])) for k in range(nb)) / n_tot
        p_obj, d_obj, gap, feas_p, feas_d, R_d = _residuals(C, A, b, X, y, S, norm_data)

        score = max(gap / gap_tol, feas_p / feas_tol, feas_d / feas_tol)
        if score < best_score:
            best_score = score
            best = ([x.copy() for x in X], y.copy(), [s.copy() for s in S])
            stall = 0
        else:
            stall += 1

        if gap <= gap_tol and feas_p <= feas_tol and feas_d <= feas_tol:
            status = "optimal"
            break
        if not np.isfinite(mu) or mu > 1e14 or max(abs(p_obj), abs(d_obj)) > 1e14:
            status = "infeasible"
            diagnostics["divergence"] = True
            break
        if stall >= 5:
            diagnostics["stalled"] = True
            break

        # one Cholesky factor of each X and S block per iterate feeds S^{-1},
        # the Schur complement and both step-length searches
        try:
            LinvS = [_tri_inv(np.linalg.cholesky(s)) for s in S]
        except np.linalg.LinAlgError:
            diagnostics["breakdown"] = "S factorization failed"
            break
        LX = [_psd_factor(x) for x in X]
        LinvX = [_tri_inv(lx) for lx in LX]
        Sinv = [lsi.T @ lsi for lsi in LinvS]
        M = _schur(A, LX, LinvS)

        try:
            LinvM = _tri_inv(np.linalg.cholesky(M))
            refine, lifted = 2, False
        except np.linalg.LinAlgError:
            if not _assume_independent:
                # exactly dependent (consistent) constraints: prune and restart
                keep = _independent_rows(A, m)
                if len(keep) < m:
                    sub = SdpProblem([n for n in problem.blocks],
                                     C, [a[keep] for a in A], b[keep])
                    sol = solve(sub, gap_tol=gap_tol, feas_tol=feas_tol,
                                max_iter=max_iter, _assume_independent=True)
                    y_full = np.zeros(m)
                    y_full[keep] = sol.y
                    sol.y = y_full
                    # report against the constraints the caller passed
                    (sol.primal_obj, sol.dual_obj, sol.gap, sol.feas_primal,
                     sol.feas_dual, _) = _residuals(C, A, b, sol.X, y_full, sol.S, norm_data)
                    sol.diagnostics["pruned_constraints"] = m - len(keep)
                    return sol
                _assume_independent = True
            # near-singular Schur complement: ridge-lifted factorization with
            # refinement against the unlifted matrix
            diagnostics["schur_fallback"] = True
            lift = 1e-13 * max(float(np.max(np.diag(M))), 1.0)
            LinvM = None
            for _ in range(20):
                try:
                    LinvM = _tri_inv(np.linalg.cholesky(M + lift * np.eye(m)))
                    break
                except np.linalg.LinAlgError:
                    lift *= 100.0
            if LinvM is None:
                diagnostics["breakdown"] = "Schur factorization failed"
                break
            refine, lifted = 20, True

        def solve_M(rhs):
            # iterative refinement against the unlifted M; the Schur
            # complement gets severely ill-conditioned as mu -> 0. Behind a
            # ridge lift the refinement converges only linearly, so it runs
            # for as long as each step still halves the residual
            dy = LinvM.T @ (LinvM @ rhs)
            r = rhs - M @ dy
            for _ in range(refine):
                dy += LinvM.T @ (LinvM @ r)
                r_prev, r = r, rhs - M @ dy
                if lifted and np.linalg.norm(r) > 0.5 * np.linalg.norm(r_prev):
                    break
            return dy

        XRS = [X[k] @ R_d[k] @ Sinv[k] for k in range(nb)]

        def newton(sigma_mu, cross=None):
            rhs = b - sigma_mu * _op_A(A, Sinv) + _op_A(A, XRS)
            if cross is not None:
                rhs += _op_A(A, [c @ si for c, si in zip(cross, Sinv)])
            dy = solve_M(rhs)
            dS = [r - a for r, a in zip(R_d, _op_At(A, dy))]
            dX = []
            for k in range(nb):
                t = sigma_mu * Sinv[k] - X[k] - X[k] @ dS[k] @ Sinv[k]
                if cross is not None:
                    t = t - cross[k] @ Sinv[k]
                dX.append(_sym(t))
            return dX, dy, dS

        # predictor
        dXa, dya, dSa = newton(0.0)
        ap = min(1.0, 0.98 * min(_max_step(LinvX[k], dXa[k]) for k in range(nb)))
        ad = min(1.0, 0.98 * min(_max_step(LinvS[k], dSa[k]) for k in range(nb)))
        mu_aff = sum(float(np.sum((X[k] + ap * dXa[k]) * (S[k] + ad * dSa[k])))
                     for k in range(nb)) / n_tot
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector
        cross = [dXa[k] @ dSa[k] for k in range(nb)]
        dX, dy, dS = newton(sigma * mu, cross)
        ap = min(1.0, 0.98 * min(_max_step(LinvX[k], dX[k]) for k in range(nb)))
        ad = min(1.0, 0.98 * min(_max_step(LinvS[k], dS[k]) for k in range(nb)))
        if ap < 1e-10 and ad < 1e-10:
            diagnostics["breakdown"] = "step length collapsed"
            break

        for k in range(nb):
            X[k] = _sym(X[k] + ap * dX[k])
            S[k] = _sym(S[k] + ad * dS[k])
        y = y + ad * dy

    if status != "infeasible" and best is not None:
        # report the best iterate seen; late iterations can lose accuracy
        X, y, S = best
    p_obj, d_obj, gap, feas_p, feas_d, _ = _residuals(C, A, b, X, y, S, norm_data)
    if status != "infeasible" and gap <= gap_tol and feas_p <= feas_tol and feas_d <= feas_tol:
        status = "optimal"
    diagnostics.setdefault("mu", sum(float(np.sum(X[k] * S[k])) for k in range(nb)) / n_tot)
    return SdpSolution(status=status, X=X, y=y, S=S, primal_obj=p_obj, dual_obj=d_obj,
                       gap=gap, feas_primal=feas_p, feas_dual=feas_d,
                       iterations=it, diagnostics=diagnostics)


def solve_counts(problem: SdpProblem, solution: SdpSolution) -> dict:
    """The solve's shape for reports: its row count, whether the Schur
    complement needed the ridge fallback, and how many rows were pruned."""
    return {"constraints": problem.n_constraints,
            "schur_fallback": bool(solution.diagnostics.get("schur_fallback", False)),
            "pruned_constraints": int(solution.diagnostics.get("pruned_constraints", 0))}


def dual_lower_bound(problem: SdpProblem, solution: SdpSolution,
                     trace_bounds) -> float:
    """Rigorous lower bound on the SDP optimum from the dual vector alone.

    For any primal-feasible X, tr(C X) = b^T y + sum_k tr(Z_k X_k) with
    Z_k = C_k - sum_i y_i A_{i,k}, and tr(Z_k X_k) >= min(0, lambda_min(Z_k))
    tb_k, where `trace_bounds` are per-block bounds tb_k on tr(X_k) over the
    feasible set (1 for state blocks). Following Jansson, Chaykin & Keil
    (SIAM J. Numer. Anal. 46, 2007), the returned value is

        fl(b^T y) - gamma_m |b|^T |y| + sum_k tb_k min(0, t_k - e_k),

    where t_k is the edge `eigensolver.cholesky_edge` proves for the computed
    Z_k and e_k = gamma_{m+2} (||C_k||_F + sum_i |y_i| ||A_{i,k}||_F) bounds
    the rounding in forming it. Only (C, A, b, y) are read: any y gives a
    valid bound, and the solver's S and X play no part.
    """
    m = problem.n_constraints
    y = np.asarray(solution.y, dtype=float)
    # each (1 + 1e-6) covers the rounding of the error bound's own sums
    terms = [float(problem.b @ y),
             -_gamma(m) * float(np.abs(problem.b) @ np.abs(y)) * (1 + 1e-6)]
    for tb, c, a, aty in zip(trace_bounds, problem.C, problem.A, _op_At(problem.A, y)):
        z = c - aty
        t, _ = eigensolver.cholesky_edge(z, float(np.linalg.eigvalsh(z)[0]))
        rows = np.sqrt(np.einsum("ijk,ijk->i", a, a))  # ||A_{i,k}||_F without a copy of A
        e = _gamma(m + 2) * (float(np.linalg.norm(c)) + float(np.abs(y) @ rows)) * (1 + 1e-6)
        # t - e, the product and the last factor round once each; 4u outweighs all three
        terms.append(tb * min(0.0, t - e) * (1 + 4 * _U))
    # fsum rounds the exact sum of the terms to nearest: one step down covers it
    return float(np.nextafter(math.fsum(terms), -np.inf))


def certified_solve(problem: SdpProblem, name: str, gap_tol: float = 1e-9) -> tuple:
    """`solve`, accepted when optimal or within QUALITY_TOL, then certified.

    Row 0 must be the trace row sum_k c_k tr(X_k) = 1 with A_k[0] = c_k I, so
    tr(X_k) <= 1 / c_k is the trace bound. Returns the solution and
    `dual_lower_bound`'s value; raises RuntimeError when the solve failed.
    """
    sol = solve(problem, gap_tol=gap_tol)
    if sol.status != "optimal" and not (sol.gap <= QUALITY_TOL
                                        and sol.feas_primal <= QUALITY_TOL):
        raise RuntimeError(
            f"{name} SDP solve failed (status {sol.status}, "
            f"gap {sol.gap:g}, primal residual {sol.feas_primal:g})")
    return sol, dual_lower_bound(problem, sol,
                                 trace_bounds=[1.0 / a[0, 0, 0] for a in problem.A])
