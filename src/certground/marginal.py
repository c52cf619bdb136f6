"""Improved Anderson bounds from the quantum marginal problem.

The bound z/m comes from an SDP over one patch state omega on m sites. The
boundary-window state sigma on 2s sites is not a variable but the marginal
of omega on the first window. Two window readings are available:

  wrap         one window, the ordered wrap set (m-s+1..m, 1..s) of sites;
  consecutive  every consecutive 2s-site window, all with equal marginals
               (the default; its lower-bound property follows from
               feasibility of the true translation-invariant state).

The crossing term places the two-site interaction either on sigma's middle
factor pair (s, s+1) -- the actual inter-patch bond -- or literally on the
last two factors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .models import ModelSpec, PatchSpec, build_patch, embed_on_sites

MARGINAL_CSV_COLUMNS = ("model", "m", "s", "mode", "placement", "z",
                        "density_bound", "gap", "seconds")

_SDP_SITE_CAP = 10  # dense SDP blocks; qubit-equivalents


@dataclass(frozen=True)
class MarginalProblemSpec:
    model: ModelSpec
    m: int
    s: int
    mode: str = "consecutive"          # consecutive | wrap
    placement: str = "middle"          # middle | literal_last

    def __post_init__(self):
        if self.s < 1 or 2 * self.s > self.m:
            raise ValueError("need 1 <= 2s <= m")
        if self.mode not in ("consecutive", "wrap"):
            raise ValueError("mode must be 'consecutive' or 'wrap'")
        if self.placement not in ("middle", "literal_last"):
            raise ValueError("placement must be 'middle' or 'literal_last'")
        if self.model.D != 1:
            raise ValueError("the marginal bound is one-dimensional")
        if self.m * np.log2(self.model.d) > _SDP_SITE_CAP:
            raise ValueError(f"patch exceeds the dense SDP cap of {_SDP_SITE_CAP} qubits")


@dataclass(frozen=True)
class MarginalBoundResult:
    m: int
    s: int
    mode: str
    placement: str
    z: float
    density_bound: float
    gap: float
    feas_dual: float
    iterations: int
    seconds: float
    diagnostics: dict = field(default_factory=dict)

    def csv_row(self, model_name: str) -> dict:
        return {"model": model_name, "m": self.m, "s": self.s, "mode": self.mode,
                "placement": self.placement, "z": self.z,
                "density_bound": self.density_bound, "gap": self.gap,
                "seconds": self.seconds}


def partial_trace(rho: np.ndarray, keep, d: int = 2) -> np.ndarray:
    """Marginal of a k-site operator on the listed sites, in the listed order.

    The output's j-th tensor factor is site keep[j]; trace and positivity are
    preserved.
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    n = int(round(np.log(dim) / np.log(d)))
    if d ** n != dim or rho.shape != (dim, dim):
        raise ValueError("operator dimension is not a power of the local dimension")
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(s < 0 or s >= n for s in keep):
        raise ValueError("keep sites must be distinct and in range")
    drop = [s for s in range(n) if s not in keep]
    t = rho.reshape([d] * (2 * n))
    # trace out dropped sites, highest axis first to keep indices stable
    for s in sorted(drop, reverse=True):
        t = np.trace(t, axis1=s, axis2=s + t.ndim // 2)
    # axes now correspond to sorted(keep); reorder to the requested order
    remaining = sorted(keep)
    perm = [remaining.index(s) for s in keep]
    k = len(keep)
    t = np.transpose(t, perm + [k + p for p in perm])
    return t.reshape(d ** k, d ** k)


def site_basis(d: int, real: bool) -> tuple:
    """Orthonormal (Frobenius) basis of one site's operators, I/sqrt(d) first.

    Elements: I/sqrt(d); the traceless diagonal (generalized Gell-Mann)
    matrices; per pair i < j, (E_ij + E_ji)/sqrt(2) and either
    (E_ij - E_ji)/sqrt(2) (real) or i(E_ji - E_ij)/sqrt(2) (complex).
    Returns the (d^2, d, d) stack and a mask of the antisymmetric / imaginary
    elements, so a product of elements is real symmetric iff an even number of
    its factors are masked.
    """
    basis = np.zeros((d * d, d, d), dtype=float if real else complex)
    odd = np.zeros(d * d, dtype=bool)
    basis[0] = np.eye(d) / np.sqrt(d)
    for k in range(1, d):
        basis[k, range(k), range(k)] = 1.0
        basis[k, k, k] = -k
        basis[k] /= np.sqrt(k * (k + 1))
    r = 1.0 / np.sqrt(2.0)
    idx = d
    for i in range(d):
        for j in range(i + 1, d):
            basis[idx, i, j] = basis[idx, j, i] = r
            if real:
                basis[idx + 1, i, j], basis[idx + 1, j, i] = r, -r
            else:
                basis[idx + 1, i, j], basis[idx + 1, j, i] = -1j * r, 1j * r
            odd[idx + 1] = True
            idx += 2
    return basis, odd


def window_basis(d: int, sites: int, real: bool) -> tuple:
    """Products of `site_basis` elements over a window, site 0 leftmost.

    Complex models get all (d^2)^sites products, an orthonormal basis of the
    Hermitian operators; real ones keep the real symmetric products (an even
    number of antisymmetric factors). Returns the stack, with the identity
    product first, and a mask of the products whose last factor is I/sqrt(d).
    """
    one, odd_one = site_basis(d, real)
    prod, odd = one, odd_one
    for _ in range(sites - 1):
        dim = prod.shape[1] * d
        prod = np.einsum("aij,bkl->abikjl", prod, one).reshape(-1, dim, dim)
        odd = (odd[:, None] ^ odd_one[None, :]).ravel()
    ends_in_identity = np.arange(odd.size) % (d * d) == 0
    if real:
        return prod[~odd], ends_in_identity[~odd]
    return prod, ends_in_identity


def boundary_sites(m: int, s: int) -> list:
    """Ordered wrap window: patch sites (m-s+1..m, 1..s), zero-based."""
    return [m - s + j for j in range(s)] + list(range(s))


def crossing_sites(s: int, placement: str) -> tuple:
    """The two window factors carrying the inter-patch interaction term."""
    if placement == "middle":
        return (s - 1, s)
    return (2 * s - 2, 2 * s - 1)


def _place(out: np.ndarray, ops: np.ndarray, k: int, m: int, d: int):
    """out[j] += the lift of ops[j] onto the consecutive window starting at
    site k of m, I_{d^k} (x) ops[j] (x) I, written entry by entry; `out` is
    C-contiguous, so the reshape is a view."""
    dim = ops.shape[1]
    head, tail = d ** k, d ** m // (d ** k * dim)
    view = out.reshape(len(ops), head, dim, tail, head, dim, tail)
    for a in range(head):
        for c in range(tail):
            view[:, a, :, c, a, :, c] += ops


def build_marginal_sdp(spec: MarginalProblemSpec) -> sdp.SdpProblem:
    """Assemble the one-block SDP over the patch state omega on m sites.

    sigma is the marginal of omega on the first window W_0, so the crossing
    term is lifted onto W_0. Constraints: tr(omega) = 1 and
    tr(omega (lift_{W_k}(B) - lift_{W_0}(B))) = 0 for the products B of
    `window_basis`: every B but the identity on W_1, and on each later W_k
    only the B whose last factor is not the identity (a row whose last factor
    is the identity is the sum of two rows already present). The rows are
    therefore linearly independent and span the same constraints as every
    basis element on every window. Real models use the real-symmetric
    restriction; complex ones are real-embedded (matrices halved so traces
    match the complex problem).
    """
    model, m, s = spec.model, spec.m, spec.s
    d, real = model.d, model.is_real

    if spec.mode == "wrap":
        windows = [boundary_sites(m, s)]
    else:
        windows = [list(range(k, k + 2 * s)) for k in range(m - 2 * s + 1)]
    first, later = windows[0], windows[1:]

    h = np.asarray(model.term, dtype=float if real else complex)
    cross = embed_on_sites(h, [first[j] for j in crossing_sites(s, spec.placement)],
                           m, d)
    objective = (build_patch(model, PatchSpec(m, 1, "open")) + cross).toarray()

    groups = []  # (window start, window operators) per later window
    if later:
        basis, ends_in_identity = window_basis(d, 2 * s, real)
        groups = [(later[0][0], basis[1:])]
        groups += [(win[0], basis[~ends_in_identity]) for win in later[1:]]
    dim = d ** m
    n = dim if real else 2 * dim
    A = np.zeros((1 + sum(len(ops) for _, ops in groups), n, n))
    b = np.zeros(A.shape[0])

    def block(mat):
        return mat.real if real else sdp.real_embed(mat) / 2.0

    A[0] = block(np.eye(dim))
    b[0] = 1.0
    row = 1
    for k, ops in groups:
        rows = slice(row, row + len(ops))
        diff = A[rows] if real else np.zeros((len(ops), dim, dim), dtype=complex)
        _place(diff, ops, k, m, d)
        _place(diff, -ops, 0, m, d)
        if not real:  # the real embedding [[Re, -Im], [Im, Re]] / 2 of each row
            A[rows, :dim, :dim] = A[rows, dim:, dim:] = diff.real / 2.0
            A[rows, :dim, dim:] = -diff.imag / 2.0
            A[rows, dim:, :dim] = diff.imag / 2.0
        row += len(ops)
    return sdp.SdpProblem([n], [block(objective)], [A], b)


def improved_anderson_bound(spec: MarginalProblemSpec, gap_tol: float = 1e-9,
                            feas_tol: float = 1e-9,
                            quality_tol: float = 1e-6) -> MarginalBoundResult:
    """Solve the marginal SDP; z is the rigorous dual-side value, z/m the bound.

    The returned bound comes from the dual certificate, which is valid for any
    iterate, so a solve that stalls just short of the target tolerances is
    still accepted as long as its duality gap is below quality_tol.
    """
    t0 = time.perf_counter()
    problem = build_marginal_sdp(spec)
    sol = sdp.solve(problem, gap_tol=gap_tol, feas_tol=feas_tol)
    if sol.status != "optimal" and not (sol.gap <= quality_tol
                                        and sol.feas_primal <= quality_tol):
        raise RuntimeError(
            f"marginal SDP solve failed (status {sol.status}, "
            f"gap {sol.gap:g}, primal residual {sol.feas_primal:g})")
    # omega has trace 1; real embedding doubles the block trace
    tb = 1.0 if spec.model.is_real else 2.0
    z = sdp.dual_lower_bound(problem, sol, trace_bounds=(tb,))
    return MarginalBoundResult(
        m=spec.m, s=spec.s, mode=spec.mode, placement=spec.placement,
        z=z, density_bound=z / spec.m, gap=sol.gap, feas_dual=sol.feas_dual,
        iterations=sol.iterations, seconds=time.perf_counter() - t0,
        diagnostics={"primal_obj": sol.primal_obj, "dual_obj": sol.dual_obj,
                     "status": sol.status,
                     "stalled": bool(sol.diagnostics.get("stalled", False)),
                     **sdp.solve_counts(problem, sol)})
