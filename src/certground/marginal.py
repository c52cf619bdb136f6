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

The SDP is solved on the symmetry blocks of omega (Gatermann & Parrilo,
J. Pure Appl. Algebra 192, 2004). When the term conserves the charge (the
digit sum, S^z for qubits), averaging omega over the charge rotations keeps
every constraint and the objective, so omega is block diagonal with one
block omega_q per charge q, and only window operators that commute with the
charge need rows. When the term is also flip symmetric (every digit k to
d - 1 - k), omega can be taken flip invariant, omega_{(d-1)m-q} = F omega_q F^T:
one variable X_q for 2q < (d - 1)m carries weight 2 in the trace row, the
objective and every flip-even row, flip-odd rows act on the self-paired
block alone, and sum_q w_q tr X_q = 1 bounds tr X_q by 1/w_q in the
certificate. Without a charge, omega is one d^m block. Reflection and the
flip of charge-free terms (tfim) would need a change of basis, not a
selection of states, and are not used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .models import ModelSpec, exact_sums, state_charges, term_symmetries
# unused here, but the benchmark tracer (perfbench/tracing.py) wraps them by name
from .models import build_patch, embed_on_sites  # noqa: F401

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


def charge_basis(d: int) -> tuple:
    """A real basis of one site's operators, graded by charge and mapped to
    itself up to sign by the flip k -> d - 1 - k, I/sqrt(d) first.

    Elements: I/sqrt(d); the diagonal (e_k - e_{d-1-k})/sqrt(2) for k < d/2
    (flip-odd); (e_k + e_{d-1-k})/sqrt(2) for 0 < k < (d-1)/2 and, for odd d,
    e_{(d-1)/2} (flip-even); then every E_ij with i != j, which moves the
    charge by i - j. For d = 2: I/sqrt(2), Z/sqrt(2), |0><1| and |1><0|.
    Returns the (d^2, d, d) stack and each element's charge.
    """
    eye = np.eye(d)
    diagonals = [np.ones(d) / np.sqrt(d)]
    diagonals += [(eye[k] - eye[d - 1 - k]) / np.sqrt(2.0) for k in range(d // 2)]
    for k in range(1, (d + 1) // 2):
        pair = eye[k] + eye[d - 1 - k]
        diagonals.append(pair / np.linalg.norm(pair))
    off = [(i, j) for i in range(d) for j in range(d) if i != j]
    basis = np.zeros((d * d, d, d))
    for k, diag in enumerate(diagonals):
        basis[k] = np.diag(diag)
    for k, (i, j) in enumerate(off, start=d):
        basis[k, i, j] = 1.0
    return basis, np.array([0] * d + [i - j for i, j in off])


def _signed_images(basis: np.ndarray, images: np.ndarray) -> tuple:
    """For each image, the index k and sign c with image == c basis[k] exactly."""
    flat, img = basis.reshape(len(basis), -1), images.reshape(len(images), -1)
    plus = np.all(img[:, None] == flat[None], axis=2)
    minus = np.all(img[:, None] == -flat[None], axis=2)
    if not np.all(np.any(plus | minus, axis=1)):
        raise ValueError("the basis is not closed under the map")
    index = np.argmax(plus | minus, axis=1)
    return index, np.where(plus[np.arange(len(img)), index], 1, -1)


def window_basis(d: int, sites: int, real: bool, symmetry=()) -> tuple:
    """The operators behind the rows on one window of `sites` sites.

    Without "u1" in `symmetry` they are products of `site_basis` elements,
    site 0 leftmost: all (d^2)^sites for complex models, an orthonormal basis
    of the Hermitian operators, and the real symmetric ones (an even number of
    antisymmetric factors) for real models. With "u1" they come from the
    charge-conserving products P of `charge_basis` elements, which span the
    operators that commute with the charge: P + P^T for real models, and
    P + P^dag and i(P - P^dag) for complex ones. With "flip" as well, each is
    summed, with sign +1 and with sign -1, with its image under the global
    flip, into operators of definite flip parity. A sum over an orbit counts
    each distinct product once, with its sign, and sums that cancel are
    dropped: a product that is its own orbit is kept alone or not at all.
    Returns the stack, identity first, a mask of the operators whose last
    factor is the identity, and each one's flip parity (+1 or -1).
    """
    if "u1" in symmetry:
        one, charge = charge_basis(d)
    else:
        one, _ = site_basis(d, real)
        charge = np.zeros(d * d, dtype=int)
    dagger, dagger_sign = _signed_images(one, one.conj().transpose(0, 2, 1))
    if "flip" in symmetry:
        flip, flip_sign = _signed_images(one, one[:, ::-1, ::-1])
    else:
        flip, flip_sign = np.arange(d * d), np.ones(d * d, dtype=int)
    n = d * d
    words = np.indices((n,) * sites).reshape(sites, -1).T  # lexicographic, site 0 first
    words = words[charge[words].sum(axis=1) == 0]
    # the orbit of each word under flip and dagger: four images with signs
    images = [words, flip[words], dagger[words], dagger[flip[words]]]
    signs = [np.ones(len(words), dtype=int), flip_sign[words].prod(axis=1),
             dagger_sign[words].prod(axis=1),
             flip_sign[words].prod(axis=1) * dagger_sign[flip[words]].prod(axis=1)]
    codes = np.stack([w @ n ** np.arange(sites - 1, -1, -1) for w in images], axis=1)
    rep = codes[:, 0] == codes.min(axis=1)  # one word per orbit
    words, signs, codes = words[rep], [s[rep] for s in signs], codes[rep]
    same = codes[:, :, None] == codes[:, None, :]
    first = ~np.any(np.tril(same, -1), axis=2)  # the first slot holding each product
    rows = []  # (codes, coefficients, parity, kind, word) of the sums that survive
    for parity in ((1, -1) if "flip" in symmetry else (1,)):
        for kind in ((1,) if real else (1, -1)):  # P + P^dag, then i(P - P^dag)
            coef = np.stack([signs[0], parity * signs[1], kind * signs[2],
                             kind * parity * signs[3]], axis=1)
            merged = np.where(first, (same * coef[:, None, :]).sum(axis=2), 0)
            scale = np.abs(merged).max(axis=1)
            live = scale > 0
            rows.append((codes[live], merged[live] // scale[live, None], parity, kind,
                         words[live]))
    used = np.unique(np.concatenate([c[k != 0] for c, k, *_ in rows]))
    factors = np.stack(np.unravel_index(used, (n,) * sites), axis=1)
    prods = one[factors[:, 0]]
    for f in range(1, sites):
        dim = prods.shape[1] * d
        prods = np.einsum("kij,kab->kiajb", prods, one[factors[:, f]]).reshape(-1, dim, dim)
    stack, ends_in_identity, parities = [], [], []
    for c, k, parity, kind, word in rows:
        idx = np.searchsorted(used, c)
        ops = prods[idx[:, 0]]  # a word's own coefficient is 1
        for j in range(1, 4):
            extra = k[:, j] != 0
            ops[extra] += k[extra, j, None, None] * prods[idx[extra, j]]
        stack.append(ops if kind > 0 else 1j * ops)
        ends_in_identity.append(word[:, -1] == 0)
        parities.append(np.full(len(word), parity))
    return (np.concatenate(stack), np.concatenate(ends_in_identity),
            np.concatenate(parities))


def boundary_sites(m: int, s: int) -> list:
    """Ordered wrap window: patch sites (m-s+1..m, 1..s), zero-based."""
    return [m - s + j for j in range(s)] + list(range(s))


def crossing_sites(s: int, placement: str) -> tuple:
    """The two window factors carrying the inter-patch interaction term."""
    if placement == "middle":
        return (s - 1, s)
    return (2 * s - 2, 2 * s - 1)


def reduction(model: ModelSpec) -> tuple:
    """The symmetries the marginal SDP is reduced by: "u1" when the term
    conserves the charge, and "flip" as well when it is also flip-symmetric
    (`models.term_symmetries`)."""
    symmetries = term_symmetries(model)
    if "u1" not in symmetries:
        return ()
    return ("u1", "flip") if "flip" in symmetries else ("u1",)


def _blocks(m: int, d: int, symmetry) -> list:
    """The SDP blocks of omega as (sorted basis states, weight).

    Under "u1" omega is block diagonal in the charge q; under "flip" as well,
    its block at (d - 1) m - q is F omega_q F^T, so the blocks with
    2q < (d - 1) m stand for both and carry weight 2.
    """
    if "u1" not in symmetry:
        return [(np.arange(d ** m), 1)]
    charge, top, flip = state_charges(m, d), (d - 1) * m, "flip" in symmetry
    return [(np.flatnonzero(charge == q), 2 if flip and 2 * q < top else 1)
            for q in range(top // 2 + 1 if flip else top + 1)]


def _window_pairs(states: np.ndarray, sites, m: int, d: int) -> tuple:
    """The pairs (i, j) of `states` whose digits agree off the listed sites,
    and the index of each state's digits on them (sites[0] most significant):
    the nonzero pattern of any operator on those sites, lifted and restricted
    to `states`."""
    strides = d ** (m - 1 - np.asarray(sites))
    digits = states[:, None] // strides % d
    local = digits @ d ** np.arange(len(sites) - 1, -1, -1)
    rest = states - digits @ strides
    i, j = np.nonzero(rest[:, None] == rest[None, :])
    return i, j, local[i], local[j]


def _windows(spec: MarginalProblemSpec) -> list:
    """The windows whose marginals agree, W_0 first (see the module docstring)."""
    m, s = spec.m, spec.s
    if spec.mode == "wrap":
        return [boundary_sites(m, s)]
    return [list(range(k, k + 2 * s)) for k in range(m - 2 * s + 1)]


def _bonds(spec: MarginalProblemSpec) -> list:
    """The m bonds the objective sums the term over: the open bonds [k, k + 1]
    of the patch, then the crossing bond on W_0 (under wrap mode and middle
    placement, the wrap bond [m - 1, 0])."""
    first = _windows(spec)[0]
    return ([[k, k + 1] for k in range(spec.m - 1)]
            + [[first[j] for j in crossing_sites(spec.s, spec.placement)]])


def _bond_sum(term: np.ndarray, states: np.ndarray, bonds, m: int, d: int) -> np.ndarray:
    """The sum of `term` lifted onto each bond, restricted to `states`, as a
    dense matrix; entries gain their bond contributions in bond order."""
    out = np.zeros((states.size, states.size), dtype=term.dtype)
    for bond in bonds:
        i, j, a, b = _window_pairs(states, bond, m, d)
        out[i, j] += term[a, b]
    return out


def _place(out: np.ndarray, diff: np.ndarray, real: bool) -> None:
    """Write rows into `out`: as they are when real, else their real
    embedding [[Re, -Im], [Im, Re]] / 2 (halved so traces match)."""
    if real:
        out[:] = diff
        return
    size = diff.shape[-1]
    out[:, :size, :size] = out[:, size:, size:] = diff.real / 2.0
    out[:, :size, size:] = -diff.imag / 2.0
    out[:, size:, :size] = diff.imag / 2.0


def build_marginal_sdp(spec: MarginalProblemSpec) -> sdp.SdpProblem:
    """Assemble the SDP over the patch state omega on m sites, one block per
    symmetry block of omega (`reduction`, `_blocks`).

    sigma is the marginal of omega on the first window W_0, so the crossing
    term is lifted onto W_0. Constraints: sum_q w_q tr(omega_q) = 1 and
    tr(omega (lift_{W_k}(B) - lift_{W_0}(B))) = 0 for the operators B of
    `window_basis`: every B but the identity on W_1, and on each later W_k
    only the B whose last factor is not the identity (a row whose last factor
    is the identity is the sum of two rows already present). The rows are
    therefore linearly independent and span the same constraints as every
    basis element on every window. Averaging omega over the symmetry group
    changes neither the objective nor feasibility, so only invariant B need
    rows, and they are block diagonal. A block of weight 2 stands for omega_q
    and its flip partner: flip-even rows and the objective count it twice, and
    flip-odd rows vanish on it, so they act on the self-paired block alone.
    Every row block and every objective block is gathered from the block's
    basis states alone (`_window_pairs`), so no d^m x d^m matrix is built: the
    objective adds the term on each of the m bonds of `_bonds` in turn. Real
    models use the real-symmetric rows; complex ones are real-embedded block
    by block (matrices halved so traces match the complex problem).
    `assembly_margin` bounds what the rounding in these sums can cost the
    certificate.
    """
    model, m, s = spec.model, spec.m, spec.s
    d, real = model.d, model.is_real
    symmetry = reduction(model)
    windows = _windows(spec)
    first, later = windows[0], windows[1:]

    h = np.asarray(model.term, dtype=float if real else complex)
    bonds = _bonds(spec)
    blocks = _blocks(m, d, symmetry)
    groups = []  # (window, window operators, their flip parities) per later window
    if later:
        ops, ends_in_identity, parity = window_basis(d, 2 * s, real, symmetry)
        groups = [(later[0], ops[1:], parity[1:])]
        groups += [(win, ops[~ends_in_identity], parity[~ends_in_identity])
                   for win in later[1:]]
    row_parity = np.concatenate([[1]] + [parity for _, _, parity in groups])
    n_rows = row_parity.size

    C, A = [], []
    for states, weight in blocks:
        size = states.size
        objective = _bond_sum(h, states, bonds, m, d)
        # a complex term's rows are built one window group at a time in a
        # complex buffer, then real-embedded into their rows
        rows_block = np.zeros((n_rows, size, size)) if real else np.empty(
            (n_rows, 2 * size, 2 * size))
        _place(rows_block[:1], np.eye(size)[None], real)
        i0, j0, a0, b0 = _window_pairs(states, first, m, d)
        row = 1
        for win, ops, parity in groups:
            group = slice(row, row + len(ops))
            diff = rows_block[group] if real else np.zeros((len(ops), size, size),
                                                           dtype=complex)
            live = np.arange(len(ops))
            if weight == 2:  # flip-odd rows vanish on a merged block
                live, ops = live[parity > 0], ops[parity > 0]
            i, j, a, b = _window_pairs(states, win, m, d)
            diff[live[:, None], i, j] += ops[:, a, b]
            diff[live[:, None], i0, j0] -= ops[:, a0, b0]
            if not real:
                _place(rows_block[group], diff, real)
            row += len(parity)
        block = objective if real else sdp.real_embed(objective) / 2.0
        if weight != 1:
            block *= weight
            rows_block *= weight
        C.append(block)
        A.append(rows_block)
    b = np.zeros(n_rows)
    b[0] = 1.0
    odd = np.flatnonzero(row_parity < 0)
    if odd.size:
        # flip-odd rows are zero on merged blocks and act on the self-paired
        # block alone (the last, if (d - 1)m is even), where some become
        # combinations of others: keep a maximal independent subset
        keep = np.ones(n_rows, dtype=bool)
        keep[odd] = False
        if blocks[-1][1] == 1:
            keep[odd[sdp._independent_rows([A[-1][odd]], odd.size)]] = True
        A, b = [a[keep] for a in A], b[keep]
    return sdp.SdpProblem([c.shape[0] for c in C], C, A, b)


def _uniform_entries(d: int, real: bool, symmetry) -> bool:
    """Whether the nonzero entries of each element of the one-site basis
    behind the rows (`window_basis`) share one magnitude."""
    one = charge_basis(d)[0] if "u1" in symmetry else site_basis(d, real)[0]
    mags = np.abs(one).reshape(len(one), -1)
    return bool(np.all((mags == 0) | (mags == mags.max(axis=1, keepdims=True))))


def assembly_margin(spec: MarginalProblemSpec, problem: sdp.SdpProblem, y) -> float:
    """A bound on how far `sdp.dual_lower_bound` of the assembled `problem`
    (`build_marginal_sdp(spec)`) at the dual vector y can sit above the same
    certificate for the exactly assembled SDP.

    Block k's entries enter the certificate through tr(Z_k X_k) with
    tr X_k <= 1 / c_k, c_k the trace row's coefficient, so an error Delta in
    C_k or in row i (times y_i) costs at most ||Delta||_F / c_k.

    Objective: an entry of a block's objective (`_bond_sum`) is a
    floating-point sum of at most m bond contributions x, so its real and
    imaginary parts are each within gamma_m sum |x|, and the block is
    entrywise within gamma_m S_k of the exact one, S_k the bond-by-bond sum
    of |Re h| + |Im h|. The block weight and the real embedding scale C_k by
    c_k too, so block k costs at most gamma_m ||S_k||_F. Terms that pass
    `models.exact_sums` are summed exactly and cost nothing.

    Rows: a row entry is one window operator entry, or the difference of two
    (W_k's and W_0's), times the weight and the embedding's 1/2, which are
    exact. When the nonzero entries of each one-site basis element share one
    magnitude (d = 2, and the charge-graded basis for every d), so do those
    of each window operator B, whose orbit sums add products on disjoint
    entries; such a difference is then 0 or twice an entry, so every row is
    exactly lift_{W_k}(B) - lift_{W_0}(B) for the computed B, a valid
    constraint, and costs nothing. Otherwise (the Gell-Mann diagonals of
    `site_basis`, d >= 3 without a charge) the difference rounds once, row i
    of block k is within gamma_1 ||A_ik||_F of an exact one, and it costs
    gamma_1 |y_i| ||A_ik||_F / c_k.
    """
    model, m, d = spec.model, spec.m, spec.model.d
    real, symmetry = model.is_real, reduction(model)
    h = np.asarray(model.term, dtype=float if real else complex)
    margin = 0.0
    if not exact_sums(h, m):
        weight, bonds = np.abs(h.real) + np.abs(h.imag), _bonds(spec)
        norms = [np.linalg.norm(_bond_sum(weight, states, bonds, m, d))
                 for states, _ in _blocks(m, d, symmetry)]
        margin += sdp._gamma(m) * float(sum(norms))
    if not _uniform_entries(d, real, symmetry):
        y = np.abs(np.asarray(y, dtype=float)[1:])  # the trace row is exact
        for a in problem.A:
            rows = np.sqrt(np.einsum("ijk,ijk->i", a[1:], a[1:]))
            margin += sdp._gamma(1) * float(y @ rows) / a[0, 0, 0]
    return margin * (1 + 1e-6)  # covers the rounding of the margin's own sums


def improved_anderson_bound(spec: MarginalProblemSpec,
                            gap_tol: float = 1e-9) -> MarginalBoundResult:
    """Solve the marginal SDP; z is the rigorous dual-side value, z/m the bound.

    The returned bound comes from the dual certificate, which is valid for any
    iterate, so a solve that stalls just short of the target tolerances is
    still accepted as long as its duality gap and primal residual are below
    sdp.QUALITY_TOL (`sdp.certified_solve`). The trace row's coefficient on
    each block, c_k there, is the block's weight, halved by a real embedding.
    z also subtracts `assembly_margin`, rounded down, so the rounding in
    assembling the SDP cannot invalidate the bound either.
    """
    t0 = time.perf_counter()
    problem = build_marginal_sdp(spec)
    sol, z = sdp.certified_solve(problem, "marginal", gap_tol=gap_tol)
    margin = assembly_margin(spec, problem, sol.y)
    if margin:  # rounded down, so the subtraction cannot lift the bound
        z = float(np.nextafter(z - margin, -np.inf))
    return MarginalBoundResult(
        m=spec.m, s=spec.s, mode=spec.mode, placement=spec.placement,
        z=z, density_bound=z / spec.m, gap=sol.gap, feas_dual=sol.feas_dual,
        iterations=sol.iterations, seconds=time.perf_counter() - t0,
        diagnostics={"primal_obj": sol.primal_obj, "dual_obj": sol.dual_obj,
                     "status": sol.status,
                     "stalled": bool(sol.diagnostics.get("stalled", False)),
                     "blocks": list(problem.blocks),
                     "symmetry": list(reduction(spec.model)),
                     "assembly_margin": margin,
                     **sdp.solve_counts(problem, sol)})
