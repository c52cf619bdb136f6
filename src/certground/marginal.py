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
objective and every row, only flip-even window operators need rows (a
flip-odd one vanishes on every flip-invariant omega), and
sum_q w_q tr X_q = 1 bounds tr X_q by 1/w_q in the certificate. Without a
charge, omega is one d^m block; a complex term gives Hermitian blocks of the
same sizes. Reflection and the flip of charge-free terms (tfim) would need
a change of basis, not a selection of states, and are not used.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import sdp
from .models import ModelSpec, charge_blocks, divide_down, exact_sums
from .reports import BoundReport
# unused here, but the benchmark tracer (perfbench/tracing.py) wraps them by name
from .models import build_patch, embed_on_sites  # noqa: F401

_SDP_SITE_CAP = 10  # dense SDP blocks; qubit-equivalents
_MAX_BYTES = 5 * 2 ** 29  # 2.5 GiB: what one request's solve holds at its peak


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
        if (need := _request_bytes(self)) > _MAX_BYTES:
            raise ValueError(f"a solve of the SDP needs {need / 2 ** 30:.1f} GiB at its peak, "
                             f"over the {_MAX_BYTES / 2 ** 30:g} GiB limit")


def charge_basis(d: int) -> tuple:
    """A real basis of one site's operators, graded by charge and mapped to
    itself up to sign by the flip k -> d - 1 - k, I/sqrt(d) first.

    Elements: I/sqrt(d); the diagonal (e_k - e_{d-1-k})/sqrt(2) for k < d/2
    (flip-odd); (e_k + e_{d-1-k})/sqrt(2) for 0 < k < (d-1)/2 and, for odd d,
    e_{(d-1)/2} (flip-even); then every E_ij with i != j, which moves the
    charge by i - j. For d = 2: I/sqrt(2), Z/sqrt(2), |0><1| and |1><0|.
    The nonzero entries of each element share one magnitude, which keeps
    every row of the SDP exact (`assembly_margin`).
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

    They come from the products P of `charge_basis` elements, site 0
    leftmost: P + P^T for real models, and P + P^dag and i(P - P^dag) for
    complex ones, which span the real symmetric (Hermitian) operators,
    d^w (d^w + 1) / 2 (d^(2w)) of them for w = `sites`. With "u1" in
    `symmetry` only the charge-conserving products are used, which span the
    operators that commute with the charge. With "flip" as well, each is
    summed with its image under the global flip, which leaves the flip-even
    operators alone: the rows `build_marginal_sdp` needs. A sum over an orbit
    counts each distinct product once, with its sign, and sums that cancel
    are dropped: a product that is its own orbit is kept alone or not at all.
    Returns the stack, identity first, and a mask of the operators whose last
    factor is the identity.
    """
    one, charge = charge_basis(d)
    dagger, dagger_sign = _signed_images(one, one.conj().transpose(0, 2, 1))
    if "flip" in symmetry:
        flip, flip_sign = _signed_images(one, one[:, ::-1, ::-1])
    else:
        flip, flip_sign = np.arange(d * d), np.ones(d * d, dtype=int)
    n = d * d
    words = np.indices((n,) * sites).reshape(sites, -1).T  # lexicographic, site 0 first
    if "u1" in symmetry:
        words = words[charge[words].sum(axis=1) == 0]
    # the orbit of each word under flip and dagger: four images with signs
    images = [words, flip[words], dagger[words], dagger[flip[words]]]
    signs = np.stack([np.ones(len(words), dtype=int), flip_sign[words].prod(axis=1),
                      dagger_sign[words].prod(axis=1),
                      flip_sign[words].prod(axis=1) * dagger_sign[flip[words]].prod(axis=1)],
                     axis=1)
    codes = np.stack([w @ n ** np.arange(sites - 1, -1, -1) for w in images], axis=1)
    rep = codes[:, 0] == codes.min(axis=1)  # one word per orbit
    words, signs, codes = words[rep], signs[rep], codes[rep]
    same = codes[:, :, None] == codes[:, None, :]
    first = ~np.any(np.tril(same, -1), axis=2)  # the first slot holding each product
    rows = []  # (codes, coefficients, kind, word) of the sums that survive
    for kind in ((1,) if real else (1, -1)):  # P + P^dag, then i(P - P^dag)
        coef = signs * (1, 1, kind, kind)
        merged = np.where(first, (same * coef[:, None, :]).sum(axis=2), 0)
        scale = np.abs(merged).max(axis=1)
        live = scale > 0
        rows.append((codes[live], merged[live] // scale[live, None], kind, words[live]))
    used = np.unique(np.concatenate([c[k != 0] for c, k, *_ in rows]))
    factors = np.stack(np.unravel_index(used, (n,) * sites), axis=1)
    prods = one[factors[:, 0]]
    for f in range(1, sites):
        dim = prods.shape[1] * d
        prods = np.einsum("kij,kab->kiajb", prods, one[factors[:, f]]).reshape(-1, dim, dim)
    stack, ends_in_identity = [], []
    for c, k, kind, word in rows:
        idx = np.searchsorted(used, c)
        ops = prods[idx[:, 0]]  # a word's own coefficient is 1
        for j in range(1, 4):
            extra = k[:, j] != 0
            ops[extra] += k[extra, j, None, None] * prods[idx[extra, j]]
        stack.append(ops if kind > 0 else 1j * ops)
        ends_in_identity.append(word[:, -1] == 0)
    return np.concatenate(stack), np.concatenate(ends_in_identity)


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
    (`ModelSpec.symmetries`, cached on the model)."""
    symmetries = model.symmetries
    if "u1" not in symmetries:
        return ()
    return ("u1", "flip") if "flip" in symmetries else ("u1",)


@functools.cache  # a handful of (d, sites) per process, as the caps bound them
def _basis_size(d: int, sites: int, real: bool, symmetry: tuple) -> int:
    """len(window_basis(d, sites, real, symmetry)[0]): the symmetric (Hermitian)
    matrices on each charge block n_q; under "flip" on one block of each flip
    pair, and on the (n_q + f) / 2 even and (n_q - f) / 2 odd states of a
    self-paired block, f = d mod 2 of them fixed by the flip (`_blocks`)."""
    n, f = [states.size for states, _ in _blocks(sites, d, symmetry)], d % 2
    if "flip" in symmetry and (d - 1) * sites % 2 == 0:  # the last block is self-paired
        n[-1:] = [(n[-1] + f) // 2, (n[-1] - f) // 2]
    return sum(k * (k + 1) // 2 if real else k * k for k in n)


def _request_bytes(spec: MarginalProblemSpec) -> int:
    """The bytes a solve of the SDP holds at its peak, counted unbuilt: the
    window products (at most one real d^2s x d^2s matrix per charge-conserving
    word), the constraint matrices A, `sdp._schur`'s temporary P (as large as
    A's largest block), X, S and their two factors (4 n^2 per block) and the
    Schur complement M."""
    d, w, real, symmetry = spec.model.d, 2 * spec.s, spec.model.is_real, reduction(spec.model)
    later, rows, products = len(_windows(spec)) - 1, 1, 0
    if later:  # W_1's rows, then each later window's not ending in the identity
        full = _basis_size(d, w, real, symmetry)
        rows += full - 1 + (later - 1) * (full - _basis_size(d, w - 1, real, symmetry))
        # one product per word that conserves the charge: the Hermitian count
        # under the charge alone (symmetry[:1] is "u1" or nothing)
        products = _basis_size(d, w, False, symmetry[:1]) * d ** (2 * w) * 8
    squares = [states.size ** 2 for states, _ in _blocks(spec.m, d, symmetry)]
    matrices = (rows * (sum(squares) + max(squares)) + 4 * sum(squares)) * (8 if real else 16)
    return products + matrices + rows * rows * 8


def _blocks(m: int, d: int, symmetry) -> list:
    """The SDP blocks of omega as (sorted basis states, weight).

    Under "u1" omega is block diagonal in the charge q; under "flip" as well,
    its block at (d - 1) m - q is F omega_q F^T, so the blocks with
    2q < (d - 1) m (`models.charge_blocks`) stand for both and carry weight 2.
    """
    if "u1" not in symmetry:
        return [(np.arange(d ** m), 1)]
    flip = "flip" in symmetry
    return [(states, 2 if flip and 2 * q < (d - 1) * m else 1)
            for q, states in enumerate(charge_blocks(m, d, flip))]


def _window_pairs(states: np.ndarray, sites, m: int, d: int) -> tuple:
    """The pairs (i, j) of `states` whose digits agree off the listed sites,
    and the index of each state's digits on them (sites[0] most significant):
    the nonzero pattern of any operator on those sites, lifted and restricted
    to `states`. Pairs come in row-major (i, j) order."""
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
    rows, and they are block diagonal. Under the flip that leaves the
    flip-even B: (omega + F omega F^T) / 2 meets every flip-odd row and keeps
    the flip-even rows and the objective, so dropping the flip-odd rows
    neither lowers the optimum nor, as a relaxation, invalidates the
    certificate. A block of weight 2 stands for omega_q and its flip
    partner, so every row and the objective count it twice. Every row block
    and every objective block is gathered from the block's basis states
    alone (`_window_pairs`), so no d^m x d^m matrix is built: the objective
    adds the term on each of the m bonds of `_bonds` in turn. Real
    models use real-symmetric blocks, complex ones Hermitian blocks.
    `assembly_margin` bounds what the rounding in these sums can cost the
    certificate.
    """
    model, m, s = spec.model, spec.m, spec.s
    d, real, h = model.d, model.is_real, model.term
    symmetry = reduction(model)
    windows = _windows(spec)
    first, later = windows[0], windows[1:]

    bonds = _bonds(spec)
    blocks = _blocks(m, d, symmetry)
    groups = []  # (window, window operators) per later window
    if later:
        ops, ends_in_identity = window_basis(d, 2 * s, real, symmetry)
        groups = [(later[0], ops[1:])] + [(win, ops[~ends_in_identity]) for win in later[1:]]
    n_rows = 1 + sum(len(ops) for _, ops in groups)

    C, A = [], []
    for states, weight in blocks:
        size = states.size
        objective = _bond_sum(h, states, bonds, m, d)
        rows_block = np.zeros((n_rows, size, size), dtype=h.dtype)
        rows_block[0] = np.eye(size)
        i0, j0, a0, b0 = _window_pairs(states, first, m, d)
        row = 1
        for win, ops in groups:
            diff = rows_block[row:row + len(ops)]
            i, j, a, b = _window_pairs(states, win, m, d)
            diff[:, i, j] += ops[:, a, b]
            diff[:, i0, j0] -= ops[:, a0, b0]
            row += len(ops)
        if weight != 1:
            objective *= weight
            rows_block *= weight
        C.append(objective)
        A.append(rows_block)
    b = np.zeros(n_rows)
    b[0] = 1.0
    return sdp.SdpProblem([c.shape[0] for c in C], C, A, b)


def assembly_margin(spec: MarginalProblemSpec) -> float:
    """A bound on how far `sdp.dual_lower_bound` of the assembled SDP
    (`build_marginal_sdp(spec)`), at any dual vector, can sit above the same
    certificate for the exactly assembled SDP.

    Block k's entries enter the certificate through tr(Z_k X_k) with
    tr X_k <= 1 / c_k, c_k the trace row's coefficient, so an error Delta in
    C_k costs at most ||Delta||_F / c_k.

    Objective: an entry of a block's objective (`_bond_sum`) is a
    floating-point sum of at most m bond contributions x, so its real and
    imaginary parts are each within gamma_m sum |x|, and the block is
    entrywise within gamma_m S_k of the exact one, S_k the bond-by-bond sum
    of |Re h| + |Im h|. The block weight scales C_k by c_k too, so block k
    costs at most gamma_m ||S_k||_F, real or complex. Terms that pass
    `models.exact_sums` are summed exactly and cost nothing.

    Rows cost nothing. A row entry is one window operator entry, or the
    difference of two (W_k's and W_0's), times the exact weight. The nonzero
    entries of each `charge_basis` element share one magnitude, so do those
    of each window operator B, whose orbit sums add products on disjoint
    entries; such a difference is then 0 or twice an entry, so every row is
    exactly lift_{W_k}(B) - lift_{W_0}(B) for the computed B, a valid constraint.
    """
    h, m, d = spec.model.term, spec.m, spec.model.d
    if exact_sums(h, m):
        return 0.0
    weight, bonds = np.abs(h.real) + np.abs(h.imag), _bonds(spec)
    norms = [np.linalg.norm(_bond_sum(weight, states, bonds, m, d))
             for states, _ in _blocks(m, d, reduction(spec.model))]
    # the factor covers the rounding of the margin's own sums
    return sdp._gamma(m) * float(sum(norms)) * (1 + 1e-6)


def improved_anderson_bound(spec: MarginalProblemSpec,
                            gap_tol: float = 1e-9) -> BoundReport:
    """Solve the marginal SDP; z is the rigorous dual-side value, z/m the bound.

    The returned bound comes from the dual certificate, which is valid for any
    iterate, so a solve that stalls just short of the target tolerances is
    still accepted as long as its duality gap and primal residual are below
    sdp.QUALITY_TOL (`sdp.certified_solve`). The trace row's coefficient on
    each block, c_k there, is the block's weight, for Hermitian blocks too.
    z also subtracts `assembly_margin`, rounded down, and z/m is rounded down
    (`models.divide_down`), so neither the rounding in assembling the SDP nor
    the division can invalidate the bound either. Only the consecutive reading
    is `certified`: the module docstring's feasibility argument covers it alone.
    """
    problem = build_marginal_sdp(spec)
    sol, z = sdp.certified_solve(problem, "marginal", gap_tol=gap_tol)
    margin = assembly_margin(spec)
    if margin:  # rounded down, so the subtraction cannot lift the bound
        z = float(np.nextafter(z - margin, -np.inf))
    return BoundReport(
        method="marginal", model=spec.model.name,
        params={"m": spec.m, "s": spec.s, "mode": spec.mode, "placement": spec.placement},
        lower=divide_down(z, spec.m), certified=spec.mode == "consecutive",
        diagnostics={"z": z, "gap": sol.gap, "dual_residual": sol.feas_dual,
                     "iterations": sol.iterations, "status": sol.status,
                     "stalled": bool(sol.diagnostics.get("stalled", False)),
                     "blocks": list(problem.blocks),
                     "symmetry": list(reduction(spec.model)),
                     "assembly_margin": margin,
                     **sdp.solve_counts(problem, sol)})
