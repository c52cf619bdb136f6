"""References for the tests, which no command needs.

`partial_trace` gives a marginal of an explicit state, `oracle_moment_matrix`
the feasible point of the moment SDP that a ring state defines, and
`product_state_upper_serial` the product-state multistart run one restart at
a time, as `upper.product_state_upper` ran it before it ran them as a batch.
`canonicalize` and `label` are the plain Pauli-string references that
`pauli.hermitian_class` and the moment classes are checked against,
`string_to_dense` the dense matrix of a string and `labels_to_dense` the
Pauli sum built from it that `models.pauli_term` must match, and
`charge_blocks` gives a patch's charge blocks before `charge_sectors`
reduces them. `as_csr` turns a small `build_patch` block into the scipy
matrix with the same stored entries, for tests that slice it or add to it.
"""

import math

import numpy as np

from certground.models import Sector, state_charges
from certground.pauli import PauliString

_BITS_TO_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_SINGLE = {  # X^x Z^z by its bits (x, z)
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}


def label(p: PauliString) -> str:
    """The string's letters, site 0 first; the phase is not shown."""
    return "".join(_BITS_TO_LABEL[(p.x_mask >> k) & 1, (p.z_mask >> k) & 1]
                   for k in range(p.width))


def canonicalize(p: PauliString) -> tuple[int, PauliString]:
    """Return (offset, canonical) with the leftmost non-identity site at 0.

    The canonical string is trimmed to its support length, so translates of
    the same pattern on different windows share one canonical form. The
    identity canonicalizes to a width-1 identity with offset 0. The phase
    stays on the string.
    """
    supp = p.x_mask | p.z_mask
    if supp == 0:
        return 0, PauliString(1, 0, 0, p.phase_exp)
    offset = (supp & -supp).bit_length() - 1
    length = supp.bit_length() - offset
    return offset, PauliString(length, p.x_mask >> offset, p.z_mask >> offset, p.phase_exp)


def string_to_dense(p: PauliString) -> np.ndarray:
    """Dense 2^width matrix of p, site 0 as the leftmost Kronecker factor."""
    m = np.array([[1]], dtype=complex)
    for k in range(p.width):
        m = np.kron(m, _SINGLE[(p.x_mask >> k) & 1, (p.z_mask >> k) & 1])
    return (1j ** p.phase_exp) * m


def labels_to_dense(pairs) -> np.ndarray:
    """Dense sum of c * P over (coefficient, label) pairs such as (0.5, "XX"),
    each P from `string_to_dense`, and each entry the `math.fsum` of its real
    and of its imaginary parts."""
    terms = np.stack([c * string_to_dense(PauliString.from_label(label))
                      for c, label in pairs])
    out = np.zeros(terms.shape[1:], dtype=complex)
    for i, j in zip(*np.nonzero(np.any(terms != 0, axis=0))):
        out[i, j] = complex(math.fsum(terms[:, i, j].real), math.fsum(terms[:, i, j].imag))
    return out


def as_csr(h):
    """`h` as a scipy.sparse CSR matrix: a `models.CsrBlock` with its stored
    entries, in their order; a scipy matrix as it is."""
    import scipy.sparse as sp
    return h if sp.issparse(h) else sp.csr_matrix((h.data, h.indices, h.indptr), shape=h.shape)


def charge_blocks(model, n: int) -> list:
    """The charge blocks of an n-site patch as `Sector` arrays, unreduced: the
    floor(n/2) block of an SU(2) term, every block of a U(1) term, or else
    the whole space."""
    def block(states, symmetry):
        sector = states.view(Sector)
        sector.symmetry = symmetry
        return sector

    if "u1" not in model.symmetries:
        return [block(np.arange(model.d ** n), ())]
    charge = state_charges(n, model.d)
    if "su2" in model.symmetries:
        return [block(np.flatnonzero(charge == n // 2), ("su2",))]
    return [block(np.flatnonzero(charge == q), ("u1",)) for q in range(charge.max() + 1)]


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


def oracle_moment_matrix(state: np.ndarray, n_sites: int, window: int) -> np.ndarray:
    """Translation average of a ring state's `window`-site reduced states.

    `state` is a pure state vector on `n_sites` ring sites. The average is a
    feasible rho of `ti_moment_bound`: PSD with unit trace, and both of its
    (l-1)-site marginals are the ring's averaged (l-1)-site state.
    """
    state = np.asarray(state, dtype=complex).ravel()
    if state.size != 1 << n_sites:
        raise ValueError("state dimension does not match the site count")
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    if not 1 <= window <= n_sites:
        raise ValueError("window must fit on the ring")
    omega = np.outer(state, state.conj())
    return sum(partial_trace(omega, [(j + k) % n_sites for k in range(window)])
               for j in range(n_sites)) / n_sites


def _bond_energy(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = np.kron(a, b)
    ba = np.kron(b, a)
    return float(np.real(np.vdot(ab, h @ ab) + np.vdot(ba, h @ ba)) / 2.0)


def _site_effective(h: np.ndarray, other: np.ndarray, d: int) -> np.ndarray:
    """Effective one-site operator: average of h with `other` on the partner
    site, over both bond orientations."""
    rho = np.outer(other.conj(), other)
    t = h.reshape(d, d, d, d)  # (row left, row right, col left, col right)
    right_traced = np.einsum("arbs,rs->ab", t, rho)   # other on the right site
    left_traced = np.einsum("rasb,rs->ab", t, rho)    # other on the left site
    return (right_traced + left_traced) / 2.0


def product_state_upper_serial(model, restarts: int = 8, seed: int = 0,
                               max_sweeps: int = 200, tol: float = 1e-13) -> float:
    """`upper.product_state_upper`, one restart after another.

    Each restart draws a (real part, then imaginary part) and then b from
    one generator, alternates the two d x d ground-vector updates until a
    sweep lowers the bond energy by less than tol * max(1, |energy|), and
    keeps its last energy; the result is D times the lowest.
    """
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
