"""Exact algebra of multi-qubit Pauli strings in symplectic (x, z) mask form.

An n-site Pauli string is encoded as i^phase_exp * prod_k X_k^{x_k} Z_k^{z_k}
with per-site XZ ordering, so a site with both bits set carries Y = i*X*Z.
Bit k of a mask refers to site k; site 0 is the leftmost tensor factor.
Products, adjoints and translations are phase-exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

_SINGLE = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}

_LABEL_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LABEL = {v: k for k, v in _LABEL_TO_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """A single Pauli string with an exact i^k global phase."""

    width: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        full = (1 << self.width) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask uses bits beyond width")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, width: int) -> "PauliString":
        return cls(width, 0, 0, 0)

    @classmethod
    def from_label(cls, label: str, phase_exp: int = 0) -> "PauliString":
        """Build from a label like "XIZ"; position k in the label is site k.

        Y factors contribute their i-phases so that the resulting string is
        the standard (Hermitian) Pauli operator times i^phase_exp.
        """
        x = z = 0
        for k, ch in enumerate(label):
            try:
                bx, bz = _LABEL_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli label character {ch!r}")
            x |= bx << k
            z |= bz << k
        n_y = (x & z).bit_count()
        return cls(len(label), x, z, (n_y + phase_exp) % 4)

    @property
    def label(self) -> str:
        chars = []
        for k in range(self.width):
            chars.append(_BITS_TO_LABEL[(self.x_mask >> k) & 1, (self.z_mask >> k) & 1])
        return "".join(chars)

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    def is_identity(self) -> bool:
        return self.support_mask == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact product p*q including the global phase.

    Per site, Z^a X^b = (-1)^(ab) X^b Z^a; commuting q's X factors past p's Z
    factors contributes (-1)^{popcount(p.z & q.x)}.
    """
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} != {q.width}")
    phase = (p.phase_exp + q.phase_exp + 2 * (p.z_mask & q.x_mask).bit_count()) % 4
    return PauliString(p.width, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask, phase)


def dagger(p: PauliString) -> PauliString:
    """Adjoint: conjugate the phase and re-order each site's XZ factors."""
    phase = (-p.phase_exp + 2 * (p.x_mask & p.z_mask).bit_count()) % 4
    return PauliString(p.width, p.x_mask, p.z_mask, phase)


def translate(p: PauliString, shift: int, target_width: int, periodic: bool = False) -> PauliString:
    """Move the support of p by `shift` sites into a window of `target_width`.

    Without `periodic` the shifted support must fit in the target window;
    with it, bits wrap around modulo target_width. The phase is unchanged.
    """
    full = (1 << target_width) - 1

    def mv(mask: int) -> int:
        if periodic:
            s = shift % target_width
            wide = (mask & full) << s
            return (wide | (wide >> target_width)) & full
        shifted = mask << shift if shift >= 0 else mask >> (-shift)
        if shift < 0 and (mask & ((1 << (-shift)) - 1)):
            raise ValueError("translation pushes support below site 0")
        if shifted & ~full:
            raise ValueError("translation pushes support beyond the window")
        return shifted

    return PauliString(target_width, mv(p.x_mask), mv(p.z_mask), p.phase_exp)


def canonicalize(p: PauliString) -> tuple[int, PauliString]:
    """Return (offset, canonical) with the leftmost non-identity site at 0.

    The canonical string is trimmed to its support length, so translates of
    the same pattern on different windows share one canonical form. The
    identity canonicalizes to a width-1 identity with offset 0. The phase
    stays on the string.
    """
    supp = p.support_mask
    if supp == 0:
        return 0, PauliString(1, 0, 0, p.phase_exp)
    offset = (supp & -supp).bit_length() - 1
    length = supp.bit_length() - offset
    return offset, PauliString(length, p.x_mask >> offset, p.z_mask >> offset, p.phase_exp)


def hermitian_class(p: PauliString) -> tuple[tuple[int, int, int], complex]:
    """Split p into (canonical Hermitian class key, scalar factor).

    The key identifies the translation class of the standard (phase
    convention i^{#Y}) Hermitian Pauli pattern under p; the factor is the
    residual global phase in {1, i, -1, -i} with p = factor * translate(std).
    """
    _, c = canonicalize(p)
    std_phase = (c.x_mask & c.z_mask).bit_count() % 4
    residue = (c.phase_exp - std_phase) % 4
    return (c.width, c.x_mask, c.z_mask), 1j ** residue


def _site_to_state_mask(mask: int, sites: int) -> int:
    """Reverse the bit order: site 0 is the most significant state bit."""
    out = 0
    for k in range(sites):
        if (mask >> k) & 1:
            out |= 1 << (sites - 1 - k)
    return out


def _parity(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for s in (32, 16, 8, 4, 2, 1):
        v ^= v >> s
    return (v & 1).astype(np.int64)


_MAX_DENSE_SITES = 12
_MAX_SPARSE_SITES = 30


def string_to_sparse(p: PauliString, sites: int) -> sp.csr_matrix:
    """Exact sparse matrix of p acting on the first `p.width` of `sites` qubits."""
    if sites > _MAX_SPARSE_SITES:
        raise ValueError(f"{sites} sites exceeds the cap {_MAX_SPARSE_SITES}")
    if p.width > sites:
        raise ValueError("string wider than the requested site count")
    dim = 1 << sites
    xs = _site_to_state_mask(p.x_mask, sites)
    zs = _site_to_state_mask(p.z_mask, sites)
    cols = np.arange(dim, dtype=np.int64)
    rows = cols ^ xs
    vals = (1j ** p.phase_exp) * np.where(_parity(cols & zs) == 1, -1.0, 1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def string_to_dense(p: PauliString, sites: int | None = None) -> np.ndarray:
    sites = p.width if sites is None else sites
    if sites > _MAX_DENSE_SITES:
        raise ValueError("dense conversion capped at 12 sites")
    m = np.array([[1]], dtype=complex)
    for k in range(sites):
        bx = (p.x_mask >> k) & 1 if k < p.width else 0
        bz = (p.z_mask >> k) & 1 if k < p.width else 0
        m = np.kron(m, _SINGLE[bx, bz])
    return (1j ** p.phase_exp) * m


@dataclass(frozen=True)
class PauliSum:
    """A real combination of Hermitian Pauli strings on a common window.

    Terms are stored against standard Hermitian representatives (phase
    convention i^{#Y}); duplicate strings merge, zero coefficients drop.
    """

    width: int
    terms: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)
    # each term is (x_mask, z_mask, real coefficient)

    @classmethod
    def from_terms(cls, width: int, pairs, tol: float = 1e-14) -> "PauliSum":
        """Build from (coefficient, PauliString) pairs; coefficients may carry
        the string's phase but the merged result must be Hermitian (real
        coefficients against standard Paulis)."""
        acc: dict[tuple[int, int], complex] = {}
        for coeff, p in pairs:
            if p.width != width:
                raise ValueError("term width mismatch")
            std = (p.x_mask & p.z_mask).bit_count() % 4
            folded = coeff * (1j ** ((p.phase_exp - std) % 4))
            key = (p.x_mask, p.z_mask)
            acc[key] = acc.get(key, 0.0) + folded
        terms = []
        for (x, z), c in sorted(acc.items()):
            if abs(c.imag) > tol * max(1.0, abs(c)):
                raise ValueError("non-Hermitian Pauli combination")
            if abs(c.real) > tol:
                terms.append((x, z, float(c.real)))
        return cls(width, tuple(terms))

    @classmethod
    def from_labels(cls, pairs) -> "PauliSum":
        """Build from (coefficient, label) pairs such as (0.5, "XX")."""
        pairs = list(pairs)
        width = len(pairs[0][1])
        return cls.from_terms(width, [(c, PauliString.from_label(l)) for c, l in pairs])

    def strings(self):
        """Yield (coefficient, Hermitian PauliString) pairs."""
        for x, z, c in self.terms:
            yield c, PauliString(self.width, x, z, (x & z).bit_count() % 4)

    def to_dense(self, sites: int | None = None) -> np.ndarray:
        sites = self.width if sites is None else sites
        out = np.zeros((1 << sites, 1 << sites), dtype=complex)
        for c, p in self.strings():
            out += c * string_to_dense(p, sites)
        return out

    def __len__(self) -> int:
        return len(self.terms)


def all_strings(width: int):
    """All 4^width standard Hermitian Pauli strings in lexical label order."""
    for labels in itertools.product("IXYZ", repeat=width):
        yield PauliString.from_label("".join(labels))


def decompose_hermitian(m: np.ndarray, tol: float = 1e-12) -> PauliSum:
    """Expand a Hermitian 2^k x 2^k matrix in the Pauli basis.

    Coefficients are tr(P m)/2^k; the reconstruction is exact up to
    floating point.
    """
    m = np.asarray(m, dtype=complex)
    dim = m.shape[0]
    k = dim.bit_length() - 1
    if m.shape != (dim, dim) or (1 << k) != dim:
        raise ValueError("matrix dimension is not a power of two")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    pairs = []
    for p in all_strings(k):
        c = np.trace(string_to_dense(p).conj().T @ m) / dim
        if abs(c) > 1e-14:
            pairs.append((c, p))
    return PauliSum.from_terms(k, pairs)
