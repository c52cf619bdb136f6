"""Exact algebra of multi-qubit Pauli strings in symplectic (x, z) mask form.

An n-site Pauli string is encoded as i^phase_exp * prod_k X_k^{x_k} Z_k^{z_k}
with per-site XZ ordering, so a site with both bits set carries Y = i*X*Z.
Bit k of a mask refers to site k; site 0 is the leftmost tensor factor.
Products and adjoints are phase-exact integer arithmetic. `multiply`,
`dagger` and `hermitian_class` are the inner loop of the moment hierarchy's
class walk, so they skip the constructor's checks: XOR of in-range masks and
a phase reduced mod 4 are valid by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

_SINGLE = {
    (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}

_LABEL_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LABEL = {v: k for k, v in _LABEL_TO_BITS.items()}
_PHASE_FACTORS = tuple(1j ** k for k in range(4))


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


def _trusted(width: int, x_mask: int, z_mask: int, phase_exp: int) -> PauliString:
    """A PauliString from fields already known to be valid, without the checks
    of `PauliString.__post_init__`: phase_exp must be in 0..3 and the masks
    within width."""
    p = object.__new__(PauliString)
    p.__dict__.update(width=width, x_mask=x_mask, z_mask=z_mask, phase_exp=phase_exp)
    return p


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact product p*q including the global phase.

    Per site, Z^a X^b = (-1)^(ab) X^b Z^a; commuting q's X factors past p's Z
    factors contributes (-1)^{popcount(p.z & q.x)}.
    """
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} != {q.width}")
    phase = (p.phase_exp + q.phase_exp + 2 * (p.z_mask & q.x_mask).bit_count()) % 4
    return _trusted(p.width, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask, phase)


def dagger(p: PauliString) -> PauliString:
    """Adjoint: conjugate the phase and re-order each site's XZ factors."""
    phase = (-p.phase_exp + 2 * (p.x_mask & p.z_mask).bit_count()) % 4
    return _trusted(p.width, p.x_mask, p.z_mask, phase)


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
    residual global phase in {1, i, -1, -i} with p = factor * (a translate of std).
    The key is that of `canonicalize(p)`, computed from the masks directly.
    """
    x, z = p.x_mask, p.z_mask
    supp = x | z
    if supp == 0:
        return (1, 0, 0), _PHASE_FACTORS[p.phase_exp]
    offset = (supp & -supp).bit_length() - 1
    key = (supp.bit_length() - offset, x >> offset, z >> offset)
    return key, _PHASE_FACTORS[(p.phase_exp - (x & z).bit_count()) % 4]


_MAX_DENSE_SITES = 12


def string_to_dense(p: PauliString) -> np.ndarray:
    """Dense 2^width matrix of p, site 0 as the leftmost Kronecker factor."""
    if p.width > _MAX_DENSE_SITES:
        raise ValueError(f"dense conversion capped at {_MAX_DENSE_SITES} sites")
    m = np.array([[1]], dtype=complex)
    for k in range(p.width):
        m = np.kron(m, _SINGLE[(p.x_mask >> k) & 1, (p.z_mask >> k) & 1])
    return (1j ** p.phase_exp) * m


def labels_to_dense(pairs) -> np.ndarray:
    """Dense sum of c * P over (coefficient, label) pairs such as (0.5, "XX").

    All labels must have one width; repeated labels add up. Each entry is a
    correctly rounded sum (`math.fsum` of the real and of the imaginary
    parts), so it does not depend on the order of the pairs, and entries that
    hold the same terms in another order, such as the mirrored diagonal
    entries of a reflection-symmetric term, come out bitwise equal.
    """
    terms = np.stack([c * string_to_dense(PauliString.from_label(label))
                      for c, label in pairs])
    out = np.zeros(terms.shape[1:], dtype=complex)
    for i, j in zip(*np.nonzero(np.any(terms != 0, axis=0))):
        out[i, j] = complex(math.fsum(terms[:, i, j].real), math.fsum(terms[:, i, j].imag))
    return out


def all_strings(width: int):
    """All 4^width standard Hermitian Pauli strings in lexical label order."""
    for labels in itertools.product("IXYZ", repeat=width):
        yield PauliString.from_label("".join(labels))
