"""Model specifications and patch/ring Hamiltonian construction.

A model is a two-site Hermitian interaction term on a D-dimensional cubic
lattice; patches are open or periodic m^D regions assembled as sparse
operators. One-site fields are not separate inputs: fold them into the
two-site term, symmetrized as (g/2)(X otimes I + I otimes X) per bond in 1D
(divide by the coordination number 2D in higher dimensions).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .pauli import labels_to_dense

DEFAULT_MAX_QUBITS = 26
_HERM_TOL = 1e-12

BUILTIN_MODELS = ("heisenberg", "xxz", "tfim", "random_twosite")


def max_qubits() -> int:
    """Sparse dimension cap in qubit equivalents; CERTGROUND_MAX_QUBITS overrides."""
    return int(os.environ.get("CERTGROUND_MAX_QUBITS", DEFAULT_MAX_QUBITS))


@dataclass(frozen=True)
class ModelSpec:
    """A nearest-neighbour model: local dimension d, lattice dimension D and
    the two-site Hermitian term as a dense d^2 x d^2 matrix."""

    name: str
    d: int
    D: int
    term: np.ndarray          # dense d^2 x d^2, Hermitian

    def __post_init__(self):
        t = np.asarray(self.term)
        if t.shape != (self.d ** 2, self.d ** 2):
            raise ValueError("term size inconsistent with local dimension")
        if not np.all(np.isfinite(t)):
            raise ValueError("interaction term has a non-finite entry")
        if np.max(np.abs(t - t.conj().T)) > _HERM_TOL:
            raise ValueError("interaction term is not Hermitian")

    @property
    def is_real(self) -> bool:
        return bool(np.max(np.abs(np.asarray(self.term).imag)) < 1e-14)


@dataclass(frozen=True)
class PatchSpec:
    """A cubic m^D patch with open or periodic boundary."""

    m: int
    D: int = 1
    boundary: str = "open"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("patch size m must be >= 2")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")

    @property
    def sites(self) -> int:
        return self.m ** self.D


def _realify(m: np.ndarray) -> np.ndarray:
    return m.real.copy() if np.max(np.abs(m.imag)) < 1e-14 else m


def _make_model(name: str, d: int, D: int, term: np.ndarray) -> ModelSpec:
    return ModelSpec(name, d, D, _realify(np.asarray(term, dtype=complex)))


def builtin_model(name: str, params=(), D: int = 1) -> ModelSpec:
    """Builtin two-site models.

    heisenberg: (XX + YY + ZZ)/2, no parameters.
    xxz: (XX + YY + delta ZZ)/2, params = (delta,).
    tfim: -ZZ - (g/2)(XI + IX), params = (g,).
    random_twosite: seeded random Hermitian 4x4, params = (seed,).
    """
    params = tuple(params)

    def need(k):
        if len(params) != k:
            raise ValueError(f"model {name!r} takes {k} parameter(s), got {len(params)}")

    if name == "heisenberg":
        need(0)
        term = labels_to_dense([(0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")])
        return _make_model("heisenberg", 2, D, term)
    if name == "xxz":
        need(1)
        delta = float(params[0])
        term = labels_to_dense([(0.5, "XX"), (0.5, "YY"), (0.5 * delta, "ZZ")])
        return _make_model(f"xxz(delta={delta:g})", 2, D, term)
    if name == "tfim":
        need(1)
        g = float(params[0])
        term = labels_to_dense([(-1.0, "ZZ"), (-0.5 * g, "XI"), (-0.5 * g, "IX")])
        return _make_model(f"tfim(g={g:g})", 2, D, term)
    if name == "random_twosite":
        need(1)
        rng = np.random.default_rng(int(params[0]))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        term = (a + a.conj().T) / 2.0
        return _make_model(f"random_twosite(seed={int(params[0])})", 2, D, term)
    raise ValueError(f"unknown builtin model {name!r}; known: {BUILTIN_MODELS}")


def parse_model(document: str) -> ModelSpec:
    """Parse a model JSON document.

    Schema: { "name": str, "d": int, "D": int, "term": {...} } where "term"
    holds exactly one of
      "pauli_sum": [{"paulis": "XX", "coeff": 0.5}, ...]   (d = 2 only)
      "dense": row-major d^2 x d^2 list of [re, im] pairs.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON: {e}")
    for key in ("name", "d", "D", "term"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    d, D = int(doc["d"]), int(doc["D"])
    if d < 2 or D < 1:
        raise ValueError("need d >= 2 and D >= 1")
    term_doc = doc["term"]
    has_ps, has_dense = "pauli_sum" in term_doc, "dense" in term_doc
    if has_ps == has_dense:
        raise ValueError("term must contain exactly one of 'pauli_sum' or 'dense'")
    if has_ps:
        if d != 2:
            raise ValueError("pauli_sum terms require d = 2")
        entries = term_doc["pauli_sum"]
        if not entries:
            raise ValueError("empty pauli_sum")
        for e in entries:
            if len(e["paulis"]) != 2:
                raise ValueError("pauli_sum entries must be two-site labels")
        term = labels_to_dense([(float(e["coeff"]), e["paulis"]) for e in entries])
    else:
        rows = term_doc["dense"]
        if len(rows) != d ** 4:
            raise ValueError(f"dense term must have {d ** 4} entries (row-major d^2 x d^2)")
        flat = np.array([complex(re, im) for re, im in rows])
        term = flat.reshape(d ** 2, d ** 2)
    return _make_model(str(doc["name"]), d, D, term)


def embed_on_sites(m: np.ndarray, positions, total_sites: int, d: int = 2) -> sp.csr_matrix:
    """Embed an operator on k local factors at the listed positions.

    The j-th tensor factor of `m` acts on site positions[j]; all other sites
    carry the identity. Site 0 is the leftmost factor (most significant digit
    of the state index in base d).
    """
    positions = list(positions)
    k = len(positions)
    if len(set(positions)) != k:
        raise ValueError("positions must be distinct")
    if any(p < 0 or p >= total_sites for p in positions):
        raise ValueError("position out of range")
    m = np.asarray(m)
    if m.shape != (d ** k, d ** k):
        raise ValueError("operator size inconsistent with position count")

    strides = [d ** (total_sites - 1 - s) for s in range(total_sites)]
    rest = [s for s in range(total_sites) if s not in positions]
    base = np.zeros(1, dtype=np.int64)
    for s in rest:
        base = (base[:, None] + (np.arange(d, dtype=np.int64) * strides[s])[None, :]).ravel()

    # offset of local multi-index a (base-d digits, factor 0 most significant)
    loc = np.zeros(d ** k, dtype=np.int64)
    for j, p in enumerate(positions):
        digit = (np.arange(d ** k, dtype=np.int64) // d ** (k - 1 - j)) % d
        loc += digit * strides[p]

    rows_idx, cols_idx = np.nonzero(np.abs(m) > 0)
    vals = m[rows_idx, cols_idx]
    nrest = base.size
    rows = (loc[rows_idx][:, None] + base[None, :]).ravel()
    cols = (loc[cols_idx][:, None] + base[None, :]).ravel()
    data = np.repeat(vals, nrest)
    dim = d ** total_sites
    return sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))


def patch_bonds(patch: PatchSpec) -> list[tuple[int, int]]:
    """Nearest-neighbour bonds of the patch, row-major site indexing for D = 2."""
    m, D = patch.m, patch.D
    periodic = patch.boundary == "periodic"
    if D == 1:
        bonds = [(i, i + 1) for i in range(m - 1)]
        if periodic:
            bonds.append((m - 1, 0))
        return bonds
    if D == 2:
        def site(r, c):
            return r * m + c
        bonds = []
        for r in range(m):
            for c in range(m):
                if c + 1 < m:
                    bonds.append((site(r, c), site(r, c + 1)))
                elif periodic:
                    bonds.append((site(r, c), site(r, 0)))
                if r + 1 < m:
                    bonds.append((site(r, c), site(r + 1, c)))
                elif periodic:
                    bonds.append((site(r, c), site(0, c)))
        return bonds
    raise ValueError("explicit patch construction supports D in {1, 2} only")


def build_patch(model: ModelSpec, patch: PatchSpec) -> sp.csr_matrix:
    """Sparse patch Hamiltonian: the two-site term summed over all bonds."""
    n = patch.sites
    qubits = n * (np.log2(model.d))
    if qubits > max_qubits():
        raise ValueError(
            f"{n} sites of dimension {model.d} exceed the {max_qubits()}-qubit cap")
    term = _realify(np.asarray(model.term, dtype=complex))
    dim = model.d ** n
    out = sp.csr_matrix((dim, dim), dtype=term.dtype)
    for p, q in patch_bonds(patch):
        out = out + embed_on_sites(term, (p, q), n, model.d)
    return out


def charge_sectors(model: ModelSpec, n: int) -> list[np.ndarray]:
    """Blocks of an n-site patch whose minima give its lambda_min, as sorted
    basis-index arrays.

    The charge of a basis state is the sum of its local digits (total S^z up
    to an offset when d = 2). Both tests below are exact and structural:

    - SU(2): d = 2 and the term equals a I + b SWAP entrywise. Such terms
      commute with the total spin, so every multiplet of the ground
      eigenspace has a member in the floor(n/2) sector; only it is returned.
    - U(1): term[(a, b), (c, e)] == 0 whenever a + b != c + e. The patch is
      then block diagonal in the charge; every sector is returned.
    - Otherwise the whole space is one sector.
    """
    d = model.d
    term = np.asarray(model.term)
    swap = np.eye(4)[[0, 2, 1, 3]]
    su2 = d == 2 and np.array_equal(term, term[1, 1] * np.eye(4) + term[1, 2] * swap)
    pair = np.add.outer(np.arange(d), np.arange(d)).ravel()
    if not su2 and np.any(term[pair[:, None] != pair[None, :]]):
        return [np.arange(d ** n)]
    charge = np.zeros(1, dtype=np.int32)
    for _ in range(n):  # state index in base d, site 0 most significant
        charge = (charge[:, None] + np.arange(d, dtype=np.int32)).ravel()
    if su2:
        return [np.flatnonzero(charge == n // 2)]
    order = np.argsort(charge, kind="stable")
    return np.split(order, np.cumsum(np.bincount(charge))[:-1])


def build_ring(model: ModelSpec, n: int) -> sp.csr_matrix:
    """Periodic 1D ring on n sites."""
    return build_patch(model, PatchSpec(n, 1, "periodic"))


def operator_norm(model: ModelSpec) -> float:
    """Spectral norm of the two-site term (dense diagonalization)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(np.asarray(model.term)))))
