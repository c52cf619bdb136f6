"""Model specifications and patch/ring Hamiltonian construction.

A model is a two-site Hermitian interaction term on a D-dimensional cubic
lattice; patches are open or periodic m^D regions assembled as sparse
operators. One-site fields are not separate inputs: fold them into the
two-site term, symmetrized as (g/2)(X otimes I + I otimes X) per bond in 1D
(divide by the coordination number 2D in higher dimensions). `pauli_term`
builds the builtin and `pauli_sum` terms, and `ModelSpec` settles their dtype.

`charge_sectors` splits an open patch into the blocks whose minima give
its lambda_min: conserved-charge blocks, each reduced to its reflection- and
flip-symmetric sector when the term is stoquastic, directly or after
Marshall's sublattice sign gauge (open patches are bipartite, so Heisenberg
and XXZ qualify). `build_patch` assembles one such block, or a whole patch
or ring. What they need to know about the term is cached on its `ModelSpec`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_MAX_QUBITS = 26
_HERM_TOL = 1e-12
_U = float(np.finfo(np.float64).eps) / 2  # unit roundoff

BUILTIN_MODELS = ("heisenberg", "xxz", "tfim", "random_twosite")
SYMMETRIES = ("su2", "u1", "sign_gauge", "reflection", "flip")  # the order reports list them in
_PAULIS = {"I": np.eye(2, dtype=complex), "X": np.array([[0, 1], [1, 0]], dtype=complex),
           "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1]).astype(complex)}


def max_qubits() -> int:
    """Sparse dimension cap in qubit equivalents; CERTGROUND_MAX_QUBITS overrides."""
    return int(os.environ.get("CERTGROUND_MAX_QUBITS", DEFAULT_MAX_QUBITS))


@dataclass(frozen=True)
class ModelSpec:
    """A nearest-neighbour model: local dimension d, lattice dimension D and
    the two-site Hermitian term as a dense d^2 x d^2 matrix. The term is
    stored as a read-only copy, so that the facts about it cached on first
    use below cannot go stale, and real (float) unless an imaginary part
    reaches 1e-14: complex otherwise."""

    name: str
    d: int
    D: int
    term: np.ndarray          # dense d^2 x d^2, Hermitian, read-only

    def __post_init__(self):
        if self.d < 2 or self.D < 1:
            raise ValueError(f"need d >= 2 and D >= 1, got d = {self.d} and D = {self.D}")
        t = np.array(self.term, dtype=complex)  # a copy: the caller's array stays writable
        if t.shape != (self.d ** 2, self.d ** 2):
            raise ValueError("term size inconsistent with local dimension")
        if not np.all(np.isfinite(t)):
            raise ValueError("interaction term has a non-finite entry")
        # no sum over a patch's bonds (at most 2 per site under the qubit cap) may
        # overflow: max |entry| d^2 bonds <= 2^1000, computed scaled by 2^-512
        bonds = 2 * max_qubits()
        if np.max(np.abs(t * 2.0 ** -512), initial=0.0) * self.d ** 2 * bonds > 2.0 ** 488:
            raise ValueError("interaction term too large: max |entry| * d^2 * bonds exceeds "
                             f"2^1000 for patches of up to {max_qubits()} qubits")
        if np.max(np.abs(t - t.conj().T)) > _HERM_TOL:
            raise ValueError("interaction term is not Hermitian")
        t = t.real.copy() if np.max(np.abs(t.imag)) < 1e-14 else t
        t.flags.writeable = False
        object.__setattr__(self, "term", t)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.term)

    @cached_property
    def symmetries(self) -> tuple:
        """The term's exact structural symmetries (`_symmetries`)."""
        return _symmetries(self.term, self.d)

    @cached_property
    def reductions(self) -> tuple:
        """The "sign_gauge", "reflection" and "flip" that `charge_sectors` may apply."""
        term, tested, gauge = self.term, self.symmetries, ()
        if "u1" in tested and not _stoquastic(term) and _stoquastic(sign_gauge(term, self.d)):
            term, gauge = sign_gauge(term, self.d), ("sign_gauge",)
            tested = _symmetries(term, self.d)
        stoquastic = _stoquastic(term)
        return gauge + tuple(r for r in ("reflection", "flip") if stoquastic and r in tested)

    @cached_property
    def norm(self) -> float:
        """The term's spectral norm."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self.term))))

    @cached_property
    def tables(self) -> dict:
        """`_patch_tables` of the term and of its `sign_gauge`, by whether it is gauged."""
        term, d = self.term, self.d
        return {False: _patch_tables(term, d), True: _patch_tables(sign_gauge(term, d), d)}


@dataclass(frozen=True)
class PatchSpec:
    """A cubic m^D patch, D = 1 or 2, with open boundary, or a periodic ring (D = 1)."""

    m: int
    D: int = 1
    boundary: str = "open"

    def __post_init__(self):
        if self.D not in (1, 2):
            raise ValueError("patch diagonalization supports D in {1, 2} only")
        if self.m < 2:
            raise ValueError("patch size m must be >= 2")
        if self.boundary not in ("open", "periodic"):
            raise ValueError("boundary must be 'open' or 'periodic'")
        if self.boundary == "periodic" and self.D != 1:
            raise ValueError("a periodic patch must be a ring (D = 1)")

    @property
    def sites(self) -> int:
        return self.m ** self.D


def pauli_term(pairs) -> np.ndarray:
    """The two-site term, sum c P (x) Q over (c, "PQ") pairs, site 0 leftmost.

    Repeated labels add up. Each entry is a correctly rounded sum (`math.fsum`
    of the real and of the imaginary parts): it does not depend on the order
    of the pairs, so the mirrored entries of a reflection-symmetric term are
    bitwise equal. A coefficient that is not finite is refused before it
    multiplies a zero; an entry whose sum overflows raises OverflowError.
    """
    products = []
    for c, label in pairs:
        if not isinstance(label, str) or len(label) != 2 or not set(label) <= _PAULIS.keys():
            raise ValueError(f"invalid Pauli label {label!r}: two of I, X, Y, Z")
        if not np.isfinite(c):
            raise ValueError(f"the coefficient of {label} is not finite: {c!r}")
        products.append(c * np.kron(_PAULIS[label[0]], _PAULIS[label[1]]))
    terms = np.stack(products)
    out = np.zeros((4, 4), dtype=complex)
    for i, j in zip(*np.nonzero(np.any(terms != 0, axis=0))):
        out[i, j] = complex(math.fsum(terms[:, i, j].real), math.fsum(terms[:, i, j].imag))
    return out


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
        term = pauli_term([(0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")])
        return ModelSpec("heisenberg", 2, D, term)
    if name == "xxz":
        need(1)
        delta = float(params[0])
        term = pauli_term([(0.5, "XX"), (0.5, "YY"), (0.5 * delta, "ZZ")])
        return ModelSpec(f"xxz(delta={delta:g})", 2, D, term)
    if name == "tfim":
        need(1)
        g = float(params[0])
        term = pauli_term([(-1.0, "ZZ"), (-0.5 * g, "XI"), (-0.5 * g, "IX")])
        return ModelSpec(f"tfim(g={g:g})", 2, D, term)
    if name == "random_twosite":
        need(1)
        if not float(params[0]).is_integer():
            raise ValueError(f"the random_twosite seed must be an integer, got {params[0]!r}")
        seed = int(params[0])
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        term = (a + a.conj().T) / 2.0
        return ModelSpec(f"random_twosite(seed={seed})", 2, D, term)
    raise ValueError(f"unknown builtin model {name!r}; known: {BUILTIN_MODELS}")


def parse_model(document: str) -> ModelSpec:
    """Parse a model JSON document.

    Schema: { "name": str, "d": int, "D": int, "term": {...} } where d and D
    are JSON integers and "term" holds exactly one of
      "pauli_sum": [{"paulis": "XX", "coeff": 0.5}, ...]   (d = 2 only)
      "dense": row-major d^2 x d^2 list of [re, im] pairs.
    Every number of the term must be finite, and so must every entry it sums to.
    """
    import json  # here, like `Fraction` below: importing models loads neither
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ValueError(f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        raise ValueError("a model document must be a JSON object")
    for key in ("name", "d", "D", "term"):
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
    d, D, term_doc = doc["d"], doc["D"], doc["term"]
    if any(isinstance(n, bool) or not isinstance(n, int) for n in (d, D)):
        raise ValueError(f"d and D must be integers, got {d!r} and {D!r}")
    if not isinstance(term_doc, dict) or ("pauli_sum" in term_doc) == ("dense" in term_doc):
        raise ValueError("term must be an object with exactly one of 'pauli_sum' or 'dense'")
    try:  # a JSON integer, or a sum of entries, beyond the float range overflows
        if "pauli_sum" in term_doc:
            if d != 2:
                raise ValueError("pauli_sum terms require d = 2")
            entries = term_doc["pauli_sum"]
            if not isinstance(entries, list) or not entries:
                raise ValueError("pauli_sum must be a non-empty list")
            for e in entries:
                if (not isinstance(e, dict) or not {"paulis", "coeff"} <= e.keys()
                        or type(e["coeff"]) not in (int, float)):  # bool is not a number here
                    raise ValueError(f"pauli_sum entry {e!r} is not an object with "
                                     "'paulis' and a number 'coeff'")
            term = pauli_term([(float(e["coeff"]), e["paulis"]) for e in entries])
        else:
            rows = term_doc["dense"]
            if not isinstance(rows, list) or len(rows) != d ** 4:
                raise ValueError(f"dense term must be a list of {d ** 4} entries "
                                 "(row-major d^2 x d^2)")
            for e in rows:
                if (not isinstance(e, list) or len(e) != 2
                        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in e)):
                    raise ValueError(f"dense entry {e!r} is not an [re, im] pair of numbers")
            term = np.array([complex(re, im) for re, im in rows]).reshape(d ** 2, d ** 2)
    except OverflowError as e:
        raise ValueError(f"a term entry is out of range: {e}") from None
    return ModelSpec(str(doc["name"]), d, D, term)


def embed_on_sites(m: np.ndarray, positions, total_sites: int, d: int = 2):
    """Embed an operator on k local factors at the listed positions, as a
    scipy.sparse CSR matrix (imported here: SDP commands never load it).

    The j-th tensor factor of `m` acts on site positions[j]; all other sites
    carry the identity. Site 0 is the leftmost factor (most significant digit
    of the state index in base d).
    """
    import scipy.sparse as sp
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
    if D == 1:
        bonds = [(i, i + 1) for i in range(m - 1)]
        if patch.boundary == "periodic":
            bonds.append((m - 1, 0))
        return bonds
    bonds = []
    for site in range(m * m):  # each site's right, then lower neighbour
        if site % m + 1 < m:
            bonds.append((site, site + 1))
        if site + m < m * m:
            bonds.append((site, site + m))
    return bonds


class Sector(np.ndarray):
    """The sorted basis states that span one block of a patch.

    `symmetry` names the reductions that produced the block, in the order of
    `SYMMETRIES`: the charge ("su2" or "u1"), "sign_gauge" when the block is
    that of the gauged patch (`sign_gauge`; open patches only), then
    "reflection" (site i to n - 1 - i) and "flip" (every digit k to d - 1 - k).
    Under reflection or flip the states are orbit representatives, each the
    smallest state of its orbit, and the block is the symmetric sector: the
    span of the normalized orbit sums.
    """

    symmetry: tuple = ()


def _images(states, symmetry, n: int, d: int) -> list:
    """The images of `states` under every group element but the identity:
    reverse the site order, complement every digit (k to d - 1 - k), both."""
    top = d ** n - 1
    out = []
    if "reflection" in symmetry:
        # s = hi d^h + lo reversed is reverse(lo) d^(n-h) + reverse(hi): two small tables
        h = n // 2
        hi, lo = np.divmod(states, d ** h)
        rev = _reversals(h, d)[lo] * d ** (n - h) + _reversals(n - h, d)[hi]
        out.append(rev)
    if "flip" in symmetry:
        out.append(top - states)
        if "reflection" in symmetry:
            out.append(top - rev)
    return out


def _reversals(k: int, d: int) -> np.ndarray:
    """Every k-digit base-d number with its digit order reversed."""
    out, rest = np.zeros(d ** k, dtype=np.int64), np.arange(d ** k)
    for _ in range(k):
        out = out * d + rest % d
        rest //= d
    return out


def check_cap(n: int, d: int) -> None:
    """ValueError unless n sites of dimension d fit the `max_qubits()` cap."""
    if n * np.log2(d) > max_qubits():
        raise ValueError(f"{n} sites of dimension {d} exceed the {max_qubits()}-qubit cap")


def _patch_tables(term: np.ndarray, d: int) -> tuple:
    """(term, first, second, moves, outs), read-only: the one-site changes x -> y
    of a bond's first site, with the coefficient first[x, y, pair] = <x b|term|y b>
    at the digit pair (x, b), and of its second site, second[x, y, pair] =
    <a x|term|a y> at (a, x); the digits y != x that some bond moves each digit
    x to (a site that none of its own bonds moves so writes zeros, which
    eliminate_zeros drops); and the two-site changes c of each digit pair a."""
    t4, pair, same = term.reshape(d, d, d, d), np.arange(d * d), np.arange(d)
    first = np.einsum("xbyb->xyb", t4)[:, :, pair % d]
    second = np.einsum("axay->xya", t4)[:, :, pair // d]
    first[same, same] = second[same, same] = 0  # x == y is the diagonal
    moves = [list(np.flatnonzero(row)) for row in np.any(first, axis=2) | np.any(second, axis=2)]
    outs = [[c for c in np.flatnonzero(term[a]) if c // d != a // d and c % d != a % d]
            for a in range(d * d)]
    term.flags.writeable = first.flags.writeable = second.flags.writeable = False
    return term, first, second, moves, outs


class CsrBlock:
    """A block of at most `NUMPY_CAP` states as its CSR arrays, zeros dropped. `@`
    and `toarray` add each row's entries in order from zero, as scipy does, with
    complex products in real arithmetic (numpy's may fuse them): scipy's bits."""

    def __init__(self, data, indices, indptr):
        keep = data != 0
        self.data, self.indices = data[keep], indices[keep].astype(np.intp)  # a fast gather
        self.indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        self.rows = np.repeat(np.arange(len(indptr) - 1), np.diff(self.indptr))
        self.shape, self.nnz = (len(indptr) - 1,) * 2, len(self.data)

    def __matmul__(self, v):
        a, x, n = self.data, v[self.indices], self.shape[0]
        if a.dtype.kind != "c" and x.dtype.kind != "c":
            return np.bincount(self.rows, a * x, n)
        out = np.empty(n, dtype=complex)  # a real x: its zero imaginary part, as scipy has it
        out.real = np.bincount(self.rows, a.real * x.real - a.imag * x.imag, n)
        out.imag = np.bincount(self.rows, a.real * x.imag + a.imag * x.real, n)
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.rows, self.indices), self.data)
        return out


def build_patch(model: ModelSpec, patch: PatchSpec, sector=None):
    """The patch Hamiltonian on one block, one write per distinct change.

    `sector` is one block from `charge_sectors` (a plain sorted index array
    is read as a block of charge alone); None is the whole space. A
    "sign_gauge" sector is a block of the gauged patch, `sign_gauge(term)` on
    every bond, and needs an open patch. The term is split once per model
    (`ModelSpec.tables`) into its diagonal, its one-site changes (a bond's
    site goes from digit x to y, with a coefficient set by the other site's
    digit) and its two-site changes:

    - the diagonal is summed per bond, in bond order, by one table lookup on
      each state's digit pair;
    - for every site, one vectorized pass per move x -> y of its digit (the
      k-th move of every digit x together: 0 -> 1 and 1 -> 0 in one pass
      for d = 2) sums the coefficient of each of the sector's states over
      the site's bonds, in bond order, and writes it once;
    - for every bond and every two-site entry <a|term|c>, one pass over the
      states whose digits on the bond read a writes <a|term|c>.

    A d^n rank table holds the column of each orbit's representative r for
    every member of the orbit, so a state that a change moves s to is mapped
    to its column by one lookup; the entry is the coefficient times
    sqrt(|O_s| / |O_r|), the matrix element between normalized orbit sums.
    Row lengths are counted first, so every entry is written straight into
    its CSR row, unsorted and never merged, and the d^n matrix exists only
    when the whole space is asked for. A row stores a column twice only
    where two changes of a state with a nontrivial stabilizer reach one
    representative; the matvec and `toarray` add such entries. Entries are
    rounded sums; `assembly_margin` bounds how far the block is from the
    exact one. A block of at most `NUMPY_CAP` states is a `CsrBlock`.
    """
    n, d = patch.sites, model.d
    check_cap(n, d)
    states = np.arange(d ** n) if sector is None else np.asarray(sector)
    symmetry = getattr(sector, "symmetry", ())
    if "sign_gauge" in symmetry and patch.boundary != "open":
        raise ValueError("a sign-gauged sector needs an open (bipartite) patch")
    term, first, second, moves, outs = model.tables["sign_gauge" in symmetry]
    dim = states.size
    images = _images(states, symmetry, n, d)
    if images:  # orbit sizes |G| / |stabilizer|: 1, 2 or 4, so ratios are exact
        size = (len(images) + 1) / (1.0 + sum(img == states for img in images))
    rank = None  # the whole space: a state is its own column
    if dim < d ** n:  # the column of each orbit's representative, by member
        rank = np.empty(d ** n, dtype=np.int32)
        for members in images + [states]:
            rank[members] = np.arange(dim, dtype=np.int32)
    strides = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    bonds = patch_bonds(patch)
    # each site's digit in every state, and the digit pair (a, b) on each bond, as a d + b;
    # without one-site changes, no pass reads the sites' digits
    digits = [(states // stride % d).astype(np.min_scalar_type(d * d - 1)) for stride in strides]
    pairs = [digits[p] * d + digits[q] for p, q in bonds]
    if not any(moves):
        digits = []
    pair, same = np.arange(d * d), np.arange(d)
    # each site's bonds: their digit pairs, coefficients and the site's digit in a pair
    touching = [[] for _ in range(n)]
    for (p, q), local in zip(bonds, pairs):
        touching[p].append((local, first, pair // d))
        touching[q].append((local, second, pair % d))
    # row s holds its diagonal, one entry per site and one-site change of its
    # digit, and one per bond and two-site change
    length = 1 + sum(np.array([len(o) for o in outs])[local] for local in pairs)
    for digit in digits:
        length += np.array([len(ys) for ys in moves])[digit]
    index = np.int32 if int(length.sum()) < 2 ** 31 else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(length, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1], dtype=term.dtype)
    indices[indptr[:-1]] = np.arange(dim)
    diag, on_diag = np.zeros(dim, dtype=term.dtype), np.diag(term)
    for local in pairs:  # in bond order
        diag += on_diag[local]
    free = indptr[:-1] + 1  # the next unwritten slot of each row

    def write(src, changes):
        """One entry in each row of `src` per (value, shifts) in `changes`: the
        state moved by the (site, digit shift) pairs `shifts`, in the column
        of its orbit's representative."""
        # slot advances past each change and is stored back into free (in
        # place already when src is a slice, and slot a view of free)
        base, slot = states[src], free[src]
        for value, shifts in changes:
            t = base + sum(shift * strides[j] for j, shift in shifts)
            col = t if rank is None else rank[t]
            indices[slot] = col
            data[slot] = value * np.sqrt(size[src] / size[col]) if images else value
            slot += 1
        free[src] = slot

    for k in range(max(map(len, moves))):
        # the k-th move of each digit, x itself where there is none
        to = np.array([ys[k] if k < len(ys) else x for x, ys in enumerate(moves)])
        moving = to != same
        for s, (touch, digit) in enumerate(zip(touching, digits)):
            src = slice(None) if moving.all() else np.flatnonzero(moving[digit])
            # each state's coefficient, summed over the site's bonds in bond order
            value = sum(table[x, to[x], pair][local[src]] for local, table, x in touch)
            write(src, [(value, ((s, (to - same)[digit[src]]),))])
    for (p, q), local in zip(bonds, pairs):
        for a in range(d * d):
            if outs[a]:
                write(np.flatnonzero(local == a),
                      [(term[a, c], ((p, c // d - a // d), (q, c % d - a % d)))
                       for c in outs[a]])
    data[indptr[:-1]] = diag
    from .eigensolver import NUMPY_CAP  # here, so that importing models loads no solver
    if dim <= NUMPY_CAP:
        return CsrBlock(data, indices, indptr)
    import scipy.sparse as sp
    h = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    h.eliminate_zeros()
    return h


def assembly_margin(model: ModelSpec, patch: PatchSpec, sector=None) -> float:
    """A bound on ||B~ - B||_2 for the block B~ = build_patch(model, patch,
    sector) and the exact matrix B of the patch Hamiltonian on that block.

    An entry of B~ (the stored entries of its row and column added up, as
    `toarray` does) is a floating-point sum of at most k = bonds + 2 D |G|
    contributions x, each a term entry times its symmetry factor: one
    diagonal term entry per bond, plus, for each member of the column's orbit
    that a change of the row's state reaches, the term entries of the at
    most 2D bonds that make that change (a one-site change sums them over
    the site's bonds before the factor is applied). Any order of adding k
    numbers is a tree in which each passes through at most k - 1 additions,
    and a symmetry factor adds two roundings (square root and product) to
    the partial sum it scales, so
    |B~_ij - B_ij| <= gamma_{k+2} sum |x| and, by Cauchy-Schwarz,
    ||B~ - B||_F <= gamma_{k+2} sqrt(k sum x^2). Each of the N states of the
    block meets every bond once, and the factors are at most sqrt|G|, so
    sum x^2 <= |G| bonds N max_a ||term[a, :]||^2. Without a symmetry factor,
    terms whose entries are multiples of 2^-30 with k max|entry| < 2^23 are
    summed exactly (`exact_sums`: every partial sum is exact, in any order),
    and the margin is 0.
    """
    symmetry = getattr(sector, "symmetry", ())
    order = (1 + ("reflection" in symmetry)) * (1 + ("flip" in symmetry))
    dim = model.d ** patch.sites if sector is None else len(sector)
    bonds = len(patch_bonds(patch))
    k = bonds + 2 * patch.D * order
    if order == 1 and exact_sums(model.term, k):
        return 0.0
    gamma = (k + 2) * _U / (1 - (k + 2) * _U)
    row = float(np.max(np.linalg.norm(model.term, axis=1)))
    return gamma * float(np.sqrt(k * order * bonds * dim)) * row * (1 + 1e-6)


def exact_sums(term: np.ndarray, k: int) -> bool:
    """Whether every floating-point sum of at most k entries of `term`, real
    and imaginary parts apart, is exact: entries that are multiples of 2^-30
    with k max|entry| < 2^23 have partial sums that are multiples of 2^-30
    below 2^23, which 53 bits hold."""
    parts = np.stack([term.real, term.imag])
    scaled = np.ldexp(parts, 30)
    return bool(np.all(scaled == np.round(scaled)) and k * np.max(np.abs(parts)) < 2.0 ** 23)


def divide_down(x: float, n: int) -> float:
    """x / n rounded down: fl(x / n), or the float just below it when it lies
    above the exact quotient, so a lower bound divided stays one; exact
    quotients are returned as they are."""
    from fractions import Fraction
    q = x / n
    return float(np.nextafter(q, -np.inf) if Fraction(q) > Fraction(x) / n else q)


def _symmetries(term: np.ndarray, d: int) -> tuple:
    """The exact structural symmetries of a two-site term, in the order of
    `SYMMETRIES`. Every test compares entries exactly:

    - "su2": d = 2 and the term equals a I + b SWAP entrywise, so it commutes
      with the total spin;
    - "u1": term[(a, b), (c, e)] == 0 whenever a + b != c + e, so every patch
      is block diagonal in the charge, the sum of its local digits (total S^z
      up to an offset when d = 2); "su2" implies it;
    - "reflection": SWAP term SWAP == term;
    - "flip": the term is unchanged when every digit k becomes d - 1 - k, which
      maps charge q on n sites to (d - 1) n - q.
    """
    swap = np.arange(d * d).reshape(d, d).T.ravel()  # index of (b, a) for (a, b)
    pair = np.add.outer(np.arange(d), np.arange(d)).ravel()
    su2 = d == 2 and np.array_equal(term, term[1, 1] * np.eye(4) + term[1, 2] * np.eye(4)[swap])
    tests = {"su2": su2,
             "u1": su2 or not np.any(term[pair[:, None] != pair[None, :]]),
             "reflection": np.array_equal(term[swap][:, swap], term),
             "flip": np.array_equal(term[::-1, ::-1], term)}
    return tuple(name for name in SYMMETRIES if tests.get(name))


def sign_gauge(term: np.ndarray, d: int) -> np.ndarray:
    """(P (x) I) term (P (x) I) for P = diag((-1)^k) on the local digit k.

    For a term that conserves the charge this equals (I (x) P) term (I (x) P)
    exactly, so on a bipartite patch conjugating by P on one sublattice turns
    the term on every bond into this one (Marshall, Proc. R. Soc. A 232, 127,
    1955). Only signs change: the gauged patch has the same spectrum, and
    its entries are those of the original up to sign, bit for bit.
    """
    sign = 1 - 2 * (np.arange(d * d) // d % 2)  # (-1)^a for the digit pair (a, b)
    return term * np.outer(sign, sign)


def _stoquastic(term: np.ndarray) -> bool:
    """Real (a real dtype, as `ModelSpec` stores real terms), no positive off-diagonal entry."""
    return not np.iscomplexobj(term) and bool(np.all(term[~np.eye(len(term), dtype=bool)] <= 0))


def state_charges(n: int, d: int) -> np.ndarray:
    """The charge (sum of local digits) of every basis state of n sites."""
    charge = np.zeros(1, dtype=np.int32)
    for _ in range(n):  # state index in base d, site 0 most significant
        charge = (charge[:, None] + np.arange(d, dtype=np.int32)).ravel()
    return charge


def charge_blocks(n: int, d: int, flip: bool) -> list:
    """The sorted basis states of each charge q = 0, 1, ... of n sites. The flip
    (every digit k to d - 1 - k) maps block q onto block (d - 1) n - q; with
    `flip`, one block of each such pair is listed: those with 2q <= (d - 1) n."""
    charge = state_charges(n, d)
    blocks = np.split(np.argsort(charge, kind="stable"), np.cumsum(np.bincount(charge))[:-1])
    return blocks[:(d - 1) * n // 2 + 1] if flip else blocks


def charge_sectors(model: ModelSpec, n: int) -> list[Sector]:
    """Blocks of an open n-site patch of the model's lattice dimension D whose
    minima give its lambda_min, as `Sector` arrays of sorted basis states.

    The charge reductions follow `ModelSpec.symmetries`:

    - SU(2): every multiplet of the ground eigenspace has a member in the
      floor(n/2) sector; only it is returned.
    - U(1): the patch is block diagonal in the charge; every sector is
      returned.
    - Otherwise the whole space is one sector.

    The patch is then reduced further:

    - U(1) and flip symmetric: the flip maps block q onto block
      (d - 1) n - q, so the two have the same spectrum, and only one block
      of each pair is returned (`charge_blocks`).
    - A stoquastic term (real, with no positive off-diagonal entry) reduces
      each block to its sector that is symmetric under site reflection (D = 1
      and a reflection-symmetric term) and the global flip (d = 2, a
      flip-symmetric term, and the block maps to itself). This is exact by
      Perron-Frobenius: the block has a nonnegative ground vector, and its sum
      over the symmetry group is nonzero, symmetric and still a ground vector.
    - A U(1) term that is not stoquastic but whose `sign_gauge` is (Heisenberg,
      XXZ) is reduced the same way on the gauged patch, with every test run on
      the gauged term; a block so reduced carries "sign_gauge", and
      `build_patch` assembles it from the gauged term, on open patches only.
    The tests on the term are cached on the model (`ModelSpec.reductions`).
    """
    d = model.d
    check_cap(n, d)
    symmetries, tested = model.symmetries, model.reductions
    gauge = ("sign_gauge",) if "sign_gauge" in tested else ()
    reductions = [name for name in tested
                  if (name == "reflection" and model.D == 1) or (name == "flip" and d == 2)]
    if "u1" not in symmetries:
        blocks = [(np.arange(d ** n), (), None)]
    elif "su2" in symmetries:
        blocks = [(np.flatnonzero(state_charges(n, d) == n // 2), ("su2",), n // 2)]
    else:
        blocks = [(states, ("u1",), q)
                  for q, states in enumerate(charge_blocks(n, d, "flip" in symmetries))]
    sectors = []
    for states, symmetry, q in blocks:
        # the flip maps charge q to (d - 1) n - q; a block that no permutation
        # reduces is solved as it is, without the gauge
        used = tuple(r for r in reductions if r != "flip" or q is None or 2 * q == (d - 1) * n)
        symmetry += (gauge if used else ()) + used
        keep = np.ones(states.size, dtype=bool)
        for img in _images(states, symmetry, n, d):  # the smallest state of each orbit
            keep &= states <= img
        sector = states[keep].view(Sector)
        sector.symmetry = symmetry
        sectors.append(sector)
    return sectors
