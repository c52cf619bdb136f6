"""Model specifications and patch/ring Hamiltonian construction.

A model is a two-site Hermitian interaction term on a D-dimensional cubic
lattice; patches are open or periodic m^D regions assembled as sparse
operators. One-site fields are not separate inputs: fold them into the
two-site term, symmetrized as (g/2)(X otimes I + I otimes X) per bond in 1D
(divide by the coordination number 2D in higher dimensions).

`charge_sectors` splits a patch into the blocks whose minima give its
lambda_min: conserved-charge blocks, each reduced to its reflection- and
flip-symmetric sector when the term is stoquastic, directly or after
Marshall's sublattice sign gauge (open patches are bipartite, so Heisenberg
and XXZ qualify). `build_patch` assembles one such block from its states.
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
_U = float(np.finfo(np.float64).eps) / 2  # unit roundoff

BUILTIN_MODELS = ("heisenberg", "xxz", "tfim", "random_twosite")
SYMMETRIES = ("su2", "u1", "sign_gauge", "reflection", "flip")  # the order reports list them in


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
        if not isinstance(entries, list) or not entries:
            raise ValueError("pauli_sum must be a non-empty list")
        for e in entries:
            if not isinstance(e, dict) or not {"paulis", "coeff"} <= e.keys():
                raise ValueError(f"pauli_sum entry {e!r} is not an object with "
                                 "'paulis' and 'coeff'")
            coeff = e["coeff"]
            if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
                raise ValueError(f"pauli_sum coeff {coeff!r} is not a number")
            if not isinstance(e["paulis"], str) or len(e["paulis"]) != 2:
                raise ValueError("pauli_sum entries must be two-site labels")
        term = labels_to_dense([(float(e["coeff"]), e["paulis"]) for e in entries])
    else:
        rows = term_doc["dense"]
        if not isinstance(rows, list) or len(rows) != d ** 4:
            raise ValueError(f"dense term must be a list of {d ** 4} entries "
                             "(row-major d^2 x d^2)")
        for e in rows:
            if (not isinstance(e, list) or len(e) != 2
                    or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in e)):
                raise ValueError(f"dense entry {e!r} is not an [re, im] pair of numbers")
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
    """Every group element but the identity, as (images of `states`, reverse,
    flip): reverse the site order, then complement every digit (k to d - 1 - k)."""
    top = d ** n - 1
    out = []
    if "reflection" in symmetry:
        # s = hi d^h + lo reversed is reverse(lo) d^(n-h) + reverse(hi): two small tables
        h = n // 2
        hi, lo = np.divmod(states, d ** h)
        rev = _reversals(h, d)[lo] * d ** (n - h) + _reversals(n - h, d)[hi]
        out.append((rev, True, False))
    if "flip" in symmetry:
        out.append((top - states, False, True))
        if "reflection" in symmetry:
            out.append((top - rev, True, True))
    return out


def _reversals(k: int, d: int) -> np.ndarray:
    """Every k-digit base-d number with its digit order reversed."""
    out, rest = np.zeros(d ** k, dtype=np.int64), np.arange(d ** k)
    for _ in range(k):
        out = out * d + rest % d
        rest //= d
    return out


def _check_cap(n: int, d: int) -> None:
    if n * np.log2(d) > max_qubits():
        raise ValueError(f"{n} sites of dimension {d} exceed the {max_qubits()}-qubit cap")


def build_patch(model: ModelSpec, patch: PatchSpec, sector=None) -> sp.csr_matrix:
    """The patch Hamiltonian on one block, assembled bond by bond.

    `sector` is one block from `charge_sectors` (a plain sorted index array
    is read as a block of charge alone); None is the whole space. A
    "sign_gauge" sector is a block of the gauged patch, `sign_gauge(term)` on
    every bond, and needs an open patch. For every bond and every nonzero
    entry <a|term|c> with c != a, one vectorized pass over the sector's states
    s whose digits on the bond read a gives the states t that read c there
    instead. Each t is mapped to its orbit representative r in O(1) from the
    precomputed images of s under the sector's symmetries, and r to its column
    by a d^n rank table; entry (s, r) gains <a|term|c> sqrt(|O_s| / |O_r|),
    the matrix element between normalized orbit sums. Diagonal entries are
    summed per bond in a dense vector. Row lengths are counted first, so every
    entry is written straight into its CSR row and the d^n matrix exists only
    when the whole space is asked for. Entries are rounded sums;
    `assembly_margin` bounds how far the block is from the exact one.
    """
    n, d = patch.sites, model.d
    _check_cap(n, d)
    term = _realify(np.asarray(model.term, dtype=complex))
    states = np.arange(d ** n) if sector is None else np.asarray(sector)
    symmetry = getattr(sector, "symmetry", ())
    if "sign_gauge" in symmetry:
        if patch.boundary != "open":
            raise ValueError("a sign-gauged sector needs an open (bipartite) patch")
        term = sign_gauge(term, d)
    dim = states.size
    images = _images(states, symmetry, n, d)
    if images:  # orbit sizes |G| / |stabilizer|: 1, 2 or 4, so ratios are exact
        size = (len(images) + 1) / (1.0 + sum(img == states for img, _, _ in images))
    rank = None  # the whole space: a state is its own column
    if dim < d ** n:  # the column of each representative, by state
        rank = np.empty(d ** n, dtype=np.int32)
        rank[states] = np.arange(dim, dtype=np.int32)
    strides = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    outs = [[c for c in np.flatnonzero(term[a]) if c != a] for a in range(d * d)]
    bonds = patch_bonds(patch)
    # the digit pair (a, b) on each bond of every state, as a d + b
    pairs = [(states // strides[p] % d * d + states // strides[q] % d)
             .astype(np.min_scalar_type(d * d - 1)) for p, q in bonds]
    # row s holds its diagonal, then one entry per bond and off-diagonal output
    fanout = np.array([len(o) for o in outs])
    length = 1 + sum(fanout[local] for local in pairs)
    index = np.int32 if int(length.sum()) < 2 ** 31 else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(length, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1], dtype=term.dtype)
    indices[indptr[:-1]] = np.arange(dim)
    diag = np.zeros(dim, dtype=term.dtype)
    free = indptr[:-1] + 1  # the next unwritten slot of each row
    for (p, q), local in zip(bonds, pairs):
        for a in range(d * d):
            if term[a, a] == 0 and not outs[a]:
                continue
            src = np.flatnonzero(local == a)
            diag[src] += term[a, a]
            if not outs[a]:
                continue
            base, slot = states[src], free[src]
            free[src] += len(outs[a])
            moved = [(img[src], rev, flip) for img, rev, flip in images]
            for c in outs[a]:
                dp, dq = c // d - a // d, c % d - a % d
                t = base + (dp * strides[p] + dq * strides[q])
                for img, rev, flip in moved:
                    jp, jq = (n - 1 - p, n - 1 - q) if rev else (p, q)
                    shift = dp * strides[jp] + dq * strides[jq]
                    np.minimum(t, img + (-shift if flip else shift), out=t)
                col = t if rank is None else rank[t]
                indices[slot] = col
                data[slot] = (term[a, c] * np.sqrt(size[src] / size[col]) if images
                              else term[a, c])
                slot += 1
    data[indptr[:-1]] = diag
    h = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    h.sum_duplicates()
    h.eliminate_zeros()
    return h


def assembly_margin(model: ModelSpec, patch: PatchSpec, sector=None) -> float:
    """A bound on ||B~ - B||_2 for the block B~ = build_patch(model, patch,
    sector) and the exact matrix B of the patch Hamiltonian on that block.

    An entry of B~ is a floating-point sum of at most k = bonds + 2 D |G|
    contributions x: one diagonal term entry per bond, plus the bonds that
    reach a member of the column's orbit, at most 2D per member. A symmetry
    factor adds two roundings (square root and product), so
    |B~_ij - B_ij| <= gamma_{k+2} sum |x| and, by Cauchy-Schwarz,
    ||B~ - B||_F <= gamma_{k+2} sqrt(k sum x^2). Each of the N states of the
    block meets every bond once, and the factors are at most sqrt|G|, so
    sum x^2 <= |G| bonds N max_a ||term[a, :]||^2. Without a symmetry factor,
    terms whose entries are multiples of 2^-30 with k max|entry| < 2^23 are
    summed exactly (`exact_sums`), and the margin is 0.
    """
    symmetry = getattr(sector, "symmetry", ())
    order = (1 + ("reflection" in symmetry)) * (1 + ("flip" in symmetry))
    dim = model.d ** patch.sites if sector is None else len(sector)
    bonds = len(patch_bonds(patch))
    k = bonds + 2 * patch.D * order
    term = np.asarray(model.term)
    if order == 1 and exact_sums(term, k):
        return 0.0
    gamma = (k + 2) * _U / (1 - (k + 2) * _U)
    row = float(np.max(np.linalg.norm(term, axis=1)))
    return gamma * float(np.sqrt(k * order * bonds * dim)) * row * (1 + 1e-6)


def exact_sums(term: np.ndarray, k: int) -> bool:
    """Whether every floating-point sum of at most k entries of `term`, real
    and imaginary parts apart, is exact: entries that are multiples of 2^-30
    with k max|entry| < 2^23 have partial sums that are multiples of 2^-30
    below 2^23, which 53 bits hold."""
    term = np.asarray(term)
    parts = np.stack([term.real, term.imag])
    scaled = np.ldexp(parts, 30)
    return bool(np.all(scaled == np.round(scaled)) and k * np.max(np.abs(parts)) < 2.0 ** 23)


def term_symmetries(model: ModelSpec) -> tuple:
    """The exact structural symmetries of the two-site term, in the order of
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
    d = model.d
    term = np.asarray(model.term)
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
    """Real with no positive off-diagonal entry."""
    real = not np.iscomplexobj(term) or not np.any(term.imag)
    return bool(real and np.all(term.real[~np.eye(len(term), dtype=bool)] <= 0))


def state_charges(n: int, d: int) -> np.ndarray:
    """The charge (sum of local digits) of every basis state of n sites."""
    charge = np.zeros(1, dtype=np.int32)
    for _ in range(n):  # state index in base d, site 0 most significant
        charge = (charge[:, None] + np.arange(d, dtype=np.int32)).ravel()
    return charge


def charge_sectors(model: ModelSpec, n: int, D: int | None = None) -> list[Sector]:
    """Blocks of an n-site patch whose minima give its lambda_min, as `Sector`
    arrays of sorted basis states.

    The charge reductions follow `term_symmetries`:

    - SU(2): every multiplet of the ground eigenspace has a member in the
      floor(n/2) sector; only it is returned.
    - U(1): the patch is block diagonal in the charge; every sector is
      returned.
    - Otherwise the whole space is one sector.

    Given the patch's lattice dimension D (None: the charge alone), the open
    patch is reduced further:

    - U(1) and flip symmetric: the flip maps block q onto block
      (d - 1) n - q, so the two have the same spectrum, and only the blocks
      with q <= (d - 1) n / 2 are returned.
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
    """
    d = model.d
    _check_cap(n, d)
    symmetries = term_symmetries(model)
    term, tested, gauge = np.asarray(model.term), symmetries, ()
    reductions = []
    if D is not None and "u1" in symmetries and not _stoquastic(term):
        gauged = sign_gauge(term, d)
        if _stoquastic(gauged):
            term, gauge = gauged, ("sign_gauge",)
            tested = term_symmetries(ModelSpec(model.name, d, model.D, gauged))
    if D is not None and _stoquastic(term):
        if D == 1 and "reflection" in tested:
            reductions.append("reflection")
        if d == 2 and "flip" in tested:
            reductions.append("flip")
    if "u1" not in symmetries:
        blocks = [(np.arange(d ** n), (), None)]
    else:
        charge = state_charges(n, d)
        if "su2" in symmetries:
            blocks = [(np.flatnonzero(charge == n // 2), ("su2",), n // 2)]
        else:
            order = np.argsort(charge, kind="stable")
            split = np.split(order, np.cumsum(np.bincount(charge))[:-1])
            if D is not None and "flip" in symmetries:  # block q and its flip partner
                split = split[:(d - 1) * n // 2 + 1]
            blocks = [(idx, ("u1",), q) for q, idx in enumerate(split)]
    sectors = []
    for states, symmetry, q in blocks:
        # the flip maps charge q to (d - 1) n - q; a block that no permutation
        # reduces is solved as it is, without the gauge
        used = tuple(r for r in reductions if r != "flip" or q is None or 2 * q == (d - 1) * n)
        symmetry += (gauge if used else ()) + used
        keep = np.ones(states.size, dtype=bool)
        for img, _, _ in _images(states, symmetry, n, d):  # the smallest state of each orbit
            keep &= states <= img
        sector = states[keep].view(Sector)
        sector.symmetry = symmetry
        sectors.append(sector)
    return sectors


def build_ring(model: ModelSpec, n: int) -> sp.csr_matrix:
    """Periodic 1D ring on n sites."""
    return build_patch(model, PatchSpec(n, 1, "periodic"))


def operator_norm(model: ModelSpec) -> float:
    """Spectral norm of the two-site term (dense diagonalization)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(np.asarray(model.term)))))
