"""Translation-invariant moment-hierarchy lower bounds for qubit chains.

The relaxation is a state SDP (Baumgratz & Plenio, NJP 14, 023027 (2012);
Barthel & Huebener, PRL 108, 200404 (2012)): one l-site density matrix
rho >= 0 with tr rho = 1 whose marginals on sites 0..l-2 and 1..l-1 agree,
minimizing the energy of the term h on sites (0, 1). The l-site marginal of
every translation-invariant state is feasible, so the optimum is a lower
bound on the energy density.

It is the moment-matrix relaxation. The operator set is all 4^l Pauli
strings on the window; Gram entries tr(O_a^dag O_b omega) are identified
across lattice shifts, one real variable y_c per translation class, and the
moment matrix X(y) is PSD for the moments y of every translation-invariant
state. With rho(y) = sum_c y_c R_c, where R_c is 2^-l times the sum of the
translates of class c's standard string that fit in the window, every entry
is X_ab = tr(rho(y) P_a P_b): in the orthonormal operator basis
P_a / 2^(l/2), X(y) = 2^l U^dag R_rho U, with U unitary and R_rho the right
multiplication by rho(y). So X(y) >= 0 exactly when rho(y) >= 0. The
marginals of rho agree exactly when all translates of each class have one
expectation, that is, exactly when rho = rho(y) for its class expectations y.

`coefficient_matrices` gives the consistency rows P_{c,s} - P_{c,0}. Real
models are solved on a real 2^l block with the rows that have an even number
of Y factors (the others vanish on a real symmetric rho, and
(rho + conj(rho)) / 2 is feasible with the same energy); complex ones on the
real-embedded 2^(l+1) block. The bound is `sdp.dual_lower_bound`, Jansson,
Chaykin & Keil's bound, as for the marginal SDP.

`build_structure` and its Pauli product table stay on the path for now:
the class table behind `variables` and the rows comes from it, and the
benchmark's trace (`perfbench/tracing.py`) wraps this module's Pauli seams
and pins their call count. Deleting the table and the Pauli-string algebra
waits until that trace is re-pinned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import sdp
from .models import ModelSpec, embed_on_sites
from .pauli import (PauliString, all_strings, dagger, hermitian_class, multiply,
                    string_to_dense)

MOMENT_CSV_COLUMNS = ("model", "l", "variables", "matrix_size", "bound", "gap", "seconds")

_MIN_WINDOW, _MAX_WINDOW = 2, 6


@dataclass(frozen=True)
class OperatorBasis:
    """All Pauli strings on an l-site window, in deterministic lexical order."""

    window: int
    operators: tuple

    def __len__(self) -> int:
        return len(self.operators)


def check_window(window: int) -> None:
    """Raise ValueError unless `build_basis` accepts this window length."""
    if not _MIN_WINDOW <= window <= _MAX_WINDOW:
        raise ValueError(f"window length must be in [{_MIN_WINDOW}, {_MAX_WINDOW}]")


def build_basis(window: int) -> OperatorBasis:
    check_window(window)
    return OperatorBasis(window, tuple(all_strings(window)))


@dataclass(frozen=True)
class MomentStructure:
    """Variable table and entry map of the translation-identified moment matrix."""

    window: int
    size: int
    class_index: dict          # canonical class key -> variable index (0 = identity)
    class_reps: tuple          # representative canonical PauliString per variable
    phases: np.ndarray         # (size, size) complex entry phases
    var_of: np.ndarray         # (size, size) int variable indices

    @property
    def n_variables(self) -> int:
        return len(self.class_reps)


def build_structure(basis: OperatorBasis) -> MomentStructure:
    """Multiply all pairs symbolically and identify translation classes."""
    ops = basis.operators
    n = len(ops)
    identity_key = (1, 0, 0)
    class_index: dict = {identity_key: 0}
    reps = [PauliString.identity(1)]
    phases = np.zeros((n, n), dtype=complex)
    var_of = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        da = dagger(ops[a])
        for b in range(n):
            prod = multiply(da, ops[b])
            key, factor = hermitian_class(prod)
            idx = class_index.get(key)
            if idx is None:
                idx = len(reps)
                class_index[key] = idx
                reps.append(PauliString(key[0], key[1], key[2],
                                        (key[1] & key[2]).bit_count() % 4))
            phases[a, b] = factor
            var_of[a, b] = idx
    return MomentStructure(basis.window, n, class_index, tuple(reps), phases, var_of)


def assemble_moment_matrix(structure: MomentStructure, y: np.ndarray) -> np.ndarray:
    """The complex Hermitian X(y); y[0] is the identity variable."""
    return structure.phases * y[structure.var_of]


def coefficient_matrices(structure: MomentStructure) -> np.ndarray:
    """The consistency rows P_{c,s} - P_{c,0}, as a stack of 2^l x 2^l
    Hermitian matrices.

    P_{c,s} is class c's standard string shifted by s sites. There is one row
    for each extra translate s = 1..l-w of each class of width w < l: the
    marginals of rho on sites 0..l-2 and 1..l-1 agree exactly when every row
    has tr(rho row) = 0. Distinct strings are orthogonal, so the rows are
    linearly independent.
    """
    window = structure.window
    dim = 1 << window
    cols = np.arange(dim)
    odd = np.array([j.bit_count() & 1 for j in range(dim)])

    def index_bits(mask):  # site k is bit window - 1 - k of a basis index
        return int(f"{mask:0{window}b}"[::-1], 2)

    def translate(rep, s):
        x, z = index_bits(rep.x_mask << s), index_bits(rep.z_mask << s)
        p = np.zeros((dim, dim), dtype=complex)
        # i^phase X^x Z^z |j> = i^phase (-1)^|j & z| |j ^ x>
        p[cols ^ x, cols] = 1j ** rep.phase_exp * (1 - 2 * odd[cols & z])
        return p

    rows = []
    for rep in structure.class_reps[1:]:
        base = translate(rep, 0)
        rows += [translate(rep, s) - base for s in range(1, window - rep.width + 1)]
    return np.stack(rows)


@dataclass(frozen=True)
class MomentBoundResult:
    window: int
    bound: float
    variables: int
    matrix_size: int           # 4^l, the moment matrix; diagnostics["psd_block"] is solved
    gap: float
    iterations: int
    seconds: float
    diagnostics: dict = field(default_factory=dict)

    def csv_row(self, model_name: str) -> dict:
        return {"model": model_name, "l": self.window, "variables": self.variables,
                "matrix_size": self.matrix_size, "bound": self.bound,
                "gap": self.gap, "seconds": self.seconds}


def ti_moment_bound(model: ModelSpec, window: int,
                    gap_tol: float = 1e-10) -> MomentBoundResult:
    """Certified moment-hierarchy lower bound on the energy density.

    Solves min tr((h x I) rho) s.t. tr rho = 1 and tr(rho row) = 0 for every
    consistency row (module docstring). A solve that stalls short of its
    tolerances is accepted within sdp.QUALITY_TOL (`sdp.certified_solve`);
    the bound is `sdp.dual_lower_bound`, valid for any dual vector, and
    diagnostics["status"] tells.
    """
    t0 = time.perf_counter()
    if model.d != 2:
        raise ValueError("the moment hierarchy requires a qubit model (d = 2)")
    structure = build_structure(build_basis(window))
    dim = 1 << window
    rows = [np.eye(dim), *coefficient_matrices(structure)]  # the trace row first
    objective = np.kron(np.asarray(model.term), np.eye(dim // 4))
    if model.is_real:
        C, A = objective.real, np.stack([r.real for r in rows if not r.imag.any()])
    else:
        C, A = sdp.real_embed(objective) / 2.0, np.stack([sdp.real_embed(r) / 2.0
                                                          for r in rows])
    b = np.zeros(len(A))
    b[0] = 1.0
    problem = sdp.SdpProblem(blocks=[C.shape[0]], C=[C], A=[A], b=b)
    sol, bound = sdp.certified_solve(problem, "moment", gap_tol=gap_tol)
    return MomentBoundResult(
        window=window, bound=bound, variables=structure.n_variables,
        matrix_size=structure.size, gap=sol.gap, iterations=sol.iterations,
        seconds=time.perf_counter() - t0,
        diagnostics={"primal_obj": sol.primal_obj, "dual_obj": sol.dual_obj,
                     "status": sol.status, "psd_block": problem.blocks[0],
                     **sdp.solve_counts(problem, sol)})


def oracle_moment_matrix(state: np.ndarray, n_sites: int, basis: OperatorBasis) -> np.ndarray:
    """Translation-averaged moment matrix of an actual ring state (pure vector).

    X = (1/n) sum_j Gram(tau_j(O_a) |psi>), which is PSD by construction and
    feasible for the translation-identified structure.
    """
    state = np.asarray(state, dtype=complex).ravel()
    dim = 1 << n_sites
    if state.size != dim:
        raise ValueError("state dimension does not match the site count")
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    if n_sites < 2 * basis.window:
        raise ValueError("ring must have at least twice the window length")
    nb = len(basis)
    X = np.zeros((nb, nb), dtype=complex)
    for j in range(n_sites):
        V = np.empty((dim, nb), dtype=complex)
        sites = [(j + k) % n_sites for k in range(basis.window)]
        for a, op in enumerate(basis.operators):
            V[:, a] = embed_on_sites(string_to_dense(op), sites, n_sites) @ state
        X += V.conj().T @ V
    return X / n_sites
