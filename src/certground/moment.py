"""Translation-invariant moment-hierarchy lower bounds for qubit chains.

The operator set is all 4^l Pauli strings on an l-site contiguous window.
Gram entries tr(O_a^dag O_b omega) are identified across lattice shifts:
each product canonicalizes to one shared real variable per translation
class, with a residual phase in {1, i, -1, -i}. The moment matrix X(y), with
the identity class pinned to 1, is positive semidefinite for the moments y
of every translation-invariant state.

The LMI is imposed on the l-site density matrix instead of on X. With
rho(y) = sum_c y_c R_c, where R_c is 2^-l times the sum of the translates of
class c's standard string that fit in the window, every entry of X is
X_ab = tr(rho(y) P_a P_b) = <P_a, P_b rho(y)>. In the orthonormal operator
basis P_a / 2^(l/2) that is X(y) = 2^l U^dag R_rho U, with U unitary and
R_rho the right multiplication by rho(y), whose spectrum is spec(rho) with
every eigenvalue repeated 2^l times. So X(y) >= 0 if and only if
rho(y) >= 0, and the relaxation is solved on one 2^l block (2^(l+1) real
embedded) rather than on the 4^l moment matrix (Barthel & Huebener, PRL 108,
200404 (2012); Baumgratz & Plenio, NJP 14, 023027 (2012)). It is solved
through its Lagrangian dual in primal standard form, whose solution matrix
doubles as a rigorous certificate (Pauli expectations are bounded by 1 in
modulus, so constraint residuals enter the certified bound with unit
weight).

`build_structure` and its Pauli product table stay on the path for now:
the class table behind `variables`, `objective_vector` and the oracle tests
comes from it, and the benchmark's trace (`perfbench/tracing.py`) wraps
this module's Pauli seams and pins their call count. Deleting the table and
the Pauli-string algebra waits until that trace is re-pinned; a
translation-invariant state SDP builder then takes the class table's place.

Models carry only their dense two-site term; `objective_vector` expands it
in the two-site Pauli basis here, the one place the moment hierarchy needs
Pauli strings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import eigensolver, sdp
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


def coefficient_matrices(structure: MomentStructure):
    """R_c with rho(y) = sum_c y_c R_c, as 2^l x 2^l Hermitian matrices.

    R_0 = I / 2^l; for c >= 1, R_c is 2^-l times the sum of the translates
    of class c's standard string inside the window. Then
    X(y) = 2^l U^dag R_rho U (module docstring), so rho(y) >= 0 is the
    moment-matrix LMI X(y) >= 0 on a block 2^l times smaller.
    """
    window = structure.window
    dim = 1 << window
    scale = 0.5 ** window
    cols = np.arange(dim)
    odd = np.array([j.bit_count() & 1 for j in range(dim)])

    def index_bits(mask):  # site k is bit window - 1 - k of a basis index
        return int(f"{mask:0{window}b}"[::-1], 2)

    out = [np.eye(dim, dtype=complex) * scale]
    for rep in structure.class_reps[1:]:
        r = np.zeros((dim, dim), dtype=complex)
        for s in range(window - rep.width + 1):
            x, z = index_bits(rep.x_mask << s), index_bits(rep.z_mask << s)
            # i^phase X^x Z^z |j> = i^phase (-1)^|j & z| |j ^ x>
            r[cols ^ x, cols] += (scale * 1j ** rep.phase_exp) * (1 - 2 * odd[cols & z])
        out.append(r)
    return out


def objective_vector(structure: MomentStructure, model: ModelSpec):
    """Map the two-site term onto class variables.

    The term is expanded in the two-site Pauli basis with coefficients
    tr(P term)/4 (real, since the term is Hermitian). Returns (f, constant):
    the energy density of a translation-invariant state is
    constant + sum_c f_c y_c.
    """
    if model.d != 2:
        raise ValueError("the moment hierarchy requires a qubit model (d = 2)")
    term = np.asarray(model.term)
    f = np.zeros(structure.n_variables)
    constant = 0.0
    for p in all_strings(2):
        c = np.trace(string_to_dense(p) @ term) / 4
        if abs(c) <= 1e-14:
            continue
        key, _ = hermitian_class(p)  # p is a standard Hermitian string: factor 1
        if key == (1, 0, 0):
            constant += float(c.real)
            continue
        idx = structure.class_index.get(key)
        if idx is None:
            raise ValueError("term class missing from the moment structure")
        f[idx] += float(c.real)
    return f, constant


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


def ti_moment_bound(model: ModelSpec, window: int, gap_tol: float = 1e-10,
                    feas_tol: float = 1e-10) -> MomentBoundResult:
    """Certified moment-hierarchy lower bound on the energy density.

    The LMI min f.y s.t. rho(y) >= 0, y_identity = 1, equivalent to the
    moment-matrix LMI X(y) >= 0 since X(y) = 2^l U^dag R_rho U, is solved via
    its dual min tr(A_0 Z) s.t. tr(A_c Z) = f_c, Z >= 0, with
    A_c = real_embed(R_c) / 2 on one block of 2^(l+1). For the true state's
    moments y*, tr(Z M*) >= -delta tr(M*) = -delta, where
    M* = real_embed(rho(y*)) / 2 >= 0 has trace tr(rho) = 1 and
    lambda_min(Z) > -delta is proven by a shifted Cholesky factorization with
    Rump's margin (`eigensolver.min_eig_dense_certified`). Using |y*_c| <= 1,
    the certified bound is
    constant - tr(A_0 Z) - sum_c |tr(A_c Z) - f_c| - delta.
    """
    t0 = time.perf_counter()
    structure = build_structure(build_basis(window))
    mats = coefficient_matrices(structure)
    f, constant = objective_vector(structure, model)

    emb = [sdp.real_embed(a) / 2.0 for a in mats]
    nvar = structure.n_variables
    problem = sdp.SdpProblem(
        blocks=[emb[0].shape[0]],
        C=[emb[0]],
        A=[np.stack(emb[1:])],
        b=f[1:],
    )
    sol = sdp.solve(problem, gap_tol=gap_tol, feas_tol=feas_tol)
    if sol.status != "optimal":
        raise RuntimeError(f"moment SDP did not reach optimality (status {sol.status})")
    Z = sol.X[0]
    # Z is at most 2^(l+1) wide, so Lanczos may run to exhaustion: the tight
    # tol keeps value - residual, and so delta, at the rounding level
    negative_part = max(0.0, -eigensolver.min_eig_dense_certified(Z, tol=1e-13).lower_edge)
    a0z = float(np.sum(emb[0] * Z))
    resid = np.array([abs(float(np.sum(emb[c] * Z)) - f[c]) for c in range(1, nvar)])
    bound = constant - a0z - float(np.sum(resid)) - negative_part
    return MomentBoundResult(
        window=window, bound=bound, variables=nvar, matrix_size=structure.size,
        gap=sol.gap, iterations=sol.iterations, seconds=time.perf_counter() - t0,
        diagnostics={"primal_obj": sol.primal_obj, "dual_obj": sol.dual_obj,
                     "residual_l1": float(np.sum(resid)), "status": sol.status,
                     "psd_block": problem.blocks[0], "negative_part": negative_part,
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
