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
multiplication by rho(y). So X(y) >= 0 exactly when rho(y) >= 0, and X(y)
itself is never formed. The marginals of rho agree exactly when all
translates of each class have one expectation, that is, exactly when
rho = rho(y) for its class expectations y.

`coefficient_matrices` gives the consistency rows P_{c,s} - P_{c,0}. Real
models are solved on a real 2^l block with the rows that have an even number
of Y factors (the others vanish on a real symmetric rho, and
(rho + conj(rho)) / 2 is feasible with the same energy); complex ones on the
real-embedded 2^(l+1) block. The bound is `sdp.dual_lower_bound`, Jansson,
Chaykin & Keil's bound, as for the marginal SDP.

`build_structure` lists the translation classes by walking every product
P_a^dag P_b of the 4^l strings through this module's `dagger`, `multiply`
and `hermitian_class`, keeping one representative per class and no 4^l x 4^l
array. Those three skip the checks of the `PauliString` constructor, so the
4^2l products take about 0.6 s at l = 5 and 9 s at l = 6 (one core of a
2-core machine), most of a moment solve at those windows. The benchmark pins
that walk: `perfbench/test_perfbench.py` expects `pauli.multiply_calls ==
16 * 16` at l = 2, and `perfbench/tracing.py` wraps those three names,
`build_structure` and `coefficient_matrices` by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sdp
from .marginal import partial_trace
from .models import ModelSpec
from .pauli import PauliString, all_strings, dagger, hermitian_class, multiply
from .reports import BoundReport

_MIN_WINDOW, _MAX_WINDOW = 2, 6


def check_window(window: int) -> None:
    """Raise ValueError unless `build_structure` accepts this window length."""
    if not _MIN_WINDOW <= window <= _MAX_WINDOW:
        raise ValueError(f"window length must be in [{_MIN_WINDOW}, {_MAX_WINDOW}]")


def check_request(model: ModelSpec, window: int) -> None:
    """Raise ValueError unless `ti_moment_bound` accepts this model and window."""
    if model.d != 2:
        raise ValueError("the moment hierarchy requires a qubit model (d = 2)")
    if model.D != 1:
        raise ValueError("the moment hierarchy is one-dimensional")
    check_window(window)


@dataclass(frozen=True)
class MomentStructure:
    """The translation classes of the Pauli strings on an l-site window."""

    window: int
    class_reps: tuple          # standard PauliString per variable, the identity first

    @property
    def n_variables(self) -> int:
        return len(self.class_reps)


def build_structure(window: int) -> MomentStructure:
    """Multiply all pairs of strings symbolically and list their translation
    classes in order of first appearance."""
    check_window(window)
    ops = tuple(all_strings(window))
    reps = {(1, 0, 0): PauliString.identity(1)}
    for a in ops:
        da = dagger(a)
        for b in ops:
            key, _ = hermitian_class(multiply(da, b))
            if key not in reps:
                reps[key] = PauliString(*key, (key[1] & key[2]).bit_count() % 4)
    return MomentStructure(window, tuple(reps.values()))


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


def ti_moment_bound(model: ModelSpec, window: int,
                    gap_tol: float = 1e-9) -> BoundReport:
    """Certified moment-hierarchy lower bound on the energy density of a qubit
    chain (D = 1).

    Solves min tr((h x I) rho) s.t. tr rho = 1 and tr(rho row) = 0 for every
    consistency row (module docstring). A solve that stalls short of its
    tolerances is accepted within sdp.QUALITY_TOL (`sdp.certified_solve`);
    the bound is `sdp.dual_lower_bound`, valid for any dual vector, and
    diagnostics["status"] and ["stalled"] tell. The diagnostics'
    `matrix_size` is 4^l, the moment matrix; `psd_block` is the block solved.
    """
    check_request(model, window)
    structure = build_structure(window)
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
    return BoundReport(
        method="moment", model=model.name, params={"l": window},
        lower=bound, certified=True,
        diagnostics={"variables": structure.n_variables, "matrix_size": 4 ** window,
                     "psd_block": problem.blocks[0], "gap": sol.gap,
                     "iterations": sol.iterations, "status": sol.status,
                     "stalled": bool(sol.diagnostics.get("stalled", False)),
                     **sdp.solve_counts(problem, sol)})


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
