import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from certground import sdp
from certground.anderson import anderson_bound
from certground.models import build_ring, builtin_model
from certground.moment import (assemble_moment_matrix, build_basis,
                               build_structure, coefficient_matrices,
                               objective_vector, oracle_moment_matrix,
                               ti_moment_bound)
from certground.pauli import PauliString, string_to_dense
from tests.conftest import EMIN, RING

# l = 3 bounds at the CLI's gap_tol 1e-9, frozen from the 4^l moment-matrix LMI
FROZEN_L3 = {
    "heisenberg": ([], -1.00000000037),
    "tfim": ([1.0], -1.33333333435),
    "xxz": ([0.5], -0.843070331207),
    "random_twosite": ([3.0], -1.20106902895),
}


class TestBasis:
    def test_count(self):
        assert len(build_basis(2)) == 16
        assert len(build_basis(3)) == 64

    def test_contains_standard_elements(self):
        labels = {op.label for op in build_basis(2).operators}
        assert {"II", "XI", "IX", "XX"} <= labels

    def test_closed_under_dagger(self):
        from certground.pauli import dagger
        ops = build_basis(2).operators
        assert all(dagger(op) == op for op in ops)

    def test_window_range(self):
        with pytest.raises(ValueError):
            build_basis(1)
        with pytest.raises(ValueError):
            build_basis(7)


class TestStructure:
    def test_identity_diagonal(self):
        st = build_structure(build_basis(2))
        # every diagonal entry is the identity class with phase +1
        assert np.all(np.diag(st.var_of) == 0)
        np.testing.assert_allclose(np.diag(st.phases), 1.0)

    def test_translation_identification(self):
        st = build_structure(build_basis(2))
        ops = list(build_basis(2).operators)
        i_z0 = ops.index(PauliString.from_label("ZI"))
        i_z1 = ops.index(PauliString.from_label("IZ"))
        ident = ops.index(PauliString.from_label("II"))
        assert st.var_of[ident, i_z0] == st.var_of[ident, i_z1]

    def test_hermitian_assembly(self):
        st = build_structure(build_basis(2))
        rng = np.random.default_rng(0)
        y = rng.standard_normal(st.n_variables)
        y[0] = 1.0
        X = assemble_moment_matrix(st, y)
        np.testing.assert_allclose(X, X.conj().T, atol=1e-13)


def ring_energy(st, f, const, model):
    """const + f.y on the 4-site ring ground state's moment variables, and
    that state's exact energy density."""
    vals, vecs = np.linalg.eigh(build_ring(model, 4).toarray())
    X = oracle_moment_matrix(vecs[:, 0], 4, build_basis(2))
    y = np.zeros(st.n_variables)
    seen = np.zeros(st.n_variables, dtype=bool)
    for a in range(st.size):
        for b in range(st.size):
            c = st.var_of[a, b]
            if not seen[c] and abs(st.phases[a, b] - 1.0) < 1e-12:
                y[c] = X[a, b].real
                seen[c] = True
    return const + f @ y, vals[0] / 4


class TestObjective:
    def test_heisenberg_energy(self, heisenberg):
        st = build_structure(build_basis(2))
        f, const = objective_vector(st, heisenberg)
        assert abs(const) < 1e-14
        energy, _ = ring_energy(st, f, const, heisenberg)
        assert abs(energy - RING[4]) < 1e-9

    # random_twosite has Y, one-site and identity components
    @pytest.mark.parametrize("name, params", [("tfim", [1.0]), ("xxz", [0.5]),
                                              ("random_twosite", [3.0])],
                             ids=["tfim", "xxz", "random_twosite"])
    def test_ring_energy(self, name, params):
        model = builtin_model(name, params)
        st = build_structure(build_basis(2))
        f, const = objective_vector(st, model)
        energy, exact = ring_energy(st, f, const, model)
        assert abs(energy - exact) < 1e-9


class TestBound:
    def test_heisenberg_l2_l3_monotone(self, heisenberg):
        r2 = ti_moment_bound(heisenberg, 2)
        r3 = ti_moment_bound(heisenberg, 3)
        assert r2.bound <= EMIN + 1e-7
        assert r3.bound <= EMIN + 1e-7
        assert r3.bound >= r2.bound - 1e-7

    def test_zz_product_exact(self, zz_model):
        r = ti_moment_bound(zz_model, 2)
        assert abs(r.bound + 1.0) < 1e-6

    def test_stalled_solve_is_accepted_at_the_defaults(self):
        # tfim(1) at l = 4 can stall short of the default 1e-10 tolerances (gap
        # about 2e-11 with two BLAS threads); the certificate charges every
        # residual, so the stalled iterate still gives a bound
        model = builtin_model("tfim", [1.0])
        r = ti_moment_bound(model, 4)
        assert r.diagnostics["status"] in ("optimal", "max_iter")
        assert r.bound >= anderson_bound(model, 4).certified_bound - 1e-8

    def test_stall_status_is_reported(self, monkeypatch, heisenberg):
        # a stalled solve within sdp.QUALITY_TOL is accepted and says so; one
        # whose gap is outside it still fails
        solve, gap = sdp.solve, [0.0]

        def stalled_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.status = "max_iter"
            sol.gap = max(sol.gap, gap[0])
            return sol

        monkeypatch.setattr(sdp, "solve", stalled_solve)
        r = ti_moment_bound(heisenberg, 2)
        assert r.diagnostics["status"] == "max_iter"
        assert abs(r.bound + 1.5) < 1e-6
        gap[0] = 10 * sdp.QUALITY_TOL
        with pytest.raises(RuntimeError, match="moment SDP solve failed"):
            ti_moment_bound(heisenberg, 2)

    def test_report_fields(self, heisenberg):
        r = ti_moment_bound(heisenberg, 2)
        assert r.matrix_size == 16
        assert r.variables > 0
        row = r.csv_row("heisenberg")
        assert row["model"] == "heisenberg"


class TestOracleMatrix:
    def test_maximally_mixed(self):
        basis = build_basis(2)
        dim = 2 ** 4
        # the maximally mixed state as an explicit ensemble average:
        # expectation of P is nonzero only for the identity string, so only
        # the identity class survives
        st = build_structure(basis)
        X_expect = np.where(st.var_of == 0, st.phases, 0.0)
        acc = np.zeros((len(basis), len(basis)), dtype=complex)
        rng = np.random.default_rng(0)
        # exact computation instead of sampling: sum over computational basis
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            acc += oracle_moment_matrix(e, 4, basis)
        np.testing.assert_allclose(acc / dim, X_expect, atol=1e-12)

    def test_ring_ground_state_psd_and_dominates(self, heisenberg):
        H = build_ring(heisenberg, 8)
        vals, vecs = spla.eigsh(H.tocsc().astype(float), k=1, which="SA")
        psi = vecs[:, 0]
        for window in (2, 3):
            X = oracle_moment_matrix(psi, 8, build_basis(window))
            ev = np.linalg.eigvalsh((X + X.conj().T) / 2)
            assert ev[0] > -1e-9
        assert ti_moment_bound(heisenberg, 2).bound <= vals[0] / 8 + 1e-9

    def test_product_state_psd(self):
        rng = np.random.default_rng(1)
        single = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        single /= np.linalg.norm(single, axis=1, keepdims=True)
        psi = np.array([1.0])
        for s in single:
            psi = np.kron(psi, s)
        X = oracle_moment_matrix(psi, 4, build_basis(2))
        assert np.linalg.eigvalsh((X + X.conj().T) / 2)[0] > -1e-10


def density_matrix(structure, y):
    """rho(y) = sum_c y_c R_c."""
    return np.tensordot(y, np.stack(coefficient_matrices(structure)), axes=1)


def ring_moments(structure, X):
    """Class variables y read off a moment matrix X (entries with phase +1)."""
    y = np.zeros(structure.n_variables)
    for a, b in zip(*np.nonzero(np.abs(structure.phases - 1.0) < 1e-12)):
        y[structure.var_of[a, b]] = X[a, b].real
    return y


class TestDensityMatrixLmi:
    @pytest.mark.parametrize("window", [2, 3])
    def test_spectral_identity(self, window):
        # X(y) = 2^l U^dag R_rho U: spec X is 2^l spec rho, each repeated 2^l times
        st = build_structure(build_basis(window))
        rng = np.random.default_rng(window)
        y = rng.standard_normal(st.n_variables)
        y[0] = 1.0
        got = np.linalg.eigvalsh(assemble_moment_matrix(st, y))
        want = np.repeat(2 ** window * np.linalg.eigvalsh(density_matrix(st, y)),
                         2 ** window)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_coefficients_rebuild_the_reduced_state(self, heisenberg):
        # the 8-site ring ground state's moments give back its 3-site marginal
        vals, vecs = np.linalg.eigh(build_ring(heisenberg, 8).toarray())
        psi = vecs[:, 0].reshape(8, 32)  # site 0 is the leftmost factor
        st = build_structure(build_basis(3))
        y = ring_moments(st, oracle_moment_matrix(vecs[:, 0], 8, build_basis(3)))
        np.testing.assert_allclose(density_matrix(st, y), psi @ psi.conj().T,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", [2, 3, 4])
    def test_coefficients_are_the_translate_sums(self, window):
        # R_c against dense Kronecker products of each translate's string
        st = build_structure(build_basis(window))
        mats = coefficient_matrices(st)
        np.testing.assert_array_equal(mats[0], np.eye(2 ** window) / 2 ** window)
        for rep, r in zip(st.class_reps[1:], mats[1:]):
            want = sum(string_to_dense(PauliString(window, rep.x_mask << s,
                                                   rep.z_mask << s, rep.phase_exp))
                       for s in range(window - rep.width + 1))
            np.testing.assert_array_equal(r, want / 2 ** window)

    @pytest.mark.parametrize("window", [2, 3])
    def test_solves_one_block_of_rho(self, monkeypatch, heisenberg, window):
        captured = []
        real_solve = sdp.solve

        def capture(problem, **kwargs):
            captured.append(problem)
            return real_solve(problem, **kwargs)

        monkeypatch.setattr(sdp, "solve", capture)
        r = ti_moment_bound(heisenberg, window)
        (problem,) = captured
        assert problem.blocks == [2 * 2 ** window]
        assert r.diagnostics["psd_block"] == 2 * 2 ** window
        assert r.matrix_size == 4 ** window

    @pytest.mark.parametrize("name", sorted(FROZEN_L3))
    def test_l3_bounds_frozen(self, name):
        params, ref = FROZEN_L3[name]
        r = ti_moment_bound(builtin_model(name, params), 3, gap_tol=1e-9)
        assert abs(r.bound - ref) <= 1e-9
        assert 0.0 <= r.diagnostics["negative_part"] < 1e-12


class TestCertificate:
    def test_negative_part_of_z_is_charged(self, monkeypatch, heisenberg):
        seen = []
        real_solve = sdp.solve

        def tilted(problem, **kwargs):
            sol = real_solve(problem, **kwargs)
            w, v = np.linalg.eigh(sol.X[0])
            w[0] = -1e-12
            sol.X[0] = (v * w) @ v.T
            seen.append((problem, sol.X[0]))
            return sol

        monkeypatch.setattr(sdp, "solve", tilted)
        r = ti_moment_bound(heisenberg, 3)
        ((problem, Z),) = seen
        _, constant = objective_vector(build_structure(build_basis(3)), heisenberg)
        uncharged = (constant - np.sum(problem.C[0] * Z)
                     - sum(abs(np.sum(a * Z) - f) for a, f in zip(problem.A[0], problem.b)))
        assert r.diagnostics["negative_part"] >= 1e-12
        assert r.bound <= uncharged - 1e-12


CLAIM_MODELS = {"heisenberg": [], "tfim": [1.0], "xxz": [0.5]}


@functools.cache
def hierarchy(name):
    """moment(l) for l = 2, 3, 4 at the CLI's gap_tol."""
    model = builtin_model(name, CLAIM_MODELS[name])
    return model, {window: ti_moment_bound(model, window, gap_tol=1e-9).bound
                   for window in (2, 3, 4)}


class TestHierarchyClaim:
    """The moment hierarchy tightens with l and dominates the Anderson bound."""

    @pytest.mark.parametrize("name", sorted(CLAIM_MODELS))
    def test_non_decreasing_in_window(self, name):
        _, bounds = hierarchy(name)
        assert bounds[3] >= bounds[2] - 1e-8
        assert bounds[4] >= bounds[3] - 1e-8

    @pytest.mark.parametrize("name", sorted(CLAIM_MODELS))
    def test_at_least_anderson(self, name):
        # all l - 1 bonds of a consistent rho carry the same energy, so
        # moment(l) >= lambda_min(h_l) / (l - 1)
        model, bounds = hierarchy(name)
        for window, bound in bounds.items():
            assert bound >= anderson_bound(model, window).certified_bound - 1e-8

    def test_heisenberg_below_exact_density(self):
        _, bounds = hierarchy("heisenberg")
        assert all(b <= EMIN for b in bounds.values())
