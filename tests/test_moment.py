import numpy as np
import pytest
import scipy.sparse.linalg as spla

from certground.models import build_ring, builtin_model
from certground.moment import (assemble_moment_matrix, build_basis,
                               build_structure, objective_vector,
                               oracle_moment_matrix, ti_moment_bound)
from certground.pauli import PauliString
from tests.conftest import EMIN, RING


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
