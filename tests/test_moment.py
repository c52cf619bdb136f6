import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from certground import sdp
from certground.anderson import anderson_bound
from certground.marginal import MarginalProblemSpec, improved_anderson_bound
from certground.models import PatchSpec, build_patch, builtin_model
from certground.moment import (build_structure, check_window, coefficient_matrices,
                               ti_moment_bound)
from certground.pauli import PauliString, all_strings, dagger, hermitian_class, multiply
from tests.conftest import EMIN, RING
from tests.oracles import as_csr, canonicalize, label, oracle_moment_matrix, string_to_dense

# l = 3 bounds at the CLI's gap_tol 1e-9, frozen from the 4^l moment-matrix LMI
FROZEN_L3 = {
    "heisenberg": ([], -1.00000000037),
    "tfim": ([1.0], -1.33333333435),
    "xxz": ([0.5], -0.843070331207),
    "random_twosite": ([3.0], -1.20106902895),
}


class TestBasis:
    # the operator set is all 4^l strings; the variables are the translation
    # classes of their products
    def test_count(self):
        assert build_structure(2).n_variables == 13  # I, 3 one-site, 9 two-site
        assert build_structure(3).n_variables == 49

    @pytest.mark.parametrize("window, count", [(2, 13), (3, 49), (4, 193)])
    def test_classes_match_canonicalize(self, window, count):
        # the classes of the products P_a P_b of the standard (Hermitian)
        # strings, in order of first appearance, built with the validating
        # constructor and `canonicalize`
        strings = list(all_strings(window))
        reps = {}
        for a in strings:
            for b in strings:
                phase = a.phase_exp + b.phase_exp + 2 * (a.z_mask & b.x_mask).bit_count()
                _, c = canonicalize(PauliString(window, a.x_mask ^ b.x_mask,
                                                a.z_mask ^ b.z_mask, phase))
                reps.setdefault((c.width, c.x_mask, c.z_mask), PauliString(
                    c.width, c.x_mask, c.z_mask, (c.x_mask & c.z_mask).bit_count()))
        assert len(reps) == count
        assert build_structure(window).class_reps == tuple(reps.values())

    def test_contains_standard_elements(self):
        labels = {label(rep) for rep in build_structure(2).class_reps}
        assert {"I", "X", "Y", "Z", "XX", "YZ"} <= labels

    def test_closed_under_dagger(self):
        # every representative is a standard Hermitian string
        assert all(dagger(rep) == rep for rep in build_structure(3).class_reps)

    def test_window_range(self):
        for window in (2, 6):
            check_window(window)
        for window in (1, 7):
            with pytest.raises(ValueError):
                check_window(window)
            with pytest.raises(ValueError):
                build_structure(window)


class TestStructure:
    def test_identity_diagonal(self):
        # the identity is variable 0, and every diagonal product P_a^dag P_a is
        # the identity with factor +1
        reps = build_structure(2).class_reps
        assert reps[0] == PauliString.identity(1)
        identity_key, _ = hermitian_class(reps[0])
        for p in all_strings(2):
            assert hermitian_class(multiply(dagger(p), p)) == (identity_key, 1)

    def test_translation_identification(self):
        keys = [hermitian_class(rep)[0] for rep in build_structure(2).class_reps]
        z0, _ = hermitian_class(PauliString.from_label("ZI"))
        z1, _ = hermitian_class(PauliString.from_label("IZ"))
        assert z0 == z1
        assert keys.count(z0) == 1

    def test_hermitian_assembly(self):
        # rho(y) assembled from the class table is Hermitian with unit trace
        st = build_structure(2)
        y = np.random.default_rng(0).standard_normal(st.n_variables)
        y[0] = 1.0
        rho = density_matrix(st, y)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-13)
        assert abs(np.trace(rho) - 1.0) < 1e-13


def captured_solve(monkeypatch):
    """Record every (problem, solution) pair that `sdp.solve` returns."""
    seen, real_solve = [], sdp.solve

    def capture(problem, **kwargs):
        sol = real_solve(problem, **kwargs)
        seen.append((problem, sol))
        return sol

    monkeypatch.setattr(sdp, "solve", capture)
    return seen


def ring_marginal(model, n, window):
    """The n-site ring ground state's reduced state on `window` consecutive
    sites, averaged over the ring's translations, and its energy density."""
    ring = build_patch(model, PatchSpec(n, 1, "periodic"))
    vals, vecs = np.linalg.eigh(ring.toarray())
    return oracle_moment_matrix(vecs[:, 0], n, window), vals[0] / n


def row_residual(rho):
    """The largest |tr(rho row)| over the consistency rows of rho's window."""
    rows = coefficient_matrices(build_structure(rho.shape[0].bit_length() - 1))
    return np.abs(np.einsum("kij,ji->k", rows, rho)).max()


class TestObjective:
    # the objective block is the term on sites (0, 1): on the ring's 3-site
    # reduced state it gives the exact ring energy density
    @pytest.mark.parametrize("name, params", [("tfim", [1.0]), ("xxz", [0.5]),
                                              ("random_twosite", [3.0])],
                             ids=["tfim", "xxz", "random_twosite"])
    def test_ring_energy(self, monkeypatch, name, params):
        model = builtin_model(name, params)
        seen = captured_solve(monkeypatch)
        ti_moment_bound(model, 3)
        ((problem, _),) = seen
        rho, exact = ring_marginal(model, 4, 3)
        X = rho.real if model.is_real else rho  # tr(C X) = sum of C * conj(X)
        assert abs(np.sum(problem.C[0] * X.conj()).real - exact) < 1e-9

    def test_heisenberg_energy(self, monkeypatch, heisenberg):
        seen = captured_solve(monkeypatch)
        ti_moment_bound(heisenberg, 3)
        ((problem, _),) = seen
        rho, _ = ring_marginal(heisenberg, 4, 3)
        assert abs(np.sum(problem.C[0] * rho.real) - RING[4]) < 1e-9


class TestBound:
    def test_complex_l3_matches_the_marginal_bound(self):
        # a state on 3 sites whose 2-site marginals agree: moment l = 3 and
        # marginal (3, 1) are one relaxation, for a complex model too
        model = builtin_model("random_twosite", [3.0])
        moment = ti_moment_bound(model, 3).lower
        marginal = improved_anderson_bound(MarginalProblemSpec(model, 3, 1)).lower
        assert abs(moment - marginal) < 1e-9

    def test_heisenberg_l2_l3_monotone(self, heisenberg):
        r2 = ti_moment_bound(heisenberg, 2)
        r3 = ti_moment_bound(heisenberg, 3)
        assert r2.lower <= EMIN + 1e-7
        assert r3.lower <= EMIN + 1e-7
        assert r3.lower >= r2.lower - 1e-7

    def test_zz_product_exact(self, zz_model):
        r = ti_moment_bound(zz_model, 2)
        assert abs(r.lower + 1.0) < 1e-6

    def test_stalled_solve_is_accepted_at_the_defaults(self):
        # tfim(1) at l = 4 stalls short of the default 1e-9 tolerances (gap
        # 8.6e-10 but primal residual 2.1e-9 after 17 iterations, with one or
        # two BLAS threads); the certificate charges every residual, so the
        # stalled iterate still gives a bound
        model = builtin_model("tfim", [1.0])
        r = ti_moment_bound(model, 4)
        assert r.diagnostics["status"] in ("optimal", "max_iter")
        assert r.lower >= anderson_bound(model, 4).lower - 1e-8

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
        assert abs(r.lower + 1.5) < 1e-6
        gap[0] = 10 * sdp.QUALITY_TOL
        with pytest.raises(RuntimeError, match="moment SDP solve failed"):
            ti_moment_bound(heisenberg, 2)

    def test_report_fields(self, heisenberg):
        r = ti_moment_bound(heisenberg, 2)
        assert r.diagnostics["matrix_size"] == 16
        assert r.diagnostics["variables"] > 0
        assert (r.method, r.model, r.params) == ("moment", "heisenberg", {"l": 2})


class TestOracleMatrix:
    def test_maximally_mixed(self):
        # averaged over the computational basis states of a 4-site ring, the
        # oracle is the maximally mixed state, which satisfies every row
        dim = 2 ** 4
        rho = sum(oracle_moment_matrix(e, 4, 2) for e in np.eye(dim)) / dim
        np.testing.assert_allclose(rho, np.eye(4) / 4, rtol=0, atol=1e-12)
        assert row_residual(rho) < 1e-10

    def test_ring_ground_state_psd_and_dominates(self, heisenberg):
        H = as_csr(build_patch(heisenberg, PatchSpec(8, 1, "periodic")))
        vals, vecs = spla.eigsh(H.tocsc().astype(float), k=1, which="SA")
        psi = vecs[:, 0]
        for window in (2, 3):
            rho = oracle_moment_matrix(psi, 8, window)
            assert np.linalg.eigvalsh(rho)[0] > -1e-9
            assert row_residual(rho) < 1e-10
            h = np.kron(np.asarray(heisenberg.term), np.eye(2 ** (window - 2)))
            energy = np.trace(h @ rho).real
            assert abs(energy - vals[0] / 8) < 1e-9
            assert ti_moment_bound(heisenberg, window).lower <= energy + 1e-9

    def test_product_state_psd(self):
        rng = np.random.default_rng(1)
        single = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        single /= np.linalg.norm(single, axis=1, keepdims=True)
        psi = np.array([1.0])
        for s in single:
            psi = np.kron(psi, s)
        rho = oracle_moment_matrix(psi, 4, 2)
        assert np.linalg.eigvalsh(rho)[0] > -1e-10
        assert row_residual(rho) < 1e-10


def translate(rep, window, s):
    """Class rep's standard string shifted by s sites in an l-site window."""
    return PauliString(window, rep.x_mask << s, rep.z_mask << s, rep.phase_exp)


def density_matrix(structure, y):
    """rho(y) = sum_c y_c R_c, with R_0 = I / 2^l and R_c 2^-l times the sum
    of class c's translates that fit in the window."""
    window = structure.window
    rho = y[0] * np.eye(2 ** window, dtype=complex)
    for rep, yc in zip(structure.class_reps[1:], y[1:]):
        rho += yc * sum(string_to_dense(translate(rep, window, s))
                        for s in range(window - rep.width + 1))
    return rho / 2 ** window


class TestDensityMatrixLmi:
    @pytest.mark.parametrize("window", [2, 3])
    def test_spectral_identity(self, window):
        # X_ab = tr(rho(y) P_a P_b) over all 4^l strings is 2^l U^dag R_rho U:
        # spec X is 2^l spec rho, each repeated 2^l times
        st = build_structure(window)
        rng = np.random.default_rng(window)
        y = rng.standard_normal(st.n_variables)
        y[0] = 1.0
        rho = density_matrix(st, y)
        P = np.stack([string_to_dense(p) for p in all_strings(window)])
        X = np.einsum("ij,ajk,bki->ab", rho, P, P, optimize=True)
        got = np.linalg.eigvalsh(X)
        want = np.repeat(2 ** window * np.linalg.eigvalsh(rho), 2 ** window)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_reduced_state_satisfies_every_row(self, heisenberg):
        # the 8-site ring ground state's 3-site marginal is consistent
        ring = build_patch(heisenberg, PatchSpec(8, 1, "periodic"))
        vals, vecs = np.linalg.eigh(ring.toarray())
        psi = vecs[:, 0].reshape(8, 32)  # site 0 is the leftmost factor
        rho = psi @ psi.conj().T
        rows = coefficient_matrices(build_structure(3))
        assert len(rows) == 15
        np.testing.assert_allclose(np.einsum("kij,ji->k", rows, rho), 0.0,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("window", [2, 3, 4])
    def test_coefficients_are_the_translate_differences(self, window):
        # P_{c,s} - P_{c,0} against dense Kronecker products of each string
        st = build_structure(window)
        want = [string_to_dense(translate(rep, window, s))
                - string_to_dense(translate(rep, window, 0))
                for rep in st.class_reps[1:] for s in range(1, window - rep.width + 1)]
        np.testing.assert_array_equal(coefficient_matrices(st), np.stack(want))

    @pytest.mark.parametrize("window", [2, 3])
    def test_solves_one_block_of_rho(self, monkeypatch, heisenberg, window):
        # a real model on the real 2^l block, a complex one on a Hermitian 2^l block
        seen = captured_solve(monkeypatch)
        complex_model = builtin_model("random_twosite", [3.0])
        for model, block in ((heisenberg, 2 ** window), (complex_model, 2 ** window)):
            r = ti_moment_bound(model, window)
            problem, _ = seen.pop()
            assert problem.blocks == [block]
            assert r.diagnostics["psd_block"] == block
            assert r.diagnostics["matrix_size"] == 4 ** window

    @pytest.mark.parametrize("name", sorted(FROZEN_L3))
    def test_l3_bounds_frozen(self, name):
        params, ref = FROZEN_L3[name]
        r = ti_moment_bound(builtin_model(name, params), 3, gap_tol=1e-9)
        assert abs(r.lower - ref) <= 1e-9


class TestCertificate:
    def test_bound_is_the_dual_lower_bound(self, monkeypatch, heisenberg):
        seen = captured_solve(monkeypatch)
        r = ti_moment_bound(heisenberg, 3)
        ((problem, sol),) = seen
        assert r.lower == sdp.dual_lower_bound(problem, sol, trace_bounds=[1.0])
        sol.y = sol.y + 1e-6 * np.random.default_rng(0).standard_normal(sol.y.size)
        assert sdp.dual_lower_bound(problem, sol, trace_bounds=[1.0]) < r.lower


CLAIM_MODELS = {"heisenberg": [], "tfim": [1.0], "xxz": [0.5]}


@functools.cache
def hierarchy(name):
    """moment(l) for l = 2, 3, 4 at the CLI's gap_tol."""
    model = builtin_model(name, CLAIM_MODELS[name])
    return model, {window: ti_moment_bound(model, window, gap_tol=1e-9).lower
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
            assert bound >= anderson_bound(model, window).lower - 1e-8

    def test_heisenberg_below_exact_density(self):
        _, bounds = hierarchy("heisenberg")
        assert all(b <= EMIN for b in bounds.values())

    def test_heisenberg_at_l5(self):
        model, bounds = hierarchy("heisenberg")
        top = ti_moment_bound(model, 5, gap_tol=1e-9).lower
        assert top >= bounds[4] - 1e-8
        assert top >= anderson_bound(model, 5).lower - 1e-8
        assert top <= EMIN
