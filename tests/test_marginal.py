import numpy as np
import pytest

import certground as cg
from certground import sdp
from certground.marginal import (MarginalProblemSpec, boundary_sites,
                                 build_marginal_sdp, crossing_sites, hermitian_basis,
                                 improved_anderson_bound, partial_trace)
from certground.models import PatchSpec, build_patch, embed_on_sites
from certground.upper import ring_reference
from tests.conftest import CHAIN, EMIN, RING


class TestPartialTrace:
    def test_product_state(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(partial_trace(rho, (1,)),
                                   np.diag([0.0, 1.0]), atol=1e-14)

    def test_keep_all(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((8, 8))
        rho = b @ b.T
        np.testing.assert_allclose(partial_trace(rho, (0, 1, 2)), rho, atol=1e-12)

    def test_bell_marginal(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = np.outer(v, v)
        np.testing.assert_allclose(partial_trace(rho, (0,)),
                                   np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = b @ b.conj().T
        assert abs(np.trace(partial_trace(rho, (1, 3))) - np.trace(rho)) < 1e-10


class TestGeometry:
    def test_boundary_sites(self):
        assert boundary_sites(5, 1) == [4, 0]
        assert boundary_sites(6, 2) == [4, 5, 0, 1]

    def test_crossing_sites(self):
        assert crossing_sites(2, "middle") == (1, 2)
        assert crossing_sites(2, "literal_last") == (2, 3)

    def test_spec_validation(self, heisenberg):
        with pytest.raises(ValueError):
            MarginalProblemSpec(heisenberg, 3, 2, "consecutive", "middle")
        with pytest.raises(ValueError):
            MarginalProblemSpec(heisenberg, 4, 1, "nope", "middle")


class TestBuildSdp:
    def test_constraint_count_real(self, heisenberg):
        # 2 later windows x 10 symmetric basis elements + 1 trace (the real-
        # symmetric restriction uses the 10-element symmetric basis on two
        # qubits, not the full 16-element Hermitian one)
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        assert prob.n_constraints == 21
        assert prob.blocks == [16]

    def test_constraint_count_complex(self):
        model = cg.builtin_model("random_twosite", [3.0])
        prob = build_marginal_sdp(
            MarginalProblemSpec(model, 4, 1, "consecutive", "middle"))
        assert prob.n_constraints == 33  # 2 later windows x 16 + 1 trace
        assert prob.blocks == [32]   # real-embedded

    def test_constraint_rows_real(self, heisenberg):
        # row 1 + j equates the marginals on the second and the first window
        # along basis element j; the objective charges the crossing bond to
        # the first window
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        basis = hermitian_basis(4, True)
        for j, B in enumerate(basis):
            np.testing.assert_array_equal(
                prob.A[0][1 + j], (embed_on_sites(B, [1, 2], 4)
                                   - embed_on_sites(B, [0, 1], 4)).toarray())
        np.testing.assert_array_equal(prob.A[0][0], np.eye(16))
        np.testing.assert_array_equal(prob.b, [1.0] + [0.0] * 20)
        h = np.asarray(heisenberg.term).real
        h4 = build_patch(heisenberg, PatchSpec(4, 1, "open")).toarray().real
        np.testing.assert_array_equal(
            prob.C[0], h4 + embed_on_sites(h, [0, 1], 4).toarray())

    def test_kronecker_rows_match_site_embedding(self, heisenberg):
        # the rows lift B as I (x) B (x) I; the sparse site embedding gives the
        # same bits
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 5, 2, "consecutive", "middle"))
        basis = hermitian_basis(16, True)
        assert prob.n_constraints == 1 + len(basis)
        for j, B in enumerate(basis):
            row = (embed_on_sites(B, [1, 2, 3, 4], 5)
                   - embed_on_sites(B, [0, 1, 2, 3], 5)).toarray()
            assert prob.A[0][1 + j].tobytes() == row.tobytes()

    def test_window_marginals_agree(self, heisenberg):
        # the solved omega has one marginal on all three 2-site windows
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        omega = sdp.solve(prob).X[0]
        first = partial_trace(omega, [0, 1])
        for win in ([1, 2], [2, 3]):
            np.testing.assert_allclose(partial_trace(omega, win), first, atol=1e-7)

    def test_validate_certificate_matches_solver(self, heisenberg):
        # the solver and the certificate check share one residual evaluator,
        # also after the solver pruned dependent constraints and restarted
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        sol = sdp.solve(prob)
        report = sdp.validate_certificate(prob, sol)
        for key in ("primal_obj", "dual_obj", "gap", "feas_primal", "feas_dual"):
            assert report[key] == getattr(sol, key), key
        assert report["all_clear"]

    def test_hermitian_basis_sizes(self):
        assert len(hermitian_basis(4, True)) == 10
        assert len(hermitian_basis(4, False)) == 16

    def test_wrap_m2_reduction(self, heisenberg):
        # m = 2, s = 1 wrap: sigma is omega with swapped factors, so the
        # problem is min tr(omega [h + swap h swap]) over states
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, 2, 1, "wrap", "middle"))
        h = np.asarray(heisenberg.term).real
        swap = np.eye(4)[[0, 2, 1, 3]]
        expect = np.linalg.eigvalsh(h + swap @ h @ swap)[0]
        assert abs(res.z - expect) < 1e-7


class TestBounds:
    def test_m3_s1_bracket(self, heisenberg):
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, 3, 1, "consecutive", "middle"))
        low = (CHAIN[3] - 1.5) / 3.0
        assert low - 1e-7 <= res.density_bound <= EMIN + 1e-7

    def test_single_window_is_min_eig(self, heisenberg):
        # 2s = m and wrap mode have one window: only the trace row is left,
        # so the bound is the smallest eigenvalue of the objective
        for spec in (MarginalProblemSpec(heisenberg, 4, 2, "consecutive", "middle"),
                     MarginalProblemSpec(heisenberg, 5, 1, "wrap", "middle")):
            prob = build_marginal_sdp(spec)
            assert prob.n_constraints == 1
            res = improved_anderson_bound(spec)
            assert abs(res.z - np.linalg.eigvalsh(prob.C[0])[0]) < 1e-7

    @pytest.mark.parametrize("m, s, density", [
        (4, 1, -1.0), (4, 2, -1.0),
        (5, 1, RING[6]), (5, 2, RING[6]), (6, 1, RING[6])])
    def test_frozen_consecutive_densities(self, heisenberg, m, s, density):
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, m, s, "consecutive", "middle"))
        assert abs(res.density_bound - density) < 1e-8

    def test_wrap_sigma_elimination_m2(self, heisenberg):
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, 2, 1, "wrap", "middle"))
        assert abs(res.z + 3.0) < 1e-6
        assert abs(res.density_bound + 1.5) < 1e-6

    def test_wrap_matches_ring(self, heisenberg):
        for m in (3, 4, 5):
            res = improved_anderson_bound(
                MarginalProblemSpec(heisenberg, m, 1, "wrap", "middle"))
            assert abs(res.density_bound - RING[m]) < 1e-6

    def test_complex_model_bound(self):
        model = cg.builtin_model("random_twosite", [3.0])
        res = improved_anderson_bound(
            MarginalProblemSpec(model, 4, 1, "consecutive", "middle"))
        # valid lower bound: must sit below any small ring density
        assert res.density_bound <= ring_reference(model, 6) + 1e-7


class TestOracle:
    def test_ring4(self, heisenberg):
        assert abs(ring_reference(heisenberg, 4) + 1.0) < 1e-10

    def test_ring2(self, heisenberg):
        assert abs(ring_reference(heisenberg, 2) + 1.5) < 1e-10

    def test_zero_model(self, zero_model):
        assert abs(ring_reference(zero_model, 4)) < 1e-12
