import json

import numpy as np
import pytest
import scipy.linalg

import certground as cg
from certground import sdp
from certground.marginal import (MarginalProblemSpec, boundary_sites,
                                 build_marginal_sdp, crossing_sites,
                                 improved_anderson_bound, partial_trace, site_basis,
                                 window_basis)
from certground.models import PatchSpec, build_patch, embed_on_sites, parse_model
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


def _qutrit_model():
    # a real d = 3 dense term
    b = np.random.default_rng(7).standard_normal((9, 9))
    term = (b + b.T) / 2
    return parse_model(json.dumps({
        "name": "qutrit", "d": 3, "D": 1,
        "term": {"dense": [[float(x), 0.0] for x in term.ravel()]}}))


def _rows_by_window(spec):
    """The rows of a consecutive-mode problem as embed_on_sites differences:
    every window product but the identity on window 1, then on each later
    window the products whose last factor is not the identity."""
    d, m, w = spec.model.d, spec.m, 2 * spec.s
    basis, ends_in_identity = window_basis(d, w, spec.model.is_real)
    expect = []
    for k in range(1, m - w + 1):
        ops = basis[1:] if k == 1 else basis[~ends_in_identity]
        for B in ops:
            diff = (embed_on_sites(B, range(k, k + w), m, d)
                    - embed_on_sites(B, range(w), m, d)).toarray()
            expect.append(diff.real if spec.model.is_real else sdp.real_embed(diff) / 2.0)
    return expect


class TestBuildSdp:
    def test_constraint_count_real(self, heisenberg):
        # 1 trace + 9 symmetric products on the second window (all 10 but the
        # identity) + 7 on the third (those not ending in the identity)
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        assert prob.n_constraints == 17
        assert prob.blocks == [16]

    def test_constraint_count_complex(self):
        model = cg.builtin_model("random_twosite", [3.0])
        prob = build_marginal_sdp(
            MarginalProblemSpec(model, 4, 1, "consecutive", "middle"))
        assert prob.n_constraints == 28  # 1 trace + 15 + 12
        assert prob.blocks == [32]   # real-embedded

    def test_constraint_rows_real(self, heisenberg):
        # each row equates the marginals on a later and the first window along
        # one product of the window basis; the objective charges the crossing
        # bond to the first window
        spec = MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle")
        prob = build_marginal_sdp(spec)
        expect = _rows_by_window(spec)
        assert prob.n_constraints == 1 + len(expect)
        for row, ref in zip(prob.A[0][1:], expect):
            np.testing.assert_array_equal(row, ref)
        np.testing.assert_array_equal(prob.A[0][0], np.eye(16))
        np.testing.assert_array_equal(prob.b, [1.0] + [0.0] * 16)
        h = np.asarray(heisenberg.term).real
        h4 = build_patch(heisenberg, PatchSpec(4, 1, "open")).toarray().real
        np.testing.assert_array_equal(
            prob.C[0], h4 + embed_on_sites(h, [0, 1], 4).toarray())

    def test_constraint_rows_complex(self):
        spec = MarginalProblemSpec(cg.builtin_model("random_twosite", [3.0]), 4, 1)
        prob = build_marginal_sdp(spec)
        expect = _rows_by_window(spec)
        assert prob.n_constraints == 1 + len(expect)
        for row, ref in zip(prob.A[0][1:], expect):
            np.testing.assert_array_equal(row, ref)
        np.testing.assert_array_equal(prob.A[0][0], np.eye(32) / 2.0)

    def test_kronecker_rows_match_site_embedding(self, heisenberg):
        # the builder lifts each product as I (x) B (x) I, entry by entry; the
        # sparse site embedding gives the same bits
        spec = MarginalProblemSpec(heisenberg, 5, 2, "consecutive", "middle")
        prob = build_marginal_sdp(spec)
        expect = _rows_by_window(spec)
        assert prob.n_constraints == 1 + len(expect) == 136
        for row, ref in zip(prob.A[0][1:], expect):
            assert row.tobytes() == ref.tobytes()

    def test_window_basis_is_kronecker_products(self):
        for d, real in ((2, True), (2, False), (3, True)):
            one, odd = site_basis(d, real)
            basis, ends_in_identity = window_basis(d, 2, real)
            pairs = [(a, b) for a in range(d * d) for b in range(d * d)
                     if not (real and odd[a] != odd[b])]
            assert len(basis) == len(pairs)
            for B, last, (a, b) in zip(basis, ends_in_identity, pairs):
                np.testing.assert_array_equal(B, np.kron(one[a], one[b]))
                assert last == (b == 0)

    @pytest.mark.parametrize("d, real", [(2, True), (2, False), (3, True), (3, False)])
    def test_site_basis(self, d, real):
        one, odd = site_basis(d, real)
        assert one.shape == (d * d, d, d)
        np.testing.assert_allclose(one[0] * np.sqrt(d), np.eye(d), atol=1e-15)
        gram = np.einsum("aij,bij->ab", one.conj(), one)
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-15)
        # d diagonal elements and one symmetric plus one masked element per pair
        assert odd.sum() == d * (d - 1) // 2
        for B, flag in zip(one, odd):
            if real:
                assert B.dtype == float
                np.testing.assert_array_equal(B.T, -B if flag else B)
            else:
                np.testing.assert_array_equal(B.conj().T, B)
                assert np.any(B.imag) == flag

    @pytest.mark.parametrize("model", ["heisenberg", "random_twosite", "qutrit"])
    @pytest.mark.parametrize("mode", ["consecutive", "wrap"])
    def test_full_row_rank(self, heisenberg, model, mode):
        # the rows are independent by construction, so the solver never has
        # to prune; every m <= 7 whose constraint tensor stays small is checked
        model = {"heisenberg": heisenberg, "qutrit": _qutrit_model(),
                 "random_twosite": cg.builtin_model("random_twosite", [3.0])}[model]
        d, checked = model.d, 0
        for m in range(2, 8):
            n = d ** m if model.is_real else 2 * d ** m
            for s in range(1, m // 2 + 1):
                if (1 + (m - 2 * s) * d ** (4 * s)) * n * n * 8 > 128e6:
                    continue
                prob = build_marginal_sdp(MarginalProblemSpec(model, m, s, mode, "middle"))
                K = prob.A[0].reshape(prob.n_constraints, -1)
                gram = np.linalg.eigvalsh(K @ K.T)
                assert gram[0] > 1e-8 * gram[-1], (m, s)
                checked += 1
        assert checked >= 5

    def test_window_marginals_agree(self, heisenberg):
        # the solved omega has one marginal on all three 2-site windows
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        omega = sdp.solve(prob).X[0]
        first = partial_trace(omega, [0, 1])
        for win in ([1, 2], [2, 3]):
            np.testing.assert_allclose(partial_trace(omega, win), first, atol=1e-7)

    def test_validate_certificate_matches_solver(self, heisenberg):
        # the solver and the certificate check share one residual evaluator
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        sol = sdp.solve(prob)
        report = sdp.validate_certificate(prob, sol)
        for key in ("primal_obj", "dual_obj", "gap", "feas_primal", "feas_dual"):
            assert report[key] == getattr(sol, key), key
        assert report["all_clear"]

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


class TestSolverPath:
    @pytest.fixture
    def no_scipy_linalg(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg inside the solve")

        for name in ("cho_factor", "cho_solve", "qr"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", forbidden)

    @pytest.mark.parametrize("model, params, m, s", [
        ("heisenberg", [], 5, 2), ("heisenberg", [], 6, 1),
        ("random_twosite", [3.0], 4, 1), ("random_twosite", [3.0], 4, 2)])
    def test_full_rank_solves_on_numpy_alone(self, no_scipy_linalg, model, params, m, s):
        # every factorization and inverse of the iteration goes through
        # numpy.linalg, and with independent rows nothing is pruned
        prob = build_marginal_sdp(MarginalProblemSpec(cg.builtin_model(model, params), m, s))
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert "pruned_constraints" not in sol.diagnostics

    def test_m7_s2_reaches_optimal(self, heisenberg):
        # the (7, 2) solve used to stall at a primal residual of about 2e-9
        res = improved_anderson_bound(MarginalProblemSpec(heisenberg, 7, 2))
        assert res.diagnostics["status"] == "optimal"
        assert res.diagnostics["stalled"] is False
        assert res.diagnostics["pruned_constraints"] == 0
        assert abs(res.density_bound - (-0.91277335224)) < 1e-9


class TestOracle:
    def test_ring4(self, heisenberg):
        assert abs(ring_reference(heisenberg, 4) + 1.0) < 1e-10

    def test_ring2(self, heisenberg):
        assert abs(ring_reference(heisenberg, 2) + 1.5) < 1e-10

    def test_zero_model(self, zero_model):
        assert abs(ring_reference(zero_model, 4)) < 1e-12
