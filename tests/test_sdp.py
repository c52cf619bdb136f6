import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from certground import builtin_model, sdp
from certground.marginal import MarginalProblemSpec, build_marginal_sdp
from certground.sdp import SdpProblem, SdpSolution, dual_lower_bound, real_embed, solve


def lambda_min_problem(h):
    n = h.shape[0]
    return SdpProblem([n], [h], [np.eye(n)[None, :, :]], np.array([1.0]))


class TestSolve:
    def test_diagonal(self):
        sol = solve(lambda_min_problem(np.diag([1.0, -1.0])))
        assert sol.status == "optimal"
        assert abs(sol.primal_obj + 1.0) < 1e-8

    def test_random_6x6(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((6, 6))
        h = (b + b.T) / 2
        sol = solve(lambda_min_problem(h))
        assert sol.status == "optimal"
        assert abs(sol.primal_obj - np.linalg.eigvalsh(h)[0]) < 1e-8

    def test_feasibility_case(self):
        # tr(X) = 1 plus a fixed off-diagonal entry on a 2x2 block; 0.4 is
        # attainable (a PSD trace-one 2x2 matrix has |X_12| <= 1/2)
        E = np.array([[0.0, 0.5], [0.5, 0.0]])
        prob = SdpProblem([2], [np.zeros((2, 2))],
                          [np.stack([np.eye(2), E])], np.array([1.0, 0.4]))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert abs(np.trace(sol.X[0]) - 1.0) < 1e-7
        assert abs(sol.X[0][0, 1] - 0.4) < 1e-7

    def test_off_diagonal_beyond_half_infeasible(self):
        # |X_12| <= 1/2 for any PSD trace-one 2x2 block, so 0.6 must be
        # reported infeasible rather than "solved"
        E = np.array([[0.0, 0.5], [0.5, 0.0]])
        prob = SdpProblem([2], [np.zeros((2, 2))],
                          [np.stack([np.eye(2), E])], np.array([1.0, 0.6]))
        sol = solve(prob)
        assert sol.status != "optimal"

    def test_block_additivity(self):
        rng = np.random.default_rng(1)
        h1 = rng.standard_normal((4, 4))
        h1 = (h1 + h1.T) / 2
        h2 = rng.standard_normal((3, 3))
        h2 = (h2 + h2.T) / 2
        # separate trace constraints per block: optimum is the sum of minima
        prob = SdpProblem(
            [4, 3], [h1, h2],
            [np.stack([np.eye(4), np.zeros((4, 4))]),
             np.stack([np.zeros((3, 3)), np.eye(3)])],
            np.array([1.0, 1.0]))
        sol = solve(prob)
        expect = np.linalg.eigvalsh(h1)[0] + np.linalg.eigvalsh(h2)[0]
        assert abs(sol.primal_obj - expect) < 1e-7

    def test_weak_duality(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            b = np.random.default_rng(seed).standard_normal((7, 7))
            h = (b + b.T) / 2
            sol = solve(lambda_min_problem(h))
            assert sol.dual_obj <= sol.primal_obj + 1e-9

    def test_redundant_consistent_constraints(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((4, 4))
        h = (b + b.T) / 2
        # duplicate the trace constraint; the system stays consistent
        prob = SdpProblem([4], [h],
                          [np.stack([np.eye(4), np.eye(4)])],
                          np.array([1.0, 1.0]))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.primal_obj - np.linalg.eigvalsh(h)[0]) < 1e-7


def random_psd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + 0.1 * np.eye(n)


def random_symmetric(rng, *shape):
    b = rng.standard_normal(shape)
    return (b + np.swapaxes(b, -1, -2)) / 2


class TestIndependentRows:
    def test_dependent_row_before_an_independent_one(self):
        # a row that depends on earlier ones must not hide a later row that
        # does not: a maximal independent subset spans every row
        rng = np.random.default_rng(3)
        a, b, c = (x + x.T for x in rng.standard_normal((3, 4, 4)))
        rows = np.stack([a, 2 * a, a - b, b, c, a + c])
        keep = sdp._independent_rows([rows], len(rows))
        assert len(keep) == 3
        K = rows.reshape(len(rows), -1)
        assert np.linalg.matrix_rank(K[keep]) == np.linalg.matrix_rank(K) == 3

    def test_independent_rows_are_all_kept(self):
        rows = np.eye(4).reshape(4, 2, 2)
        np.testing.assert_array_equal(sdp._independent_rows([rows], 4), np.arange(4))


class TestFactoredKernels:
    def test_gram_schur_matches_trace_formula(self):
        rng = np.random.default_rng(9)
        m, blocks = 5, (4, 3)
        A = [random_symmetric(rng, m, n, n) for n in blocks]
        X = [random_psd(rng, n) for n in blocks]
        S = [random_psd(rng, n) for n in blocks]
        M = sdp._schur(A, [np.linalg.cholesky(x) for x in X],
                       [sdp._tri_inv(np.linalg.cholesky(s)) for s in S])
        expect = sum(np.einsum("iab,bc,jcd,da->ij", a, x, a, np.linalg.inv(s))
                     for a, x, s in zip(A, X, S))
        np.testing.assert_allclose(M, expect, rtol=1e-10, atol=1e-10)

    def test_factored_step_matches_generalized_eigenvalue(self):
        rng = np.random.default_rng(10)
        for n in (1, 4, 9):
            X = random_psd(rng, n)
            D = random_symmetric(rng, n, n) - 2 * np.eye(n)
            lam = scipy.linalg.eigh(D, X, eigvals_only=True)[0]
            assert lam < 0
            step = sdp._max_step(sdp._tri_inv(np.linalg.cholesky(X)), D)
            assert abs(step - (-1.0 / lam)) <= 1e-10 * step
            assert sdp._max_step(sdp._tri_inv(np.linalg.cholesky(X)), D @ D.T) == np.inf

    def test_singular_x_takes_ridge_fallback(self):
        v = np.arange(1.0, 5.0)
        X = np.outer(v, v)                   # rank one, not positive definite
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(X)
        L = sdp._psd_factor(X)
        Linv = sdp._tri_inv(L)
        assert np.all(np.isfinite(Linv))
        np.testing.assert_allclose(L @ L.T, X + 1e-12 * np.trace(X) * np.eye(4),
                                   rtol=0, atol=1e-12)

    def test_one_factorization_per_block_per_iterate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("triangular solve on a block")

        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        h = random_symmetric(np.random.default_rng(11), 6, 6)
        sol = solve(SdpProblem([6, 3], [h, np.eye(3)],
                               [np.stack([np.eye(6)]), np.stack([np.eye(3)])],
                               np.array([1.0])))
        assert sol.status == "optimal"
        assert "schur_fallback" not in sol.diagnostics
        # the last iteration only checks convergence; X and S are factored
        # once per block, the 1 x 1 Schur complement once
        iterates = sol.iterations - 1
        assert calls.count((6, 6)) == calls.count((3, 3)) == 2 * iterates
        assert calls.count((1, 1)) == iterates
        assert len(calls) == 5 * iterates

    def test_solve_peak_memory_below_three_constraint_tensors(self):
        # a complex model's 32 block with 28 independent rows: A is large
        # enough that fixed overhead does not dominate, and nothing restarts
        problem = build_marginal_sdp(
            MarginalProblemSpec(builtin_model("random_twosite", [3.0]), 4, 1))
        assert problem.A[0].nbytes >= 98_000
        tracemalloc.start()
        try:
            sol = solve(problem, gap_tol=1e-10, feas_tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal"
        assert "pruned_constraints" not in sol.diagnostics
        assert peak < 3 * problem.A[0].nbytes


class TestRealEmbed:
    def test_real_input(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        e = real_embed(h)
        np.testing.assert_allclose(e[:2, :2], h)
        np.testing.assert_allclose(e[2:, 2:], h)
        np.testing.assert_allclose(e[:2, 2:], 0.0)

    def test_pauli_y(self):
        h = np.array([[0.0, -1j], [1j, 0.0]])
        e = real_embed(h)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(e)),
                                   [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_psd_equivalence(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (b + b.conj().T) / 2
        np.testing.assert_allclose(
            np.linalg.eigvalsh(real_embed(h)),
            np.repeat(np.linalg.eigvalsh(h), 2), atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            real_embed(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestCertificate:
    def test_bound_is_tight_at_the_optimum(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((5, 5))
        h = (b + b.T) / 2
        prob = lambda_min_problem(h)
        sol = solve(prob)
        lam = np.linalg.eigvalsh(h)[0]
        z = dual_lower_bound(prob, sol, trace_bounds=(1.0,))
        assert lam - 1e-8 <= z <= lam

    def test_bound_reads_only_the_dual_vector(self):
        # (C, A, b, y) alone: perturbing X or S moves no bit of the bound
        rng = np.random.default_rng(6)
        b = rng.standard_normal((5, 5))
        h = (b + b.T) / 2
        prob = lambda_min_problem(h)
        sol = solve(prob)
        z = dual_lower_bound(prob, sol, trace_bounds=(1.0,))
        sol.X[0][0, 0] += 1e-3
        sol.S[0] = -sol.S[0]
        assert dual_lower_bound(prob, sol, trace_bounds=(1.0,)) == z

    def test_flipped_y_falls_below_the_optimum(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((5, 5))
        h = (b + b.T) / 2
        prob = lambda_min_problem(h)
        sol = solve(prob)
        sol.y = -sol.y
        # b^T y = -lambda_min lies above the optimum; C - A^T y = h + lambda_min I
        # has lambda_min 2 lambda_min < 0, charged at trace 1, which brings the
        # bound back below lambda_min
        lam = np.linalg.eigvalsh(h)[0]
        assert lam < 0 and float(prob.b @ sol.y) > lam
        z = dual_lower_bound(prob, sol, trace_bounds=(1.0,))
        assert lam - 1e-8 <= z <= lam

    def test_feas_dual_is_normalized_by_the_data_scale(self):
        # the dual residual is divided by the largest |C| or |A| entry; one
        # iteration returns the starting point, whose dual residual C - S is
        # nonzero by construction
        b = np.random.default_rng(8).standard_normal((5, 5))
        h = (b + b.T) / 2
        prob = SdpProblem([5], [h], [1e3 * np.eye(5)[None, :, :]], np.array([1e3]))
        sol = solve(prob, max_iter=1)
        resid = h - sol.S[0] - sol.y[0] * 1e3 * np.eye(5)
        assert sol.feas_dual > 0
        assert sol.feas_dual == float(np.max(np.abs(resid))) / 1e3

    def test_dual_lower_bound_is_lower(self):
        for seed in range(10):
            b = np.random.default_rng(seed).standard_normal((6, 6))
            h = (b + b.T) / 2
            prob = lambda_min_problem(h)
            sol = solve(prob)
            z = dual_lower_bound(prob, sol, trace_bounds=(1.0,))
            assert z <= np.linalg.eigvalsh(h)[0] + 1e-12

    def test_dual_lower_bound_has_rounding_margin(self):
        # C = diag(1, 2), y = 1: C - y I = diag(0, 1) is exactly singular and
        # b^T y = 1 is exact, yet the Cholesky proof of the singular block
        # and the rounding bounds on b^T y and C - A^T y cost a strictly
        # positive margin
        prob = lambda_min_problem(np.diag([1.0, 2.0]))
        sol = SdpSolution(status="optimal", X=[np.diag([1.0, 0.0])], y=np.array([1.0]),
                          S=[np.diag([0.0, 1.0])], primal_obj=1.0, dual_obj=1.0,
                          gap=0.0, feas_primal=0.0, feas_dual=0.0, iterations=0)
        z = dual_lower_bound(prob, sol, trace_bounds=(1.0,))
        assert z < sol.dual_obj
        assert sol.dual_obj - z < 1e-14

    def test_rounding_in_b_y_is_charged(self):
        # X = diag(1, 0) is exactly feasible with objective -4, while b^T y
        # cancels from 1e12 down to about -4 and rounds above it
        C = np.diag([-4.0, 1.0])
        A = np.stack([np.diag([1.0, 1.0]), np.diag([3.0, 3.0]), np.diag([-2.0, -4.0])])
        b = np.array([1.0, 3.0, -2.0])
        y = np.array([float.fromhex("-0x1.786fe9766135cp+40"),
                      float.fromhex("0x1.083d1ff30d4fbp+39"),
                      float.fromhex("0x1.3ebc67636c1c1p+35")])
        X = np.diag([1.0, 0.0])
        assert np.array_equal(np.tensordot(A, X, axes=((1, 2), (0, 1))), b)
        prob = SdpProblem([2], [C], [A], b)
        sol = SdpSolution(status="optimal", X=[X], y=y, S=[C - np.tensordot(y, A, axes=1)],
                          primal_obj=-4.0, dual_obj=float(b @ y), gap=0.0,
                          feas_primal=0.0, feas_dual=0.0, iterations=0)
        assert dual_lower_bound(prob, sol, trace_bounds=(1.0,)) <= -4.0

    def test_negative_part_below_eigvalsh_rounding_is_charged(self):
        # C = Q diag(-1e-14, 1, ..., 1) Q^T: at y = 0 the whole bound is the
        # negative part of C, about the size of eigvalsh's rounding
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((6, 6)))
        c = (q * np.array([-1e-14, 1, 1, 1, 1, 1])) @ q.T
        c = (c + c.T) / 2
        prob = lambda_min_problem(c)
        sol = SdpSolution(status="max_iter", X=[np.eye(6) / 6], y=np.zeros(1), S=[c],
                          primal_obj=0.0, dual_obj=0.0, gap=0.0, feas_primal=0.0,
                          feas_dual=0.0, iterations=0)
        z = dual_lower_bound(prob, sol, trace_bounds=(1.0,))
        assert -1e-13 < z < min(-1e-14, np.linalg.eigvalsh(c)[0])

    def test_each_block_charges_its_trace_bound(self):
        # tr X_1 + tr X_2 = 1 with C_1 = diag(1, 2), C_2 = -1; at y = 0 only
        # C_2 is negative, so the bound is about -tb_2
        prob = SdpProblem([2, 1], [np.diag([1.0, 2.0]), np.array([[-1.0]])],
                          [np.eye(2)[None], np.ones((1, 1, 1))], np.array([1.0]))
        sol = SdpSolution(status="max_iter", X=[np.eye(2) / 4, np.full((1, 1), 0.5)],
                          y=np.zeros(1), S=prob.C, primal_obj=0.25, dual_obj=0.0,
                          gap=0.0, feas_primal=0.0, feas_dual=0.0, iterations=0)
        for tb, expect in (((1.0, 1.0), -1.0), ((1.0, 3.0), -3.0), ((5.0, 1.0), -1.0)):
            z = dual_lower_bound(prob, sol, trace_bounds=tb)
            assert expect - 1e-14 < z < expect


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SdpProblem([2], [np.zeros((3, 3))],
                       [np.zeros((1, 2, 2))], np.array([1.0]))

    def test_asymmetric_constraint(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            SdpProblem([2], [np.zeros((2, 2))], [bad], np.array([1.0]))

    def test_check_allocates_under_a_quarter_of_a(self):
        rng = np.random.default_rng(12)
        n, m = 24, 64
        C = random_symmetric(rng, n, n)
        A = random_symmetric(rng, m, n, n)
        b = np.ones(m)
        tracemalloc.start()
        try:
            SdpProblem([n], [C], [A], b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 4
        A[m // 2, 0, 1] += 1e-6  # one non-symmetric row among symmetric ones
        with pytest.raises(ValueError, match="constraint block is not symmetric"):
            SdpProblem([n], [C], [A], b)
