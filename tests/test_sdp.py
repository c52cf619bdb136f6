import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from certground import builtin_model, eigensolver, sdp
from certground.marginal import MarginalProblemSpec, build_marginal_sdp, improved_anderson_bound
from certground.moment import ti_moment_bound
from certground.sdp import SdpProblem, SdpSolution, dual_lower_bound, real_embed, solve
from tests.test_moment import captured_solve


def lambda_min_problem(h):
    n = h.shape[0]
    return SdpProblem([n], [h], [np.eye(n)[None, :, :]], np.array([1.0]))


@pytest.fixture
def no_scipy_linalg(monkeypatch):
    """Fail on any use of scipy.linalg by the eigensolver, the certificate's
    factorization included."""
    def forbidden():
        raise AssertionError("scipy.linalg inside the certificate")

    monkeypatch.setattr(eigensolver, "_scipy_linalg", forbidden)


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
            # a zero direction: no step bound and no division warning
            assert sdp._max_step(sdp._tri_inv(np.linalg.cholesky(X)), 0 * D) == np.inf

    def test_stacked_inverse_and_step_equal_single_calls(self):
        rng = np.random.default_rng(12)
        for n in (1, 4, 9):
            L = np.stack([np.linalg.cholesky(random_psd(rng, n)) for _ in range(2)])
            Linv = sdp._tri_inv(L)
            for k in range(2):
                np.testing.assert_array_equal(Linv[k], sdp._tri_inv(L[k]))
            # the second direction is PSD, so its step is unbounded
            D = np.stack([random_symmetric(rng, n, n) - 2 * np.eye(n),
                          random_psd(rng, n)])
            steps = sdp._max_step(Linv, D)
            assert steps.shape == (2,) and steps[1] == np.inf
            for k in range(2):
                assert steps[k] == sdp._max_step(Linv[k], D[k])

    def test_gemv_adjoint_equals_tensordot(self):
        rng = np.random.default_rng(13)
        for m, n in ((1, 1), (7, 5), (40, 12)):
            a, y = rng.standard_normal((m, n, n)), rng.standard_normal(m)
            np.testing.assert_array_equal(sdp._op_At([a], y)[0],
                                          np.tensordot(y, a, axes=1))

    def test_batched_schur_equals_row_loop(self, monkeypatch):
        rng = np.random.default_rng(14)
        m, blocks = 23, (1, 5, 8)
        A = [random_symmetric(rng, m, n, n) for n in blocks]
        LX = [np.linalg.cholesky(random_psd(rng, n)) for n in blocks]
        LinvS = [sdp._tri_inv(np.linalg.cholesky(random_psd(rng, n))) for n in blocks]
        expect = np.zeros((m, m))
        for a, lx, lsi in zip(A, LX, LinvS):
            n = lx.shape[0]
            P = (a.reshape(m * n, n) @ lx).reshape(m, n, n)
            for i in range(m):
                P[i] = lsi @ P[i]
            P = P.reshape(m, n * n)
            expect += P @ P.T
        # 5 rows of the 8 block per batch: a short last batch
        monkeypatch.setattr(sdp, "_SCHUR_BATCH_BYTES", 5 * 8 * 8 * 8)
        np.testing.assert_array_equal(sdp._schur(A, LX, LinvS), expect)
        monkeypatch.undo()
        np.testing.assert_array_equal(sdp._schur(A, LX, LinvS), expect)

    def test_schur_temporary_is_one_batch_beside_p(self, monkeypatch):
        rng = np.random.default_rng(15)
        m, n = 200, 24
        a = random_symmetric(rng, m, n, n)
        lx = np.linalg.cholesky(random_psd(rng, n))
        lsi = sdp._tri_inv(np.linalg.cholesky(random_psd(rng, n)))
        batch = 64 * 1024
        monkeypatch.setattr(sdp, "_SCHUR_BATCH_BYTES", batch)
        assert a.nbytes > 10 * batch          # many batches
        tracemalloc.start()
        try:
            sdp._schur([a], [lx], [lsi])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # P, one batch, M and the P P^T product, with a little slack
        assert peak <= a.nbytes + batch + 2 * m * m * 8 + 16 * 1024

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
        # the last iteration only checks convergence; a block's (X, S) pair is
        # factored by one stacked call, the 1 x 1 Schur complement once
        iterates = sol.iterations - 1
        assert calls.count((2, 6, 6)) == calls.count((2, 3, 3)) == iterates
        assert calls.count((1, 1)) == iterates
        assert len(calls) == 3 * iterates

    def test_one_inverse_and_one_step_search_per_block_pair(self, monkeypatch):
        inverted, searched = [], []
        inv, eigvalsh = np.linalg.inv, np.linalg.eigvalsh

        def counted_inv(a):
            inverted.append(a.shape)
            return inv(a)

        def counted_eigvalsh(a, *args, **kwargs):
            searched.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counted_inv)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        h = random_symmetric(np.random.default_rng(11), 6, 6)
        sol = solve(SdpProblem([6, 3], [h, np.eye(3)],
                               [np.stack([np.eye(6)]), np.stack([np.eye(3)])],
                               np.array([1.0])))
        assert sol.status == "optimal"
        iterates = sol.iterations - 1
        # X and S factors of a block in one inverse, M's factor in another
        assert sorted(set(inverted)) == [(1, 1), (2, 3, 3), (2, 6, 6)]
        assert inverted.count((2, 6, 6)) == inverted.count((2, 3, 3)) == iterates
        assert len(inverted) == 3 * iterates
        # predictor and corrector: primal and dual step of a block together
        assert sorted(set(searched)) == [(2, 3, 3), (2, 6, 6)]
        assert searched.count((2, 6, 6)) == searched.count((2, 3, 3)) == 2 * iterates

    def test_x_factorization_failure_returns_best_iterate(self, monkeypatch):
        factor = sdp._factor_pairs
        calls = []

        def failing_after_three(Z):
            # from the fourth iterate on, X is negative definite: the stacked
            # call fails, S factors alone and X fails even with the ridge
            calls.append(Z)
            if len(calls) > 3:
                Z = [np.stack((-z[0], z[1])) for z in Z]
            return factor(Z)

        monkeypatch.setattr(sdp, "_factor_pairs", failing_after_three)
        h = random_symmetric(np.random.default_rng(16), 5, 5)
        sol = solve(lambda_min_problem(h))
        assert sol.status == "max_iter"
        assert sol.diagnostics["breakdown"] == "X factorization failed"
        assert sol.iterations == 4
        # the best of the four iterates, not the starting point
        assert np.all(np.isfinite(sol.X[0])) and np.isfinite(sol.primal_obj)
        assert sol.gap < 1.0 and not np.allclose(sol.X[0], np.diag(np.diag(sol.X[0])))

    def test_pair_factors_equal_single_factors(self):
        rng = np.random.default_rng(17)
        X, S = random_psd(rng, 5), random_psd(rng, 5)
        (pair,) = sdp._factor_pairs([np.stack((X, S))])
        np.testing.assert_array_equal(pair[0], np.linalg.cholesky(X))
        np.testing.assert_array_equal(pair[1], np.linalg.cholesky(S))
        # a singular X fails the stacked call and takes _psd_factor's ridge
        v = np.arange(1.0, 6.0)
        (pair,) = sdp._factor_pairs([np.stack((np.outer(v, v), S))])
        np.testing.assert_array_equal(pair[0], sdp._psd_factor(np.outer(v, v)))
        np.testing.assert_array_equal(pair[1], np.linalg.cholesky(S))

    def test_pair_factor_failures_name_s_before_x(self):
        rng = np.random.default_rng(18)
        good = np.stack((random_psd(rng, 3), random_psd(rng, 3)))
        bad_x = np.stack((-np.eye(4), np.eye(4)))
        bad_s = np.stack((np.eye(2), -np.eye(2)))
        with pytest.raises(np.linalg.LinAlgError, match="^X factorization failed$"):
            sdp._factor_pairs([good, bad_x])
        # every S is factored before any X, whatever the block order
        with pytest.raises(np.linalg.LinAlgError, match="^S factorization failed$"):
            sdp._factor_pairs([bad_x, good, bad_s])

    def test_masked_inverse_equals_tril(self):
        rng = np.random.default_rng(19)
        for n in (1, 3, 8):
            L = np.stack([np.linalg.cholesky(random_psd(rng, n)) for _ in range(2)])
            np.testing.assert_array_equal(sdp._tri_inv(L), np.tril(np.linalg.inv(L)))

    def test_best_iterate_comes_back_intact(self, monkeypatch):
        # the stalled xxz(0.5) (4, 1) solve ends five iterates after its best
        # one; every later update must leave that iterate as it was
        problem = build_marginal_sdp(MarginalProblemSpec(builtin_model("xxz", [0.5]), 4, 1))
        residuals, scores = sdp._residuals, []

        def recorded(*args):
            out = residuals(*args)
            _, _, gap, feas_p, feas_d, _ = out
            scores.append(max(gap / 1e-9, feas_p / 1e-9, feas_d / 1e-9))
            return out

        monkeypatch.setattr(sdp, "_residuals", recorded)
        sol = solve(problem, gap_tol=1e-9, feas_tol=1e-9)
        assert sol.status == "max_iter" and sol.diagnostics.get("stalled")
        in_loop, final = scores[:-1], scores[-1]
        assert len(in_loop) == sol.iterations
        assert in_loop.index(min(in_loop)) < len(in_loop) - 1
        assert final == min(in_loop)

    @pytest.mark.parametrize("tols", [(0.0, 1e-9), (-1.0, 1e-9), (np.nan, 1e-9),
                                      (np.inf, 1e-9), (1e-9, 0.0), (1e-9, np.nan)])
    def test_tolerances_checked_before_the_first_iterate(self, monkeypatch, tols):
        def no_iterate(*args):
            raise AssertionError("iterated with an invalid tolerance")

        monkeypatch.setattr(sdp, "_residuals", no_iterate)
        with pytest.raises(ValueError, match="positive and finite"):
            solve(lambda_min_problem(np.eye(2)), gap_tol=tols[0], feas_tol=tols[1])

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

    def test_stack_embeds_each_matrix(self):
        # the same bits as one matrix at a time
        rng = np.random.default_rng(5)
        b = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
        h = (b + np.swapaxes(b, -1, -2).conj()) / 2
        each = np.array([[real_embed(m) for m in row] for row in h])
        assert np.array_equal(real_embed(h), each)

    def test_stack_with_one_non_hermitian_matrix_rejected(self):
        h = np.stack([np.eye(2), np.array([[0.0, 1j], [1j, 0.0]])])
        with pytest.raises(ValueError, match="not Hermitian"):
            real_embed(h)


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

    def test_negative_part_below_eigvalsh_rounding_is_charged(self, no_scipy_linalg):
        # C = Q diag(-1e-14, 1, ..., 1) Q^T: at y = 0 the whole bound is the
        # negative part of C, about the size of eigvalsh's rounding, charged
        # on numpy's Cholesky alone
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((6, 6)))
        c = (q * np.array([-1e-14, 1, 1, 1, 1, 1])) @ q.T
        c = (c + c.T) / 2
        prob = lambda_min_problem(c)
        sol = SdpSolution(status="max_iter", X=[np.eye(6) / 6], y=np.zeros(1), S=[c],
                          primal_obj=0.0, dual_obj=0.0, gap=0.0, feas_primal=0.0,
                          feas_dual=0.0, iterations=0)
        z = dual_lower_bound(prob, sol, trace_bounds=(1.0,))
        assert -1e-13 < z < min(-1e-14, np.linalg.eigvalsh(c)[0])

    def test_hidden_negative_part_of_a_hermitian_block_is_charged(self, no_scipy_linalg):
        # the complex twin of the test above: C = Q diag(-1e-14, 1, ..., 1) Q^H
        # with a unitary Q, proven by numpy's complex Cholesky
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        c = (q * np.array([-1e-14, 1, 1, 1, 1, 1])) @ q.conj().T
        c = (c + c.conj().T) / 2
        prob = lambda_min_problem(c)
        assert prob.C[0].dtype == complex
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


def _recorded_certificates(monkeypatch) -> list:
    """Record every `dual_lower_bound` call: (problem, solution, trace bounds, value)."""
    seen = []
    original = sdp.dual_lower_bound

    def recorded(problem, solution, trace_bounds):
        z = original(problem, solution, trace_bounds)
        seen.append((problem, solution, trace_bounds, z))
        return z

    monkeypatch.setattr(sdp, "dual_lower_bound", recorded)
    return seen


# frozen from the benchmark's seed-0 references (perfbench/workloads.py)
NUMPY_ROUTE_CASES = {
    "marginal": (lambda: improved_anderson_bound(
        MarginalProblemSpec(builtin_model("heisenberg"), 5, 2)), -0.934258545983),
    "moment": (lambda: ti_moment_bound(builtin_model("heisenberg"), 3), -1.00000000037),
}


class TestNumpyCertificate:
    """The certificate proves each block with numpy's Cholesky of the shifted
    Z_k; scipy.linalg takes no part."""

    @pytest.mark.parametrize("name", sorted(NUMPY_ROUTE_CASES))
    def test_frozen_values(self, no_scipy_linalg, name):
        bound, ref = NUMPY_ROUTE_CASES[name]
        assert abs(bound().lower - ref) <= 1e-9

    @pytest.mark.parametrize("name", sorted(NUMPY_ROUTE_CASES))
    def test_same_bits_as_the_in_place_route(self, monkeypatch, name):
        # the edge depends only on the factorization completing, so scipy's
        # in-place potrf proves the same value, bit for bit
        seen = _recorded_certificates(monkeypatch)
        NUMPY_ROUTE_CASES[name][0]()
        ((problem, sol, trace_bounds, z),) = seen
        monkeypatch.setattr(eigensolver, "numpy_cholesky_edge",
                            lambda a, estimate: eigensolver.cholesky_edge(a.copy(), estimate))
        assert sdp.dual_lower_bound(problem, sol, trace_bounds) == z


def _embedded_twin(problem):
    """The real-embedded twin of a Hermitian problem: every matrix h becomes
    real_embed(h) / 2, so traces against embedded variables match."""
    return SdpProblem([2 * n for n in problem.blocks],
                      [real_embed(c) / 2.0 for c in problem.C],
                      [real_embed(a) / 2.0 for a in problem.A], problem.b)


class TestHermitianBlocks:
    @pytest.mark.parametrize("case", ["marginal-4-1", "marginal-4-2", "moment-3", "moment-4"])
    def test_embedded_twin_reaches_the_same_optimum_and_bound(self, monkeypatch, case):
        # the Hermitian blocks and their real embeddings, twice as wide, are
        # one relaxation: the optimum and the certificate agree. At the default
        # gap of 1e-9 relative, the primal objective of marginal (4, 1) is
        # only within 2.1e-9, so both solve to 1e-10
        model = builtin_model("random_twosite", [3.0])
        method, *size = case.split("-")
        if method == "marginal":
            problem = build_marginal_sdp(MarginalProblemSpec(model, *map(int, size)))
        else:
            seen = captured_solve(monkeypatch)
            ti_moment_bound(model, int(size[0]))
            ((problem, _),) = seen
        assert all(a.dtype == complex for a in problem.A)
        twin = _embedded_twin(problem)
        assert all(a.dtype == float for a in twin.A)
        (sol, z), (twin_sol, twin_z) = (sdp.certified_solve(p, case, gap_tol=1e-10)
                                             for p in (problem, twin))
        assert abs(sol.primal_obj - twin_sol.primal_obj) < 1e-9
        assert abs(sol.dual_obj - twin_sol.dual_obj) < 1e-9
        assert abs(z - twin_z) < 1e-9


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

    def test_non_hermitian_complex_blocks_rejected(self):
        # complex symmetric is not Hermitian: [[0, i], [i, 0]] fails as an
        # objective and as one row among Hermitian ones; its Hermitian
        # counterpart [[0, i], [-i, 0]] passes
        sym = np.array([[0.0, 1j], [1j, 0.0]])
        herm = np.array([[0.0, 1j], [-1j, 0.0]])
        eye = np.eye(2)[None]
        with pytest.raises(ValueError, match="objective block is not symmetric"):
            SdpProblem([2], [sym], [eye], np.array([1.0]))
        with pytest.raises(ValueError, match="constraint block is not symmetric"):
            SdpProblem([2], [herm], [np.stack([np.eye(2), herm, sym])], np.ones(3))
        prob = SdpProblem([2], [herm], [np.stack([np.eye(2), herm])], np.ones(2))
        assert prob.C[0].dtype == prob.A[0].dtype == complex

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
