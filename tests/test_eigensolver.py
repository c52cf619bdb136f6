import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from certground import eigensolver
from certground.cli import run
from certground.eigensolver import (DENSE_CAP, EigResult, min_eig, min_eig_dense_certified,
                                    min_eig_lanczos)
from certground.models import PatchSpec, build_patch, builtin_model
from tests.conftest import CHAIN
from tests.oracles import as_csr


def _random_hermitian(n, seed, complex_=False):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    if complex_:
        b = b + 1j * rng.standard_normal((n, n))
    return (b + b.conj().T) / 2


def _xxz_all_up_block():
    # the 1-state all-up sector of xxz(0.5) at m = 6: the matrix [[1.25]]
    h = build_patch(builtin_model("xxz", [0.5]), PatchSpec(6))
    return as_csr(h)[[0]][:, [0]]


class TestDense:
    def test_diagonal(self):
        assert min_eig(np.diag([3.0, -1.0, 2.0])).value == -1.0

    def test_heisenberg_term(self, heisenberg):
        assert abs(min_eig(np.asarray(heisenberg.term).real).value + 1.5) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((6, 6))
        h = (b + b.T) / 2
        assert abs(min_eig(h + 2.5 * np.eye(6)).value
                   - (min_eig(h).value + 2.5)) < 1e-12

    def test_certified_residual(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((8, 8))
        h = (b + b.T) / 2
        res = min_eig_dense_certified(h)
        assert res.converged
        assert res.residual < 1e-12
        assert res.lower_edge <= np.linalg.eigvalsh(h)[0] + 1e-14

    def test_complex_hermitian(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        h = (b + b.conj().T) / 2
        res = min_eig_dense_certified(h)
        ref = np.linalg.eigvalsh(h)[0]
        assert abs(res.value - ref) < 1e-12
        assert res.converged and res.residual <= 1e-8
        assert res.lower_edge <= ref + 1e-14


class TestLanczos:
    def test_diagonal_operator(self):
        d = np.arange(64.0)
        res = min_eig_lanczos(np.diag(d), 64, tol=1e-10, seed=0)
        assert res.converged
        assert abs(res.value) <= 1e-8
        assert res.residual <= 1e-8

    def test_matches_dense_m10(self, heisenberg):
        h = build_patch(heisenberg, PatchSpec(10))
        res = min_eig_lanczos(h, h.shape[0], tol=1e-10, seed=0)
        assert res.converged
        assert abs(res.value - CHAIN[10]) < 1e-9

    def test_deterministic(self, heisenberg):
        h = build_patch(heisenberg, PatchSpec(8))
        a = min_eig_lanczos(h, h.shape[0], tol=1e-9, seed=3)
        b = min_eig_lanczos(h, h.shape[0], tol=1e-9, seed=3)
        assert a.iterations == b.iterations
        assert a.value == b.value

    def test_callable_interface(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((40, 40))
        h = (b + b.T) / 2
        res = min_eig_lanczos(lambda v: h @ v, 40, tol=1e-10, seed=0)
        assert abs(res.value - np.linalg.eigvalsh(h)[0]) < 1e-9

    def test_lower_edge_is_lower(self, heisenberg):
        h = build_patch(heisenberg, PatchSpec(9))
        res = min_eig_lanczos(h, h.shape[0], tol=1e-8, seed=0)
        assert res.lower_edge <= CHAIN[9] + 1e-12

    def test_complex_hermitian_patch(self):
        h = build_patch(builtin_model("random_twosite", [3.0]), PatchSpec(10))
        assert h.dtype == np.complex128
        res = min_eig_lanczos(h, h.shape[0], tol=1e-10, seed=0)
        ref = np.linalg.eigvalsh(h.toarray())[0]
        assert res.converged
        assert abs(res.value - ref) < 1e-9
        assert res.lower_edge <= ref + 1e-12

    def test_contiguous_vectors_past_initial_capacity(self):
        # a random spectrum needs more steps than the initial basis holds
        rng = np.random.default_rng(5)
        b = rng.standard_normal((300, 300))
        h = (b + b.T) / 2

        def apply(v):
            assert v.flags.c_contiguous
            return h @ v

        res = min_eig_lanczos(apply, 300, tol=1e-10, seed=0)
        assert res.converged
        assert res.iterations > eigensolver._BASIS_ROWS
        assert abs(res.value - np.linalg.eigvalsh(h)[0]) < 1e-9

    # the step counts and values of full reorthogonalization (two Gram-Schmidt
    # passes every step); partial reorthogonalization must reproduce them
    @pytest.mark.parametrize("name, params, m, tol, iterations, value", [
        pytest.param("heisenberg", [], 13, 1e-8, 46, CHAIN[13], id="13-46"),
        pytest.param("heisenberg", [], 14, 1e-8, 52, CHAIN[14], id="14-52"),
        pytest.param("heisenberg", [], 15, 1e-8, 54, CHAIN[15], id="15-54"),
        pytest.param("heisenberg", [], 18, 1e-8, 67, -15.594022137073, id="18-67"),
        pytest.param("random_twosite", [3.0], 10, 1e-10, 91, -11.156550671486,
                     id="random_twosite-10-91"),
        pytest.param("tfim", [1.0], 14, 1e-10, 105, -16.679134278796, id="tfim-14-105"),
        pytest.param("xxz", [0.5], 14, 1e-8, 63, -10.173180822918, id="xxz-14-63"),
    ])
    def test_frozen_iteration_counts(self, name, params, m, tol, iterations, value):
        h = build_patch(builtin_model(name, params), PatchSpec(m))
        res = min_eig_lanczos(h, h.shape[0], tol=tol, seed=0)
        assert res.converged
        assert res.iterations == iterations
        assert abs(res.value - value) < 1e-10

    # above NUMPY_CAP, LAPACK gives the lowest Ritz vector at the convergence
    # checkpoints only, not at every step, and the step counts stay frozen
    @pytest.mark.parametrize("name, params, m, tol, iterations", [
        pytest.param("heisenberg", [], 13, 1e-8, 46, id="13-46"),
        pytest.param("tfim", [1.0], 14, 1e-10, 105, id="tfim-14-105"),
    ])
    def test_ritz_vectors_at_checkpoints_only(self, monkeypatch, name, params, m, tol,
                                              iterations):
        calls = []
        lowest = eigensolver._lowest_ritz_vector

        def counting(alpha, beta):
            calls.append(len(alpha))
            return lowest(alpha, beta)

        monkeypatch.setattr(eigensolver, "_lowest_ritz_vector", counting)
        h = build_patch(builtin_model(name, params), PatchSpec(m))
        assert h.shape[0] > eigensolver.NUMPY_CAP
        res = min_eig_lanczos(h, h.shape[0], tol=tol, seed=0)
        assert res.converged and res.iterations == iterations
        assert 0 < len(calls) <= iterations / 4

    def test_ritz_vector_is_that_of_eigh_tridiagonal(self):
        # the same LAPACK bisection and inverse iteration, bit for bit
        rng = np.random.default_rng(0)
        for k in range(1, 120):
            alpha, beta = rng.standard_normal(k), rng.standard_normal(k - 1)
            _, v = scipy.linalg.eigh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))
            got = eigensolver._lowest_ritz_vector(alpha, beta)
            assert got.dtype == v.dtype
            assert np.array_equal(got, v[:, 0])

    def test_reorthogonalizes_rarely(self, heisenberg):
        h = build_patch(heisenberg, PatchSpec(15))
        res = min_eig_lanczos(h, h.shape[0], tol=1e-8, seed=0)
        assert res.converged
        assert 0 < res.reorthogonalized < res.iterations / 4

    def test_fast_orthogonality_loss(self):
        # well separated large eigenvalues converge, and so destroy orthogonality,
        # long before the clustered lowest one does
        d = np.geomspace(1e-6, 1.0, 300)
        basis = []

        def apply(v):
            basis.append(v.copy())
            return d * v

        res = min_eig_lanczos(apply, 300, tol=1e-10, seed=0)
        assert res.converged
        assert res.reorthogonalized > 0
        assert abs(res.value - np.linalg.eigvalsh(np.diag(d))[0]) < 1e-9
        q = np.array(basis[:-1])  # the last vector is the final Ritz vector
        loss = np.max(np.abs(q @ q.T - np.eye(len(q))))
        assert loss < np.sqrt(np.finfo(np.float64).eps)  # semi-orthogonal

    def test_basis_memory_grows_with_iterations(self, heisenberg):
        # the basis must not be sized by max_iter (501 rows at dim 8192)
        h = build_patch(heisenberg, PatchSpec(13))
        dim = h.shape[0]
        tracemalloc.start()
        try:
            res = min_eig_lanczos(h, dim, tol=1e-8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak <= 4 * (res.iterations + 1) * dim * 8

    def test_converged_means_residual_below_tol(self):
        # the Krylov space is exhausted (beta <= 1e-14) at a residual above tol
        res = min_eig_lanczos(np.diag(-np.geomspace(1.0, 1e6, 300)), 300, tol=1e-11,
                              seed=0)
        assert res.iterations == 300
        assert res.residual > 1e-11
        assert not res.converged

    def test_nonconvergence_reported(self):
        # a single matvec budget cannot converge a 64-dim problem
        rng = np.random.default_rng(3)
        b = rng.standard_normal((64, 64))
        h = (b + b.T) / 2
        res = min_eig_lanczos(h, 64, tol=1e-14, seed=0, max_iter=3)
        assert not res.converged

    @pytest.mark.parametrize("kwargs, message", [
        ({"dim": 0}, "dim and max_iter must be at least 1, not 0 and 500"),
        ({"max_iter": 0}, "dim and max_iter must be at least 1, not 3 and 0"),
        ({"max_iter": -3}, "dim and max_iter must be at least 1, not 3 and -3"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": -1e-8}, "tol must be positive"),
    ])
    def test_input_checks(self, kwargs, message):
        args = {"dim": 3, **kwargs}
        with pytest.raises(ValueError, match=message):
            min_eig_lanczos(np.diag([1.0, 2.0, 3.0]), **args)

    @pytest.mark.parametrize("n", [1, 7, 8192])
    def test_complex_division_by_a_real_scalar(self, n):
        # the (Re, Im) multiply by the rounded 1 / s agrees with numpy's x / s
        # (bit for bit with numpy 2.4 on x86-64; one ulp leaves room for
        # another build's complex division)
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            s = float(np.exp(rng.uniform(-30, 30)))
            want = x / s
            got = np.empty_like(x)
            eigensolver._divide(x, s, got)
            ulp = np.spacing(np.abs(want.view(np.float64)))
            assert np.all(np.abs(got.view(np.float64) - want.view(np.float64)) <= ulp)
            y = x.copy()
            eigensolver._divide(y, s, y)
            assert np.array_equal(y, got)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_norm_is_that_of_numpy(self, complex_):
        x = _random_hermitian(40, 2, complex_)[0]
        assert eigensolver._norm(x) == np.linalg.norm(x)

    def test_unconverged_lanczos_raises(self, monkeypatch):
        # above the dense cap min_eig refuses an uncertified Lanczos result
        monkeypatch.setattr(eigensolver, "min_eig_lanczos",
                            lambda *args, **kwargs: EigResult(0.0, 1.0, 500, False))
        with pytest.raises(RuntimeError, match="did not converge"):
            min_eig(sp.identity(DENSE_CAP + 1, format="csr"))


class TestChunkedInnerProducts:
    @staticmethod
    def _vectors(n, seed):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2)]

    @pytest.mark.parametrize("n", [1, 7, 4096, 10 ** 4])
    def test_one_call_up_to_the_chunk(self, n):
        x, y = self._vectors(n, n)
        assert eigensolver._chunked(np.vdot, x, y) == np.vdot(x, y)
        real = np.ascontiguousarray(x.real)
        assert eigensolver._norm(x) == np.linalg.norm(x)
        assert eigensolver._norm(real) == np.linalg.norm(real)

    @pytest.mark.parametrize("n, step", [(10 ** 4 + 1, 5001), (2 * 10 ** 4, 10 ** 4),
                                         (2 * 10 ** 4 + 3, 6668), (35000, 8750)])
    def test_equal_chunks_summed_left_to_right(self, n, step):
        x, y = self._vectors(n, n)
        q, real = np.stack([x, y, x.conj()]), np.ascontiguousarray(x.real)
        total, rows, square = 0.0, 0.0, 0.0
        for i in range(0, n, step):
            total += np.vdot(x[i:i + step], y[i:i + step])
            rows = rows + q[:, i:i + step] @ y[i:i + step]
            square += real[i:i + step] @ real[i:i + step]
        assert eigensolver._chunked(np.vdot, x, y) == total
        assert np.array_equal(eigensolver._chunked(np.matmul, q, y), rows)
        assert eigensolver._norm(real) == np.sqrt(square)

    def test_lanczos_does_not_depend_on_the_blas_thread_count(self):
        # a random complex tridiagonal operator: a dense spectrum, so the run
        # reorthogonalizes, and every vector is longer than one chunk
        script = (
            "import numpy as np, scipy.sparse as sp\n"
            "from certground.eigensolver import min_eig_lanczos\n"
            "n = 2 * 10 ** 4\n"
            "rng = np.random.default_rng(0)\n"
            "off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)\n"
            "h = sp.diags([off.conj(), rng.standard_normal(n), off], [-1, 0, 1], format='csr')\n"
            "r = min_eig_lanczos(h, n, tol=1e-8)\n"
            "assert r.reorthogonalized > 0\n"
            "print(repr(r.value), repr(r.residual))\n")
        src = str(Path(eigensolver.__file__).resolve().parents[1])
        outs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               check=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": src,
                                    "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert outs[0] and outs[0] == outs[1]


class TestMinimalityProof:
    """Below DENSE_CAP, lambda_min > lower_edge is proven by a shifted Cholesky."""

    @staticmethod
    def _fake_lanczos(pick):
        # a Lanczos stand-in that reports pick(spectrum) with residual 0
        def fake(apply, dim, tol=1e-8, seed=0, max_iter=500):
            h = apply.toarray() if hasattr(apply, "toarray") else apply
            return EigResult(pick(np.linalg.eigvalsh(h)), 0.0, 1, True)
        return fake

    @pytest.mark.parametrize("pick", [lambda w: w[1], lambda w: w[0] + 1e-6],
                             ids=["second_lowest", "lowest_plus_1e-6"])
    def test_non_minimal_ritz_value_refused(self, monkeypatch, pick):
        h = _random_hermitian(12, 6)
        monkeypatch.setattr(eigensolver, "min_eig_lanczos", self._fake_lanczos(pick))
        with pytest.raises(RuntimeError, match="minimality not proven"):
            min_eig(h)

    def test_non_minimal_ritz_value_exits_3(self, monkeypatch, capsys):
        # the open 4-site Heisenberg chain: singlet ground state, triplet above it
        monkeypatch.setattr(eigensolver, "min_eig_lanczos",
                            self._fake_lanczos(lambda w: w[w > w[0] + 1e-9][0]))
        assert run(["anderson", "--model", "heisenberg", "--m", "4"]) == 3
        captured = capsys.readouterr()
        assert "solver failure" in captured.err
        assert "minimality not proven" in captured.err
        assert captured.out == ""

    def test_unconverged_block_is_not_factored(self, monkeypatch, capsys):
        # Lanczos stops short of 1e-13 on the 256-state block of random_twosite(3)
        # m = 8, which min_eig refuses: nothing is factored for it. At the default
        # tolerance the same block converges and is proven by one factorization
        calls = []
        for name in ("numpy_cholesky_edge", "cholesky_edge"):
            edge = getattr(eigensolver, name)
            monkeypatch.setattr(eigensolver, name,
                                lambda *args, edge=edge: calls.append(1) or edge(*args))
        argv = ["anderson", "--model", "random_twosite", "--params", "3", "--m", "8"]
        assert run(argv + ["--tol", "1e-13"]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert calls == []
        assert run(argv) == 0
        assert calls == [1]

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [8, 40, 300])
    def test_edge_below_lambda_min(self, n, complex_):
        h = _random_hermitian(n, n, complex_)
        ref = np.linalg.eigvalsh(h)[0]
        res = min_eig(h)
        assert res.minimality == "cholesky"
        assert ref - 1e-7 <= res.lower_edge <= ref
        assert abs(res.value - ref) < 1e-12
        assert res.converged and res.residual <= 1e-8

    @pytest.mark.parametrize("make", [
        lambda: build_patch(builtin_model("heisenberg"), PatchSpec(10)),
        lambda: build_patch(builtin_model("heisenberg"), PatchSpec(13)),
        lambda: _random_hermitian(40, 4, True),
    ], ids=["heisenberg-10", "heisenberg-13", "complex-40"])
    def test_proof_adds_only_the_edge(self, make):
        # the proof changes no field of the Ritz pair that Lanczos returns
        h = make()
        res = min_eig_dense_certified(h)
        assert res.proven_edge is not None
        assert replace(res, proven_edge=None) == min_eig_lanczos(h, h.shape[0])

    @pytest.mark.parametrize("argv", ["anderson --model heisenberg --m 14",
                                      "anderson --model tfim --params 1 --m 9"],
                             ids=["scipy-route", "numpy-route"])
    def test_proven_reports_do_not_depend_on_the_blas_thread_count(self, argv):
        # Lanczos is thread-independent, and the proof adds only its edge
        src = str(Path(eigensolver.__file__).resolve().parents[1])
        outs = [subprocess.run([sys.executable, "-m", "certground.cli", *argv.split()],
                               capture_output=True, text=True, check=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": src,
                                    "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert '"minimality": "cholesky"' in outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_heisenberg_edge_brackets_chain(self, heisenberg, m):
        res = min_eig(build_patch(heisenberg, PatchSpec(m)))
        assert res.minimality == "cholesky"
        assert CHAIN[m] - 1e-7 <= res.lower_edge <= CHAIN[m]

    def test_zero_model(self, zero_model):
        # the Ritz pair of the zero block is exact: the shift sits a subnormal margin below 0
        res = min_eig(build_patch(zero_model, PatchSpec(4)))
        assert res.value == 0.0 and res.residual == 0.0
        assert res.lower_edge <= 0.0
        assert abs(res.lower_edge) < 1e-9

    @pytest.mark.parametrize("make", [
        lambda: sp.csr_matrix([[2.5]]),
        lambda: sp.csr_matrix([[-3.0]]),
        lambda: np.diag([1.0, -2.0, 4.0, -2.0]),
        _xxz_all_up_block,
    ], ids=["2.5", "-3.0", "repeated_minimum", "xxz_all_up"])
    def test_exact_eigenpair_proven(self, make):
        # the Ritz value is an exact eigenvalue with residual 0: the shift
        # must still sit below it by the rounding of the shifted diagonal
        h = make()
        res = min_eig(h)
        dense = h.toarray() if hasattr(h, "toarray") else h
        assert res.minimality == "cholesky"
        assert res.proven_edge <= res.value
        assert res.proven_edge <= np.linalg.eigvalsh(dense)[0]
        assert res.value - res.proven_edge <= 1e-12 * abs(res.value)

    def test_factors_in_place(self, heisenberg):
        # one dense n x n array: the factorization must not copy it
        h = build_patch(heisenberg, PatchSpec(11))
        dim = h.shape[0]
        tracemalloc.start()
        try:
            min_eig_dense_certified(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * dim * dim * 8

    def test_four_field_result_is_unverified(self):
        res = EigResult(1.0, 0.25, 3, True)
        assert res.lower_edge == 0.75
        assert res.minimality == "unverified"
        assert res.reorthogonalized == 0
        assert EigResult(1.0, 0.25, 3, True, 0.5).lower_edge == 0.5


class TestCholeskyEdge:
    """The one shifted-Cholesky proof behind every certified spectral edge."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_edge_covers_either_triangle(self, complex_):
        # an asymmetric copy: the factorization reads one triangle, and the
        # proven edge must sit below the Hermitian matrix built from either
        h = _random_hermitian(300, 11, complex_)
        a = h.copy()
        a[5, 290] += 1e-9
        lows = [np.linalg.eigvalsh(a, UPLO=uplo)[0] for uplo in ("L", "U")]
        t = eigensolver.cholesky_edge(a.copy(), min(lows))
        assert t < min(lows)
        assert min(lows) - t < 1e-8

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_numpy_route_proves_the_same_edge(self, complex_):
        # the edge depends on the factorization completing, not on its
        # entries: numpy's and scipy's factors give one t
        h = _random_hermitian(300, 11, complex_)
        a = h.copy()
        a[5, 290] += 1e-9
        est = min(np.linalg.eigvalsh(a, UPLO=uplo)[0] for uplo in ("L", "U"))
        t = eigensolver.numpy_cholesky_edge(a.copy(), est)
        assert t == eigensolver.cholesky_edge(a.copy(), est)

    def test_estimate_above_lambda_min_raises(self):
        h = _random_hermitian(20, 12)
        w = np.linalg.eigvalsh(h)
        with pytest.raises(RuntimeError, match="minimality not proven"):
            eigensolver.cholesky_edge(h.copy(), (w[0] + w[1]) / 2)

    def test_numpy_route_raises_above_lambda_min(self):
        h = _random_hermitian(20, 12)
        w = np.linalg.eigvalsh(h)
        with pytest.raises(RuntimeError, match="minimality not proven"):
            eigensolver.numpy_cholesky_edge(h, (w[0] + w[1]) / 2)
