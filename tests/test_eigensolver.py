import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from certground import eigensolver
from certground.cli import run
from certground.eigensolver import (DENSE_CAP, EigResult, min_eig, min_eig_dense_certified,
                                    min_eig_lanczos)
from certground.models import PatchSpec, build_patch, builtin_model
from tests.conftest import CHAIN


def _random_hermitian(n, seed, complex_=False):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    if complex_:
        b = b + 1j * rng.standard_normal((n, n))
    return (b + b.conj().T) / 2


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
        assert res.residual < 1e-12
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

    @pytest.mark.parametrize("m, iterations", [(13, 46), (14, 52), (15, 54)])
    def test_frozen_iteration_counts(self, heisenberg, m, iterations):
        h = build_patch(heisenberg, PatchSpec(m))
        res = min_eig_lanczos(h, h.shape[0], tol=1e-8, seed=0)
        assert res.iterations == iterations
        assert abs(res.value - CHAIN[m]) < 1e-10

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

    def test_nonconvergence_reported(self):
        # a single matvec budget cannot converge a 64-dim problem
        rng = np.random.default_rng(3)
        b = rng.standard_normal((64, 64))
        h = (b + b.T) / 2
        res = min_eig_lanczos(h, 64, tol=1e-14, seed=0, max_iter=3)
        assert not res.converged

    def test_unconverged_lanczos_raises(self, monkeypatch):
        # above the dense cap min_eig refuses an uncertified Lanczos result
        monkeypatch.setattr(eigensolver, "min_eig_lanczos",
                            lambda *args, **kwargs: EigResult(0.0, 1.0, 500, False))
        with pytest.raises(RuntimeError, match="did not converge"):
            min_eig(sp.identity(DENSE_CAP + 1, format="csr"))


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

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [8, 40, 300])
    def test_edge_below_lambda_min(self, n, complex_):
        h = _random_hermitian(n, n, complex_)
        ref = np.linalg.eigvalsh(h)[0]
        res = min_eig(h)
        assert res.minimality == "cholesky"
        assert ref - 1e-7 <= res.lower_edge <= ref
        assert abs(res.value - ref) < 1e-12
        assert res.residual < 1e-12

    @pytest.mark.parametrize("m", range(2, 13))
    def test_heisenberg_edge_brackets_chain(self, heisenberg, m):
        res = min_eig(build_patch(heisenberg, PatchSpec(m)))
        assert res.minimality == "cholesky"
        assert CHAIN[m] - 1e-7 <= res.lower_edge <= CHAIN[m]

    def test_zero_model(self, zero_model):
        # the shift sits a subnormal margin below 0; inverse iteration must not overflow
        res = min_eig(build_patch(zero_model, PatchSpec(4)))
        assert res.value == 0.0 and res.residual == 0.0
        assert res.lower_edge <= 0.0
        assert abs(res.lower_edge) < 1e-9

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
        assert EigResult(1.0, 0.25, 3, True, 0.5).lower_edge == 0.5
