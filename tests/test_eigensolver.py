import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from certground import eigensolver
from certground.eigensolver import (DENSE_CAP, EigResult, min_eig, min_eig_dense_certified,
                                    min_eig_lanczos)
from certground.models import PatchSpec, build_patch, builtin_model
from tests.conftest import CHAIN


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
