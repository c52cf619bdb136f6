import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from certground import cli, eigensolver
from certground.anderson import anderson_bound, anderson_formula, guarantee_formula
from certground.eigensolver import min_eig, min_eig_lanczos
from certground.models import (CsrBlock, PatchSpec, assembly_margin, build_patch,
                               builtin_model, charge_sectors, parse_model)
from tests.conftest import CHAIN, EMIN
from tests.oracles import as_csr, charge_blocks

# SU(2) invariant with a fully polarized ground multiplet: -(XX + YY + ZZ)/2
FERROMAGNET = json.dumps({
    "name": "ferromagnet", "d": 2, "D": 1,
    "term": {"pauli_sum": [{"paulis": p, "coeff": -0.5} for p in ("XX", "YY", "ZZ")]},
})

SECTOR_MODELS = {
    "heisenberg": lambda: builtin_model("heisenberg"),
    "xxz(0.5)": lambda: builtin_model("xxz", [0.5]),
    # Ising-dominated: the minimum sits in the all-up and all-down sectors,
    # which an S^z = 0 shortcut would miss
    "xxz(-2)": lambda: builtin_model("xxz", [-2.0]),
    "tfim(1)": lambda: builtin_model("tfim", [1.0]),
    "random_twosite(3)": lambda: builtin_model("random_twosite", [3.0]),
    "ferromagnet": lambda: parse_model(FERROMAGNET),
}


class TestFormulas:
    def test_anderson_m2(self):
        assert anderson_formula(-1.5, 2, 1) == -1.5

    def test_anderson_m3(self):
        assert anderson_formula(-2.0, 3, 1) == -1.0

    def test_guarantee_m2(self):
        # (1/2)(3/2) - (-3/2)(1 - 1/2) = 1.5
        assert abs(guarantee_formula(-1.5, 1.5, 2, 1) - 1.5) < 1e-12

    def test_guarantee_m3(self):
        # 0.5 + 2 (1/2 - 1/3) = 5/6
        assert abs(guarantee_formula(-2.0, 1.5, 3, 1) - 5.0 / 6.0) < 1e-12

    def test_zero_model_formulas(self):
        assert anderson_formula(0.0, 5, 1) == 0.0
        assert guarantee_formula(0.0, 0.0, 5, 1) == 0.0

    def test_2d_scaling(self):
        assert anderson_formula(-4.0, 3, 2) == -1.0


class TestBound:
    def test_m2(self, heisenberg):
        res = anderson_bound(heisenberg, 2)
        assert abs(res.lower + 1.5) < 1e-9
        assert res.certified

    def test_m3(self, heisenberg):
        res = anderson_bound(heisenberg, 3)
        assert abs(res.lower + 1.0) < 1e-9

    def test_zero_model(self, zero_model):
        res = anderson_bound(zero_model, 4)
        assert abs(res.lower) < 1e-9
        assert anderson_bound(zero_model, 4).guarantee_width == 0.0

    def test_certified_below_point_estimate(self, heisenberg):
        res = anderson_bound(heisenberg, 12)
        assert res.lower <= res.diagnostics["bound_point_estimate"] + 1e-15

    def test_invalid_m(self, heisenberg):
        with pytest.raises(ValueError):
            anderson_bound(heisenberg, 1)


class TestSweep:
    def test_length_one_equals_single_call(self, capsys, heisenberg):
        assert cli.run(["sweep", "--method", "anderson", "--model", "heisenberg",
                        "--m", "5..5"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        single = anderson_bound(heisenberg, 5)
        assert row["certified_bound"] == float(f"{single.lower:.12g}")

    def test_parity_subsequences_monotone(self, heisenberg):
        bounds = {m: anderson_bound(heisenberg, m).lower for m in range(2, 11)}
        for m in range(2, 9):
            assert bounds[m + 2] >= bounds[m] - 1e-9

    def test_certified_bound_is_the_edge_quotient_rounded_down(self, heisenberg):
        # the largest float at most edge / (m - 1) (fl(edge / (m - 1)) lies
        # above the exact quotient at m = 7, 8, 12..15); a division by a power
        # of two is exact and stays as it is
        for m in range(3, 16):
            r = anderson_bound(heisenberg, m)
            edge = r.diagnostics["lambda_min_certified"]
            exact = Fraction(edge) / (m - 1)
            assert Fraction(r.lower) <= exact < Fraction(np.nextafter(r.lower, np.inf))
            if m in (3, 5, 9):
                assert r.lower == edge / (m - 1)

    def test_guarantee_covers_emin(self, heisenberg):
        for m in (2, 3, 6, 9):
            res = anderson_bound(heisenberg, m)
            eps = res.guarantee_width
            assert res.lower - 1e-9 <= EMIN <= res.lower + eps + 1e-9


class TestSectors:
    @pytest.mark.parametrize("m", range(2, 11))
    @pytest.mark.parametrize("name", SECTOR_MODELS)
    def test_sector_minimum_is_lambda_min(self, name, m):
        model = SECTOR_MODELS[name]()
        diag = anderson_bound(model, m).diagnostics
        ref = np.linalg.eigvalsh(build_patch(model, PatchSpec(m)).toarray())[0]
        assert abs(diag["lambda_min_patch"] - ref) < 1e-9
        assert diag["lambda_min_certified"] <= ref
        assert diag["minimality"] == "cholesky"

    @pytest.mark.parametrize("name, sectors, sector_dim", [
        # S^z = 0 only, gauged: the orbits of reflection x flip on its C(10, 5)
        # states, (252 + 0 + 0 + 32) / 4
        ("heisenberg", 1, 71),
        # the S^z sectors q <= 5 (their flip partners have the same spectrum),
        # gauged; q = 4 keeps reflection only, (210 + 10) / 2
        ("xxz(0.5)", 6, 110),
        # no conserved charge; the orbits of reflection x flip on 2^10 states:
        # (1024 + 32 + 0 + 32) / 4 by Burnside's lemma
        ("tfim(1)", 1, 272),
    ])
    def test_sector_counts(self, name, sectors, sector_dim):
        diag = anderson_bound(SECTOR_MODELS[name](), 10).diagnostics
        assert diag["sectors"] == sectors
        assert diag["sector_dim"] == sector_dim

    def test_counts_sum_over_sectors(self):
        model, patch = SECTOR_MODELS["xxz(0.5)"](), PatchSpec(6)
        sectors = charge_sectors(model, 6)
        eigs = [min_eig(build_patch(model, patch, s)) for s in sectors]
        margins = [assembly_margin(model, patch, s) for s in sectors]
        diag = anderson_bound(model, 6).diagnostics
        assert diag["iterations"] == sum(e.iterations for e in eigs)
        assert diag["reorthogonalized_steps"] == sum(e.reorthogonalized for e in eigs)
        assert diag["lambda_min_certified"] == min(
            np.nextafter(e.lower_edge - c, -np.inf) if c else e.lower_edge
            for e, c in zip(eigs, margins))

    @pytest.mark.parametrize("m", [13, 14])
    def test_proven_to_m14(self, heisenberg, m):
        # the S^z = 0 block has C(14, 7) = 3432 <= DENSE_CAP states at m = 14
        diag = anderson_bound(heisenberg, m).diagnostics
        assert diag["minimality"] == "cholesky"
        assert CHAIN[m] - 1e-7 <= diag["lambda_min_certified"] <= CHAIN[m]

    # the gauged S^z = 0 block reduced by reflection (x flip for even m):
    # (C(15, 7) + 35) / 2 = 3235 and (C(16, 8) + 70 + 0 + 256) / 4 = 3299
    @pytest.mark.parametrize("m, sector_dim", [(15, 3235), (16, 3299)])
    def test_heisenberg_proven_to_m16(self, heisenberg, m, sector_dim):
        diag = anderson_bound(heisenberg, m).diagnostics
        assert (diag["minimality"], diag["sector_dim"]) == ("cholesky", sector_dim)
        # Lanczos on the unreduced S^z = 0 block
        (block,) = charge_blocks(heisenberg, m)
        whole = min_eig_lanczos(build_patch(heisenberg, PatchSpec(m), block), len(block))
        assert whole.value - 1e-7 <= diag["lambda_min_certified"] <= whole.value
        assert abs(diag["lambda_min_patch"] - whole.value) < 1e-8

    # 2D uses the flip only, and only on the self-paired middle block: none at 3x3
    @pytest.mark.parametrize("name, m, symmetry", [
        ("heisenberg", 3, ("su2",)),
        ("heisenberg", 4, ("su2", "sign_gauge", "flip")),
        ("xxz(-2)", 4, ("u1", "sign_gauge", "flip")),
    ])
    def test_2d_matches_the_unreduced_charge_blocks(self, name, m, symmetry):
        model, patch = dataclasses.replace(SECTOR_MODELS[name](), D=2), PatchSpec(m, 2)
        blocks = charge_blocks(model, patch.sites)
        ref = min(min_eig_lanczos(build_patch(model, patch, b), len(b)).value for b in blocks)
        diag = anderson_bound(model, m).diagnostics
        assert diag["symmetry"] == list(symmetry)
        assert abs(diag["lambda_min_patch"] - ref) < 1e-8
        assert diag["lambda_min_certified"] <= ref

    def test_tfim_proven_at_m13(self):
        # the symmetric sector of 2^13 states has 2080 <= DENSE_CAP orbits
        model = builtin_model("tfim", [1.0])
        diag = anderson_bound(model, 13).diagnostics
        assert (diag["minimality"], diag["sector_dim"], diag["symmetry"]) == (
            "cholesky", 2080, ["reflection", "flip"])
        whole = min_eig_lanczos(build_patch(model, PatchSpec(13)), 2 ** 13)
        assert abs(diag["lambda_min_patch"] - whole.value) < 1e-8
        assert diag["lambda_min_certified"] <= whole.value

    @pytest.mark.parametrize("name", ["tfim(1)", "random_twosite(3)"])
    def test_edges_subtract_the_assembly_margin(self, name):
        model, patch = SECTOR_MODELS[name](), PatchSpec(8)
        (sector,) = charge_sectors(model, 8)
        margin = assembly_margin(model, patch, sector)
        edge = min_eig(build_patch(model, patch, sector)).lower_edge
        diag = anderson_bound(model, 8).diagnostics
        assert margin > 0
        assert diag["assembly_margin"] == margin
        assert diag["lambda_min_certified"] == np.nextafter(edge - margin, -np.inf)

    @pytest.mark.parametrize("m, calls, minimality", [(8, 5, "cholesky"), (16, 0, "unverified")])
    def test_no_factorization_when_a_block_is_too_large(self, monkeypatch, m, calls,
                                                        minimality):
        # xxz(0.5): the S^z blocks q <= m / 2; at m = 16 the q = 7 block keeps
        # (C(16, 7) + 0) / 2 = 5720 > DENSE_CAP states under reflection, which
        # leaves the result unverified whatever the smaller blocks show, so
        # none of them is factored
        factored = []
        dense = eigensolver.min_eig_dense_certified

        def counting(h, *args, **kwargs):
            factored.append(h.shape[0])
            return dense(h, *args, **kwargs)

        monkeypatch.setattr(eigensolver, "min_eig_dense_certified", counting)
        res = anderson_bound(SECTOR_MODELS["xxz(0.5)"](), m)
        assert len(factored) == calls
        assert res.diagnostics["minimality"] == minimality
        assert res.certified is (minimality == "cholesky")
        assert res.diagnostics["sectors"] == m // 2 + 1


# (model, params, D, m, lower, certified, iterations, reorthogonalized_steps),
# frozen from scipy's route (scipy.sparse blocks, ?stebz/?stein Ritz vectors at
# every Lanczos step, scipy's Cholesky); the comment is the largest block.
# Every block is proven ("cholesky")
FROZEN_ROUTE = [
    ("heisenberg", [], 1, 2, -1.5000000000000095, True, 1, 0),  # 1
    ("heisenberg", [], 1, 3, -1.000000000000007, True, 2, 0),  # 2
    ("heisenberg", [], 1, 4, -1.0773502691896424, True, 3, 0),  # 3
    ("heisenberg", [], 1, 5, -0.9639431266590175, True, 6, 1),  # 6
    ("heisenberg", [], 1, 6, -0.9974308535552043, True, 7, 1),  # 7
    ("heisenberg", [], 1, 7, -0.945413226967676, True, 17, 3),  # 19
    ("heisenberg", [], 1, 8, -0.964266456892139, True, 19, 3),  # 23
    ("heisenberg", [], 1, 9, -0.934080426711196, True, 25, 4),  # 66
    ("heisenberg", [], 1, 10, -0.9462300461269972, True, 26, 2),  # 71
    ("heisenberg", [], 1, 11, -0.926418660549048, True, 33, 2),  # 236
    ("heisenberg", [], 1, 12, -0.9349255696580234, True, 31, 2),  # 252
    ("heisenberg", [], 1, 13, -0.9208870163975045, True, 42, 2),  # 868
    ("heisenberg", [], 1, 14, -0.9271884097143657, True, 37, 2),  # 890
    ("heisenberg", [], 1, 15, -0.9167029295019583, True, 44, 2),  # 3235
    ("heisenberg", [], 1, 16, -0.9215649549263636, True, 46, 2),  # 3299
    ("tfim", [1.0], 1, 2, -1.4142135623731138, True, 2, 0),  # 2
    ("tfim", [1.0], 1, 3, -1.3406653218025104, True, 3, 0),  # 3
    ("tfim", [1.0], 1, 4, -1.3175514066707525, True, 5, 0),  # 6
    ("tfim", [1.0], 1, 5, -1.3061876269796284, True, 10, 2),  # 10
    ("tfim", [1.0], 1, 6, -1.2994230719252045, True, 20, 4),  # 20
    ("tfim", [1.0], 1, 7, -1.294937540017911, True, 27, 4),  # 36
    ("tfim", [1.0], 1, 8, -1.291747911779449, True, 33, 4),  # 72
    ("tfim", [1.0], 1, 9, -1.289365398188554, True, 36, 4),  # 136
    ("tfim", [1.0], 1, 10, -1.2875193635431053, True, 43, 6),  # 272
    ("tfim", [1.0], 1, 11, -1.2860478226763308, True, 48, 6),  # 528
    ("tfim", [1.0], 1, 12, -1.2848479080590778, True, 55, 6),  # 1056
    ("tfim", [1.0], 1, 13, -1.283851175738623, True, 54, 6),  # 2080
    ("random_twosite", [3.0], 1, 2, -1.7095387529584625, True, 4, 0),  # 4
    ("random_twosite", [3.0], 1, 3, -1.3757781739725146, True, 8, 1),  # 8
    ("random_twosite", [3.0], 1, 4, -1.337322871249401, True, 16, 2),  # 16
    ("random_twosite", [3.0], 1, 5, -1.3016795228118232, True, 30, 6),  # 32
    ("random_twosite", [3.0], 1, 6, -1.2765162192149369, True, 42, 8),  # 64
    ("random_twosite", [3.0], 1, 7, -1.2651227088489643, True, 53, 9),  # 128
    ("random_twosite", [3.0], 1, 8, -1.2531049181617475, True, 63, 10),  # 256
    ("random_twosite", [3.0], 1, 9, -1.2458069315048501, True, 74, 12),  # 512
    ("heisenberg", [], 2, 2, -4.000000000000053, True, 3, 0),  # 3
    ("heisenberg", [], 2, 3, -2.374663629461463, True, 28, 4),  # 126
]


class TestNumpyRoute:
    """Blocks of at most NUMPY_CAP states are built and solved by numpy alone,
    and give the bounds and counts of scipy's route."""

    @pytest.mark.parametrize("name, params, D, m, lower, certified, iterations, reorth",
                             FROZEN_ROUTE, ids=[f"{c[0]}-D{c[2]}-{c[3]}" for c in FROZEN_ROUTE])
    def test_reproduces_the_scipy_route(self, name, params, D, m, lower, certified,
                                        iterations, reorth):
        report = anderson_bound(builtin_model(name, params, D=D), m)
        # lower moves only by the rounding of the Ritz pair that places the shift
        assert abs(report.lower - lower) <= 1e-12
        assert report.certified is certified
        assert report.diagnostics["minimality"] == "cholesky"
        assert report.diagnostics["iterations"] == iterations
        assert report.diagnostics["reorthogonalized_steps"] == reorth

    @pytest.mark.parametrize("name, params, m, dim", [
        ("heisenberg", [], 11, 236), ("tfim", [1.0], 9, 136), ("random_twosite", [3.0], 8, 256),
    ])
    def test_matvec_and_toarray_are_scipys(self, name, params, m, dim):
        # bit for bit: each row summed from zero in CSR order, and complex
        # products in real arithmetic, as scipy's csr_matvec does
        model = builtin_model(name, params)
        blocks = [build_patch(model, PatchSpec(m), s) for s in charge_sectors(model, m)]
        block = max(blocks, key=lambda b: b.shape[0])
        assert isinstance(block, CsrBlock) and block.shape == (dim, dim)
        assert dim <= eigensolver.NUMPY_CAP
        ref = sp.csr_matrix((block.data, block.indices, block.indptr), shape=block.shape)
        rng = np.random.default_rng(1)
        vectors = [rng.standard_normal(dim)]
        if block.data.dtype.kind == "c":
            vectors.append(vectors[0] + 1j * rng.standard_normal(dim))
        for v in vectors:
            assert (block @ v).tobytes() == (ref @ v).tobytes()
        assert block.toarray().tobytes() == ref.toarray().tobytes()
        assert block.nnz == ref.nnz == np.count_nonzero(block.data)

    def test_larger_blocks_stay_scipy_matrices(self, heisenberg):
        (sector,) = charge_sectors(heisenberg, 13)
        assert len(sector) > eigensolver.NUMPY_CAP
        assert sp.issparse(build_patch(heisenberg, PatchSpec(13), sector))

    def test_explicit_zeros_are_dropped(self, zero_model):
        # as scipy's eliminate_zeros drops them above the cap
        block = build_patch(zero_model, PatchSpec(4))
        assert block.nnz == 0 and not np.any(block.toarray())
        assert as_csr(block).nnz == 0
        assert not np.any(block @ np.ones(16))
