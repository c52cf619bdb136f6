import numpy as np
import pytest

from certground.anderson import (anderson_bound, anderson_formula, anderson_sweep,
                                 guarantee_formula)
from tests.conftest import CHAIN, EMIN


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
        res = anderson_bound(heisenberg, 2, 1)
        assert abs(res.certified_bound + 1.5) < 1e-9
        assert res.converged

    def test_m3(self, heisenberg):
        res = anderson_bound(heisenberg, 3, 1)
        assert abs(res.certified_bound + 1.0) < 1e-9

    def test_zero_model(self, zero_model):
        res = anderson_bound(zero_model, 4, 1)
        assert abs(res.certified_bound) < 1e-9
        assert anderson_bound(zero_model, 4, 1).guarantee_width == 0.0

    def test_certified_below_point_estimate(self, heisenberg):
        res = anderson_bound(heisenberg, 12, 1)
        assert res.certified_bound <= res.bound + 1e-15

    def test_invalid_m(self, heisenberg):
        with pytest.raises(ValueError):
            anderson_bound(heisenberg, 1, 1)


class TestSweep:
    def test_length_one_equals_single_call(self, heisenberg):
        (row,) = anderson_sweep(heisenberg, [5], 1, jobs=1)
        single = anderson_bound(heisenberg, 5, 1)
        assert row.certified_bound == single.certified_bound

    def test_parity_subsequences_monotone(self, heisenberg):
        rows = anderson_sweep(heisenberg, list(range(2, 11)), 1, jobs=2)
        bounds = {r.m: r.certified_bound for r in rows}
        for m in range(2, 9):
            assert bounds[m + 2] >= bounds[m] - 1e-9

    def test_ordering_and_csv_row(self, heisenberg):
        rows = anderson_sweep(heisenberg, [4, 2, 3], 1, jobs=2)
        assert [r.m for r in rows] == [4, 2, 3]
        row = rows[0].csv_row("heisenberg")
        assert row["model"] == "heisenberg"
        assert row["m"] == 4

    def test_guarantee_covers_emin(self, heisenberg):
        for m in (2, 3, 6, 9):
            res = anderson_bound(heisenberg, m, 1)
            eps = res.guarantee_width
            assert res.certified_bound - 1e-9 <= EMIN <= res.certified_bound + eps + 1e-9
