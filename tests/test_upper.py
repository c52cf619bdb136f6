import numpy as np
import pytest

import certground as cg
from certground.upper import SandwichReport, product_state_upper, ring_reference
from tests.conftest import EMIN, RING


class TestProductState:
    def test_zz_neel_exact(self, zz_model):
        assert abs(product_state_upper(zz_model, restarts=8, seed=0) + 1.0) < 1e-10

    def test_heisenberg_value(self, heisenberg):
        # the best two-site-periodic product value for (XX+YY+ZZ)/2 is -1/2
        # (frozen from a Bloch-sphere grid search run before the build)
        up = product_state_upper(heisenberg, restarts=8, seed=0)
        assert abs(up + 0.5) < 1e-9

    def test_upper_bounds_emin(self, heisenberg):
        assert product_state_upper(heisenberg, restarts=8, seed=0) >= EMIN

    def test_zero_model(self, zero_model):
        assert abs(product_state_upper(zero_model, restarts=2, seed=0)) < 1e-12

    def test_seed_deterministic(self, heisenberg):
        a = product_state_upper(heisenberg, restarts=4, seed=5)
        b = product_state_upper(heisenberg, restarts=4, seed=5)
        assert a == b

    def test_complex_model(self):
        model = cg.builtin_model("random_twosite", [3.0])
        up = product_state_upper(model, restarts=8, seed=0)
        # any upper bound must sit above a valid certified lower bound
        low = cg.anderson_bound(model, 6, 1).certified_bound
        assert low <= up + 1e-9

    def test_2d_doubles_bond_value(self, heisenberg):
        import dataclasses
        h2d = dataclasses.replace(heisenberg, D=2)
        up1 = product_state_upper(heisenberg, restarts=8, seed=0)
        up2 = product_state_upper(h2d, restarts=8, seed=0)
        assert abs(up2 - 2.0 * up1) < 1e-9


class TestRingReference:
    def test_n2(self, heisenberg):
        assert abs(ring_reference(heisenberg, 2) - RING[2]) < 1e-10

    def test_n4(self, heisenberg):
        assert abs(ring_reference(heisenberg, 4) - RING[4]) < 1e-10

    def test_n16_near_limit(self, heisenberg):
        v = ring_reference(heisenberg, 16)
        assert v < EMIN  # finite even rings approach e_min from below
        assert v > EMIN - 0.05

    def test_cap(self, heisenberg):
        with pytest.raises(ValueError):
            ring_reference(heisenberg, 30)


class TestSandwichReport:
    def test_picks_best_certified(self):
        rows = [
            {"method": "anderson", "bound": -1.0, "certified": True},
            {"method": "marginal", "bound": -0.9, "certified": True},
            {"method": "wrap", "bound": -0.5, "certified": False},
        ]
        rep = SandwichReport.from_rows("m", rows, upper=-0.3)
        assert rep.lower == -0.9
        assert rep.lower_method == "marginal"
        assert abs(rep.width - 0.6) < 1e-15

    def test_requires_certified_row(self):
        with pytest.raises(ValueError):
            SandwichReport.from_rows("m", [{"method": "x", "bound": -1.0,
                                            "certified": False}], upper=0.0)

    def test_rejects_a_row_without_the_flag(self):
        rows = [{"method": "anderson", "bound": -1.0, "certified": True},
                {"method": "moment", "bound": -0.9}]
        with pytest.raises(ValueError, match="'certified' flag"):
            SandwichReport.from_rows("m", rows, upper=-0.3)
