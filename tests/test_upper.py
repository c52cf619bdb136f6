import dataclasses
import json

import numpy as np
import pytest

import certground as cg
from certground.models import parse_model
from certground.upper import MAX_RESTARTS, product_state_upper, ring_reference
from tests.conftest import EMIN, RING
from tests.oracles import product_state_upper_serial


def _complex_qutrit():
    # a random complex d = 3 term from a model file
    a = np.random.default_rng(5).standard_normal((9, 9, 2)) @ [1.0, 1j]
    term = (a + a.conj().T) / 2
    return parse_model(json.dumps({
        "name": "complex-qutrit", "d": 3, "D": 1,
        "term": {"dense": [[float(x.real), float(x.imag)] for x in term.ravel()]}}))


REFERENCE_MODELS = {
    "heisenberg": lambda: cg.builtin_model("heisenberg"),
    "xxz": lambda: cg.builtin_model("xxz", [0.5]),
    "tfim": lambda: cg.builtin_model("tfim", [1.0]),
    "random_twosite": lambda: cg.builtin_model("random_twosite", [3.0]),
    "complex-qutrit": _complex_qutrit,
}


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

    @pytest.mark.parametrize("restarts", [0, -5, MAX_RESTARTS + 1])
    def test_restarts_must_be_at_least_one(self, heisenberg, restarts):
        # and at most MAX_RESTARTS: every batch array holds restarts x d^2 entries
        with pytest.raises(ValueError, match=f"at least 1 and at most {MAX_RESTARTS}"):
            product_state_upper(heisenberg, restarts=restarts)

    @pytest.mark.parametrize("name", list(REFERENCE_MODELS))
    @pytest.mark.parametrize("D", [1, 2])
    def test_batch_matches_serial_reference(self, name, D):
        model = dataclasses.replace(REFERENCE_MODELS[name](), D=D)
        for seed in range(4):
            for restarts in (1, 3, 8):
                got = product_state_upper(model, restarts=restarts, seed=seed)
                want = product_state_upper_serial(model, restarts=restarts, seed=seed)
                assert abs(got - want) <= 1e-14, (seed, restarts)

    def test_seed_deterministic(self, heisenberg):
        a = product_state_upper(heisenberg, restarts=4, seed=5)
        b = product_state_upper(heisenberg, restarts=4, seed=5)
        assert a == b

    def test_complex_model(self):
        model = cg.builtin_model("random_twosite", [3.0])
        up = product_state_upper(model, restarts=8, seed=0)
        # any upper bound must sit above a valid certified lower bound
        low = cg.anderson_bound(model, 6).lower
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

