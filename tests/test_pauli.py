import numpy as np
import pytest

from certground.models import ModelSpec, embed_on_sites
from certground.moment import ti_moment_bound
from certground.pauli import (PauliString, all_strings, canonicalize, dagger,
                              hermitian_class, labels_to_dense, multiply,
                              string_to_dense)


def rand_string(rng, width):
    return PauliString(width, int(rng.integers(0, 2 ** width)),
                       int(rng.integers(0, 2 ** width)), int(rng.integers(0, 4)))


def every_string(width):
    """All 4^width strings of one width, each with all four phases."""
    for x in range(1 << width):
        for z in range(1 << width):
            for phase in range(4):
                yield PauliString(width, x, z, phase)


def assert_same_string(result, expected):
    # the unchecked constructor gives what the validating one gives
    assert type(result) is PauliString
    assert vars(result) == vars(expected)
    assert all(type(v) is int for v in vars(result).values())
    assert result == expected
    assert hash(result) == hash(expected)


class TestKernel:
    # multiply and dagger build their result without PauliString's checks
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_multiply_matches_validated_construction(self, width):
        strings = list(every_string(width))
        for p in strings:
            for q in strings:
                # the phase is left unreduced: the validating constructor reduces it
                phase = p.phase_exp + q.phase_exp + 2 * (p.z_mask & q.x_mask).bit_count()
                assert_same_string(multiply(p, q), PauliString(
                    width, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask, phase))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_dagger_matches_validated_construction(self, width):
        for p in every_string(width):
            phase = -p.phase_exp + 2 * (p.x_mask & p.z_mask).bit_count()
            assert_same_string(dagger(p), PauliString(width, p.x_mask, p.z_mask, phase))

    def test_multiply_rejects_a_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            multiply(PauliString.identity(2), PauliString.identity(3))

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_hermitian_class_matches_canonicalize(self, width):
        for p in every_string(width):
            _, c = canonicalize(p)
            residue = (c.phase_exp - (c.x_mask & c.z_mask).bit_count()) % 4
            key, factor = hermitian_class(p)
            assert key == (c.width, c.x_mask, c.z_mask)
            assert repr(factor) == repr(1j ** residue)  # the sign of a zero part too


class TestMultiply:
    def test_xz_single_qubit(self):
        # X . Z = -i Y  (Y = i X Z, so X Z = -i Y)
        p = multiply(PauliString.from_label("X"), PauliString.from_label("Z"))
        y = PauliString.from_label("Y")
        assert (p.x_mask, p.z_mask) == (y.x_mask, y.z_mask)
        np.testing.assert_allclose(string_to_dense(p),
                                   -1j * string_to_dense(y), atol=1e-14)

    def test_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rand_string(rng, 3)
            q = multiply(PauliString.identity(3), p)
            assert q == p

    def test_involution(self):
        p = PauliString.from_label("XZ")
        q = multiply(p, p)
        assert q.is_identity()
        assert q.phase_exp == 0

    def test_against_dense(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p, q = rand_string(rng, 3), rand_string(rng, 3)
            np.testing.assert_allclose(
                string_to_dense(multiply(p, q)),
                string_to_dense(p) @ string_to_dense(q), atol=1e-13)


class TestDagger:
    def test_hermitian_pauli(self):
        y = PauliString.from_label("Y")
        assert dagger(y) == y

    def test_phase_conjugation(self):
        ix = PauliString.from_label("X", phase_exp=1)  # i X
        assert dagger(ix) == PauliString.from_label("X", phase_exp=3)  # -i X

    def test_antihomomorphism(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p, q = rand_string(rng, 3), rand_string(rng, 3)
            assert dagger(multiply(p, q)) == multiply(dagger(q), dagger(p))

    def test_against_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rand_string(rng, 3)
            np.testing.assert_allclose(string_to_dense(dagger(p)),
                                       string_to_dense(p).conj().T, atol=1e-14)


def placed(label, sites, total):
    """The string `label` placed on the listed ring sites, as a dense matrix."""
    return embed_on_sites(string_to_dense(PauliString.from_label(label)),
                          sites, total).toarray()


class TestTranslate:
    # the moment oracle shifts window strings along the ring by placing them
    # on shifted sites with embed_on_sites
    def test_shift(self):
        np.testing.assert_array_equal(placed("X", [2], 4),
                                      string_to_dense(PauliString.from_label("IIXI")))

    def test_zero_shift(self):
        np.testing.assert_array_equal(placed("XYZI", [0, 1, 2, 3], 4),
                                      string_to_dense(PauliString.from_label("XYZI")))

    def test_periodic_wrap(self):
        # a window placed across the ring's end
        np.testing.assert_array_equal(placed("ZXY", [3, 0, 1], 4),
                                      string_to_dense(PauliString.from_label("XYIZ")))

    def test_open_overflow_raises(self):
        with pytest.raises(ValueError):
            placed("XZ", [3, 4], 4)


class TestCanonicalize:
    def test_single_site(self):
        off, can = canonicalize(PauliString.from_label("IIIZI"))
        assert off == 3
        assert can == PauliString.from_label("Z")

    def test_identity(self):
        off, can = canonicalize(PauliString.identity(5))
        assert off == 0
        assert can.is_identity()

    def test_two_site(self):
        off, can = canonicalize(PauliString.from_label("IIXY"))
        assert off == 2
        assert can == PauliString.from_label("XY")

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = rand_string(rng, 4)
            _, can = canonicalize(p)
            shifted = PauliString(5, p.x_mask << 1, p.z_mask << 1, p.phase_exp)
            _, can2 = canonicalize(shifted)
            assert can == can2


class TestHermitianClass:
    def test_translates_share_class(self):
        k1, f1 = hermitian_class(PauliString.from_label("ZI"))
        k2, f2 = hermitian_class(PauliString.from_label("IZ"))
        assert k1 == k2
        assert f1 == f2 == 1.0

    def test_antihermitian_factor(self):
        # i Z is the standard Hermitian Z times i
        _, f = hermitian_class(PauliString.from_label("Z", phase_exp=1))
        assert f == 1j


class TestDense:
    def test_z(self):
        np.testing.assert_array_equal(
            string_to_dense(PauliString.from_label("Z")), np.diag([1.0, -1.0]))

    def test_x(self):
        np.testing.assert_array_equal(
            string_to_dense(PauliString.from_label("X")),
            np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_y(self):
        np.testing.assert_allclose(
            string_to_dense(PauliString.from_label("Y")),
            np.array([[0.0, -1j], [1j, 0.0]]), atol=1e-15)

    def test_kron_order(self):
        # site 0 is the leftmost tensor factor
        np.testing.assert_allclose(
            string_to_dense(PauliString.from_label("ZX")),
            np.kron(string_to_dense(PauliString.from_label("Z")),
                    string_to_dense(PauliString.from_label("X"))), atol=1e-14)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rand_string(rng, 4)
            sites = rng.permutation(4)  # factor k of p acts on site sites[k]
            x = sum(((p.x_mask >> k) & 1) << int(s) for k, s in enumerate(sites))
            z = sum(((p.z_mask >> k) & 1) << int(s) for k, s in enumerate(sites))
            np.testing.assert_allclose(embed_on_sites(string_to_dense(p), sites, 4).toarray(),
                                       string_to_dense(PauliString(4, x, z, p.phase_exp)),
                                       atol=1e-14)


class TestPauliSum:
    def test_heisenberg_spectrum(self):
        h = labels_to_dense([(0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-1.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_merge_and_drop(self):
        h = labels_to_dense([(1.0, "XX"), (-1.0, "XX"), (2.0, "ZI")])
        np.testing.assert_array_equal(h, 2.0 * np.kron(np.diag([1.0, -1.0]), np.eye(2)))

    @pytest.mark.parametrize("pairs", [
        [(0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")],
        [(0.5, "XX"), (0.5, "YY"), (0.5 * 0.3, "ZZ")],
        [(-1.0, "ZZ"), (-0.5 * 0.3, "XI"), (-0.5 * 0.3, "IX")],
        [(-1.0, "ZZ"), (-0.5 * 2.0, "XI"), (-0.5 * 2.0, "IX")]],
        ids=["heisenberg", "xxz", "tfim(0.3)", "tfim(2)"])
    def test_builtin_terms_unchanged(self, pairs):
        # the builtin sums are exact in any order, so the correctly rounded
        # sum gives the bits of the plain left-to-right sum
        plain = np.zeros((4, 4), dtype=complex)
        for c, label in pairs:
            plain += c * string_to_dense(PauliString.from_label(label))
        assert labels_to_dense(pairs).tobytes() == plain.tobytes()

    def test_sum_does_not_depend_on_order(self):
        pairs = [(-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX"), (-0.15, "ZI"), (-0.15, "IZ")]
        h = labels_to_dense(pairs)
        # the plain sum gives 1 - 0.15 + 0.15 = 0.9999999999999999 at |10>
        assert h[1, 1] == h[2, 2] == 1.0
        assert labels_to_dense(pairs[::-1]).tobytes() == h.tobytes()
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(swap @ h @ swap, h)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            ModelSpec("iz", 2, 1, labels_to_dense([(1j, "ZI")]))

    def test_bad_label(self):
        with pytest.raises(ValueError, match="invalid Pauli label"):
            labels_to_dense([(1.0, "XQ")])
        with pytest.raises(ValueError):
            labels_to_dense([(1.0, "XX"), (1.0, "Z")])


class TestDecompose:
    def test_identity(self):
        # the identity term has energy 1 on every state
        bound = ti_moment_bound(ModelSpec("id", 2, 1, np.eye(4)), 2).lower
        assert 1.0 - 1e-8 <= bound <= 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (b + b.conj().T) / 2
            pairs = [(np.trace(string_to_dense(p) @ h).real / 4, p.label)
                     for p in all_strings(2)]
            np.testing.assert_allclose(labels_to_dense(pairs), h, atol=1e-12)


def test_all_strings_count():
    assert len(list(all_strings(2))) == 16
