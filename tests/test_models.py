import dataclasses
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import certground as cg
from certground import models
from certground.cli import run
from certground.models import (ModelSpec, PatchSpec, Sector, assembly_margin, build_patch,
                               builtin_model, charge_sectors, divide_down, embed_on_sites,
                               parse_model, patch_bonds, sign_gauge)
from tests.conftest import CHAIN, RING
from tests.oracles import as_csr, charge_blocks
from tests.test_marginal import _qutrit_model, _spin1_xxz


_I, _X, _Z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
_Y = np.array([[0.0, -1j], [1j, 0.0]])


class TestBuiltins:
    @pytest.mark.parametrize("name, params, expected", [
        ("heisenberg", [], 0.5 * (np.kron(_X, _X) + np.kron(_Y, _Y) + np.kron(_Z, _Z))),
        ("xxz", [0.5], 0.5 * (np.kron(_X, _X) + np.kron(_Y, _Y)) + 0.25 * np.kron(_Z, _Z)),
        ("tfim", [0.7], -np.kron(_Z, _Z) - 0.35 * (np.kron(_X, _I) + np.kron(_I, _X))),
    ], ids=["heisenberg", "xxz", "tfim"])
    def test_term_equals_kron_sum(self, name, params, expected):
        np.testing.assert_array_equal(builtin_model(name, params).term, expected)

    def test_xxz_delta_one_is_heisenberg(self):
        hm = builtin_model("heisenberg")
        xxz = builtin_model("xxz", [1.0])
        np.testing.assert_allclose(xxz.term, hm.term, atol=1e-14)

    def test_random_twosite_deterministic(self):
        a = builtin_model("random_twosite", [7.0])
        b = builtin_model("random_twosite", [7.0])
        np.testing.assert_array_equal(a.term, b.term)

    def test_random_twosite_hermitian_complex(self):
        m = builtin_model("random_twosite", [7.0])
        term = np.asarray(m.term)
        np.testing.assert_allclose(term, term.conj().T, atol=1e-12)
        assert not m.is_real

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_model("nope")


class TestTermDtype:
    # ModelSpec settles the term's dtype once: real unless an imaginary part reaches 1e-14
    def test_complex_term_with_zero_imaginary_part_is_stored_real(self):
        zz = np.kron(_Z, _Z)
        model = ModelSpec("zz", 2, 1, zz.astype(complex))
        assert model.term.dtype == np.float64 and model.is_real
        assert model.term.tobytes() == zz.tobytes()

    def test_negligible_imaginary_part_is_dropped(self):
        model = ModelSpec("zz", 2, 1, np.kron(_Z, _Z) + 1e-15 * np.kron(_X, _Y))
        assert model.term.dtype == np.float64 and model.is_real

    def test_complex_term_stays_complex(self):
        term = np.kron(_Z, _Z) + 0.3 * (np.kron(_X, _Y) - np.kron(_Y, _X))
        model = ModelSpec("dm", 2, 1, term)
        assert model.term.dtype == np.complex128 and not model.is_real
        assert model.term.tobytes() == term.tobytes()

    @pytest.mark.parametrize("name, params", [("heisenberg", []), ("xxz", [0.5]), ("tfim", [1.0])])
    def test_builtin_pauli_terms_are_real(self, name, params):
        assert builtin_model(name, params).term.dtype == np.float64


class TestTermSize:
    # max |entry| d^2 bonds must stay within 2^1000, with 2 bonds per site of
    # the largest patch the qubit cap admits (52 bonds at 26 qubits)
    def test_the_largest_admitted_entry(self, monkeypatch):
        monkeypatch.delenv("CERTGROUND_MAX_QUBITS", raising=False)
        top = 2.0 ** 1000 / (4 * 52)
        ModelSpec("zz", 2, 1, top * np.kron(_Z, _Z))
        with pytest.raises(ValueError, match="interaction term too large"):
            ModelSpec("zz", 2, 1, np.nextafter(top, np.inf) * np.kron(_Z, _Z))

    def test_complex_entries_are_measured_without_overflow(self):
        # |1.5e308 (1 + i)| is beyond the float range; the test must not warn
        with pytest.raises(ValueError, match="interaction term too large"):
            ModelSpec("big", 2, 1, 1.5e308 * np.diag([1 + 1j, 1 - 1j, 1 + 1j, 1 - 1j]))


class TestDimensions:
    def test_below_the_smallest_are_refused(self, capsys):
        # d >= 2 and D >= 1 for every model, builtin or from a file
        with pytest.raises(ValueError, match="need d >= 2 and D >= 1"):
            builtin_model("heisenberg", D=0)
        with pytest.raises(ValueError, match="need d >= 2 and D >= 1"):
            ModelSpec("one-level", 1, 1, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="need d >= 2 and D >= 1"):
            parse_model(json.dumps({"name": "x", "d": 2, "D": 0, "term": {
                "pauli_sum": [{"paulis": "ZZ", "coeff": 1.0}]}}))
        assert run(["anderson", "--model", "heisenberg", "--dim", "0", "--m", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need d >= 2 and D >= 1, got d = 2 and D = 0\n"
        assert captured.out == ""


class TestChargeBlocks:
    @pytest.mark.parametrize("make, n", [(lambda: builtin_model("xxz", [0.5]), 6),
                                         (lambda: builtin_model("xxz", [0.5]), 7),
                                         (_spin1_xxz, 4), (_spin1_xxz, 5)],
                             ids=["d2-n6", "d2-n7", "d3-n4", "d3-n5"])
    def test_blocks_match_the_oracle(self, make, n):
        model = make()
        d, top = model.d, (model.d - 1) * n
        want = [np.asarray(block) for block in charge_blocks(model, n)]
        got = models.charge_blocks(n, d, flip=False)
        assert len(got) == len(want) == top + 1
        assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))
        paired = models.charge_blocks(n, d, flip=True)
        assert len(paired) == top // 2 + 1
        for q, states in enumerate(paired):  # one block of each flip pair
            assert np.array_equal(states, want[q])
            assert np.array_equal(np.sort(d ** n - 1 - states), want[top - q])


class TestParseModel:
    def test_pauli_sum_matches_builtin(self):
        doc = json.dumps({"name": "h", "d": 2, "D": 1, "term": {"pauli_sum": [
            {"paulis": "XX", "coeff": 0.5}, {"paulis": "YY", "coeff": 0.5},
            {"paulis": "ZZ", "coeff": 0.5}]}})
        np.testing.assert_allclose(parse_model(doc).term,
                                   builtin_model("heisenberg").term, atol=1e-14)

    def test_duplicate_labels_add_up(self):
        def term(entries):
            return parse_model(json.dumps({"name": "xy", "d": 2, "D": 1, "term": {
                "pauli_sum": [{"paulis": p, "coeff": c} for p, c in entries]}})).term
        np.testing.assert_array_equal(term([("XY", 0.25), ("IZ", 1.0), ("XY", 0.5)]),
                                      term([("XY", 0.75), ("IZ", 1.0)]))

    def test_dense_diagonal(self):
        entries = [[0.0, 0.0]] * 16
        entries[0] = [1.0, 0.0]
        entries[15] = [1.0, 0.0]
        doc = json.dumps({"name": "zzlike", "d": 2, "D": 1,
                          "term": {"dense": entries}})
        m = parse_model(doc)
        np.testing.assert_allclose(np.asarray(m.term).real,
                                   np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-14)

    def test_non_finite_rejected(self):
        entries = [[0.0, 0.0]] * 16
        entries[5] = [float("nan"), 0.0]
        doc = json.dumps({"name": "nan", "d": 2, "D": 1,
                          "term": {"dense": entries}})
        with pytest.raises(ValueError, match="non-finite"):
            parse_model(doc)

    def test_non_hermitian_rejected(self):
        entries = [[0.0, 0.0]] * 16
        entries[1] = [1.0, 0.0]  # upper off-diagonal only
        doc = json.dumps({"name": "bad", "d": 2, "D": 1,
                          "term": {"dense": entries}})
        with pytest.raises(ValueError):
            parse_model(doc)

    def test_missing_field(self):
        with pytest.raises(ValueError):
            parse_model(json.dumps({"name": "x", "d": 2, "D": 1}))

    def test_invalid_json(self):
        with pytest.raises(ValueError):
            parse_model("{not json")


class TestPatch:
    def test_m2_spectrum(self, heisenberg):
        h = build_patch(heisenberg, PatchSpec(2)).toarray()
        assert h.shape == (4, 4)
        assert abs(np.linalg.eigvalsh(h)[0] - CHAIN[2]) < 1e-12

    def test_m3_lambda_min(self, heisenberg):
        h = build_patch(heisenberg, PatchSpec(3)).toarray()
        assert abs(np.linalg.eigvalsh(h)[0] - CHAIN[3]) < 1e-12

    def test_bond_counts(self):
        assert len(patch_bonds(PatchSpec(2))) == 1
        assert len(patch_bonds(PatchSpec(5))) == 4
        # open m x m grid: 2 m (m - 1) bonds
        assert len(patch_bonds(PatchSpec(3, 2))) == 12

    def test_ring_density(self, heisenberg):
        for n in (2, 3, 4, 6):
            h = build_patch(heisenberg, PatchSpec(n, 1, "periodic")).toarray()
            assert abs(np.linalg.eigvalsh(h)[0] / n - RING[n]) < 1e-10

    def test_cap_enforced(self, heisenberg, monkeypatch):
        monkeypatch.setenv("CERTGROUND_MAX_QUBITS", "4")
        with pytest.raises(ValueError):
            build_patch(heisenberg, PatchSpec(5))


def _spin_one_heisenberg(D=1):
    # S.S for spin 1 (d = 3): conserves the digit sum; only the U(1) test applies
    sz = np.diag([1.0, 0.0, -1.0])
    sp_ = np.sqrt(2.0) * np.eye(3, k=1)
    term = np.kron(sz, sz) + 0.5 * (np.kron(sp_, sp_.T) + np.kron(sp_.T, sp_))
    return parse_model(json.dumps({
        "name": "spin1", "d": 3, "D": D,
        "term": {"dense": [[float(x), 0.0] for x in term.ravel()]}}))


class TestChargeSectors:
    @pytest.mark.parametrize("make, count", [
        (lambda: builtin_model("xxz", [0.5]), 7),
        (_spin_one_heisenberg, 13),
    ], ids=["xxz", "spin1"])
    def test_u1_sectors_partition_a_block_diagonal_patch(self, make, count):
        model = make()
        sectors = charge_blocks(model, 6)
        assert len(sectors) == count
        label = np.empty(model.d ** 6, dtype=int)
        for k, idx in enumerate(sectors):
            assert np.all(np.diff(idx) > 0)
            label[idx] = k
        assert sorted(np.concatenate(sectors)) == list(range(model.d ** 6))
        rows, cols = as_csr(build_patch(model, PatchSpec(6))).nonzero()
        assert np.array_equal(label[rows], label[cols])

    def test_su2_term_keeps_the_middle_sector(self, heisenberg):
        (idx,) = charge_blocks(heisenberg, 7)
        assert len(idx) == 35  # C(7, 3)
        assert np.all(np.diff(idx) > 0)
        assert all(bin(i).count("1") == 3 for i in idx)

    @pytest.mark.parametrize("make, symmetries", [
        (lambda: builtin_model("heisenberg"), ("su2", "u1", "reflection", "flip")),
        (lambda: builtin_model("xxz", [0.5]), ("u1", "reflection", "flip")),
        (lambda: builtin_model("tfim", [1.0]), ("reflection", "flip")),
        (lambda: builtin_model("random_twosite", [3.0]), ()),
        (_spin_one_heisenberg, ("u1", "reflection", "flip")),
    ], ids=["heisenberg", "xxz", "tfim", "random_twosite", "spin1"])
    def test_term_symmetries(self, make, symmetries):
        # the structural tests that charge_sectors and the marginal SDP share
        assert make().symmetries == symmetries

    def test_flip_partners_are_solved_once(self):
        # xxz(0.5) at m = 15: blocks q and 15 - q have the same spectrum
        sectors = charge_sectors(builtin_model("xxz", [0.5]), 15)
        assert len(sectors) == 8
        assert [len(s) for s in sectors] == [1, 8, 56, 231, 693, 1512, 2520, 3235]

    def test_gauge_that_is_not_stoquastic_is_not_used(self):
        # XY - YX conserves the charge but is imaginary, gauged or not
        term = np.kron(_X, _Y) - np.kron(_Y, _X)
        model = parse_model(json.dumps({"name": "xy-yx", "d": 2, "D": 1, "term": {
            "dense": [[x.real, x.imag] for x in term.ravel()]}}))
        sectors = charge_sectors(model, 6)
        assert [s.symmetry for s in sectors] == [("u1",)] * 7
        assert sorted(np.concatenate(sectors)) == list(range(2 ** 6))

    def test_no_charge_gives_the_whole_space(self):
        for model in (builtin_model("tfim", [1.0]), builtin_model("random_twosite", [3.0])):
            (idx,) = charge_blocks(model, 5)
            assert np.array_equal(idx, np.arange(32))

    @pytest.mark.parametrize("make, n", [
        (lambda: builtin_model("random_twosite", [3.0]), 5),  # not stoquastic
        (lambda: builtin_model("heisenberg", D=2), 9),  # odd n: no self-paired block
        # d = 3: neither reflection (2D) nor flip (d != 2)
        (lambda: _spin_one_heisenberg(D=2), 4),
    ], ids=["random_twosite", "heisenberg-3x3", "spin1-2x2"])
    def test_unreduced_sectors_are_the_charge_blocks(self, make, n):
        # where no reflection or flip applies, charge_sectors returns the charge
        # blocks themselves, one of each flip pair
        model = make()
        sectors, blocks = charge_sectors(model, n), charge_blocks(model, n)
        assert 0 < len(sectors) <= len(blocks)
        for got, want in zip(sectors, blocks):
            assert got.symmetry == want.symmetry
            assert np.array_equal(got, want)


def _spin_one_field(D=1):
    # -Sz Sz - (Sx I + I Sx)/2 for spin 1 (d = 3): stoquastic and reflection
    # symmetric; Sx moves digit 1 to 0 or 2 but 0 and 2 only to 1
    sz = np.diag([1.0, 0.0, -1.0])
    sx = np.sqrt(0.5) * (np.eye(3, k=1) + np.eye(3, k=-1))
    term = -np.kron(sz, sz) - 0.5 * (np.kron(sx, np.eye(3)) + np.kron(np.eye(3), sx))
    return parse_model(json.dumps({
        "name": "spin1-field", "d": 3, "D": D,
        "term": {"dense": [[float(x), 0.0] for x in term.ravel()]}}))


def _ferromagnet():
    # -(XX + YY + ZZ)/2: SU(2) invariant and stoquastic
    return parse_model(json.dumps({"name": "ferromagnet", "d": 2, "D": 1, "term": {
        "pauli_sum": [{"paulis": p, "coeff": -0.5} for p in ("XX", "YY", "ZZ")]}}))


def _tfim_longitudinal():
    # stoquastic and reflection symmetric; the ZI + IZ field breaks the flip (a
    # dyadic field, so that the summed term is exactly symmetric)
    return parse_model(json.dumps({"name": "tfim-h", "d": 2, "D": 1, "term": {"pauli_sum": [
        {"paulis": "ZZ", "coeff": -1.0}, {"paulis": "XI", "coeff": -0.5},
        {"paulis": "IX", "coeff": -0.5}, {"paulis": "ZI", "coeff": -0.25},
        {"paulis": "IZ", "coeff": -0.25}]}}))


ASSEMBLY_MODELS = {
    "heisenberg": lambda: builtin_model("heisenberg"),
    "xxz": lambda: builtin_model("xxz", [0.5]),
    "tfim": lambda: builtin_model("tfim", [1.0]),
    "random_twosite": lambda: builtin_model("random_twosite", [3.0]),
    "spin1": _spin_one_heisenberg,
    "ferromagnet": _ferromagnet,
}
PATCHES = [PatchSpec(m) for m in range(2, 10)] + [PatchSpec(2, 2), PatchSpec(3, 2)]


def _lambda_min(model, patch):
    """Smallest eigenvalue over the reduced sectors, each block diagonalized densely."""
    sectors = charge_sectors(model, patch.sites)
    return min(np.linalg.eigvalsh(build_patch(model, patch, s).toarray())[0] for s in sectors)


def _orbit_sum_block(model, patch, sector):
    """P^T H P in extended precision: H the bond sum of the embedded term, P
    the normalized orbit sums of the sector's states under its reflection
    (1D) and flip (d = 2)."""
    n = patch.sites
    full = sum(embed_on_sites(np.asarray(model.term), bond, n, model.d).toarray()
               .astype(np.longdouble) for bond in patch_bonds(patch))
    basis = np.zeros((2 ** n, len(sector)), dtype=np.longdouble)
    for j, s in enumerate(int(s) for s in sector):
        orbit = {s}
        if "reflection" in sector.symmetry:
            orbit |= {int(format(t, f"0{n}b")[::-1], 2) for t in orbit}
        if "flip" in sector.symmetry:
            orbit |= {2 ** n - 1 - t for t in orbit}
        basis[sorted(orbit), j] = 1 / np.sqrt(np.longdouble(len(orbit)))
    return basis.T @ full @ basis


def _repeated_entries(h) -> int:
    """Stored entries whose (row, column) an earlier entry of the row holds."""
    rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
    return h.nnz - len(np.unique(rows * h.shape[1] + h.indices))


class TestSectorAssembly:
    @pytest.mark.parametrize("patch", PATCHES, ids=lambda p: f"{p.m}^{p.D}")
    @pytest.mark.parametrize("name", ASSEMBLY_MODELS)
    def test_block_equals_sliced_full_patch(self, name, patch):
        model = ASSEMBLY_MODELS[name]()
        full = as_csr(build_patch(model, patch))
        for idx in charge_blocks(model, patch.sites):
            block = build_patch(model, patch, idx)
            assert np.array_equal(block.toarray(), full[idx][:, idx].toarray())

    @pytest.mark.parametrize("shape", [(p.m, p.D, p.boundary) for p in PATCHES]
                             + [(2, 1, "periodic"), (5, 1, "periodic"), (3, 2, "periodic")],
                             ids=lambda shape: "{}^{}-{}".format(*shape))
    @pytest.mark.parametrize("name", ASSEMBLY_MODELS)
    def test_whole_patch_equals_the_bond_sum(self, name, shape):
        if shape == (3, 2, "periodic"):  # periodic patches are rings: none is built in 2D
            with pytest.raises(ValueError, match="ring"):
                PatchSpec(*shape)
            return
        # reference: the term embedded on every bond and summed, in bond order
        model, patch = ASSEMBLY_MODELS[name](), PatchSpec(*shape)
        term = np.asarray(model.term)
        ref = sum(embed_on_sites(term, bond, patch.sites, model.d)
                  for bond in patch_bonds(patch))
        assert abs(as_csr(build_patch(model, patch)) - ref).max() < 1e-13

    @pytest.mark.parametrize("patch", PATCHES, ids=lambda p: f"{p.m}^{p.D}")
    @pytest.mark.parametrize("make", [lambda: builtin_model("tfim", [0.3]),
                                      lambda: builtin_model("tfim", [1.0]),
                                      lambda: builtin_model("tfim", [2.0]),
                                      _ferromagnet, _tfim_longitudinal],
                             ids=["tfim(0.3)", "tfim(1)", "tfim(2)", "ferromagnet", "tfim-h"])
    def test_symmetric_sector_keeps_lambda_min(self, make, patch):
        model = dataclasses.replace(make(), D=patch.D)
        ref = np.linalg.eigvalsh(build_patch(model, patch).toarray())[0]
        assert abs(_lambda_min(model, patch) - ref) < 1e-10

    @pytest.mark.parametrize("patch", [PatchSpec(m) for m in range(2, 7)] + [PatchSpec(2, 2)],
                             ids=lambda p: f"{p.m}^{p.D}")
    def test_one_site_moves_of_unequal_count(self, patch):
        # d = 3, where digit 1 has two one-site moves and digits 0 and 2 one:
        # the second pass covers only the states whose digit there is 1
        model = _spin_one_field(D=patch.D)
        term = np.asarray(model.term)
        ref = sum(embed_on_sites(term, bond, patch.sites, 3) for bond in patch_bonds(patch))
        assert abs(as_csr(build_patch(model, patch)) - ref).max() < 1e-13
        (sector,) = charge_sectors(model, patch.sites)
        assert sector.symmetry == (("reflection",) if patch.D == 1 else ())
        assert abs(_lambda_min(model, patch)
                   - np.linalg.eigvalsh(ref.toarray())[0]) < 1e-10

    @pytest.mark.parametrize("make, n, D, symmetry, dim", [
        # orbits of reflection x flip on 2^8 states: (256 + 16 + 0 + 16) / 4
        (lambda: builtin_model("tfim", [1.0]), 8, 1, ("reflection", "flip"), 72),
        # odd n: no state is fixed by the flip or by reflection x flip
        (lambda: builtin_model("tfim", [1.0]), 13, 1, ("reflection", "flip"), 2080),
        (lambda: builtin_model("tfim", [1.0], D=2), 9, 2, ("flip",), 256),
        # positive off-diagonal entries: not stoquastic, so not reduced
        (lambda: builtin_model("tfim", [-1.0]), 8, 1, (), 256),
        (_tfim_longitudinal, 8, 1, ("reflection",), 136),  # (256 + 16) / 2
        # the middle S^z block maps to itself under the flip only for even n:
        # (C(8, 4) + 6 palindromes + 0 + 16) / 4 and (C(7, 3) + 3 palindromes) / 2
        (_ferromagnet, 8, 1, ("su2", "reflection", "flip"), 23),
        (_ferromagnet, 7, 1, ("su2", "reflection"), 19),
        # the same orbits of the gauged antiferromagnet's middle block
        (lambda: builtin_model("heisenberg"), 8, 1, ("su2", "sign_gauge", "reflection", "flip"),
         23),
        (lambda: builtin_model("heisenberg"), 8, None, ("su2",), 70),  # charge_blocks
        # 2D: the flip only; the 3x3 middle block does not map to itself
        (lambda: builtin_model("heisenberg", D=2), 16, 2, ("su2", "sign_gauge", "flip"), 6435),
        (lambda: builtin_model("heisenberg", D=2), 9, 2, ("su2",), 126),
    ], ids=["tfim", "tfim-odd", "tfim-2d", "tfim(-1)", "tfim-h", "ferro-even", "ferro-odd",
            "heisenberg", "heisenberg-charge", "heisenberg-4x4", "heisenberg-3x3"])
    def test_reductions(self, make, n, D, symmetry, dim):
        model = make()
        (sector,) = charge_sectors(model, n) if D else charge_blocks(model, n)
        assert sector.symmetry == symmetry
        assert len(sector) == dim
        assert np.all(np.diff(sector) > 0)

    def test_non_dyadic_field_keeps_reflection(self):
        # -ZZ - (XI + IX)/2 - 0.15 (ZI + IZ): summed entry by entry with a
        # correctly rounded sum, the mirrored diagonal entries agree bitwise
        model = parse_model(json.dumps({"name": "tfim-h", "d": 2, "D": 1, "term": {
            "pauli_sum": [{"paulis": p, "coeff": c} for p, c in (
                ("ZZ", -1.0), ("XI", -0.5), ("IX", -0.5), ("ZI", -0.15), ("IZ", -0.15))]}}))
        (sector,) = charge_sectors(model, 8)
        assert sector.symmetry == ("reflection",)

    def test_margin_covers_the_assembly_rounding(self):
        # the symmetric block against P^T H P over explicit orbit sums, in
        # extended precision; on the 3 x 3 patch (flip only) the middle site's
        # one-site coefficient sums four bonds
        for patch in (PatchSpec(7), PatchSpec(3, 2)):
            model = builtin_model("tfim", [0.3], D=patch.D)
            (sector,) = charge_sectors(model, patch.sites)
            error = np.linalg.norm((build_patch(model, patch, sector).toarray()
                                    - _orbit_sum_block(model, patch, sector)).astype(float), 2)
            margin = assembly_margin(model, patch, sector)
            assert 0 < error <= margin < 1e-12

    def test_repeated_columns_sum_to_the_orbit_sum_block(self):
        # states fixed by reflection reach one representative from two
        # mirrored sites; the row keeps both entries, which toarray and the
        # matvec add up
        model, patch = builtin_model("tfim", [1.0]), PatchSpec(8)
        (sector,) = charge_sectors(model, 8)
        assert sector.symmetry == ("reflection", "flip")
        block = build_patch(model, patch, sector)
        assert _repeated_entries(block) > 0
        exact = _orbit_sum_block(model, patch, sector)
        margin = assembly_margin(model, patch, sector)
        assert float(np.max(np.abs(block.toarray() - exact))) <= margin
        v = np.random.default_rng(0).standard_normal(len(sector))
        assert float(np.linalg.norm(block @ v - (exact @ v).astype(float))) <= (
            margin * np.linalg.norm(v) + 1e-13)

    @pytest.mark.parametrize("make, patch, reduced", [
        (lambda: builtin_model("heisenberg"), PatchSpec(9), True),  # gauged, reflection
        (lambda: builtin_model("tfim", [1.0]), PatchSpec(8), True),  # reflection x flip
        (lambda: builtin_model("tfim", [1.0], D=2), PatchSpec(3, 2), True),  # flip
        (lambda: builtin_model("random_twosite", [3.0]), PatchSpec(8), True),  # whole space
        (lambda: builtin_model("xxz", [0.5]), PatchSpec(9), False),  # charge blocks
        (lambda: builtin_model("heisenberg", D=2), PatchSpec(3, 2), False),
    ], ids=["heisenberg", "tfim", "tfim-3x3", "random_twosite", "xxz-charge",
            "heisenberg-3x3-charge"])
    def test_assembly_neither_sorts_nor_merges(self, monkeypatch, make, patch, reduced):
        # rows are written once, in no particular column order; without a
        # reduction by reflection or flip, no row stores a column twice
        def refuse(self, *args, **kwargs):
            raise AssertionError("build_patch sorted or merged its entries")

        monkeypatch.setattr(sp.csr_matrix, "sum_duplicates", refuse)
        monkeypatch.setattr(sp.csr_matrix, "sort_indices", refuse)
        model = make()
        for sector in (charge_sectors(model, patch.sites) if reduced
                       else charge_blocks(model, patch.sites)):
            block = build_patch(model, patch, sector)
            if not {"reflection", "flip"} & set(getattr(sector, "symmetry", ())):
                assert _repeated_entries(block) == 0

    def test_dyadic_charge_blocks_are_exact(self):
        for name in ("heisenberg", "xxz"):
            model = ASSEMBLY_MODELS[name]()
            for sector in charge_blocks(model, 9):
                assert assembly_margin(model, PatchSpec(9), sector) == 0.0

    @pytest.mark.parametrize("patch", [PatchSpec(7), PatchSpec(8), PatchSpec(3, 2)],
                             ids=lambda p: f"{p.m}^{p.D}")
    @pytest.mark.parametrize("name", ["heisenberg", "xxz", "spin1"])
    def test_gauged_block_is_the_sign_conjugated_block(self, name, patch):
        # U B U with U = (-1)^(digits on the sublattice of even r + c), entry for entry
        model = ASSEMBLY_MODELS[name]()
        n, d = patch.sites, model.d
        even = [s for s in range(n) if sum(divmod(s, patch.m)) % 2 == 0]
        digits = np.arange(d ** n)[:, None] // d ** (n - 1 - np.array(even)) % d
        for states in charge_blocks(model, n):
            gauged = states.view(Sector)
            gauged.symmetry = states.symmetry + ("sign_gauge",)
            u = 1 - 2 * (digits[states].sum(axis=1) % 2)
            block = build_patch(model, patch, states).toarray()
            assert np.array_equal(build_patch(model, patch, gauged).toarray(),
                                  u[:, None] * block * u[None, :])

    def test_gauged_sector_needs_an_open_patch(self, heisenberg):
        (sector,) = charge_sectors(heisenberg, 6)
        assert "sign_gauge" in sector.symmetry
        with pytest.raises(ValueError, match="open"):
            build_patch(heisenberg, PatchSpec(6, 1, "periodic"), sector)

    def test_sector_assembly_stays_far_below_the_full_patch(self, heisenberg):
        # the full 2^18 CSR: 2^18 diagonal entries and one flip-flop per
        # antiparallel neighbour pair, 17 * 2^17, with 4-byte indices; the block
        # is the gauged S^z = 0 sector under reflection x flip, (C(18, 9) + 2^9) / 4
        full_bytes = (2 ** 18 + 17 * 2 ** 17) * 12 + (2 ** 18 + 1) * 4
        tracemalloc.start()
        try:
            (sector,) = charge_sectors(heisenberg, 18)
            block = build_patch(heisenberg, PatchSpec(18), sector)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
        assert block.shape == (12283, 12283)
        assert peak < 3 * block_bytes
        assert peak < full_bytes / 2


def _fresh_facts(model) -> dict:
    """Every fact `ModelSpec` caches, recomputed from an independent copy of
    its term the way `charge_sectors`, `build_patch` and `anderson_bound`
    derived them per call."""
    term, d = np.array(model.term), model.d
    symmetries = models._symmetries(term, d)
    tested, gauge, reductions = term, (), ()
    if ("u1" in symmetries and not models._stoquastic(term)
            and models._stoquastic(sign_gauge(term, d))):
        tested, gauge = sign_gauge(term, d), ("sign_gauge",)
    if models._stoquastic(tested):
        reductions = gauge + tuple(name for name in ("reflection", "flip")
                                   if name in models._symmetries(tested, d))
    return {"symmetries": symmetries, "reductions": reductions,
            "norm": float(np.max(np.abs(np.linalg.eigvalsh(term)))),
            "tables": {False: models._patch_tables(term, d),
                       True: models._patch_tables(sign_gauge(term, d), d)}}


FACT_MODELS = {
    **{f"{name}-D{D}": (lambda name=name, params=params, D=D: builtin_model(name, params, D))
       for name, params in [("heisenberg", []), ("xxz", [0.5]), ("tfim", [1.0]),
                            ("random_twosite", [3.0])] for D in (1, 2)},
    "spin1-xxz": _spin1_xxz,
    "qutrit": _qutrit_model,
}


class TestModelFacts:
    @pytest.mark.parametrize("name", list(FACT_MODELS) + ["heisenberg", "zz_model", "zero_model"])
    def test_cached_facts_equal_a_fresh_computation(self, name, request):
        model = FACT_MODELS[name]() if name in FACT_MODELS else request.getfixturevalue(name)
        patch = PatchSpec(4) if model.D == 1 else PatchSpec(2, 2)
        for sector in charge_sectors(model, patch.sites):  # fill the cache first
            build_patch(model, patch, sector)
        norm = model.norm
        fresh = _fresh_facts(model)
        assert model.symmetries == fresh["symmetries"]
        assert model.reductions == fresh["reductions"]
        assert norm == model.norm == fresh["norm"]
        for gauged in (False, True):
            (*arrays, moves, outs), (*expected, fresh_moves, fresh_outs) = (
                model.tables[gauged], fresh["tables"][gauged])
            for got, want in zip(arrays, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
            assert moves == fresh_moves and outs == fresh_outs

    def test_term_is_a_read_only_copy(self):
        term = np.kron(_Z, _Z)
        model = cg.ModelSpec("zz", 2, 1, term)
        with pytest.raises(ValueError):
            model.term[0, 0] = 2.0
        term[0, 0] = 2.0  # the caller's array stays writable and apart
        assert model.term[0, 0] == 1.0

    def test_a_sweep_tests_the_term_once_plain_and_once_gauged(self, capsys, monkeypatch):
        tested = []
        symmetries = models._symmetries

        def counted(term, d):
            tested.append(np.array(term))
            return symmetries(term, d)

        monkeypatch.setattr(models, "_symmetries", counted)
        assert run(["sweep", "--method", "anderson", "--model", "heisenberg", "--m", "2..8"]) == 0
        capsys.readouterr()
        heisenberg = builtin_model("heisenberg")
        assert len(tested) == 2
        assert np.array_equal(tested[0], heisenberg.term)
        assert np.array_equal(tested[1], sign_gauge(heisenberg.term, 2))


class TestOperatorNorm:
    def test_heisenberg(self, heisenberg):
        assert abs(heisenberg.norm - 1.5) < 1e-12

    def test_zero(self, zero_model):
        assert zero_model.norm == 0.0

    def test_homogeneity(self, heisenberg):
        import dataclasses
        scaled = dataclasses.replace(heisenberg, term=3.0 * np.asarray(heisenberg.term))
        assert abs(scaled.norm - 3.0 * heisenberg.norm) < 1e-10


class TestDivideDown:
    @pytest.mark.parametrize("x, n", [(-1.0, 3), (1.0, 3), (-3.0, 2), (0.0, 7),
                                      (-6.749865198244971, 7), (-5e-324, 3)])
    def test_largest_float_at_most_the_quotient(self, x, n):
        q = divide_down(x, n)
        assert Fraction(q) <= Fraction(x) / n < Fraction(np.nextafter(q, np.inf))

    def test_exact_and_rounded_down_quotients_are_kept(self):
        # -3/2 is exact and 1/3 rounds down, so both stay fl(x / n)
        assert divide_down(-3.0, 2) == -1.5
        assert divide_down(1.0, 3) == 1.0 / 3
        assert divide_down(-1.0, 3) == np.nextafter(-1.0 / 3, -np.inf)


class TestEmbed:
    def test_single_site(self):
        z = np.diag([1.0, -1.0])
        e = embed_on_sites(z, (0,), 2).toarray()
        np.testing.assert_allclose(e, np.kron(z, np.eye(2)), atol=1e-14)

    def test_swapped_positions(self, heisenberg):
        h = np.asarray(heisenberg.term)
        swap = np.eye(4)[[0, 2, 1, 3]]
        a = embed_on_sites(h, (0, 1), 2).toarray()
        b = embed_on_sites(h, (1, 0), 2).toarray()
        np.testing.assert_allclose(b, swap @ a @ swap, atol=1e-13)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 4))
        h = (b + b.T) / 2
        e = embed_on_sites(h, (1, 3), 5)
        assert abs(e.diagonal().sum() - np.trace(h) * 2 ** 3) < 1e-10
