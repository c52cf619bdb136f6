import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import certground as cg
from certground import cli, marginal, models, sdp
from certground.marginal import (MarginalProblemSpec, _basis_size, _blocks, _request_bytes,
                                 _window_pairs, boundary_sites, build_marginal_sdp,
                                 charge_basis, crossing_sites, improved_anderson_bound,
                                 reduction, window_basis)
from certground.models import (PatchSpec, build_patch, embed_on_sites, exact_sums,
                               parse_model, pauli_term, state_charges)
from certground.upper import ring_reference
from tests.conftest import CHAIN, EMIN, RING
from tests.oracles import as_csr, partial_trace


class TestPartialTrace:
    def test_product_state(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(partial_trace(rho, (1,)),
                                   np.diag([0.0, 1.0]), atol=1e-14)

    def test_keep_all(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((8, 8))
        rho = b @ b.T
        np.testing.assert_allclose(partial_trace(rho, (0, 1, 2)), rho, atol=1e-12)

    def test_bell_marginal(self):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = np.outer(v, v)
        np.testing.assert_allclose(partial_trace(rho, (0,)),
                                   np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = b @ b.conj().T
        assert abs(np.trace(partial_trace(rho, (1, 3))) - np.trace(rho)) < 1e-10


class TestGeometry:
    def test_boundary_sites(self):
        assert boundary_sites(5, 1) == [4, 0]
        assert boundary_sites(6, 2) == [4, 5, 0, 1]

    def test_crossing_sites(self):
        assert crossing_sites(2, "middle") == (1, 2)
        assert crossing_sites(2, "literal_last") == (2, 3)

    @pytest.mark.parametrize("seed", range(4))
    def test_window_pairs_match_the_quadratic_definition(self, seed):
        # every pair of states whose digits agree off the sites, by an n x n
        # comparison, in row-major order; subsets of up to 256 states,
        # windows in any site order
        rng = np.random.default_rng(seed)
        for _ in range(40):
            d = int(rng.integers(2, 4))
            m = int(rng.integers(2, 9 if d == 2 else 6))
            sites = list(rng.permutation(m)[:rng.integers(1, m + 1)])
            states = np.sort(rng.choice(d ** m, size=int(rng.integers(1, d ** m + 1)),
                                        replace=False))
            strides = d ** (m - 1 - np.asarray(sites))
            digits = states[:, None] // strides % d
            local = digits @ d ** np.arange(len(sites) - 1, -1, -1)
            rest = states - digits @ strides
            i, j = np.nonzero(rest[:, None] == rest[None, :])
            got = _window_pairs(states, sites, m, d)
            for g, want in zip(got, (i, j, local[i], local[j])):
                assert g.dtype == want.dtype and np.array_equal(g, want)

    def test_spec_validation(self, heisenberg):
        with pytest.raises(ValueError):
            MarginalProblemSpec(heisenberg, 3, 2, "consecutive", "middle")
        with pytest.raises(ValueError):
            MarginalProblemSpec(heisenberg, 4, 1, "nope", "middle")


def _qutrit_model():
    # a real d = 3 dense term
    b = np.random.default_rng(7).standard_normal((9, 9))
    term = (b + b.T) / 2
    return parse_model(json.dumps({
        "name": "qutrit", "d": 3, "D": 1,
        "term": {"dense": [[float(x), 0.0] for x in term.ravel()]}}))


def _dense_model(name, term):
    return parse_model(json.dumps({
        "name": name, "d": int(round(np.sqrt(term.shape[0]))), "D": 1,
        "term": {"dense": [[float(x.real), float(x.imag)] for x in term.ravel()]}}))


def _dm_model():
    # XX + YY plus a Dzyaloshinskii-Moriya term: complex, charge conserving,
    # and odd under the flip
    return _dense_model("xx+dm", pauli_term(
        [(0.5, "XX"), (0.5, "YY"), (0.3, "XY"), (-0.3, "YX")]))


def _spin1_xxz():
    # S.S with an anisotropy on spin 1: d = 3, charge conserving, flip symmetric
    sz = np.diag([1.0, 0.0, -1.0])
    sp_ = np.sqrt(2.0) * np.eye(3, k=1)
    return _dense_model("spin1-xxz", 0.7 * np.kron(sz, sz)
                        + 0.5 * (np.kron(sp_, sp_.T) + np.kron(sp_.T, sp_)))


def _complex_qutrit():
    # a random complex d = 3 term, restricted to conserve the charge and
    # symmetrized under the flip
    a = np.random.default_rng(5).standard_normal((9, 9, 2)) @ [1.0, 1j]
    term = (a + a.conj().T) / 2
    charge = np.add.outer(np.arange(3), np.arange(3)).ravel()
    term[charge[:, None] != charge[None, :]] = 0
    return _dense_model("complex-qutrit", (term + term[::-1, ::-1]) / 2)


def _rows_by_window(spec):
    """The rows of the unreduced consecutive-mode problem on the whole d^m
    space, as embed_on_sites differences: every window product but the
    identity on window 1, then on each later window the products whose last
    factor is not the identity."""
    d, m, w = spec.model.d, spec.m, 2 * spec.s
    basis, ends_in_identity = window_basis(d, w, spec.model.is_real)
    expect = []
    for k in range(1, m - w + 1) if spec.mode == "consecutive" else ():
        ops = basis[1:] if k == 1 else basis[~ends_in_identity]
        for B in ops:
            diff = (embed_on_sites(B, range(k, k + w), m, d)
                    - embed_on_sites(B, range(w), m, d)).toarray()
            expect.append(diff.real if spec.model.is_real else diff)
    return expect


def _full_objective(spec):
    """The objective on the whole d^m space: h_m plus the crossing term."""
    model, m, s = spec.model, spec.m, spec.s
    first = boundary_sites(m, s) if spec.mode == "wrap" else list(range(2 * s))
    cross = embed_on_sites(np.asarray(model.term),
                           [first[j] for j in crossing_sites(s, spec.placement)], m, model.d)
    return (as_csr(build_patch(model, PatchSpec(m, 1, "open"))) + cross).toarray()


def _unreduced_density(spec):
    """The bound of the one-block SDP over omega on the whole d^m space."""
    objective = _full_objective(spec)
    dim = objective.shape[0]
    blocks = [np.eye(dim)] + _rows_by_window(spec)
    C, tb = _as_solved(spec, objective), 1.0
    b = np.zeros(len(blocks))
    b[0] = 1.0
    prob = sdp.SdpProblem([C.shape[0]], [C], [np.stack(blocks)], b)
    sol = sdp.solve(prob)
    assert sol.gap <= 1e-6 and sol.feas_primal <= 1e-6
    return sdp.dual_lower_bound(prob, sol, trace_bounds=(tb,)) / spec.m


def _block_states(prob, spec):
    """The sorted basis states of each SDP block, charge 0 first."""
    m, d = spec.m, spec.model.d
    if not reduction(spec.model):
        return [np.arange(d ** m)]
    charge = state_charges(m, d)
    return [np.flatnonzero(charge == q) for q in range(len(prob.blocks))]


class TestBuildSdp:
    def test_constraint_count_real(self, heisenberg):
        # heisenberg conserves the charge and is flip symmetric: the charge
        # blocks 0, 1 stand for 4, 3 (weight 2) and block 2 is self-paired.
        # 1 trace row and the flip-even invariant rows ZZ and s+s- + s-s+ on
        # the second and third window; the flip-odd IZ and ZI need no row
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        assert prob.n_constraints == 5
        assert prob.blocks == [1, 4, 6]

    def test_constraint_count_complex(self):
        model = cg.builtin_model("random_twosite", [3.0])
        prob = build_marginal_sdp(
            MarginalProblemSpec(model, 4, 1, "consecutive", "middle"))
        assert prob.n_constraints == 28  # 1 trace + 15 + 12
        assert prob.blocks == [16]   # one complex Hermitian block

    def test_constraint_rows_real(self, heisenberg):
        # each row is the restriction to a block of lift_{W_k}(B) - lift_{W_0}(B)
        # for a flip-even invariant B, times the block's weight; the objective
        # charges the crossing bond to the first window
        spec = MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle")
        prob = build_marginal_sdp(spec)
        ops, ends_in_identity = window_basis(2, 2, True, ("u1", "flip"))
        lifts = [np.eye(16)]
        lifts += [embed_on_sites(B, [k, k + 1], 4).toarray()
                  - embed_on_sites(B, [0, 1], 4).toarray()
                  for k, group in ((1, np.arange(1, len(ops))),
                                   (2, np.flatnonzero(~ends_in_identity)))
                  for B in ops[group]]
        assert prob.n_constraints == len(lifts) == 5
        objective = _full_objective(spec).real
        for states, a, c, weight in zip(_block_states(prob, spec), prob.A, prob.C, (2, 2, 1)):
            sub = np.ix_(states, states)
            np.testing.assert_array_equal(c, weight * objective[sub])
            for row, lift in zip(a, lifts):
                np.testing.assert_array_equal(row, weight * lift[sub])
        np.testing.assert_array_equal(prob.b, [1.0] + [0.0] * 4)

    def test_constraint_rows_complex(self):
        spec = MarginalProblemSpec(cg.builtin_model("random_twosite", [3.0]), 4, 1)
        prob = build_marginal_sdp(spec)
        expect = _rows_by_window(spec)
        assert prob.n_constraints == 1 + len(expect)
        for row, ref in zip(prob.A[0][1:], expect):
            np.testing.assert_array_equal(row, ref)
        np.testing.assert_array_equal(prob.A[0][0], np.eye(16))

    @pytest.mark.parametrize("m, s", [(4, 1), (5, 1), (5, 2)])
    def test_uncharged_rows_match_site_embedding(self, m, s):
        # a model without a charge is the trivial group, one block: its rows
        # are bit for bit the sparse site embeddings of the window operators
        spec = MarginalProblemSpec(cg.builtin_model("random_twosite", [3.0]), m, s)
        prob = build_marginal_sdp(spec)
        assert len(prob.blocks) == 1
        expect = _rows_by_window(spec)
        assert prob.n_constraints == 1 + len(expect)
        for row, ref in zip(prob.A[0][1:], expect):
            assert row.tobytes() == ref.tobytes()

    def test_kronecker_rows_match_site_embedding(self, heisenberg):
        # the builder gathers each operator's entries on the pairs of block
        # states that agree off the window; the sparse site embedding,
        # restricted to the block, gives the same bits
        spec = MarginalProblemSpec(heisenberg, 5, 2, "consecutive", "middle")
        prob = build_marginal_sdp(spec)
        ops, _ = window_basis(2, 4, True, ("u1", "flip"))
        assert prob.n_constraints == len(ops) == 23
        assert prob.blocks == [1, 5, 10]
        for states, a in zip(_block_states(prob, spec), prob.A):
            sub = np.ix_(states, states)
            for row, B in zip(a[1:], ops[1:]):
                ref = 2.0 * (embed_on_sites(B, range(1, 5), 5)
                             - embed_on_sites(B, range(4), 5)).toarray()[sub]
                assert row.tobytes() == ref.tobytes()

    def test_window_basis_is_kronecker_products(self):
        # without a symmetry the operators are P + P^T for each product
        # P = kron(one[a], one[b]) of charge_basis elements (P alone when
        # symmetric), then for complex terms i(P - P^T) for each P != P^T:
        # d^2 (d^2 + 1) / 2 real symmetric and d^4 Hermitian operators
        for d, real in ((2, True), (2, False), (3, True), (3, False)):
            one, _ = charge_basis(d)
            n = d * d
            flat = one.reshape(n, -1)
            transpose = [int(np.flatnonzero(np.all(flat == B.T.ravel(), axis=1))[0])
                         for B in one]
            pairs = [(a, b) for a in range(n) for b in range(n)
                     if (a, b) <= (transpose[a], transpose[b])]
            products = [np.kron(one[a], one[b]) for a, b in pairs]
            expect = [P if np.array_equal(P, P.T) else P + P.T for P in products]
            ends = [b == 0 for _, b in pairs]
            if not real:
                asym = [k for k, P in enumerate(products) if not np.array_equal(P, P.T)]
                expect += [1j * (products[k] - products[k].T) for k in asym]
                ends += [pairs[k][1] == 0 for k in asym]
            basis, ends_in_identity = window_basis(d, 2, real)
            assert len(basis) == (n * (n + 1) // 2 if real else n * n)
            np.testing.assert_array_equal(basis, np.array(expect))
            np.testing.assert_array_equal(ends_in_identity, ends)

    @pytest.mark.parametrize("d, real, symmetry, count", [
        (2, True, ("u1",), 43), (2, True, ("u1", "flip"), 23),
        (2, False, ("u1", "flip"), 35), (3, True, ("u1", "flip"), 8)])
    def test_invariant_window_basis(self, d, real, symmetry, count):
        # the operators commute with the charge, are symmetric (Hermitian),
        # are flip-even under "flip", are linearly independent and span every
        # such operator: the real symmetric (Hermitian) matrices on each
        # charge block of the window, dimension sum n_q (n_q + 1) / 2 (n_q^2).
        # The flip-even ones are fixed by one block of each pair q, top - q
        # and, on the self-paired block, commute with the flip: for d = 2 on 4
        # sites 1 + 10 + 12 (1 + 16 + 18), for d = 3 on 2 sites 1 + 3 + 4
        sites = 4 if d == 2 else 2
        ops, ends_in_identity = window_basis(d, sites, real, symmetry)
        assert len(ops) == count
        np.testing.assert_allclose(ops[0], np.eye(d ** sites) / np.sqrt(d) ** sites,
                                   rtol=1e-15)
        charge = np.diag(state_charges(sites, d)).astype(float)
        flip = np.eye(d ** sites)[::-1]
        for B in ops:
            np.testing.assert_allclose(B @ charge, charge @ B, atol=1e-14)
            np.testing.assert_allclose(B.conj().T, B, atol=1e-14)
            if "flip" in symmetry:
                np.testing.assert_allclose(flip @ B @ flip, B, atol=1e-14)
        flat = ops.reshape(len(ops), -1)
        flat = np.hstack([flat.real, flat.imag])
        assert np.linalg.matrix_rank(flat) == len(ops)
        last = ops.reshape(len(ops), d ** (sites - 1), d, d ** (sites - 1), d)
        for B, end in zip(last, ends_in_identity):
            rest = np.einsum("iaja->ij", B) / d
            expect = np.einsum("ij,ab->iajb", rest, np.eye(d))
            assert np.allclose(B, expect, atol=1e-14) == end

    @pytest.mark.parametrize("d, real", [(2, True), (2, False), (3, True), (3, False)])
    def test_site_basis(self, d, real):
        # the one-site operators the rows are built from: I/sqrt(d), the other
        # charge_basis diagonals, E_ij + E_ji per pair i < j and, for complex
        # terms, i(E_ij - E_ji) per pair; they span the real symmetric
        # (Hermitian) operators of one site
        one, ends_in_identity = window_basis(d, 1, real)
        count = d * (d + 1) // 2 if real else d * d
        assert one.shape == (count, d, d)
        assert one.dtype == (float if real else complex)
        np.testing.assert_allclose(one[0] * np.sqrt(d), np.eye(d), atol=1e-15)
        np.testing.assert_array_equal(ends_in_identity, np.arange(count) == 0)
        flat = one.reshape(count, -1)
        assert np.linalg.matrix_rank(np.concatenate([flat.real, flat.imag], axis=1)) == count
        np.testing.assert_array_equal(one.conj().transpose(0, 2, 1), one)
        # orthogonal but for I/sqrt(d) against the flip-even diagonals, as in
        # charge_basis; unit norm but for sqrt(2) on the off-diagonal pairs
        gram = np.einsum("aij,bij->ab", one.conj(), one).real
        even = np.zeros((count, count), dtype=bool)
        even[0, d // 2 + 1:d] = even[d // 2 + 1:d, 0] = True
        norms = np.where(np.arange(count) < d, 1.0, 2.0)
        np.testing.assert_allclose(np.where(even, 0.0, gram), np.diag(norms), atol=1e-15)
        # d(d - 1)/2 imaginary elements for complex terms, none for real ones
        imaginary = np.any(one.imag != 0, axis=(1, 2))
        assert imaginary.sum() == (0 if real else d * (d - 1) // 2)
        assert not np.any(one.real[imaginary]) and not np.any(one.imag[~imaginary])
        # the nonzero entries of each element share one magnitude
        mags = np.abs(flat)
        assert np.all((mags == 0) | (mags == mags.max(axis=1, keepdims=True)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_charge_basis(self, d):
        one, charge = charge_basis(d)
        assert one.shape == (d * d, d, d) and one.dtype == float
        np.testing.assert_allclose(one[0] * np.sqrt(d), np.eye(d), atol=1e-15)
        assert np.linalg.matrix_rank(one.reshape(d * d, -1)) == d * d
        # unit elements, orthogonal but for I/sqrt(d) against the flip-even
        # diagonals (e_k + e_{d-1-k}) / sqrt(2) and e_{(d-1)/2}, so orthonormal
        # for d = 2 alone
        gram = np.einsum("aij,bij->ab", one, one)
        even = np.zeros((d * d, d * d), dtype=bool)
        even[0, d // 2 + 1:d] = even[d // 2 + 1:d, 0] = True
        np.testing.assert_allclose(np.where(even, 0.0, gram), np.eye(d * d), atol=1e-15)
        assert np.all(gram[even] > 0) and even.any() == (d > 2)
        # the nonzero entries of each element share one magnitude, so every
        # row built from their products is exact
        mags = np.abs(one).reshape(d * d, -1)
        assert np.all((mags == 0) | (mags == mags.max(axis=1, keepdims=True)))
        digits = np.diag(np.arange(d)).astype(float)
        for B, q in zip(one, charge):  # [N, B] = q B
            np.testing.assert_allclose(digits @ B - B @ digits, q * B, atol=1e-15)
            assert np.any(np.all(one == B[::-1, ::-1], axis=(1, 2))
                          | np.all(one == -B[::-1, ::-1], axis=(1, 2)))

    @pytest.mark.parametrize("model", ["heisenberg", "xxz", "random_twosite", "qutrit",
                                       "xx+dm", "spin1", "complex-qutrit"])
    @pytest.mark.parametrize("mode", ["consecutive", "wrap"])
    def test_full_row_rank(self, heisenberg, model, mode):
        # the rows are independent by construction, so the solver never has
        # to prune; the rows of every block are stacked, and every m <= 7
        # whose constraint tensor stays small is checked
        model = {"heisenberg": heisenberg, "xxz": cg.builtin_model("xxz", [0.5]),
                 "qutrit": _qutrit_model(), "xx+dm": _dm_model(), "spin1": _spin1_xxz(),
                 "complex-qutrit": _complex_qutrit(),
                 "random_twosite": cg.builtin_model("random_twosite", [3.0])}[model]
        d, checked = model.d, 0
        for m in range(2, 8):
            if m * np.log2(d) > 8:  # d = 3: m <= 5
                continue
            for s in range(1, m // 2 + 1):
                nbytes = (8 if model.is_real else 16) * d ** (2 * m)  # one row of a d^m block
                if not reduction(model) and (1 + (m - 2 * s) * d ** (4 * s)) * nbytes > 128e6:
                    continue  # before the spec, which refuses the largest of these
                spec = MarginalProblemSpec(model, m, s, mode, "middle")
                prob = build_marginal_sdp(spec)
                # rank over the reals: a complex row as its (Re, Im) pairs
                K = np.hstack([a.reshape(prob.n_constraints, -1).view(float) for a in prob.A])
                gram = np.linalg.eigvalsh(K @ K.T)
                assert gram[0] > 1e-8 * gram[-1], (m, s)
                checked += 1
        assert checked >= 5

    def test_window_marginals_agree(self, heisenberg):
        # omega, reassembled from its charge blocks and their flip partners,
        # has one marginal on all three 2-site windows
        spec = MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle")
        prob = build_marginal_sdp(spec)
        X = sdp.solve(prob).X
        omega = np.zeros((16, 16))
        for states, x, weight in zip(_block_states(prob, spec), X, (2, 2, 1)):
            omega[np.ix_(states, states)] = x
            if weight == 2:  # the flip partner, its states in reversed order
                omega[np.ix_(15 - states, 15 - states)] = x
        assert abs(np.trace(omega) - 1.0) < 1e-8
        first = partial_trace(omega, [0, 1])
        for win in ([1, 2], [2, 3]):
            np.testing.assert_allclose(partial_trace(omega, win), first, atol=1e-7)

    @pytest.mark.parametrize("name, m, s", [
        ("heisenberg", 4, 1), ("heisenberg", 5, 2), ("heisenberg", 6, 1),
        ("heisenberg", 6, 2), ("xxz", 5, 2), ("xxz", 6, 2)])
    @pytest.mark.parametrize("mode", ["consecutive", "wrap"])
    @pytest.mark.parametrize("placement", ["middle", "literal_last"])
    def test_reduced_optimum_matches_unreduced(self, name, m, s, mode, placement):
        # averaging omega over the charge rotations and the flip loses nothing,
        # also at even m, whose self-paired block meets no flip-odd row
        model = cg.builtin_model(name, [0.5] if name == "xxz" else [])
        spec = MarginalProblemSpec(model, m, s, mode, placement)
        res = improved_anderson_bound(spec)
        assert res.diagnostics["symmetry"] == ["u1", "flip"]
        assert abs(res.lower - _unreduced_density(spec)) < 1e-9

    @pytest.mark.parametrize("make, m, s, blocks, symmetry", [
        (_dm_model, 4, 1, [1, 4, 6, 4, 1], ["u1"]),
        (_spin1_xxz, 4, 1, [1, 4, 10, 16, 19], ["u1", "flip"]),
        (_complex_qutrit, 3, 1, [1, 3, 6, 7], ["u1", "flip"])],
        ids=["xx+dm", "spin1-xxz", "complex-qutrit"])
    def test_dense_model_file_is_reduced(self, make, m, s, blocks, symmetry):
        # a complex charge-conserving term has one Hermitian block per charge; the
        # flip-odd DM term keeps every charge block, the flip-symmetric terms
        # merge them
        spec = MarginalProblemSpec(make(), m, s)
        res = improved_anderson_bound(spec)
        assert res.diagnostics["blocks"] == blocks
        assert res.diagnostics["symmetry"] == symmetry
        assert abs(res.lower - _unreduced_density(spec)) < 1e-9

    def test_certified_bound_is_tight_against_the_solver(self, heisenberg):
        # the certificate reads only the dual vector; at an optimal solve it
        # sits just below both of the solver's objectives
        prob = build_marginal_sdp(
            MarginalProblemSpec(heisenberg, 4, 1, "consecutive", "middle"))
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        z = sdp.dual_lower_bound(prob, sol, trace_bounds=[1.0 / a[0, 0, 0] for a in prob.A])
        assert z <= min(sol.dual_obj, sol.primal_obj)
        assert max(sol.dual_obj, sol.primal_obj) - z < 1e-8

    def test_wrap_m2_reduction(self, heisenberg):
        # m = 2, s = 1 wrap: sigma is omega with swapped factors, so the
        # problem is min tr(omega [h + swap h swap]) over states
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, 2, 1, "wrap", "middle"))
        h = np.asarray(heisenberg.term).real
        swap = np.eye(4)[[0, 2, 1, 3]]
        expect = np.linalg.eigvalsh(h + swap @ h @ swap)[0]
        assert abs(res.diagnostics["z"] - expect) < 1e-7


def _as_solved(spec, objective):
    """A full-space objective as the SDP sees it: real, or complex Hermitian."""
    return objective.real if spec.model.is_real else objective


def _two_sum_error(x, y):
    """The rounding error of fl(x + y), exactly (Knuth's TwoSum)."""
    s = x + y
    bp = s - x
    return (x - (s - bp)) + (y - bp)


_OBJECTIVE_CASES = [
    ("heisenberg", 5, 2, "consecutive", "middle"),
    ("heisenberg", 5, 2, "consecutive", "literal_last"),
    ("heisenberg", 5, 1, "wrap", "middle"),
    ("heisenberg", 6, 2, "wrap", "literal_last"),
    ("heisenberg", 2, 1, "wrap", "middle"),
    ("random_twosite", 4, 2, "consecutive", "middle"),
    ("random_twosite", 4, 1, "wrap", "middle"),
    ("qutrit", 4, 1, "consecutive", "middle"),
    ("spin1-xxz", 4, 1, "wrap", "literal_last"),
    ("complex-qutrit", 3, 1, "consecutive", "middle")]


def _objective_model(name):
    return {"heisenberg": lambda: cg.builtin_model("heisenberg"),
            "random_twosite": lambda: cg.builtin_model("random_twosite", [3.0]),
            "qutrit": _qutrit_model, "spin1-xxz": _spin1_xxz,
            "complex-qutrit": _complex_qutrit}[name]()


class TestObjective:
    @pytest.mark.parametrize("name, m, s, mode, placement", _OBJECTIVE_CASES)
    def test_blocks_match_the_full_objective(self, name, m, s, mode, placement):
        # each C block is the block's weight times the full-space objective
        # (build_patch plus the sparse crossing term) on the block's states:
        # bit for bit when the term's sums are exact, else both are within
        # gamma_m S of the exact block, S the bond-by-bond sum of |Re h| + |Im h|
        spec = MarginalProblemSpec(_objective_model(name), m, s, mode, placement)
        h = np.asarray(spec.model.term)
        weight = np.abs(h.real) + np.abs(h.imag)
        reference = _as_solved(spec, _full_objective(spec))
        bound = _as_solved(spec, _full_objective(
            dataclasses.replace(spec, model=_dense_model("weight", weight))))
        gamma = sdp._gamma(m)
        prob = build_marginal_sdp(spec)
        blocks = _blocks(m, spec.model.d, reduction(spec.model))
        assert len(blocks) == len(prob.C)
        for (states, w), c in zip(blocks, prob.C):
            sub = np.ix_(states, states)
            expect = w * reference[sub]
            if exact_sums(h, m):
                assert c.tobytes() == expect.tobytes()
            else:
                assert np.all(np.abs(c - expect) <= 2 * gamma * w * np.abs(bound[sub]))

    def test_needs_no_patch_or_site_embedding(self, monkeypatch):
        # the objective is gathered from the block's states, not cut from
        # build_patch blocks and a d^m crossing operator
        def refuse(*args, **kwargs):
            raise AssertionError("not expected in the marginal SDP build")

        monkeypatch.setattr(marginal, "build_patch", refuse)
        monkeypatch.setattr(marginal, "embed_on_sites", refuse)
        for name, m, s, mode, placement in _OBJECTIVE_CASES:
            spec = MarginalProblemSpec(_objective_model(name), m, s, mode, placement)
            assert build_marginal_sdp(spec).n_constraints >= 1

    def test_module_keeps_the_traced_names(self):
        # the benchmark tracer (perfbench/tracing.py) wraps
        # certground.marginal.build_patch and .embed_on_sites by name: the
        # imports are unused by the builder but must stay
        assert marginal.build_patch is models.build_patch
        assert marginal.embed_on_sites is models.embed_on_sites


class TestAssemblyMargin:
    @pytest.mark.parametrize("model, m, s", [
        (cg.builtin_model("heisenberg"), 6, 1), (cg.builtin_model("xxz", [0.5]), 5, 2),
        (cg.builtin_model("tfim", [1.0]), 5, 2)], ids=["heisenberg", "xxz", "tfim"])
    def test_dyadic_terms_pay_nothing(self, model, m, s):
        res = improved_anderson_bound(MarginalProblemSpec(model, m, s))
        assert res.diagnostics["assembly_margin"] == 0.0

    def test_random_term_pays_a_small_margin(self):
        spec = MarginalProblemSpec(cg.builtin_model("random_twosite", [3.0]), 4, 2)
        res = improved_anderson_bound(spec)
        margin = res.diagnostics["assembly_margin"]
        assert 0 < margin < 1e-13
        # the certificate of the assembled SDP, lowered by the margin
        prob = build_marginal_sdp(spec)
        sol = sdp.solve(prob)
        z = sdp.dual_lower_bound(prob, sol,
                                 trace_bounds=[1.0 / a[0, 0, 0].real for a in prob.A])
        assert res.diagnostics["z"] == float(np.nextafter(z - margin, -np.inf))
        # z / m rounded down: the largest float at most the exact quotient
        exact = Fraction(res.diagnostics["z"]) / spec.m
        assert Fraction(res.lower) <= exact < Fraction(
            np.nextafter(res.lower, np.inf))

    @pytest.mark.parametrize("model, m, s", [
        (cg.builtin_model("heisenberg"), 5, 2), (cg.builtin_model("heisenberg"), 7, 2),
        (cg.builtin_model("xxz", [0.5]), 5, 2)], ids=["heisenberg-5", "heisenberg-7", "xxz"])
    def test_density_is_rounded_down(self, model, m, s):
        # fl(z / m) lies above z / m here; the bound takes the float below it
        res = improved_anderson_bound(MarginalProblemSpec(model, m, s))
        assert Fraction(res.diagnostics["z"] / m) > Fraction(res.diagnostics["z"]) / m
        assert Fraction(res.lower) <= Fraction(res.diagnostics["z"]) / m
        assert res.lower == np.nextafter(res.diagnostics["z"] / m, -np.inf)

    @pytest.mark.parametrize("make, m, s", [
        (lambda: cg.builtin_model("heisenberg"), 6, 2),
        (lambda: cg.builtin_model("random_twosite", [3.0]), 4, 1),
        (lambda: cg.builtin_model("tfim", [1.0]), 5, 2),
        (_spin1_xxz, 4, 1), (_complex_qutrit, 3, 1), (_dm_model, 4, 1), (_qutrit_model, 4, 1)],
        ids=["heisenberg", "random_twosite", "tfim", "spin1-xxz", "complex-qutrit",
             "xx+dm", "qutrit"])
    def test_rows_are_exact_differences_on_uniform_bases(self, make, m, s):
        # a row entry on a pair that both W_0 and a later window reach is the
        # difference of two window operator entries; the charge_basis elements
        # have entries of one magnitude, so it is exact for every d, with or
        # without a charge
        spec = MarginalProblemSpec(make(), m, s)
        d, real, symmetry = spec.model.d, spec.model.is_real, reduction(spec.model)
        ops, _ = window_basis(d, 2 * s, real, symmetry)
        windows = [list(range(k, k + 2 * s)) for k in range(m - 2 * s + 1)]
        worst = 0.0
        for states, _ in _blocks(m, d, symmetry):
            i0, j0, a0, b0 = _window_pairs(states, windows[0], m, d)
            first = {(p, q): k for k, (p, q) in enumerate(zip(i0, j0))}
            for win in windows[1:]:
                i, j, a, b = _window_pairs(states, win, m, d)
                both = [(k, first[p, q]) for k, (p, q) in enumerate(zip(i, j))
                        if (p, q) in first]
                k, k0 = np.array(both).T
                x, y = ops[:, a[k], b[k]], -ops[:, a0[k0], b0[k0]]
                for part in (np.real, np.imag):
                    worst = max(worst, np.abs(_two_sum_error(part(x), part(y))).max())
        assert worst == 0


class TestBounds:
    def test_m3_s1_bracket(self, heisenberg):
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, 3, 1, "consecutive", "middle"))
        low = (CHAIN[3] - 1.5) / 3.0
        assert low - 1e-7 <= res.lower <= EMIN + 1e-7

    def test_single_window_is_min_eig(self, heisenberg):
        # 2s = m and wrap mode have one window: only the trace row is left,
        # so the bound is the smallest eigenvalue of the full objective
        for spec in (MarginalProblemSpec(heisenberg, 4, 2, "consecutive", "middle"),
                     MarginalProblemSpec(heisenberg, 5, 1, "wrap", "middle")):
            prob = build_marginal_sdp(spec)
            assert prob.n_constraints == 1
            z = improved_anderson_bound(spec).diagnostics["z"]
            assert abs(z - np.linalg.eigvalsh(_full_objective(spec).real)[0]) < 1e-7

    @pytest.mark.parametrize("m, s, density", [
        (4, 1, -1.0), (4, 2, -1.0),
        (5, 1, RING[6]), (5, 2, RING[6]), (6, 1, RING[6])])
    def test_frozen_consecutive_densities(self, heisenberg, m, s, density):
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, m, s, "consecutive", "middle"))
        assert abs(res.lower - density) < 1e-8

    def test_wrap_sigma_elimination_m2(self, heisenberg):
        res = improved_anderson_bound(
            MarginalProblemSpec(heisenberg, 2, 1, "wrap", "middle"))
        assert abs(res.diagnostics["z"] + 3.0) < 1e-6
        assert abs(res.lower + 1.5) < 1e-6

    def test_wrap_matches_ring(self, heisenberg):
        for m in (3, 4, 5):
            res = improved_anderson_bound(
                MarginalProblemSpec(heisenberg, m, 1, "wrap", "middle"))
            assert abs(res.lower - RING[m]) < 1e-6

    def test_complex_model_bound(self):
        model = cg.builtin_model("random_twosite", [3.0])
        res = improved_anderson_bound(
            MarginalProblemSpec(model, 4, 1, "consecutive", "middle"))
        # valid lower bound: must sit below any small ring density
        assert res.lower <= ring_reference(model, 6) + 1e-7


class TestSolverPath:
    @pytest.fixture
    def no_scipy_linalg(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.linalg inside the solve")

        for name in ("cho_factor", "cho_solve", "qr"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", forbidden)

    @pytest.mark.parametrize("model, params, m, s", [
        ("heisenberg", [], 5, 2), ("heisenberg", [], 6, 1),
        ("random_twosite", [3.0], 4, 1), ("random_twosite", [3.0], 4, 2)])
    def test_full_rank_solves_on_numpy_alone(self, no_scipy_linalg, model, params, m, s):
        # every factorization and inverse of the iteration goes through
        # numpy.linalg, and with independent rows nothing is pruned
        prob = build_marginal_sdp(MarginalProblemSpec(cg.builtin_model(model, params), m, s))
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert "pruned_constraints" not in sol.diagnostics

    def test_m7_s2_reaches_optimal(self, heisenberg):
        # the (7, 2) solve used to stall at a primal residual of about 2e-9
        res = improved_anderson_bound(MarginalProblemSpec(heisenberg, 7, 2))
        assert res.diagnostics["status"] == "optimal"
        assert res.diagnostics["stalled"] is False
        assert res.diagnostics["pruned_constraints"] == 0
        assert abs(res.lower - (-0.91277335224)) < 1e-9


    def test_m8_s2_solves_on_small_blocks(self, heisenberg):
        # blocks of at most C(8, 4) = 70 states instead of one of 256: the
        # constraint tensor is a few MB instead of 286 MB
        spec = MarginalProblemSpec(heisenberg, 8, 2)
        prob = build_marginal_sdp(spec)
        assert prob.blocks == [1, 8, 28, 56, 70]
        assert sum(a.nbytes for a in prob.A) < 50e6
        res = improved_anderson_bound(spec)
        assert res.diagnostics["status"] == "optimal"
        assert abs(res.lower - (-0.91277335224)) < 1e-9


class TestRequestSize:
    @pytest.mark.parametrize("d, sites", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1),
                                          (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_basis_size_counts_the_window_basis(self, d, sites):
        # the operators on `sites` sites, and those whose last factor is the
        # identity: the basis on one site fewer
        for real in (True, False):
            for symmetry in ((), ("u1",), ("u1", "flip")):
                ops, ends_in_identity = window_basis(d, sites, real, symmetry)
                assert _basis_size(d, sites, real, symmetry) == len(ops)
                if sites > 1:
                    assert _basis_size(d, sites - 1, real, symmetry) == ends_in_identity.sum()

    @pytest.mark.parametrize("make, m, s, mode", [
        (lambda: cg.builtin_model("heisenberg"), 6, 2, "consecutive"),
        (lambda: cg.builtin_model("heisenberg"), 4, 2, "consecutive"),
        (lambda: cg.builtin_model("heisenberg"), 6, 1, "wrap"),
        (lambda: cg.builtin_model("xxz", [0.5]), 7, 2, "consecutive"),
        (lambda: cg.builtin_model("tfim", [1.0]), 5, 2, "consecutive"),
        (lambda: cg.builtin_model("random_twosite", [3.0]), 5, 2, "consecutive"),
        (_qutrit_model, 4, 1, "consecutive"),
        (_spin1_xxz, 5, 1, "consecutive")],
        ids=["heisenberg", "heisenberg-m=2s", "heisenberg-wrap", "xxz", "tfim",
             "random_twosite", "qutrit", "spin1-xxz"])
    def test_request_bytes_are_the_window_products_and_A(self, monkeypatch, make, m, s, mode):
        # A to the byte, and one real d^2s x d^2s matrix per charge-conserving
        # word when the window basis is built, which happens at most once; then
        # what the solve adds: a P as large as A's largest block, four n x n
        # matrices per block (X, S and their factors) and the m x m Schur complement
        spec = MarginalProblemSpec(make(), m, s, mode)
        d, w = spec.model.d, 2 * s
        charge = charge_basis(d)[1][np.indices((d * d,) * w).reshape(w, -1)].sum(axis=0)
        words = np.sum(charge == 0) if "u1" in reduction(spec.model) else len(charge)
        built = []
        basis = marginal.window_basis
        monkeypatch.setattr(marginal, "window_basis", lambda *args: built.append(args)
                            or basis(*args))
        A = build_marginal_sdp(spec).A
        assert len(built) == (mode == "consecutive" and m > w)
        solve = (max(a.nbytes for a in A) + sum(4 * a[0].nbytes for a in A)
                 + A[0].shape[0] ** 2 * 8)
        assert _request_bytes(spec) == (sum(a.nbytes for a in A)
                                        + len(built) * words * d ** (2 * w) * 8 + solve)

    @pytest.mark.parametrize("name, params, m, s", [
        ("tfim", [1.0], 8, 2), ("tfim", [1.0], 9, 2), ("heisenberg", [], 10, 2),
        ("heisenberg", [], 9, 3), ("heisenberg", [], 10, 5), ("tfim", [1.0], 10, 5),
        ("random_twosite", [3.0], 8, 2)])
    def test_sizes_in_use_stay_accepted(self, name, params, m, s):
        spec = MarginalProblemSpec(cg.builtin_model(name, params), m, s)
        assert _request_bytes(spec) <= marginal._MAX_BYTES

    def test_dense_tfim_constraints_at_9_2(self):
        # one 512 block, 536 rows, and 256 window products of 16 x 16; the
        # solve adds P (as large as A), X, S and their factors, and M
        spec = MarginalProblemSpec(cg.builtin_model("tfim", [1.0]), 9, 2)
        assert _request_bytes(spec) == (2 * 536 * 512 ** 2 * 8 + 256 * 16 ** 2 * 8
                                        + 4 * 512 ** 2 * 8 + 536 ** 2 * 8)

    def test_a_request_builds_its_window_basis_once(self, capsys, monkeypatch):
        built = []
        basis = marginal.window_basis
        monkeypatch.setattr(marginal, "window_basis", lambda *args: built.append(args)
                            or basis(*args))
        assert cli.run(["marginal", "--model", "heisenberg", "--m", "6", "--s", "2"]) == 0
        capsys.readouterr()
        assert len(built) == 1


class TestOracle:
    def test_ring4(self, heisenberg):
        assert abs(ring_reference(heisenberg, 4) + 1.0) < 1e-10

    def test_ring2(self, heisenberg):
        assert abs(ring_reference(heisenberg, 2) + 1.5) < 1e-10

    def test_zero_model(self, zero_model):
        assert abs(ring_reference(zero_model, 4)) < 1e-12
