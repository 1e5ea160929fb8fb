"""Decomposition strategies, the peel step, Caratheodory reduction."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import l1rankone as lr
from l1rankone import decompose as dc
from l1rankone.errors import (
    DimensionMismatchError,
    NormalizationError,
    NotDiagonallyDominantError,
    NotPSDError,
    QuadFormTooLargeError,
    RankOneInputError,
    ReconstructionError,
    ZeroDirectionError,
)
from l1rankone.hermitian import RECON_TOL

from conftest import hermitian, random_dd, random_psd

class TestBuild:
    @pytest.mark.parametrize("miss", [0.5, 2.0])
    def test_reconstruction_checked_against_recon_tol(self, miss):
        # The vectors sum to [[4, 2], [2, 2]]; the target's off-diagonal is
        # moved by miss * RECON_TOL * scale, with scale = max |A_ij| = 4.
        vectors = [np.array([2.0, 1.0]), np.array([0.0, 1.0])]
        off = 2.0 + miss * RECON_TOL * 4.0
        target = hermitian([[4.0, off], [off, 2.0]])
        if miss < 1.0:
            assert dc.RankOneDecomposition.build(target, vectors, "external").cost == 10.0
        else:
            with pytest.raises(ReconstructionError):
                dc.RankOneDecomposition.build(target, vectors, "external")

    @pytest.mark.parametrize("family", [
        [np.ones(3)],
        [np.ones(2), np.ones(3)],
        [np.ones((2, 2))],
        [np.ones(2), np.ones((1, 2))],
    ], ids=["wrong-length", "ragged", "2-D", "mixed-rank"])
    def test_shape_errors_are_dimension_mismatches(self, family):
        """Both builds raise DimensionMismatchError, not NumPy's ValueError,
        for a family that does not stack to (r, n), on either signed side."""
        target = hermitian(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            dc.RankOneDecomposition.build(target, family, "external")
        for pos, neg in ((family, []), ([], family)):
            with pytest.raises(DimensionMismatchError):
                lr.SignedDecomposition.build(target, pos, neg)


class TestLdlDecompose:
    def test_2x2(self):
        d = dc.ldl_decompose(hermitian([[2, 1], [1, 2]]))
        assert d.cost == pytest.approx(6.0, abs=1e-12)
        np.testing.assert_allclose(d.vectors[0], [np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)
        np.testing.assert_allclose(d.vectors[1], [0, np.sqrt(1.5)], atol=1e-15)

    def test_identity(self):
        assert dc.ldl_decompose(hermitian(np.eye(2))).cost == pytest.approx(2.0)

    def test_3x3_equals_l11(self):
        a = hermitian([[1, 0, 1], [0, 1, 1], [1, 1, 3]])
        d = dc.ldl_decompose(a)
        assert d.cost == pytest.approx(9.0, abs=1e-12)
        assert d.cost == pytest.approx(lr.norm_l11(a), abs=1e-12)


class TestEigenDecompose:
    def test_2x2(self):
        d = dc.eigen_decompose(hermitian([[2, 1], [1, 2]]))
        assert d.cost == pytest.approx(8.0, abs=1e-12)

    def test_diagonal(self):
        assert dc.eigen_decompose(hermitian(np.diag([4.0, 9.0]))).cost == pytest.approx(13.0)

    def test_rank_one(self):
        u = np.array([1.0, 1.0])
        d = dc.eigen_decompose(hermitian(np.outer(u, u)))
        assert len(d.vectors) == 1
        assert d.cost == pytest.approx(4.0, abs=1e-12)

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            dc.eigen_decompose(hermitian([[0, 1], [1, 0]]))


class TestDiagonallyDominant:
    def test_is_dd_examples(self):
        ok, _ = dc.is_diagonally_dominant(hermitian([[2, 1], [1, 2]]))
        assert ok
        ok, margins = dc.is_diagonally_dominant(hermitian([[1, 2], [2, 1]]))
        assert not ok
        np.testing.assert_allclose(margins, [-1, -1])
        ok, margins = dc.is_diagonally_dominant(hermitian([[1, 1], [1, 1]]))
        assert ok
        np.testing.assert_allclose(margins, [0, 0])

    def test_dd_decompose_2x2(self):
        a = hermitian([[2, 1], [1, 2]])
        d = dc.dd_decompose(a)
        assert d.cost == pytest.approx(6.0, abs=1e-12)
        assert d.cost == pytest.approx(lr.norm_l11(a), abs=1e-12)
        supports = sorted(tuple(np.flatnonzero(np.abs(v) > 0)) for v in d.vectors)
        assert supports == [(0,), (0, 1), (1,)]

    def test_dd_complex_principal_root(self):
        a = hermitian([[1, 1j], [-1j, 1]])
        d = dc.dd_decompose(a)
        assert len(d.vectors) == 1
        u = d.vectors[0]
        np.testing.assert_allclose(u[0], np.exp(1j * np.pi / 4), atol=1e-15)
        np.testing.assert_allclose(u[1], np.exp(-1j * np.pi / 4), atol=1e-15)
        assert d.cost == pytest.approx(4.0, abs=1e-12)

    def test_dd_1x1(self):
        d = dc.dd_decompose(hermitian([[5.0]]))
        assert d.cost == pytest.approx(5.0, abs=1e-12)

    def test_dd_rejects(self):
        with pytest.raises(NotDiagonallyDominantError) as exc:
            dc.dd_decompose(hermitian([[1, 2], [2, 1]]))
        assert exc.value.margin == pytest.approx(-1.0)


class TestRankOnePeel:
    def test_identity_basis(self):
        step, resid = dc.rank_one_peel(hermitian(np.eye(2)), np.array([1.0, 0.0]))
        np.testing.assert_allclose(step.y, [1, 0], atol=1e-15)
        np.testing.assert_allclose(resid.entries, np.diag([0.0, 1.0]), atol=1e-15)
        assert dc.numerical_rank(resid) == 1

    def test_matches_first_ldl_step(self):
        a = hermitian([[2, 1], [1, 2]])
        step, resid = dc.rank_one_peel(a, np.array([1 / np.sqrt(2), 0]))
        assert step.quad == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(step.y, [np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        np.testing.assert_allclose(resid.entries, [[0, 0], [0, 1.5]], atol=1e-12)

    def test_quad_too_large(self):
        with pytest.raises(QuadFormTooLargeError):
            dc.rank_one_peel(hermitian(np.eye(2)), np.array([1.0, 1.0]))

    def test_zero_direction(self):
        a = hermitian(np.diag([1.0, 0.0]))
        with pytest.raises(ZeroDirectionError):
            dc.rank_one_peel(a, np.array([0.0, 1.0]))

    def test_rank_drop_on_random_pd(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            a = random_psd(rng, n)
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = z / np.sqrt(np.vdot(z, a.entries @ z).real)
            step, resid = dc.rank_one_peel(a, x)
            assert abs(step.quad - 1.0) <= 1e-9
            assert lr.is_psd(resid)
            assert dc.numerical_rank(resid) == n - 1


class TestGreedy:
    def test_certified_2x2(self):
        d = dc.greedy_decompose(hermitian([[2, 1], [1, 2]]))
        assert d.cost == pytest.approx(6.0, abs=1e-6)

    def test_rank_one(self):
        u = np.array([1.0, 2.0])
        d = dc.greedy_decompose(hermitian(np.outer(u, u)))
        assert d.cost == pytest.approx(9.0, abs=1e-9)

    def test_diagonal(self):
        d = dc.greedy_decompose(hermitian(np.diag([1.0, 2.0, 3.0])))
        assert d.cost == pytest.approx(6.0, abs=1e-9)

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            dc.greedy_decompose(hermitian([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("entries", [
        [[1, 2], [2, 5]],
        # Tridiagonal and diagonally dominant: each LDL step leaves every
        # off-diagonal entry as it is, so natural-order LDL costs ||A||_1,1.
        [[3, 1j, 0, 0], [-1j, 3, 1 + 1j, 0], [0, 1 - 1j, 4, -1], [0, 0, -1, 2]],
    ])
    def test_stops_at_the_bound(self, entries, monkeypatch):
        def refuse(*args):
            raise AssertionError("greedy searched past a family at the bound")

        monkeypatch.setattr(dc, "_best_pivot_order_ldl", refuse)
        a = hermitian(entries)
        d = dc.greedy_decompose(a)
        assert d.method == dc.METHOD_GREEDY
        assert lr.norm_l11(a) <= d.cost <= lr.norm_l11(a) * (1.0 + dc.TIE_TOL)
        assert lr.verify_reconstruction(a, d.vectors).ok

    def test_beats_all_pivot_permutations(self, rng):
        # exhaustive permuted-LDL floor for n <= 4
        for _ in range(25):
            n = int(rng.integers(2, 5))
            a = random_psd(rng, n)
            best = np.inf
            for perm in itertools.permutations(range(n)):
                p = np.array(perm)
                pa = lr.ingest_matrix(a.entries[np.ix_(p, p)])
                best = min(best, dc.ldl_decompose(pa).cost)
            d = dc.greedy_decompose(a)
            assert d.cost <= best + 1e-6

    def test_draws_no_random_numbers(self, monkeypatch):
        # Greedy is a function of A alone, and so is the fast bracket, whose
        # greedy runs on this 5x5 complex Wishart.
        a = random_psd(np.random.default_rng(12), 5)

        def refuse(*args, **kwargs):
            raise AssertionError("np.random.default_rng called")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert dc.greedy_decompose(a).cost >= lr.norm_l11(a) * (1.0 - 1e-12)
        assert "greedy" in lr.gamma_plus_bounds(a).per_method

    def test_cheapest_family_breaks_ties_lexicographically(self):
        # Costs 2, 2, 4 and 8: the two orders of the unit basis tie, and the
        # reversed one is lexicographically smaller.
        e = np.eye(2, dtype=np.complex128)
        families = [e, e[::-1], np.ones((1, 2), dtype=np.complex128), 2 * e]
        decs = [dc.RankOneDecomposition.build(lr.reconstruct(f), f, "external")
                for f in families]
        for perm in itertools.permutations(decs):
            assert dc.cheapest_family(list(perm)) is decs[1]
        assert dc.cheapest_family([decs[3], decs[2]]) is decs[2]

    def test_deterministic(self, rng):
        a = random_psd(rng, 4)
        d1 = dc.greedy_decompose(a)
        d2 = dc.greedy_decompose(a)
        assert d1.cost == d2.cost
        for v1, v2 in zip(d1.vectors, d2.vectors):
            np.testing.assert_array_equal(v1, v2)


# Per-vector forms of the batched build code, and the pivot-order search by
# brute force, kept as references.


def _cheapest_pivot_order_reference(a_arr, tol_p):
    """Least cost over all n! LDL pivot orders; a pivot at or below tol_p
    when its turn comes is skipped, as it stays there (Schur complements of
    a PSD matrix only lower the diagonal)."""
    n = a_arr.shape[0]
    best = np.inf
    for order in itertools.permutations(range(n)):
        w = a_arr.copy()
        cost = 0.0
        for i in order:
            d = w[i, i].real
            if d > tol_p:
                v = w[:, i] / np.sqrt(d)
                cost += dc.vector_l1(v) ** 2
                w = w - np.outer(v, v.conj())
                w[i, :] = 0.0
                w[:, i] = 0.0
        best = min(best, cost)
    return best


def _decomposition_cost_reference(vectors):
    return float(sum(dc.vector_l1(v) ** 2 for v in vectors))


def _build_reference(target, vectors, method):
    floor = dc.NULL_TOL * target.scale()
    kept = [np.asarray(v, dtype=np.complex128) for v in vectors]
    kept = [v for v in kept if dc.vector_l1(v) ** 2 > floor]
    if not lr.verify_reconstruction(target, kept).ok:
        raise ReconstructionError(method)
    return kept, _decomposition_cost_reference(kept)


# An exactly rank-1 residual: u u* is exact for these entries.
_RANK_ONE = np.outer(np.array([1, 2j, -1, 0, 3]), np.array([1, 2j, -1, 0, 3]).conj())


def _wishart_7_rank_3():
    """perfbench bracket seed 3001 op 191 (half_rank, n = 7): a steepest-descent
    pivot order costs at least 2.2 % more than natural order here."""
    rng = np.random.default_rng([3001, 191])
    g = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    return g @ g.conj().T


@st.composite
def _psd_arrays(draw, max_n=8):
    """Complex Wishart n 2..max_n of rank 1..n."""
    n = draw(st.integers(2, max_n), label="n")
    rank = draw(st.integers(1, n), label="rank")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return np.asarray(random_psd(np.random.default_rng(seed), n, rank).entries)


class TestBatchedParity:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=_psd_arrays(max_n=6))
    @example(a=_RANK_ONE)
    def test_pivot_order_search_matches_reference(self, a):
        """For n <= 8 the search is exact: its family reconstructs A at the
        least cost over every pivot order."""
        target = lr.ingest_matrix(a)
        tol_p = lr.hermitian.PIVOT_TOL * target.scale()
        vecs = dc._best_pivot_order_ldl(np.asarray(target.entries), tol_p)
        assert lr.verify_reconstruction(target, vecs).ok
        want = _cheapest_pivot_order_reference(np.asarray(target.entries), tol_p)
        assert dc.decomposition_cost(vecs) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=_psd_arrays(), seed=st.integers(0, 2**32 - 1))
    @example(a=_RANK_ONE, seed=0)
    def test_cost_and_build_match_reference(self, a, seed):
        """Families of LDL, eigen and random vectors with null vectors mixed
        in; the target is each family's own reconstruction."""
        target = lr.ingest_matrix(a)
        rng = np.random.default_rng(seed)
        n = a.shape[0]
        noise = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        families = [
            lr.ldl_factor(target),
            list(dc.eigen_decompose(target).vectors),
            list(noise * 10.0 ** rng.uniform(-9, 3, size=(3, 1))),
            [*lr.ldl_factor(target), np.zeros(n, dtype=np.complex128), 1e-9 * noise[0]],
        ]
        for vecs in families:
            assert dc.decomposition_cost(vecs) == _decomposition_cost_reference(vecs)
            own = lr.reconstruct(vecs)
            kept, cost = _build_reference(own, vecs, "external")
            got = dc.RankOneDecomposition.build(own, vecs, "external")
            assert got.cost == cost
            assert [v.tobytes() for v in got.vectors] == [v.tobytes() for v in kept]

    def test_cost_squares_python_floats(self):
        """||v||_1^2 is the Python float squared (libm pow), as per-vector
        code computed it; with glibc, x ** 2 is one ulp above x * x here."""
        x = 24.63541527532056
        assert dc.decomposition_cost([np.array([x])]) == x ** 2
        assert dc.decomposition_cost([np.array([x]), np.array([-x])]) == x ** 2 + x ** 2


class TestCaratheodory:
    def test_short_input_unchanged(self):
        xs = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex),
              np.array([0.5, 0.5], dtype=complex)]
        w = np.array([0.2, 0.2, 0.2])
        w2, xs2 = dc.caratheodory_reduce(w, xs)
        assert len(w2) == 3
        np.testing.assert_array_equal(w2, w)

    def test_single_term_unchanged(self):
        w2, xs2 = dc.caratheodory_reduce([0.5], [np.array([0.5, 0.5], dtype=complex)])
        assert len(w2) == 1

    def test_six_terms_reduce_to_five(self):
        # six distinct unit-l1 vectors whose equal-weight mix is I/2
        xs = [np.array([1, 0], dtype=complex), np.array([1j, 0], dtype=complex),
              np.array([-1, 0], dtype=complex), np.array([0, 1], dtype=complex),
              np.array([0, 1j], dtype=complex), np.array([0, -1], dtype=complex)]
        w = np.full(6, 1.0 / 6.0)
        target = sum(wk * np.outer(x, x.conj()) for wk, x in zip(w, xs))
        np.testing.assert_allclose(target, np.eye(2) / 2, atol=1e-15)
        w2, xs2 = dc.caratheodory_reduce(w, xs)
        assert len(w2) <= 5
        rec = sum(wk * np.outer(x, x.conj()) for wk, x in zip(w2, xs2))
        assert np.abs(rec - target).max() <= 1e-9
        assert abs(w2.sum() - w.sum()) <= 1e-9

    def test_random_overlong_inputs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 4))
            m = n * n + 4
            xs = []
            for _ in range(m):
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                xs.append(z / np.abs(z).sum())
            w = rng.uniform(0.1, 1.0, size=m)
            w = w / w.sum()
            target = sum(wk * np.outer(x, x.conj()) for wk, x in zip(w, xs))
            w2, xs2 = dc.caratheodory_reduce(w, xs)
            assert len(w2) <= n * n + 1
            assert np.all(w2 > 0)
            rec = sum(wk * np.outer(x, x.conj()) for wk, x in zip(w2, xs2))
            assert np.abs(rec - target).max() <= 1e-9
            assert abs(w2.sum() - w.sum()) <= 1e-9

    def test_normalization_errors(self):
        with pytest.raises(NormalizationError):
            dc.caratheodory_reduce([0.5], [np.array([1.0, 1.0], dtype=complex)])
        with pytest.raises(NormalizationError):
            dc.caratheodory_reduce([-0.1], [np.array([1.0, 0.0], dtype=complex)])
        with pytest.raises(NormalizationError):
            dc.caratheodory_reduce([0.9, 0.9], [np.array([1.0, 0.0], dtype=complex),
                                                np.array([0.0, 1.0], dtype=complex)])


class TestStructuredCostCheck:
    def test_dd_output_conforms(self, rng):
        # Each DD vector lies on one index or one index pair, and none repeats.
        mats = [hermitian([[2, 1], [1, 2]])]
        for k in range(200):
            n = int(rng.integers(2, 9))
            mats.append(random_dd(rng, n, complex_off=bool(k % 2), tight_rows=k % 3))
        for a in mats:
            supports = [tuple(np.flatnonzero(v)) for v in dc.dd_decompose(a).vectors]
            assert all(len(s) in (1, 2) for s in supports)
            assert len(set(supports)) == len(supports)


class TestSpecial3x3Gap:
    def test_zero_gap_b_zero(self):
        a = hermitian([[1, 0, 1], [0, 1, 1], [1, 1, 3]])
        assert dc.special_3x3_gap(a) == pytest.approx(0.0, abs=1e-12)

    def test_zero_gap_c_zero(self):
        a = hermitian([[1, 1, 0], [1, 2, 1], [0, 1, 2]])
        assert dc.special_3x3_gap(a) == pytest.approx(0.0, abs=1e-12)

    def test_positive_gap_matches_ldl_excess(self):
        # entries a=1, b=1, c=-1, e=1 give gap 4; d and f chosen so the
        # matrix is PD (the gap formula does not involve d or f)
        a = hermitian([[1, 1, -1], [1, 3, 1], [-1, 1, 6]])
        gap = dc.special_3x3_gap(a)
        assert gap == pytest.approx(4.0, abs=1e-12)
        excess = dc.ldl_decompose(a).cost - lr.norm_l11(a)
        assert excess == pytest.approx(gap, abs=1e-9)

    def test_rank_one_rejected(self):
        u = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RankOneInputError):
            dc.special_3x3_gap(hermitian(np.outer(u, u)))

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            dc.special_3x3_gap(hermitian(np.eye(2)))

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            dc.special_3x3_gap(hermitian([[1, 1, -1], [1, 2, 1], [-1, 1, 3]]))


class TestStrategyInvariants:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=_psd_arrays(max_n=12))
    @example(a=_wishart_7_rank_3())
    def test_greedy_never_costs_more_than_ldl(self, a):
        a = lr.ingest_matrix(a)
        assert dc.greedy_decompose(a).cost <= dc.ldl_decompose(a).cost * (1 + 1e-12)

    def test_reconstruction_and_cost_floor(self, rng):
        # every strategy reconstructs its target and never beats ||A||_1,1
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            l11 = lr.norm_l11(a)
            decs = [dc.ldl_decompose(a), dc.eigen_decompose(a),
                    dc.greedy_decompose(a)]
            if dc.is_diagonally_dominant(a)[0]:
                decs.append(dc.dd_decompose(a))
            for d in decs:
                assert lr.verify_reconstruction(a, d.vectors).ok
                assert d.cost >= l11 - 1e-9
                assert d.cost == pytest.approx(dc.decomposition_cost(d.vectors), abs=1e-12)
                assert all(np.abs(v).sum() > 0 for v in d.vectors)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=8, max_size=8),
           dd=st.booleans())
    def test_ldl_and_dd_costs_invariant_under_diagonal_phases(self, data, n, seed,
                                                              phases, dd):
        """cost(D A D*) = cost(A) for D = diag(e^{i phi}), for LDL on PSD
        input of any rank and for DD on diagonally dominant input."""
        rng = np.random.default_rng(seed)
        if dd:
            a = random_dd(rng, n, tight_rows=data.draw(st.integers(0, 2), label="tight"))
        else:
            a = random_psd(rng, n, rank=data.draw(st.integers(1, n), label="rank"))
        d = np.exp(1j * np.array(phases[:n]))
        b = lr.ingest_matrix(d[:, None] * a.entries * d.conj()[None, :])
        ops = [dc.ldl_decompose] + ([dc.dd_decompose] if dd else [])
        for op in ops:
            cost = op(a).cost
            assert abs(op(b).cost - cost) <= 1e-12 * cost

    def test_dd_cost_is_l11(self, rng):
        for k in range(200):
            n = int(rng.integers(2, 9))
            a = random_dd(rng, n, complex_off=bool(k % 2), tight_rows=k % 3)
            d = dc.dd_decompose(a)
            assert abs(d.cost - lr.norm_l11(a)) <= 1e-9 * max(1.0, lr.norm_l11(a))

    def test_2x2_ldl_exact(self, rng):
        for _ in range(200):
            a = random_psd(rng, 2, complex_entries=bool(rng.integers(0, 2)))
            assert abs(dc.ldl_decompose(a).cost - lr.norm_l11(a)) <= 1e-9 * max(1.0, lr.norm_l11(a))

    def test_3x3_gap_identity(self, rng):
        for _ in range(200):
            a = random_psd(rng, 3, complex_entries=bool(rng.integers(0, 2)))
            gap = dc.special_3x3_gap(a)
            assert gap >= -1e-12
            excess = dc.ldl_decompose(a).cost - lr.norm_l11(a)
            assert abs(excess - gap) <= 1e-9 * max(1.0, lr.norm_l11(a))

    def test_reduce_decomposition_caps_terms(self, rng):
        a = random_psd(rng, 2)
        # inflate an LDL decomposition far past the n^2 + 1 cap
        base = dc.ldl_decompose(a)
        split = []
        for v in base.vectors:
            split.extend([v / np.sqrt(3)] * 3)
        for _ in range(3):
            split.append(np.zeros(2, dtype=complex))
        fat = dc.RankOneDecomposition.build(a, split, "external")
        assert len(fat.vectors) > 5
        slim = dc.reduce_decomposition(fat, a)
        assert len(slim.vectors) <= 5
        assert slim.cost <= fat.cost + 1e-9
        assert lr.verify_reconstruction(a, slim.vectors).ok
