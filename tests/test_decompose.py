"""Decomposition strategies, the peel step, Caratheodory reduction."""

import itertools
from unittest import mock

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
    StallDetectedError,
    ZeroDirectionError,
)
from l1rankone.hermitian import RECON_TOL, HermitianMatrix

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
        monkeypatch.setattr(dc, "_greedy_run", refuse)
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


def _greedy_run_reference(a_arr, tol_p, max_steps):
    """One greedy pass, per candidate and with nothing batched.
    greedy_decompose's pass must reproduce it bit for bit."""
    n = a_arr.shape[0]
    r = a_arr.copy()
    vectors = []
    scale = max(1.0, float(np.abs(a_arr).max()))
    stop = 0.05 * RECON_TOL * scale
    trace_prev = float(np.diagonal(r).real.sum())
    for _ in range(max_steps):
        if float(np.abs(r).max()) <= stop:
            break
        diag = np.diagonal(r).real
        peel_floor = dc.RANK_TOL * trace_prev / n
        cands = []
        for i in np.flatnonzero(diag > tol_p):
            x = np.zeros(n, dtype=np.complex128)
            x[i] = 1.0 / np.sqrt(diag[i])
            cands.append(x)
        if not cands:
            break
        quick = []
        for x in cands:
            y = r @ x
            if float((np.abs(y) ** 2).sum()) < peel_floor:
                quick.append(np.inf)
                continue
            resid = r - np.outer(y, y.conj())
            quick.append(dc.vector_l1(y) ** 2 + dc.vector_l1(resid))
        order = [int(i) for i in np.argsort(quick, kind="stable")
                 if np.isfinite(quick[int(i)])]
        best_y, best_r, best_total = None, None, np.inf
        trial_xs = []
        if order:
            trial_xs.append(cands[order[0]])
            try:
                trial_xs.append(dc._refine_direction(r, cands[order[0]], peel_floor))
            except ZeroDirectionError:
                pass
        for x in trial_xs:
            y = r @ x
            if float((np.abs(y) ** 2).sum()) < peel_floor:
                continue
            resid = r - np.outer(y, y.conj())
            resid = (resid + resid.conj().T) / 2.0
            try:
                tail = lr.ldl_factor(HermitianMatrix(resid))
            except NotPSDError:
                continue
            total = dc.vector_l1(y) ** 2 + dc.decomposition_cost(tail)
            if total < best_total - 1e-15:
                best_y, best_r, best_total = y, resid, total
        if best_y is None:
            break
        vectors.append(best_y)
        r = best_r
        trace_now = float(np.diagonal(r).real.sum())
        if trace_now > trace_prev - 1e-15 * scale:
            raise StallDetectedError("residual trace stalled")
        trace_prev = trace_now
    return vectors


class TestGreedyPass:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_pass(self, data, n, seed):
        """The pick between the pivot-order family and the greedy pass equals
        the pick with the reference pass, family and cost."""
        rank = data.draw(st.integers(1, n), label="rank")
        a = random_psd(np.random.default_rng(seed), n, rank)
        got = dc.greedy_decompose(a)
        with mock.patch.object(dc, "_greedy_run", _greedy_run_reference):
            want = dc.greedy_decompose(a)
        assert got.cost == want.cost
        assert [v.tobytes() for v in got.vectors] == [v.tobytes() for v in want.vectors]

    def test_no_peel_step_is_refined_twice(self, monkeypatch):
        a = random_psd(np.random.default_rng(5), 5)
        seen = []
        refine = dc._refine_direction

        def recording(r_arr, x, peel_floor):
            seen.append((r_arr.tobytes(), x.tobytes()))
            return refine(r_arr, x, peel_floor)

        monkeypatch.setattr(dc, "_refine_direction", recording)
        dc.greedy_decompose(a)
        assert seen
        assert len(seen) - len(set(seen)) == 0  # repeated (residual, start) pairs


# Per-candidate and per-vector forms of the batched greedy and build code,
# kept as references: the batched code must reproduce them bit for bit.

_REFINE_DIRS_REFERENCE = np.array([1.0, -1.0, 1.0j, -1.0j])


def _refine_direction_reference(r_arr, x, max_iter, peel_floor):
    n = r_arr.shape[0]
    eps = dc.SMOOTHING_EPS
    cols_t = np.ascontiguousarray(r_arr.T)
    diag = np.diagonal(r_arr).real
    y = r_arr @ x
    q = float(np.vdot(x, y).real)
    if q <= 1e-30:
        raise ZeroDirectionError("refinement started from a null direction")
    x = x / np.sqrt(q)
    y = y / np.sqrt(q)
    q = 1.0
    f_cur = dc._smoothed_l1sq(y, eps)
    h = 0.25
    trials = 0
    while h > 1e-6 and trials < max_iter:
        step = h * _REFINE_DIRS_REFERENCE
        y2 = y[None, None, :] + step[:, None, None] * cols_t[None, :, :]
        q2 = q + 2.0 * (step[:, None] * np.conj(y)[None, :]).real \
            + (h * h) * diag[None, :]
        abs2 = y2.real ** 2 + y2.imag ** 2
        mass = abs2.sum(axis=-1)
        f2 = np.sqrt(abs2 + eps * eps).sum(axis=-1) ** 2
        safe_q = np.where(q2 > 1e-30, q2, 1.0)
        obj = np.where((q2 > 1e-30) & (mass >= peel_floor * safe_q),
                       f2 / safe_q, np.inf)
        trials += 4 * n
        k = int(np.argmin(obj))
        if float(obj.flat[k]) < f_cur - 1e-12 * max(1.0, f_cur):
            d_idx, j = divmod(k, n)
            x = x.copy()
            x[j] += step[d_idx]
            y = y2[d_idx, j]
            q = float(q2[d_idx, j])
            f_cur = float(obj.flat[k])
        else:
            h *= 0.5
            y = r_arr @ x
            q = float(np.vdot(x, y).real)
            if q <= 1e-30:
                break
            f_cur = dc._smoothed_l1sq(y, eps) / q
    q = float(np.vdot(x, r_arr @ x).real)
    if q <= 1e-30:
        raise ZeroDirectionError("refinement collapsed to a null direction")
    return x / np.sqrt(q)


def _quick_score_reference(r, x, peel_floor):
    y = r @ x
    if float((np.abs(y) ** 2).sum()) < peel_floor:
        return np.inf
    resid = r - np.outer(y, y.conj())
    return dc.vector_l1(y) ** 2 + dc.vector_l1(resid)


def _best_pivot_order_ldl_reference(a_arr, tol_p, node_cap):
    best_cost = np.inf
    best_vecs = []
    nodes = 0

    def descend(w, acc, vecs):
        nonlocal best_cost, best_vecs, nodes
        nodes += 1
        diag = np.diagonal(w).real
        active = np.flatnonzero(diag > tol_p)
        if active.size == 0:
            if acc < best_cost - 1e-15:
                best_cost = acc
                best_vecs = list(vecs)
            return
        if acc + dc.vector_l1(w) >= best_cost - 1e-12:
            return
        scored = []
        for i in active:
            scored.append((dc.vector_l1(w[:, i]) ** 2 / diag[i], int(i)))
        scored.sort()
        if nodes > node_cap:
            scored = scored[:1]
        for step, i in scored:
            v = w[:, i] / np.sqrt(diag[i])
            w2 = w - np.outer(v, v.conj())
            w2[i, :] = 0.0
            w2[:, i] = 0.0
            vecs.append(v)
            descend(w2, acc + step, vecs)
            vecs.pop()

    descend(a_arr.copy(), 0.0, [])
    return best_cost, best_vecs


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
    """perfbench bracket seed 3001 op 191 (half_rank, n = 7): steepest-descent
    pivot order and the peel pass both cost at least 2.2 % more than natural
    order here."""
    rng = np.random.default_rng([3001, 191])
    g = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    return g @ g.conj().T


@st.composite
def _psd_arrays(draw):
    """Complex Wishart n 2..8 of rank 1..n."""
    n = draw(st.integers(2, 8), label="n")
    rank = draw(st.integers(1, n), label="rank")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return np.asarray(random_psd(np.random.default_rng(seed), n, rank).entries)


def _greedy_floors(r):
    """Pivot tolerance and the peel floor _greedy_run uses on residual r."""
    diag = np.diagonal(r).real
    return (lr.hermitian.PIVOT_TOL * max(1.0, float(diag.max())),
            dc.RANK_TOL * float(diag.sum()) / r.shape[0])


def _random_directions(r, seed):
    """Two random directions scaled to <Rx, x> = 1: refine starts off the
    coordinate axes."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        z = rng.standard_normal(r.shape[0]) + 1j * rng.standard_normal(r.shape[0])
        q = float(np.vdot(z, r @ z).real)
        if q > 1e-12:
            out.append(z / np.sqrt(q))
    return out


class TestBatchedParity:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(r=_psd_arrays(), max_iter=st.sampled_from([80, 200]))
    @example(r=_RANK_ONE, max_iter=200)
    def test_refine_direction_matches_reference(self, r, max_iter):
        # 200 is GREEDY_MAX_ITER; 80 keeps a shorter budget covered.
        tol_p, peel_floor = _greedy_floors(r)
        starts, _ = dc._pivot_candidates(r, tol_p, peel_floor)
        with mock.patch.object(dc, "GREEDY_MAX_ITER", max_iter):
            for x in starts + _random_directions(r, r.shape[0]):
                try:
                    want = _refine_direction_reference(r, x, max_iter, peel_floor)
                except ZeroDirectionError:
                    with pytest.raises(ZeroDirectionError):
                        dc._refine_direction(r, x, peel_floor)
                    continue
                got = dc._refine_direction(r, x, peel_floor)
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(r=_psd_arrays())
    @example(r=_RANK_ONE)
    def test_quick_scores_match_reference(self, r):
        tol_p, peel_floor = _greedy_floors(r)
        cands, quick = dc._pivot_candidates(r, tol_p, peel_floor)
        n = r.shape[0]
        for i, x in zip(np.flatnonzero(np.diagonal(r).real > tol_p), cands):
            want = np.zeros(n, dtype=np.complex128)
            want[i] = 1.0 / np.sqrt(np.diagonal(r).real[i])
            assert x.tobytes() == want.tobytes()
        assert len(cands) == len(quick)
        assert quick == [_quick_score_reference(r, x, peel_floor) for x in cands]
        xs = _random_directions(r, n)
        ys = np.array([r @ x for x in xs]).reshape(-1, n)
        assert dc._quick_scores(r, ys, peel_floor) == [
            _quick_score_reference(r, x, peel_floor) for x in xs]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(a=_psd_arrays())
    @example(a=_RANK_ONE)
    def test_pivot_order_search_matches_reference(self, a):
        # A full n = 6 tree has 1,957 nodes, so the reference's 4,000-node
        # budget never cuts it short; past n = 6 each node keeps one child.
        tol_p, _ = _greedy_floors(a)
        node_cap = 4000 if a.shape[0] <= 6 else 0
        vecs = dc._best_pivot_order_ldl(a, tol_p)
        _, want_vecs = _best_pivot_order_ldl_reference(a, tol_p, node_cap)
        assert [v.tobytes() for v in vecs] == [v.tobytes() for v in want_vecs]

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
        r = np.array([[x * x]], dtype=np.complex128)  # R - yy* vanishes for y = [x]
        assert dc._quick_scores(r, np.array([[x + 0j]]), 0.0) == [x ** 2]


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
    @given(a=_psd_arrays())
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
