"""Functionals: exact gamma, gamma_plus / gamma_zero brackets, the oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import l1rankone as lr
from l1rankone import decompose as dc
from l1rankone import gamma as gm
from l1rankone.errors import BudgetExceededError, NotPSDError, ReconstructionError
from l1rankone.hermitian import RECON_TOL

from conftest import hermitian, random_dd, random_hermitian, random_psd

from test_hermitian import REMARK_4X4

FLIP = [[0, 1], [1, 0]]


class TestGammaExact:
    def test_values(self):
        assert gm.gamma_exact(hermitian(FLIP)) == 2.0
        assert gm.gamma_exact(hermitian([[2, 1], [1, 2]])) == 6.0
        assert gm.gamma_exact(hermitian(REMARK_4X4)) == 1.0

    def test_certificate_reconstructs(self, rng):
        a = random_hermitian(rng, 4)
        rec = np.zeros((4, 4), dtype=complex)
        cost = 0.0
        for g, h in gm.gamma_exact_certificate(a):
            rec += np.outer(g, h.conj())
            cost += np.abs(g).sum() * np.abs(h).sum()
        assert np.abs(rec - a.entries).max() <= 1e-12
        assert cost == pytest.approx(gm.gamma_exact(a), abs=1e-12)


class TestSignedBuild:
    @pytest.mark.parametrize("miss", [0.5, 2.0])
    def test_reconstruction_checked_against_recon_tol(self, miss):
        # g g* - h h* = [[4, 2], [2, 0]]; the target's off-diagonal is moved
        # by miss * RECON_TOL * scale, with scale = max |A_ij| = 4.
        pos, neg = [np.array([2.0, 1.0])], [np.array([0.0, 1.0])]
        off = 2.0 + miss * RECON_TOL * 4.0
        target = hermitian([[4.0, off], [off, 0.0]])
        if miss < 1.0:
            assert gm.SignedDecomposition.build(target, pos, neg).cost == 10.0
        else:
            with pytest.raises(ReconstructionError):
                gm.SignedDecomposition.build(target, pos, neg)

    def test_caller_arrays_stay_writeable(self):
        pos = [np.array([2.0, 1.0], dtype=np.complex128)]
        neg = [np.array([0.0, 1.0], dtype=np.complex128)]
        sd = gm.SignedDecomposition.build(hermitian([[4, 2], [2, 0]]), pos, neg)
        assert pos[0].flags.writeable and neg[0].flags.writeable
        assert not any(v.flags.writeable for v in sd.positive + sd.negative)
        np.testing.assert_array_equal(sd.positive[0], pos[0])


def _bracket_input(kind: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "dd":
        return random_dd(rng, n, tight_rows=1)
    if kind == "2x2":
        return random_psd(rng, 2)
    return random_psd(rng, n, rank=max(1, n // 2) if kind == "deficient" else n)


class TestGammaPlusBounds:
    def test_bracket_not_inverted_by_greedy(self):
        # Rank-one 2x2 on which greedy returned a family that met A only
        # within RECON_TOL and cost less than ||A||_1,1, making the thorough
        # bracket lower > upper while still flagged certified. LDL now closes
        # the bracket first, so greedy is checked on its own.
        b = -1.793732557878405 + 0.4255125394149487j
        a = hermitian([[3.392696142714512, b], [np.conj(b), 1.0017217184894072]])
        greedy = dc.greedy_decompose(a)
        assert greedy.cost >= lr.norm_l11(a) * (1.0 - 1e-12)
        report = gm.gamma_plus_bounds(a, gm.EFFORT_THOROUGH, seed=122, oracle_restarts=1)
        assert report.lower <= report.upper
        assert report.certified

    def test_certificate_below_lower_bound_raises(self):
        # At this scale every vector falls under the null-vector floor, so the
        # certificates cost 0 < ||A||_1,1: a numerical failure, not a bracket.
        a = lr.ingest_matrix(np.array([[1, 1], [1, 2]]) * 1e-300)
        with pytest.raises(ReconstructionError):
            gm.gamma_plus_bounds(a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["dd", "2x2", "deficient", "wishart"]),
           n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_early_exit_matches_full_pick(self, kind, n, seed):
        """The report equals GammaReport.pick over every strategy, run by
        hand; strategies are skipped exactly when a proper prefix of them
        already sits within TIE_TOL of the lower bound."""
        a = _bracket_input(kind, n, seed)
        lower = lr.norm_l11(a)
        named = [("ldl", dc.ldl_decompose(a))]
        if dc.is_diagonally_dominant(a)[0]:
            named.append(("dd", dc.dd_decompose(a)))
        # The bracket's greedy, at its default budget.
        named.append(("greedy", dc.greedy_decompose(a)))
        full = gm.GammaReport.pick(gm.FUNCTIONAL_GAMMA_PLUS, lower, named)
        report = gm.gamma_plus_bounds(a)
        assert report.upper == full.upper
        assert report.certified == full.certified
        assert report.best.method == full.best.method
        assert len(report.best.vectors) == len(full.best.vectors)
        for got, want in zip(report.best.vectors, full.best.vectors):
            np.testing.assert_array_equal(got, want)
        closed = [k for k in range(1, len(named))
                  if gm.GammaReport.pick(gm.FUNCTIONAL_GAMMA_PLUS, lower, named[:k]).upper
                  <= lower * (1.0 + gm.TIE_TOL)]
        ran = closed[0] if closed else len(named)
        assert list(report.per_method) == [name for name, _ in named[:ran]]
        assert report.skipped == tuple(name for name, _ in named[ran:])
        assert bool(report.skipped) == bool(closed)
        if kind in ("dd", "2x2"):  # closed forms: LDL or DD sits on the bound
            assert report.skipped

    def test_one_eigensolve_per_fast_bracket(self, rng, monkeypatch):
        a = random_psd(rng, 5)
        calls = []
        solve = np.linalg.eigh

        def counted(m):
            calls.append(m.shape)
            return solve(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        report = gm.gamma_plus_bounds(a)
        assert set(report.per_method) == {"ldl", "greedy"}
        assert calls == [(5, 5)]

    def test_fast_bracket_never_runs_eigen(self, rng, monkeypatch):
        def refuse(a):
            raise AssertionError("eigen_decompose ran")

        monkeypatch.setattr(gm, "eigen_decompose", refuse)
        monkeypatch.setattr(dc, "eigen_decompose", refuse)
        report = gm.gamma_plus_bounds(random_psd(rng, 5))  # LDL leaves a gap here
        assert report.skipped == ()
        assert list(report.per_method) == ["ldl", "greedy"]
        gm.gamma0_bounds(random_hermitian(rng, 4))  # its eigen split runs both sides

    def test_diagonally_dominant_certified(self):
        report = gm.gamma_plus_bounds(hermitian([[2, 1], [1, 2]]))
        assert report.lower == pytest.approx(6.0, abs=1e-12)
        assert report.upper == pytest.approx(6.0, abs=1e-9)
        assert report.certified

    def test_2x2_always_certified(self):
        report = gm.gamma_plus_bounds(hermitian([[1, 2], [2, 5]]))
        assert report.lower == pytest.approx(10.0, abs=1e-12)
        assert report.upper == pytest.approx(10.0, abs=1e-9)
        assert report.certified

    def test_remark_matrix_not_certified(self):
        report = gm.gamma_plus_bounds(hermitian(REMARK_4X4))
        assert report.lower == 1.0
        assert report.upper > 1.0
        assert not report.certified
        assert report.skipped == ()

    @pytest.mark.parametrize("scale", [1e-6, 1e-9])
    def test_scaled_down_remark_matrix_not_certified(self, scale):
        # The gap upper / lower = 8/7 is scale-free; its absolute width is not.
        report = gm.gamma_plus_bounds(hermitian(REMARK_4X4 * scale))
        assert report.upper > report.lower * (1.0 + 1e-3)
        assert not report.certified

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            gm.gamma_plus_bounds(hermitian(FLIP))

    def test_report_invariants(self, rng):
        for _ in range(20):
            a = random_psd(rng, int(rng.integers(2, 6)))
            report = gm.gamma_plus_bounds(a)
            assert report.lower <= report.upper
            assert report.lower >= lr.norm_l11(a) - 1e-12
            assert report.upper == pytest.approx(report.best.cost, abs=1e-12)
            assert min(report.per_method.values()) >= report.upper - 1e-12


class TestGamma0Bounds:
    def test_flip_fixture_exact_four(self):
        report = gm.gamma0_bounds(hermitian(FLIP))
        assert report.lower == 2.0
        assert report.upper == 4.0  # the explicit half-sum split, exactly
        # the certificate is the explicit rank-one split of [[0,1],[1,0]]
        pos = sum(np.outer(v, v.conj()) for v in report.best.positive)
        np.testing.assert_allclose(pos, np.ones((2, 2)) / 2, atol=1e-15)
        neg = sum(np.outer(v, v.conj()) for v in report.best.negative)
        np.testing.assert_allclose(neg, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)

    def test_psd_input_bounded_by_gamma_plus(self):
        a = hermitian([[2, 1], [1, 2]])
        report = gm.gamma0_bounds(a)
        assert report.upper <= 6.0 + 1e-9
        assert len(report.best.negative) == 0

    def test_zero_matrix(self):
        report = gm.gamma0_bounds(hermitian(np.zeros((2, 2))))
        assert report.lower == 0.0
        assert report.upper == 0.0

    def test_upper_at_most_twice_gamma(self, rng):
        for _ in range(30):
            a = random_hermitian(rng, int(rng.integers(2, 6)))
            report = gm.gamma0_bounds(a)
            assert report.upper <= 2.0 * gm.gamma_exact(a) + 1e-9

    def test_lipschitz_two_tightness(self):
        # |gamma0(A) - gamma0(0)| / ||A - 0||_1,1 with the certified values
        upper = gm.gamma0_bounds(hermitian(FLIP)).upper
        zero = gm.gamma0_bounds(hermitian(np.zeros((2, 2)))).upper
        ratio = abs(upper - zero) / gm.gamma_exact(hermitian(FLIP))
        assert ratio == 2.0


@st.composite
def _matrices(draw, psd: bool):
    """Entries of a random n x n matrix, n in 1..6: PSD of any rank, or
    Hermitian."""
    n = draw(st.integers(1, 6), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if psd:
        return np.asarray(random_psd(rng, n, draw(st.integers(1, n), label="rank")).entries)
    return np.asarray(random_hermitian(rng, n).entries)


def _assert_bracket_holds(report):
    assert report.lower <= report.upper
    if report.certified:
        assert report.upper - report.lower <= gm.CERT_TOL * min(1.0, report.lower)


class TestBracketHolds:
    """lower <= upper exactly, and certified only on a closed bracket. On
    [[2.0]] every certificate costs one rounding below ||A||_1,1 = 2."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(entries=_matrices(psd=True))
    @example(entries=[[2.0]])
    def test_gamma_plus(self, entries):
        a = hermitian(entries)
        report = gm.gamma_plus_bounds(a)
        _assert_bracket_holds(report)
        assert report.lower >= lr.norm_l11(a) * (1.0 - 1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(entries=_matrices(psd=False))
    @example(entries=[[2.0]])
    def test_gamma0(self, entries):
        a = hermitian(entries)
        report = gm.gamma0_bounds(a)
        _assert_bracket_holds(report)
        assert report.lower >= lr.norm_l11(a) * (1.0 - 1e-12)


@st.composite
def _wishart_and_phases(draw):
    """(G, D): complex normal G of shape (n, k), n in 2..7 and k in 1..n,
    and n unit phases."""
    n = draw(st.integers(2, 7), label="n")
    k = draw(st.integers(1, n), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    angles = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n), label="angles")
    return g, np.exp(1j * np.array(angles))


def _phase_recipe(draw: int):
    """The draw-th (G, D) of a fixed recipe: from default_rng(1), n in 2..7,
    rank k in 1..n, complex normal G (n, k), D = exp(2 pi i U(0, 1)^n)."""
    rng = np.random.default_rng(1)
    for _ in range(draw):
        n = rng.integers(2, 8)
        k = rng.integers(1, n + 1)
        g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        d = np.exp(2j * np.pi * rng.uniform(size=n))
    return g, d


class TestPhaseInvariance:
    """The fast bracket of D A D*, with D diagonal of unit phases, is that
    of A: every strategy it runs picks from |.| quantities. The entries of
    D A D* round differently, so lower and upper agree to 1e-12 relative."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=_wishart_and_phases())
    @example(pair=_phase_recipe(5))  # n = 7, rank 6
    def test_fast_bracket(self, pair):
        g, d = pair
        a = g @ g.conj().T
        plain = gm.gamma_plus_bounds(hermitian(a))
        turned = gm.gamma_plus_bounds(hermitian(d[:, None] * a * d.conj()))
        assert turned.certified == plain.certified
        assert turned.lower == pytest.approx(plain.lower, rel=1e-12)
        assert turned.upper == pytest.approx(plain.upper, rel=1e-12)


@st.composite
def _wishart_and_permutation(draw):
    """(A, P): a complex Wishart A, n in 2..8 of rank 1..n, and a
    permutation of its indices."""
    n = draw(st.integers(2, 8), label="n")
    k = draw(st.integers(1, n), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return g @ g.conj().T, np.array(draw(st.permutations(range(n)), label="perm"))


def _half_rank_7():
    """perfbench bracket seed 2 op 246 (half_rank, n = 7), whose fast upper
    moved by 2.85 % under a roll of its indices by 3 while greedy searched
    every pivot order only up to n = 6."""
    rng = np.random.default_rng([2, 246])
    g = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    a = g @ g.conj().T
    return (a + a.conj().T) / 2.0


class TestPermutationInvariance:
    """The fast bracket of P A P* is that of A for n <= 8, P a permutation:
    natural-order LDL depends on the order, but greedy's search finds the
    cheapest of all pivot orders there and never costs more than LDL.
    certified is equal; lower and upper agree to 1e-12 relative, as the
    permuted entries are summed and searched in another order."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=_wishart_and_permutation())
    @example(pair=(_half_rank_7(), np.roll(np.arange(7), 3)))
    def test_fast_bracket(self, pair):
        a, perm = pair
        plain = gm.gamma_plus_bounds(hermitian(a))
        turned = gm.gamma_plus_bounds(hermitian(a[np.ix_(perm, perm)]))
        assert turned.certified == plain.certified
        assert turned.lower == pytest.approx(plain.lower, rel=1e-12)
        assert turned.upper == pytest.approx(plain.upper, rel=1e-12)


@st.composite
def _small_wishart(draw):
    """A complex Wishart A, n in 2..4 of rank 1..n, with its rng for the
    transformation drawn next."""
    n = draw(st.integers(2, 4), label="n")
    k = draw(st.integers(1, n), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    a = g @ g.conj().T
    return (a + a.conj().T) / 2.0, rng


def _assert_thorough_holds(entries):
    """On A: both brackets hold; the thorough upper is at most the fast one
    (1 + TIE_TOL), and thorough is certified whenever fast is."""
    a = hermitian(entries)
    fast = gm.gamma_plus_bounds(a)
    thorough = gm.gamma_plus_bounds(a, gm.EFFORT_THOROUGH, seed=0, oracle_restarts=2)
    for report in (fast, thorough):
        _assert_bracket_holds(report)
    assert thorough.upper <= fast.upper * (1.0 + dc.TIE_TOL)
    assert thorough.certified or not fast.certified


class TestThoroughBracket:
    """The thorough bracket's properties hold on A and on its unit-phase
    conjugations, permutations and 1e-16 relative perturbations; its upper
    may move under them (the oracle's answer is evidence, reproducible for
    bit-identical input only)."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(drawn=_small_wishart())
    def test_under_unit_phases(self, drawn):
        a, rng = drawn
        d = np.exp(2j * np.pi * rng.uniform(size=len(a)))
        _assert_thorough_holds(a)
        _assert_thorough_holds(d[:, None] * a * d.conj())

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(drawn=_small_wishart())
    def test_under_permutations(self, drawn):
        a, rng = drawn
        perm = rng.permutation(len(a))
        _assert_thorough_holds(a)
        _assert_thorough_holds(a[np.ix_(perm, perm)])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(drawn=_small_wishart())
    def test_under_relative_perturbations(self, drawn):
        a, rng = drawn
        e = rng.standard_normal(a.shape)
        _assert_thorough_holds(a)
        _assert_thorough_holds(a * (1.0 + 1e-16 * (e + e.T)))


class TestOracle:
    def test_certified_2x2(self):
        dec = gm.numeric_gamma_plus_oracle(hermitian([[2, 1], [1, 2]]), restarts=32, seed=0)
        assert dec.cost == pytest.approx(6.0, abs=1e-4)
        assert dec.cost >= 6.0 - 1e-9

    def test_rank_one(self):
        u = np.array([1.0, 2.0])
        dec = gm.numeric_gamma_plus_oracle(hermitian(np.outer(u, u)), restarts=4, seed=0)
        assert dec.cost == pytest.approx(9.0, abs=1e-6)

    def test_remark_matrix_gap(self):
        dec = gm.numeric_gamma_plus_oracle(hermitian(REMARK_4X4), restarts=8, seed=0)
        assert dec.cost > 1.0 + 1e-3
        assert len(dec.vectors) <= 17

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            gm.numeric_gamma_plus_oracle(hermitian(np.eye(7)))

    def test_never_beats_lower_bound(self, rng):
        for k in range(10):
            a = random_psd(rng, int(rng.integers(2, 5)))
            dec = gm.numeric_gamma_plus_oracle(a, restarts=2, seed=k)
            assert dec.cost >= lr.norm_l11(a) - 1e-9
            assert lr.verify_reconstruction(a, dec.vectors).ok

    def test_tiny_matrix_gets_a_certificate_on_the_bound(self):
        # ||A||_1,1 = 5e-11: eigen's family (cost 0) is dropped as a start
        # and no other start is given, so the certificate is a search result.
        # The search runs on A / ||A||_1,1 and reaches the bound, which every
        # 2x2 attains.
        tiny = hermitian([[1e-11, 1e-11], [1e-11, 2e-11]])
        dec = gm.numeric_gamma_plus_oracle(tiny, restarts=4, seed=0, warm=[])
        assert dec.method == dc.METHOD_ORACLE
        assert dec.cost == pytest.approx(5e-11, rel=1e-12)
        assert lr.verify_reconstruction(tiny, dec.vectors).max_residual < 1e-25

    def test_no_certificate_at_or_above_the_bound_raises(self, monkeypatch):
        # eigen's family is dropped as a start, no other start is given, and
        # every search result is dropped: the pool is empty.
        monkeypatch.setattr(gm, "_restore_feasibility", lambda a, g: None)
        tiny = hermitian([[1e-11, 1e-11], [1e-11, 2e-11]])
        with pytest.raises(ReconstructionError):
            gm.numeric_gamma_plus_oracle(tiny, restarts=4, seed=0, warm=[])

    def test_never_costs_more_than_its_warm_starts(self, rng):
        # The standalone oracle starts from greedy and ldl, which join its
        # pool as they are.
        for k in range(8):
            n = int(rng.integers(2, 5))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            dec = gm.numeric_gamma_plus_oracle(a, restarts=1, seed=k)
            assert dec.cost <= dc.ldl_decompose(a).cost
            assert dec.cost <= dc.greedy_decompose(a).cost

    def test_every_restore_failing_leaves_the_cheapest_warm_start(self, monkeypatch):
        restores = []
        monkeypatch.setattr(gm, "_restore_feasibility", lambda a, g: restores.append(g))
        a = hermitian(REMARK_4X4)
        warm = [dc.greedy_decompose(a), dc.ldl_decompose(a)]
        dec = gm.numeric_gamma_plus_oracle(a, restarts=2, seed=0, warm=warm)
        assert len(restores) == 2  # one per start
        best = min(warm + [dc.eigen_decompose(a)], key=lambda d: d.cost)
        assert dec.cost == best.cost
        for got, want in zip(dec.vectors, best.vectors, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_thorough_bracket_hands_the_oracle_its_certificates(self, monkeypatch):
        calls = {}
        for name in ("greedy_decompose", "ldl_decompose", "numeric_gamma_plus_oracle"):
            def counting(*args, _name=name, _f=getattr(gm, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(gm, name, counting)
        report = gm.gamma_plus_bounds(hermitian(REMARK_4X4), gm.EFFORT_THOROUGH,
                                      oracle_restarts=1)
        assert "oracle" in report.per_method
        assert calls == {"greedy_decompose": 1, "ldl_decompose": 1,
                         "numeric_gamma_plus_oracle": 1}


def _range_factor(a):
    """L^T for A = L L*, with L the eigenvectors above the numerical_rank
    cut scaled by sqrt(lambda), as the oracle builds it."""
    k = dc.numerical_rank(a)
    es = a.eigensystem
    return (es.eigenvectors[:, a.n - k:] * np.sqrt(es.eigenvalues[a.n - k:])).T


def _complex_objective(x, lt, eps):
    """Reference: the smoothed cost of g = C L^T for one complex (m, k) X,
    with its polar factor C = U W* from the SVD X = U diag(s) W*."""
    u, _, wh = np.linalg.svd(x, full_matrices=False)
    g = (u @ wh) @ lt
    l1 = np.sqrt(g.real ** 2 + g.imag ** 2 + eps * eps).sum(axis=1)
    return float((l1 ** 2).sum())


def _theta(x):
    """Search coordinates of the complex (m, k) X: one row of (Re, Im) pairs."""
    return np.ascontiguousarray(x).view(np.float64).reshape(1, -1)


def _random_x(rng, lt):
    """A complex Gaussian X of the oracle's shape (k^2 + 1, k)."""
    k = lt.shape[0]
    return rng.standard_normal((k * k + 1, k)) + 1j * rng.standard_normal((k * k + 1, k))


RANKS = [(3, 3), (4, 4), (3, 2), (4, 3), (4, 1)]


class TestOracleObjective:
    @pytest.mark.parametrize("n, rank", RANKS)
    def test_value_matches_complex_formula(self, rng, n, rank):
        lt = _range_factor(random_psd(rng, n, rank))
        for _ in range(4):
            x = _random_x(rng, lt)
            f, _ = gm._oracle_objective(_theta(x), lt, 1e-8)
            assert f.shape == (1,)
            assert f[0] == pytest.approx(_complex_objective(x, lt, 1e-8), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, rank", RANKS)
    def test_gradient_matches_central_differences(self, rng, n, rank):
        # At rank 1 every C is a unit column, so the cost is constant up to
        # the smoothing and the gradient all but vanishes: the tolerance is
        # relative to the value.
        lt = _range_factor(random_psd(rng, n, rank))
        theta = _theta(_random_x(rng, lt))
        f, grad = gm._oracle_objective(theta, lt, 1e-8)
        assert grad.shape == theta.shape
        step = 1e-6
        diffs = np.empty_like(theta)
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[0, i] = step
            up = gm._oracle_objective(theta + e, lt, 1e-8)[0][0]
            down = gm._oracle_objective(theta - e, lt, 1e-8)[0][0]
            diffs[0, i] = (up - down) / (2.0 * step)
        np.testing.assert_allclose(grad, diffs, rtol=0.0, atol=1e-7 * f[0])

    @pytest.mark.parametrize("n, rank", [(4, 4), (4, 2)])
    def test_each_start_of_a_batch_matches_its_single_call(self, rng, n, rank):
        lt = _range_factor(random_psd(rng, n, rank))
        batch = np.vstack([_theta(_random_x(rng, lt)) for _ in range(5)])
        f, grad = gm._oracle_objective(batch, lt, 1e-8)
        assert f.shape == (5,) and grad.shape == batch.shape
        for j in range(5):
            f1, grad1 = gm._oracle_objective(batch[j:j + 1], lt, 1e-8)
            assert f[j] == pytest.approx(f1[0], rel=1e-12, abs=0.0)
            np.testing.assert_allclose(grad[j], grad1[0], rtol=0.0,
                                       atol=1e-12 * np.abs(grad1).max())

    def test_beats_its_greedy_warm_start_on_rank_deficient_input(self):
        # A planted rank-3 4x4 on which the search in range(A) finds a
        # cheaper family than every warm start.
        a = random_psd(np.random.default_rng(2), 4, 3)
        greedy = dc.greedy_decompose(a)
        dec = gm.numeric_gamma_plus_oracle(a, restarts=1, seed=0)
        assert dec.cost < greedy.cost * (1.0 - 1e-3)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1))
    def test_rank_deficient_result_is_valid(self, data, n, seed):
        rank = data.draw(st.integers(1, n - 1), label="rank")
        a = random_psd(np.random.default_rng(seed), n, rank)
        dec = gm.numeric_gamma_plus_oracle(a, restarts=1, seed=0)
        assert lr.verify_reconstruction(a, dec.vectors).ok
        assert dec.cost >= lr.norm_l11(a) * (1.0 - 1e-12)
        assert dec.cost <= dc.ldl_decompose(a).cost


def _quadratic(a, centre):
    """f(x) = (x - centre) A (x - centre) / 2 for each row of x, with gradient."""
    def fun(x):
        grad = (x - centre) @ a
        return 0.5 * np.einsum("ij,ij->i", grad, x - centre), grad
    return fun


def _conditioned(rng, dim, cond):
    """A random symmetric matrix with eigenvalues from 1 to cond."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (q * np.logspace(0.0, np.log10(cond), dim)) @ q.T


class TestMinimize:
    def test_reaches_gtol_at_condition_1e6(self, rng, monkeypatch):
        # Without the ftol test only gtol stops a row inside the cap.
        monkeypatch.setattr(gm, "LBFGS_FTOL", 0.0)
        fun = _quadratic(_conditioned(rng, 6, 1e6), 0.0)
        x = gm.minimize(fun, rng.standard_normal((4, 6)))
        assert np.abs(fun(x)[1]).max() <= gm.LBFGS_GTOL

    def test_row_at_the_minimizer_is_untouched_and_rows_are_independent(self, rng):
        centre = rng.standard_normal(6)
        fun = _quadratic(_conditioned(rng, 6, 1e3), centre)
        x0 = np.vstack([rng.standard_normal((2, 6)), centre, rng.standard_normal((2, 6))])
        x = gm.minimize(fun, x0)
        assert np.array_equal(x[2], x0[2])
        for j in (0, 1, 3, 4):
            solo = gm.minimize(fun, x0[j:j + 1])
            np.testing.assert_allclose(x[j], solo[0], rtol=0.0, atol=1e-10)

    def test_iteration_cap_holds_per_row(self, rng, monkeypatch):
        # Rows 0 and 1 need many iterations; row 2, an eigenvector, needs few.
        # Each iteration runs one line search over the rows still going, so
        # at a cap of 7 there are 7 of them, the last over rows 0 and 1 only.
        # Those rows end where their solo runs end, below where a cap of 6
        # leaves them and above where a cap of 8 does.
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        fun = _quadratic((q * np.logspace(0.0, 4.0, 20)) @ q.T, 0.0)
        x0 = np.vstack([rng.standard_normal((2, 20)), q[:, 5]])
        line_search, batches = gm._line_search, []

        def counted(fun, args, x, *rest):
            batches.append(len(x))
            return line_search(fun, args, x, *rest)

        def capped(cap, start):
            monkeypatch.setattr(gm, "LBFGS_MAXITER", cap)
            return gm.minimize(fun, start)

        monkeypatch.setattr(gm, "_line_search", counted)
        x = capped(7, x0)
        assert len(batches) == 7 and batches[0] == 3 and batches[-1] == 2
        assert np.abs(fun(x[2:])[1]).max() <= gm.LBFGS_GTOL
        for j in range(2):
            value = fun(x[j:j + 1])[0][0]
            np.testing.assert_allclose(x[j], capped(7, x0[j:j + 1])[0], rtol=0.0, atol=1e-12)
            assert fun(capped(8, x0[j:j + 1]))[0][0] < value < fun(capped(6, x0[j:j + 1]))[0][0]

    def test_line_search_meets_strong_wolfe(self):
        # From x = 0 towards the minimizer 1 of (x - 1)^2 / 2, step 1.95 has
        # sufficient decrease but slope 0.95 > 0.9 |slope(0)|: not accepted.
        fun = _quadratic(np.eye(1), 1.0)
        x, d = np.zeros((2, 1)), np.ones((2, 1))
        f0, g = fun(x)
        x_new, f_new, g_new, taken = gm._line_search(fun, (), x, f0.tolist(), g, d,
                                                     [-1.0, -1.0], [1.95, 1.0])
        assert taken[0] != 1.95 and taken[1] == 1.0
        assert np.all(np.abs(g_new * d) <= gm.WOLFE_C2)
        assert f_new[0] <= f0[0] - gm.WOLFE_C1 * taken[0]

    def test_non_finite_trial_stays_in_its_row(self, rng):
        # Beyond the wall x_0 > 0.3 the value is inf and the gradient nan. Row
        # 0 starts 0.5 left of the minimizer 0, so its first trial, a unit
        # step from an empty memory, lands past the wall.
        quad = _quadratic(np.eye(5), 0.0)
        walls = []

        def fun(x):
            f, grad = quad(x)
            wall = x[:, 0] > 0.3
            walls.append(wall.copy())
            f[wall], grad[wall] = np.inf, np.nan
            return f, grad

        x0 = np.vstack([[-0.5, 0.01, 0.0, 0.0, 0.0], rng.standard_normal((2, 5)) * 0.1])
        x = gm.minimize(fun, x0)
        assert walls[1][0]  # the first trials of all rows, row 0 past the wall
        assert np.all(np.isfinite(x)) and fun(x[:1])[0][0] < 1e-20
        for j in (1, 2):
            solo = gm.minimize(fun, x0[j:j + 1])
            np.testing.assert_allclose(x[j], solo[0], rtol=0.0, atol=1e-10)


    def test_row_without_a_finite_trial_stops_where_it_started(self, rng):
        # Row 0 starts at p; every other point with x_0 > 5 is non-finite, so
        # its one line search fails after LINE_SEARCH_EVALS trials.
        quad = _quadratic(np.eye(4), 0.0)
        p = np.full(4, 10.0)
        trials = []

        def fun(x):
            f, grad = quad(x)
            blocked = (x[:, 0] > 5.0) & ~np.all(x == p, axis=1)
            trials.append(int(blocked.sum()))
            f[blocked], grad[blocked] = np.nan, np.nan
            return f, grad

        x0 = np.vstack([p, rng.standard_normal((1, 4))])
        x = gm.minimize(fun, x0)
        assert np.array_equal(x[0], p)
        assert sum(trials) == gm.LINE_SEARCH_EVALS
        assert np.abs(x[1]).max() < 1e-8


class TestRestoreFeasibility:
    """_restore_feasibility builds one search result, checked, or drops it."""

    def test_search_results_are_exact(self, rng, monkeypatch):
        points, families, build = [], [], gm._restore_feasibility

        def minimize(*args, _f=gm.minimize, **kwargs):
            points.append(_f(*args, **kwargs))
            return points[-1]

        def restore(a, g):
            families.append(g)
            return build(a, g)

        monkeypatch.setattr(gm, "minimize", minimize)
        monkeypatch.setattr(gm, "_restore_feasibility", restore)
        for n, rank in [(3, 3), (4, 4), (3, 2), (4, 3), (4, 2)]:
            a = random_psd(rng, n, rank)
            points.clear()
            families.clear()
            gm.numeric_gamma_plus_oracle(a, restarts=4, seed=0, warm=[])
            k = dc.numerical_rank(a)
            (x,) = points
            for c in gm._polar(x.view(np.complex128).reshape(4, -1, k))[0]:
                np.testing.assert_allclose(c.conj().T @ c, np.eye(k), rtol=0.0, atol=1e-12)
            assert len(families) == 4  # one per start
            for family in families:
                assert lr.verify_reconstruction(a, family).ok
                dec = build(a, family)
                assert dec.method == dc.METHOD_ORACLE
                np.testing.assert_array_equal(np.array(dec.vectors), family)

    def test_result_below_the_lower_bound_is_dropped(self, monkeypatch):
        # Rank one plus 1e-10 of rank two: the search runs on the rank-one
        # part above the numerical_rank cut, and its results pass the check
        # but cost about 2e-10 (relative) below ||A||_1,1.
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        a = hermitian(g @ g.conj().T + 1e-10 * (h @ h.conj().T))
        lower, build, found = lr.norm_l11(a), gm._restore_feasibility, []
        monkeypatch.setattr(gm, "_restore_feasibility",
                            lambda a, g: found.append(build(a, g)) or found[-1])
        report = gm.gamma_plus_bounds(a, gm.EFFORT_THOROUGH, oracle_restarts=2)
        assert any(dc.below_lower_bound(dec.cost, lower) for dec in found)
        assert "oracle" in report.per_method
        assert not dc.below_lower_bound(report.upper, lower)

    def test_all_null_family_is_dropped(self, rng):
        a = random_psd(rng, 3)
        assert gm._restore_feasibility(a, np.zeros((4, 3), dtype=np.complex128)) is None

    def test_calls_no_eigh(self, rng, monkeypatch):
        a = random_psd(rng, 4, 2)
        a.eigensystem  # the oracle has solved it (is_psd) before any search result

        def fail(m):
            raise AssertionError("eigh called")

        for module in (lr.hermitian, gm):
            monkeypatch.setattr(module, "eigh", fail)
        dec = gm._restore_feasibility(a, lr.ldl_factor(a))
        assert lr.verify_reconstruction(a, dec.vectors).ok

    def test_family_failing_the_check_is_dropped(self):
        # An exact family moved by 1e-6 misses A far beyond RECON_TOL.
        a = random_psd(np.random.default_rng(3), 4)
        exact = np.array(lr.ldl_factor(a))
        assert gm._restore_feasibility(a, exact) is not None
        assert gm._restore_feasibility(a, exact + 1e-6) is None


class TestFunctionalProperties:
    def test_certificate_subadditivity(self, rng):
        # The union of certificates for A and B is an exact certificate for
        # A + B, costing at most the sum of their uppers.
        for _ in range(15):
            n = int(rng.integers(2, 6))
            a, b = random_psd(rng, n), random_psd(rng, n)
            ra = gm.gamma_plus_bounds(a)
            rb = gm.gamma_plus_bounds(b)
            ab = lr.ingest_matrix(a.entries + b.entries)
            union = dc.RankOneDecomposition.build(
                ab, list(ra.best.vectors) + list(rb.best.vectors), "external")
            assert union.cost <= ra.upper + rb.upper + 1e-6

    def test_positive_homogeneity_closed_forms(self, rng):
        for scale in (0.5, 2.0, 3.0):
            a = random_psd(rng, 4)
            sa = lr.ingest_matrix(scale * a.entries)
            for op in (dc.ldl_decompose, dc.eigen_decompose):
                assert op(sa).cost == pytest.approx(scale * op(a).cost, rel=1e-9)

    def test_positive_homogeneity_search_methods(self, rng):
        # dyadic factors keep every floating-point comparison identical
        for scale in (0.5, 4.0):
            a = random_psd(rng, 3)
            sa = lr.ingest_matrix(scale * a.entries)
            assert dc.greedy_decompose(sa).cost == pytest.approx(
                scale * dc.greedy_decompose(a).cost, rel=1e-9)

    def test_gamma_is_a_norm(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a, b = random_hermitian(rng, n), random_hermitian(rng, n)
            ga = gm.gamma_exact(a)
            gb = gm.gamma_exact(b)
            gab = gm.gamma_exact(lr.ingest_matrix(a.entries + b.entries))
            assert gab <= ga + gb + 1e-12 * max(1.0, ga + gb)
            for t in (-2.0, 0.5, 3.0):
                gta = gm.gamma_exact(lr.ingest_matrix(t * a.entries))
                assert gta == pytest.approx(abs(t) * ga, rel=1e-12)
        assert gm.gamma_exact(hermitian(np.zeros((3, 3)))) == 0.0

    def test_empirical_lipschitz_diagnostic(self, rng):
        # recorded as a diagnostic: violations warn instead of failing
        n = 4
        delta = 0.5 / n
        bound_const = n / delta + n ** 1.5
        worst = 0.0
        for _ in range(20):
            def draw():
                z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                q, _ = np.linalg.qr(z)
                lam = rng.uniform(delta, 1.0 / n, size=n)
                m = (q * lam) @ q.conj().T
                return lr.ingest_matrix((m + m.conj().T) / 2.0)

            t1, t2 = draw(), draw()
            u1 = gm.gamma_plus_bounds(t1).upper
            u2 = gm.gamma_plus_bounds(t2).upper
            dist = lr.operator_norm(lr.ingest_matrix(t1.entries - t2.entries))
            excess = abs(u1 - u2) - (bound_const * dist + 2e-3)
            worst = max(worst, excess)
        if worst > 0.0:
            warnings.warn(
                f"empirical Lipschitz diagnostic exceeded the stated bound by {worst:.3e}"
            )
        assert np.isfinite(worst)
