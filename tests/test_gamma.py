"""Functionals: exact gamma, gamma_plus / gamma_zero brackets, the oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1rankone as lr
from l1rankone import decompose as dc
from l1rankone import gamma as gm
from l1rankone.errors import BudgetExceededError, NotPSDError, ReconstructionError
from l1rankone.hermitian import RECON_TOL

from conftest import hermitian, random_dd, random_hermitian, random_psd

from test_hermitian import REMARK_4X4

LIGHT = dc.GreedyConfig(restarts=2, max_iter=80)
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
        greedy = dc.greedy_decompose(a, dc.GreedyConfig(restarts=16, seed=122))
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
        named = [("ldl", dc.ldl_decompose(a)), ("eigen", dc.eigen_decompose(a))]
        if dc.is_diagonally_dominant(a)[0]:
            named.append(("dd", dc.dd_decompose(a)))
        named.append(("greedy", dc.greedy_decompose(a, LIGHT)))
        full = gm.GammaReport.pick(gm.FUNCTIONAL_GAMMA_PLUS, lower, named)
        report = gm.gamma_plus_bounds(a, greedy_config=LIGHT)
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
        assert set(report.per_method) == {"ldl", "eigen", "greedy"}
        assert calls == [(5, 5)]

    def test_diagonally_dominant_certified(self):
        report = gm.gamma_plus_bounds(hermitian([[2, 1], [1, 2]]), greedy_config=LIGHT)
        assert report.lower == pytest.approx(6.0, abs=1e-12)
        assert report.upper == pytest.approx(6.0, abs=1e-9)
        assert report.certified

    def test_2x2_always_certified(self):
        report = gm.gamma_plus_bounds(hermitian([[1, 2], [2, 5]]), greedy_config=LIGHT)
        assert report.lower == pytest.approx(10.0, abs=1e-12)
        assert report.upper == pytest.approx(10.0, abs=1e-9)
        assert report.certified

    def test_remark_matrix_not_certified(self):
        report = gm.gamma_plus_bounds(hermitian(REMARK_4X4), greedy_config=LIGHT)
        assert report.lower == 1.0
        assert report.upper > 1.0
        assert not report.certified
        assert report.skipped == ()

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            gm.gamma_plus_bounds(hermitian(FLIP))

    def test_report_invariants(self, rng):
        for _ in range(20):
            a = random_psd(rng, int(rng.integers(2, 6)))
            report = gm.gamma_plus_bounds(a, greedy_config=LIGHT)
            assert report.lower <= report.upper + 1e-9
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
        report = gm.gamma0_bounds(a, greedy_config=LIGHT)
        assert report.upper <= 6.0 + 1e-9
        assert len(report.best.negative) == 0

    def test_zero_matrix(self):
        report = gm.gamma0_bounds(hermitian(np.zeros((2, 2))))
        assert report.lower == 0.0
        assert report.upper == 0.0

    def test_upper_at_most_twice_gamma(self, rng):
        for _ in range(30):
            a = random_hermitian(rng, int(rng.integers(2, 6)))
            report = gm.gamma0_bounds(a, greedy_config=LIGHT)
            assert report.upper <= 2.0 * gm.gamma_exact(a) + 1e-9

    def test_lipschitz_two_tightness(self):
        # |gamma0(A) - gamma0(0)| / ||A - 0||_1,1 with the certified values
        upper = gm.gamma0_bounds(hermitian(FLIP)).upper
        zero = gm.gamma0_bounds(hermitian(np.zeros((2, 2)))).upper
        ratio = abs(upper - zero) / gm.gamma_exact(hermitian(FLIP))
        assert ratio == 2.0


class TestOmegaMembership:
    def test_inside_certified(self):
        t = hermitian(np.array([[2, 1], [1, 2]]) / 6.0)
        assert gm.omega_membership(t) == gm.INSIDE

    def test_outside_not_psd(self):
        assert gm.omega_membership(hermitian(FLIP)) == gm.OUTSIDE

    def test_outside_l11(self):
        assert gm.omega_membership(hermitian(2 * np.eye(2))) == gm.OUTSIDE

    def test_undecided_in_gap(self):
        # scaled Remark matrix: lower < 1 < best upper
        t = hermitian(REMARK_4X4 / 1.05)
        assert gm.omega_membership(t) == gm.UNDECIDED


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


def _bisection_restore(a, g):
    """Reference restore: bisect 60 times for the largest lambda in [0, 1]
    with lambda_min(A - lambda S) >= -1e-13 max(1, ||A - lambda S||_op),
    then peel the residual by LDL, pulling lambda back if that fails.
    Returns (lambda, family)."""
    keep = dc.drop_null_vectors(a, g)
    if not keep:
        return None, lr.ldl_factor(a)
    s = sum(np.outer(v, v.conj()) for v in keep)
    s = (s + s.conj().T) / 2.0

    def residual_at(lam):
        resid = a.entries - lam * s
        return lr.HermitianMatrix((resid + resid.conj().T) / 2.0)

    def psd_at(lam):
        vals = lr.eigh(residual_at(lam)).eigenvalues
        return float(vals[0]) >= -1e-13 * max(1.0, float(np.abs(vals).max()))

    lo, hi = (1.0, 1.0) if psd_at(1.0) else (0.0, 1.0)
    for _ in range(60 if lo < 1.0 else 0):
        mid = (lo + hi) / 2.0
        if psd_at(mid):
            lo = mid
        else:
            hi = mid
    for pullback in (1.0, 1.0 - 1e-9, 1.0 - 1e-6, 1.0 - 1e-3):
        try:
            tail = lr.ldl_factor(residual_at(lo * pullback), psd_tol=1e-8)
        except NotPSDError:
            continue
        return lo * pullback, [np.sqrt(lo * pullback) * v for v in keep] + tail
    return None, lr.ldl_factor(a)


class TestRestoreFeasibility:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 4), log_noise=st.floats(-12.0, 0.0),
           extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_bisection(self, data, n, log_noise, extra, seed):
        """Closed-form lambda against the bisection reference: equal to
        1e-8 on full-rank A; on rank-deficient A the slack alone sets
        lambda, so only the restored costs are compared."""
        rank = data.draw(st.integers(1, n), label="rank")
        rng = np.random.default_rng(seed)
        a = random_psd(rng, n, rank)
        scale = 10.0 ** log_noise * np.sqrt(lr.operator_norm(a))

        def noise():
            return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

        exact = lr.ldl_factor(a)
        out = gm._restore_feasibility(a, exact)
        assert all(np.array_equal(u, v) for u, v in zip(out, exact))  # lambda = 1

        family = [v + noise() for v in exact] + [noise() for _ in range(extra)]
        out = gm._restore_feasibility(a, family)
        assert lr.verify_reconstruction(a, out).ok
        lam_ref, ref = _bisection_restore(a, family)
        assert lam_ref is not None
        if rank == n:
            kept = dc.drop_null_vectors(a, family)[0]
            lam = (dc.vector_l1(out[0]) / dc.vector_l1(kept)) ** 2
            assert lam == pytest.approx(lam_ref, rel=1e-8, abs=0.0)
        else:
            cost, cost_ref = dc.decomposition_cost(out), dc.decomposition_cost(ref)
            assert cost == pytest.approx(cost_ref, rel=1e-6)

    def test_calls_no_eigh(self, rng, monkeypatch):
        a = random_psd(rng, 4, 2)
        a.eigensystem  # the oracle has solved it (is_psd) before any restore
        family = [v + 1e-6 for v in lr.ldl_factor(a)]

        def fail(m):
            raise AssertionError("eigh called")

        for module in (lr.hermitian, gm):
            monkeypatch.setattr(module, "eigh", fail)
        assert lr.verify_reconstruction(a, gm._restore_feasibility(a, family)).ok


class TestInequalityReport:
    def test_flip(self):
        rep = gm.inequality_report(hermitian(FLIP))
        assert rep.trace_norm == pytest.approx(2.0, abs=1e-12)
        assert rep.l11 == 2.0
        assert rep.gamma0_upper == pytest.approx(4.0, abs=1e-12)
        assert rep.gamma_plus_upper is None
        assert rep.all_ok

    def test_identity(self):
        rep = gm.inequality_report(hermitian(np.eye(3)))
        assert rep.trace_norm == pytest.approx(3.0, abs=1e-12)
        assert rep.l11 == 3.0
        assert rep.gamma0_upper == pytest.approx(3.0, abs=1e-9)
        assert rep.gamma_plus_upper == pytest.approx(3.0, abs=1e-9)
        assert rep.all_ok

    def test_random_gram(self, rng):
        for _ in range(10):
            rep = gm.inequality_report(random_psd(rng, int(rng.integers(2, 6))))
            assert rep.all_ok


class TestFunctionalProperties:
    def test_certificate_subadditivity(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 6))
            a, b = random_psd(rng, n), random_psd(rng, n)
            ra = gm.gamma_plus_bounds(a, greedy_config=LIGHT)
            rb = gm.gamma_plus_bounds(b, greedy_config=LIGHT)
            ab = lr.ingest_matrix(a.entries + b.entries)
            union = dc.RankOneDecomposition.build(
                ab, list(ra.best.vectors) + list(rb.best.vectors), "external")
            rab = gm.gamma_plus_bounds(ab, greedy_config=LIGHT,
                                       seed_decompositions=[union])
            assert rab.upper <= ra.upper + rb.upper + 1e-6

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
            cfg = dc.GreedyConfig(restarts=2, seed=3)
            assert dc.greedy_decompose(sa, cfg).cost == pytest.approx(
                scale * dc.greedy_decompose(a, cfg).cost, rel=1e-9)

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
            u1 = gm.gamma_plus_bounds(t1, greedy_config=LIGHT).upper
            u2 = gm.gamma_plus_bounds(t2, greedy_config=LIGHT).upper
            dist = lr.operator_norm(lr.ingest_matrix(t1.entries - t2.entries))
            excess = abs(u1 - u2) - (bound_const * dist + 2e-3)
            worst = max(worst, excess)
        if worst > 0.0:
            warnings.warn(
                f"empirical Lipschitz diagnostic exceeded the stated bound by {worst:.3e}"
            )
        assert np.isfinite(worst)
