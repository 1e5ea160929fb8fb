"""Core matrix type: ingestion, norms, eigensolver, LDL, reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import l1rankone as lr
from l1rankone.errors import (
    DimensionMismatchError,
    EigenFailureError,
    NonFiniteInputError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    ScaleOverflowError,
)
from l1rankone.hermitian import PIVOT_TOL, PSD_TOL

from conftest import hermitian, random_hermitian, random_psd

REMARK_4X4 = np.array(
    [[1, 0, 1, 1], [0, 1, -1, 1], [1, -1, 2, 0], [1, 1, 0, 2]], dtype=float
) / 14.0

# (n, r, seed) of real Gram matrices G G^T, G = default_rng(seed).standard_normal((n, r)),
# on which natural-order elimination meets a Schur pivot below -PSD_TOL * scale
# from rounding growth alone: each is PSD to is_psd.
ROUNDING_GROWTH = [(4, 3, 1370), (5, 3, 1370), (6, 4, 1652), (6, 5, 1900), (7, 5, 1900),
                   (8, 6, 439), (8, 7, 554), (8, 7, 588), (9, 7, 554), (9, 7, 588),
                   (10, 8, 2818)]


def rounding_growth_gram(n, r, seed) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, r))
    return g @ g.T


class TestIngest:
    def test_already_hermitian(self):
        a = lr.ingest_matrix([[2, 1], [1, 2]])
        np.testing.assert_array_equal(a.entries, np.array([[2, 1], [1, 2]], dtype=complex))

    def test_complex_off_diagonal(self):
        raw = np.array([[0, 1j], [-1j, 0]])
        a = lr.ingest_matrix(raw)
        np.testing.assert_array_equal(a.entries, raw)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError) as exc:
            lr.ingest_matrix([[0, 1], [0, 0]], hermitian_tol=1e-12)
        assert exc.value.deviation == pytest.approx(1.0)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            lr.ingest_matrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_rejected(self, bad):
        with pytest.raises(NonFiniteInputError):
            lr.ingest_matrix([[bad, 0], [0, 0]])
        with pytest.raises(NonFiniteInputError):
            lr.ingest_matrix([[1, 0], [complex(0, bad), 1]])

    def test_overflowing_scale_rejected(self):
        # n * max |A_ij| past sqrt(float max) would overflow a column's squared l1 norm.
        edge = lr.hermitian.MAX_SCALE / 2
        assert lr.ingest_matrix([[edge, 0], [0, edge]]).n == 2
        with pytest.raises(ScaleOverflowError):
            lr.ingest_matrix([[edge * 1.01, 0], [0, 0]])

    def test_entries_read_only(self):
        a = lr.ingest_matrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0
        direct = lr.HermitianMatrix(np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            direct.entries[0, 0] = 5.0

    def test_view_is_copied_so_the_eigensystem_stays_valid(self):
        base = np.eye(2, dtype=complex)
        a = lr.HermitianMatrix(base[:, :])
        assert lr.operator_norm(a) == 1.0
        base[0, 0] = 5.0
        assert a.entries[0, 0] == 1.0
        assert lr.operator_norm(a) == 1.0

    def test_symmetrization_within_tol(self):
        a = lr.ingest_matrix([[1, 1 + 1e-12], [1, 1]])
        assert a.entries[0, 1] == a.entries[1, 0].conjugate()


class TestNorms:
    def test_l11_flip(self):
        assert lr.norm_l11(hermitian([[0, 1], [1, 0]])) == 2.0

    def test_l11_identity(self):
        assert lr.norm_l11(hermitian(np.eye(3))) == 3.0

    def test_l11_remark_matrix_is_one(self):
        assert lr.norm_l11(hermitian(REMARK_4X4)) == 1.0

    def test_trace_norm_flip(self):
        assert lr.trace_norm(hermitian([[0, 1], [1, 0]])) == pytest.approx(2.0, abs=1e-12)

    def test_trace_norm_identity(self):
        assert lr.trace_norm(hermitian(np.eye(3))) == pytest.approx(3.0, abs=1e-12)

    def test_trace_norm_2x2(self):
        # eigenvalues 3 and 1 by the characteristic polynomial
        assert lr.trace_norm(hermitian([[2, 1], [1, 2]])) == pytest.approx(4.0, abs=1e-12)

    def test_operator_frobenius(self):
        flip = hermitian([[0, 1], [1, 0]])
        assert lr.operator_norm(flip) == pytest.approx(1.0, abs=1e-12)
        assert lr.frobenius_norm(flip) == pytest.approx(np.sqrt(2), abs=1e-12)
        eye3 = hermitian(np.eye(3))
        assert lr.operator_norm(eye3) == pytest.approx(1.0, abs=1e-12)
        assert lr.frobenius_norm(eye3) == pytest.approx(np.sqrt(3), abs=1e-12)
        a = hermitian([[2, 1], [1, 2]])
        assert lr.operator_norm(a) == pytest.approx(3.0, abs=1e-12)
        assert lr.frobenius_norm(a) == pytest.approx(np.sqrt(10), abs=1e-12)


class TestEigh:
    def test_diagonal(self):
        es = lr.eigh(hermitian(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(es.eigenvalues, [1.0, 3.0])
        np.testing.assert_allclose(es.eigenvectors, [[0, 1], [1, 0]], atol=1e-15)

    def test_2x2_hand_diagonalization(self):
        es = lr.eigh(hermitian([[2, 1], [1, 2]]))
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(es.eigenvalues, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(es.eigenvectors[:, 0], [s, -s], atol=1e-12)
        np.testing.assert_allclose(es.eigenvectors[:, 1], [s, s], atol=1e-12)

    def test_complex_antidiagonal(self):
        a = hermitian([[0, 1j], [-1j, 0]])
        es = lr.eigh(a)
        np.testing.assert_allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-12)
        resid = a.entries @ es.eigenvectors - es.eigenvectors * es.eigenvalues
        assert np.abs(resid).max() <= 1e-12

    def test_sign_convention(self, rng):
        for _ in range(10):
            a = random_hermitian(rng, 4)
            vecs = lr.eigh(a).eigenvectors
            for k in range(4):
                lead = vecs[np.flatnonzero(np.abs(vecs[:, k]) > 1e-12)[0], k]
                assert abs(lead.imag) <= 1e-14
                assert lead.real > 0

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
    def test_matches_lapack(self, n, rng):
        for _ in range(10):
            a = random_hermitian(rng, n)
            es = lr.eigh(a)
            ref = np.linalg.eigvalsh(a.entries)
            scale = max(1.0, float(np.abs(ref).max()))
            assert np.abs(es.eigenvalues - ref).max() <= 1e-10 * scale
            resid = a.entries @ es.eigenvectors - es.eigenvectors * es.eigenvalues
            assert np.abs(resid).max() <= 1e-10 * scale
            gram = es.eigenvectors.conj().T @ es.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-12

    def test_phase_fix_matches_loop_reference(self, rng):
        """On a simple spectrum, where LAPACK's basis is kept, the vectorised
        phase fix equals the per-column loop bit for bit.

        LAPACK returns a real first row, so the pivot only moves to a complex
        coordinate when an eigenvector's first coordinate is (near) zero: the
        last two cases plant an eigenvector whose first coordinate is 0 or 1e-7.
        """
        for n in range(1, 17):
            cases = [random_hermitian(rng, n), random_psd(rng, n)]
            for first in (0.0, 1e-7):
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                g[0, 0] = first
                u, _ = np.linalg.qr(g)
                cases.append(hermitian((u * np.arange(1.0, n + 1)) @ u.conj().T))
            for a in cases:
                vals, vecs = np.linalg.eigh(a.entries)
                for k in range(n):
                    col = vecs[:, k]
                    nz = np.flatnonzero(np.abs(col) > 1e-12)
                    piv = col[int(nz[0]) if nz.size else 0]
                    if abs(piv) > 0.0:
                        vecs[:, k] = col * (piv.conjugate() / abs(piv))
                es = lr.eigh(a)
                np.testing.assert_array_equal(es.eigenvalues, vals)
                np.testing.assert_array_equal(es.eigenvectors, vecs)

    def test_lapack_failure_raises(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigenFailureError):
            lr.eigh(hermitian([[2, 1], [1, 2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(EigenFailureError):
            lr.eigh(lr.HermitianMatrix(np.array([[bad, 0], [0, 1]], dtype=complex)))

    def test_real_and_complex_paths_agree(self, rng):
        """A real A goes to the real solver, D A D* for unit phases D to the
        complex one. Both give A's eigenvalues, and each eigenvector of
        D A D* is D times A's, phase-normalised, also inside the repeated
        eigenvalue of the last case, where the cluster is rebuilt."""
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        cases = [random_psd(rng, n, complex_entries=False) for n in (2, 5, 9)]
        cases += [random_hermitian(rng, 7, complex_entries=False),
                  hermitian((q * [1.0, 2.0, 2.0, 2.0, 4.0, 5.0]) @ q.T)]
        for a in cases:
            d = np.exp(2j * np.pi * rng.random(a.n))
            b = hermitian(d[:, None] * a.entries * d.conj()[None, :])
            assert not a.entries.imag.any() and b.entries.imag.any()
            es_a, es_b = lr.eigh(a), lr.eigh(b)
            scale = np.abs(es_a.eigenvalues).max()
            assert np.abs(es_b.eigenvalues - es_a.eigenvalues).max() <= 1e-12 * scale
            want = d[:, None] * es_a.eigenvectors
            piv = want[np.argmax(np.abs(want) > 1e-12, axis=0), np.arange(a.n)]
            want *= piv.conj() / np.abs(piv)
            np.testing.assert_allclose(es_b.eigenvectors, want, rtol=0, atol=1e-10)
            for es in (es_a, es_b):
                assert es.eigenvectors.dtype == np.complex128
                assert not es.eigenvectors.flags.writeable
                assert not es.eigenvalues.flags.writeable

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=8, max_size=8),
           levels=st.none() | st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.5]),
                                       min_size=8, max_size=8))
    def test_eigen_cost_invariant_under_diagonal_phases(self, n, seed, phases, levels):
        """cost(D A D*) = cost(A) for D = diag(e^{i phi}).

        A is a seeded Wishart draw, whose spectrum is simple almost surely,
        or U diag(levels) U* with levels from a small set, so that
        eigenvalues repeat and the eigenbasis is not unique.
        """
        g_rng = np.random.default_rng(seed)
        if levels is None:
            a = random_psd(g_rng, n, rank=int(g_rng.integers(1, n + 1)))
        else:
            g = g_rng.standard_normal((n, n)) + 1j * g_rng.standard_normal((n, n))
            u, _ = np.linalg.qr(g)
            a = hermitian((u * np.array(levels[:n])) @ u.conj().T)
        d = np.exp(1j * np.array(phases[:n]))
        b = lr.ingest_matrix(d[:, None] * a.entries * d.conj()[None, :])
        es = lr.eigh(b)
        scale = max(1.0, float(np.abs(es.eigenvalues).max()))
        resid = b.entries @ es.eigenvectors - es.eigenvectors * es.eigenvalues
        assert np.abs(resid).max() <= 1e-12 * scale
        gram = es.eigenvectors.conj().T @ es.eigenvectors
        assert np.abs(gram - np.eye(n)).max() <= 1e-12
        cost = lr.eigen_decompose(a).cost
        assert abs(lr.eigen_decompose(b).cost - cost) <= 1e-12 * cost


class TestIsPsd:
    def test_examples(self):
        assert lr.is_psd(hermitian([[2, 1], [1, 2]]))
        assert not lr.is_psd(hermitian([[0, 1], [1, 0]]))
        assert lr.is_psd(hermitian(np.zeros((2, 2))))


def _ldl_factor_reference(a, psd_tol=PSD_TOL):
    """ldl_factor as a per-vector loop: a fresh array for each vector."""
    n = a.n
    w = np.array(a.entries, dtype=np.complex128, copy=True)
    scale = max([1.0, *w.real.diagonal().tolist()])
    tol_p = PIVOT_TOL * scale
    neg_tol = psd_tol * scale
    vectors = []
    for k in range(n):
        d = float(w[k, k].real)
        if d < -neg_tol:
            raise NotPSDError(f"pivot {k}")
        if d <= tol_p:
            slack = tol_p + neg_tol
            rest = w[k, k + 1:]
            if float(np.vdot(rest, rest).real) > slack * slack:
                row_max = float(np.abs(rest).max())
                diag_rest = np.abs(np.diagonal(w)[k + 1:].real)
                cap = np.sqrt((max(d, 0.0) + slack) * (diag_rest.max() + slack))
                if row_max > cap + slack:
                    raise NotPSDError(f"pivot {k} row")
            continue
        v = np.zeros(n, dtype=np.complex128)
        v[k:] = w[k:, k] / math.sqrt(d)
        vectors.append(v)
        w[k + 1:, k + 1:] -= np.outer(v[k + 1:], v[k + 1:].conj())
    return vectors


def _decline(_):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def _with_zero_line(b, p):
    """b with a zero row and column inserted at index p."""
    n = b.shape[0] + 1
    out = np.zeros((n, n), dtype=np.complex128)
    keep = [i for i in range(n) if i != p]
    out[np.ix_(keep, keep)] = b
    return hermitian(out)


class TestLdlFactor:
    def test_matches_per_vector_loop(self, rng, monkeypatch):
        """Against the per-vector loop, on real and complex PSD matrices
        n = 2..64, rank-deficient ones, ones with vanished pivots and two
        diagonals either side of the pivot cut; every returned row is
        read-only.

        With Cholesky failing, the loop alone matches byte for byte.
        Unpatched, the Cholesky factor is returned exactly where the loop
        keeps every pivot, and there it agrees with the loop to 1e-12 in
        cost; elsewhere the bytes match.
        """
        cases = [random_psd(rng, n, complex_entries=cplx)
                 for n in range(2, 65) for cplx in (False, True)]
        cases += [random_psd(rng, n, rank=k, complex_entries=cplx)
                  for n in (3, 5, 8, 13, 21, 34) for k in (1, n // 2, n - 1)
                  for cplx in (False, True)]
        cases += [_with_zero_line(random_psd(rng, n).entries, p)
                  for n in (1, 4, 9) for p in (0, n // 2, n)]
        cases += [hermitian([[1e-13, off], [off, 1]]) for off in (1e-11, 1e-6)]
        cases += [hermitian(np.zeros((3, 3)))]
        cases += [hermitian(np.diag([1.0, f * PIVOT_TOL])) for f in (0.5, 2.0)]
        wants = [_ldl_factor_reference(a) for a in cases]
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", _decline)
            for a, want in zip(cases, wants):
                got = lr.ldl_factor(a)
                assert [v.shape for v in got] == [(a.n,)] * len(want)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
                assert not any(v.flags.writeable for v in got)

        factors = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda w: factors.append(cholesky(w)) or factors[-1])
        taken = []
        for a, want in zip(cases, wants):
            factors.clear()
            got = lr.ldl_factor(a)
            rows = [v.tobytes() for v in got]
            fast = bool(factors) and rows == [c.tobytes() for c in factors[0].T]
            assert fast == (len(want) == a.n)
            assert not any(v.flags.writeable for v in got)
            if fast:
                cost = lr.decomposition_cost(want)
                assert abs(lr.decomposition_cost(got) - cost) <= 1e-12 * cost
                assert lr.verify_reconstruction(a, got).ok
                assert all(not v[:k].any() and v[k] != 0 for k, v in enumerate(got))
            else:
                assert rows == [v.tobytes() for v in want]
            taken.append(fast)
        assert taken[-2:] == [False, True]  # the diagonals either side of the cut

    def test_non_finite_factor_goes_to_the_loop(self, monkeypatch):
        # A factor with a non-finite entry is declined even when LAPACK did
        # not raise and every pivot clears the cut.
        a = hermitian([[4, 2], [2, 5]])
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda w: np.array([[2, 0], [np.inf, 2]], dtype=complex))
        got = lr.ldl_factor(a)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in _ldl_factor_reference(a)]

    def test_2x2_closed_form(self):
        # [[a, c], [conj(c), b]] -> (sqrt(a), conj(c)/sqrt(a)), (0, sqrt(b - |c|^2/a))
        a, c, b = 2.0, 1.0 + 1.0j, 3.0
        vs = lr.ldl_factor(hermitian([[a, c], [np.conj(c), b]]))
        np.testing.assert_allclose(vs[0], [np.sqrt(a), np.conj(c) / np.sqrt(a)], atol=1e-15)
        np.testing.assert_allclose(vs[1], [0, np.sqrt(b - abs(c) ** 2 / a)], atol=1e-15)

    def test_diagonal(self):
        vs = lr.ldl_factor(hermitian(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(vs[0], [2, 0], atol=1e-15)
        np.testing.assert_allclose(vs[1], [0, 3], atol=1e-15)

    def test_3x3_by_hand(self):
        vs = lr.ldl_factor(hermitian([[1, 0, 1], [0, 1, 1], [1, 1, 3]]))
        np.testing.assert_allclose(vs[0], [1, 0, 1], atol=1e-15)
        np.testing.assert_allclose(vs[1], [0, 1, 1], atol=1e-15)
        np.testing.assert_allclose(vs[2], [0, 0, 1], atol=1e-12)

    def test_rank_deficient_skips_pivot(self):
        vs = lr.ldl_factor(hermitian([[1, 1], [1, 1]]))
        assert len(vs) == 1
        np.testing.assert_allclose(vs[0], [1, 1], atol=1e-15)

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            lr.ldl_factor(hermitian([[0, 1], [1, 0]]))
        with pytest.raises(NotPSDError):
            lr.ldl_factor(hermitian([[1, 2], [2, 1]]))

    @pytest.mark.parametrize("entries, psd", [
        *(pytest.param([[1e-13, off], [off, 1]], psd, id=f"{off}-{psd}")
          for off, psd in ((1e-11, True), (1e-6, True), (1e-4, False))),
        pytest.param(np.diag([1.0, -1e-11, 1.0]), True, id="negative-within-cut"),
        pytest.param(np.diag([1.0, -1e-9, 1.0]), False, id="negative-pivot"),
        pytest.param([[0, 1], [1, 0]], False, id="vanished-pivot"),
        pytest.param([[1, 1, 0], [1, 1, 1e-3], [0, 1e-3, 1]], False, id="vanished-schur-pivot"),
        pytest.param([[4, 2j, 1], [-2j, 1, 1j], [1, -1j, 2]], False, id="complex"),
        pytest.param(np.diag([1.0, 2.0, 3.0]) - 2.5 * np.ones((3, 3)), False, id="dense"),
    ])
    def test_vanished_pivot_row_cap(self, entries, psd, monkeypatch):
        """ldl_factor raises NotPSDError exactly when Cholesky declines and
        is_psd is false: is_psd is its one PSD test. Each PSD input here has
        one pivot at or below the cut (below zero too), which vanishes; each
        indefinite one is refused, with Cholesky declining by itself and
        when forced to."""
        a = hermitian(entries)
        assert lr.is_psd(a) is psd
        if not psd:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(a.entries)
        for cholesky in (np.linalg.cholesky, _decline):
            monkeypatch.setattr(np.linalg, "cholesky", cholesky)
            if psd:
                assert len(lr.ldl_factor(a)) == a.n - 1
            else:
                with pytest.raises(NotPSDError):
                    lr.ldl_factor(a)

    @pytest.mark.parametrize("n, r, seed", ROUNDING_GROWTH)
    def test_rounding_growth_is_not_indefiniteness(self, n, r, seed):
        """Unpivoted elimination of a semidefinite Gram matrix can meet a
        Schur pivot below -PSD_TOL * scale from rounding growth alone; A is
        still PSD to is_psd, so ldl_factor treats that pivot as vanished."""
        a = lr.ingest_matrix(rounding_growth_gram(n, r, seed))
        assert lr.is_psd(a)
        assert 0 < len(lr.ldl_factor(a)) < n

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), k=st.integers(-10, 20), seed=st.integers(0, 2**32 - 1),
           complex_entries=st.booleans())
    def test_definite_cost_matches_loop(self, n, k, seed, complex_entries):
        """A = 4^k (G G* + I) keeps every pivot above PIVOT_TOL * scale: the
        factor's cost agrees with the loop's to 1e-12 relative, and the LDL
        cost never falls below ||A||_1,1."""
        g_rng = np.random.default_rng(seed)
        g = g_rng.standard_normal((n, n))
        if complex_entries:
            g = g + 1j * g_rng.standard_normal((n, n))
        m = g @ g.conj().T + np.eye(n)
        a = hermitian(4.0 ** k * (m + m.conj().T) / 2.0)
        cost = lr.decomposition_cost(_ldl_factor_reference(a))
        assert abs(lr.decomposition_cost(lr.ldl_factor(a)) - cost) <= 1e-12 * cost
        assert lr.ldl_decompose(a).cost >= lr.norm_l11(a) * (1 - 1e-12)


class TestReconstruct:
    def test_basis_vectors(self):
        rec = lr.reconstruct([np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)])
        np.testing.assert_array_equal(rec.entries, np.eye(2))

    def test_ones(self):
        rec = lr.reconstruct([np.array([1, 1], dtype=complex)])
        np.testing.assert_array_equal(rec.entries, np.ones((2, 2)))

    def test_ldl_round_trip(self):
        a = hermitian([[1, 0, 1], [0, 1, 1], [1, 1, 3]])
        report = lr.verify_reconstruction(a, lr.ldl_factor(a), recon_tol=1e-12)
        assert report.ok

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lr.reconstruct([np.array([1, 0], dtype=complex), np.array([1.0], dtype=complex)])


class TestProperties:
    """Seeded invariants over random ensembles."""

    def test_norm_chain_trace_le_l11(self, rng):
        for _ in range(200):
            a = random_hermitian(rng, int(rng.integers(2, 9)))
            l11 = lr.norm_l11(a)
            assert lr.trace_norm(a) <= l11 * (1 + 1e-9) + 1e-12

    def test_eigh_round_trip(self, rng):
        for _ in range(200):
            a = random_hermitian(rng, int(rng.integers(2, 9)))
            es = lr.eigh(a)
            rec = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
            err = np.sqrt((np.abs(a.entries - rec) ** 2).sum())
            assert err <= 1e-9 * max(1.0, lr.frobenius_norm(a))

    def test_ldl_on_gram_matrices(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            a = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            vs = lr.ldl_factor(a)
            assert lr.verify_reconstruction(a, vs).ok
            for v in vs:
                pivot = np.flatnonzero(np.abs(v) > 0)[0]
                assert np.all(v[:pivot] == 0)

    def test_norms_vanish_together(self, rng):
        zero = hermitian(np.zeros((3, 3)))
        for norm in (lr.norm_l11, lr.trace_norm, lr.operator_norm, lr.frobenius_norm):
            assert norm(zero) <= 1e-12
        a = random_hermitian(rng, 3)
        assert lr.norm_l11(a) > 1e-12

    def test_gram_is_psd(self, rng):
        for _ in range(50):
            assert lr.is_psd(random_psd(rng, int(rng.integers(1, 9))))
