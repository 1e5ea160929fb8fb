"""Complex dense Hermitian matrices: ingestion, norms, LAPACK eigensolver, LDL.

Everything downstream (decomposition strategies, gamma bounds, experiments)
consumes this module. All values are immutable after construction and all
functions are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EigenFailureError,
    NonFiniteInputError,
    NotHermitianError,
    NotPSDError,
    NotSquareError,
    ScaleOverflowError,
)

# Tolerances; HERMITIAN_TOL, PSD_TOL and RECON_TOL are also parameter defaults.
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
PIVOT_TOL = 1e-12
RECON_TOL = 1e-9
EIG_CLUSTER_TOL = 1e-12  # relative gap under which eigenvalues count as equal
# n * max |A_ij| bounds every column's l1 norm; past this its square overflows.
MAX_SCALE = math.sqrt(np.finfo(np.float64).max)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense n x n complex Hermitian matrix (entries array is read-only)."""

    entries: np.ndarray

    def __post_init__(self):
        # Read-only entries are what make the cached eigensystem sound. A
        # view is copied first: its base could still be written.
        if self.entries.base is not None:
            object.__setattr__(self, "entries", self.entries.copy())
        self.entries.flags.writeable = False

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @functools.cached_property
    def eigensystem(self) -> "EigenSystem":
        """eigh(self), solved on first use and kept. Threads racing on the
        first use at worst solve twice and store equal values."""
        return eigh(self)

    def scale(self) -> float:
        """max(1, largest entry magnitude); reference for relative tolerances."""
        if self.n == 0:
            return 1.0
        return max(1.0, float(np.abs(self.entries).max()))


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]


def ingest_matrix(raw, hermitian_tol: float = HERMITIAN_TOL) -> HermitianMatrix:
    """Validate and symmetrize a raw square array into a HermitianMatrix.

    Accepts anything np.asarray handles; the stored matrix is
    (raw + raw*)/2 provided every entry is finite, n * max |raw_ij| is at
    most MAX_SCALE, and max |raw - raw*| <= hermitian_tol.
    """
    arr = np.asarray(raw, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise NotSquareError("matrix must have dimension >= 1")
    finite = np.isfinite(arr)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteInputError(f"entry ({i},{j}) is {arr[i, j]}, not finite")
    largest = float(np.abs(arr).max())
    if arr.shape[0] * largest > MAX_SCALE:
        raise ScaleOverflowError(
            f"n * max |A_ij| = {arr.shape[0] * largest:.3e} exceeds {MAX_SCALE:.3e}, "
            "so squared norms would overflow"
        )
    dev = np.abs(arr - arr.conj().T)
    worst = float(dev.max())
    if not worst <= hermitian_tol:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise NotHermitianError(
            f"entry ({i},{j}) deviates from conj transpose by {worst:.3e} "
            f"(tol {hermitian_tol:.3e})",
            index=(int(i), int(j)),
            deviation=worst,
        )
    return HermitianMatrix((arr + arr.conj().T) / 2.0)


def norm_l11(a: HermitianMatrix) -> float:
    """Entrywise l1 norm: sum of |A_ij| over all entries."""
    return float(np.abs(a.entries).sum())


def frobenius_norm(a: HermitianMatrix) -> float:
    return float(np.sqrt((np.abs(a.entries) ** 2).sum()))


def _eigenspace_basis(block: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(block) that depends on that range alone.

    Gram-Schmidt over the columns of the projector P = block block*, in
    order, taking column j when its residual weight exceeds 1/(2n). One
    always does: the weights sum to the number of dimensions still missing,
    at least 1, and only shrink as the basis grows. D P D* has columns
    D P e_j conj(d_j), so under A -> D A D* the basis becomes D times itself,
    up to column phases.
    """
    n, k = block.shape
    proj = block @ block.conj().T
    basis = np.empty((n, k), dtype=np.complex128)
    m = 0
    for j in range(n):
        r = proj[:, j] - basis[:, :m] @ (basis[:, :m].conj().T @ proj[:, j])
        weight = float(np.vdot(r, r).real)
        if weight > 0.5 / n:
            basis[:, m] = r / np.sqrt(weight)
            m += 1
            if m == k:
                break
    return basis


def eigh(a: HermitianMatrix) -> EigenSystem:
    """Full eigendecomposition by LAPACK (zheevd), made deterministic.

    Eigenvalues ascend. Inside a cluster of eigenvalues within
    EIG_CLUSTER_TOL * ||A||_op of each other any orthonormal basis is an
    eigenbasis, and LAPACK's pick follows rounding, so the cluster's basis is
    rebuilt from its eigenspace alone. Each eigenvector's first coordinate
    above 1e-12 in magnitude is then made real positive. Downstream costs are
    thus reproducible and unchanged under A -> D A D* for unit phases D.
    """
    try:
        vals, vecs = np.linalg.eigh(a.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"LAPACK eigh failed (n={a.n}): {exc}") from exc
    if not np.isfinite(vals).all():  # LAPACK passes inf/nan entries through
        raise EigenFailureError(f"non-finite eigenvalues (n={a.n}): input has inf or nan")
    op_norm = max(-float(vals[0]), float(vals[-1]))  # vals ascend
    gaps = vals[1:] - vals[:-1] > EIG_CLUSTER_TOL * op_norm
    if not gaps.all():
        bounds = [0, *(np.flatnonzero(gaps) + 1).tolist(), a.n]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo > 1:
                vecs[:, lo:hi] = _eigenspace_basis(vecs[:, lo:hi])
    # A unit column has an entry of magnitude >= 1/sqrt(n), so argmax always
    # lands on a true pivot and the divisor below is never zero. hypot rounds
    # like the scalar abs(); np.abs on complex arrays can differ in the last bit.
    piv = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(a.n)]
    vecs *= piv.conj() / np.hypot(piv.real, piv.imag)
    return EigenSystem(_readonly(vals), _readonly(vecs))


def trace_norm(a: HermitianMatrix) -> float:
    """Sum of absolute eigenvalues (nuclear norm for Hermitian input)."""
    return float(np.abs(a.eigensystem.eigenvalues).sum())


def operator_norm(a: HermitianMatrix) -> float:
    return float(np.abs(a.eigensystem.eigenvalues).max())


def is_psd(a: HermitianMatrix, psd_tol: float = PSD_TOL) -> bool:
    """True iff lambda_min >= -psd_tol * max(1, ||A||_op)."""
    vals = a.eigensystem.eigenvalues
    lam_min = float(vals[0])
    lam_max_abs = float(np.abs(vals).max())
    return lam_min >= -psd_tol * max(1.0, lam_max_abs)


def ldl_factor(a: HermitianMatrix, psd_tol: float = PSD_TOL) -> list[np.ndarray]:
    """Lagrangian (LDL-style) rank-one elimination in natural pivot order.

    Returns vectors v_k, each zero on positions before its pivot, with
    sum_k v_k v_k* = A. A pivot that PSD-ness forces to vanish is skipped
    and emits no vector; a skipped pivot with a non-negligible row, or a
    Schur complement gone negative beyond tolerance, raises NotPSD.
    """
    n = a.n
    w = np.array(a.entries, dtype=np.complex128, copy=True)
    scale = max([1.0, *w.real.diagonal().tolist()])  # beats ndarray.max at small n
    tol_p = PIVOT_TOL * scale
    neg_tol = psd_tol * scale
    vectors: list[np.ndarray] = []
    # Row and column k are never read after step k, so only the trailing
    # block w[k+1:, k+1:] is kept up to date.
    for k in range(n):
        d = float(w[k, k].real)
        if d < -neg_tol:
            raise NotPSDError(
                f"Schur complement pivot {k} is {d:.3e} < -{neg_tol:.3e}"
            )
        if d <= tol_p:
            # A matrix PSD within neg_tol obeys |W_kj|^2 <= (W_kk+slack)(W_jj+slack),
            # so a vanished pivot forces its whole row under this cap. The cap
            # is at least slack, and the row's squared 2-norm, one cheap call,
            # bounds its largest entry squared: most rows stop there.
            slack = tol_p + neg_tol
            rest = w[k, k + 1:]
            if float(np.vdot(rest, rest).real) > slack * slack:
                row_max = float(np.abs(rest).max())
                diag_rest = np.abs(np.diagonal(w)[k + 1:].real)
                cap = np.sqrt((max(d, 0.0) + slack) * (diag_rest.max() + slack))
                if row_max > cap + slack:
                    raise NotPSDError(
                        f"pivot {k} vanished but its row has magnitude {row_max:.3e}"
                    )
            continue
        v = np.zeros(n, dtype=np.complex128)
        v[k:] = w[k:, k] / math.sqrt(d)
        vectors.append(_readonly(v))
        w[k + 1:, k + 1:] -= np.outer(v[k + 1:], v[k + 1:].conj())
    return vectors


def reconstruct(vectors) -> HermitianMatrix:
    """Sum of outer products g_k g_k* for a family of same-length vectors."""
    vecs = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if not vecs:
        raise DimensionMismatchError("cannot reconstruct from zero vectors")
    n = vecs[0].shape[0]
    for v in vecs:
        if v.ndim != 1 or v.shape[0] != n:
            raise DimensionMismatchError(
                f"vector of length {v.shape} does not match dimension {n}"
            )
    stack = np.vstack(vecs)
    out = stack.T @ stack.conj()
    return HermitianMatrix((out + out.conj().T) / 2.0)


@dataclass(frozen=True)
class ReconstructionReport:
    max_residual: float
    tol: float
    ok: bool


def _outer_sum(a: HermitianMatrix, family) -> np.ndarray:
    rec = reconstruct(family)
    if rec.n != a.n:
        raise DimensionMismatchError(
            f"decomposition dimension {rec.n} != matrix dimension {a.n}"
        )
    return rec.entries


def verify_reconstruction(a: HermitianMatrix, vectors, recon_tol: float = RECON_TOL,
                          negative=()) -> ReconstructionReport:
    """Max-entry residual |A - sum g g* + sum h h*| against recon_tol * scale,
    with g over `vectors` and h over `negative`. This is the one residual
    check: every decomposition builder and the CLI go through it."""
    resid = a.entries
    if len(vectors):
        resid = resid - _outer_sum(a, vectors)
    if len(negative):
        resid = resid + _outer_sum(a, negative)
    worst = float(np.abs(resid).max()) if a.n else 0.0
    tol = recon_tol * a.scale()
    return ReconstructionReport(worst, tol, worst <= tol)
