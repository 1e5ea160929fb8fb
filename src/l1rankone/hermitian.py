"""Complex dense Hermitian matrices: ingestion, norms, LAPACK eigensolver, LDL.

Everything downstream (decomposition strategies, gamma bounds, experiments)
consumes this module. All values are immutable after construction and all
functions are pure. is_psd is the one PSD test and ldl_step the one LDL
step, run by natural-order ldl_factor and greedy's pivot-order search.
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

# Tolerances; HERMITIAN_TOL and RECON_TOL are also parameter defaults.
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

    @functools.cached_property
    def magnitudes(self) -> np.ndarray:
        """|A_ij|, computed on first use and kept (read-only), as eigensystem
        is: scale() and norm_l11 both read it."""
        return _readonly(np.abs(self.entries))

    def scale(self) -> float:
        """Largest entry magnitude, the reference of relative tolerances
        (eigenvalue_cut and pivot_cut use ||A||_op and the diagonal)."""
        return float(self.magnitudes.max(initial=0.0))


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
    return float(a.magnitudes.sum())


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
    """Full eigendecomposition by LAPACK, made deterministic: dsyevd on the
    real part when every entry is real, zheevd otherwise.

    Eigenvalues ascend. Inside a cluster of eigenvalues within
    EIG_CLUSTER_TOL * ||A||_op of each other any orthonormal basis is an
    eigenbasis, and LAPACK's pick follows rounding, so the cluster's basis is
    rebuilt from its eigenspace alone. Each eigenvector's first coordinate
    above 1e-12 in magnitude is then made real positive. Downstream costs are
    thus reproducible and unchanged under A -> D A D* for unit phases D.
    """
    real = not a.entries.imag.any()
    try:
        vals, vecs = np.linalg.eigh(a.entries.real if real else a.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"LAPACK eigh failed (n={a.n}): {exc}") from exc
    if real:
        vecs = vecs.astype(np.complex128)
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
    return max(-float(a.eigensystem.eigenvalues[0]), float(a.eigensystem.eigenvalues[-1]))


def eigenvalue_cut(a: HermitianMatrix) -> float:
    """PSD_TOL * ||A||_op: eigenvalues within it of zero count as zero."""
    return PSD_TOL * operator_norm(a)


def is_psd(a: HermitianMatrix) -> bool:
    """True iff lambda_min >= -eigenvalue_cut(A)."""
    return float(a.eigensystem.eigenvalues[0]) >= -eigenvalue_cut(a)


def pivot_cut(a: HermitianMatrix) -> float:
    """PIVOT_TOL * largest diagonal entry: LDL pivots at or below it vanish."""
    return PIVOT_TOL * max(a.entries.real.diagonal().tolist())  # beats ndarray.max


def ldl_step(w: np.ndarray, i, d) -> np.ndarray:
    """The one LDL elimination step, in place on each matrix W of a
    (b, n, n) stack: W gives up its pivot i (one per matrix) of value
    W_ii = d > 0 as v = W[:, i] / sqrt(d), becomes W - v v* and has row and
    column i zeroed. Returns the (b, n) stack of v. A scalar i and d serve a
    stack of one, with basic indexing."""
    at = np.arange(len(w)) if isinstance(i, np.ndarray) else slice(None)
    v = w[at, :, i] / np.sqrt(d)[..., None]
    w -= v[:, :, None] * v[:, None, :].conj()
    w[at, i, :] = 0.0
    w[at, :, i] = 0.0
    return v


def ldl_factor(a: HermitianMatrix) -> np.ndarray:
    """Lagrangian (LDL-style) rank-one elimination in natural pivot order.

    Returns vectors v_k, each zero on positions before its pivot, with
    sum_k v_k v_k* = A: the rows of one read-only (r, n) family (see
    stack_family). Where LAPACK's Cholesky (zpotrf) succeeds with finite
    entries and every |L_kk|^2 above pivot_cut(a), every pivot is taken and
    v_k is column k of L, so L^T is returned. Otherwise NotPSDError is raised
    unless is_psd(a), the one PSD test, holds; then each pivot runs through
    ldl_step, and one at or below the cut counts as vanished: it emits no
    vector and its row and column are zeroed.
    """
    tol_p = pivot_cut(a)
    try:
        low = np.linalg.cholesky(a.entries)
    except np.linalg.LinAlgError:
        low = None
    if low is not None and np.isfinite(low).all() and (low.diagonal().real ** 2 > tol_p).all():
        return _readonly(np.ascontiguousarray(low.T))
    if not is_psd(a):
        raise NotPSDError(f"smallest eigenvalue {a.eigensystem.eigenvalues[0]:.3e} is negative")
    w = a.entries[None].copy()
    out = [np.empty((0, a.n), dtype=np.complex128)]
    for k in range(a.n):
        d = w[0, k, k].real
        if d > tol_p:
            out.append(ldl_step(w, k, d))
        else:
            w[0, k] = w[0, :, k] = 0.0
    return _readonly(np.concatenate(out))


def stack_family(vectors, n: int | None = None) -> np.ndarray:
    """A family as one C-contiguous (r, n) complex128 array, the one family
    format (such an array comes back as it is). Raises DimensionMismatchError
    unless every vector is 1-D of one length, n when given; an empty family
    needs n."""
    if len(vectors) == 0:
        if n is None:
            raise DimensionMismatchError("cannot reconstruct from zero vectors")
        return np.empty((0, n), dtype=np.complex128)
    try:
        stack = np.ascontiguousarray(vectors, dtype=np.complex128)
    except ValueError as exc:  # ragged: NumPy refuses the inhomogeneous shape
        raise DimensionMismatchError(f"vectors of unequal shapes: {exc}") from exc
    if stack.ndim != 2 or (n is not None and stack.shape[1] != n):
        raise DimensionMismatchError(
            f"vectors stack to shape {stack.shape}, not (r, {'n' if n is None else n})"
        )
    return stack


def gram(stack: np.ndarray) -> np.ndarray:
    """sum_k g_k g_k* over the rows of an (r, n) stack, symmetrised."""
    out = stack.T @ stack.conj()
    return (out + out.conj().T) / 2.0


def reconstruct(vectors) -> HermitianMatrix:
    """Sum of outer products g_k g_k* over the rows of a family, taken as
    one (r, n) stack (see stack_family)."""
    return HermitianMatrix(gram(stack_family(vectors)))


@dataclass(frozen=True)
class ReconstructionReport:
    max_residual: float
    tol: float
    ok: bool


def verify_reconstruction(a: HermitianMatrix, vectors, recon_tol: float = RECON_TOL,
                          negative=()) -> ReconstructionReport:
    """Max-entry residual |A - sum g g* + sum h h*| against recon_tol *
    max |A_ij|, with g over the rows of `vectors` and h over those of
    `negative`, each family taken as one (r, n) stack (see stack_family).
    The one residual check: the family check and `certify` call it."""
    resid = a.entries
    if len(vectors):
        resid = resid - gram(stack_family(vectors, a.n))
    if len(negative):
        resid = resid + gram(stack_family(negative, a.n))
    worst = float(np.abs(resid).max()) if a.n else 0.0
    tol = recon_tol * a.scale()
    return ReconstructionReport(worst, tol, worst <= tol)
