"""Constructive rank-one decomposition strategies and the term reducer.

Every strategy returns a RankOneDecomposition whose cost sum_k ||g_k||_1^2
upper-bounds the optimal value for its target matrix; the closed forms
(diagonally dominant, 2x2 LDL) attain it exactly. Greedy is the cheapest LDL
pivot order, found by a dynamic program over sets of eliminated pivots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatchError,
    NormalizationError,
    NotDiagonallyDominantError,
    NotPSDError,
    NumericalRankFailureError,
    QuadFormTooLargeError,
    RankOneInputError,
    ReconstructionError,
    ZeroDirectionError,
)
from .hermitian import (
    PIVOT_TOL,
    PSD_TOL,
    HermitianMatrix,
    _readonly,
    eigenvalue_cut,
    eigh,  # noqa: F401  (kept in this namespace: perfbench's tracer rebinds it here)
    is_psd,
    ldl_factor,
    norm_l11,
    stack_family,
    verify_reconstruction,
)

RANK_TOL = 1e-8  # times ||A||_op; eigenvalues above it count toward rank
NULL_TOL = 1e-14  # times A.scale(); vectors with ||v||_1^2 at or below it are dropped
PIVOT_SEARCH_STATES = 70  # pivot sets kept per step of the search: C(8, 4), exact for n <= 8
TIE_TOL = 1e-12  # relative; costs closer than this tie

METHOD_LDL = "ldl"
METHOD_EIGEN = "eigen"
METHOD_DD = "dd"
METHOD_GREEDY = "greedy"
METHOD_ORACLE = "oracle"


def vector_l1(v: np.ndarray) -> float:
    return float(np.abs(v).sum())


def _row_l1(vectors) -> list[float]:
    """vector_l1 of each vector: rows of a C-contiguous stack sum like single
    vectors. Square these Python floats, not the array: libm's x ** 2 and
    NumPy's x * x differ in the last bit for some x."""
    if len(vectors) == 0:
        return []
    stack = np.ascontiguousarray(vectors, dtype=np.complex128)
    return np.add.reduce(np.abs(stack), axis=-1).tolist()


def decomposition_cost(vectors) -> float:
    return float(sum(l1 ** 2 for l1 in _row_l1(vectors)))


def _kept_family(target: HermitianMatrix, vectors) -> tuple[np.ndarray, float]:
    """(kept, cost): the family stacked once (see stack_family), less its
    rows with ||v||_1^2 at or below NULL_TOL * target.scale(), as one
    read-only copy, and the cost of those kept rows. One row sum gives both."""
    stack = stack_family(vectors, target.n)
    floor = NULL_TOL * target.scale()
    squares = [l1 ** 2 for l1 in _row_l1(stack)]
    keep = [sq > floor for sq in squares]
    cost = float(sum(sq for sq, k in zip(squares, keep) if k))
    return _readonly(stack[np.array(keep, dtype=bool)]), cost


def at_lower_bound(cost: float, lower: float) -> bool:
    """True when cost is within TIE_TOL of the lower bound ||A||_1,1."""
    return cost <= lower * (1.0 + TIE_TOL)


def below_lower_bound(cost: float, lower: float) -> bool:
    """True when cost is below ||A||_1,1 beyond 1e-12 relative: a numerical failure."""
    return cost < lower * (1.0 - 1e-12)


def _lex_key(dec) -> tuple:
    return tuple((float(z.real), float(z.imag)) for v in dec.vectors for z in v)


def cheapest_family(decs) -> "RankOneDecomposition":
    """The built decomposition of least cost, as its check computed it;
    equal costs go to the smaller vectors in lexicographic order (keyed only
    for the tied), so the pick ignores input order."""
    low = min(dec.cost for dec in decs)
    tied = [dec for dec in decs if dec.cost == low]
    return tied[0] if len(tied) == 1 else min(tied, key=_lex_key)


def _checked_family(target: HermitianMatrix, label: str, positive, negative=()):
    """(positive, negative, cost) less null rows (_kept_family), checked by
    one verify_reconstruction call: the one check of both builds. A miss
    raises ReconstructionError naming `label`."""
    pos, cost = _kept_family(target, positive)
    neg, neg_cost = _kept_family(target, negative) if len(negative) else ((), 0.0)
    report = verify_reconstruction(target, pos, negative=neg)
    if not report.ok:
        raise ReconstructionError(
            f"{label} decomposition misses target by {report.max_residual:.3e} "
            f"(tol {report.tol:.3e})"
        )
    return tuple(pos), tuple(neg), cost + neg_cost


@dataclass(frozen=True)
class RankOneDecomposition:
    """Vectors g_k with A = sum g_k g_k* and cost = sum ||g_k||_1^2.

    `vectors` holds the rows of one read-only, C-contiguous (r, n) complex
    array: the family is stored once, as one stack."""

    target_n: int
    vectors: tuple
    cost: float
    method: str

    @classmethod
    def build(cls, target: HermitianMatrix, vectors,
              method: str) -> "RankOneDecomposition":
        """Drop null vectors, compute the cost, and verify reconstruction."""
        kept, _, cost = _checked_family(target, method, vectors)
        return cls(target.n, kept, cost, method)


def ldl_decompose(a: HermitianMatrix) -> RankOneDecomposition:
    """Natural-order LDL pivoting; exact optimum for every 2x2 PSD matrix."""
    vectors = ldl_factor(a)
    return RankOneDecomposition.build(a, vectors, METHOD_LDL)


def eigen_decompose(a: HermitianMatrix) -> RankOneDecomposition:
    """Eigenvectors scaled by sqrt-eigenvalue, ascending order."""
    es = a.eigensystem
    lam = es.eigenvalues
    if not is_psd(a):
        raise NotPSDError(f"smallest eigenvalue {lam[0]:.3e} is negative")
    keep = lam > eigenvalue_cut(a)
    vectors = es.eigenvectors[:, keep] * np.sqrt(lam[keep])
    return RankOneDecomposition.build(a, vectors.T, METHOD_EIGEN)


def is_diagonally_dominant(a: HermitianMatrix):
    """(verdict, per-row margins A_ii - sum_{j != i} |A_ij|); margins down to
    -1e-12 pass."""
    absrow = np.abs(a.entries).sum(axis=1)
    diag = np.diagonal(a.entries).real
    margins = diag - (absrow - np.abs(diag))
    return bool(margins.min(initial=0.0) >= -1e-12), margins


def dd_decompose(a: HermitianMatrix) -> RankOneDecomposition:
    """Closed-form decomposition for diagonally dominant matrices.

    One two-point vector per non-zero off-diagonal pair carrying the
    principal square root, plus diagonal remainders; cost lands exactly on
    the entrywise l1 norm.
    """
    ok, margins = is_diagonally_dominant(a)
    if not ok:
        worst = int(np.argmin(margins))
        raise NotDiagonallyDominantError(
            f"row {worst} margin {margins[worst]:.3e} < 0",
            row=worst,
            margin=float(margins[worst]),
        )
    # The family is one stack: pair rows in row-major (i, j) order, then
    # one row per diagonal remainder.
    i, j = np.nonzero(np.triu(a.entries, 1))
    singles = np.flatnonzero(margins > PSD_TOL * a.scale())
    m = len(i)
    vectors = np.zeros((m + len(singles), a.n), dtype=np.complex128)
    roots = np.sqrt(a.entries[i, j])
    vectors[np.arange(m), i] = roots
    vectors[np.arange(m), j] = roots.conj()
    vectors[m + np.arange(len(singles)), singles] = np.sqrt(margins[singles])
    return RankOneDecomposition.build(a, vectors, METHOD_DD)


@dataclass(frozen=True)
class PeelStep:
    """One rank-one peel: direction x, factor y = Ax, quad = <Ax, x>."""

    x: np.ndarray
    y: np.ndarray
    quad: float


def rank_one_peel(a: HermitianMatrix, x):
    """Peel (Ax)(Ax)* off A; PSD is preserved whenever <Ax, x> <= 1 (checked
    to 1e-12).

    Returns (PeelStep, residual). At <Ax, x> = 1 the residual loses exactly
    one rank.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (a.n,):
        raise DimensionMismatchError(f"direction of shape {x.shape}, matrix n={a.n}")
    y = a.entries @ x
    scale = a.scale()
    if float(np.abs(y).max(initial=0.0)) <= 1e-14 * scale * max(1.0, vector_l1(x)):
        raise ZeroDirectionError("Ax vanishes; nothing to peel")
    quad = float(np.vdot(x, y).real)
    if quad > 1.0 + 1e-12:
        raise QuadFormTooLargeError(f"<Ax, x> = {quad:.12g} exceeds 1")
    if quad <= 0.0:
        raise ZeroDirectionError(f"<Ax, x> = {quad:.3e} is not positive")
    residual = a.entries - np.outer(y, y.conj())
    residual = (residual + residual.conj().T) / 2.0
    return PeelStep(_readonly(x.copy()), _readonly(y), quad), HermitianMatrix(residual)


def numerical_rank(a: HermitianMatrix) -> int:
    vals = a.eigensystem.eigenvalues
    lam_max = float(np.abs(vals).max(initial=0.0))
    return int((vals > RANK_TOL * max(lam_max, np.finfo(float).tiny)).sum())


# ---------------------------------------------------------------------------
# Greedy: the cheapest LDL pivot order
# ---------------------------------------------------------------------------


def _best_pivot_order_ldl(a_arr: np.ndarray, tol_p: float) -> list[np.ndarray]:
    """The vectors of the cheapest LDL pivot order found.

    An LDL step on pivot i of the Schur complement W costs
    ||W[:, i]||_1^2 / W_ii, and W depends only on the set S of pivots
    already taken, so the cheapest order is a shortest path over sets (the
    Held-Karp dynamic program). Layer s holds sets of size s, each with W_S
    (rows and columns in S zeroed) and its cost so far; every (set, pivot
    above tol_p) steps as one NumPy batch. Each child set keeps its cheapest
    (parent, pivot), and a layer keeps its PIVOT_SEARCH_STATES cheapest
    sets, chosen before their matrices are built. Equal costs go to the
    earlier candidate, in order of parent, then pivot. No layer of n <= 8
    holds more than C(8, 4) = 70 sets, so there the search is exact; past
    n = 8 it is a beam search. A set with no pivot above tol_p is terminal,
    and the path of the cheapest terminal set is returned (the earliest
    layer on equal costs).
    """
    n = a_arr.shape[0]
    idx = np.arange(n)
    # A set is a row of uint64 words, pivot i at bit i % 64 of word i // 64.
    word, bit = np.divmod(idx, 64)
    bit = np.left_shift(np.uint64(1), bit.astype(np.uint64))
    w = a_arr[None].copy()             # (sets, n, n)
    cost = np.zeros(1)
    sets = np.zeros((1, word[-1] + 1), dtype=np.uint64)
    steps = []                         # per layer: parent and vector of each set
    best, best_at = np.inf, (0, 0)
    for layer in range(n + 1):
        diag = w[:, idx, idx].real
        active = diag > tol_p
        live = active.any(axis=1)
        if not live.all():
            done = np.flatnonzero(~live)
            j = done[np.argmin(cost[done])]
            if cost[j] < best:
                best, best_at = cost[j], (layer, j)
        parent, pivot = np.nonzero(active)
        if parent.size == 0:
            break
        pivots = diag[parent, pivot]
        # Row sums of |W|: W is Hermitian, so they are its column l1 norms.
        l1 = np.add.reduce(np.abs(w), axis=2)[parent, pivot]
        child_cost = cost[parent] + l1 * l1 / pivots
        child = sets[parent]
        child[np.arange(parent.size), word[pivot]] |= bit[pivot]
        # Grouped by set, then by cost: the first of each group (stable, so
        # the earliest candidate on equal costs) is that set's cheapest path.
        order = np.lexsort((child_cost, *child.T))
        grouped = child[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (grouped[1:] != grouped[:-1]).any(axis=1)
        cheapest = np.sort(order[first])
        keep = cheapest[np.argsort(child_cost[cheapest], kind="stable")[:PIVOT_SEARCH_STATES]]
        p, i = parent[keep], pivot[keep]
        v = w[p, :, i] / np.sqrt(pivots[keep])[:, None]
        w = w[p]
        w -= v[:, :, None] * v[:, None, :].conj()
        rows = np.arange(keep.size)
        w[rows, i, :] = 0.0
        w[rows, :, i] = 0.0
        cost, sets = child_cost[keep], child[keep]
        steps.append((p, v))
    layer, j = best_at
    vectors = []
    for p, v in reversed(steps[:layer]):
        vectors.append(v[j])
        j = p[j]
    return vectors[::-1]


def _greedy_run(*args, **kwargs):
    """Retired peel pass: uncalled, kept by name while perfbench's tracer
    wraps it as a layer (perfbench/layers.py), where it reads 0 calls."""
    raise NotImplementedError("greedy's peel pass is retired")


def _refine_direction(*args, **kwargs):
    """Retired peel step, kept by name like _greedy_run."""
    raise NotImplementedError("greedy's peel step is retired")


def greedy_decompose(a: HermitianMatrix, *,
                     ldl: RankOneDecomposition | None = None) -> RankOneDecomposition:
    """The cheaper of natural-order LDL and the best LDL pivot order.

    Builds natural-order LDL (or takes `ldl`, A's ldl_decompose result),
    then _best_pivot_order_ldl's order, the cheapest of all for n <= 8.
    Both read only |.| of A and its Schur complements, so the families of
    D A D* (D diagonal with unit phases) are those of A with each v mapped
    to D v, at the same costs to rounding. A family is dropped when
    RankOneDecomposition.build rejects it or it is below_lower_bound (only
    a family meeting A within RECON_TOL can be). The first family
    at_lower_bound is returned at once (on a 2x2, LDL), otherwise the
    cheaper by cheapest_family; either is relabelled greedy. So greedy never
    costs more than ldl_decompose and is a function of A alone.
    """
    if not is_psd(a):
        raise NotPSDError("greedy_decompose requires a PSD matrix")
    lower = norm_l11(a)

    builds = (lambda: ldl_decompose(a) if ldl is None else ldl,
              lambda: RankOneDecomposition.build(
                  a, _best_pivot_order_ldl(np.asarray(a.entries), PIVOT_TOL * a.scale()),
                  METHOD_GREEDY))
    complete = []
    for build in builds:
        try:
            dec = build()
        except ReconstructionError:
            continue
        if not below_lower_bound(dec.cost, lower):
            if at_lower_bound(dec.cost, lower):
                return replace(dec, method=METHOD_GREEDY)
            complete.append(dec)
    if not complete:
        raise ReconstructionError("no greedy family reconstructs A at or above ||A||_1,1")
    return replace(cheapest_family(complete), method=METHOD_GREEDY)


# ---------------------------------------------------------------------------
# Caratheodory reduction
# ---------------------------------------------------------------------------


def _vec_real(x: np.ndarray) -> np.ndarray:
    """Real coordinates of xx* in the Hermitian matrix space (n^2 numbers)."""
    outer = np.outer(x, x.conj())
    n = x.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([
        np.diagonal(outer).real,
        outer[iu].real,
        outer[iu].imag,
    ])


def caratheodory_reduce(weights, unit_vectors):
    """Rewrite sum w_k x_k x_k* with at most n^2 + 1 terms.

    Weights stay positive and keep their exact total; the represented matrix
    is unchanged. Unit l1 norms and a total weight of at most 1 are checked
    to 1e-9. Each pass solves the homogeneous system built from the
    real coordinates of x_k x_k* plus a row of ones, then shifts the weights
    along the null direction until the first one vanishes.
    """
    tol = 1e-9
    w = np.asarray(weights, dtype=float).copy()
    if w.ndim != 1 or len(unit_vectors) != w.shape[0]:
        raise DimensionMismatchError("one weight per vector required")
    if w.size == 0:
        return w, []
    xs = stack_family(unit_vectors)
    for l1 in _row_l1(xs):
        if abs(l1 - 1.0) > tol:
            raise NormalizationError(f"vector l1 norm {l1:.12g} is not 1 within {tol:g}")
    if np.any(w <= 0.0):
        raise NormalizationError("weights must be strictly positive")
    if float(w.sum()) > 1.0 + tol:
        raise NormalizationError(f"total weight {w.sum():.12g} exceeds 1")
    cap = xs.shape[1] ** 2 + 1
    while w.size > cap:
        phi = np.stack([np.append(_vec_real(x), 1.0) for x in xs], axis=1)
        _, svals, vt = np.linalg.svd(phi, full_matrices=True)
        lam = vt[-1]
        resid = float(np.linalg.norm(phi @ lam))
        if resid > 1e-10 * max(1.0, float(svals[0])):
            raise NumericalRankFailureError(
                f"null-space residual {resid:.3e} too large for m={w.size}"
            )
        with np.errstate(divide="ignore"):
            plus = np.where(lam > 1e-14, w / lam, np.inf)
            minus = np.where(lam < -1e-14, w / (-lam), np.inf)
        t_plus = float(plus.min())
        t_minus = float(minus.min())
        if not np.isfinite(min(t_plus, t_minus)):
            raise NumericalRankFailureError("null direction cannot vanish a weight")
        if t_plus <= t_minus:
            step, drop = t_plus, int(np.argmin(plus))
        else:
            step, drop = -t_minus, int(np.argmin(minus))
        w = w - step * lam
        w[drop] = 0.0
        keep = np.flatnonzero(w > 1e-15 * max(1.0, float(w.max())))
        w = w[keep]
        xs = xs[keep]
    return w, list(xs)


def reduce_decomposition(dec: RankOneDecomposition,
                         target: HermitianMatrix) -> RankOneDecomposition:
    """Caratheodory-reduce a decomposition to at most n^2 + 1 terms."""
    cap = dec.target_n ** 2 + 1
    if len(dec.vectors) <= cap:
        return dec
    total = dec.cost
    l1 = _row_l1(dec.vectors)
    w2, xs2 = caratheodory_reduce([x ** 2 / total for x in l1],
                                  [v / x for v, x in zip(dec.vectors, l1)])
    vectors = [np.sqrt(total * wk) * xk for wk, xk in zip(w2, xs2)]
    return RankOneDecomposition.build(target, vectors, dec.method)


# ---------------------------------------------------------------------------
# The 3x3 gap
# ---------------------------------------------------------------------------


def special_3x3_gap(a: HermitianMatrix) -> float:
    """LDL-vs-l11 gap 2(|ae - conj(b)c| + |b||c| - a|e|)/a for 3x3 PSD input.

    Zero gap certifies that the natural-order LDL decomposition is optimal.
    A vanishing (1,1) pivot reduces the matrix to the 2x2 case where the gap
    is always zero.
    """
    if a.n != 3:
        raise DimensionMismatchError(f"need a 3x3 matrix, got n={a.n}")
    if not is_psd(a):
        raise NotPSDError("special_3x3_gap requires a PSD matrix")
    if numerical_rank(a) <= 1:
        raise RankOneInputError("rank-one input: single-vector decomposition is optimal")
    aa = float(a.entries[0, 0].real)
    if aa <= PSD_TOL * a.scale():
        return 0.0
    b = a.entries[0, 1]
    c = a.entries[0, 2]
    e = a.entries[1, 2]
    return 2.0 * (abs(aa * e - np.conj(b) * c) + abs(b) * abs(c) - aa * abs(e)) / aa
