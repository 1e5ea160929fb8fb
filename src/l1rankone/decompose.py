"""Constructive rank-one decomposition strategies and the term reducer.

Every strategy returns a RankOneDecomposition whose cost sum_k ||g_k||_1^2
upper-bounds the optimal value for its target matrix; the closed forms
(diagonally dominant, 2x2 LDL) attain it exactly. Greedy is the cheapest LDL
pivot order, found by a dynamic program over sets of eliminated pivots.
STRATEGIES maps each name to its builder. Every family, from its producer
to its record, is one read-only (r, n) complex128 stack (stack_family).
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
    PSD_TOL,
    HermitianMatrix,
    _readonly,
    eigenvalue_cut,
    eigh,  # noqa: F401  (kept in this namespace: perfbench's tracer rebinds it here)
    is_psd,
    ldl_factor,
    ldl_step,
    norm_l11,
    pivot_cut,
    stack_family,
    verify_reconstruction,
)

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


def _kept_family(stack: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """(kept, cost): the rows of an (r, n) stack with ||v||_1^2 above floor,
    as one read-only copy, and their cost. One row sum gives both."""
    if not len(stack):  # stack_family made it, so it needs no copy
        return _readonly(stack), 0.0
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


def cheapest_family(decs) -> "RankOneDecomposition":
    """The built decomposition of least cost, as its check computed it;
    equal costs go to the smaller (Re, Im) entries in lexicographic order
    (keyed only for the tied), so the pick ignores input order."""
    low = min(dec.cost for dec in decs)
    tied = [dec for dec in decs if dec.cost == low]
    return tied[0] if len(tied) == 1 else min(
        tied, key=lambda dec: dec.vectors.view(np.float64).ravel().tolist())


def _checked_family(target: HermitianMatrix, label: str, positive, negative=()):
    """(positive, negative, cost, residual): each side stacked once, less its
    rows with ||v||_1^2 at or below NULL_TOL * target.scale(), checked by one
    verify_reconstruction call (its max residual): the one check of both
    builds, and the one place that rejects a family. A miss, or a cost
    below_lower_bound (A met by rounding only), raises ReconstructionError naming `label`."""
    floor = NULL_TOL * target.scale()
    pos, cost = _kept_family(stack_family(positive, target.n), floor)
    neg, neg_cost = _kept_family(stack_family(negative, target.n), floor)
    report = verify_reconstruction(target, pos, negative=neg)
    if not report.ok:
        raise ReconstructionError(
            f"{label} decomposition misses target by {report.max_residual:.3e} "
            f"(tol {report.tol:.3e})"
        )
    cost += neg_cost
    if below_lower_bound(cost, norm_l11(target)):
        raise ReconstructionError(f"{label} certificate cost {cost!r} is below "
                                  f"the lower bound {norm_l11(target)!r}")
    return pos, neg, cost, report.max_residual


@dataclass(frozen=True)
class RankOneDecomposition:
    """Vectors g_k with A = sum g_k g_k* and cost = sum ||g_k||_1^2.

    `vectors` is the family: one read-only, C-contiguous (r, n) complex128
    array, the rows that the check kept. `residual` is the max-entry
    residual |A - sum g g*| that the check measured."""

    vectors: np.ndarray
    cost: float
    method: str
    residual: float

    @classmethod
    def build(cls, target: HermitianMatrix, vectors,
              method: str) -> "RankOneDecomposition":
        """Drop null vectors, compute the cost, and check the family."""
        kept, _, cost, residual = _checked_family(target, method, vectors)
        return cls(kept, cost, method, residual)


def _built(build, *args):
    """build(*args), or the ReconstructionError its check raised, to drop."""
    try:
        return build(*args)
    except ReconstructionError as exc:
        return exc


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
    -1e-12 * A.scale() pass."""
    absrow = a.magnitudes.sum(axis=1)
    diag = np.diagonal(a.entries).real
    margins = diag - (absrow - np.abs(diag))
    return bool(margins.min(initial=0.0) >= -1e-12 * a.scale()), margins


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
    to 1e-12); Ax vanishes at max |(Ax)_i| <= 1e-14 * A.scale() * ||x||_1.

    Returns (PeelStep, residual). At <Ax, x> = 1 the residual loses exactly
    one rank.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (a.n,):
        raise DimensionMismatchError(f"direction of shape {x.shape}, matrix n={a.n}")
    y = a.entries @ x
    if float(np.abs(y).max(initial=0.0)) <= 1e-14 * a.scale() * vector_l1(x):
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
    """The eigenvalues above eigenvalue_cut(a), the one zero-eigenvalue cut."""
    return int((a.eigensystem.eigenvalues > eigenvalue_cut(a)).sum())


# ---------------------------------------------------------------------------
# Greedy: the cheapest LDL pivot order
# ---------------------------------------------------------------------------


def _best_pivot_order_ldl(a: HermitianMatrix) -> np.ndarray:
    """The vectors of the cheapest LDL pivot order found, as one (r, n) family.

    An LDL step on pivot i of the Schur complement W costs
    ||W[:, i]||_1^2 / W_ii, and W depends only on the set S of pivots
    already taken, so the cheapest order is a shortest path over sets (the
    Held-Karp dynamic program). Layer s holds sets of size s, each with W_S
    (rows and columns in S zeroed) and its cost so far; the kept (set,
    pivot above pivot_cut(a)) pairs step as one ldl_step batch. Each child
    set keeps its cheapest (parent, pivot), and a layer keeps its
    PIVOT_SEARCH_STATES cheapest sets, chosen before their matrices are
    built. Equal costs go to the earlier candidate, in order of parent, then
    pivot. No layer of n <= 8 holds more than C(8, 4) = 70 sets, so there
    the search is exact; past n = 8 it is a beam search. A set with no pivot
    above the cut is terminal, and the path of the cheapest terminal set is
    returned (the earliest layer on equal costs).
    """
    n, tol_p = a.n, pivot_cut(a)
    idx = np.arange(n)
    # A set is a row of uint64 words, pivot i at bit i % 64 of word i // 64.
    word, bit = np.divmod(idx, 64)
    bit = np.left_shift(np.uint64(1), bit.astype(np.uint64))
    w = a.entries[None].copy()         # (sets, n, n)
    cost = np.zeros(1)
    sets = np.zeros((1, word[-1] + 1), dtype=np.uint64)
    vectors = np.empty((n, PIVOT_SEARCH_STATES, n), dtype=np.complex128)  # per layer and set
    parents = []
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
        p = parent[keep]
        w = w[p]
        vectors[layer, :p.size] = ldl_step(w, pivot[keep], pivots[keep])
        cost, sets = child_cost[keep], child[keep]
        parents.append(p)
    layer, j = best_at
    rows = []
    for p in reversed(parents[:layer]):
        rows.append(j)
        j = p[j]
    return vectors[np.arange(layer), rows[::-1]]


def _greedy_run(*args, **kwargs):
    """Retired peel pass: uncalled, kept by name while perfbench's tracer
    wraps it as a layer (perfbench/layers.py), where it reads 0 calls."""
    raise NotImplementedError("greedy's peel pass is retired")


def _refine_direction(*args, **kwargs):
    """Retired peel step, kept by name like _greedy_run."""
    raise NotImplementedError("greedy's peel step is retired")


def greedy_decompose(a: HermitianMatrix, *, ldl: RankOneDecomposition
                     | ReconstructionError | None = None) -> RankOneDecomposition:
    """The cheaper of natural-order LDL and the best LDL pivot order.

    Builds natural-order LDL (or takes `ldl`: A's ldl_decompose result, or
    the ReconstructionError it raised), then _best_pivot_order_ldl's order,
    the cheapest of all for n <= 8.
    Both read only |.| of A and its Schur complements, so the families of
    D A D* (D diagonal with unit phases) are those of A with each v mapped
    to D v, at the same costs to rounding. A family is dropped when
    RankOneDecomposition.build rejects it. The first family
    at_lower_bound is returned at once (on a 2x2, LDL), otherwise the
    cheaper by cheapest_family; either is relabelled greedy. So greedy never
    costs more than ldl_decompose and is a function of A alone.
    NotPSDError comes from ldl_factor (in ldl_decompose, or before `ldl`).
    """
    lower = norm_l11(a)

    builds = (lambda: ldl_decompose(a) if ldl is None else ldl,
              lambda: RankOneDecomposition.build(a, _best_pivot_order_ldl(a), METHOD_GREEDY))
    complete = []
    for build in builds:
        dec = _built(build)
        if isinstance(dec, ReconstructionError):
            continue
        if at_lower_bound(dec.cost, lower):
            return replace(dec, method=METHOD_GREEDY)
        complete.append(dec)
    if not complete:
        raise ReconstructionError("no greedy family reconstructs A at or above ||A||_1,1")
    return replace(cheapest_family(complete), method=METHOD_GREEDY)


# The builder of each strategy but the oracle (gamma), in the CLI's order.
STRATEGIES = {METHOD_LDL: ldl_decompose, METHOD_EIGEN: eigen_decompose,
              METHOD_DD: dd_decompose, METHOD_GREEDY: greedy_decompose}


# ---------------------------------------------------------------------------
# Caratheodory reduction
# ---------------------------------------------------------------------------


def caratheodory_reduce(weights, unit_vectors):
    """Rewrite sum w_k x_k x_k* with at most n^2 + 1 terms.

    Returns the weights and the (r, n) family of their vectors, positive
    and of unchanged total and matrix. Unit l1 norms and a total weight of
    at most 1 are checked to 1e-9, NaN failing. The homogeneous system, a
    column of the real coordinates of x_k x_k* and a one per term, is built
    once. Each pass takes a null vector of its first n^2 + 2 live columns,
    which sums to zero (the row of ones), moves their weights along it
    until one vanishes, and drops the columns of the vanished terms.
    """
    tol = 1e-9
    w = np.asarray(weights, dtype=float).copy()
    if w.ndim != 1 or len(unit_vectors) != w.shape[0]:
        raise DimensionMismatchError("one weight per vector required")
    if w.size == 0:
        return w, np.empty((0, 0), dtype=np.complex128)
    xs = stack_family(unit_vectors)
    for l1 in _row_l1(xs):
        if not abs(l1 - 1.0) <= tol:
            raise NormalizationError(f"vector l1 norm {l1:.12g} is not 1 within {tol:g}")
    if not np.all(w > 0.0):
        raise NormalizationError("weights must be strictly positive")
    if not float(w.sum()) <= 1.0 + tol:
        raise NormalizationError(f"total weight {w.sum():.12g} exceeds 1")
    n = xs.shape[1]
    cap = n * n + 1
    i, j = np.triu_indices(n, k=1)
    outer = xs[:, :, None] * xs[:, None, :].conj()
    phi = np.concatenate([outer[:, range(n), range(n)].real, outer[:, i, j].real,
                          outer[:, i, j].imag, np.ones((len(xs), 1))], axis=1).T
    while w.size > cap:
        window = phi[:, :cap + 1]
        _, svals, vt = np.linalg.svd(window)
        lam = vt[-1]
        resid = float(np.linalg.norm(window @ lam))
        if resid > 1e-10 * float(svals[0]):
            raise NumericalRankFailureError(
                f"null-space residual {resid:.3e} too large for m={w.size}"
            )
        with np.errstate(divide="ignore"):
            ratio = np.where(lam > 1e-14, w[:cap + 1] / lam, np.inf)
        drop = int(np.argmin(ratio))
        w[:cap + 1] -= ratio[drop] * lam
        w[drop] = 0.0
        keep = np.flatnonzero(w > 1e-15)
        w, xs, phi = w[keep], xs[keep], phi[:, keep]
    return w, xs


def reduce_decomposition(dec: RankOneDecomposition,
                         target: HermitianMatrix) -> RankOneDecomposition:
    """Caratheodory-reduce a decomposition to at most n^2 + 1 terms."""
    if len(dec.vectors) <= dec.vectors.shape[1] ** 2 + 1:
        return dec
    l1 = _row_l1(dec.vectors)
    w, xs = caratheodory_reduce([x ** 2 / dec.cost for x in l1],
                                dec.vectors / np.array(l1)[:, None])
    return RankOneDecomposition.build(target, np.sqrt(dec.cost * w)[:, None] * xs, dec.method)


# ---------------------------------------------------------------------------
# The 3x3 gap
# ---------------------------------------------------------------------------


def special_3x3_gap(a: HermitianMatrix) -> float:
    """LDL-vs-l11 gap 2(|ae - conj(b)c| + |b||c| - a|e|)/a for 3x3 PSD input.

    Zero gap certifies that the natural-order LDL decomposition is optimal.
    A (1,1) pivot at or below pivot_cut vanishes, as in LDL, and reduces the
    matrix to the 2x2 case where the gap is always zero.
    """
    if a.n != 3:
        raise DimensionMismatchError(f"need a 3x3 matrix, got n={a.n}")
    if not is_psd(a):
        raise NotPSDError("special_3x3_gap requires a PSD matrix")
    if numerical_rank(a) <= 1:
        raise RankOneInputError("rank-one input: single-vector decomposition is optimal")
    aa = float(a.entries[0, 0].real)
    if aa <= pivot_cut(a):
        return 0.0
    b = a.entries[0, 1]
    c = a.entries[0, 2]
    e = a.entries[1, 2]
    return 2.0 * (abs(aa * e - np.conj(b) * c) + abs(b) * abs(c) - aa * abs(e)) / aa
