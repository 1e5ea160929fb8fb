"""Constructive rank-one decomposition strategies and the term reducer.

Every strategy returns a RankOneDecomposition whose cost sum_k ||g_k||_1^2
upper-bounds the optimal value for its target matrix; the closed forms
(diagonally dominant, 2x2 LDL) attain it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    StallDetectedError,
    ZeroDirectionError,
)
from .hermitian import (
    PIVOT_TOL,
    PSD_TOL,
    RECON_TOL,
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
SMOOTHING_EPS = 1e-8  # epsilon of the smoothed |.| in greedy's l1 objective
PIVOT_SEARCH_MAX_N = 6  # largest n whose LDL pivot orders are all searched (with pruning)
GREEDY_MAX_ITER = 200  # scored trial moves per refined peel direction; a sweep scores 4n
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
# Greedy peeling
# ---------------------------------------------------------------------------


def _best_pivot_order_ldl(a_arr: np.ndarray, tol_p: float) -> list[np.ndarray]:
    """The vectors of the cheapest LDL pivot order found.

    For n <= PIVOT_SEARCH_MAX_N every order is searched, pruned with the
    entrywise-l1 lower bound on any completion (a full n = 6 tree has 1,957
    nodes); for larger n each node keeps only its cheapest child, which is
    steepest-descent pivot choice.
    """
    exhaustive = a_arr.shape[0] <= PIVOT_SEARCH_MAX_N
    best_cost = np.inf
    best_vecs: list[np.ndarray] = []

    def descend(w: np.ndarray, acc: float, vecs: list[np.ndarray]):
        nonlocal best_cost, best_vecs
        diag = np.diagonal(w).real
        active = np.flatnonzero(diag > tol_p)
        if active.size == 0:
            if acc < best_cost - 1e-15:
                best_cost = acc
                best_vecs = list(vecs)
            return
        if acc + vector_l1(w) >= best_cost - 1e-12:
            return
        # Rows of the transposed copy sum like the columns summed alone.
        l1 = _row_l1(w.T[active])
        scored = sorted((c ** 2 / d, i) for c, d, i
                        in zip(l1, diag[active].tolist(), active.tolist()))
        if not exhaustive:
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
    return best_vecs


def _smoothed_l1sq(y: np.ndarray, eps: float) -> float:
    return float(np.sqrt(np.abs(y) ** 2 + eps * eps).sum()) ** 2


_REFINE_DIRS = np.array([1.0, -1.0, 1.0j, -1.0j])


def _refine_direction(r_arr: np.ndarray, x: np.ndarray, peel_floor: float) -> np.ndarray:
    """Coordinate search for ||Rx||_1^2 on the surface <Rx, x> = 1.

    Each sweep scores all 4n single-coordinate moves x_j += h * {1, -1, i, -i}
    in one batch (y and q updated incrementally) and takes the best
    improvement; h halves when no move helps. Moves whose peel mass
    ||Rx||_2^2 / q drops below peel_floor are rejected: they ride
    numerical-dust null directions of a rank-deficient residual and peel
    nothing. GREEDY_MAX_ITER caps the scored trials, 4n per sweep; the search
    usually ends on it before h falls to 1e-6. y is kept as (Re y | Im y): a
    step h * {1, -1, i, -i} times column c is exactly (+-h c_re, +-h c_im) or
    (-+h c_im, +-h c_re), so the scores keep the bits of complex arithmetic.
    """
    n = r_arr.shape[0]
    eps = SMOOTHING_EPS
    diag = np.diagonal(r_arr).real
    y = r_arr @ x
    q = float(np.vdot(x, y).real)
    if q <= 1e-30:
        raise ZeroDirectionError("refinement started from a null direction")
    x = x / np.sqrt(q)
    y = y / np.sqrt(q)
    q = 1.0
    f_cur = _smoothed_l1sq(y, eps)
    y = np.concatenate([y.real, y.imag])
    re, im = r_arr.real.T, r_arr.imag.T  # row j is column j of R
    # Row (d, j): step d of {1, -1, i, -i} times column j, as (Re | Im).
    unit_moves = np.concatenate([[re, -re, -im, im], [im, -im, re, -re]], axis=2)
    # 2 Re(step * conj(y)) is 2 (+-h) times Re y, Re y, Im y, Im y.
    parts = np.arange(2 * n).reshape(2, n).repeat(2, axis=0)
    obj = np.empty((4, n))
    h = 0.25
    moves_h = None
    trials = 0
    while h > 1e-6 and trials < GREEDY_MAX_ITER:
        if moves_h != h:
            moves_h = h
            step = h * _REFINE_DIRS
            signed_h = np.array([[h], [-h], [h], [-h]])
            moves = h * unit_moves
            curvature = (h * h) * diag
        y2 = y + moves
        sq = y2 * y2
        abs2 = sq[..., :n] + sq[..., n:]
        mass = np.add.reduce(abs2, axis=-1)
        f2 = np.add.reduce(np.sqrt(abs2 + eps * eps), axis=-1) ** 2
        q2 = q + 2.0 * (y[parts] * signed_h) + curvature
        obj.fill(np.inf)
        np.divide(f2, q2, out=obj, where=(q2 > 1e-30) & (mass >= peel_floor * q2))
        trials += 4 * n
        k = int(obj.argmin())
        if float(obj.flat[k]) < f_cur - 1e-12 * max(1.0, f_cur):
            d_idx, j = divmod(k, n)
            x[j] += step[d_idx]
            y = y2[d_idx, j]
            q = float(q2[d_idx, j])
            f_cur = float(obj.flat[k])
        else:
            h *= 0.5
            yc = r_arr @ x  # resync incremental state
            q = float(np.vdot(x, yc).real)
            if q <= 1e-30:
                break
            f_cur = _smoothed_l1sq(yc, eps) / q
            y = np.concatenate([yc.real, yc.imag])
    q = float(np.vdot(x, r_arr @ x).real)
    if q <= 1e-30:
        raise ZeroDirectionError("refinement collapsed to a null direction")
    return x / np.sqrt(q)


def _quick_scores(r: np.ndarray, ys: np.ndarray, peel_floor: float) -> list[float]:
    """||y||_1^2 + ||R - yy*||_1 for each row y = Rx of ys; inf where x peels
    less than peel_floor."""
    k, n = ys.shape
    mass = np.add.reduce(np.abs(ys) ** 2, axis=1).tolist()
    resid = (r - ys[:, :, None] * ys.conj()[:, None, :]).reshape(k, n * n)
    return [np.inf if m < peel_floor else c ** 2 + t
            for m, c, t in zip(mass, _row_l1(ys), _row_l1(resid))]


def _pivot_candidates(r: np.ndarray, tol_p: float, peel_floor: float):
    """Directions e_i / sqrt(R_ii) over pivots above tol_p, and their quick scores."""
    n = r.shape[0]
    diag = np.diagonal(r).real
    active = np.flatnonzero(diag > tol_p)
    inv_root = 1.0 / np.sqrt(diag[active])
    cands = np.eye(n, dtype=np.complex128)[active] * inv_root[:, None]
    # R e_i s is column i of R times s, the same bits as the product R @ x.
    ys = r.T[active] * inv_root[:, None]
    return list(cands), _quick_scores(r, ys, peel_floor)


def _peel_step(r: np.ndarray, x0: np.ndarray, peel_floor: float):
    """Peel along x0 or its refinement, whichever costs less counting the
    natural-order LDL of the residual; (y, residual), or None when neither
    trial peels at least peel_floor and leaves a PSD residual."""
    trial_xs = [x0]
    try:
        trial_xs.append(_refine_direction(r, x0, peel_floor))
    except ZeroDirectionError:
        pass
    best, best_total = None, np.inf
    for x in trial_xs:
        y = r @ x
        if float((np.abs(y) ** 2).sum()) < peel_floor:
            continue
        resid = r - np.outer(y, y.conj())
        resid = (resid + resid.conj().T) / 2.0
        try:
            tail = ldl_factor(HermitianMatrix(resid))
        except NotPSDError:
            continue
        total = vector_l1(y) ** 2 + decomposition_cost(tail)
        if total < best_total - 1e-15:
            best, best_total = (y, resid), total
    return best


def _greedy_run(a_arr: np.ndarray, tol_p: float, max_steps: int):
    """One greedy peeling pass; returns the list of peeled vectors.

    Each step starts from the pivot direction with the best quick score and
    peels along it or its refinement (_peel_step). The residual trace
    strictly falls, so no residual is visited twice.
    """
    n = a_arr.shape[0]
    r = a_arr.copy()
    vectors: list[np.ndarray] = []
    scale = max(1.0, float(np.abs(a_arr).max()))
    stop = 0.05 * RECON_TOL * scale
    trace_prev = float(np.diagonal(r).real.sum())
    for _ in range(max_steps):
        if float(np.abs(r).max()) <= stop:
            break
        # Any rank-counted eigendirection peels at least RANK_TOL * tr / n.
        peel_floor = RANK_TOL * trace_prev / n
        cands, quick = _pivot_candidates(r, tol_p, peel_floor)
        best = min(quick, default=np.inf)  # its first index is the pick
        if not np.isfinite(best):
            break
        step = _peel_step(r, cands[quick.index(best)], peel_floor)
        if step is None:
            break
        y, r = step
        vectors.append(y)
        trace_now = float(np.diagonal(r).real.sum())
        if trace_now > trace_prev - 1e-15 * scale:
            raise StallDetectedError(
                f"residual trace stalled at {trace_now:.6e} after {len(vectors)} peels"
            )
        trace_prev = trace_now
    return vectors


def greedy_decompose(a: HermitianMatrix) -> RankOneDecomposition:
    """Greedy peeling over <Ax, x> = 1 directions with permuted-LDL search.

    Builds up to three families in order: natural-order LDL, the best LDL
    pivot order found, and one peel pass from pivot seeds refined by
    coordinate descent. A family is dropped when RankOneDecomposition.build
    rejects it or it is below_lower_bound, which only a family meeting A
    within RECON_TOL can be. The first family at_lower_bound is returned at
    once (on a 2x2, LDL); otherwise the cheapest by cheapest_family, which
    compares the costs that build computed. So greedy never costs more than
    ldl_decompose, and its result is a function of A alone.
    """
    if not is_psd(a):
        raise NotPSDError("greedy_decompose requires a PSD matrix")
    a_arr = np.asarray(a.entries)
    tol_p = PIVOT_TOL * a.scale()
    lower = norm_l11(a)

    def families():
        yield ldl_factor(a)
        yield _best_pivot_order_ldl(a_arr, tol_p)
        yield _greedy_run(a_arr, tol_p, numerical_rank(a) + 2)

    complete = []
    for vecs in families():
        try:
            dec = RankOneDecomposition.build(a, vecs, METHOD_GREEDY)
        except ReconstructionError:
            continue
        if not below_lower_bound(dec.cost, lower):
            if at_lower_bound(dec.cost, lower):
                return dec
            complete.append(dec)
    if not complete:
        raise ReconstructionError("no greedy family reconstructs A at or above ||A||_1,1")
    return cheapest_family(complete)


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
