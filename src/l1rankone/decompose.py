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
    eigh,  # noqa: F401  (kept in this namespace: perfbench's tracer rebinds it here)
    is_psd,
    ldl_factor,
    norm_l11,
    verify_reconstruction,
)

RANK_TOL = 1e-8  # times ||A||_op; eigenvalues above it count toward rank
NULL_TOL = 1e-14  # times A.scale(); vectors with ||v||_1^2 at or below it are dropped
SMOOTHING_EPS = 1e-8  # epsilon of the smoothed |.| in greedy's l1 objective
PIVOT_SEARCH_MAX_N = 6  # largest n whose LDL pivot orders are searched with pruning
PIVOT_SEARCH_NODES = 4000  # past this many nodes each node keeps only its best child

METHOD_LDL = "ldl"
METHOD_EIGEN = "eigen"
METHOD_DD = "dd"
METHOD_GREEDY = "greedy"
METHOD_ORACLE = "oracle"
METHOD_EXTERNAL = "external"


def vector_l1(v: np.ndarray) -> float:
    return float(np.abs(v).sum())


def decomposition_cost(vectors) -> float:
    return float(sum(vector_l1(v) ** 2 for v in vectors))


def drop_null_vectors(target: HermitianMatrix, vectors) -> list[np.ndarray]:
    """The vectors with ||v||_1^2 above NULL_TOL * target.scale()."""
    floor = NULL_TOL * target.scale()
    vecs = [np.asarray(v, dtype=np.complex128) for v in vectors]
    return [v for v in vecs if vector_l1(v) ** 2 > floor]


def _lex_key(vectors) -> tuple:
    return tuple((float(z.real), float(z.imag)) for v in vectors for z in v)


def cheapest_family(families) -> list:
    """The vector family of least cost; equal costs go to the smaller
    coordinates in lexicographic order, so the pick ignores input order."""
    return min(families, key=lambda vecs: (decomposition_cost(vecs), _lex_key(vecs)))


def _frozen(v: np.ndarray) -> np.ndarray:
    v = np.array(v, dtype=np.complex128, copy=True)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class RankOneDecomposition:
    """Vectors g_k with A = sum g_k g_k* and cost = sum ||g_k||_1^2."""

    target_n: int
    vectors: tuple
    cost: float
    method: str

    @classmethod
    def build(cls, target: HermitianMatrix, vectors,
              method: str) -> "RankOneDecomposition":
        """Drop null vectors, compute the cost, and verify reconstruction."""
        vecs = [np.asarray(v, dtype=np.complex128) for v in vectors]
        for v in vecs:
            if v.shape != (target.n,):
                raise DimensionMismatchError(
                    f"vector of shape {v.shape} does not fit n={target.n}"
                )
        kept = [_frozen(v) for v in drop_null_vectors(target, vecs)]
        report = verify_reconstruction(target, kept)
        if not report.ok:
            raise ReconstructionError(
                f"{method} decomposition misses target by {report.max_residual:.3e} "
                f"(tol {report.tol:.3e})"
            )
        return cls(
            target_n=target.n,
            vectors=tuple(kept),
            cost=decomposition_cost(kept),
            method=method,
        )


def ldl_decompose(a: HermitianMatrix) -> RankOneDecomposition:
    """Natural-order LDL pivoting; exact optimum for every 2x2 PSD matrix."""
    vectors = ldl_factor(a)
    return RankOneDecomposition.build(a, vectors, METHOD_LDL)


def eigen_decompose(a: HermitianMatrix) -> RankOneDecomposition:
    """Eigenvectors scaled by sqrt-eigenvalue, ascending order."""
    es = a.eigensystem
    lam = es.eigenvalues
    lam_scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if float(lam[0]) < -PSD_TOL * lam_scale:
        raise NotPSDError(f"smallest eigenvalue {lam[0]:.3e} is negative")
    vectors = []
    for k in range(a.n):
        if lam[k] > PSD_TOL * lam_scale:
            vectors.append(np.sqrt(lam[k]) * es.eigenvectors[:, k])
    return RankOneDecomposition.build(a, vectors, METHOD_EIGEN)


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
    n = a.n
    tol = PSD_TOL * a.scale()
    vectors = []
    for i in range(n):
        for j in range(i + 1, n):
            x = a.entries[i, j]
            if x != 0.0:
                root = np.sqrt(x)
                u = np.zeros(n, dtype=np.complex128)
                u[i] = root
                u[j] = root.conjugate()
                vectors.append(u)
    for i in range(n):
        if margins[i] > tol:
            v = np.zeros(n, dtype=np.complex128)
            v[i] = np.sqrt(margins[i])
            vectors.append(v)
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
    return PeelStep(_frozen(x), _frozen(y), quad), HermitianMatrix(residual)


def numerical_rank(a: HermitianMatrix) -> int:
    vals = a.eigensystem.eigenvalues
    lam_max = float(np.abs(vals).max(initial=0.0))
    return int((vals > RANK_TOL * max(lam_max, np.finfo(float).tiny)).sum())


# ---------------------------------------------------------------------------
# Greedy peeling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreedyConfig:
    """Search budget for greedy_decompose.

    restarts: independent runs mixing random directions into the pivot
              candidates (run 0 is fully deterministic).
    max_iter: coordinate-descent trials per refined peel direction.
    seed:     base seed; run r uses seed + r.
    """

    restarts: int = 16
    max_iter: int = 200
    seed: int = 0


def _best_pivot_order_ldl(a_arr: np.ndarray, tol_p: float, node_cap: int):
    """Search LDL pivot orders for the cheapest total cost.

    Exhaustive up to the node budget, pruned with the entrywise-l1 lower
    bound on any completion; beyond the budget each node keeps only its
    cheapest child, which degenerates to steepest-descent pivot choice.
    Returns (cost, vectors).
    """
    best_cost = np.inf
    best_vecs: list[np.ndarray] = []
    nodes = 0

    def descend(w: np.ndarray, acc: float, vecs: list[np.ndarray]):
        nonlocal best_cost, best_vecs, nodes
        nodes += 1
        diag = np.diagonal(w).real
        active = np.flatnonzero(diag > tol_p)
        if active.size == 0:
            if acc < best_cost - 1e-15:
                best_cost = acc
                best_vecs = list(vecs)
            return
        if acc + vector_l1(w) >= best_cost - 1e-12:
            return
        scored = []
        for i in active:
            step = vector_l1(w[:, i]) ** 2 / diag[i]
            scored.append((step, int(i)))
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


def _smoothed_l1sq(y: np.ndarray, eps: float) -> float:
    return float(np.sqrt(np.abs(y) ** 2 + eps * eps).sum()) ** 2


_REFINE_DIRS = np.array([1.0, -1.0, 1.0j, -1.0j])


def _refine_direction(r_arr: np.ndarray, x: np.ndarray, cfg: GreedyConfig,
                      peel_floor: float) -> np.ndarray:
    """Coordinate search for ||Rx||_1^2 on the surface <Rx, x> = 1.

    Each sweep scores all 4n single-coordinate moves at step h in one batch
    (y and q updated incrementally) and takes the best improvement; h halves
    when no move helps. Moves whose peel mass ||Rx||_2^2 / q drops below
    peel_floor are rejected: they ride numerical-dust null directions of a
    rank-deficient residual and peel nothing. cfg.max_iter counts moves.
    """
    n = r_arr.shape[0]
    eps = SMOOTHING_EPS
    cols_t = np.ascontiguousarray(r_arr.T)
    diag = np.diagonal(r_arr).real
    y = r_arr @ x
    q = float(np.vdot(x, y).real)
    if q <= 1e-30:
        raise ZeroDirectionError("refinement started from a null direction")
    x = x / np.sqrt(q)
    y = y / np.sqrt(q)
    q = 1.0
    f_cur = _smoothed_l1sq(y, eps)
    h = 0.25
    trials = 0
    while h > 1e-6 and trials < cfg.max_iter:
        step = h * _REFINE_DIRS
        y2 = y[None, None, :] + step[:, None, None] * cols_t[None, :, :]
        q2 = q + 2.0 * (step[:, None] * np.conj(y)[None, :]).real \
            + (h * h) * diag[None, :]
        abs2 = y2.real ** 2 + y2.imag ** 2
        mass = abs2.sum(axis=-1)
        f2 = np.sqrt(abs2 + eps * eps).sum(axis=-1) ** 2
        safe_q = np.where(q2 > 1e-30, q2, 1.0)
        obj = np.where(
            (q2 > 1e-30) & (mass >= peel_floor * safe_q),
            f2 / safe_q,
            np.inf,
        )
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
            y = r_arr @ x  # resync incremental state
            q = float(np.vdot(x, y).real)
            if q <= 1e-30:
                break
            f_cur = _smoothed_l1sq(y, eps) / q
    q = float(np.vdot(x, r_arr @ x).real)
    if q <= 1e-30:
        raise ZeroDirectionError("refinement collapsed to a null direction")
    return x / np.sqrt(q)


def _greedy_run(a_arr: np.ndarray, cfg: GreedyConfig, tol_p: float,
                rng: np.random.Generator | None, max_steps: int):
    """One greedy peeling pass; returns the list of peeled vectors."""
    n = a_arr.shape[0]
    r = a_arr.copy()
    vectors: list[np.ndarray] = []
    scale = max(1.0, float(np.abs(a_arr).max()))
    stop = 0.05 * RECON_TOL * scale
    trace_prev = float(np.diagonal(r).real.sum())
    for _ in range(max_steps):
        if float(np.abs(r).max()) <= stop:
            break
        diag = np.diagonal(r).real
        # Any rank-counted eigendirection peels at least RANK_TOL * tr / n.
        peel_floor = RANK_TOL * trace_prev / n
        cands = []
        for i in np.flatnonzero(diag > tol_p):
            x = np.zeros(n, dtype=np.complex128)
            x[i] = 1.0 / np.sqrt(diag[i])
            cands.append(x)
        if rng is not None:
            for _ in range(2):
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                q = float(np.vdot(z, r @ z).real)
                if q > 1e-12 * scale:
                    cands.append(z / np.sqrt(q))
        if not cands:
            break
        quick = []
        for x in cands:
            y = r @ x
            if float((np.abs(y) ** 2).sum()) < peel_floor:
                quick.append(np.inf)
                continue
            resid = r - np.outer(y, y.conj())
            quick.append(vector_l1(y) ** 2 + vector_l1(resid))
        order = [int(i) for i in np.argsort(quick, kind="stable")
                 if np.isfinite(quick[int(i)])]
        best_y, best_r, best_total = None, None, np.inf
        trial_xs = []
        if order:
            trial_xs.append(cands[order[0]])
            try:
                trial_xs.append(_refine_direction(r, cands[order[0]], cfg, peel_floor))
            except ZeroDirectionError:
                pass
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
                best_y, best_r, best_total = y, resid, total
        if best_y is None:
            break
        vectors.append(best_y)
        r = best_r
        trace_now = float(np.diagonal(r).real.sum())
        if trace_now > trace_prev - 1e-15 * scale:
            raise StallDetectedError(
                f"residual trace stalled at {trace_now:.6e} after {len(vectors)} peels"
            )
        trace_prev = trace_now
    return vectors


def greedy_decompose(a: HermitianMatrix,
                     config: GreedyConfig | None = None) -> RankOneDecomposition:
    """Greedy peeling over <Ax, x> = 1 directions with permuted-LDL search.

    The candidate space contains every LDL pivot order (searched exactly for
    small n, pruned beyond PIVOT_SEARCH_NODES), pivot seeds refined by
    coordinate descent, and random restart directions; so the result never
    loses to plain LDL. Restarts merge deterministically: lowest cost, ties
    broken lexicographically.
    """
    cfg = config or GreedyConfig()
    if not is_psd(a):
        raise NotPSDError("greedy_decompose requires a PSD matrix")
    a_arr = np.asarray(a.entries)
    diag = np.diagonal(a_arr).real
    scale = max(1.0, float(diag.max(initial=0.0)))
    tol_p = PIVOT_TOL * scale
    node_cap = PIVOT_SEARCH_NODES if a.n <= PIVOT_SEARCH_MAX_N else 0
    _, pivot_vecs = _best_pivot_order_ldl(a_arr, tol_p, node_cap)
    candidates = [pivot_vecs]
    max_steps = numerical_rank(a) + 2
    for run in range(max(cfg.restarts, 1)):
        rng = None if run == 0 else np.random.default_rng(cfg.seed + run)
        try:
            candidates.append(_greedy_run(a_arr, cfg, tol_p, rng, max_steps))
        except ZeroDirectionError:
            continue
    # Skip incomplete runs (e.g. all peel directions filtered) and families
    # that meet A only within RECON_TOL yet cost less than the lower bound
    # ||A||_1,1, which no exact decomposition does.
    floor = norm_l11(a) * (1.0 - 1e-12)
    complete = [vecs for vecs in candidates
                if verify_reconstruction(a, vecs).ok and decomposition_cost(vecs) >= floor]
    # If every run degenerated, natural order always completes.
    best = cheapest_family(complete) if complete else ldl_factor(a)
    return RankOneDecomposition.build(a, best, METHOD_GREEDY)


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
    xs = [np.asarray(x, dtype=np.complex128) for x in unit_vectors]
    if w.ndim != 1 or len(xs) != w.shape[0]:
        raise DimensionMismatchError("one weight per vector required")
    if w.size == 0:
        return w, []
    n = xs[0].shape[0]
    for x in xs:
        if x.shape != (n,):
            raise DimensionMismatchError("vectors must share one dimension")
        if abs(vector_l1(x) - 1.0) > tol:
            raise NormalizationError(
                f"vector l1 norm {vector_l1(x):.12g} is not 1 within {tol:g}"
            )
    if np.any(w <= 0.0):
        raise NormalizationError("weights must be strictly positive")
    if float(w.sum()) > 1.0 + tol:
        raise NormalizationError(f"total weight {w.sum():.12g} exceeds 1")
    cap = n * n + 1
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
        xs = [xs[int(i)] for i in keep]
    return w, xs


def reduce_decomposition(dec: RankOneDecomposition,
                         target: HermitianMatrix) -> RankOneDecomposition:
    """Caratheodory-reduce a decomposition to at most n^2 + 1 terms."""
    cap = dec.target_n ** 2 + 1
    if len(dec.vectors) <= cap:
        return dec
    total = dec.cost
    w = np.array([vector_l1(v) ** 2 / total for v in dec.vectors])
    xs = [v / vector_l1(v) for v in dec.vectors]
    w2, xs2 = caratheodory_reduce(w, xs)
    vectors = [np.sqrt(total * wk) * xk for wk, xk in zip(w2, xs2)]
    return RankOneDecomposition.build(target, vectors, dec.method)


# ---------------------------------------------------------------------------
# Structure checks and the 3x3 gap
# ---------------------------------------------------------------------------


def structured_cost_check(a: HermitianMatrix, dec: RankOneDecomposition) -> bool:
    """True iff every vector lives on one index or one index pair, with no
    pair and no singleton used twice; such decompositions cost exactly the
    entrywise l1 norm, which is verified as a safety net."""
    pairs = set()
    singles = set()
    for v in dec.vectors:
        support = np.flatnonzero(np.abs(v) > 1e-12 * float(np.abs(v).max(initial=0.0)))
        if support.size == 1:
            key = int(support[0])
            if key in singles:
                return False
            singles.add(key)
        elif support.size == 2:
            key = (int(support[0]), int(support[1]))
            if key in pairs:
                return False
            pairs.add(key)
        else:
            return False
    l11 = norm_l11(a)
    if abs(dec.cost - l11) > 1e-9 * max(1.0, l11):
        raise ReconstructionError(
            f"structured decomposition costs {dec.cost:.12g} != ||A||_1,1 = {l11:.12g}"
        )
    return True


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
