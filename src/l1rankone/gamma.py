"""The three optimality functionals: exact gamma, certified bounds, oracle.

gamma(A) is the entrywise l1 norm and is computed exactly. gamma_plus (PSD
input) and gamma_zero are bracketed: the lower bound is always ||A||_1,1,
the upper bound is the cheapest certificate found by the constructive
strategies. A report is CERTIFIED when the bracket width upper - lower is
at most the absolute CERT_TOL = 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .decompose import (
    METHOD_DD,
    METHOD_EIGEN,
    METHOD_EXTERNAL,
    METHOD_GREEDY,
    METHOD_LDL,
    METHOD_ORACLE,
    GreedyConfig,
    RankOneDecomposition,
    cheapest_family,
    decomposition_cost,
    dd_decompose,
    drop_null_vectors,
    eigen_decompose,
    greedy_decompose,
    is_diagonally_dominant,
    ldl_decompose,
    reduce_decomposition,
    vector_l1,
)
from .errors import BudgetExceededError, NotPSDError, ReconstructionError
from .hermitian import (
    PSD_TOL,
    HermitianMatrix,
    eigh,  # noqa: F401  (kept in this namespace: perfbench's tracer rebinds it here)
    is_psd,
    ldl_factor,
    norm_l11,
    operator_norm,
    reconstruct,
    trace_norm,
    verify_reconstruction,
)

CERT_TOL = 1e-6            # absolute bracket width for CERTIFIED-OPTIMAL
TIE_TOL = 1e-12            # relative; bound candidates closer than this tie
ORACLE_MAX_N = 6
RHO_ROUNDS = (1e2, 10 ** (10 / 3), 10 ** (14 / 3), 1e6)  # oracle penalty ramp

FUNCTIONAL_GAMMA_PLUS = "gamma_plus"
FUNCTIONAL_GAMMA = "gamma"
FUNCTIONAL_GAMMA_ZERO = "gamma_zero"

EFFORT_FAST = "fast"
EFFORT_THOROUGH = "thorough"

INSIDE = "inside"
OUTSIDE = "outside"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class SignedDecomposition:
    """A = sum g g* - sum h h* with cost = sum ||g||_1^2 + sum ||h||_1^2."""

    target_n: int
    positive: tuple
    negative: tuple
    cost: float

    @classmethod
    def build(cls, target: HermitianMatrix, positive, negative) -> "SignedDecomposition":
        pos = drop_null_vectors(target, positive)
        neg = drop_null_vectors(target, negative)
        report = verify_reconstruction(target, pos, negative=neg)
        if not report.ok:
            raise ReconstructionError(
                f"signed decomposition misses target by {report.max_residual:.3e} "
                f"(tol {report.tol:.3e})"
            )
        for v in pos + neg:
            v.flags.writeable = False
        return cls(
            target_n=target.n,
            positive=tuple(pos),
            negative=tuple(neg),
            cost=decomposition_cost(pos) + decomposition_cost(neg),
        )


def _cheapest(named):
    """The preferred certificate of (name, certificate) pairs: a later one
    replaces the incumbent only when cheaper by more than TIE_TOL (relative),
    so ties keep the earlier one."""
    best = named[0][1]
    for _, cand in named[1:]:
        if cand.cost < best.cost - TIE_TOL * max(1.0, best.cost):
            best = cand
    return best


@dataclass(frozen=True)
class GammaReport:
    functional: str
    lower: float
    upper: float
    best: object  # RankOneDecomposition | SignedDecomposition | None
    per_method: dict  # cost of each strategy that ran
    certified: bool
    skipped: tuple = ()  # strategies not run because the bracket had closed

    @classmethod
    def pick(cls, functional: str, lower: float, named,
             skipped: tuple = ()) -> "GammaReport":
        """Bracket over (name, certificate) candidates in order of preference.

        Certified when the upper bound is within CERT_TOL of the lower. A
        certificate cheaper than the proven lower bound (beyond 1e-12
        relative) is a numerical failure and raises ReconstructionError."""
        best = _cheapest(named)
        if best.cost < lower * (1.0 - 1e-12):
            raise ReconstructionError(
                f"certificate cost {best.cost!r} is below the lower bound {lower!r}"
            )
        return cls(functional, lower, best.cost, best,
                   {name: cand.cost for name, cand in named},
                   (best.cost - lower) <= CERT_TOL, tuple(skipped))


def gamma_exact(a: HermitianMatrix) -> float:
    """gamma(A) coincides with the entrywise l1 norm."""
    return norm_l11(a)


def gamma_exact_certificate(a: HermitianMatrix):
    """Mixed pairs (g_i, h_i) with A = sum g_i h_i* attaining gamma(A):
    column i against the i-th standard basis vector."""
    pairs = []
    for i in range(a.n):
        col = np.array(a.entries[:, i])
        if np.any(col != 0.0):
            h = np.zeros(a.n, dtype=np.complex128)
            h[i] = 1.0
            pairs.append((col, h))
    return pairs


def gamma_plus_bounds(a: HermitianMatrix, effort: str = EFFORT_FAST, *,
                      seed: int = 0, oracle_restarts: int = 32,
                      greedy_config: GreedyConfig | None = None,
                      seed_decompositions=()) -> GammaReport:
    """Two-sided bracket for gamma_plus: lower = ||A||_1,1, upper = best of
    the constructive strategies (plus the numeric oracle at thorough effort
    for n <= 4). seed_decompositions are externally supplied certificates
    (vector families for this same matrix) joined into the candidate pool
    after re-validation.

    Strategies run in order (ldl, eigen, dd when A is diagonally dominant,
    greedy, oracle) and stop once the preferred certificate costs at most
    lower * (1 + TIE_TOL): no exact decomposition costs less than the lower
    bound, so no later strategy could replace it. The report lists the
    strategies left out in `skipped`."""
    if not is_psd(a):
        raise NotPSDError("gamma_plus is defined on PSD matrices only")
    lower = norm_l11(a)
    if greedy_config is None:
        restarts = 16 if effort == EFFORT_THOROUGH else 4
        greedy_config = GreedyConfig(restarts=restarts, seed=seed)
    seeds = [(METHOD_EXTERNAL, RankOneDecomposition.build(a, dec.vectors, METHOD_EXTERNAL))
             for dec in seed_decompositions]
    strategies = [(METHOD_LDL, ldl_decompose), (METHOD_EIGEN, eigen_decompose)]
    if is_diagonally_dominant(a)[0]:
        strategies.append((METHOD_DD, dd_decompose))
    strategies.append((METHOD_GREEDY, lambda m: greedy_decompose(m, greedy_config)))
    if effort == EFFORT_THOROUGH and a.n <= 4:
        strategies.append((METHOD_ORACLE, lambda m: numeric_gamma_plus_oracle(
            m, restarts=oracle_restarts, seed=seed)))
    named, skipped = [], ()
    for k, (name, strategy) in enumerate(strategies):
        named.append((name, strategy(a)))
        if _cheapest(named).cost <= lower * (1.0 + TIE_TOL):
            skipped = tuple(later for later, _ in strategies[k + 1:])
            break
    return GammaReport.pick(FUNCTIONAL_GAMMA_PLUS, lower, named + seeds, skipped)


def _half_sum_signed(a: HermitianMatrix) -> SignedDecomposition:
    """Signed certificate from the column decomposition of gamma_exact.

    Rescale each pair to equal l1 mass, then split into half-sum and
    half-difference; the cost never exceeds 2 gamma(A)."""
    pos, neg = [], []
    for col, h in gamma_exact_certificate(a):
        r = vector_l1(col)
        g = col / np.sqrt(r)
        hh = np.sqrt(r) * h
        pos.append((g + hh) / 2.0)
        neg.append((g - hh) / 2.0)
    return SignedDecomposition.build(a, pos, neg)


def _eigen_split_signed(a: HermitianMatrix, effort: str, seed: int,
                        greedy_config: GreedyConfig | None) -> SignedDecomposition:
    """Split A into its positive and negative eigenparts and bound each side
    by gamma_plus_bounds."""
    es = a.eigensystem
    lam = es.eigenvalues
    lam_scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    cut = PSD_TOL * lam_scale
    pos_idx = np.flatnonzero(lam > cut)
    neg_idx = np.flatnonzero(lam < -cut)

    def side(idx, sign):
        if idx.size == 0:
            return []
        vecs = es.eigenvectors[:, idx]
        vals = sign * lam[idx]
        side_mat = (vecs * vals) @ vecs.conj().T
        side_mat = (side_mat + side_mat.conj().T) / 2.0
        report = gamma_plus_bounds(HermitianMatrix(side_mat), effort, seed=seed,
                                   greedy_config=greedy_config)
        return list(report.best.vectors)

    return SignedDecomposition.build(a, side(pos_idx, 1.0), side(neg_idx, -1.0))


def gamma0_bounds(a: HermitianMatrix, effort: str = EFFORT_FAST, *,
                  seed: int = 0,
                  greedy_config: GreedyConfig | None = None) -> GammaReport:
    """Bracket for gamma_zero on any Hermitian matrix.

    Candidates: the half-sum construction (exact arithmetic, certifies
    gamma_zero <= 2 gamma) and the eigen split. Ties within TIE_TOL keep the
    half-sum certificate, whose cost avoids the eigensolver entirely.
    """
    lower = norm_l11(a)
    if a.n and not np.any(a.entries != 0.0):
        half = split = SignedDecomposition.build(a, [], [])
    else:
        half = _half_sum_signed(a)
        split = _eigen_split_signed(a, effort, seed, greedy_config)
    return GammaReport.pick(FUNCTIONAL_GAMMA_ZERO, lower,
                            [("half_sum", half), ("eigen_split", split)])


def omega_membership(t: HermitianMatrix, effort: str = EFFORT_FAST, *,
                     seed: int = 0) -> str:
    """Locate T against the body {PSD T : gamma_plus(T) <= 1}.

    Outside on a certified lower bound > 1, inside on a certificate <= 1,
    undecided in the gap; membership is never guessed."""
    if not is_psd(t):
        return OUTSIDE
    if norm_l11(t) > 1.0 + 1e-9:
        return OUTSIDE
    report = gamma_plus_bounds(t, effort, seed=seed)
    if report.upper <= 1.0 + 1e-9:
        return INSIDE
    return UNDECIDED


# ---------------------------------------------------------------------------
# Numeric oracle
# ---------------------------------------------------------------------------


def _oracle_objective(theta: np.ndarray, a_arr: np.ndarray, m: int, n: int,
                      rho: float, eps: float):
    g = theta[: m * n].reshape(m, n) + 1j * theta[m * n:].reshape(m, n)
    s = g.T @ g.conj()
    r = a_arr - s
    smooth = np.sqrt(g.real ** 2 + g.imag ** 2 + eps * eps)
    l1 = smooth.sum(axis=1)
    f = float((l1 ** 2).sum() + rho * (np.abs(r) ** 2).sum())
    w = g @ np.conj(r)
    grad_re = 2.0 * l1[:, None] * (g.real / smooth) - 4.0 * rho * w.real
    grad_im = 2.0 * l1[:, None] * (g.imag / smooth) - 4.0 * rho * w.imag
    return f, np.concatenate([grad_re.ravel(), grad_im.ravel()])


def _restore_feasibility(a: HermitianMatrix, g: np.ndarray):
    """Scale the optimizer's vectors g by sqrt(lambda), lambda the largest
    value in [0, 1] with lambda_min(A - lambda S) >= -tau for S = sum g g*
    and tau = 1e-13 max(1, ||A||_op); then peel the exact residual with LDL.
    The result reconstructs A exactly up to floating-point error.

    The condition is A + tau I - lambda S >= 0. With A = V diag(a_k) V* and
    W = V diag((a_k + tau)^(-1/2)) it reads lambda mu <= 1 for the largest
    eigenvalue mu of W* S W, so lambda = min(1, 1/mu): one small eigenvalue
    solve on A's cached eigensystem. lambda = 0 when A + tau I is not
    positive definite."""
    keep = drop_null_vectors(a, g)
    if not keep:
        return ldl_factor(a)
    s = reconstruct(keep).entries
    es = a.eigensystem
    shifted = es.eigenvalues + 1e-13 * max(1.0, operator_norm(a))
    if shifted[0] <= 0.0:
        lam = 0.0
    else:
        w = es.eigenvectors / np.sqrt(shifted)
        mu = float(np.linalg.eigvalsh(w.conj().T @ s @ w)[-1])
        lam = 1.0 if mu <= 1.0 else 1.0 / mu
    resid = a.entries - lam * s
    try:
        tail = ldl_factor(HermitianMatrix((resid + resid.conj().T) / 2.0), psd_tol=1e-8)
    except NotPSDError:
        return ldl_factor(a)  # give up on this start; plain LDL is always valid
    return [np.sqrt(lam) * v for v in keep] + list(tail)


def numeric_gamma_plus_oracle(a: HermitianMatrix, restarts: int = 32, seed: int = 0, *,
                              maxiter: int = 150) -> RankOneDecomposition:
    """Multi-start penalized search for a cheap exact decomposition.

    Minimizes sum ||g_k||_1^2 + rho ||A - sum g g*||_Fr^2 over n^2 + 1
    vectors (enough for the optimum), ramping rho across RHO_ROUNDS, then
    restores exact feasibility and reduces the term count.
    Guarded to n <= 6.
    """
    if a.n > ORACLE_MAX_N:
        raise BudgetExceededError(f"oracle supports n <= {ORACLE_MAX_N}, got {a.n}")
    if not is_psd(a):
        raise NotPSDError("oracle requires a PSD matrix")
    n = a.n
    m = n * n + 1
    a_arr = np.asarray(a.entries)
    tr = float(np.diagonal(a_arr).real.sum())
    sigma = np.sqrt(max(tr, 1e-12) / (m * n))
    eps = 1e-8

    warm = []
    greedy_seed = greedy_decompose(
        a, GreedyConfig(restarts=2, max_iter=80, seed=seed)).vectors
    for vecs in (greedy_seed, ldl_factor(a), eigen_decompose(a).vectors):
        pad = np.zeros((m, n), dtype=np.complex128)
        for k, v in enumerate(vecs[:m]):
            pad[k] = v
        warm.append(pad)

    # Restored starts join the pool, so the result is never worse than one.
    # When one already sits on the lower bound ||A||_1,1 the search cannot
    # improve it, and the restarts are skipped.
    restored = [_restore_feasibility(a, g0) for g0 in warm]
    closed = min(map(decomposition_cost, restored)) <= norm_l11(a) * (1.0 + TIE_TOL)
    for r in range(0 if closed else max(restarts, 1)):
        rng = np.random.default_rng(seed + r)
        noise = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        if r < len(warm):
            g0 = warm[r] + 1e-3 * sigma * noise
        else:
            g0 = sigma * noise
        theta = np.concatenate([g0.real.ravel(), g0.imag.ravel()])
        for rho in RHO_ROUNDS:
            res = minimize(
                _oracle_objective, theta, args=(a_arr, m, n, rho, eps),
                jac=True, method="L-BFGS-B",
                options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10},
            )
            theta = res.x
        g = theta[: m * n].reshape(m, n) + 1j * theta[m * n:].reshape(m, n)
        restored.append(_restore_feasibility(a, g))
    dec = RankOneDecomposition.build(a, cheapest_family(restored), METHOD_ORACLE)
    return reduce_decomposition(dec, a)


# ---------------------------------------------------------------------------
# Inequality chain report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    trace_norm: float
    l11: float
    gamma0_lower: float
    gamma0_upper: float
    gamma_plus_lower: float | None
    gamma_plus_upper: float | None
    checks: tuple  # (name, lhs, rhs, ok)
    all_ok: bool


def inequality_report(a: HermitianMatrix) -> InequalityReport:
    """Evaluate the norm/functional chain and flag any violated inequality,
    each to a relative slack of 1e-9.

    The chain is checked at the level of computable quantities: the trace
    norm, the entrywise l1 norm (= gamma), the gamma_zero upper bound, twice
    gamma, and for PSD input the gamma_plus upper bound.
    """
    slack = 1e-9
    tr = trace_norm(a)
    l11 = norm_l11(a)
    g0 = gamma0_bounds(a)
    checks = [
        ("trace_le_l11", tr, l11, tr <= l11 + slack * max(1.0, l11)),
        ("l11_le_gamma0_upper", l11, g0.upper,
         l11 <= g0.upper + slack * max(1.0, g0.upper)),
        ("gamma0_upper_le_2gamma", g0.upper, 2.0 * l11,
         g0.upper <= 2.0 * l11 + slack * max(1.0, l11)),
    ]
    gp_lower = gp_upper = None
    if is_psd(a):
        gp = gamma_plus_bounds(a)
        gp_lower, gp_upper = gp.lower, gp.upper
        checks.append(
            ("gamma0_upper_le_gamma_plus_upper", g0.upper, gp.upper,
             g0.upper <= gp.upper + slack * max(1.0, gp.upper))
        )
    checks = tuple(checks)
    return InequalityReport(
        trace_norm=tr,
        l11=l11,
        gamma0_lower=g0.lower,
        gamma0_upper=g0.upper,
        gamma_plus_lower=gp_lower,
        gamma_plus_upper=gp_upper,
        checks=checks,
        all_ok=all(c[3] for c in checks),
    )
