"""Seeded input streams, the timed operation and the result checks of each workload.

Every input is a pure function of (workload, seed, op index); the library only
ever sees the generated matrices. Checks rebuild each answer with NumPy and never
call back into the library, so a wrong answer cannot vouch for itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import l1rankone as lr
from l1rankone import cli

WORKLOADS = ("ensemble", "bracket", "thorough")
SCALED = "bracket-scaled"  # bracket with the scale slice; its ops fail until ROADMAP item 4

ENSEMBLE_DIMS = (8, 16, 32, 64)
ENSEMBLE_METHODS = ("ldl", "eigen")
SQRT_FIT_RANGE = (0.55, 1.05)
SQRT_FIT_MIN_REALIZATIONS = 30

BRACKET_KINDS = ("wishart", "half_rank", "dd", "2x2", "indefinite")
BRACKET_DIMS = tuple(range(2, 9))
SCALE_EXPONENTS = (-300, -100, -12, 12, 100, 300)

# One oracle restart: every oracle layer (L-BFGS-B rounds, objective, feasibility
# restore) still runs on each op, and ops stay short enough that a 30 s run holds
# the 100 or more that a p90 needs (150-250 at the commit that defined this).
THOROUGH_RESTARTS = 1
THOROUGH_DIMS = (2, 3, 4)
REMARK_EVERY = 7
REMARK_4X4 = np.array(
    [[1, 0, 1, 1], [0, 1, -1, 1], [1, -1, 2, 0], [1, 1, 0, 2]], dtype=float
) / 14.0

LOWER_SLACK = 1e-12    # lower <= upper * (1 + LOWER_SLACK)
CERT_WIDTH = 1e-6      # certified implies upper - lower <= CERT_WIDTH
RESIDUAL_TOL = 1e-9    # max-entry residual relative to max |A_ij|
COST_TOL = 1e-9        # recomputed cost against the reported one, relative


@dataclass(frozen=True)
class Input:
    index: int
    kind: str
    seed: int                        # ensemble base_seed / CLI --seed
    matrix: np.ndarray | None = None  # exact Hermitian, complex128
    path: str | None = None          # matrix file, thorough only


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    certified: bool | None = None
    excess: float | None = None      # upper / lower - 1
    methods: tuple = ()              # strategies that ran
    winner: str | None = None        # strategy that set the upper bound
    rows: tuple = field(default=())  # ensemble (dim, method, ratio) rows
    stdout: bytes = b""


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _hermitian(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _wishart(rng, n: int, rank: int) -> np.ndarray:
    g = _cnormal(rng, (n, rank))
    return _hermitian(g @ g.conj().T)


def _diag_dominant(rng, n: int) -> np.ndarray:
    """Complex diagonally dominant PSD matrix with 1 or 2 rows at zero margin."""
    a = np.triu(_cnormal(rng, (n, n)), 1)
    a = a + a.conj().T
    slack = rng.uniform(0.0, 2.0, size=n)
    slack[rng.choice(n, size=1 + (n > 4), replace=False)] = 0.0
    a[np.arange(n), np.arange(n)] = np.abs(a).sum(axis=1) + slack
    return a


def _bracket_dim(seed: int, kind: int, j: int) -> int:
    """n for the j-th op of one kind: each block of 7 such ops holds every n in
    2..8 once, in a seeded order, so the n mix does not drift between seeds."""
    block = np.random.default_rng([seed, 1 << 20, kind, j // len(BRACKET_DIMS)])
    return BRACKET_DIMS[int(block.permutation(len(BRACKET_DIMS))[j % len(BRACKET_DIMS)])]


def bracket_input(seed: int, index: int, scaled: bool = False) -> Input:
    rng = _rng(seed, index)
    scale_op = scaled and index % 10 == 9
    k = (index // 10) % len(BRACKET_KINDS) if scale_op else index % len(BRACKET_KINDS)
    kind = BRACKET_KINDS[k]
    n = 2 if kind == "2x2" else _bracket_dim(seed, k, index // len(BRACKET_KINDS))
    if kind in ("wishart", "2x2"):
        a = _wishart(rng, n, n)
    elif kind == "half_rank":
        a = _wishart(rng, n, max(1, n // 2))
    elif kind == "dd":
        a = _diag_dominant(rng, n)
    else:
        a = _hermitian(_cnormal(rng, (n, n)))
    if scale_op:
        a = a * 10.0 ** SCALE_EXPONENTS[(index // 10) % len(SCALE_EXPONENTS)]
    return Input(index, kind, seed, matrix=a)


def thorough_input(seed: int, index: int) -> Input:
    """n cycles 2, 3, 4, first full rank then rank n - 1; every 7th op is the
    4x4 remark matrix under a random diagonal phase conjugation, which keeps
    its costs and bracket but makes it a new matrix for any cache."""
    rng = _rng(seed, index)
    if index % REMARK_EVERY == REMARK_EVERY - 1:
        d = np.exp(2j * np.pi * rng.uniform(size=4))
        return Input(index, "remark", index, matrix=_hermitian(d[:, None] * REMARK_4X4 * d.conj()[None, :]))
    j = index - (index + 1) // REMARK_EVERY
    n = THOROUGH_DIMS[j % len(THOROUGH_DIMS)]
    deficient = (j // len(THOROUGH_DIMS)) % 2 == 1
    return Input(index, f"n{n}_{'deficient' if deficient else 'full'}", index,
                 matrix=_wishart(rng, n, n - 1 if deficient else n))


def ensemble_input(seed: int, index: int) -> Input:
    return Input(index, "ensemble", seed * 1_000_000 + index)


def make_input(workload: str, seed: int, index: int) -> Input:
    if workload == "ensemble":
        return ensemble_input(seed, index)
    if workload == "thorough":
        return thorough_input(seed, index)
    return bracket_input(seed, index, scaled=workload == SCALED)


def write_matrix(inp: Input, workdir: str) -> Input:
    """Write the matrix in the CLI's JSON format; floats round-trip exactly."""
    path = os.path.join(workdir, f"m{inp.index}.json")
    obj = {"n": int(inp.matrix.shape[0]),
           "entries": [[[float(z.real), float(z.imag)] for z in row] for row in inp.matrix]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return Input(inp.index, inp.kind, inp.seed, inp.matrix, path)


# ---------------------------------------------------------------------------
# The timed operation of each workload
# ---------------------------------------------------------------------------


def call(workload: str, inp: Input):
    if workload == "ensemble":
        return lr.run_ensemble(lr.EnsembleConfig(
            dims=ENSEMBLE_DIMS, realizations=1, base_seed=inp.seed,
            methods=ENSEMBLE_METHODS))
    if workload == "thorough":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["gamma", inp.path, "--functional", "plus",
                             "--effort", "thorough",
                             "--restarts", str(THOROUGH_RESTARTS),
                             "--seed", str(inp.seed)])
        return code, out.getvalue().encode(), err.getvalue()
    a = lr.ingest_matrix(inp.matrix)
    if inp.kind == "indefinite":
        return lr.gamma0_bounds(a)
    return lr.gamma_plus_bounds(a)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _outer_sum(vectors) -> np.ndarray | int:
    if len(vectors) == 0:
        return 0
    g = np.asarray(vectors, dtype=np.complex128)
    return g.T @ g.conj()


def _cost(vectors) -> float:
    return float(sum(float(np.abs(v).sum()) ** 2 for v in vectors))


def check_bracket(a: np.ndarray, lower: float, upper: float, certified: bool,
                  positive, negative=()) -> str:
    """Empty string when the bracket and its certificate hold, else the reason."""
    l11 = float(np.abs(a).sum())
    if not abs(lower - l11) <= LOWER_SLACK * l11:
        return f"lower {lower!r} != ||A||_1,1 {l11!r}"
    if not lower <= upper * (1.0 + LOWER_SLACK):
        return f"bracket inverted: lower {lower!r} > upper {upper!r}"
    if certified and not upper - lower <= CERT_WIDTH:
        return f"certified with width {upper - lower!r}"
    resid = float(np.abs(a - (_outer_sum(positive) - _outer_sum(negative))).max())
    ref = float(np.abs(a).max())
    if not resid <= RESIDUAL_TOL * ref:
        return f"certificate residual {resid:.3e} > {RESIDUAL_TOL:g} * {ref:.3e}"
    cost = _cost(positive) + _cost(negative)
    if not abs(cost - upper) <= COST_TOL * abs(upper):
        return f"recomputed cost {cost!r} != upper {upper!r}"
    return ""


def _report_outcome(inp: Input, report) -> Outcome:
    signed = isinstance(report.best, lr.SignedDecomposition)
    pos = report.best.positive if signed else report.best.vectors
    neg = report.best.negative if signed else ()
    reason = check_bracket(inp.matrix, report.lower, report.upper,
                           report.certified, pos, neg)
    return Outcome(
        ok=not reason, reason=reason, certified=bool(report.certified),
        excess=report.upper / report.lower - 1.0 if not reason else None,
        methods=tuple(report.per_method),
        winner=None if signed else report.best.method,
    )


def _cli_outcome(inp: Input, result) -> Outcome:
    code, stdout, stderr = result
    if code != 0:
        return Outcome(False, f"exit code {code}: {stderr.strip()[:200]}")
    try:
        obj = json.loads(stdout)
        dec = obj["decomposition"]
        vectors = [[complex(re, im) for re, im in v] for v in dec["vectors"]]
        lower, upper, certified = obj["lower"], obj["upper"], obj["certified"]
        methods = tuple(obj["per_method"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unparseable stdout: {exc!r}")
    reason = check_bracket(inp.matrix, lower, upper, certified, vectors)
    if not reason and dec["cost"] != upper:
        reason = f"decomposition cost {dec['cost']!r} != upper {upper!r}"
    if not reason and inp.kind == "remark" and certified:
        reason = "remark matrix certified; its bracket stays open (criterion 10)"
    return Outcome(
        ok=not reason, reason=reason, certified=bool(certified),
        excess=upper / lower - 1.0 if not reason else None,
        methods=methods, winner=dec.get("method"), stdout=stdout,
    )


def _ensemble_outcome(report) -> Outcome:
    rows = tuple((r.dim, r.method, r.ratio) for r in report.rows)
    expected = {(d, m) for d in ENSEMBLE_DIMS for m in ENSEMBLE_METHODS}
    if len(rows) != len(expected) or {(d, m) for d, m, _ in rows} != expected:
        return Outcome(False, f"rows {sorted((d, m) for d, m, _ in rows)}")
    bad = [r for r in rows if not (np.isfinite(r[2]) and r[2] >= 1.0)]
    if bad:
        return Outcome(False, f"ratio below 1: {bad[0]}")
    best = {}
    for d, _, ratio in rows:
        best[d] = min(best.get(d, np.inf), ratio)
    return Outcome(True, excess=float(np.mean([b - 1.0 for b in best.values()])),
                   methods=ENSEMBLE_METHODS, rows=rows)


def check(workload: str, inp: Input, result) -> Outcome:
    if workload == "ensemble":
        return _ensemble_outcome(result)
    if workload == "thorough":
        return _cli_outcome(inp, result)
    return _report_outcome(inp, result)


def check_run(workload: str, outcomes) -> list[str]:
    """Checks over a whole run; returns the failures."""
    if workload != "ensemble":
        return []
    worst = {}
    for out in outcomes:
        for d, m, ratio in out.rows:
            worst[d, m] = max(worst.get((d, m), 0.0), ratio)
    if not worst:
        return []
    failures = []
    f_eigen = [worst[d, "eigen"] for d in ENSEMBLE_DIMS]
    if not all(x < y for x, y in zip(f_eigen, f_eigen[1:])):
        failures.append(f"F_eigen not increasing in N: {f_eigen}")
    for d in ENSEMBLE_DIMS:
        if not worst[d, "ldl"] < worst[d, "eigen"]:
            failures.append(f"N={d}: worst LDL {worst[d, 'ldl']} >= worst eigen")
    realizations = sum(1 for out in outcomes if out.rows)
    if realizations >= SQRT_FIT_MIN_REALIZATIONS:
        root = np.sqrt(np.array(ENSEMBLE_DIMS, dtype=float))
        c = float((np.array(f_eigen) * root).sum() / (root * root).sum())
        if not SQRT_FIT_RANGE[0] <= c <= SQRT_FIT_RANGE[1]:
            failures.append(f"sqrt fit c={c} outside {SQRT_FIT_RANGE}")
    return failures
