"""Seeded Monte-Carlo harness: Wishart-type ensembles and worst-case ratios.

For each dimension N, draws GG^T with i.i.d. standard Gaussian G and records
J_method(A) / ||A||_1,1 per realization; F_method(N) is the worst ratio over
the ensemble. The square-root / logarithmic fits summarize the growth of the
eigen and LDL curves.

Randomness comes from SplitMix64 (64-bit, counter-based) driving Box-Muller,
so a stream is a pure function of (seed, counter); realization r of a run
uses seed = base_seed + r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import STRATEGIES
from .errors import EigenFailureError, InsufficientDataError
from .hermitian import HermitianMatrix, ingest_matrix, norm_l11

METHOD_ORDER = ("ldl", "eigen", "greedy")

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64 outputs for counters start..start+count-1 (vectorized)."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = np.uint64(seed % (1 << 64)) + idx * _SM64_GAMMA  # uint64 wraparound
    z = (x ^ (x >> np.uint64(30))) * _SM64_M1
    z = (z ^ (z >> np.uint64(27))) * _SM64_M2
    return z ^ (z >> np.uint64(31))


def _uniform01(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms in the open interval (0, 1): (top 53 bits + 0.5) * 2^-53."""
    bits = _splitmix64(seed, start, count) >> np.uint64(11)
    return (bits.astype(np.float64) + 0.5) * (2.0 ** -53)


def gaussian_stream(seed: int, count: int) -> np.ndarray:
    """Standard normal draws via Box-Muller on the SplitMix64 stream."""
    pairs = (count + 1) // 2
    u = _uniform01(seed, 0, 2 * pairs)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:count]


def random_psd(n: int, seed: int) -> HermitianMatrix:
    """GG^T for an n x n standard Gaussian G; deterministic per (n, seed)."""
    g = gaussian_stream(seed, n * n).reshape(n, n)
    return ingest_matrix(g @ g.T)  # stores (A + A*) / 2


@dataclass(frozen=True)
class EnsembleConfig:
    dims: tuple
    realizations: int = 30
    base_seed: int = 0
    methods: tuple = ("ldl", "eigen")

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if len(self.dims) == 0:
            raise ValueError("dims must be nonempty")
        if any(int(d) < 2 for d in self.dims):
            raise ValueError("every dimension must be >= 2")
        unknown = [m for m in self.methods if m not in METHOD_ORDER]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "methods",
            tuple(m for m in METHOD_ORDER if m in self.methods),
        )


@dataclass(frozen=True)
class RatioRow:
    dim: int
    method: str
    realization: int
    seed: int
    ratio: float


@dataclass(frozen=True)
class DimSummary:
    dim: int
    worst: dict    # method -> F_method(N) = max ratio
    mean: dict
    std: dict


@dataclass(frozen=True)
class FitResult:
    sqrt_coeff: float | None       # c in F_eigen(N) ~ c sqrt(N)
    log_coeffs: tuple | None       # (a, b) in F_ldl(N) ~ a ln N + b
    sqrt_residual: float | None
    log_residual: float | None


@dataclass(frozen=True)
class ExperimentReport:
    config: EnsembleConfig
    rows: tuple
    summaries: tuple
    fit: FitResult | None


def run_ensemble(config: EnsembleConfig) -> ExperimentReport:
    """Worst-case ratio curves over the seeded ensemble; rows are ordered by
    (dim, realization, method) so output is schedule-independent."""
    rows = []
    summaries = []
    for n in config.dims:
        ratios = np.empty((len(config.methods), config.realizations))
        for r in range(config.realizations):
            seed = config.base_seed + r
            a = random_psd(n, seed)
            den = norm_l11(a)
            for j, method in enumerate(config.methods):
                try:
                    ratio = STRATEGIES[method](a).cost / den
                except EigenFailureError as exc:
                    raise EigenFailureError(
                        f"eigensolver failed at dim {n}, realization {r}: {exc}"
                    ) from exc
                rows.append(RatioRow(n, method, r, seed, ratio))
                ratios[j, r] = ratio
        # Each row reduces like its method's ratios alone: same values, one call.
        summaries.append(DimSummary(n, *(
            dict(zip(config.methods, stat(axis=1).tolist()))
            for stat in (ratios.max, ratios.mean, ratios.std))))
    report = ExperimentReport(config, tuple(rows), tuple(summaries), None)
    try:
        fit = fit_curves(report)
    except InsufficientDataError:
        fit = None
    return ExperimentReport(config, tuple(rows), tuple(summaries), fit)


def fit_curves(report: ExperimentReport) -> FitResult:
    """Least-squares c for F_eigen ~ c sqrt(N) and (a, b) for
    F_ldl ~ a ln N + b. Needs at least three dimensions."""
    summaries = report.summaries
    if len(summaries) < 3:
        raise InsufficientDataError(
            f"need >= 3 dimensions to fit, got {len(summaries)}"
        )
    dims = np.array([s.dim for s in summaries], dtype=float)
    sqrt_coeff = sqrt_residual = None
    if all("eigen" in s.worst for s in summaries):
        f = np.array([s.worst["eigen"] for s in summaries])
        root = np.sqrt(dims)
        sqrt_coeff = float((f * root).sum() / (root * root).sum())
        sqrt_residual = float(((f - sqrt_coeff * root) ** 2).sum())
    log_coeffs = log_residual = None
    if all("ldl" in s.worst for s in summaries):
        f = np.array([s.worst["ldl"] for s in summaries])
        x = np.log(dims)
        m = float(len(dims))
        sxx, sx = float((x * x).sum()), float(x.sum())
        sxy, sy = float((x * f).sum()), float(f.sum())
        det = sxx * m - sx * sx
        a = (m * sxy - sx * sy) / det
        b = (sxx * sy - sx * sxy) / det
        log_coeffs = (a, b)
        log_residual = float(((f - a * x - b) ** 2).sum())
    return FitResult(sqrt_coeff, log_coeffs, sqrt_residual, log_residual)


def render_csv(report: ExperimentReport) -> str:
    """Deterministic CSV: data rows, a per-dim summary block, the fit block.

    Floats are rendered with repr (shortest round-trip), so identical
    reports produce byte-identical files.
    """
    methods = report.config.methods if report.summaries else ()
    lines = ["N,method,realization,seed,ratio"]
    for row in report.rows:
        lines.append(
            f"{row.dim},{row.method},{row.realization},{row.seed},{row.ratio!r}"
        )
    if report.summaries:
        header = ["N"]
        header += [f"F_{m}" for m in methods]
        header += [f"mean_{m}" for m in methods]
        header += [f"std_{m}" for m in methods]
        lines.append("SUMMARY")
        lines.append(",".join(header))
        for s in report.summaries:
            cells = [str(s.dim)]
            cells += [repr(s.worst[m]) for m in methods]
            cells += [repr(s.mean[m]) for m in methods]
            cells += [repr(s.std[m]) for m in methods]
            lines.append(",".join(cells))
    if report.fit is not None:
        lines.append("FIT")
        fit = report.fit
        if fit.sqrt_coeff is not None:
            lines.append(f"sqrt_coeff,{fit.sqrt_coeff!r}")
            lines.append(f"sqrt_residual,{fit.sqrt_residual!r}")
        if fit.log_coeffs is not None:
            lines.append(f"log_coeff_a,{fit.log_coeffs[0]!r}")
            lines.append(f"log_coeff_b,{fit.log_coeffs[1]!r}")
            lines.append(f"log_residual,{fit.log_residual!r}")
    return "\n".join(lines) + "\n"


def emit_csv(report: ExperimentReport, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_csv(report))
