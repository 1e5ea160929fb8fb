"""Optimal and near-optimal l1 rank-one decompositions of PSD matrices.

A complex Hermitian PSD matrix A is written as a sum of outer products
A = sum_k g_k g_k*, minimizing the total squared l1 mass sum_k ||g_k||_1^2.
The package provides constructive strategies (LDL pivoting, eigen scaling,
the diagonally-dominant closed form, greedy peeling, a numeric oracle),
certified two-sided bounds for the associated functionals, Caratheodory
term reduction, and a seeded Monte-Carlo benchmark harness.
"""

from . import errors
from .decompose import (
    RankOneDecomposition,
    caratheodory_reduce,
    dd_decompose,
    decomposition_cost,
    eigen_decompose,
    greedy_decompose,
    is_diagonally_dominant,
    ldl_decompose,
    numerical_rank,
    rank_one_peel,
    reduce_decomposition,
    special_3x3_gap,
)
from .experiments import (
    EnsembleConfig,
    ExperimentReport,
    emit_csv,
    fit_curves,
    random_psd,
    run_ensemble,
)
from .gamma import (
    GammaReport,
    SignedDecomposition,
    gamma0_bounds,
    gamma_exact,
    gamma_plus_bounds,
    numeric_gamma_plus_oracle,
    omega_membership,
)
from .hermitian import (
    EigenSystem,
    HermitianMatrix,
    eigh,
    frobenius_norm,
    ingest_matrix,
    is_psd,
    ldl_factor,
    norm_l11,
    operator_norm,
    reconstruct,
    trace_norm,
    verify_reconstruction,
)

__version__ = "0.1.0"
