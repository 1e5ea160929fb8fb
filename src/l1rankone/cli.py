"""Command-line front end; thin adapters over the library modules.

Exit codes are a stable contract: 0 success, 2 input problem (parse, flag,
non-finite or non-Hermitian entries, file, a scale that overflows, or one so
small that the certificates fall below the lower bound), 3 not PSD, 4 not
diagonally dominant, 5 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import decompose as dc
from . import experiments as ex
from . import gamma as gm
from . import jsonio
from .errors import (
    BudgetExceededError,
    EigenFailureError,
    InsufficientDataError,
    L1RankOneError,
    NotDiagonallyDominantError,
    NotPSDError,
)
from .hermitian import (
    HERMITIAN_TOL,
    RECON_TOL,
    frobenius_norm,
    norm_l11,
    operator_norm,
    reconstruct,
    trace_norm,
    verify_reconstruction,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_PSD = 3
EXIT_NOT_DD = 4
EXIT_CERTIFY = 5


class CertificationFailure(L1RankOneError):
    pass


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_matrix(args):
    return jsonio.matrix_from_obj(_load_json(args.input), args.hermitian_tol)


def cmd_norms(args) -> int:
    a = _load_matrix(args)
    obj = {
        "l11": norm_l11(a),
        "trace": trace_norm(a),
        "operator": operator_norm(a),
        "frobenius": frobenius_norm(a),
    }
    _emit(jsonio.dumps(obj), args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    a = _load_matrix(args)
    if args.method == "ldl":
        dec = dc.ldl_decompose(a)
    elif args.method == "eigen":
        dec = dc.eigen_decompose(a)
    elif args.method == "dd":
        dec = dc.dd_decompose(a)
    elif args.method == "greedy":
        dec = dc.greedy_decompose(
            a, dc.GreedyConfig(restarts=args.restarts, seed=args.seed))
    else:
        dec = gm.numeric_gamma_plus_oracle(
            a, restarts=args.restarts, seed=args.seed)
    residual = verify_reconstruction(a, dec.vectors, args.recon_tol).max_residual
    _emit(jsonio.dumps(jsonio.decomposition_to_obj(dec, residual=residual)), args.out)
    return EXIT_OK


def cmd_gamma(args) -> int:
    a = _load_matrix(args)
    if args.functional == "plus":
        report = gm.gamma_plus_bounds(
            a, args.effort, seed=args.seed, oracle_restarts=args.restarts)
    elif args.functional == "zero":
        report = gm.gamma0_bounds(a, args.effort, seed=args.seed)
    else:
        value = gm.gamma_exact(a)
        report = gm.GammaReport(gm.FUNCTIONAL_GAMMA, value, value, None,
                                {"exact": value}, True)
    _emit(jsonio.dumps(jsonio.report_to_obj(report)), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    a = _load_matrix(args)
    _, declared_cost, vectors = jsonio.decomposition_from_obj(_load_json(args.decomposition))
    if vectors[0].shape[0] != a.n:
        raise CertificationFailure(
            f"decomposition dimension {vectors[0].shape[0]} != matrix dimension {a.n}"
        )
    report = verify_reconstruction(a, vectors, args.recon_tol)
    recomputed = dc.decomposition_cost(vectors)
    cost_ok = abs(recomputed - declared_cost) <= 1e-9 * max(1.0, recomputed)
    obj = {
        "pass": bool(report.ok and cost_ok),
        "max_residual": report.max_residual,
        "residual_tol": report.tol,
        "cost_declared": declared_cost,
        "cost_recomputed": recomputed,
    }
    _emit(jsonio.dumps(obj), args.out)
    if not obj["pass"]:
        raise CertificationFailure(
            f"residual {report.max_residual:.3e} (tol {report.tol:.3e}), "
            f"declared cost {declared_cost!r} vs recomputed {recomputed!r}"
        )
    return EXIT_OK


def cmd_reduce(args) -> int:
    method, declared_cost, vectors = jsonio.decomposition_from_obj(
        _load_json(args.decomposition))
    recomputed = dc.decomposition_cost(vectors)
    if abs(recomputed - declared_cost) > 1e-9 * max(1.0, recomputed):
        raise CertificationFailure(
            f"declared cost {declared_cost!r} does not match vectors "
            f"({recomputed!r})"
        )
    target = reconstruct(vectors)
    dec = dc.RankOneDecomposition.build(target, vectors, method)
    # reduce_decomposition rebuilds through RankOneDecomposition.build, which
    # checks the residual; only the cost can still drift.
    reduced = dc.reduce_decomposition(dec, target)
    if abs(reduced.cost - dec.cost) > 1e-9 * max(1.0, dec.cost):
        raise CertificationFailure(
            f"reduction drifted: cost {dec.cost!r} -> {reduced.cost!r}"
        )
    _emit(jsonio.dumps(jsonio.decomposition_to_obj(reduced)), args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    config = ex.EnsembleConfig(
        dims=dims,
        realizations=args.realizations,
        base_seed=args.seed,
        methods=methods,
    )
    report = ex.run_ensemble(config)
    if args.out is None:
        sys.stdout.write(ex.render_csv(report))
    else:
        ex.emit_csv(report, args.out)
    c = report.fit.sqrt_coeff if report.fit is not None else None
    sys.stdout.write(f"sqrt_fit c={c!r}\n" if c is not None else "sqrt_fit c=nan\n")
    return EXIT_OK


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1rankone",
        description="Rank-one l1-optimal decompositions of PSD matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, matrix_input=True):
        if matrix_input:
            p.add_argument("input", help="matrix JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--hermitian-tol", type=_positive_float, default=HERMITIAN_TOL)
        p.add_argument("--recon-tol", type=_positive_float, default=RECON_TOL)

    p = sub.add_parser("norms", help="all four matrix norms")
    add_common(p)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("decompose", help="rank-one decomposition by one strategy")
    add_common(p)
    p.add_argument("--method", required=True,
                   choices=("ldl", "eigen", "dd", "greedy", "oracle"))
    p.add_argument("--restarts", type=_positive_int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gamma", help="functional bounds report")
    add_common(p)
    p.add_argument("--functional", required=True, choices=("plus", "zero", "exact"))
    p.add_argument("--effort", choices=(gm.EFFORT_FAST, gm.EFFORT_THOROUGH),
                   default=gm.EFFORT_FAST)
    p.add_argument("--restarts", type=_positive_int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("certify", help="verify a decomposition against a matrix")
    add_common(p)
    p.add_argument("decomposition", help="decomposition JSON file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("reduce", help="Caratheodory-reduce a decomposition")
    add_common(p, matrix_input=False)
    p.add_argument("decomposition", help="decomposition JSON file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("experiment", help="seeded Monte-Carlo ratio curves")
    p.add_argument("--dims", required=True, help="comma-separated dimensions")
    p.add_argument("--realizations", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default="ldl,eigen")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except NotPSDError as exc:
        print(f"error: not positive semidefinite: {exc}", file=sys.stderr)
        return EXIT_NOT_PSD
    except NotDiagonallyDominantError as exc:
        print(f"error: not diagonally dominant: {exc}", file=sys.stderr)
        return EXIT_NOT_DD
    except CertificationFailure as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFY
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError, EigenFailureError, InsufficientDataError,
            BudgetExceededError, L1RankOneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
