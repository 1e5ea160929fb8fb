"""JSON codecs for the matrix, decomposition, and report wire formats.

Matrix:        {"n": int, "entries": [[entry, ...], ...]} where entry is
               [re, im] or a plain number for real input.
Decomposition: {"method": str, "cost": float, "vectors": [[entry, ...], ...]}
               written from the family's (r, n) stack in one step.
Gamma report:  {"functional": ..., "lower": ..., "upper": ..., "certified":
               ..., "per_method": {...}, "skipped": [...], "decomposition": {...}}
               per_method holds the strategies that ran and passed their
               check (a dropped strategy, whose certificate failed it, is
               omitted), skipped (always present, possibly empty) those left
               out once the bracket closed.
"""

from __future__ import annotations

import json

import numpy as np

from .decompose import RankOneDecomposition
from .gamma import GammaReport, SignedDecomposition
from .hermitian import HERMITIAN_TOL, HermitianMatrix, ingest_matrix


def _is_number(x) -> bool:
    """A JSON number: true and false are not numbers, though bool is an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry_to_complex(entry) -> complex:
    if _is_number(entry):
        return complex(entry, 0.0)
    if isinstance(entry, (list, tuple)) and len(entry) == 2 \
            and all(_is_number(p) for p in entry):
        return complex(entry[0], entry[1])
    raise ValueError(f"matrix entry must be a number or [re, im], got {entry!r}")


def matrix_from_obj(obj, hermitian_tol: float = HERMITIAN_TOL) -> HermitianMatrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    n = obj["n"]
    entries = obj["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if not isinstance(entries, list) or len(entries) != n \
            or any(not isinstance(row, list) or len(row) != n for row in entries):
        raise ValueError(f"'entries' must be an {n}x{n} array")
    raw = np.array(
        [[_entry_to_complex(entries[i][j]) for j in range(n)] for i in range(n)],
        dtype=np.complex128,
    )
    return ingest_matrix(raw, hermitian_tol)


def vectors_from_obj(obj) -> list:
    if not isinstance(obj, list):
        raise ValueError("'vectors' must be a list")
    out = []
    for vec in obj:
        if not isinstance(vec, list) or not vec:
            raise ValueError("each vector must be a nonempty list")
        out.append(np.array([_entry_to_complex(e) for e in vec], dtype=np.complex128))
    return out


def vectors_to_obj(vectors) -> list:
    """[[[re, im], ...], ...]: one tolist of the family's (r, n, 2) float view."""
    stack = np.ascontiguousarray(vectors, dtype=np.complex128)
    return stack.view(np.float64).reshape(*stack.shape, 2).tolist()


def decomposition_from_obj(obj) -> tuple:
    """(method, declared_cost, vectors); structural validation only. An
    empty family is accepted: it is the exact certificate of the zero matrix."""
    if not isinstance(obj, dict):
        raise ValueError("decomposition JSON must be an object")
    method = obj.get("method", "external")
    cost = obj["cost"]
    if not _is_number(cost):
        raise ValueError(f"'cost' must be a number, got {cost!r}")
    vectors = vectors_from_obj(obj["vectors"])
    if any(v.shape != vectors[0].shape for v in vectors):
        raise ValueError("vectors must share one dimension")
    return str(method), float(cost), vectors


def decomposition_to_obj(dec: RankOneDecomposition, **extra) -> dict:
    obj = {
        "method": dec.method,
        "cost": dec.cost,
        "vectors": vectors_to_obj(dec.vectors),
    }
    obj.update(extra)
    return obj


def signed_to_obj(sd: SignedDecomposition) -> dict:
    return {
        "cost": sd.cost,
        "positive": vectors_to_obj(sd.positive),
        "negative": vectors_to_obj(sd.negative),
    }


def report_to_obj(report: GammaReport) -> dict:
    if isinstance(report.best, RankOneDecomposition):
        dec = decomposition_to_obj(report.best)
    elif isinstance(report.best, SignedDecomposition):
        dec = signed_to_obj(report.best)
    else:
        dec = None
    return {
        "functional": report.functional,
        "lower": report.lower,
        "upper": report.upper,
        "certified": report.certified,
        "per_method": dict(sorted(report.per_method.items())),
        "skipped": list(report.skipped),
        "decomposition": dec,
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
