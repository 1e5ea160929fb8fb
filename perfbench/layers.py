"""Per-layer tracing from outside the library.

Module-level functions of ``l1rankone.*`` are rebound at run time to wrappers
that count calls, raised errors and self time (duration minus the time of
nested traced calls). Every ``l1rankone`` namespace entry that holds a target
function object is rebound, because functions such as ``eigh`` and
``minimize`` are imported by name into several modules. A boundary missing
from the code under test reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

BOUNDARIES = {
    "hermitian": ("ingest_matrix", "eigh", "is_psd", "ldl_factor",
                  "verify_reconstruction"),
    "decompose": ("ldl_decompose", "eigen_decompose", "dd_decompose",
                  "greedy_decompose", "_best_pivot_order_ldl", "_greedy_run",
                  "_refine_direction", "numerical_rank", "reduce_decomposition"),
    "gamma": ("gamma_plus_bounds", "gamma0_bounds", "numeric_gamma_plus_oracle",
              "minimize", "_oracle_objective", "_restore_feasibility"),
    "experiments": ("random_psd", "run_ensemble"),
    "jsonio": ("matrix_from_obj", "report_to_obj", "dumps"),
    "cli": ("main",),
}

# Boundaries documented to raise typed errors; each gets an ``.errors`` count.
RAISING = frozenset({
    "hermitian.ingest_matrix", "hermitian.eigh", "hermitian.ldl_factor",
    "hermitian.verify_reconstruction", "decompose.ldl_decompose",
    "decompose.eigen_decompose", "decompose.dd_decompose",
    "decompose.greedy_decompose", "decompose._greedy_run",
    "decompose._refine_direction", "decompose.reduce_decomposition",
    "gamma.gamma_plus_bounds", "gamma.gamma0_bounds",
    "gamma.numeric_gamma_plus_oracle", "gamma._restore_feasibility",
    "jsonio.matrix_from_obj",
})

EIGH = "hermitian.eigh"
RESTORE = "gamma._restore_feasibility"
EIGH_SIZES = (8, 64)  # cross-checked against the ROADMAP eigh table


def boundary_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns]


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "l1rankone" or name.startswith("l1rankone."))]


class LayerTrace:
    """Counters per boundary; install() rebinds, uninstall() restores."""

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = Counter()
        self.eigh_in_restore = 0
        self.eigh_by_n = {n: [0, 0.0] for n in EIGH_SIZES}
        self._stack: list[list[float]] = []
        self._active = Counter()
        self._originals: list = []   # (module, attribute, original object)
        self.targets: dict = {}      # boundary name -> original function

    def _wrap(self, name: str, fn):
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == EIGH and active[RESTORE]:
                self.eigh_in_restore += 1
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                active[name] -= 1
                stack.pop()
                dur = time.perf_counter() - frame[0]
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if name == EIGH:
                    n = getattr(args[0], "n", None) if args else None
                    if n in self.eigh_by_n:
                        self.eigh_by_n[n][0] += 1
                        self.eigh_by_n[n][1] += dur

        return traced

    def install(self) -> "LayerTrace":
        for mod, fns in BOUNDARIES.items():
            try:
                module = importlib.import_module(f"l1rankone.{mod}")
            except ImportError:
                continue
            for fn in fns:
                target = getattr(module, fn, None)
                if callable(target):
                    self.targets[f"{mod}.{fn}"] = target
        wrappers = {id(t): self._wrap(name, t) for name, t in self.targets.items()}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def unwrapped_bindings(self) -> list[str]:
        """``module.attr`` entries that still hold an original boundary."""
        originals = {id(t) for t in self.targets.values()}
        return [f"{m.__name__}.{attr}" for m in _package_modules()
                for attr, value in vars(m).items() if id(value) in originals]

    def metrics(self) -> dict:
        """``<module>.<function>.calls`` / ``.self_s`` / ``.errors`` and the ratios."""
        out = {}
        for name in boundary_names():
            out[f"{name}.calls"] = (self.calls[name], "count", "lower")
            out[f"{name}.self_s"] = (self.self_s[name], "s", "lower")
            if name in RAISING:
                out[f"{name}.errors"] = (self.errors[name], "count", "lower")
        for n, (count, total) in self.eigh_by_n.items():
            out[f"{EIGH}.n{n}_ms"] = (1e3 * total / count if count else 0.0, "ms", "lower")
        return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
