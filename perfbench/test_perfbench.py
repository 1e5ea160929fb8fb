"""Tests of the benchmark itself: inputs, tracing, checks and the result line.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import l1rankone as lr  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def digest(inputs) -> str:
    h = hashlib.sha256()
    for inp in inputs:
        h.update(f"{inp.index}|{inp.kind}|{inp.seed}|".encode())
        if inp.matrix is not None:
            h.update(np.ascontiguousarray(inp.matrix).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", wl.WORKLOADS + (wl.SCALED,))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    def inputs(seed):
        return [wl.make_input(workload, seed, i) for i in range(40)]

    assert digest(inputs(7)) == digest(inputs(7))
    assert digest(inputs(7)) != digest(inputs(8))


def test_bracket_stream_balances_kinds_and_dims():
    inputs = [wl.bracket_input(3, i) for i in range(35)]
    pairs = {(inp.kind, inp.matrix.shape[0]) for inp in inputs if inp.kind != "2x2"}
    assert len(pairs) == 4 * len(wl.BRACKET_DIMS)
    scaled = [wl.bracket_input(3, i, scaled=True) for i in range(20)]
    assert [i for i, inp in enumerate(scaled)
            if not 1e-6 < np.abs(inp.matrix).max() < 1e6] == [9, 19]


def test_installed_wrappers_leave_no_unwrapped_binding():
    originals = {"eigh": lr.hermitian.eigh, "minimize": lr.gamma.minimize}
    with layers.LayerTrace() as trace:
        assert set(trace.targets) == set(layers.boundary_names())
        assert trace.unwrapped_bindings() == []
        assert lr.decompose.eigh is not originals["eigh"]
        assert lr.gamma.eigh is lr.hermitian.eigh is lr.eigh
        assert lr.gamma.minimize is not originals["minimize"]
    assert lr.hermitian.eigh is originals["eigh"]
    assert lr.decompose.eigh is originals["eigh"]
    assert lr.gamma.minimize is originals["minimize"]


def test_missing_boundary_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(lr.gamma, "_restore_feasibility")
    with layers.LayerTrace() as trace:
        assert "gamma._restore_feasibility" not in trace.targets
        lr.gamma_plus_bounds(lr.ingest_matrix([[2.0, 1.0], [1.0, 2.0]]))
    metrics = trace.metrics()
    assert metrics["gamma._restore_feasibility.calls"][0] == 0
    assert metrics["gamma.gamma_plus_bounds.calls"][0] == 1


def _traced_calls(workload, count, workdir):
    inputs = [wl.make_input(workload, 5, i) for i in range(count)]
    if workload == "thorough":
        inputs = [wl.write_matrix(inp, str(workdir)) for inp in inputs]
    trace, _, samples, failures = run.traced_pass(workload, inputs)
    assert failures == [] and all(out.ok for _, _, out in samples)
    return trace.calls


@pytest.mark.parametrize("workload,count", [("bracket", 6), ("thorough", 2)])
def test_traced_calls_repeat_exactly(workload, count, tmp_path):
    first = _traced_calls(workload, count, tmp_path)
    assert first == _traced_calls(workload, count, tmp_path)
    assert first["hermitian.eigh"] > 0
    if workload == "thorough":
        assert first["gamma.minimize"] > 0 and first["cli.main"] == count


def test_metric_names_match_benchmark_json():
    summary = {"ops_per_s": 1.0, "op_p50_ms": 1.0, "op_p90_ms": 1.0,
               "upper_excess_mean": 0.1}
    assert list(run.e2e_metrics(summary, [1.0])) == [m["name"] for m in SPEC["end_to_end"]]
    samples = [(0.01, 1.0, wl.Outcome(True, certified=True, excess=0.0))]
    s = run.summarize(samples)
    names = run.layer_metrics(layers.LayerTrace(), s, samples, s)
    assert list(names) == [m["name"] for m in SPEC["per_layer"]]


def test_checks_reject_wrong_answers():
    a = wl.bracket_input(2, 0).matrix
    rep = lr.gamma_plus_bounds(lr.ingest_matrix(a))
    vecs = list(rep.best.vectors)
    assert wl.check_bracket(a, rep.lower, rep.upper, rep.certified, vecs) == ""
    assert "inverted" in wl.check_bracket(a, rep.lower, 0.5 * rep.lower, False, vecs)
    assert "certified" in wl.check_bracket(a, rep.lower, rep.lower + 1e-3, True, vecs)
    bent = [vecs[0] * (1 + 1e-6)] + vecs[1:]
    assert "residual" in wl.check_bracket(a, rep.lower, rep.upper, rep.certified, bent)
    assert "cost" in wl.check_bracket(a, rep.lower, rep.upper * 1.01, False, vecs)
    assert "lower" in wl.check_bracket(a, rep.lower * 0.9, rep.upper, False, vecs)


def test_ensemble_run_checks_flag_a_broken_curve():
    rows = tuple((d, m, (1.5 if m == "ldl" else 2.0) + 0.1 * k)
                 for k, d in enumerate(wl.ENSEMBLE_DIMS) for m in wl.ENSEMBLE_METHODS)
    good = wl.Outcome(True, rows=rows)
    assert wl.check_run("ensemble", [good]) == []
    flat = tuple((d, m, 2.0 if m == "eigen" else r) for d, m, r in rows)
    assert wl.check_run("ensemble", [wl.Outcome(True, rows=flat)])


def test_result_line_and_exit_codes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bracket", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert all(m["value"] > 0 for m in res["metrics"].values())

    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bracket", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0 and proc.stdout == ""
