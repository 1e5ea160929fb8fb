"""Acceptance criteria, one test per criterion, each printing a PASS line.

Budgets are wall-clock, single-threaded. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

import l1rankone as lr
from l1rankone import decompose as dc
from l1rankone import experiments as ex
from l1rankone import gamma as gm
from l1rankone.cli import main

from conftest import hermitian, random_dd, random_hermitian, random_psd

from test_hermitian import REMARK_4X4

FLIP = {"n": 2, "entries": [[0, 1], [1, 0]]}


def announce(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k} PASS - {text}")


@pytest.fixture
def flip_file(tmp_path):
    p = tmp_path / "flip.json"
    p.write_text(json.dumps(FLIP))
    return str(p)


def test_criterion_01_gamma0_fixture(flip_file, capsys):
    t0 = time.perf_counter()
    code = main(["gamma", flip_file, "--functional", "zero"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert code == 0
    assert obj["upper"] == 4.0
    assert obj["lower"] == 2.0
    assert elapsed < 1.0
    announce(1, f"gamma_zero([[0,1],[1,0]]) = [2, 4] exactly in {elapsed:.3f}s")


def test_criterion_02_lipschitz_two_tightness():
    a = hermitian([[0, 1], [1, 0]])
    zero = hermitian(np.zeros((2, 2)))
    g0_a = gm.gamma0_bounds(a).upper
    g0_zero = gm.gamma0_bounds(zero).upper
    ratio = abs(g0_a - g0_zero) / lr.norm_l11(a)
    assert ratio == 2.0
    announce(2, "certified gamma_zero difference ratio |4 - 0| / 2 equals 2 exactly")


def test_criterion_03_2x2_exactness():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    for k in range(200):
        a = random_psd(rng, 2, complex_entries=bool(k % 2))
        l11 = lr.norm_l11(a)
        assert abs(dc.ldl_decompose(a).cost - l11) <= 1e-9 * max(1.0, l11)
        assert dc.greedy_decompose(a).cost >= l11 - 1e-9
        oracle = gm.numeric_gamma_plus_oracle(a, restarts=1, seed=k)
        assert oracle.cost >= l11 - 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(3, f"200 random 2x2: LDL = ||A||_1,1 to 1e-9; greedy/oracle floored ({elapsed:.1f}s)")


def test_criterion_04_diagonally_dominant_exactness():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    for k in range(200):
        n = int(rng.integers(2, 9))
        a = random_dd(rng, n, complex_off=bool(k % 2), tight_rows=k % 3)
        l11 = lr.norm_l11(a)
        assert abs(dc.dd_decompose(a).cost - l11) <= 1e-9 * max(1.0, l11)
        report = gm.gamma_plus_bounds(a)
        assert report.certified
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(4, f"200 random DD matrices: dd cost = ||A||_1,1 and CERTIFIED ({elapsed:.1f}s)")


def test_criterion_05_3x3_gap_identity():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    for k in range(200):
        a = random_psd(rng, 3, complex_entries=bool(k % 2))
        gap = dc.special_3x3_gap(a)
        assert gap >= -1e-12
        excess = dc.ldl_decompose(a).cost - lr.norm_l11(a)
        assert abs(excess - gap) <= 1e-9 * max(1.0, lr.norm_l11(a))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    announce(5, f"200 random 3x3: LDL excess equals the closed-form gap ({elapsed:.1f}s)")


def test_criterion_06_rank_one_peel():
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = random_psd(rng, n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = z / np.sqrt(np.vdot(z, a.entries @ z).real)
        step, resid = dc.rank_one_peel(a, x)
        assert abs(step.quad - 1.0) <= 1e-9
        assert lr.is_psd(resid)
        assert dc.numerical_rank(resid) == n - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(6, f"100 unit-quad peels: PSD residual, rank drops by one ({elapsed:.1f}s)")


def test_criterion_07_caratheodory_reduction():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 4))
        m = n * n + 4
        xs = []
        for _ in range(m):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            xs.append(z / np.abs(z).sum())
        w = rng.uniform(0.1, 1.0, size=m)
        w = w / w.sum()
        target = sum(wk * np.outer(x, x.conj()) for wk, x in zip(w, xs))
        w2, xs2 = dc.caratheodory_reduce(w, xs)
        assert len(w2) <= n * n + 1
        rec = sum(wk * np.outer(x, x.conj()) for wk, x in zip(w2, xs2))
        assert np.abs(rec - target).max() <= 1e-9
        assert abs(w2.sum() - w.sum()) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(7, f"50 over-long families reduced to n^2+1 terms, drift <= 1e-9 ({elapsed:.1f}s)")


def test_criterion_08_norm_chain():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    for _ in range(500):
        a = random_hermitian(rng, int(rng.integers(2, 7)))
        tr = lr.trace_norm(a)
        l11 = lr.norm_l11(a)
        g0_upper = gm.gamma0_bounds(a).upper
        assert tr <= l11 + 1e-9 * max(1.0, l11)
        assert l11 <= g0_upper + 1e-9 * max(1.0, g0_upper)
        assert g0_upper <= 2.0 * l11 + 1e-9 * max(1.0, l11)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(8, f"500 random Hermitian: trace <= l11 <= gamma0_upper <= 2*gamma ({elapsed:.1f}s)")


def test_criterion_09_experiment_reproduction():
    t0 = time.perf_counter()
    cfg = ex.EnsembleConfig(dims=(8, 16, 32, 64), realizations=30, base_seed=0,
                            methods=("ldl", "eigen"))
    rep = ex.run_ensemble(cfg)
    worst_eigen = [s.worst["eigen"] for s in rep.summaries]
    assert all(a < b for a, b in zip(worst_eigen, worst_eigen[1:]))
    for s in rep.summaries:
        assert s.worst["ldl"] < s.worst["eigen"]
    assert 0.55 <= rep.fit.sqrt_coeff <= 1.05
    assert all(row.ratio >= 1.0 for row in rep.rows)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    announce(9, f"dims 8..64 x 30: F_eigen increasing, LDL tighter, "
                f"c = {rep.fit.sqrt_coeff:.3f} in [0.55, 1.05] ({elapsed:.1f}s)")


def test_criterion_10_4x4_gap_evidence():
    t0 = time.perf_counter()
    a = hermitian(REMARK_4X4)
    report = gm.gamma_plus_bounds(a, gm.EFFORT_THOROUGH, oracle_restarts=64, seed=0)
    elapsed = time.perf_counter() - t0
    assert report.lower == 1.0
    assert report.upper > 1.0 + 1e-3
    assert not report.certified
    assert elapsed < 30.0
    announce(10, f"4x4 rank-2 fixture: lower = 1 exactly, best upper "
                 f"{report.upper:.6f} > 1.001, not certified ({elapsed:.1f}s)")


def test_criterion_11_determinism(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"n": 2, "entries": [[2, 1], [1, 2]]}))
    runs = [
        ["norms", str(mat)],
        ["decompose", str(mat), "--method", "greedy", "--restarts", "4", "--seed", "3"],
        ["decompose", str(mat), "--method", "oracle", "--restarts", "2", "--seed", "3"],
        ["gamma", str(mat), "--functional", "plus", "--effort", "thorough", "--seed", "1"],
    ]
    for argv in runs:
        outputs = []
        for _ in range(2):
            assert main(list(argv)) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1], argv
    csvs = []
    for name in ("c1.csv", "c2.csv"):
        path = tmp_path / name
        assert main(["experiment", "--dims", "2,3", "--realizations", "5",
                     "--seed", "7", "--out", str(path)]) == 0
        capsys.readouterr()
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
    announce(11, "seeded CLI runs are byte-identical (JSON and CSV)")
