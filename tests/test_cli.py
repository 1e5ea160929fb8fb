"""CLI contract: commands, JSON/CSV formats, stable exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from l1rankone import cli
from l1rankone.cli import main
from l1rankone.errors import BudgetExceededError, EigenFailureError, InsufficientDataError

from test_hermitian import REMARK_4X4, rounding_growth_gram

A_2X2 = {"n": 2, "entries": [[2, 1], [1, 2]]}
FLIP = {"n": 2, "entries": [[0, 1], [1, 0]]}
NOT_DD = {"n": 2, "entries": [[1, 2], [2, 1]]}
COMPLEX = {"n": 2, "entries": [[[1, 0], [0, 1]], [[0, -1], [1, 0]]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in (("a", A_2X2), ("flip", FLIP), ("notdd", NOT_DD),
                      ("cplx", COMPLEX)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


class TestNorms:
    def test_flip(self, files, capsys):
        code, out = run(capsys, "norms", files["flip"])
        assert code == 0
        obj = json.loads(out)
        assert obj["l11"] == 2.0
        assert obj["trace"] == pytest.approx(2.0, abs=1e-12)
        assert obj["operator"] == pytest.approx(1.0, abs=1e-12)
        assert obj["frobenius"] == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_complex_matrix(self, files, capsys):
        code, out = run(capsys, "norms", files["cplx"])
        assert code == 0
        assert json.loads(out)["l11"] == 4.0

    def test_malformed_json(self, files, capsys):
        bad = files["dir"] / "bad.json"
        bad.write_text("{oops")
        assert run(capsys, "norms", str(bad))[0] == 2

    def test_missing_file(self, files, capsys):
        assert run(capsys, "norms", str(files["dir"] / "none.json"))[0] == 2

    def test_non_hermitian(self, files, capsys):
        p = files["dir"] / "nh.json"
        p.write_text(json.dumps({"n": 2, "entries": [[0, 1], [0, 0]]}))
        assert run(capsys, "norms", str(p))[0] == 2


class TestDecompose:
    def test_ldl_cost(self, files, capsys):
        code, out = run(capsys, "decompose", files["a"], "--method", "ldl")
        assert code == 0
        obj = json.loads(out)
        assert obj["cost"] == pytest.approx(6.0, abs=1e-9)
        assert obj["method"] == "ldl"
        assert obj["residual"] <= 1e-12

    def test_eigen_cost(self, files, capsys):
        code, out = run(capsys, "decompose", files["a"], "--method", "eigen")
        assert code == 0
        assert json.loads(out)["cost"] == pytest.approx(8.0, abs=1e-9)

    def test_dd_rejects_non_dominant(self, files, capsys):
        assert run(capsys, "decompose", files["notdd"], "--method", "dd")[0] == 4

    def test_not_psd(self, files, capsys):
        assert run(capsys, "decompose", files["flip"], "--method", "ldl")[0] == 3

    def test_greedy_seeded(self, files, capsys):
        code, out = run(capsys, "decompose", files["a"], "--method", "greedy",
                        "--restarts", "2", "--seed", "5")
        assert code == 0
        assert json.loads(out)["cost"] == pytest.approx(6.0, abs=1e-6)

    def test_greedy_does_not_read_restarts_or_seed(self, files, capsys):
        p = files["dir"] / "remark.json"
        p.write_text(json.dumps({"n": 4, "entries": REMARK_4X4.tolist()}))
        outs = {run(capsys, "decompose", str(p), "--method", "greedy", *flags)
                for flags in ([], ["--restarts", "1", "--seed", "9"],
                              ["--restarts", "40", "--seed", "2"])}
        assert len(outs) == 1 and next(iter(outs))[0] == 0

    @pytest.mark.parametrize("method", ["eigen", "dd"])
    def test_tiny_scale_decomposes_like_unit_scale(self, files, capsys, method):
        # ||A||_1,1 = 5e-11. Every cut is relative to A, so eigen keeps both
        # eigenvalues and dd its diagonal remainder, as at unit scale.
        costs = []
        for scale in (1.0, 1e-11):
            p = files["dir"] / "scaled.json"
            p.write_text(json.dumps({"n": 2, "entries": [[scale, scale], [scale, 2 * scale]]}))
            code, out = run(capsys, "decompose", str(p), "--method", method)
            assert code == 0
            costs.append(json.loads(out)["cost"])
        assert costs[1] / 1e-11 == pytest.approx(costs[0], rel=1e-12)

    def test_oracle_drops_warm_starts_below_the_lower_bound(self, files, capsys):
        # The same tiny input: no start or result below ||A||_1,1 (which
        # the family check rejects) may win the oracle's pool.
        p = files["dir"] / "tiny.json"
        p.write_text(json.dumps({"n": 2, "entries": [[1e-11, 1e-11], [1e-11, 2e-11]]}))
        code, out = run(capsys, "decompose", str(p), "--method", "oracle")
        assert code == 0
        obj = json.loads(out)
        assert obj["method"] == "oracle"
        assert obj["cost"] >= 5e-11 * (1.0 - 1e-12)

    def test_rounding_growth_is_a_miss_not_indefiniteness(self, files, capsys):
        # A PSD 4x4 on which natural-order LDL meets a Schur pivot of
        # -1.8e-8: ldl's family misses A beyond RECON_TOL (exit 2, input
        # problem), not a PSD failure (3); the bracket and the oracle drop
        # that family and answer.
        p = files["dir"] / "growth.json"
        p.write_text(json.dumps({"n": 4, "entries": rounding_growth_gram(4, 3, 1370).tolist()}))
        assert run(capsys, "decompose", str(p), "--method", "ldl") == (2, "")
        for argv in (["decompose", "--method", "oracle", "--restarts", "2"],
                     ["gamma", "--functional", "plus"]):
            code, out = run(capsys, argv[0], str(p), *argv[1:])
            assert code == 0
            assert json.loads(out)


class TestGamma:
    def test_zero_flip(self, files, capsys):
        code, out = run(capsys, "gamma", files["flip"], "--functional", "zero")
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] == 2.0
        assert obj["upper"] == 4.0
        assert obj["functional"] == "gamma_zero"
        assert set(obj["decomposition"]) == {"cost", "positive", "negative"}

    def test_zero_forwards_restarts_to_the_oracle(self, files, capsys, monkeypatch):
        # The positive eigenpart of this indefinite 4x4 is the remark matrix,
        # whose gap thorough effort hands to the oracle.
        received = []
        oracle = cli.gm.numeric_gamma_plus_oracle

        def record(a, restarts, seed, warm=None):
            received.append(restarts)
            return oracle(a, restarts=restarts, seed=seed, warm=warm)

        monkeypatch.setattr(cli.gm, "numeric_gamma_plus_oracle", record)
        null = np.array([1.0, -1.0, -1.0, 0.0])  # REMARK_4X4 @ null == 0
        p = files["dir"] / "indefinite.json"
        entries = REMARK_4X4 - np.outer(null, null) / 14.0
        p.write_text(json.dumps({"n": 4, "entries": entries.tolist()}))
        code, _ = run(capsys, "gamma", str(p), "--functional", "zero",
                      "--effort", "thorough", "--restarts", "1")
        assert code == 0
        assert received and set(received) == {1}

    def test_oracle_starts_default_to_one_constant(self, files, capsys, monkeypatch):
        received = []
        oracle = cli.gm.numeric_gamma_plus_oracle

        def record(a, restarts, seed, warm=None):
            received.append(restarts)
            return oracle(a, restarts=1, seed=seed, warm=warm)

        monkeypatch.setattr(cli.gm, "numeric_gamma_plus_oracle", record)
        p = files["dir"] / "remark.json"
        p.write_text(json.dumps({"n": 4, "entries": REMARK_4X4.tolist()}))
        assert run(capsys, "decompose", str(p), "--method", "oracle")[0] == 0
        assert run(capsys, "gamma", str(p), "--functional", "plus",
                   "--effort", "thorough")[0] == 0
        assert received == [cli.gm.ORACLE_RESTARTS] * 2

    def test_plus_certified(self, files, capsys):
        code, out = run(capsys, "gamma", files["a"], "--functional", "plus")
        assert code == 0
        obj = json.loads(out)
        assert obj["certified"] is True
        assert obj["lower"] == pytest.approx(6.0)
        assert obj["upper"] == pytest.approx(6.0, abs=1e-6)
        assert "ldl" in obj["per_method"]

    def test_exact(self, files, capsys):
        code, out = run(capsys, "gamma", files["a"], "--functional", "exact")
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] == obj["upper"] == 6.0

    def test_plus_requires_psd(self, files, capsys):
        assert run(capsys, "gamma", files["flip"], "--functional", "plus")[0] == 3

    @pytest.mark.parametrize("functional, entries", [
        ("plus", [[1e300, 1e300], [1e300, 2e300]]),
        ("zero", [[0, 1e300], [1e300, 0]]),
    ])
    def test_overflowing_scale_is_an_input_error(self, files, capsys, functional, entries):
        p = files["dir"] / "huge.json"
        p.write_text(json.dumps({"n": 2, "entries": entries}))
        assert run(capsys, "gamma", str(p), "--functional", functional)[0] == 2

    @pytest.mark.parametrize("entries", [
        [[1, 1], [0, 1]],  # not Hermitian
        [[float("nan"), 0], [0, 1]],
        [[1, 0], [0, float("inf")]],
    ])
    def test_unusable_input_is_an_input_error(self, files, capsys, entries):
        p = files["dir"] / "bad.json"
        p.write_text(json.dumps({"n": 2, "entries": entries}))
        assert run(capsys, "gamma", str(p), "--functional", "plus")[0] == 2

    def test_tiny_scale_is_certified(self, files, capsys):
        # ||A||_1,1 = 5e-300: every cut is relative to A, so natural-order
        # LDL's exact family closes the bracket, as at unit scale.
        p = files["dir"] / "tiny.json"
        p.write_text(json.dumps({"n": 2, "entries": [[1e-300, 1e-300], [1e-300, 2e-300]]}))
        code, out = run(capsys, "gamma", str(p), "--functional", "plus")
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] == pytest.approx(5e-300, rel=1e-15)
        assert obj["upper"] == pytest.approx(5e-300, rel=1e-15)
        assert obj["certified"] is True

    @pytest.mark.parametrize("effort", ["fast", "thorough"])
    def test_ran_and_skipped_cover_the_strategies(self, files, capsys, effort):
        # A_2X2 is diagonally dominant and closes at once; the remark matrix
        # keeps a gap, so every strategy runs.
        p = files["dir"] / "remark.json"
        p.write_text(json.dumps({"n": 4, "entries": REMARK_4X4.tolist()}))
        for path, applicable, closes in ((files["a"], ["ldl", "dd", "greedy"], True),
                                         (str(p), ["ldl", "greedy"], False)):
            if effort == "thorough":
                applicable = applicable + ["oracle"]
            code, out = run(capsys, "gamma", path, "--functional", "plus",
                            "--effort", effort, "--restarts", "1")
            assert code == 0
            obj = json.loads(out)
            ran = [m for m in applicable if m in obj["per_method"]]
            assert set(obj["per_method"]) == set(ran)
            assert ran + obj["skipped"] == applicable
            assert bool(obj["skipped"]) == closes
        code, out = run(capsys, "gamma", files["flip"], "--functional", "zero")
        assert json.loads(out)["skipped"] == []


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["norms", "{a}", "--recon-tol", "1e-9"],
        ["decompose", "{a}", "--method", "ldl", "--recon-tol", "1e-9"],
        ["gamma", "{a}", "--functional", "plus", "--recon-tol", "1e-9"],
        ["reduce", "{dec}", "--recon-tol", "1e-9"],
        ["reduce", "{dec}", "--hermitian-tol", "1e-10"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, files, capsys, argv):
        dec = files["dir"] / "dec.json"
        dec.write_text(json.dumps({"method": "external", "cost": 2.0,
                                   "vectors": [[[1.0, 0], [0, 0]], [[0, 0], [1.0, 0]]]}))
        argv = [arg.format(a=files["a"], dec=dec) for arg in argv]
        assert run(capsys, *argv[:-2])[0] == 0
        assert run(capsys, *argv) == (2, "")

    @pytest.mark.parametrize("command", [["decompose", "--method", "ldl"],
                                         ["decompose", "--method", "greedy"],
                                         ["gamma", "--functional", "plus"]])
    def test_negative_seed_is_rejected(self, files, capsys, command):
        # LDL closes the 2x2 bracket at once; on the 4x4 Wishart greedy runs
        # too. Both are refused before any strategy runs, although no method
        # but the oracle reads the seed.
        rng = np.random.default_rng(8)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        wishart = files["dir"] / "wishart.json"
        wishart.write_text(json.dumps(
            {"n": 4, "entries": [[[z.real, z.imag] for z in row] for row in g @ g.conj().T]}))
        for path in (files["a"], str(wishart)):
            argv = [command[0], path, *command[1:], "--restarts", "2"]
            assert run(capsys, *argv, "--seed", "3")[0] == 0
            assert run(capsys, *argv, "--seed", "-3") == (2, "")

    def test_experiment_accepts_a_negative_seed(self, capsys):
        assert main(["experiment", "--dims", "2", "--realizations", "2", "--seed", "-3"]) == 0

    @pytest.mark.parametrize("error", [
        json.JSONDecodeError("bad", "{", 0), OverflowError("big"),
        EigenFailureError("lapack"), InsufficientDataError("few"),
        BudgetExceededError("n"), KeyError("k"), TypeError("t"),
    ])
    def test_input_errors_exit_2(self, files, capsys, monkeypatch, error):
        def fail(args):
            raise error

        monkeypatch.setattr(cli, "cmd_norms", fail)
        assert run(capsys, "norms", files["a"]) == (2, "")


    def test_shared_parser_still_parses_after_a_call(self, files, capsys):
        """The parser is built once; after a successful call a bad flag is
        still refused and another subcommand still parses."""
        assert run(capsys, "norms", files["a"])[0] == 0
        assert cli.build_parser() is cli.build_parser()
        assert run(capsys, "norms", files["a"], "--method", "ldl") == (2, "")
        code, out = run(capsys, "decompose", files["a"], "--method", "ldl")
        assert code == 0
        assert json.loads(out)["method"] == "ldl"


class TestCertify:
    def _decompose_to_file(self, files, capsys, name="dec.json"):
        _, out = run(capsys, "decompose", files["a"], "--method", "ldl")
        path = files["dir"] / name
        path.write_text(out)
        return str(path)

    def test_matching_pair(self, files, capsys):
        dec = self._decompose_to_file(files, capsys)
        code, out = run(capsys, "certify", files["a"], dec)
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_tampered_cost(self, files, capsys):
        dec = self._decompose_to_file(files, capsys)
        obj = json.loads(open(dec).read())
        obj["cost"] = obj["cost"] + 0.5
        path = files["dir"] / "tampered.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, "certify", files["a"], str(path))[0] == 5

    def test_tampered_cost_at_tiny_scale(self, files, capsys):
        # Costs match relative to the recomputed one: at 1e-11 scale a
        # declared cost twice the true one fails as it does at unit scale.
        p = files["dir"] / "tiny.json"
        p.write_text(json.dumps({"n": 2, "entries": [[2e-11, 1e-11], [1e-11, 2e-11]]}))
        _, out = run(capsys, "decompose", str(p), "--method", "ldl")
        obj = json.loads(out)
        dec = files["dir"] / "tiny_dec.json"
        for factor, code in ((1.0, 0), (2.0, 5)):
            dec.write_text(json.dumps({**obj, "cost": factor * obj["cost"]}))
            assert run(capsys, "certify", str(p), str(dec))[0] == code

    def test_dimension_mismatch(self, files, capsys):
        dec = self._decompose_to_file(files, capsys)
        obj = json.loads(open(dec).read())
        obj["vectors"] = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
        obj["cost"] = 1.0
        path = files["dir"] / "wrongdim.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, "certify", files["a"], str(path))[0] == 5

    def test_wrong_matrix(self, files, capsys):
        dec = self._decompose_to_file(files, capsys)
        code, _ = run(capsys, "certify", files["cplx"], dec)
        assert code == 5

    def test_zero_matrix_round_trip(self, files, capsys):
        # decompose writes the empty family for the zero matrix; it is an
        # exact certificate, and reduce passes it through unchanged.
        zero = files["dir"] / "zero.json"
        zero.write_text(json.dumps({"n": 2, "entries": [[0, 0], [0, 0]]}))
        code, out = run(capsys, "decompose", str(zero), "--method", "ldl")
        assert code == 0
        assert json.loads(out)["vectors"] == []
        dec = files["dir"] / "zero_dec.json"
        dec.write_text(out)
        code, out = run(capsys, "reduce", str(dec))
        assert code == 0
        assert json.loads(out) == {"method": "ldl", "cost": 0.0, "vectors": []}
        reduced = files["dir"] / "zero_reduced.json"
        reduced.write_text(out)
        for family in (dec, reduced):
            code, out = run(capsys, "certify", str(zero), str(family))
            assert code == 0
            assert json.loads(out)["pass"] is True
            code, out = run(capsys, "certify", files["a"], str(family))
            assert code == 5

    @pytest.mark.parametrize("flag", ["--recon-tol", "--hermitian-tol"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, files, capsys, flag,
                                                   value):
        # The one-vector family [sqrt 2, sqrt 2] misses [[2, 1], [1, 2]] by
        # 1.0 off the diagonal, and nh.json is not Hermitian: an infinite
        # tolerance would pass both (and write "residual_tol": Infinity,
        # which is not JSON).
        bad = files["dir"] / "bad_dec.json"
        bad.write_text(json.dumps({"method": "external", "cost": 8.0,
                                   "vectors": [[[2 ** 0.5, 0], [2 ** 0.5, 0]]]}))
        nh = files["dir"] / "nh.json"
        nh.write_text(json.dumps({"n": 2, "entries": [[2, 1], [0, 2]]}))
        target = files["a"] if flag == "--recon-tol" else str(nh)
        code, out = run(capsys, "certify", target, str(bad), flag, value)
        assert code == 2
        assert out == ""


class TestReduce:
    def test_overlong_reduces(self, files, capsys, tmp_path):
        # 6 rank-one terms of I/2-ish built from duplicated basis directions
        vectors = [[[0.5, 0], [0, 0]], [[0, 0.5], [0, 0]], [[-0.5, 0], [0, 0]],
                   [[0, 0], [0.5, 0]], [[0, 0], [0, 0.5]], [[0, 0], [-0.5, 0]]]
        cost = sum(0.25 for _ in vectors)
        path = tmp_path / "fat.json"
        path.write_text(json.dumps({"method": "external", "cost": cost,
                                    "vectors": vectors}))
        code, out = run(capsys, "reduce", str(path))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["vectors"]) <= 5
        assert obj["cost"] == pytest.approx(cost, abs=1e-9)

    def test_short_input_unchanged(self, files, capsys, tmp_path):
        vectors = [[[1.0, 0], [0, 0]], [[0, 0], [1.0, 0]]]
        path = tmp_path / "slim.json"
        path.write_text(json.dumps({"method": "external", "cost": 2.0,
                                    "vectors": vectors}))
        code, out = run(capsys, "reduce", str(path))
        assert code == 0
        assert len(json.loads(out)["vectors"]) == 2

    def test_inconsistent_cost_rejected(self, files, capsys, tmp_path):
        vectors = [[[1.0, 0], [0, 0]]]
        path = tmp_path / "liar.json"
        path.write_text(json.dumps({"method": "external", "cost": 9.0,
                                    "vectors": vectors}))
        assert run(capsys, "reduce", str(path))[0] == 5

    def test_null_space_failure_exits_2(self, capsys, tmp_path, monkeypatch):
        # The solve's residual check raises NumericalRankFailureError: an
        # input problem, so exit 2 with nothing on stdout.
        from test_decompose import _svd_without_null_vector

        monkeypatch.setattr(np.linalg, "svd", _svd_without_null_vector)
        vectors = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]] * 3
        path = tmp_path / "fat.json"
        path.write_text(json.dumps({"method": "external", "cost": 1.5,
                                    "vectors": vectors}))
        assert run(capsys, "reduce", str(path)) == (2, "")

    def test_nan_cost_rejected(self, capsys, tmp_path):
        # NaN compares false with everything, so it must fail the cost check.
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"method": "external", "cost": float("nan"),
                                    "vectors": [[[1.0, 0], [0, 0]]]}))
        assert run(capsys, "reduce", str(path)) == (5, "")


class TestExperiment:
    def test_f_ldl_dim2_is_one(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, out = run(capsys, "experiment", "--dims", "2", "--realizations", "30",
                        "--methods", "ldl", "--out", str(out_path))
        assert code == 0
        assert out.startswith("sqrt_fit c=")
        text = out_path.read_text()
        summary = [ln for ln in text.splitlines() if ln.startswith("2,") and ln.count(",") == 3]
        f_ldl = float(summary[0].split(",")[1])
        assert f_ldl == pytest.approx(1.0, abs=1e-9)

    def test_repeat_runs_identical(self, capsys, tmp_path):
        args = ("experiment", "--dims", "2,3", "--realizations", "3",
                "--methods", "ldl,eigen", "--seed", "11")
        p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
        assert run(capsys, *args, "--out", str(p1))[0] == 0
        assert run(capsys, *args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_realizations_rejected(self, capsys):
        assert main(["experiment", "--dims", "2", "--realizations", "0"]) == 2

    def test_bad_dims_rejected(self, capsys):
        assert main(["experiment", "--dims", "1", "--realizations", "2"]) == 2
        assert main(["experiment", "--dims", "", "--realizations", "2"]) == 2


class TestThinAdapter:
    def test_cli_matches_library(self, files, capsys):
        from l1rankone import gamma as gm, jsonio
        code, out = run(capsys, "gamma", files["a"], "--functional", "plus",
                        "--effort", "fast", "--seed", "0")
        assert code == 0
        a = jsonio.matrix_from_obj(A_2X2)
        lib = jsonio.dumps(jsonio.report_to_obj(gm.gamma_plus_bounds(a, "fast", seed=0)))
        assert out == lib


def _vectors_to_obj_reference(vectors) -> list:
    """The per-entry encoder that jsonio.vectors_to_obj replaced."""
    return [[[float(z.real), float(z.imag)] for z in np.asarray(v)] for v in vectors]


class TestJsonFormats:
    def test_vectors_to_obj_matches_per_entry_encoder(self):
        from l1rankone import decompose as dc, jsonio
        tiny = np.nextafter(0.0, 1.0)  # the least subnormal
        family = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny)],
                           [complex(-1e-310, 2.5e-308), complex(-1e300, 1.0 / 3.0), 1 + 2j]])
        frozen = dc.ldl_decompose(jsonio.matrix_from_obj(A_2X2)).vectors
        for vectors in (family, family[::-1], family[:0], np.empty((0, 3), dtype=complex),
                        frozen, list(family)):
            got, want = jsonio.vectors_to_obj(vectors), _vectors_to_obj_reference(vectors)
            assert got == want
            # Equal lists can differ in the sign of a zero; their JSON cannot.
            assert json.dumps(got) == json.dumps(want)
        assert json.dumps(jsonio.vectors_to_obj(family[:1])) == \
            "[[[-0.0, 0.0], [0.0, -0.0], [5e-324, -5e-324]]]"

    def test_matrix_from_obj(self):
        from l1rankone import jsonio
        obj = {"n": 2, "entries": [[2, [1.5, -0.25]], [[1.5, 0.25], 3.0]]}
        a = jsonio.matrix_from_obj(obj)
        np.testing.assert_array_equal(a.entries, [[2, 1.5 - 0.25j], [1.5 + 0.25j, 3]])

    def test_decomposition_round_trip(self):
        from l1rankone import decompose as dc, jsonio
        a = jsonio.matrix_from_obj(A_2X2)
        dec = dc.ldl_decompose(a)
        obj = jsonio.decomposition_to_obj(dec)
        method, cost, vectors = jsonio.decomposition_from_obj(obj)
        assert method == "ldl"
        assert cost == dec.cost
        for v, w in zip(vectors, dec.vectors):
            np.testing.assert_array_equal(v, w)

    def test_real_entries_accepted(self):
        from l1rankone import jsonio
        a = jsonio.matrix_from_obj({"n": 2, "entries": [[1, 0.5], [0.5, 1]]})
        assert a.entries[0, 1] == 0.5 + 0j

    def test_bad_entry_rejected(self):
        from l1rankone import jsonio
        with pytest.raises(ValueError):
            jsonio.matrix_from_obj({"n": 1, "entries": [["x"]]})
        with pytest.raises(ValueError):
            jsonio.matrix_from_obj({"n": 2, "entries": [[1, 2]]})

    @pytest.mark.parametrize("command, obj", [
        ("norms", {"n": 1, "entries": [[True]]}),
        ("norms", {"n": 1, "entries": [[[1, False]]]}),
        ("norms", {"n": True, "entries": [[1]]}),
        ("reduce", {"method": "external", "cost": True, "vectors": [[1.0]]}),
        ("reduce", {"method": "external", "cost": 1.0, "vectors": [[True]]}),
    ])
    def test_booleans_are_not_numbers(self, capsys, tmp_path, command, obj):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(obj))
        assert run(capsys, command, str(path)) == (2, "")


# Every strategy of a thorough bracket runs on this matrix, the oracle included.
ORACLE_3X3 = {"n": 3, "entries": [[4, [1, 1], -1], [[1, -1], 3, [0, 2]], [-1, [0, -2], 5]]}

NO_SCIPY = """
import contextlib, io, json, sys
import l1rankone
from l1rankone import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["gamma", sys.argv[1], "--functional", "plus", "--effort", "thorough",
                     "--restarts", "2"])
report = json.loads(out.getvalue())
print(json.dumps({"code": code, "methods": sorted(report["per_method"]),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_thorough_gamma_never_imports_scipy(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(ORACLE_3X3))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and "oracle" in result["methods"]
    assert result["scipy"] == []
