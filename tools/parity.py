#!/usr/bin/env python3
"""Output parity hashes: one sha256 prefix per seeded output stream.

Run from the repository root:

    python3 tools/parity.py                       # this checkout
    python3 tools/parity.py --repo OTHER_CHECKOUT # another commit's library
    python3 tools/parity.py --drop-method eigen   # forget one strategy's entries

Two checkouts give equal lines exactly when their outputs are equal. Inputs
always come from this checkout's perfbench/workloads.py (read, never edited);
the library comes from --repo's src/. Lines:

    bracket-core    seeds 1, 2, 3001, ops 0-349: lower, upper, certified,
                    winning method and the certificate vector bytes
    bracket-methods the same records' per_method costs and skipped names
    thorough        `gamma --effort thorough` exit code and stdout,
                    seeds 1 and 2, ops 0-119
    experiment      the CSV of each EXPERIMENTS command

--drop-method NAME removes NAME from per_method and skipped before hashing,
so an output that differs only by a retired strategy hashes the same.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BRACKET_SEEDS = (1, 2, 3001)
BRACKET_OPS = 350
THOROUGH_SEEDS = (1, 2)
THOROUGH_OPS = 120
EXPERIMENTS = (
    ("--dims", "8,16,32,64", "--realizations", "30", "--seed", "0"),
    ("--dims", "3,4,6,8", "--realizations", "10", "--seed", "0",
     "--methods", "ldl,eigen,greedy"),
)


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def bracket_records(wl, seed: int, drop: str | None):
    """(core bytes, per_method and skipped bytes) of each op."""
    for index in range(BRACKET_OPS):
        inp = wl.make_input("bracket", seed, index)
        report = wl.call("bracket", inp)
        best = report.best
        signed = hasattr(best, "positive")
        vectors = (*best.positive, *best.negative) if signed else best.vectors
        winner = "signed" if signed else best.method
        core = f"{index} {report.lower!r} {report.upper!r} {report.certified} {winner}\n"
        costs = {k: repr(v) for k, v in sorted(report.per_method.items()) if k != drop}
        skipped = [k for k in report.skipped if k != drop]
        yield (core.encode() + b"".join(v.tobytes() for v in vectors),
               json.dumps([index, costs, skipped]).encode())


def thorough_records(wl, seed: int, drop: str | None, workdir: str):
    for index in range(THOROUGH_OPS):
        inp = wl.write_matrix(wl.make_input("thorough", seed, index), workdir)
        code, stdout, _ = wl.call("thorough", inp)
        if drop is not None and code == 0:
            obj = json.loads(stdout)
            obj["per_method"].pop(drop, None)
            obj["skipped"] = [k for k in obj["skipped"] if k != drop]
            stdout = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
        yield f"{index} {code}\n".encode() + stdout


def experiment_csv(cli, args, workdir: str) -> bytes:
    path = os.path.join(workdir, "experiment.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["experiment", *args, "--out", path])
    if code != 0:
        raise SystemExit(f"error: experiment {' '.join(args)} exited {code}")
    with open(path, "rb") as fh:
        return fh.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(ROOT),
                        help="checkout whose src/ supplies the library")
    parser.add_argument("--drop-method", default=None,
                        help="strategy name left out of per_method and skipped")
    args = parser.parse_args(argv)
    src = Path(args.repo).resolve() / "src"
    if not (src / "l1rankone" / "__init__.py").is_file():
        raise SystemExit(f"error: no l1rankone sources under {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads as wl
    from l1rankone import cli

    drop = args.drop_method
    for seed in BRACKET_SEEDS:
        records = list(bracket_records(wl, seed, drop))
        print(f"bracket-core    seed={seed} {digest(core for core, _ in records)}")
        print(f"bracket-methods seed={seed} {digest(m for _, m in records)}")
    with tempfile.TemporaryDirectory() as workdir:
        for seed in THOROUGH_SEEDS:
            print(f"thorough        seed={seed} "
                  f"{digest(thorough_records(wl, seed, drop, workdir))}")
        for exp in EXPERIMENTS:
            print(f"experiment      {' '.join(exp)} "
                  f"{digest([experiment_csv(cli, exp, workdir)])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
