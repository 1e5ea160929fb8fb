#!/usr/bin/env python3
"""Output parity hashes: one sha256 prefix per seeded output stream.

Run from the repository root:

    python3 tools/parity.py                       # this checkout
    python3 tools/parity.py --repo OTHER_CHECKOUT # another commit's library
    python3 tools/parity.py --drop-method eigen   # forget one strategy's entries
    python3 tools/parity.py --compare OTHER_CHECKOUT  # per-kind upper moves

Two checkouts give equal lines exactly when their outputs are equal. Inputs
always come from this checkout's perfbench/workloads.py (read, never edited);
the library comes from --repo's src/. Lines:

    bracket-core    seeds 1, 2, 3001, ops 0-349: lower, upper, certified,
                    winning method and the certificate vector bytes
    bracket-methods the same records' per_method costs and skipped names
    greedy          greedy_decompose's cost and vector bytes on every PSD
                    input of the same ops, also where the bracket closes
                    before greedy runs
    thorough        `gamma --effort thorough` exit code and stdout,
                    seeds 1 and 2, ops 0-119 (perfbench's --restarts 1)
    thorough-restarts  the same for seed 1, ops 0-20, at the library's
                    default gamma.ORACLE_RESTARTS (32), so that the oracle
                    searches many starts at once on its default path
    decompose       `decompose` exit code and stdout (cost, vectors and the
                    printed residual): --method ldl, eigen and greedy on the
                    PSD inputs of bracket seed 1, ops 0-59, dd on that
                    range's dd ops, and oracle at its default starts and
                    seed on thorough seed 1, ops 0-13
    decompose-notpsd  `decompose` exit code (3: not PSD, decided by
                    is_psd alone) and stdout: --method ldl, greedy and
                    eigen on the indefinite inputs of the same range
    reduce          `reduce` exit code and stdout on 40 over-long families
                    made here: family s (s = 0..39) has n = 2 + s % 4 and
                    n^2 + 4 + 3s complex Gaussian vectors of default_rng(s)
    gamma-zero      `gamma --functional zero` exit code and stdout on the
                    indefinite inputs of bracket seeds 1 and 2, ops 0-199
    experiment      the CSV of each EXPERIMENTS command
    ensemble-vectors  cost and certificate vector bytes of ldl_decompose and
                    eigen_decompose on random_psd(n, seed), n in 8, 16, 32,
                    64 and seeds 0-29 (the experiment CSV holds only ratios)
    scaled          bracket-scaled seed 1, ops 0-599 (every tenth op scaled
                    by 10^k, k in perfbench's SCALE_EXPONENTS): each op's
                    lower, upper and certified, or the type of its error

--drop-method NAME removes NAME from per_method and skipped before hashing,
so an output that differs only by a retired strategy hashes the same.

--compare OTHER_CHECKOUT runs the bracket and both thorough streams on both
libraries (--repo's and OTHER's) and prints, per input kind, how many uppers
are better (lower), worse or equal than OTHER's, the largest relative move,
the largest rise, the certified flags that flipped, the winning strategies
that changed and the ops whose per_method costs moved (so a strategy that
never wins still shows), then each stream's mean upper / lower - 1 and, for
each library, the bracket stream's eigensolves (hermitian.eigh calls) per
input kind and in total, the wall seconds of each thorough stream's CLI
calls (one run, not a benchmark) and the oracle's work on that stream: the
batched gamma._oracle_objective calls, the rows they evaluate and the
gamma._line_search calls (exact counts, in no hash line). It then prints the
greedy stream the same way, per input kind, lists every op whose greedy
family moved, lists every data row of each EXPERIMENTS CSV whose ratio
moved, prints per (n, method) of the ensemble-vectors stream how many costs
moved and the largest relative move, prints for each library how many
fast-bracket uppers move under a permutation of the input (the `permuted`
line, below) and the wall seconds of the reduce stream, prints per scale
exponent of the `scaled` stream each library's failures (errors by type and
failed perfbench checks) and the ops whose upper / 10^k moves beyond 1e-12
from the upper of the same input unscaled, and ends with the line total of
src/l1rankone/*.py in both checkouts (not in any hash line, so equal outputs
still hash equal).

The `permuted` line takes the wishart and half_rank bracket ops with n >= 7
of the bracket seeds, ops 0-349, and runs gamma_plus_bounds on P A P* for P
the reversal and the rolls by 1 and by 3. It counts the ops whose upper
moves beyond 1e-12 relative under any of them, and gives the largest move.
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
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

BRACKET_SEEDS = (1, 2, 3001)
BRACKET_OPS = 350
# (stream, seeds, ops, oracle starts: perfbench's own or the library's default)
THOROUGH_STREAMS = (("thorough", (1, 2), 120, "perfbench"),
                    ("thorough-restarts", (1,), 21, "default"))
DECOMPOSE_OPS = 60  # bracket seed 1
ORACLE_OPS = 14     # thorough seed 1
REDUCE_FAMILIES = 40
GAMMA_ZERO_SEEDS, GAMMA_ZERO_OPS = (1, 2), 200  # bracket
ENSEMBLE_DIMS = (8, 16, 32, 64)
ENSEMBLE_SEEDS = range(30)
SCALED_SEED, SCALED_OPS = 1, 600  # bracket-scaled
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


def greedy_records(wl, seed: int):
    """(index, kind, greedy_decompose result) of each PSD bracket op."""
    for index in range(BRACKET_OPS):
        inp = wl.make_input("bracket", seed, index)
        if inp.kind != "indefinite":
            yield index, inp.kind, wl.lr.greedy_decompose(wl.lr.ingest_matrix(inp.matrix))


def greedy_bytes(index: int, dec) -> bytes:
    return f"{index} {dec.cost!r}\n".encode() + b"".join(v.tobytes() for v in dec.vectors)


def thorough_call(wl, inp, starts: str):
    """perfbench's thorough op on inp, with perfbench's own THOROUGH_RESTARTS
    oracle starts, or with the library's gamma.ORACLE_RESTARTS when starts
    is "default" (set back afterwards)."""
    own = wl.THOROUGH_RESTARTS
    if starts == "default":
        wl.THOROUGH_RESTARTS = wl.lr.gamma.ORACLE_RESTARTS
    try:
        return wl.call("thorough", inp)
    finally:
        wl.THOROUGH_RESTARTS = own


def thorough_records(wl, seed: int, ops: int, starts: str,
                     drop: str | None, workdir: str):
    for index in range(ops):
        inp = wl.write_matrix(wl.make_input("thorough", seed, index), workdir)
        code, stdout, _ = thorough_call(wl, inp, starts)
        if drop is not None and code == 0:
            obj = json.loads(stdout)
            obj["per_method"].pop(drop, None)
            obj["skipped"] = [k for k in obj["skipped"] if k != drop]
            stdout = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
        yield f"{index} {code}\n".encode() + stdout


def cli_run(cli, head: str, *argv: str) -> bytes:
    """The CLI run in process on argv: head, the exit code, then stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return f"{head} {code}\n".encode() + out.getvalue().encode()


def decompose_run(cli, inp, method: str) -> bytes:
    """`decompose --method METHOD` on inp: its index, method, exit code, stdout."""
    return cli_run(cli, f"{inp.index} {method}", "decompose", inp.path, "--method", method)


def decompose_records(wl, cli, workdir: str):
    for index in range(DECOMPOSE_OPS):
        inp = wl.make_input("bracket", 1, index)
        if inp.kind != "indefinite":
            inp = wl.write_matrix(inp, workdir)
            for method in ("ldl", "eigen", "greedy", *(("dd",) if inp.kind == "dd" else ())):
                yield decompose_run(cli, inp, method)
    for index in range(ORACLE_OPS):
        yield decompose_run(cli, wl.write_matrix(wl.make_input("thorough", 1, index), workdir),
                            "oracle")


def decompose_notpsd_records(wl, cli, workdir: str):
    for index in range(DECOMPOSE_OPS):
        inp = wl.make_input("bracket", 1, index)
        if inp.kind == "indefinite":
            inp = wl.write_matrix(inp, workdir)
            for method in ("ldl", "greedy", "eigen"):
                yield decompose_run(cli, inp, method)


def reduce_records(cli, workdir: str):
    path = os.path.join(workdir, "family.json")
    for s in range(REDUCE_FAMILIES):
        rng = np.random.default_rng(s)
        n = 2 + s % 4
        shape = (n * n + 4 + 3 * s, n)
        family = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"method": "external",
                       "cost": float(sum(float(np.abs(v).sum()) ** 2 for v in family)),
                       "vectors": [[[z.real, z.imag] for z in v] for v in family.tolist()]}, fh)
        yield cli_run(cli, str(s), "reduce", path)


def reduce_seconds(cli, workdir: str) -> float:
    """Wall seconds of the reduce stream (one run, not a benchmark)."""
    begin = time.perf_counter()
    for _ in reduce_records(cli, workdir):
        pass
    return time.perf_counter() - begin


def compare_reduce(this: float, other: float) -> None:
    print(f"reduce            wall s: this {this:.2f}, other {other:.2f}")


def gamma_zero_records(wl, cli, workdir: str):
    for seed in GAMMA_ZERO_SEEDS:
        for index in range(GAMMA_ZERO_OPS):
            inp = wl.make_input("bracket", seed, index)
            if inp.kind == "indefinite":
                yield cli_run(cli, f"{seed} {index}", "gamma",
                              wl.write_matrix(inp, workdir).path, "--functional", "zero")


def ensemble_decompositions(lr):
    """(n, seed, decomposition) of the ensemble-vectors stream, in order."""
    for n in ENSEMBLE_DIMS:
        for seed in ENSEMBLE_SEEDS:
            a = lr.random_psd(n, seed)
            for dec in (lr.ldl_decompose(a), lr.eigen_decompose(a)):
                yield n, seed, dec


def ensemble_vector_records(lr):
    for n, seed, dec in ensemble_decompositions(lr):
        head = f"{n} {seed} {dec.method} {dec.cost!r}\n".encode()
        yield head + b"".join(v.tobytes() for v in dec.vectors)


def ensemble_costs(lr) -> dict:
    """(n, method, seed) -> cost of the ensemble-vectors stream."""
    return {(n, dec.method, seed): dec.cost for n, seed, dec in ensemble_decompositions(lr)}


def compare_ensemble(this: dict, other: dict) -> None:
    """Print, per (n, method) of the ensemble-vectors stream, how many costs
    in `this` differ from `other` and the largest relative move."""
    rows = {}
    for key, new in this.items():
        row = rows.setdefault(key[:2], [0, 0.0])
        row[0] += new != other[key]
        row[1] = max(row[1], new / other[key] - 1.0, key=abs)
    for (n, method), (moved, largest) in rows.items():
        print(f"ensemble moved    N={n} {method}: {moved} of {len(ENSEMBLE_SEEDS)} costs, "
              f"largest {largest:+.3e}")


def experiment_csv(cli, args, workdir: str) -> bytes:
    path = os.path.join(workdir, "experiment.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["experiment", *args, "--out", path])
    if code != 0:
        raise SystemExit(f"error: experiment {' '.join(args)} exited {code}")
    with open(path, "rb") as fh:
        return fh.read()


def experiment_ratios(cli, workdir: str) -> dict:
    """(EXPERIMENTS args, N, method, realization, seed) -> ratio of every
    data row of each experiment CSV."""
    out = {}
    for exp in EXPERIMENTS:
        text = experiment_csv(cli, exp, workdir).decode()
        for line in text.split("SUMMARY")[0].splitlines()[1:]:
            dim, method, realization, seed, ratio = line.split(",")
            out[" ".join(exp), int(dim), method, int(realization), int(seed)] = float(ratio)
    return out


def compare_experiments(this: dict, other: dict) -> None:
    """Print every experiment row whose ratio in `this` differs from `other`."""
    moved = [f"experiment moved  {key[0]}: N={key[1]} {key[2]} realization={key[3]} "
             f"seed={key[4]}: {other[key]!r} -> {new!r} ({new / other[key] - 1.0:+.3e})"
             for key, new in this.items() if new != other[key]]
    print("\n".join(moved) if moved else "experiment        no ratio moved")


def scaled_call(wl, index: int):
    """(input, report or the error raised) of op `index` of the scaled stream."""
    inp = wl.make_input(wl.SCALED, SCALED_SEED, index)
    try:
        return inp, wl.call(wl.SCALED, inp)
    except Exception as exc:  # an error is an outcome of the stream
        return inp, exc


def scaled_records(wl):
    for index in range(SCALED_OPS):
        _, result = scaled_call(wl, index)
        if isinstance(result, Exception):
            yield f"{index} {type(result).__name__}\n".encode()
        else:
            yield f"{index} {result.lower!r} {result.upper!r} {result.certified}\n".encode()


def unscaled_upper(wl, index: int) -> float:
    """The upper of op `index` of the scaled stream with every scale exponent
    set to 0 (set back afterwards): the same matrix times 10^0, exactly."""
    exponents = wl.SCALE_EXPONENTS
    wl.SCALE_EXPONENTS = (0,) * len(exponents)
    try:
        return wl.call(wl.SCALED, wl.make_input(wl.SCALED, SCALED_SEED, index)).upper
    finally:
        wl.SCALE_EXPONENTS = exponents


def scaled_rows(wl) -> dict:
    """exponent -> (ops, {failure: count}, moved ops, largest move) over the
    scaled ops of the scaled stream; a move is upper / 10^k over the
    unscaled upper, less 1."""
    rows = {}
    for index in range(9, SCALED_OPS, 10):
        inp, result = scaled_call(wl, index)
        exponent = wl.SCALE_EXPONENTS[(index // 10) % len(wl.SCALE_EXPONENTS)]
        ops, failures, moved, largest = rows.get(exponent, (0, {}, 0, 0.0))
        if isinstance(result, Exception):
            reason = type(result).__name__
        else:
            reason = "" if wl.check(wl.SCALED, inp, result).ok else "failed check"
            move = result.upper / 10.0 ** exponent / unscaled_upper(wl, index) - 1.0
            moved += abs(move) > 1e-12
            largest = max(largest, move, key=abs)
        if reason:
            failures[reason] = failures.get(reason, 0) + 1
        rows[exponent] = (ops + 1, failures, moved, largest)
    return rows


def compare_scaled(this: dict, other: dict) -> None:
    """Print each library's scaled_rows, per scale exponent."""
    for exponent in this:
        for name, rows in (("this", this), ("other", other)):
            ops, failures, moved, largest = rows[exponent]
            failed = ", ".join(f"{count} {reason}" for reason, count in failures.items())
            print(f"scaled            1e{exponent:<+4d} {name:5}: {ops} ops, failed: "
                  f"{failed or 'none'}; upper/c moved beyond 1e-12: {moved}, "
                  f"largest {largest:+.3%}")


def load(src: Path):
    """perfbench's workloads module and the CLI, imported against src's library."""
    for name in [k for k in sys.modules
                 if k in ("l1rankone", "workloads") or k.startswith("l1rankone.")]:
        del sys.modules[name]
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    try:
        import workloads as wl
        from l1rankone import cli
    finally:
        del sys.path[:2]
    return wl, cli


@contextlib.contextmanager
def oracle_work(gamma):
    """Count, while the block runs, the batched gamma._oracle_objective
    calls, the rows they evaluate and the gamma._line_search calls, by
    rebinding the two module names (set back afterwards). Yields the
    counts [calls, rows, line searches]."""
    counts = [0, 0, 0]
    objective, line_search = gamma._oracle_objective, gamma._line_search

    def counted_objective(theta, *args):
        counts[0] += 1
        counts[1] += len(theta)
        return objective(theta, *args)

    def counted_line_search(*args):
        counts[2] += 1
        return line_search(*args)

    gamma._oracle_objective, gamma._line_search = counted_objective, counted_line_search
    try:
        yield counts
    finally:
        gamma._oracle_objective, gamma._line_search = objective, line_search


@contextlib.contextmanager
def eigensolves(hermitian):
    """Count, while the block runs, the hermitian.eigh calls (every cached
    eigensystem is solved by one) by rebinding the module name (set back
    afterwards). Yields the count [calls]."""
    counts = [0]
    solve = hermitian.eigh

    def counted_eigh(a):
        counts[0] += 1
        return solve(a)

    hermitian.eigh = counted_eigh
    try:
        yield counts
    finally:
        hermitian.eigh = solve


def outcomes(wl, workdir: str) -> tuple[dict, dict, dict, dict]:
    """(records, seconds, work, eigs): records maps (stream, seed, index)
    to (kind, checked Outcome, per_method costs) of every bracket and
    thorough op (a bracket op's costs come from its report, a thorough op's
    from its stdout); seconds maps each thorough stream to the wall time of
    its calls, checks left out, work to its oracle_work counts, and eigs
    each bracket input kind to the eigensolves of its calls, checks left
    out."""
    out, seconds, work, eigs = {}, {}, {}, {}
    for seed in BRACKET_SEEDS:
        for index in range(BRACKET_OPS):
            inp = wl.make_input("bracket", seed, index)
            with eigensolves(wl.lr.hermitian) as calls:
                result = wl.call("bracket", inp)
            eigs[inp.kind] = eigs.get(inp.kind, 0) + calls[0]
            out["bracket", seed, index] = (inp.kind, wl.check("bracket", inp, result),
                                           result.per_method)
    for stream, seeds, ops, starts in THOROUGH_STREAMS:
        seconds[stream] = 0.0
        with oracle_work(wl.lr.gamma) as work[stream]:
            for seed in seeds:
                for index in range(ops):
                    inp = wl.write_matrix(wl.make_input("thorough", seed, index), workdir)
                    begin = time.perf_counter()
                    result = thorough_call(wl, inp, starts)
                    seconds[stream] += time.perf_counter() - begin
                    outcome = wl.check("thorough", inp, result)
                    costs = json.loads(outcome.stdout)["per_method"] if outcome.ok else None
                    out[stream, seed, index] = (inp.kind, outcome, costs)
    return out, seconds, work, eigs


def greedy_outcomes(wl) -> dict:
    """(seed, index) -> (kind, cost, hashed bytes) of the greedy stream."""
    return {(seed, index): (kind, dec.cost, greedy_bytes(index, dec))
            for seed in BRACKET_SEEDS for index, kind, dec in greedy_records(wl, seed)}


def compare_greedy(this: dict, other: dict) -> None:
    """Print per-kind greedy cost moves of `this` against `other`, then
    every op whose cost or vector bytes differ."""
    rows, moved = {}, []
    for key, (kind, new, new_bytes) in this.items():
        _, old, old_bytes = other[key]
        move = new / old - 1.0
        row = rows.setdefault(kind, [0, 0, 0, 0.0])
        row[0 if move < 0.0 else 1 if move > 0.0 else 2] += 1
        row[3] = max(row[3], move, key=abs)
        if new_bytes != old_bytes:
            moved.append(f"greedy moved      seed={key[0]} op={key[1]} {kind}: "
                         f"{old!r} -> {new!r} ({move:+.3e})")
    for kind, (better, worse, equal, largest) in rows.items():
        print(f"greedy            {kind:13} better {better:3} worse {worse:3} equal {equal:3} "
              f"largest move {largest:+.3%}")
    print("\n".join(moved) if moved else "greedy            no family moved")


def permuted_moves(wl) -> tuple[list, int, float]:
    """(moved ops, ops scanned, largest relative move) of the `permuted` line."""
    moved, scanned, largest = [], 0, 0.0
    for seed in BRACKET_SEEDS:
        for index in range(BRACKET_OPS):
            inp = wl.make_input("bracket", seed, index)
            n = inp.matrix.shape[0]
            if inp.kind not in ("wishart", "half_rank") or n < 7:
                continue
            scanned += 1
            upper = wl.call("bracket", inp).upper
            moves = []
            for perm in (np.arange(n)[::-1], np.roll(np.arange(n), 1), np.roll(np.arange(n), 3)):
                turned = wl.lr.ingest_matrix(inp.matrix[np.ix_(perm, perm)])
                moves.append(wl.lr.gamma_plus_bounds(turned).upper / upper - 1.0)
            move = max(moves, key=abs)
            largest = max(largest, move, key=abs)
            if abs(move) > 1e-12:
                moved.append(f"seed={seed} op={index}")
    return moved, scanned, largest


def compare_permuted(this: tuple, other: tuple) -> None:
    """Print the `permuted` line of both libraries."""
    for name, (moved, scanned, largest) in (("this", this), ("other", other)):
        print(f"permuted          {name:5}: {len(moved)} of {scanned} uppers move beyond "
              f"1e-12 under reversal and rolls by 1 and 3, largest {largest:+.3%}"
              + (f" ({', '.join(moved)})" if moved else ""))


def compare(this: tuple, other: tuple) -> None:
    """Print per-kind upper moves of `this` against `other` (each an
    outcomes() tuple), then each library's bracket eigensolves, thorough
    stream times and oracle work."""
    (this, this_seconds, this_work, this_eigs), (other, other_seconds, other_work,
                                                 other_eigs) = this, other
    rows, excess = {}, {}
    for key, (kind, new, new_costs) in this.items():
        _, old, old_costs = other[key]
        if not (new.ok and old.ok):
            raise SystemExit(f"error: {key} failed: {new.reason or old.reason}")
        move = (1.0 + new.excess) / (1.0 + old.excess) - 1.0
        row = rows.setdefault((key[0], kind), [0, 0, 0, 0.0, 0.0, 0, 0, 0])
        row[0 if move < 0.0 else 1 if move > 0.0 else 2] += 1
        row[3] = max(row[3], move, key=abs)
        row[4] = max(row[4], move)
        row[5] += new.certified != old.certified
        row[6] += new.winner != old.winner
        row[7] += new_costs != old_costs
        excess.setdefault(key[0], []).append((old.excess, new.excess))
    for (stream, kind), (better, worse, equal, largest, rise, flips, winners,
                         costs) in rows.items():
        print(f"{stream:17} {kind:13} better {better:3} worse {worse:3} equal {equal:3} "
              f"largest move {largest:+.3%} rise {rise:+.3%} certified flips {flips} "
              f"winner changes {winners} per_method moved {costs}")
    for stream, pairs in excess.items():
        old, new = (sum(p[i] for p in pairs) / len(pairs) for i in (0, 1))
        print(f"{stream:17} mean upper/lower - 1 over {len(pairs)} ops: {old:.5f} -> {new:.5f}")
    for name, eigs in (("this", this_eigs), ("other", other_eigs)):
        kinds = ", ".join(f"{kind} {calls:,}" for kind, calls in eigs.items())
        print(f"bracket           eigensolves {name:5}: {kinds}; "
              f"total {sum(eigs.values()):,}")
    for stream, new in this_seconds.items():
        print(f"{stream:17} wall s: this {new:.2f}, other {other_seconds[stream]:.2f}")
    for stream in this_work:
        for name, (calls, rows, searches) in (("this", this_work[stream]),
                                              ("other", other_work[stream])):
            print(f"{stream:17} oracle work {name:5}: {calls:,} objective calls, "
                  f"{rows:,} rows, {searches:,} line searches")


def src_lines(src: Path) -> int:
    """Lines of src/l1rankone/*.py, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "l1rankone").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(ROOT),
                        help="checkout whose src/ supplies the library")
    parser.add_argument("--drop-method", default=None,
                        help="strategy name left out of per_method and skipped")
    parser.add_argument("--compare", default=None, metavar="OTHER_CHECKOUT",
                        help="print per-kind upper moves against OTHER_CHECKOUT's library")
    args = parser.parse_args(argv)
    srcs = [Path(repo).resolve() / "src" for repo in (args.repo, args.compare) if repo]
    for src in srcs:
        if not (src / "l1rankone" / "__init__.py").is_file():
            raise SystemExit(f"error: no l1rankone sources under {src}")
    if args.compare:
        with tempfile.TemporaryDirectory() as workdir:
            this, other = ((outcomes(wl, workdir), greedy_outcomes(wl),
                            experiment_ratios(cli, workdir), ensemble_costs(wl.lr),
                            permuted_moves(wl), reduce_seconds(cli, workdir),
                            scaled_rows(wl))
                           for wl, cli in map(load, srcs))
            for show, mine, theirs in zip((compare, compare_greedy, compare_experiments,
                                           compare_ensemble, compare_permuted,
                                           compare_reduce, compare_scaled), this, other):
                show(mine, theirs)
        this_lines, other_lines = map(src_lines, srcs)
        print(f"src lines         {this_lines:,} against {other_lines:,} "
              f"({this_lines - other_lines:+,})")
        return 0
    wl, cli = load(srcs[0])

    drop = args.drop_method
    for seed in BRACKET_SEEDS:
        records = list(bracket_records(wl, seed, drop))
        print(f"bracket-core    seed={seed} {digest(core for core, _ in records)}")
        print(f"bracket-methods seed={seed} {digest(m for _, m in records)}")
        print(f"greedy          seed={seed} "
              f"{digest(greedy_bytes(i, dec) for i, _, dec in greedy_records(wl, seed))}")
    with tempfile.TemporaryDirectory() as workdir:
        for stream, seeds, ops, starts in THOROUGH_STREAMS:
            for seed in seeds:
                records = thorough_records(wl, seed, ops, starts, drop, workdir)
                print(f"{stream:15} seed={seed} {digest(records)}")
        print(f"decompose       seed=1 {digest(decompose_records(wl, cli, workdir))}")
        print(f"decompose-notpsd seed=1 {digest(decompose_notpsd_records(wl, cli, workdir))}")
        print(f"reduce          families={REDUCE_FAMILIES} {digest(reduce_records(cli, workdir))}")
        print(f"gamma-zero      seeds=1,2 {digest(gamma_zero_records(wl, cli, workdir))}")
        for exp in EXPERIMENTS:
            print(f"experiment      {' '.join(exp)} "
                  f"{digest([experiment_csv(cli, exp, workdir)])}")
    print(f"ensemble-vectors {digest(ensemble_vector_records(wl.lr))}")
    print(f"scaled          seed={SCALED_SEED} {digest(scaled_records(wl))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
