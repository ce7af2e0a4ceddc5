"""Record what ``ckshift`` prints over a fixed grid of runs.

Runs ``cli.main`` in-process for every subcommand, format and ``--base``,
with flags at and past their limits, on the matrices in ``tests/data`` and
a few fixed and seeded ones, and writes ``{argv: [exit code, stdout,
stderr]}`` as JSON.  The matrix files are written to a temporary directory
and named by relative paths, so the argv keys and any message that names a
file are the same on every run.  Two trees print the same bytes when their
records are equal:

    PYTHONPATH=src python tests/cli_outputs.py after.json
    PYTHONPATH=<other tree>/src python tests/cli_outputs.py before.json
    cmp before.json after.json

Standard library only; usage errors (argparse's ``SystemExit``) are
recorded with their exit code like any other run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from ckshift import cli

DATA = Path(__file__).parent / "data"


def _seeded_rows(seed: int, n: int) -> list[list[int]]:
    """An n×n 0/1 grid with a cycle through every state, so that every row
    and column has a 1, and extra ones at random."""
    rng = random.Random(seed)
    rows = [[int(rng.random() < 0.35) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    return rows


def _matrices() -> dict[str, str]:
    """File name to file text."""
    files = {f"{name}.txt": (DATA / f"{name}.txt").read_text()
             for name in ("golden", "full2", "full3", "random3", "cycle12", "parallel4")}
    files.update({
        "reducible.txt": "1 1 0\n1 0 0\n0 0 1\n",
        "identity2.txt": "1 0\n0 1\n",
        "perm2.txt": "0 1\n1 0\n",
        "one.txt": "1\n",
        "int2.txt": "0 2\n1 0\n",
        "zero_row.txt": "1 1\n0 0\n",
        "golden.json": '{"n": 2, "rows": [[1, 1], [1, 0]]}',
    })
    for seed, n in ((11, 4), (12, 5)):
        files[f"seeded{seed}.txt"] = "".join(
            " ".join(map(str, row)) + "\n" for row in _seeded_rows(seed, n))
    return files


FORMATS = ("text", "json", "csv")
BASES = ("natural", "bits")

# the options after ``--matrix FILE`` for each run on each matrix
RUNS = [
    *(["validate", "--format", f] for f in FORMATS),
    *(["entropy", "--format", f, "--base", b] for f in FORMATS for b in BASES),
    ["entropy", "--k-max", "0"],
    ["entropy", "--k-max", "1"],
    ["entropy", "--k-max", "2"],
    ["entropy", "--k-max", "200", "--format", "json"],
    ["entropy", "--tol", "nan"],
    ["entropy", "--tol", "0"],
    ["entropy", "--tol", "1e-3"],
    ["entropy", "--tol", "nan", "--k-max", "1"],
    *(["words", "--k-max", "3", "--format", f] for f in FORMATS),
    ["words", "--k-max", "12"],
    ["words", "--k-max", "1", "--format", "json"],
    ["words", "--k-max", "0"],
    ["words", "--k-max", "-1"],
    ["words", "--k-max", "5000"],
    ["words"],
    *(["parry", "--format", f, "--base", b] for f in FORMATS for b in BASES),
    ["parry", "--tol", "1e-3"],
    ["parry", "--tol", "-1"],
    *(["dual", "--format", f] for f in FORMATS),
    *(["convergence", "--format", f, "--base", b] for f in FORMATS for b in BASES),
    ["convergence", "--k-max", "1"],
    ["convergence", "--k-max", "2", "--format", "csv"],
    ["convergence", "--k-max", "80"],
    ["convergence", "--k-max", "80", "--format", "csv"],
    ["convergence", "--n0", "0", "--k-max", "5"],
    ["convergence", "--n0", "50", "--k-max", "5", "--format", "json"],
    ["convergence", "--n0", "-1"],
    ["convergence", "--k-max", "x"],
    *(["verify-ck", "--format", f] for f in FORMATS),
    ["verify-ck", "--inject-fault"],
    ["verify-ck", "--inject-fault", "--format", "json"],
    *(["verify-lemma2", "--n0", "1", "--n", "1", "--format", f] for f in FORMATS),
    ["verify-lemma2", "--n0", "2", "--n", "1"],
    ["verify-lemma2", "--n0", "0", "--n", "1"],
    ["verify-lemma2", "--n0", "1", "--n", "0"],
    ["verify-lemma2", "--n0", "1", "--n", "1", "--inject-fault"],
    ["verify-lemma2", "--n0", "1", "--n", "1", "--inject-fault", "--format", "json"],
]

# the algebra of a matrix past this size is left to the verify tests
VERIFY_MAX_N = 5


def _run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def record() -> dict[str, list]:
    files = _matrices()
    records = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            for name in [*files, "missing.txt"]:
                size = len(files.get(name, "").splitlines())
                for options in RUNS:
                    if options[0].startswith("verify") and size > VERIFY_MAX_N:
                        continue
                    argv = [options[0], "--matrix", name, *options[1:]]
                    records[" ".join(argv)] = _run(argv)
        finally:
            os.chdir(cwd)
    return records


def main(argv=None) -> int:
    (path,) = sys.argv[1:] if argv is None else argv
    records = record()
    Path(path).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} runs written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
