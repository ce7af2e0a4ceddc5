"""A mutation run over the kernels: every listed mutant must be killed.

Each mutant is a file under ``src/ckshift``, an exact old text, the new
text that replaces it, and the pytest node ids that must kill it.  For each
mutant the runner copies ``src/`` to a temporary directory, applies the
mutant to the copy, and runs ``pytest -x`` on its ids with ``PYTHONPATH``
at the copy; the tree itself is never written to.  A mutant is killed when
a named test fails (or the run times out).  The run fails when a mutant
survives, when its old text is not found exactly once (a refactor has to
update the list), or when the named tests do not pass on the unmutated
copy.

    python tests/mutants.py

Standard library only; it needs pytest and the test dependencies, as the
tier-1 tests do.

Left out, as equivalent in every output: an extra zero in ``_square``'s
``high + [0, 0]``, which ``map`` truncates to the shorter operand; ``<=``
for ``<`` in ``_collatz_wielandt``, where a tie picks another index of the
same exact ratio, so the same float bound; ``>=`` for ``>`` in
Berlekamp-Massey's lift, which differs only on a residue of exactly half
the modulus, far past any coefficient of p, and which ``_annihilates``
would refuse.  Also left out: the count loop's shift by x skipping one more
shift, since that loop is gone; the windows of one remainder replaced it,
and their mutants are listed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # under src/ckshift
    old: str
    new: str
    kills: tuple[str, ...]


CK, SFT, MATRIX = "ck.py", "sft.py", "matrix.py"

MUTANTS = [
    # one constructor: normal form is set in CKElement.__init__ alone
    Mutant(
        "constructor keeps zero coefficients", CK,
        "            for m, c in terms.items()\n            if c\n        }",
        "            for m, c in terms.items()\n        }",
        ("tests/test_ck.py::TestConstruction::test_element_checks_symbols_and_adds_coinciding_keys",),
    ),
    Mutant(
        "constructor keeps integral Fractions", CK,
        "m: c.numerator if type(c) is Fraction and c.denominator == 1 else c",
        "m: c",
        ("tests/test_ck.py::TestNormalForm::test_every_producer_stores_normal_form",),
    ),
    # one table: a row's columns are looked up under its head eta b mid
    Mutant(
        "witness head without beta", CK,
        "spans.get(eta + b + index[row][l + len(a) :], empty)",
        "spans.get(eta + index[row][l + len(a) :], empty)",
        ("tests/test_ck.py::TestGenerator::test_witness_verifier_builds_every_generator_once",),
    ),
    Mutant(
        "witness head cut one symbol late", CK,
        "spans.get(eta + b + index[row][l + len(a) :], empty)",
        "spans.get(eta + b + index[row][l + len(a) + 1 :], empty)",
        ("tests/test_ck.py::TestGenerator::test_witness_verifier_builds_every_generator_once",),
    ),
    # both verifiers report through _report
    Mutant(
        "every case counted as passed", CK,
        "report.passed += not mismatches",
        "report.passed += 1",
        ("tests/test_relation_oracle.py::test_report_equals_the_reference[golden-fault]",),
    ),
    # the public name table of ck
    Mutant(
        "a ck name dropped from the table", "__init__.py",
        '    "BlockDiagonal",\n',
        "",
        ("tests/test_import_contract.py::test_the_ck_name_table_lists_every_public_ck_name",),
    ),
    Mutant(
        "an unknown name in the ck table", "__init__.py",
        '    "verify_witness_decomposition",\n)',
        '    "verify_witness_decomposition",\n    "unknown",\n)',
        ("tests/test_import_contract.py::test_the_ck_name_table_lists_every_public_ck_name",),
    ),
    # the word cap: one loop, exact count when it is cheap
    Mutant(
        "cap error never gives the count", SFT,
        "raise TooManyWordsError(count if exact else None, cap, k)",
        "raise TooManyWordsError(None, cap, k)",
        ("tests/test_sft.py::TestDeepCap::test_one_successor_per_row_counts_exactly",),
    ),
    Mutant(
        "cap loop always starts at length 1", SFT,
        "j = k if exact else 1",
        "j = 1",
        ("tests/test_cli.py::TestWords::test_count_past_the_int_str_limit_in_cap_error",),
    ),
    # counts as windows of one remainder, continued by p in one function
    Mutant(
        "count windows without the restart's skip", MATRIX,
        "sum(map(operator.mul, r, s[skip + i : skip + i + d]))",
        "sum(map(operator.mul, r, s[i : i + d]))",
        ("tests/test_word_count_routes.py::test_seeded_matrices_against_oracle[0]",),
    ),
    Mutant(
        "restart continued one term short", MATRIX,
        "s = _continued(t, q, skip + K + d - 1)",
        "s = _continued(t, q, skip + K + d - 2)",
        ("tests/test_word_count_routes.py::test_seeded_matrices_against_oracle[0]",),
    ),
    Mutant(
        "_continued one term short", MATRIX,
        "for i in range(len(s) - d, length - d):",
        "for i in range(len(s) - d, length - d - 1):",
        ("tests/test_word_count_routes.py::test_seeded_matrices_against_oracle[0]",),
    ),
    Mutant(
        "x r^2 shifted at the wrong end", MATRIX,
        "sq.insert(0, 0)  # x r^2",
        "sq.append(0)  # x r^2",
        ("tests/test_word_count_routes.py::test_seeded_matrices_against_oracle[0]",),
    ),
    # byte identity: one printed digit fewer
    Mutant(
        "figures printed to 14 digits", SFT,
        'return format(float(x), ".15g")',
        'return format(float(x), ".14g")',
        ("tests/test_cli_digests.py::test_every_run_prints_the_recorded_bytes",),
    ),
]


def _pytest(src: Path, ids) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def _copy(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _apply(src: Path, mutant: Mutant) -> None:
    path = src / "ckshift" / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"{mutant.name}: old text found {found} times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy(Path(tmp))
        # the copy is what the tests import, and every named test passes on it
        where = subprocess.run(
            [sys.executable, "-c", "import ckshift; print(ckshift.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            raise SystemExit(f"the tests would import ckshift from {where}, not the copy")
        ids = sorted({i for m in MUTANTS for i in m.kills})
        clean = _pytest(src, ids)
        if clean.returncode != 0:
            print(clean.stdout[-2000:], clean.stderr[-2000:], sep="\n")
            raise SystemExit("the named tests do not pass on the unmutated tree")
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy(Path(tmp))
            _apply(src, mutant)
            try:
                code = _pytest(src, mutant.kills).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code not in (1, "timeout"):
            # 0: every test passed; any other code: the ids did not run
            survivors.append(mutant.name)
        verdict = "killed" if code in (1, "timeout") else f"SURVIVED (pytest exit {code})"
        print(f"{verdict:<28} {mutant.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
