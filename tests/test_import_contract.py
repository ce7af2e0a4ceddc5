"""numpy is loaded only by the float Perron search and by ``witness_blocks``,
and the algebra module ``ck`` only by the two verify subcommands.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded already.  The exact subcommands (``validate``, ``words``,
``dual``, ``verify-ck``, ``verify-lemma2``) must finish without importing
it, and the float results computed after it is loaded on demand must be the
same as in a process that imported numpy before anything else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import contextlib, io, json, sys

if sys.argv[1] == "numpy-first":
    import numpy  # noqa: F401

import ckshift
import ckshift.cli

report = {"after import": "numpy" in sys.modules, "runs": []}
if sys.argv[1] == "exact-first":
    for argv in json.loads(sys.argv[2]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ckshift.cli.main(argv)
        report["runs"].append([argv[0], code, "numpy" in sys.modules])

golden = ckshift.load_matrix(sys.argv[3])
report["spectral_radius"] = repr(ckshift.spectral_radius(golden))
report["after spectral_radius"] = "numpy" in sys.modules
alg = ckshift.CuntzKriegerAlgebra(golden)
report["witness_blocks"] = repr(alg.witness_blocks((1, 1), (2,), 1, 1, 4))
print(json.dumps(report))
"""


def _run(mode, runs, golden):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode, json.dumps(runs), golden],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_subcommands_never_load_numpy(tmp_path):
    golden = str(DATA / "golden.txt")
    full3 = str(DATA / "full3.txt")
    int_file = tmp_path / "int.txt"
    int_file.write_text("0 2\n1 0\n")
    zero_row = tmp_path / "zero_row.txt"
    zero_row.write_text("1 1\n0 0\n")
    runs = [
        ["validate", "--matrix", golden],
        ["validate", "--format", "json", "--matrix", full3],
        ["words", "--k-max", "4", "--matrix", golden],
        ["dual", "--format", "json", "--matrix", str(int_file)],
        ["verify-ck", "--matrix", full3],
        ["verify-ck", "--inject-fault", "--matrix", golden],
        ["verify-lemma2", "--n0", "2", "--n", "2", "--matrix", golden],
        ["verify-lemma2", "--n0", "1", "--n", "2", "--inject-fault", "--matrix", full3],
        ["validate", "--matrix", str(zero_row)],
    ]
    lazy = _run("exact-first", runs, golden)
    assert lazy["after import"] is False
    assert lazy["runs"] == [
        ["validate", 0, False],
        ["validate", 0, False],
        ["words", 0, False],
        ["dual", 0, False],
        ["verify-ck", 0, False],
        ["verify-ck", 1, False],
        ["verify-lemma2", 0, False],
        ["verify-lemma2", 1, False],
        ["validate", 2, False],
    ]
    # the float search loads numpy where it is called, and gives the same
    # results, bit for bit, as with numpy loaded from the start
    assert lazy["after spectral_radius"] is True
    eager = _run("numpy-first", [], golden)
    assert eager["after import"] is True
    assert lazy["spectral_radius"] == eager["spectral_radius"]
    assert lazy["witness_blocks"] == eager["witness_blocks"]
    assert "array(" in lazy["witness_blocks"]


# every name ``from ckshift import *`` bound when the package imported its
# submodules eagerly
STAR_NAMES = sorted("""
    BlockDiagonal BlockMatrix CKElement ConvergenceReport ConvergenceRow
    CuntzKriegerAlgebra DepthExceededError DepthTooSmallError DualDecomposition
    EntryOutOfRangeError InadmissibleWordError IntMatrix MatrixError Monomial
    NoConvergenceError NonZeroDegreeError NotIrreducibleError NotSquareError
    ParryData PerronData SymbolOutOfRangeError TooManyWordsError
    TransitionMatrix VerificationReport WORD_CAP WitnessPreconditionError
    ZeroColumnError ZeroRowError ck cylinder_probability dual_matrix
    entropy_estimates enumerate_words is_admissible is_irreducible
    is_permutation load_int_matrix load_matrix markov_entropy matrix
    matrix_power parry_measure partition_entropy sft spectral_radius validate
    validate_int verify_relations verify_witness_decomposition
    witness_dimension word_count
""".split())

CK_SCRIPT = r"""
import contextlib, io, json, sys

import ckshift.cli

report = {"after import": "ckshift.ck" in sys.modules, "runs": []}
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ckshift.cli.main(argv)
    report["runs"].append([argv[0], code, "ckshift.ck" in sys.modules])
print(json.dumps(report))
"""

STAR_SCRIPT = r"""
import json, sys

import ckshift

before = "ckshift.ck" in sys.modules
names = {}
exec("from ckshift import *", names)
del names["__builtins__"]
import ckshift.ck, ckshift.sft

print(json.dumps({
    "before": before,
    "star": sorted(names),
    "same objects": all(getattr(ckshift, k) is v for k, v in names.items()),
    "dir covers star": set(names) <= set(dir(ckshift)),
    "ck": ckshift.ck.CuntzKriegerAlgebra is ckshift.CuntzKriegerAlgebra,
    "sft": ckshift.sft.enumerate_words is ckshift.enumerate_words,
}))
"""


def _run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_the_verify_subcommands_load_the_algebra(tmp_path):
    golden = str(DATA / "golden.txt")
    int_file = tmp_path / "int.txt"
    int_file.write_text("0 2\n1 0\n")
    runs = [
        ["validate", "--matrix", golden],
        ["entropy", "--k-max", "8", "--matrix", golden],
        ["words", "--k-max", "3", "--matrix", golden],
        ["parry", "--format", "json", "--matrix", golden],
        ["dual", "--matrix", str(int_file)],
        ["convergence", "--k-max", "4", "--matrix", golden],
        ["verify-ck", "--matrix", golden],
    ]
    report = _run_script(CK_SCRIPT, json.dumps(runs))
    assert report["after import"] is False
    assert report["runs"] == [[argv[0], 0, argv[0] == "verify-ck"] for argv in runs]
    lemma = _run_script(CK_SCRIPT, json.dumps([["verify-lemma2", "--n0", "1", "--n", "1",
                                                "--matrix", golden]]))
    assert lemma["runs"] == [["verify-lemma2", 0, True]]


def test_star_import_binds_the_eager_names():
    report = _run_script(STAR_SCRIPT)
    assert report == {
        "before": False,
        "star": STAR_NAMES,
        "same objects": True,
        "dir covers star": True,
        "ck": True,
        "sft": True,
    }


UNKNOWN_SCRIPT = r"""
import json, sys

import ckshift

try:
    ckshift.no_such_name
except AttributeError as exc:
    error = str(exc)
print(json.dumps({"error": error, "ck loaded": "ckshift.ck" in sys.modules}))
"""


def test_unknown_name_raises_without_loading_the_algebra():
    assert _run_script(UNKNOWN_SCRIPT) == {
        "error": "module 'ckshift' has no attribute 'no_such_name'",
        "ck loaded": False,
    }


def test_the_ck_name_table_lists_every_public_ck_name():
    # ck.__all__ is this table, so the table must be complete: every public
    # class and function defined in ck is in it, and each of its names
    # reaches ck's own object through the package
    import inspect

    import ckshift
    import ckshift.ck

    defined = {
        name
        for name, obj in vars(ckshift.ck).items()
        if (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == "ckshift.ck"
        and not name.startswith("_")
    }
    assert defined <= set(ckshift._CK_NAMES)
    for name in ckshift._CK_NAMES:
        assert getattr(ckshift, name) is getattr(ckshift.ck, name), name


EAGER_SCRIPT = r"""
import json, sys

import ckshift

loaded = {"ckshift.ck": "ckshift.ck" in sys.modules, "numpy": "numpy" in sys.modules}
public = [(m, name) for m in (ckshift.matrix, ckshift.sft) for name in m.__all__]
print(json.dumps({
    "loaded": loaded,
    "public": sorted(name for m, name in public),
    "bound": sorted(name for m, name in public if vars(ckshift).get(name) is getattr(m, name)),
}))
"""


def test_import_binds_the_matrix_and_sft_names_without_the_algebra():
    report = _run_script(EAGER_SCRIPT)
    assert report["loaded"] == {"ckshift.ck": False, "numpy": False}
    assert report["bound"] == report["public"]
