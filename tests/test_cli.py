import argparse
import decimal
import hashlib
import json
import math
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ckshift import cli, load_matrix, matrix, sft, word_count
from ckshift.cli import main
from ckshift.sft import _fmt

from conftest import (
    FULL3_ROWS,
    GOLDEN_ROWS,
    PERM2_ROWS,
    RANDOM3_ROWS,
    cycle_with_loop,
    cyclic_permutation,
    periodic_irreducible,
    random_irreducible,
    random_transition_rows,
    seeded,
    sparse_irreducible,
)
from word_count_oracle import oracle_count


DATA = Path(__file__).parent / "data"


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text("1 1\n1 0\n")
    return str(path)


@pytest.fixture
def full2_file(tmp_path):
    path = tmp_path / "full2.json"
    path.write_text('{"n": 2, "rows": [[1, 1], [1, 1]]}')
    return str(path)


@pytest.fixture
def perm_file(tmp_path):
    path = tmp_path / "perm.txt"
    path.write_text("0 1\n1 0\n")
    return str(path)


@pytest.fixture
def reducible_file(tmp_path):
    path = tmp_path / "red.txt"
    path.write_text("1 0\n0 1\n")
    return str(path)


@pytest.fixture
def random3_file(tmp_path):
    path = tmp_path / "random3.txt"
    path.write_text("0 1 1\n1 0 1\n1 1 0\n")
    return str(path)


@pytest.fixture
def int_file(tmp_path):
    path = tmp_path / "int.txt"
    path.write_text("0 2\n1 0\n")
    return str(path)


def is_power_of_two(digits: str, k: int) -> bool:
    """True iff the decimal string is 2^k, compared without int(), whose
    default digit limit a count of 2^k may pass."""
    with decimal.localcontext() as ctx:
        ctx.prec = k
        return digits.isdigit() and decimal.Decimal(digits) == decimal.Decimal(2) ** k


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys, golden_file):
        code, out, _ = run(capsys, ["validate", "--matrix", golden_file, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"n": 2, "irreducible": True, "permutation": False}

    def test_invalid_matrix_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n1 0\n")
        code, _, err = run(capsys, ["validate", "--matrix", str(bad)])
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["validate", "--matrix", "/nonexistent/matrix"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "body",
        [
            '{"rows": 5}',
            '{"rows": null}',
            '{"rows": [1, 2]}',
            '{"n": 2, "rows": 7}',
            '{"rows": "ab"}',
            '{"rows": [[1, 1], 7]}',
        ],
    )
    def test_malformed_json_rows_exit_2(self, capsys, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        code, out, err = run(capsys, ["validate", "--matrix", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert '"rows" must be a list of lists' in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", ["0_1", "+1", "١"])
    def test_non_ascii_integer_entry_exits_2(self, capsys, tmp_path, token):
        # int() reads each of these as 1, and validate used to exit 0
        path = tmp_path / "bad.txt"
        path.write_text(f"1 {token}\n1 0\n", encoding="utf-8")
        code, out, err = run(capsys, ["validate", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: invalid matrix row {'1 ' + token!r}\n"

    def test_negative_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1 1\n1 0\n")
        code, out, err = run(capsys, ["validate", "--matrix", str(path)])
        assert (code, out, err) == (2, "", "error: entry (1,1) is -1, expected 0 or 1\n")

    @pytest.mark.parametrize(
        "body",
        [
            '{"rows": [[1, 1], [1, 0]]',
            pytest.param(
                '{"rows": [[1' + "0" * 5000 + "]]}",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit"
                ),
                id="past-the-int-str-limit",
            ),
        ],
    )
    def test_undecodable_json_exits_2(self, capsys, tmp_path, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        code, out, err = run(capsys, ["validate", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON matrix file: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n", ['"2"', "2.0", "true", "null", "[2]"])
    def test_json_non_integer_n_exits_2(self, capsys, tmp_path, n):
        # "2" used to read as a row-count mismatch: "declares n=2 but has 2 rows"
        path = tmp_path / "bad.json"
        path.write_text('{"n": %s, "rows": [[1, 1], [1, 0]]}' % n)
        code, out, err = run(capsys, ["validate", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert err == f'error: JSON matrix file: "n" must be an integer, not {n}\n'


class TestEntropy:
    def test_golden_routes_agree(self, capsys, golden_file):
        code, out, err = run(
            capsys, ["entropy", "--matrix", golden_file, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        log_phi = math.log((1 + math.sqrt(5)) / 2)
        for key in ("log_radius", "markov_entropy", "ratio"):
            assert abs(float(payload[key]) - log_phi) <= 1e-6
        assert payload["warnings"] == []
        assert err == ""

    def test_permutation_warns_not_errors(self, capsys, perm_file):
        code, out, err = run(capsys, ["entropy", "--matrix", perm_file, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert float(payload["log_radius"]) == 0.0
        assert float(payload["markov_entropy"]) == 0.0
        assert "permutation" in err

    def test_reducible_warns_and_reports_estimates(self, capsys, reducible_file):
        code, out, err = run(
            capsys, ["entropy", "--matrix", reducible_file, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["log_radius"] is None
        assert payload["markov_entropy"] is None
        assert "not irreducible" in err

    def test_perron_data_computed_once(self, capsys, monkeypatch, golden_file):
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for module in (matrix, sft, cli):
            for name in ("spectral_radius", "is_irreducible"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        code, _, _ = run(capsys, ["entropy", "--matrix", golden_file])
        assert code == 0
        # one Perron computation, and irreducibility tested once, inside it
        assert sorted(calls) == ["is_irreducible", "spectral_radius"]

    def test_deep_k_counts_only_its_two_words(self, capsys, monkeypatch, perm_file):
        # the walk stops after 10^4 lengths; a command that built the whole
        # k-row table would take it to k = 10^6 + 1 on a permutation matrix
        walk = matrix._walk_counts

        def short_walk(successors, n):
            yield from itertools.islice(walk(successors, n), 10_000)
            raise AssertionError("walked past 10^4 lengths")

        monkeypatch.setattr(matrix, "_walk_counts", short_walk)
        code, out, _ = run(capsys, ["entropy", "--matrix", perm_file, "--k-max", "1000000"])
        assert code == 0
        assert "ratio estimate (k=1000000)   0\n" in out
        assert "growth estimate (k=1000000)  6.93147180559945e-07\n" in out

    def test_nan_tolerance_exits_2_at_once(self, capsys, golden_file):
        code, out, err = run(capsys, ["entropy", "--matrix", golden_file, "--tol", "nan"])
        assert (code, out) == (2, "")
        assert err == "error: tolerance must be positive and finite\n"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_bad_tolerance_exits_2_on_a_reducible_matrix(self, capsys, tmp_path, tol):
        # no Perron computation runs here, so the command checks --tol itself
        path = tmp_path / "upper.txt"
        path.write_text("1 1\n0 1\n")
        code, out, err = run(capsys, ["entropy", "--matrix", str(path), "--tol", tol])
        assert (code, out) == (2, "")
        assert err == "error: tolerance must be positive and finite\n"

    @pytest.mark.parametrize("command", ["entropy", "parry"])
    def test_loose_tolerance_exits_0(self, capsys, golden_file, command):
        # a fixed 1e-10 stationarity check used to fail here (error 6.0e-09)
        code, out, err = run(
            capsys, [command, "--matrix", golden_file, "--format", "json", "--tol", "1e-6"]
        )
        assert (code, err) == (0, "")
        log_phi = math.log((1 + math.sqrt(5)) / 2)
        assert abs(float(json.loads(out)["markov_entropy"]) - log_phi) <= 1e-6

    def test_bits_base_divides_by_log2(self, capsys, full2_file):
        code, nat_out, _ = run(capsys, ["entropy", "--matrix", full2_file, "--format", "json"])
        assert code == 0
        code, bits_out, _ = run(
            capsys,
            ["entropy", "--matrix", full2_file, "--format", "json", "--base", "bits"],
        )
        assert code == 0
        nat = json.loads(nat_out)
        bits = json.loads(bits_out)
        # serialized values carry 15 significant digits
        assert abs(
            float(bits["markov_entropy"]) - float(nat["markov_entropy"]) / math.log(2)
        ) <= 1e-14
        assert abs(float(bits["markov_entropy"]) - 1.0) <= 1e-12


class TestWords:
    def test_text(self, capsys, golden_file):
        code, out, _ = run(capsys, ["words", "--matrix", golden_file, "--k-max", "2"])
        assert code == 0
        assert out.splitlines() == ["1 1", "1 2", "2 1"]

    def test_csv(self, capsys, golden_file):
        code, out, _ = run(
            capsys, ["words", "--matrix", golden_file, "--k-max", "2", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["1,1", "1,2", "2,1"]

    def test_json(self, capsys, golden_file):
        code, out, _ = run(
            capsys, ["words", "--matrix", golden_file, "--k-max", "3", "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["count"] == 5
        assert payload["words"][0] == [1, 1, 1]

    def test_json_encodes_the_enumerated_words_as_they_are(self, capsys, monkeypatch, golden_file):
        # json writes a tuple as an array, so the list of word tuples goes
        # to the encoder uncopied, with the same bytes
        enumerated, emitted = [], []

        def enumerate_words(*args):
            enumerated.append(sft.enumerate_words(*args))
            return enumerated[-1]

        def emit_json(obj):
            emitted.append(obj)
            real_emit_json(obj)

        real_emit_json = cli._emit_json
        monkeypatch.setattr(cli, "enumerate_words", enumerate_words)
        monkeypatch.setattr(cli, "_emit_json", emit_json)
        code, out, err = run(
            capsys, ["words", "--matrix", golden_file, "--k-max", "16", "--format", "json"]
        )
        assert (code, err) == (0, "")
        assert emitted[0]["words"] is enumerated[0]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6f857b8576ea77c3e9189aeef9d23a348f3b36cc8a8dd5e6dec0a0b5a2fd5f4f"
        )

    @pytest.mark.parametrize("fmt, sha256", [
        ("text", "e56d6b08cb7354bbd609dda0c1107d841efdbd648221c8f1f967a921db8df4f3"),
        ("csv", "72e432d1f9c4cb00f20db2f0c850ad732a46bf26953805895e26422813e43f47"),
    ], ids=["text", "csv"])
    def test_text_and_csv_in_batched_writes(self, monkeypatch, golden_file, fmt, sha256):
        # the bytes of one print per word, in one write per 4096 lines (each
        # write is a system call when stdout is unbuffered), so here in one
        writes = []
        with monkeypatch.context() as patch:
            patch.setattr(sys.stdout, "write", writes.append)
            assert main(["words", "--matrix", golden_file, "--k-max", "16", "--format", fmt]) == 0
        out = "".join(writes)
        assert out.count("\n") == 2584
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
        assert len(writes) == 1

    def test_missing_length_is_usage_error(self, golden_file):
        with pytest.raises(SystemExit) as exc:
            main(["words", "--matrix", golden_file])
        assert exc.value.code == 2

    def test_count_past_the_int_str_limit_in_cap_error(self, capsys):
        # 2^15000 has 4516 digits, past the default int-to-str limit of 4300
        code, out, err = run(capsys, [
            "words", "--matrix", str(DATA / "full2.txt"), "--k-max", "15000",
        ])
        assert (code, out) == (2, "")
        digits, rest = err.removeprefix("error: ").split(" ", 1)
        assert rest == "words exceed the enumeration cap of 10000000\n"
        assert is_power_of_two(digits, 15000)

    @pytest.mark.parametrize("argv", [
        ["words", "--k-max", "10000000"],
        ["verify-lemma2", "--n0", "1", "--n", "99999999999999999999"],
    ], ids=["words", "verify-lemma2"])
    def test_deep_cap_refused_at_once(self, capsys, monkeypatch, argv):
        # the cap is decided from counts of short lengths only: w(k) itself
        # would take seconds to count and far longer to print
        real = sft.word_count

        def spy(mat, k):
            assert k <= 2**20, f"counted w({k})"
            return real(mat, k)

        monkeypatch.setattr(sft, "word_count", spy)
        code, out, err = run(capsys, argv + ["--matrix", str(DATA / "golden.txt")])
        k = 10**7 if argv[0] == "words" else 10**20
        assert (code, out) == (2, "")
        assert err == f"error: the words of length {k} exceed the enumeration cap of 10000000\n"

    def test_deep_cycle_exits_0(self, capsys, perm_file):
        code, out, err = run(capsys, ["words", "--matrix", perm_file, "--k-max", "2000"])
        assert code == 0
        assert err == ""
        assert out.splitlines() == [" ".join(["1 2"] * 1000), " ".join(["2 1"] * 1000)]


class TestParry:
    def test_json(self, capsys, golden_file):
        code, out, _ = run(capsys, ["parry", "--matrix", golden_file, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        phi = (1 + math.sqrt(5)) / 2
        assert abs(float(payload["radius"]) - phi) <= 1e-10
        assert abs(float(payload["stationary"][0]) - phi**2 / (phi**2 + 1)) <= 1e-9

    def test_reducible_exits_2(self, capsys, reducible_file):
        code, _, err = run(capsys, ["parry", "--matrix", reducible_file])
        assert code == 2
        assert "error:" in err


class TestDual:
    def test_json(self, capsys, int_file):
        code, out, _ = run(capsys, ["dual", "--matrix", int_file, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["edge_count"] == 3
        assert payload["edges"] == [[1, 2, 1], [1, 2, 2], [2, 1, 1]]
        assert payload["a_prime"] == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]

    def test_edge_matrix_past_the_cap_exits_2_at_once(self, capsys, tmp_path):
        # 100000 parallel edges would make a 10^10-cell edge matrix
        path = tmp_path / "big.txt"
        path.write_text("100000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["dual", "--matrix", str(path)])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (
            "error: 100000 edges give an edge matrix of 10000000000 cells, "
            "more than the cap of 10000000\n"
        )

    def test_cap_message_past_the_int_str_limit(self, capsys, tmp_path):
        # a 2200-digit entry parses, under the int-to-str limit of 4300, but
        # the cell count, its square, has 4399 digits
        edges = "1" + "0" * 2199
        path = tmp_path / "huge.txt"
        path.write_text(edges + "\n")
        code, out, err = run(capsys, ["dual", "--matrix", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            f"error: {edges} edges give an edge matrix of 1{'0' * 4398} cells, "
            "more than the cap of 10000000\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_is_pinned(self, capsys, fmt):
        # byte for byte the stdout recorded in tests/data; parallel4 is a
        # seeded 4x4 matrix with entries up to 3, 23 edges in all
        code, out, err = run(capsys, [
            "dual", "--matrix", str(DATA / "parallel4.txt"), "--format", fmt,
        ])
        assert (code, err) == (0, "")
        assert out.encode() == (DATA / f"dual_parallel4.{fmt}.out").read_bytes()

    @pytest.mark.parametrize("name", ["parallel4", "golden"])
    def test_json_encodes_each_distinct_row_once(self, capsys, monkeypatch, name):
        # the edges into one state share their rows of A' and T, and the
        # rows of A' are rows of S: each distinct row is encoded once, and
        # the bytes are those of the encoder run over the whole dict
        path = str(DATA / f"{name}.txt")
        dual = matrix.dual_matrix(matrix.load_int_matrix(path))
        payload = {"edge_count": len(dual.edge_labels), "edges": dual.edge_labels,
                   "a_prime": dual.a_prime.entries, "s": dual.s_factor, "t": dual.t_factor}
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        rows = [row for key in ("edges", "a_prime", "s", "t") for row in payload[key]]
        encoded = []
        dumps = json.dumps

        def counted(obj, **kwargs):
            if isinstance(obj, tuple):
                encoded.append(obj)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        code, out, err = run(capsys, ["dual", "--matrix", path, "--format", "json"])
        assert (code, out, err) == (0, want, "")
        assert len(rows) > len(set(rows))
        assert sorted(encoded) == sorted(set(rows))


class TestConvergence:
    def test_counts_past_the_int_str_limit(self, capsys):
        # w(k) = 2^k on full2, so w(15000) has 4516 digits, past the default
        # int-to-str limit of 4300, which still guards the matrix parser
        code, out, err = run(capsys, [
            "convergence", "--matrix", str(DATA / "full2.txt"),
            "--k-max", "15000", "--format", "csv",
        ])
        assert (code, err) == (0, "")
        k, w_k, *_ = out.splitlines()[-1].split(",")
        assert k == "15000" and is_power_of_two(w_k, 15000)
        if hasattr(sys, "get_int_max_str_digits"):
            with pytest.raises(matrix.MatrixError):
                matrix.parse_matrix("1" * 5000)

    def test_csv_columns(self, capsys, golden_file):
        code, out, _ = run(
            capsys,
            ["convergence", "--matrix", golden_file, "--k-max", "5", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,w_k,eq3,ratio,witness"
        assert len(lines) == 6
        assert lines[1].split(",")[:2] == ["1", "2"]

    def test_witness_column_value(self, capsys, golden_file):
        code, out, _ = run(
            capsys,
            [
                "convergence", "--matrix", golden_file,
                "--k-max", "3", "--n0", "2", "--format", "json",
            ],
        )
        payload = json.loads(out)
        # w(k + n0) for k = 1 is w(3) = 5
        assert abs(float(payload["rows"][0]["witness"]) - math.log(5)) <= 1e-12

    def test_byte_identical_reruns(self, capsys, golden_file):
        argv = ["convergence", "--matrix", golden_file, "--k-max", "8", "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_k_max_too_small_exits_2(self, capsys, golden_file):
        code, _, err = run(capsys, ["convergence", "--matrix", golden_file, "--k-max", "1"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("n0", [0, 1, 2, 5])
    def test_witness_column_is_word_count_at_k_plus_n0(self, capsys, random3_file, n0):
        mat = load_matrix(random3_file)
        code, out, err = run(
            capsys,
            [
                "convergence", "--matrix", random3_file,
                "--k-max", "12", "--n0", str(n0), "--format", "json",
            ],
        )
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [r["k"] for r in rows] == list(range(1, 13))
        for r in rows:
            assert r["witness"] == _fmt(math.log(word_count(mat, r["k"] + n0)) / r["k"])

    @pytest.mark.parametrize("n0,calls", [(None, 1), (0, 1), (12, 1), (13, 2), (100_000, 2)])
    def test_words_counted_once_where_the_ranges_meet(self, capsys, monkeypatch, n0, calls):
        # the estimators take w(1..k_max + 1) and the witness column
        # w(1 + n0..k_max + n0): one count covers both where they meet (the
        # default --n0 2 among them); past k_max the witness column starts
        # deep on its own
        seen = []
        real = matrix._word_counts

        def counted(*args):
            seen.append(args[1:])
            return real(*args)

        for module in (matrix, sft, cli):
            monkeypatch.setattr(module, "_word_counts", counted)
        argv = ["convergence", "--matrix", str(DATA / "random3.txt"), "--k-max", "12"]
        if n0 is not None:
            argv += ["--n0", str(n0)]
        code, out, err = run(capsys, [*argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert len(seen) == calls, seen
        n0 = 2 if n0 is None else n0
        mat = load_matrix(str(DATA / "random3.txt"))
        for r in json.loads(out)["rows"]:
            assert r["w_k"] == str(word_count(mat, r["k"]))
            assert r["witness"] == _fmt(math.log(word_count(mat, r["k"] + n0)) / r["k"])

    def test_deep_n0_witness_matches_oracle(self, capsys):
        golden = str(DATA / "golden.txt")
        n0 = 100_000
        code, out, err = run(
            capsys,
            ["convergence", "--matrix", golden, "--k-max", "5", "--n0", str(n0), "--format", "json"],
        )
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [r["k"] for r in rows] == [1, 2, 3, 4, 5]
        mat = load_matrix(golden)
        for r in rows:
            assert r["witness"] == _fmt(math.log(oracle_count(mat, r["k"] + n0)) / r["k"])

    @pytest.mark.parametrize("n0", [-1, -3, -5])
    def test_negative_n0_exits_2(self, capsys, golden_file, n0):
        code, out, err = run(
            capsys, ["convergence", "--matrix", golden_file, "--n0", str(n0)]
        )
        assert (code, out, err) == (2, "", "error: n0 must be >= 0\n")


class TestVerifyCommands:
    def test_verify_ck_passes(self, capsys, golden_file):
        code, out, _ = run(capsys, ["verify-ck", "--matrix", golden_file])
        assert code == 0
        assert "passed" in out

    def test_verify_ck_json_report(self, capsys, golden_file):
        code, out, _ = run(capsys, ["verify-ck", "--matrix", golden_file, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["cases"] == payload["passed"]
        assert payload["failures"] == []

    def test_verify_witnesses_passes(self, capsys, golden_file):
        code, out, _ = run(
            capsys, ["verify-lemma2", "--matrix", golden_file, "--n0", "1", "--n", "1"]
        )
        assert code == 0

    def test_fault_injection_exits_1_with_report(self, capsys, golden_file):
        code, out, _ = run(
            capsys,
            [
                "verify-lemma2", "--matrix", golden_file,
                "--n0", "1", "--n", "1", "--inject-fault",
            ],
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["failures"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name,n0,n,fault,exit_code", [
        ("golden", 2, 2, False, 0),
        ("full2", 2, 1, False, 0),
        ("full3", 1, 2, True, 1),
    ])
    def test_verify_lemma2_output_is_pinned(self, capsys, name, n0, n, fault, exit_code, fmt):
        # byte for byte the stdout recorded in tests/data
        argv = [
            "verify-lemma2", "--matrix", str(DATA / f"{name}.txt"),
            "--n0", str(n0), "--n", str(n), "--format", fmt,
        ]
        if fault:
            argv.append("--inject-fault")
        code, out, err = run(capsys, argv)
        pinned = DATA / f"verify_lemma2_{name}_{n0}_{n}{'_fault' if fault else ''}.{fmt}.out"
        assert (code, err) == (exit_code, "")
        assert out.encode() == pinned.read_bytes()

    @pytest.mark.parametrize("name,fmt,fault,exit_code", [
        ("golden", "text", False, 0),
        ("golden", "json", False, 0),
        ("full3", "text", False, 0),
        ("full3", "json", False, 0),
        ("golden", "json", True, 1),
    ])
    def test_verify_ck_output_is_pinned(self, capsys, name, fmt, fault, exit_code):
        # byte for byte the stdout recorded in tests/data
        argv = ["verify-ck", "--matrix", str(DATA / f"{name}.txt"), "--format", fmt]
        if fault:
            argv.append("--inject-fault")
        code, out, err = run(capsys, argv)
        pinned = DATA / f"verify_ck_{name}{'_fault' if fault else ''}.{fmt}.out"
        assert (code, err) == (exit_code, "")
        assert out.encode() == pinned.read_bytes()

    def test_verify_ck_fault_exits_1(self, capsys, golden_file):
        code, out, _ = run(capsys, ["verify-ck", "--matrix", golden_file, "--inject-fault"])
        assert code == 1
        assert json.loads(out)["failures"]


class TestPinnedFloatOutput:
    @pytest.mark.parametrize("base", ["natural", "bits"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", ["golden", "random3", "cycle12"])
    @pytest.mark.parametrize("command", ["entropy", "parry", "convergence"])
    def test_float_output_is_pinned(self, capsys, command, name, fmt, base):
        # byte for byte the stdout recorded in tests/data, at the default
        # --tol; cycle12 is the 12-cycle with a loop at symbol 1
        code, out, err = run(capsys, [
            command, "--matrix", str(DATA / f"{name}.txt"),
            "--format", fmt, "--base", base,
        ])
        assert (code, err) == (0, "")
        assert out.encode() == (DATA / f"{command}_{name}_{base}.{fmt}.out").read_bytes()


class TestProcessLevel:
    def test_console_invocation(self, golden_file):
        proc = subprocess.run(
            [sys.executable, "-m", "ckshift", "entropy", "--matrix", golden_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "log spectral radius" in proc.stdout


class TestExitContract:
    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_errors_exit_2_with_one_line(self, capsys, monkeypatch, golden_file, error):
        def boom(args):
            raise error("limit hit")

        monkeypatch.setattr(cli, "_cmd_validate", boom)
        code, out, err = run(capsys, ["validate", "--matrix", golden_file])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.endswith("\n") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_internal_error_exits_2_with_one_line(self, capsys, monkeypatch, golden_file):
        # a bug is not a verification mismatch: it must not exit 1
        def boom(args):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "_cmd_validate", boom)
        code, out, err = run(capsys, ["validate", "--matrix", golden_file])
        assert code == 2
        assert out == ""
        assert err == "error: internal error: KeyError: 'lost'\n"

    @pytest.mark.parametrize(
        "command", ["validate", "entropy", "parry", "dual", "verify-ck", "verify-lemma2"]
    )
    def test_csv_unsupported_exits_2(self, capsys, golden_file, command):
        code, out, err = run(capsys, [command, "--matrix", golden_file, "--format", "csv"])
        assert (code, out) == (2, "")
        assert err == f"error: the {command} command has no CSV form; use text or json\n"


def _quiet_env():
    """The environment for a child run, with stdout block-buffered as it is
    by default on a pipe."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _closed_pipe_run(argv, stderr_too):
    """Run ``argv`` in a child whose stdout is a pipe with its read end
    already closed; stderr goes to the same pipe, or is captured."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            argv, stdout=write_end, stderr=write_end if stderr_too else subprocess.PIPE,
            env=_quiet_env(), timeout=60,
        )
    finally:
        os.close(write_end)
    return proc.returncode, (proc.stderr or b"").decode()


@pytest.mark.parametrize("stderr_too", [False, True], ids=["stderr_apart", "stderr_same"])
@pytest.mark.parametrize("args", [["validate"], ["words", "--k-max", "14"]], ids=" ".join)
def test_closed_stdout_exits_2(args, stderr_too):
    # 2, and one error line where stderr is open: the flush at exit, which
    # would exit 120 (or 1) once the error line had failed too, finds
    # stdout pointed at devnull
    argv = [sys.executable, "-m", "ckshift", *args, "--matrix", str(DATA / "golden.txt")]
    code, err = _closed_pipe_run(argv, stderr_too)
    assert code == 2
    assert err == ("" if stderr_too else "error: [Errno 32] Broken pipe\n")


# a child that runs ``cli.main`` with the write of number ``stop`` to
# stdout raising OSError; the writes before it reach the real stdout
FAILING_WRITE = """
import errno, sys
from ckshift import cli
stop, seen, real = int(sys.argv[1]), [], sys.stdout.write
def write(text):
    seen.append(text)
    if len(seen) == stop:
        raise OSError(errno.EIO, "Input/output error")
    return real(text)
sys.stdout.write = write
sys.exit(cli.main(sys.argv[2:]))
"""

SUBCOMMAND_RUNS = [
    ["validate"], ["entropy"], ["words", "--k-max", "3"], ["parry"], ["dual"],
    ["convergence", "--k-max", "4"], ["verify-ck"],
    ["verify-lemma2", "--n0", "1", "--n", "1"],
]


@pytest.mark.parametrize("args", SUBCOMMAND_RUNS, ids=" ".join)
def test_failing_stdout_write_exits_2_with_one_line(capsys, monkeypatch, args):
    argv = [*args, "--matrix", str(DATA / "golden.txt")]
    writes = []
    with monkeypatch.context() as patch:
        patch.setattr(sys.stdout, "write", writes.append)
        assert main(argv) == 0
    capsys.readouterr()
    # the first, a middle and the last write fail, into a stdout that is
    # also closed: what the writes before it left in the buffer must not
    # fail the flush at exit
    for stop in sorted({1, (len(writes) + 1) // 2, len(writes)}):
        code, err = _closed_pipe_run([sys.executable, "-c", FAILING_WRITE, str(stop), *argv], False)
        assert (code, err) == (2, "error: [Errno 5] Input/output error\n"), stop


def _parser_surface(parser: argparse.ArgumentParser) -> dict:
    """Every subcommand's help, handler name and argparse actions as plain
    data; the actions, not the --help text, whose layout differs between
    Python versions."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        "prog": parser.prog,
        "description": parser.description,
        "commands": {
            name: {
                "help": helps[name],
                "handler": sp.get_default("func").__name__,
                "arguments": [
                    {
                        "option_strings": a.option_strings,
                        "dest": a.dest,
                        "default": a.default,
                        "required": a.required,
                        "choices": None if a.choices is None else list(a.choices),
                        "type": None if a.type is None else a.type.__name__,
                        "nargs": a.nargs,
                        "help": a.help,
                    }
                    for a in sp._actions
                ],
            }
            for name, sp in sub.choices.items()
        },
    }


PINNED_SURFACE = json.loads((DATA / "cli_arguments.json").read_text())


def test_every_subcommand_argument_is_pinned():
    assert _parser_surface(cli.build_parser()) == PINNED_SURFACE


@pytest.mark.parametrize("command", list(PINNED_SURFACE["commands"]))
def test_patched_handler_is_the_one_that_runs(capsys, monkeypatch, golden_file, command):
    calls = []
    handler = PINNED_SURFACE["commands"][command]["handler"]
    monkeypatch.setattr(cli, handler, lambda args: calls.append(args.command) or 0)
    argv = [command, "--matrix", golden_file]
    if command == "words":
        argv += ["--k-max", "1"]
    assert run(capsys, argv) == (0, "", "")
    assert calls == [command]


def _contract_matrices():
    """Seeded matrices of every kind the subcommands meet: primitive,
    periodic, permutations, reducible, near-cycles, integer entries above 1,
    and a zero row."""
    rng = seeded(713)
    rows = [GOLDEN_ROWS, FULL3_ROWS, PERM2_ROWS, RANDOM3_ROWS, [[1, 0], [0, 1]],
            cycle_with_loop(12)]
    rows += [random_transition_rows(rng, rng.randrange(2, 6)) for _ in range(4)]
    mats = [random_irreducible(rng, 5), periodic_irreducible(rng, 6, 3),
            cyclic_permutation(rng, 4), sparse_irreducible(rng, 9)]
    rows += [[list(r) for r in m.entries] for m in mats]
    rows += [[[2]], [[0, 2], [1, 0]], [[1, 1], [0, 0]]]
    return rows


CONTRACT_RUNS = [
    ["validate"],
    ["validate", "--format", "json"],
    ["validate", "--format", "csv"],
    ["entropy", "--k-max", "2000"],
    ["entropy", "--format", "json", "--base", "bits"],
    ["entropy", "--k-max", "1"],
    ["entropy", "--k-max", "0", "--format", "json"],
    ["words", "--k-max", "3", "--format", "csv"],
    ["words", "--k-max", "2000"],
    ["parry", "--format", "json"],
    ["dual"],
    ["convergence", "--k-max", "300", "--format", "csv"],
    ["convergence", "--k-max", "1"],
    ["verify-ck"],
    ["verify-ck", "--inject-fault"],
    ["verify-lemma2", "--n0", "1", "--n", "2", "--format", "json"],
    ["verify-lemma2", "--n0", "1", "--n", "1", "--inject-fault"],
]


@pytest.mark.parametrize("argv", CONTRACT_RUNS, ids=" ".join)
def test_exit_contract_over_seeded_matrices(capsys, tmp_path, argv):
    """Every run exits 0 or 2, and 1 only under --inject-fault; on exit 2
    stderr is exactly one error line, and otherwise it holds only warnings,
    never a traceback."""
    fault = "--inject-fault" in argv
    for k, rows in enumerate(_contract_matrices()):
        path = tmp_path / f"m{k}.txt"
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, err = run(capsys, [argv[0], "--matrix", str(path), *argv[1:]])
        assert code in ((1, 2) if fault else (0, 2)), (rows, code, err)
        lines = err.splitlines()
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), (rows, err)
        else:
            assert all(line.startswith("warning: ") for line in lines), (rows, err)
        if code == 1:
            assert json.loads(out)["failures"]
