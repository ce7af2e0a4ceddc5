"""The benchmark's four workloads as lists of jobs.

A job is one call a user would make: a library call or one CLI invocation.
Each job carries the layer it stresses, the ROADMAP open item it guards, why
it is in the workload, its input sizes, and a check against an independent
reference from ``references``.

Inputs come from ``random.Random(seed)``.  The structure of each random
matrix is drawn once from a fixed layout seed and the run's seed relabels
its states: where three chords land on a 120-cycle changes the cost of the
count jobs by up to 2x, so a layout per run seed would make the workload's
size, not the program, the largest source of spread between runs.

Known defects (the 2-cycle at depth or word length 2000, a RecursionError)
are jobs too, flagged ``known_defect``; ``build`` includes them only when
asked, because the timed workloads must run without failing operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import ckshift as cs
from ckshift import cli as ck_cli

import references as ref

GOLDEN = [[1, 1], [1, 0]]
FULL2 = [[1, 1], [1, 1]]
FULL3 = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
CYCLE2 = [[0, 1], [1, 0]]

CLI_TIMEOUT_S = 150


@dataclass
class Job:
    name: str
    layer: str
    guards: str
    why: str
    sizes: dict
    call: Callable[[], Any]
    reference: Callable[[], Any]
    check: Callable[[Any, Any], "str | None"]
    counts: Callable[[Any], dict] = field(default=lambda out: {})
    known_defect: bool = False
    # the speed probe whose time this job's follows (speed.py)
    probe: str = "python"


# -- seeded inputs -----------------------------------------------------------


def chord_cycle(n: int, chords: int, rng: random.Random) -> list[list[int]]:
    """n-cycle 1 -> 2 -> ... -> n -> 1 plus random chords and one self-loop:
    irreducible through the cycle, primitive through the loop."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    added = 0
    while added < chords:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and not rows[i][j]:
            rows[i][j] = 1
            added += 1
    loop = rng.randrange(n)
    rows[loop][loop] = 1
    return rows


def cycle_with_loop(n: int) -> list[list[int]]:
    rows = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    rows[0][0] = 1
    return rows


def random_primitive(n: int, ones: int, rng: random.Random) -> list[list[int]]:
    """Seeded 0/1 matrix with exactly ``ones`` ones, strongly connected and
    with a self-loop (hence primitive)."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    while True:
        rows = [[0] * n for _ in range(n)]
        for i, j in rng.sample(cells, ones):
            rows[i][j] = 1
        if any(rows[i][i] for i in range(n)) and ref.is_strongly_connected(rows):
            return rows


def random_int_matrix(n: int, rng: random.Random) -> list[list[int]]:
    """Seeded nonnegative integer matrix, entries 0..3, no zero row or column."""
    while True:
        rows = [[rng.randrange(4) for _ in range(n)] for _ in range(n)]
        if all(any(r) for r in rows) and all(any(c) for c in zip(*rows)):
            return rows


def relabel(rows, rng: random.Random) -> list[list[int]]:
    """P A P^T for a seeded permutation P: the same graph, states renamed."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[i][j] for j in perm] for i in perm]


def write_matrix(path: str, rows) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    return path


# -- shared checks -----------------------------------------------------------


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1][:200] if lines else ""


def expect_equal(out, want) -> "str | None":
    return None if out == want else f"got {out!r:.80}, expected {want!r:.80}"


def expect_close(rel: float):
    def check(out, want):
        return None if ref.close(out, want, rel) else f"got {out!r}, expected {want!r}"

    return check


def check_estimates(report, want) -> "str | None":
    counts, log_r = want
    k_max = len(counts) - 1
    if len(report.rows) != k_max:
        return f"{len(report.rows)} rows, expected {k_max}"
    for row in report.rows:
        wk, wk1 = counts[row.k - 1], counts[row.k]
        if row.count != wk:
            return f"w({row.k}) = {row.count}, expected {wk}"
        if not ref.close(row.growth, math.log(wk) / row.k, 1e-12):
            return f"eq3 at k={row.k} is {row.growth}"
        if not ref.close(row.ratio, math.log(wk1) - math.log(wk), 1e-9):
            return f"ratio at k={row.k} is {row.ratio}"
    if report.target is None or not ref.close(report.target, log_r, 1e-9):
        return f"target {report.target}, expected {log_r}"
    return None


def check_verdict(report, want) -> "str | None":
    """``want`` is (ok, cases, failures); for a faulted run ``failures`` is
    the exact number of failures the injected fault must produce."""
    ok, cases, failures = want
    if report.ok != ok:
        return f"ok={report.ok}, expected ok={ok}"
    if report.cases != cases:
        return f"{report.cases} cases, expected {cases}"
    if len(report.failures) != failures or report.passed != cases - failures:
        return f"{len(report.failures)} failures and {report.passed} passed, expected {failures} failures"
    return None


def verdict_counts(report) -> dict:
    return {"cases": report.cases, "failures": len(report.failures)}


# -- workloads ---------------------------------------------------------------


def entropy_sparse(seed: int, smoke: bool, **_) -> list[Job]:
    rng = random.Random(seed)
    n, k_max, k, cyc, depth = (12, 10, 30, 20, 6) if smoke else (120, 80, 1000, 200, 20)
    jobs = []
    for g in (1, 2):
        rows = relabel(chord_cycle(n, 3, random.Random(g)), rng)
        mat = cs.validate(rows)
        counts = lambda rows=rows, k=max(k, k_max + 1): ref.word_counts(rows, k)
        log_r = lambda rows=rows: math.log(ref.perron_root(rows))
        sizes = {"n": n, "edges": sum(map(sum, rows))}
        jobs += [
            Job(
                f"entropy_estimates.sparse{g}", "sft+matrix", "ROADMAP 3",
                "full n x n powers where only row sums are needed; the vector "
                "recurrence should remove them",
                {**sizes, "k_max": k_max},
                lambda mat=mat: cs.entropy_estimates(mat, k_max),
                lambda c=counts, l=log_r: (c()[: k_max + 1], l()),
                check_estimates,
                lambda r: {"rows": len(r.rows), "max_bits": r.rows[-1].count.bit_length()},
            ),
            Job(
                f"word_count.sparse{g}", "matrix", "ROADMAP 3",
                "O(n^3 log k) bigint squaring of a sparse matrix",
                {**sizes, "k": k},
                lambda mat=mat: cs.word_count(mat, k),
                lambda c=counts: c()[k - 1],
                expect_equal,
                lambda w: {"bits": w.bit_length()},
            ),
            Job(
                f"markov_entropy.sparse{g}", "sft+matrix", "ROADMAP 5",
                "Parry measure from power iteration on a near-cycle with a small "
                "spectral gap",
                sizes,
                lambda mat=mat: cs.markov_entropy(cs.parry_measure(mat)),
                log_r,
                expect_close(1e-9),
            ),
        ]
    loop = cs.validate(cycle_with_loop(cyc))
    golden_pd = cs.parry_measure(cs.validate(GOLDEN))
    jobs += [
        Job(
            "spectral_radius.cycle_loop", "matrix", "ROADMAP 5",
            "plain power iteration needs ~4e4 steps on a long cycle with one loop",
            {"n": cyc},
            lambda: cs.spectral_radius(loop),
            lambda: ref.cycle_loop_root(cyc),
            lambda out, want: expect_close(1e-9)(out.radius, want),
            lambda p: {"iterations": p.iterations},
        ),
        Job(
            "partition_entropy.golden", "sft", "ROADMAP 3",
            "enumerates every word of the depth-n partition; a closed form exists",
            {"n": 2, "depth": depth},
            lambda: cs.partition_entropy(golden_pd, depth),
            lambda: ref.golden_partition_entropy(depth),
            expect_close(1e-9),
        ),
    ]
    cycle_pd = cs.parry_measure(cs.validate(CYCLE2))
    jobs.append(
        Job(
            "partition_entropy.cycle2_deep", "sft", "ROADMAP 3",
            "known defect: recursive enumeration hits RecursionError at depth 2000",
            {"n": 2, "depth": 2000},
            lambda: cs.partition_entropy(cycle_pd, 2000),
            lambda: math.log(2.0),
            expect_close(1e-9),
            known_defect=True,
        )
    )
    return jobs


def count_deep(seed: int, smoke: bool, **_) -> list[Job]:
    rng = random.Random(seed)
    k3, kg, k8, k12, kee = (200, 300, 400, 100, 30) if smoke else (200_000, 300_000, 40_000, 10_000, 300)
    r8 = relabel(random_primitive(8, 32, random.Random(8)), rng)
    r12 = relabel(random_primitive(12, 72, random.Random(12)), rng)
    full3, golden = cs.validate(FULL3), cs.validate(GOLDEN)
    m8, m12 = cs.validate(r8), cs.validate(r12)
    why = "small dense matrix at very deep k, where repeated squaring wins"
    bits = lambda w: {"bits": w.bit_length()}

    def count_job(name, mat, k, reference, sizes):
        return Job(
            name, "matrix", "ROADMAP 3 (must not slow)", why, {**sizes, "k": k},
            lambda: cs.word_count(mat, k), reference, expect_equal, bits, probe="bigint",
        )

    return [
        count_job("word_count.full3", full3, k3, lambda: 3**k3, {"n": 3}),
        count_job("word_count.golden", golden, kg, lambda: ref.fibonacci(kg + 2), {"n": 2}),
        count_job("word_count.random8", m8, k8, lambda: ref.word_count(r8, k8),
                  {"n": 8, "edges": 32}),
        count_job("word_count.random12", m12, k12, lambda: ref.word_count(r12, k12),
                  {"n": 12, "edges": 72}),
        Job(
            "entropy_estimates.random12", "sft+matrix", "ROADMAP 3 (must not slow)",
            "estimator table over a dense matrix, where full powers cost little",
            {"n": 12, "edges": 72, "k_max": kee},
            lambda: cs.entropy_estimates(m12, kee),
            lambda: (ref.word_counts(r12, kee + 1), math.log(ref.perron_root(r12))),
            check_estimates,
            lambda r: {"rows": len(r.rows), "max_bits": r.rows[-1].count.bit_length()},
        ),
    ]


def verify_lemma2(seed: int, smoke: bool, **_) -> list[Job]:
    rng = random.Random(seed)
    r3 = relabel(random_primitive(3, 6, random.Random(3)), rng)
    grids = {"full3": FULL3, "golden": GOLDEN, "random3": r3, "full2": FULL2}
    algs = {name: cs.CuntzKriegerAlgebra(cs.validate(rows)) for name, rows in grids.items()}
    if smoke:
        plan = [("full3", 1, 1), ("golden", 2, 1), ("random3", 1, 1), ("full2", 1, 1)]
        relations = "full2"
    else:
        plan = [("full3", 2, 2), ("golden", 3, 3), ("random3", 2, 2), ("full2", 3, 2)]
        relations = "full3"
    jobs = []
    for name, n0, n in plan:
        rows = grids[name]
        jobs.append(Job(
            f"verify_witness.{name}.{n0}.{n}", "ck", "ROADMAP 4",
            "dense w x w witness blocks and w^2 equal calls per case, almost all "
            "zero against zero",
            {"n": len(rows), "n0": n0, "nn": n, "w": ref.word_counts(rows, n0 + n)[-1]},
            lambda alg=algs[name], n0=n0, n=n: cs.verify_witness_decomposition(alg, n0, n),
            lambda rows=rows, n0=n0, n=n: (True, ref.witness_cases(rows, n0, n), 0),
            check_verdict, verdict_counts,
        ))
    jobs += [
        Job(
            "verify_witness.full3.1.2.fault", "ck", "ROADMAP 4",
            "the failure path: one matrix unit removed gives exactly one mismatch",
            {"n": 3, "n0": 1, "nn": 2, "w": 27},
            lambda: cs.verify_witness_decomposition(algs["full3"], 1, 2, inject_fault=True),
            lambda: (False, ref.witness_cases(FULL3, 1, 2), 1),
            check_verdict, verdict_counts,
        ),
        Job(
            f"verify_relations.{relations}", "ck", "ROADMAP 4",
            "defining relations: products and equal over all words up to length 4",
            {"n": len(grids[relations])},
            lambda: cs.verify_relations(algs[relations]),
            lambda: (True, ref.relation_cases(grids[relations]), 0),
            check_verdict, verdict_counts,
        ),
        Job(
            "verify_relations.random3.fault", "ck", "ROADMAP 4",
            "the relation suite's failure path on a seeded matrix",
            {"n": 3},
            lambda: cs.verify_relations(algs["random3"], inject_fault=True),
            lambda: (False, ref.relation_cases(r3), 1),
            check_verdict, verdict_counts,
        ),
    ]
    return jobs


def cli_runner(inprocess: bool) -> Callable[[list], tuple]:
    """Returns run(argv) -> (exit code, stdout, stderr).  A subprocess per
    call by default; in-process through ``ckshift.cli.main`` for the traced
    run, so the cli layer's own time separates from the library beneath."""

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ck_cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def subproc(argv):
        done = subprocess.run(
            [sys.executable, "-m", "ckshift", *argv],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        return done.returncode, done.stdout, done.stderr

    return in_process if inprocess else subproc


def cli_session(seed: int, smoke: bool, workdir: str, inprocess: bool = False) -> list[Job]:
    rng = random.Random(seed)
    n, chords, ones, k_ent, k_conv, k_words, lemma = (
        (8, 2, 24, 8, 8, 6, (1, 1)) if smoke else (50, 5, 250, 60, 60, 16, (3, 3))
    )
    sparse = relabel(chord_cycle(n, chords, random.Random(50)), rng)
    dense = relabel(random_primitive(n, ones, random.Random(51)), rng)
    intm = random_int_matrix(3, rng)
    zero_row = [[1, 1, 0], [0, 0, 0], [1, 0, 1]]
    paths = {
        name: write_matrix(os.path.join(workdir, f"{name}.txt"), rows)
        for name, rows in [
            ("sparse", sparse), ("dense", dense), ("int3", intm), ("golden", GOLDEN),
            ("full3", FULL3), ("cycle2", CYCLE2), ("zero_row", zero_row),
        ]
    }
    run = cli_runner(inprocess)
    guards = "ROADMAP 2"

    def job(name, argv, reference, check, why, sizes, *, guards=guards, known_defect=False):
        return Job(
            f"cli.{name}", "cli", guards, why, sizes, lambda: run(argv), reference, check,
            lambda res: {"exit": res[0], "stdout_bytes": len(res[1])},
            known_defect=known_defect,
        )

    def ok_json(check):
        def wrapped(res, want):
            code, out, err = res
            if code != 0:
                return f"exit {code}: {last_line(err)}"
            return check(json.loads(out), want)

        return wrapped

    def lines_are(res, want):
        code, out, err = res
        if code != 0:
            return f"exit {code}: {last_line(err)}"
        return None if out.splitlines() == want else "word list differs"

    def exit_with(code_want, stream):
        def check(res, want):
            code, out, err = res
            if code != code_want:
                return f"exit {code}, expected {code_want}"
            text = (out if stream == "stdout" else err).strip()
            return None if text == want else f"{stream} was {text[:80]!r}"

        return check

    def check_entropy(obj, want):
        log_r, counts = want
        for key, val in (("log_radius", log_r), ("markov_entropy", log_r),
                         ("eq3", math.log(counts[-2]) / k_ent),
                         ("ratio", math.log(counts[-1]) - math.log(counts[-2]))):
            if not ref.close(float(obj[key]), val, 1e-9):
                return f"{key} = {obj[key]}, expected {val}"
        return None

    def check_parry(obj, want):
        lam, stochastic, stationary = want
        if not ref.close(float(obj["radius"]), lam, 1e-9):
            return f"radius {obj['radius']}, expected {lam}"
        got_p = [[float(x) for x in row] for row in obj["stochastic"]]
        got_pi = [float(x) for x in obj["stationary"]]
        if max(abs(a - b) for ra, rb in zip(got_p, stochastic) for a, b in zip(ra, rb)) > 1e-8:
            return "stochastic matrix differs"
        if max(abs(a - b) for a, b in zip(got_pi, stationary)) > 1e-8:
            return "stationary vector differs"
        if not ref.close(float(obj["markov_entropy"]), math.log(lam), 1e-9):
            return "markov entropy differs from log r"
        return None

    def check_dual(obj, want):
        s, t, a_prime = obj["s"], obj["t"], obj["a_prime"]
        if ref.int_matmul(s, t) != want:
            return "S T differs from M"
        if ref.int_matmul(t, s) != a_prime:
            return "T S differs from A'"
        if obj["edge_count"] != sum(map(sum, want)):
            return "edge count differs from the entry sum of M"
        return None

    def check_convergence(obj, want):
        counts, log_r = want
        n0 = obj["n0"]
        if not ref.close(float(obj["target"]), log_r, 1e-9):
            return f"target {obj['target']}, expected {log_r}"
        for row in obj["rows"]:
            k = row["k"]
            if int(row["w_k"]) != counts[k - 1]:
                return f"w({k}) differs"
            witness = math.log(counts[k + n0 - 1]) / k
            if not ref.close(float(row["witness"]), witness, 1e-12):
                return f"witness at k={k} is {row['witness']}, expected {witness}"
        return None if len(obj["rows"]) == k_conv else "row count differs"

    def check_fault(res, want):
        code, out, _ = res
        if code != 1:
            return f"exit {code}, expected 1"
        report = json.loads(out)
        if len(report["failures"]) != 1 or report["cases"] != want:
            return f"{len(report['failures'])} failures over {report['cases']} cases"
        return None

    n0, nn = lemma
    return [
        job("validate", ["validate", "--format", "json", "--matrix", paths["sparse"]],
            lambda: {"n": n, "irreducible": ref.is_strongly_connected(sparse),
                     "permutation": all(sum(r) == 1 for r in sparse + list(zip(*sparse)))},
            ok_json(expect_equal), "parse and validate only; start-up dominates",
            {"n": n}),
        job("entropy", ["entropy", "--format", "json", "--k-max", str(k_ent),
                        "--matrix", paths["sparse"]],
            lambda: (math.log(ref.perron_root(sparse)), ref.word_counts(sparse, k_ent + 1)),
            ok_json(check_entropy), "three entropy routes on a sparse matrix",
            {"n": n, "k_max": k_ent}, guards="ROADMAP 3, 5"),
        job("parry", ["parry", "--format", "json", "--matrix", paths["sparse"]],
            lambda: ref.parry_reference(sparse),
            ok_json(check_parry), "Parry measure with JSON of n^2 probabilities",
            {"n": n}, guards="ROADMAP 5"),
        job("dual", ["dual", "--format", "json", "--matrix", paths["int3"]],
            lambda: intm, ok_json(check_dual), "edge-matrix factorization",
            {"n": 3, "edges": sum(map(sum, intm))}),
        job("words", ["words", "--format", "csv", "--k-max", str(k_words),
                      "--matrix", paths["golden"]],
            lambda: [",".join(map(str, w)) for w in ref.admissible_words(GOLDEN, k_words)],
            lines_are, "word listing through the recursive enumerator",
            {"n": 2, "k": k_words}, guards="ROADMAP 3"),
        job("convergence", ["convergence", "--format", "json", "--k-max", str(k_conv),
                            "--matrix", paths["dense"]],
            lambda: (ref.word_counts(dense, k_conv + 2), math.log(ref.perron_root(dense))),
            ok_json(check_convergence),
            "witness column re-squares word_count once per row",
            {"n": n, "edges": ones, "k_max": k_conv}, guards="ROADMAP 3"),
        job("verify-ck", ["verify-ck", "--matrix", paths["full3"]],
            lambda: f"all {ref.relation_cases(FULL3)} cases passed",
            exit_with(0, "stdout"), "relation suite end to end", {"n": 3},
            guards="ROADMAP 4"),
        job("verify-lemma2", ["verify-lemma2", "--n0", str(n0), "--n", str(nn),
                              "--matrix", paths["golden"]],
            lambda: f"all {ref.witness_cases(GOLDEN, n0, nn)} cases passed",
            exit_with(0, "stdout"), "witness verifier end to end",
            {"n": 2, "n0": n0, "nn": nn}, guards="ROADMAP 4"),
        job("verify-lemma2.fault", ["verify-lemma2", "--n0", "1", "--n", "2",
                                    "--inject-fault", "--matrix", paths["full3"]],
            lambda: ref.witness_cases(FULL3, 1, 2), check_fault,
            "a mismatch must exit 1 with exactly one reported failure",
            {"n": 3, "n0": 1, "nn": 2}, guards="ROADMAP 2, 4"),
        job("zero-row", ["validate", "--matrix", paths["zero_row"]],
            lambda: "error: row 2 is zero", exit_with(2, "stderr"),
            "invalid input must exit 2 with a one-line error", {"n": 3}),
        job("words.cycle2_deep", ["words", "--k-max", "2000", "--matrix", paths["cycle2"]],
            lambda: [" ".join(map(str, ([1, 2] * 1001)[s:s + 2000])) for s in (0, 1)],
            lines_are, "known defect: RecursionError, exit 1 with a traceback",
            {"n": 2, "k": 2000}, guards="ROADMAP 2, 3", known_defect=True),
    ]


BUILDERS = {
    "entropy-sparse": entropy_sparse,
    "count-deep": count_deep,
    "verify-lemma2": verify_lemma2,
    "cli-session": cli_session,
}


def build(name: str, seed: int, *, smoke: bool = False, known_defects: bool = False,
          workdir: str = ".", inprocess: bool = False) -> list[Job]:
    jobs = BUILDERS[name](seed, smoke, workdir=workdir, inprocess=inprocess)
    return [j for j in jobs if known_defects or not j.known_defect]
