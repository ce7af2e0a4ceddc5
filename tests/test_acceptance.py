"""Acceptance suite: one test per criterion, each printing a pass line and
asserting its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import math
import time

import numpy as np

from ckshift import (
    CuntzKriegerAlgebra,
    dual_matrix,
    markov_entropy,
    parry_measure,
    partition_entropy,
    spectral_radius,
    validate,
    validate_int,
    verify_relations,
    verify_witness_decomposition,
    word_count,
)
from ckshift.cli import main as cli_main
from ckshift.matrix import MatrixError

from conftest import (
    GOLDEN_ROWS,
    RANDOM3_ROWS,
    closure_strongly_connected,
    enum_count,
    random_degree_zero,
    random_irreducible,
    random_monomial,
    seeded,
    sparse_irreducible,
)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def report(number, description, elapsed, budget):
    print(f"ACCEPTANCE {number:2d} PASS  {description}  ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget


def ratio_estimate(mat, k):
    return math.log(word_count(mat, k + 1)) - math.log(word_count(mat, k))


def test_01_full_matrix_entropy_routes():
    start = time.perf_counter()
    for n in (2, 3, 4):
        mat = validate([[1] * n for _ in range(n)])
        target = math.log(n)
        assert abs(math.log(spectral_radius(mat).radius) - target) <= 1e-9
        assert abs(markov_entropy(parry_measure(mat)) - target) <= 1e-9
        assert abs(ratio_estimate(mat, 30) - target) <= 1e-9
    report(1, "full-matrix entropy routes agree with log N", time.perf_counter() - start, 1)


def test_02_golden_mean_triple_agreement():
    start = time.perf_counter()
    mat = validate(GOLDEN_ROWS)
    assert abs(math.log(spectral_radius(mat).radius) - LOG_PHI) <= 1e-8
    assert abs(markov_entropy(parry_measure(mat)) - LOG_PHI) <= 1e-8
    assert abs(ratio_estimate(mat, 30) - LOG_PHI) <= 1e-8
    report(2, "golden-mean entropy routes agree with log phi", time.perf_counter() - start, 1)


def test_03_cross_check_at_scale():
    start = time.perf_counter()
    rng = seeded(401)
    for _ in range(20):
        n = rng.randrange(2, 9)
        mat = random_irreducible(rng, n, density=rng.uniform(0.3, 0.7), force_loop=True)
        target = math.log(spectral_radius(mat).radius)
        assert abs(markov_entropy(parry_measure(mat)) - target) <= 1e-8
        assert abs(ratio_estimate(mat, 200) - target) <= 1e-3
    report(3, "entropy cross-check on 20 random matrices (n <= 8)", time.perf_counter() - start, 10)


def test_04_word_count_against_enumeration():
    start = time.perf_counter()
    rng = seeded(402)
    matrices = [
        validate(GOLDEN_ROWS),
        validate([[0, 1], [1, 0]]),
        validate(RANDOM3_ROWS),
        sparse_irreducible(rng, 4),
        sparse_irreducible(rng, 5),
        sparse_irreducible(rng, 6),
    ]
    for mat in matrices:
        for k in range(1, 13):
            assert word_count(mat, k) == enum_count(mat, k)
    report(4, "word counts match exhaustive enumeration (n <= 6, k <= 12)", time.perf_counter() - start, 10)


def test_05_dual_matrix_identities():
    start = time.perf_counter()
    rng = seeded(403)
    done = 0
    while done < 20:
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(0, 4) for _ in range(n)] for _ in range(n)]
        try:
            mat = validate_int(rows)
        except MatrixError:
            continue
        support = [[1 if v else 0 for v in row] for row in rows]
        if not closure_strongly_connected(support):
            continue
        dual = dual_matrix(mat)
        s = np.array([list(r) for r in dual.s_factor], dtype=object)
        t = np.array([list(r) for r in dual.t_factor], dtype=object)
        assert (s @ t).tolist() == [list(r) for r in mat.entries]
        assert (t @ s).tolist() == [list(r) for r in dual.a_prime.entries]
        oracle = max(abs(np.linalg.eigvals(np.array(rows, dtype=float))))
        assert abs(spectral_radius(dual.a_prime).radius - oracle) <= 1e-8
        done += 1
    report(5, "dual factorization exact, radius preserved (20 matrices)", time.perf_counter() - start, 5)


def test_06_relation_suite():
    start = time.perf_counter()
    rng = seeded(404)
    matrices = [
        validate(GOLDEN_ROWS),
        validate([[1, 1], [1, 1]]),
        validate([[1] * 3 for _ in range(3)]),
        random_irreducible(rng, 3),
    ]
    for mat in matrices:
        rep = verify_relations(CuntzKriegerAlgebra(mat))
        assert rep.ok, rep.failures[:3]
    report(6, "generator relation suite exact on four matrices", time.perf_counter() - start, 10)


def test_07_witness_decomposition():
    start = time.perf_counter()
    rng = seeded(405)
    runs = [
        (validate(GOLDEN_ROWS), 2, 2),
        (validate([[1, 1], [1, 1]]), 2, 2),
        (random_irreducible(rng, 3), 1, 2),
    ]
    for mat, n0, n in runs:
        rep = verify_witness_decomposition(CuntzKriegerAlgebra(mat), n0, n)
        assert rep.ok, rep.failures[:3]
        assert rep.params["m"] == n0 + n
    # spot-check the partial-isometry identity directly on one family
    alg = CuntzKriegerAlgebra(validate(GOLDEN_ROWS))
    for blocks in (
        alg.witness_blocks((1, 1), (2,), 1, 1, 4),
        alg.witness_blocks((1,), (1,), 2, 0, 3),
    ):
        for block in blocks.values():
            assert np.array_equal(block @ block.T @ block, block)
    report(7, "witness decompositions verified exactly", time.perf_counter() - start, 60)


def test_08_block_embedding_homomorphism():
    start = time.perf_counter()
    rng = seeded(406)
    setups = [
        (CuntzKriegerAlgebra(validate(GOLDEN_ROWS)), 3),
        (CuntzKriegerAlgebra(validate([[1, 1], [1, 1]])), 2),
        (CuntzKriegerAlgebra(validate([[1] * 3 for _ in range(3)])), 2),
        (CuntzKriegerAlgebra(validate(RANDOM3_ROWS)), 2),
    ]
    for alg, m in setups:
        for _ in range(100):
            x = random_monomial(alg, rng, max_len=2)
            y = random_monomial(alg, rng, max_len=2)
            lhs = alg.block_embedding(m, x) * alg.block_embedding(m, y)
            assert lhs.equals(alg.block_embedding(m, x * y))
        for depth in range(1, m + 1):
            bm = alg.block_embedding(depth, alg.identity)
            entries = bm.entries
            for r, row_word in enumerate(bm.index):
                for c in range(len(bm.index)):
                    if r == c:
                        assert entries[r][c] == alg.q(row_word[-1])
                    else:
                        assert entries[r][c].is_zero
    report(8, "block embedding is a *-homomorphism with diagonal unit image", time.perf_counter() - start, 30)


def test_09_oracle_equivalence():
    start = time.perf_counter()
    rng = seeded(407)
    algebras = [
        CuntzKriegerAlgebra(validate(GOLDEN_ROWS)),
        CuntzKriegerAlgebra(validate([[1, 1], [1, 1]])),
        CuntzKriegerAlgebra(validate([[1] * 3 for _ in range(3)])),
        CuntzKriegerAlgebra(validate(RANDOM3_ROWS)),
    ]
    for alg in algebras:
        equal_seen = unequal_seen = 0
        for _ in range(200):
            x = random_degree_zero(alg, rng, max_depth=3)
            if rng.random() < 0.5:
                y = x.refined(rng.randrange(3, 5))
            else:
                y = x + random_degree_zero(alg, rng, max_depth=3, terms=1)
            same = alg.equal(x, y)
            assert same == (alg.af_blocks(x, 4) == alg.af_blocks(y, 4))
            equal_seen += same
            unequal_seen += not same
        assert equal_seen and unequal_seen
    report(9, "equality decision agrees with the block oracle (200 pairs each)", time.perf_counter() - start, 30)


def test_10_partition_entropy_increments():
    start = time.perf_counter()
    pd = parry_measure(validate(GOLDEN_ROWS))
    h = markov_entropy(pd)
    values = [partition_entropy(pd, n) for n in range(1, 12)]
    for n in range(1, 11):
        assert abs((values[n] - values[n - 1]) - h) <= 1e-9
    report(10, "partition-entropy increments equal the entropy rate", time.perf_counter() - start, 5)


def test_11_mutation_sensitivity(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "golden.txt"
    path.write_text("1 1\n1 0\n")
    code_w = cli_main(
        ["verify-lemma2", "--matrix", str(path), "--n0", "1", "--n", "1", "--inject-fault"]
    )
    code_r = cli_main(["verify-ck", "--matrix", str(path), "--inject-fault"])
    capsys.readouterr()
    assert code_w == 1
    assert code_r == 1
    # the untampered runs still pass
    assert cli_main(["verify-lemma2", "--matrix", str(path), "--n0", "1", "--n", "1"]) == 0
    assert cli_main(["verify-ck", "--matrix", str(path)]) == 0
    capsys.readouterr()
    report(11, "corrupted witness or relation coefficient exits 1", time.perf_counter() - start, 10)
