"""Shared fixtures: canonical test matrices, seeded generators, and
independent brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from ckshift import CuntzKriegerAlgebra, validate

GOLDEN_ROWS = [[1, 1], [1, 0]]
FULL2_ROWS = [[1, 1], [1, 1]]
FULL3_ROWS = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
PERM2_ROWS = [[0, 1], [1, 0]]
# fixed irreducible non-permutation 3x3 used wherever one is called for
RANDOM3_ROWS = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.fixture(scope="session")
def golden_mean():
    return validate(GOLDEN_ROWS)


@pytest.fixture(scope="session")
def full2():
    return validate(FULL2_ROWS)


@pytest.fixture(scope="session")
def full3():
    return validate(FULL3_ROWS)


@pytest.fixture(scope="session")
def perm2():
    return validate(PERM2_ROWS)


@pytest.fixture(scope="session")
def random3():
    return validate(RANDOM3_ROWS)


@pytest.fixture(scope="session")
def golden_alg(golden_mean):
    return CuntzKriegerAlgebra(golden_mean)


@pytest.fixture(scope="session")
def full2_alg(full2):
    return CuntzKriegerAlgebra(full2)


@pytest.fixture(scope="session")
def full3_alg(full3):
    return CuntzKriegerAlgebra(full3)


@pytest.fixture(scope="session")
def random3_alg(random3):
    return CuntzKriegerAlgebra(random3)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def product_count(mat, k):
    """Word count by filtering the full cartesian product (tiny cases only)."""
    n = mat.n
    count = 0
    for word in itertools.product(range(1, n + 1), repeat=k):
        if all(mat.entry(a, b) for a, b in zip(word, word[1:])):
            count += 1
    return count


def enum_count(mat, k):
    """Word count by explicit depth-first enumeration of admissible words."""
    succ = mat.successors

    def rec(sym, depth):
        if depth == k:
            return 1
        return sum(rec(j, depth + 1) for j in succ[sym - 1])

    return sum(rec(i, 1) for i in range(1, mat.n + 1))


def enum_partition_entropy(pd, n):
    """Depth-n partition entropy by explicit depth-first enumeration of the
    admissible words, summing -mu log mu over their cylinders."""
    succ = [[j for j, p in enumerate(row) if p > 0.0] for row in pd.stochastic]

    def rec(sym, prob, depth):
        if depth == n:
            return -prob * math.log(prob)
        return sum(rec(j, prob * pd.stochastic[sym][j], depth + 1) for j in succ[sym])

    return sum(rec(i, p, 1) for i, p in enumerate(pd.stationary))


def closure_strongly_connected(rows):
    """Strong connectivity via boolean transitive closure (Warshall)."""
    n = len(rows)
    reach = [[bool(rows[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return all(reach[i][j] for i in range(n) for j in range(n) if i != j)


# ---------------------------------------------------------------------------
# seeded random generators
# ---------------------------------------------------------------------------


def random_transition_rows(rng, n, density=0.5):
    """Random valid 0/1 rows (no zero row or column)."""
    while True:
        rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if not any(rows[i]):
                rows[i][rng.randrange(n)] = 1
        for j in range(n):
            if not any(rows[i][j] for i in range(n)):
                rows[rng.randrange(n)][j] = 1
        return rows


def random_irreducible(rng, n, density=0.5, force_loop=False):
    """Seeded irreducible transition matrix; ``force_loop`` pins one diagonal
    entry, which makes an irreducible matrix primitive."""
    while True:
        rows = random_transition_rows(rng, n, density)
        if force_loop:
            rows[rng.randrange(n)][rng.randrange(n)] = 1  # keep it random-looking
            i = rng.randrange(n)
            rows[i][i] = 1
        if closure_strongly_connected(rows):
            mat = validate(rows)
            if not all(sum(r) == 1 for r in rows):
                return mat


def sparse_irreducible(rng, n, extra_edges=2):
    """Cycle plus a few random chords: irreducible with slow word growth."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    for _ in range(extra_edges):
        rows[rng.randrange(n)][rng.randrange(n)] = 1
    return validate(rows)


def chord_cycle(n, chords, rng):
    """Rows of the n-cycle 1 -> 2 -> ... -> n -> 1 plus ``chords`` distinct
    random chords and one random loop: the layout of the benchmark's sparse
    matrices, drawn in the same order, so ``chord_cycle(120, 3, seeded(1))``
    is its first 120-state chord cycle before the states are renamed."""
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


def cycle_with_loop(n):
    """Rows of the n-cycle 1 -> 2 -> ... -> n -> 1 plus a loop at symbol 1.

    Its Perron root is the root above 1 of x^n - x^(n-1) - 1 (the loop and
    the cycle are the only first returns to symbol 1); n = 2 is the golden
    mean shift."""
    rows = [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    rows[0][0] = 1
    return rows


def cyclic_permutation(rng, n):
    """Seeded irreducible permutation matrix: one n-cycle, states shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[0] * n for _ in range(n)]
    for a, b in zip(order, order[1:] + order[:1]):
        rows[a][b] = 1
    return validate(rows)


def periodic_irreducible(rng, n, period, density=0.5):
    """Seeded irreducible matrix of the given period: symbol i lies in class
    i mod period, and every edge goes from one class to the next."""
    while True:
        rows = [
            [1 if (i + 1 - j) % period == 0 and rng.random() < density else 0
             for j in range(n)]
            for i in range(n)
        ]
        if closure_strongly_connected(rows):
            return validate(rows)


def random_admissible_word(mat, rng, length):
    """Forward random walk (every row is nonzero, so walks never die)."""
    if length == 0:
        return ()
    word = [rng.randrange(1, mat.n + 1)]
    while len(word) < length:
        word.append(rng.choice(mat.successors[word[-1] - 1]))
    return tuple(word)


def random_word_ending_at(mat, rng, length, terminus):
    """Backward random walk to a prescribed last symbol."""
    word = [terminus]
    while len(word) < length:
        word.insert(0, rng.choice(mat.predecessors[word[0] - 1]))
    return tuple(word)


def random_monomial(alg, rng, max_len=3):
    """Nonzero monomial with independently random admissible words."""
    while True:
        left = random_admissible_word(alg.matrix, rng, rng.randrange(max_len + 1))
        right = random_admissible_word(alg.matrix, rng, rng.randrange(max_len + 1))
        elem = alg.monomial(left, right)
        if not elem.is_zero:
            return elem


def random_degree_zero(alg, rng, max_depth=3, terms=3):
    """Random degree-zero element built from common-terminus monomials."""
    elem = alg.zero
    for _ in range(terms):
        length = rng.randrange(1, max_depth + 1)
        t = rng.randrange(1, alg.n + 1)
        left = random_word_ending_at(alg.matrix, rng, length, t)
        right = random_word_ending_at(alg.matrix, rng, length, t)
        coeff = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
        elem = elem + alg.monomial(left, right, coeff)
    return elem


def seeded(seed):
    return random.Random(seed)
