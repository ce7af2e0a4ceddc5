"""Both exact count routes, and the cost model's choice between them,
against the matrix-squaring oracle."""

import itertools
from functools import partial

import pytest

from ckshift import matrix, validate, word_count
from ckshift.matrix import _minimal_recurrence, _recurrence_pays, _word_counts

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
from word_count_oracle import cycle_with_loop_count, matvec, oracle_count, power_vector

# "walk" and "recurrence" force one route, "model" lets the cost model pick
ROUTES = ("walk", "recurrence", "model")

# the counts 1^T A^j 1 satisfy a recurrence of order 1 (x - 2) and 2
# ((x - 1)^2), but the vectors A^j 1 span all of Q^3: a remainder mod p
# applied to the vectors A^j 1 gives a wrong start vector
TRAP_ROWS = [
    [[0, 0, 1], [1, 1, 1], [1, 1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 1, 0]],
]


def route(monkeypatch, name):
    if name != "model":
        monkeypatch.setattr(matrix, "_recurrence_pays", lambda *_: name == "recurrence")


def oracle_counts(mat, k_max, k_min=1):
    """[w(k_min), ..., w(k_max)]: the oracle's A^(k_min - 1) 1, then its own
    dense matrix-vector steps."""
    v = power_vector(mat, k_min - 1)
    a = [list(r) for r in mat.entries]
    out = []
    for _ in range(k_min, k_max + 1):
        out.append(sum(v))
        v = matvec(a, v)
    return out


def seeded_matrices():
    rng = seeded(1101)
    mats = [validate(r) for r in (GOLDEN_ROWS, FULL3_ROWS, PERM2_ROWS, RANDOM3_ROWS)]
    mats += [validate([[1, 1, 0], [0, 1, 1], [0, 0, 1]])]  # reducible, polynomial growth
    mats += [random_irreducible(rng, n) for n in (4, 6, 8)]
    mats += [random_irreducible(rng, 7, density=0.3, force_loop=True)]
    mats += [periodic_irreducible(rng, n, p) for n, p in ((6, 2), (9, 3))]
    mats += [cyclic_permutation(rng, n) for n in (1, 5)]
    mats += [validate(random_transition_rows(rng, n, density=0.3)) for n in (4, 7)]
    mats += [sparse_irreducible(rng, 9), sparse_irreducible(rng, 15, extra_edges=4)]
    return mats


SEEDED = seeded_matrices()


@pytest.mark.parametrize("index", range(len(SEEDED)))
def test_seeded_matrices_against_oracle(monkeypatch, index):
    mat = SEEDED[index]
    short = oracle_counts(mat, 3 * mat.n)
    deep = {k: oracle_counts(mat, k + 9, k) for k in (1000, 5000)}
    for name in ROUTES:
        with monkeypatch.context() as mp:
            route(mp, name)
            assert _word_counts(mat, 3 * mat.n) == short, (name, mat)
            assert [word_count(mat, k) for k in range(1, 3 * mat.n + 1)] == short, (name, mat)
            for k, want in deep.items():
                assert word_count(mat, k) == want[0], (name, mat, k)
                assert _word_counts(mat, k + 9, k) == want, (name, mat, k)


def in_degree_shapes():
    """Each shape with its reference count k -> w(k)."""
    full_column = cycle_with_loop(30)
    for row in full_column:
        row[7] = 1
    shapes = {
        "permutation": cyclic_permutation(seeded(2301), 25),
        "one full column": validate(full_column),
        "[[1, 1], [0, 1]]": validate([[1, 1], [0, 1]]),
        "[[1]]": validate([[1]]),
    }
    refs = {name: (mat, partial(oracle_count, mat)) for name, mat in shapes.items()}
    # the oracle's squarings of a 200 x 200 grid take seconds; this one
    # counts from the shape of the graph
    refs["200-cycle with a loop"] = (
        validate(cycle_with_loop(200)),
        partial(cycle_with_loop_count, 200),
    )
    return refs


IN_DEGREE_SHAPES = in_degree_shapes()


def test_cycle_with_loop_count_is_the_oracle_count():
    for n in range(2, 9):
        mat = validate(cycle_with_loop(n))
        for k in range(1, 41):
            assert cycle_with_loop_count(n, k) == oracle_count(mat, k), (n, k)


@pytest.mark.parametrize("name", list(IN_DEGREE_SHAPES))
def test_walk_counts_through_in_degrees(monkeypatch, name):
    # the walk adds (indeg(j) - 1) v(j) per count over the states entered
    # more than once: none (the permutations), one (a single gathered index:
    # the cycle with a loop, [[1, 1], [0, 1]]) or one entered from every state
    mat, count = IN_DEGREE_SHAPES[name]
    route(monkeypatch, "walk")
    for k in (1, 2, 3, 1000):
        assert word_count(mat, k) == count(k), (name, k)


def all_valid_3x3():
    for bits in itertools.product((0, 1), repeat=9):
        rows = [list(bits[3 * i : 3 * i + 3]) for i in range(3)]
        if all(any(r) for r in rows) and all(any(r[j] for r in rows) for j in range(3)):
            yield validate(rows)


@pytest.mark.parametrize("name", ROUTES)
def test_every_3x3_matrix_against_oracle(monkeypatch, name):
    route(monkeypatch, name)
    mats = list(all_valid_3x3())
    assert len(mats) == 265
    for mat in mats:
        assert _word_counts(mat, 12) == oracle_counts(mat, 12), mat
        assert word_count(mat, 500) == oracle_count(mat, 500), mat


@pytest.mark.parametrize("name", ROUTES)
@pytest.mark.parametrize("k_min", [50, 1000])
@pytest.mark.parametrize("rows", TRAP_ROWS)
def test_deep_start_when_counts_have_a_shorter_recurrence(monkeypatch, name, k_min, rows):
    mat = validate(rows)
    route(monkeypatch, name)
    assert _word_counts(mat, k_min + 29, k_min) == oracle_counts(mat, k_min + 29, k_min)


def test_minimal_recurrence_is_the_counts_own():
    def recurrence(rows):
        mat = validate(rows)
        return _minimal_recurrence(oracle_counts(mat, 2 * mat.n))

    assert recurrence(GOLDEN_ROWS) == [-1, -1]  # x^2 - x - 1
    assert recurrence(FULL3_ROWS) == [-3]
    assert recurrence(PERM2_ROWS) == [-1]
    assert [recurrence(rows) for rows in TRAP_ROWS] == [[-2], [1, -2]]


def test_larger_modulus_when_coefficients_pass_the_first(monkeypatch):
    # a dense 60-state matrix: its polynomial has coefficients past 2^61 - 1
    mat = validate(random_transition_rows(seeded(1103), 60))
    q = _minimal_recurrence(_word_counts(mat, 120))
    assert max(abs(c) for c in q).bit_length() > 61
    route(monkeypatch, "recurrence")
    deep = _word_counts(mat, 1009, 1000)
    route(monkeypatch, "walk")
    assert deep == _word_counts(mat, 1009, 1000)


def test_walk_when_no_modulus_recovers_the_recurrence(monkeypatch):
    # modulo 3, full3's x - 3 reads as x, which does not annihilate 3, 9, 27
    mat = validate(FULL3_ROWS)
    monkeypatch.setattr(matrix, "_MERSENNE_EXPONENTS", (2,))
    assert _minimal_recurrence(oracle_counts(mat, 6), (2,)) is None
    route(monkeypatch, "recurrence")
    assert _word_counts(mat, 40, 30) == [3**k for k in range(30, 41)]


def test_cost_model_routes():
    # (n, |E|, k_min, k_max) of the benchmark's count jobs
    assert not _recurrence_pays(120, 124, 1, 81)  # entropy_estimates, 120-state chord cycle
    assert _recurrence_pays(120, 124, 20_000, 20_000)
    assert _recurrence_pays(3, 9, 200_000, 200_000)
    assert _recurrence_pays(12, 72, 10_000, 10_000)
    # no count inside the set-up walk is worth a recurrence
    for n, edges in ((2, 3), (3, 9), (12, 72), (120, 124), (120, 7_000)):
        assert not any(_recurrence_pays(n, edges, k, k) for k in range(1, 2 * n + 1))
    # walking on to w(360) beats Berlekamp-Massey modulo 2^127 - 1, but not
    # to w(1000)
    assert _recurrence_pays(120, 720, 360, 360)
    assert not _recurrence_pays(120, 720, 360, 360, 127)
    assert _recurrence_pays(120, 720, 1000, 1000, 127)


def test_walk_on_when_the_next_modulus_costs_more(monkeypatch):
    # its counts need 2^127 - 1; at k = 360 the model takes the recurrence,
    # and once 2^61 - 1 fails, walking on from w(240) is the cheaper route
    mat = validate(random_transition_rows(seeded(1901), 120, 0.05))
    moduli = []
    real = matrix._berlekamp_massey
    monkeypatch.setattr(
        matrix, "_berlekamp_massey", lambda s, prime: moduli.append(prime) or real(s, prime)
    )
    assert word_count(mat, 360) == oracle_count(mat, 360)
    assert moduli == [(1 << 61) - 1]
    moduli.clear()
    q = _minimal_recurrence(_word_counts(mat, 240))
    assert moduli == [(1 << 61) - 1, (1 << 127) - 1] and len(q) == 120


def test_each_modulus_priced_once(monkeypatch):
    # the route choice is the pricing of 2^61 - 1, and pricing stops at the
    # first modulus that costs more than the walk
    priced = []
    real = matrix._recurrence_pays
    monkeypatch.setattr(
        matrix, "_recurrence_pays", lambda *args: priced.append(args[4:]) or real(*args)
    )
    assert word_count(validate(GOLDEN_ROWS), 5) == 13
    assert priced == [(61,)]
    priced.clear()
    assert word_count(validate(FULL3_ROWS), 200_000) == 3**200_000
    assert priced == [(e,) for e in matrix._MERSENNE_EXPONENTS]
    priced.clear()
    mat = validate(random_transition_rows(seeded(1901), 120, 0.05))
    assert word_count(mat, 360) == oracle_count(mat, 360)
    assert priced == [(61,), (127,)]


def order(mat):
    return len(_minimal_recurrence(_word_counts(mat, 2 * mat.n)))


RESTART_MATRICES = SEEDED + [validate(rows) for rows in TRAP_ROWS]


@pytest.mark.parametrize("index", range(len(RESTART_MATRICES)))
def test_restart_at_half_the_exponent_against_oracle(monkeypatch, index):
    # every count K up to past (d + 1) / 2, so both sides of the 2K < d + 1
    # rule; k_min - 1 of both parities, shallow ones (h < d) and deep ones.
    # full3 and the permutations have d = 1, which never restarts
    mat = RESTART_MATRICES[index]
    d = order(mat)
    route(monkeypatch, "recurrence")
    top = (d + 1) // 2 + 2
    for k_min in (1, 2, 3, d, d + 1, 2 * d, 2 * d + 1, 2 * d + 2, 999, 1000):
        want = oracle_counts(mat, k_min + top - 1, k_min)
        for count in range(1, top + 1):
            got = _word_counts(mat, k_min + count - 1, k_min)
            assert got == want[:count], (mat, k_min, count)
        assert _word_counts(mat, k_min - 1, k_min) == []


def powered(monkeypatch):
    exponents = []
    real = matrix._x_power
    monkeypatch.setattr(
        matrix, "_x_power", lambda e, taps, d: exponents.append(e) or real(e, taps, d)
    )
    return exponents


def test_deep_count_powers_to_half_the_exponent(monkeypatch):
    k = 40_000
    mat = random_irreducible(seeded(1902), 8, density=0.6, force_loop=True)
    assert order(mat) > 2
    exponents = powered(monkeypatch)
    assert word_count(mat, k) == oracle_count(mat, k)
    assert exponents and max(exponents) <= (k - 1) // 2


def test_order_one_count_powers_the_whole_exponent(monkeypatch):
    # d = 1: a squaring is cheaper than the one product of the restart
    k = 200_000
    exponents = powered(monkeypatch)
    assert word_count(validate(FULL3_ROWS), k) == 3**k
    assert exponents == [k - 1]


def schoolbook_square(r):
    """The coefficients of r(x)^2, each summed over its pairs directly."""
    d = len(r)
    return [
        sum(r[i] * r[m - i] for i in range(max(0, m - d + 1), min(m, d - 1) + 1))
        for m in range(2 * d - 1)
    ]


@pytest.mark.parametrize("d", range(1, 41))
def test_square_is_the_schoolbook_square(d):
    # coefficient sizes on both sides of the split's cutoff, in one
    # polynomial and across polynomials; zeros and negative coefficients
    rng = seeded(2500 + d)
    cut = matrix._SPLIT_BITS
    for bits in (8, cut - 1, cut, cut + 1, 3 * cut):
        for zeros in (0.0, 0.3):
            r = [
                0 if rng.random() < zeros else rng.choice((1, -1)) * rng.getrandbits(bits)
                for _ in range(d)
            ]
            r[rng.randrange(d)] = rng.choice((1, -1)) << (bits - 1)  # one of exactly `bits`
            assert matrix._square(r) == schoolbook_square(r), (d, bits, zeros)
    mixed = [rng.getrandbits(rng.choice((8, cut - 1, 2 * cut))) for _ in range(d)]
    assert matrix._square(mixed) == schoolbook_square(mixed)
    assert matrix._square([0] * d) == [0] * (2 * d - 1)


def test_deep_count_squares_by_the_split(monkeypatch):
    # the matrix of test_deep_count_powers_to_half_the_exponent: its
    # remainders pass the cutoff, so squares of half their length are taken
    k = 40_000
    mat = random_irreducible(seeded(1902), 8, density=0.6, force_loop=True)
    d = order(mat)
    lengths = []
    real = matrix._square
    monkeypatch.setattr(matrix, "_square", lambda r: lengths.append(len(r)) or real(r))
    assert word_count(mat, k) == oracle_count(mat, k)
    assert max(lengths) == d and min(lengths) < d


@pytest.mark.parametrize("index", range(len(SEEDED)))
def test_counts_past_the_first_d_from_p(monkeypatch, index):
    # the first d counts come from the remainder, the rest from p itself:
    # every K up to past 3d, so the extension crosses the first-d boundary
    mat = SEEDED[index]
    d = order(mat)
    route(monkeypatch, "recurrence")
    for k_min in (1, d + 1, 2 * d + 1, 1000):
        want = oracle_counts(mat, k_min + 3 * d + 1, k_min)
        for count in range(1, 3 * d + 3):
            assert _word_counts(mat, k_min + count - 1, k_min) == want[:count], (mat, k_min)
