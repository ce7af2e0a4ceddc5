import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from ckshift import (
    EntryOutOfRangeError,
    IntMatrix,
    NoConvergenceError,
    NotIrreducibleError,
    NotSquareError,
    TransitionMatrix,
    ZeroColumnError,
    ZeroRowError,
    dual_matrix,
    is_irreducible,
    is_permutation,
    load_int_matrix,
    load_matrix,
    matrix_power,
    spectral_radius,
    validate,
    validate_int,
    witness_dimension,
    word_count,
)
from ckshift._perron import _power_loop
from ckshift.matrix import MatrixError, _matvec, _word_counts, parse_matrix

from conftest import (
    FULL3_ROWS,
    GOLDEN_ROWS,
    PERM2_ROWS,
    chord_cycle,
    closure_strongly_connected,
    cycle_with_loop,
    cyclic_permutation,
    random_irreducible,
    random_transition_rows,
    seeded,
    sparse_irreducible,
)
from perron_oracle import perron_iterate

PHI = (1 + math.sqrt(5)) / 2


class TestValidate:
    def test_golden_mean(self):
        mat = validate([[1, 1], [1, 0]])
        assert mat.n == 2
        assert mat.entry(1, 2) == 1
        assert mat.entry(2, 2) == 0
        assert mat.successors == ((1, 2), (1,))
        assert mat.predecessors == ((1, 2), (1,))

    def test_zero_row(self):
        with pytest.raises(ZeroRowError) as exc:
            validate([[0, 0], [1, 1]])
        assert exc.value.row == 1

    def test_zero_column(self):
        with pytest.raises(ZeroColumnError) as exc:
            validate([[1, 0], [1, 0]])
        assert exc.value.col == 2

    def test_entry_out_of_range(self):
        with pytest.raises(EntryOutOfRangeError) as exc:
            validate([[1, 2], [1, 0]])
        assert (exc.value.row, exc.value.col) == (1, 2)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate([[1, 1], [1]])
        with pytest.raises(NotSquareError):
            validate([])

    def test_bool_rejected(self):
        with pytest.raises(EntryOutOfRangeError):
            validate([[True, 1], [1, 0]])

    def test_reprs(self):
        assert repr(validate([[1, 1], [1, 0]])) == "TransitionMatrix([[1, 1], [1, 0]])"
        assert repr(validate_int([[0, 2], [1, 0]])) == "IntMatrix([[0, 2], [1, 0]])"

    def test_transition_matrix_is_int_matrix(self, golden_mean):
        assert isinstance(golden_mean, IntMatrix)

    def test_int_matrix(self):
        mat = validate_int([[0, 2], [1, 0]])
        assert mat.entry(1, 2) == 2
        with pytest.raises(EntryOutOfRangeError):
            validate_int([[1, -1], [1, 1]])
        with pytest.raises(ZeroRowError):
            validate_int([[0, 0], [1, 1]])


# one grid for each fault, in the order the check meets them within a row
GRID_FAULTS = [
    ((), NotSquareError),
    (((1, 1), (1,)), NotSquareError),
    (((1, -1), (1, 1)), EntryOutOfRangeError),
    (((1, True), (1, 1)), EntryOutOfRangeError),
    (((1, 1.0), (1, 1)), EntryOutOfRangeError),
    (((1, "1"), (1, 1)), EntryOutOfRangeError),
    (((1, 1), (0, 0)), ZeroRowError),
    (((1, 0), (1, 0)), ZeroColumnError),
]


class TestConstructorChecks:
    """Every IntMatrix and TransitionMatrix meets the rules, however built."""

    @pytest.mark.parametrize("cls, check", [(TransitionMatrix, validate), (IntMatrix, validate_int)])
    @pytest.mark.parametrize("rows, error", GRID_FAULTS)
    def test_each_constructor_rejects_each_fault(self, cls, check, rows, error):
        with pytest.raises(error) as built:
            cls(rows)
        with pytest.raises(error) as checked:
            check([list(r) for r in rows])
        assert str(built.value) == str(checked.value)

    def test_faults_named(self):
        with pytest.raises(ZeroRowError) as exc:
            TransitionMatrix(((1, 1), (0, 0)))
        assert exc.value.row == 2
        with pytest.raises(EntryOutOfRangeError) as exc:
            IntMatrix(((1, -1), (1, 1)))
        assert str(exc.value) == "entry (1,2) is -1, expected a nonnegative integer"
        with pytest.raises(EntryOutOfRangeError) as exc:
            TransitionMatrix(((1, 2), (1, 0)))
        assert str(exc.value) == "entry (1,2) is 2, expected 0 or 1"
        assert IntMatrix(((1, 2), (1, 0))).entry(1, 2) == 2

    def test_replace_checks_again(self, golden_mean):
        with pytest.raises(ZeroRowError) as exc:
            dataclasses.replace(golden_mean, entries=((1, 1), (0, 0)))
        assert exc.value.row == 2
        full = dataclasses.replace(golden_mean, entries=[[1, 1], [1, 1]])
        assert full.entries == ((1, 1), (1, 1))

    def test_rows_stored_as_tuples(self):
        rows = [[1, 1], [1, 0]]
        mat = TransitionMatrix(rows)
        assert type(mat.entries) is tuple and all(type(r) is tuple for r in mat.entries)
        assert mat.entries == validate(rows).entries == ((1, 1), (1, 0))
        assert mat == validate(rows) and hash(mat) == hash(validate(rows))
        assert IntMatrix(iter([range(2), (3, 0)])).entries == ((0, 1), (3, 0))
        row = (1, 1)
        mat = TransitionMatrix((row, row))
        assert mat.entries[0] is row and mat.entries[1] is row

    def test_int_subclass_entries_pass(self):
        class Count(int):
            pass

        assert validate([[Count(1)]]).entries == ((1,),)
        assert validate_int([[Count(2)]]).entries == ((2,),)

    def test_first_faulty_row_is_reported(self):
        # the rows in order, each for any rule, then the columns
        with pytest.raises(EntryOutOfRangeError) as exc:
            validate([[1, 2], [1]])
        assert (exc.value.row, exc.value.col) == (1, 2)
        with pytest.raises(ZeroRowError) as exc:
            validate([[1, 0], [0, 0]])
        assert exc.value.row == 2
        with pytest.raises(EntryOutOfRangeError) as exc:
            validate([[1, 1, 1], [1, "x", 2], [-1, 0, 0]])
        assert (exc.value.row, exc.value.col, exc.value.value) == (2, 2, "x")
        with pytest.raises(ZeroColumnError) as exc:
            validate([[1, 0, 0], [1, 0, 0], [1, 0, 1]])
        assert exc.value.col == 2
        # of several zero columns, the first
        with pytest.raises(ZeroColumnError) as exc:
            validate([[0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
        assert exc.value.col == 2

    def test_shared_row_reported_at_its_first_index(self):
        zero = (0, 0, 0)
        with pytest.raises(ZeroRowError) as exc:
            TransitionMatrix(((1, 1, 1), zero, zero))
        assert exc.value.row == 2


class TestAdjacency:
    """The successor lists the constructor's check keeps, and the
    predecessor lists built from them, against their dense derivations."""

    @staticmethod
    def dense(entries):
        n = len(entries)
        succ = tuple(tuple(j + 1 for j in range(n) if row[j]) for row in entries)
        pred = tuple(tuple(i + 1 for i in range(n) if entries[i][j]) for j in range(n))
        return succ, pred

    def test_lists_are_the_dense_support(self):
        rng = seeded(2601)
        mats = [validate([[1]]), validate([[1, 1], [0, 1]]), validate([[1, 0], [0, 1]])]
        for _ in range(60):
            n = rng.randrange(1, 12)
            mats.append(validate(random_transition_rows(rng, n, rng.uniform(0.05, 0.9))))
        mats += [cyclic_permutation(rng, n) for n in (1, 2, 7)]
        mats += [validate(chord_cycle(120, 3, rng)), validate(cycle_with_loop(12))]
        reducible = 0
        for mat in mats:
            succ, pred = self.dense(mat.entries)
            assert mat.successors == succ and mat.predecessors == pred
            assert all(type(row) is tuple for row in mat.successors + mat.predecessors)
            assert is_permutation(mat) == all(len(x) == 1 for x in succ + pred)
            reducible += not closure_strongly_connected(mat.entries)
        assert reducible >= 10

    def test_shared_rows_share_their_successors(self):
        rng = seeded(2602)
        ints = [[[3]], [[0, 2], [3, 1]], [[1, 1], [1, 0]]]
        ints += [[[rng.randrange(1, 4) for _ in range(n)] for _ in range(n)] for n in (2, 3, 4)]
        for rows in ints:
            a_prime = dual_matrix(validate_int(rows)).a_prime
            succ, pred = self.dense(a_prime.entries)
            assert a_prime.successors == succ and a_prime.predecessors == pred
            for r, row in enumerate(a_prime.entries):
                for s, other in enumerate(a_prime.entries):
                    shared = a_prime.successors[r] is a_prime.successors[s]
                    assert shared == (row is other), (rows, r, s)


class TestIrreducible:
    def test_examples(self):
        assert is_irreducible(validate([[1, 1], [1, 0]]))
        assert not is_irreducible(validate([[1, 0], [0, 1]]))
        assert is_irreducible(validate([[0, 1], [1, 0]]))

    def test_against_closure_oracle(self):
        rng = seeded(101)
        for _ in range(200):
            n = rng.randrange(2, 7)
            rows = random_transition_rows(rng, n, density=rng.uniform(0.2, 0.8))
            mat = validate(rows)
            assert is_irreducible(mat) == closure_strongly_connected(rows)


class TestPermutation:
    def test_examples(self):
        assert is_permutation(validate([[0, 1], [1, 0]]))
        assert is_permutation(validate([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert not is_permutation(validate([[1, 1], [1, 0]]))


class TestMatrixPower:
    def test_golden_square(self, golden_mean):
        assert matrix_power(golden_mean, 2) == ((2, 1), (1, 1))

    def test_power_zero_is_identity(self, full3):
        assert matrix_power(full3, 0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_full2_tenth_power(self, full2):
        assert matrix_power(full2, 10) == ((512, 512), (512, 512))

    def test_against_naive_multiplication(self):
        rng = seeded(102)
        for _ in range(20):
            n = rng.randrange(2, 5)
            mat = validate(random_transition_rows(rng, n))
            k = rng.randrange(0, 10)
            naive = np.eye(n, dtype=object)
            base = np.array([list(r) for r in mat.entries], dtype=object)
            for _ in range(k):
                naive = naive @ base
            assert matrix_power(mat, k) == tuple(tuple(r) for r in naive.tolist())

    def test_negative_power_rejected(self, golden_mean):
        with pytest.raises(ValueError):
            matrix_power(golden_mean, -1)


class TestWordCount:
    def test_golden_fibonacci(self, golden_mean):
        assert [word_count(golden_mean, k) for k in (1, 2, 3, 4)] == [2, 3, 5, 8]

    def test_full2_powers_of_two(self, full2):
        for k in range(1, 12):
            assert word_count(full2, k) == 2**k

    def test_permutation_constant(self, perm2):
        assert all(word_count(perm2, k) == 2 for k in range(1, 20))

    def test_extension_bound(self):
        rng = seeded(103)
        for _ in range(20):
            n = rng.randrange(2, 6)
            mat = validate(random_transition_rows(rng, n))
            for k in range(1, 8):
                assert word_count(mat, k + 1) <= n * word_count(mat, k)

    def test_k_zero_rejected(self, golden_mean):
        with pytest.raises(ValueError):
            word_count(golden_mean, 0)

    def test_against_matrix_power(self):
        # every bit pattern of k - 1 up to 6 bits, both sides of a power of
        # two (top bit alone, top bit plus the lowest), and a deep k
        rng = seeded(105)
        mats = [validate(r) for r in (GOLDEN_ROWS, FULL3_ROWS, PERM2_ROWS)]
        mats += [random_irreducible(rng, rng.randrange(2, 7)) for _ in range(4)]
        mats += [validate(random_transition_rows(rng, rng.randrange(2, 7))) for _ in range(3)]
        mats += [sparse_irreducible(rng, 9)]
        for mat in mats:
            for k in [*range(1, 11), 16, 17, 32, 33, 64, 65, 1000]:
                assert word_count(mat, k) == sum(map(sum, matrix_power(mat, k - 1))), (mat, k)

    @pytest.mark.parametrize("k_min", [1, 2, 5, 1000, 100_000])
    def test_word_counts_from_deep_start(self, golden_mean, k_min):
        counts = _word_counts(golden_mean, k_min + 29, k_min)
        assert counts == [word_count(golden_mean, k) for k in range(k_min, k_min + 30)]

    def test_word_counts_start_rejected(self, golden_mean):
        with pytest.raises(ValueError, match="word length must be >= 1"):
            _word_counts(golden_mean, 5, 0)


def dense_matvec(rows, v):
    """A v by every cell of the dense grid."""
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


def matvec_shapes():
    rng = seeded(2101)
    full_row = cycle_with_loop(30)
    full_row[7] = [1] * 30
    full_column = cycle_with_loop(30)
    for row in full_column:
        row[7] = 1
    # i -> i + 1 and i -> i + 3: every row and column has one further entry
    two_each = [[int((j - i) % 20 in (1, 3)) for j in range(20)] for i in range(20)]
    return {
        "permutation": cyclic_permutation(rng, 25),
        "cycle with a loop": validate(cycle_with_loop(50)),
        "chord cycle": validate(chord_cycle(120, 3, seeded(1))),
        "dense 40x40": validate(random_transition_rows(rng, 40, density=0.9)),
        "one full row": validate(full_row),
        "1x1": validate([[1]]),  # one index: itemgetter returns the item itself
        "two entries in every row": validate(two_each),
        "one full column": validate(full_column),  # in-degree n
    }


class TestMatvecKernel:
    """The one exact kernel of the walk and the certificate, against the
    dense integer products A v and A^T v."""

    # 70 and 200 bits: entries past 2^64, as the walk's counts soon are
    @pytest.mark.parametrize("bits", [3, 70, 200])
    @pytest.mark.parametrize("name", list(matvec_shapes()))
    def test_against_dense_products(self, name, bits):
        mat = matvec_shapes()[name]
        rng = seeded(2102 + bits)
        rows = [list(r) for r in mat.entries]
        columns = [list(c) for c in zip(*rows)]
        forward, backward = _matvec(mat.successors), _matvec(mat.predecessors)
        for _ in range(3):
            v = [rng.getrandbits(bits) for _ in range(mat.n)]
            before = list(v)
            assert forward(v) == dense_matvec(rows, v)
            assert backward(v) == dense_matvec(columns, v)
            assert v == before  # the kernel leaves its input alone


class TestSpectralRadius:
    def test_full_matrices(self):
        for n in (2, 3, 4, 5):
            mat = validate([[1] * n for _ in range(n)])
            pd = spectral_radius(mat)
            assert abs(pd.radius - n) <= 1e-12

    def test_golden_mean(self, golden_mean):
        pd = spectral_radius(golden_mean)
        assert abs(pd.radius - PHI) <= 1e-12

    def test_permutation(self, perm2):
        pd = spectral_radius(perm2)
        assert abs(pd.radius - 1.0) <= 1e-12

    def test_residual_and_positivity(self):
        rng = seeded(104)
        for _ in range(15):
            mat = random_irreducible(rng, rng.randrange(2, 8))
            pd = spectral_radius(mat, tol=1e-12)
            base = np.array([list(r) for r in mat.entries], dtype=float)
            u = np.array(pd.right)
            v = np.array(pd.left)
            assert np.abs(base @ u - pd.radius * u).max() <= 1e-12
            assert np.abs(base.T @ v - pd.radius * v).max() <= 1e-12
            assert min(pd.right) > 0 and min(pd.left) > 0
            assert abs(sum(pd.right) - 1) < 1e-12 and abs(sum(pd.left) - 1) < 1e-12

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError):
            spectral_radius(validate([[1, 0], [0, 1]]))

    def test_iteration_budget(self, golden_mean):
        with pytest.raises(NoConvergenceError):
            spectral_radius(golden_mean, max_iterations=1)

    def test_bad_tolerance(self, golden_mean):
        with pytest.raises(ValueError):
            spectral_radius(golden_mean, tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance(self, golden_mean, tol):
        # inf used to stop after 2 iterations at radius 1.5; nan ran out
        # the whole iteration budget
        with pytest.raises(ValueError, match="finite"):
            spectral_radius(golden_mean, tol=tol)


class TestPerronIterate:
    """The one-product loop against the two-product loop it replaced
    (``perron_oracle``): equal results, not merely close ones."""

    @staticmethod
    def _shifted():
        rng = seeded(106)
        grids = [GOLDEN_ROWS, FULL3_ROWS, PERM2_ROWS, cycle_with_loop(60)]
        grids += [list(map(list, random_irreducible(rng, rng.randrange(2, 9)).entries))
                  for _ in range(8)]
        grids += [list(map(list, sparse_irreducible(rng, 15).entries)) for _ in range(2)]
        for rows in grids:
            m = np.array(rows, dtype=float) + np.eye(len(rows))
            yield m
            yield m.T

    @staticmethod
    def _from_uniform(m, tol, budget):
        n = m.shape[0]
        return _power_loop(m, tol, budget, np.full(n, 1.0 / n))

    @staticmethod
    def _assert_equal(got, want):
        *got, converged = got
        assert converged is True
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2:] == list(want[2:])

    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_matches_oracle(self, tol):
        for m in self._shifted():
            self._assert_equal(self._from_uniform(m, tol, 1_000_000),
                               perron_iterate(m, tol, 1_000_000))

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_same_iteration_budget(self, tol):
        for m in self._shifted():
            needed = perron_iterate(m, tol, 1_000_000)[3]
            for budget in (1, needed - 1):
                if budget < needed:
                    assert self._from_uniform(m, tol, budget)[4] is False
                    with pytest.raises(NoConvergenceError):
                        perron_iterate(m, tol, budget)
            self._assert_equal(self._from_uniform(m, tol, needed), perron_iterate(m, tol, needed))


class TestDual:
    def test_single_entry_two(self):
        dual = dual_matrix(validate_int([[2]]))
        assert dual.edge_labels == ((1, 1, 1), (1, 1, 2))
        assert dual.a_prime.entries == ((1, 1), (1, 1))
        assert abs(spectral_radius(dual.a_prime).radius - 2) <= 1e-10

    def test_golden_mean_already_zero_one(self):
        dual = dual_matrix(validate_int([[1, 1], [1, 0]]))
        assert dual.edge_labels == ((1, 1, 1), (1, 2, 1), (2, 1, 1))
        assert dual.a_prime.entries == ((1, 1, 0), (0, 0, 1), (1, 1, 0))
        # characteristic-polynomial oracle on the edge matrix
        eigs = np.linalg.eigvals(np.array([list(r) for r in dual.a_prime.entries], float))
        assert abs(max(abs(eigs)) - PHI) <= 1e-8
        assert abs(spectral_radius(dual.a_prime).radius - PHI) <= 1e-10

    def test_sqrt_two(self):
        dual = dual_matrix(validate_int([[0, 2], [1, 0]]))
        assert len(dual.edge_labels) == 3
        assert abs(spectral_radius(dual.a_prime).radius - math.sqrt(2)) <= 1e-10

    def test_edge_count_past_the_cap_is_refused(self):
        # 3164 edges in all: 3164^2 cells is just past the cap of 10^7
        with pytest.raises(MatrixError, match="3164 edges give an edge matrix of 10010896"):
            dual_matrix(validate_int([[3000, 163], [1, 0]]))

    def test_cap_message_past_the_int_str_limit(self):
        # 10^2199 edges: the count has 2200 digits, but the cell count, its
        # square, has 4399, past the default int-to-str limit of 4300
        edges = "1" + "0" * 2199
        with pytest.raises(MatrixError) as exc:
            dual_matrix(validate_int([[10**2199]]))
        assert str(exc.value) == (
            f"{edges} edges give an edge matrix of 1{'0' * 4398} cells, "
            "more than the cap of 10000000"
        )

    def test_random_factorizations_exact(self):
        rng = seeded(105)
        done = 0
        while done < 20:
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(0, 4) for _ in range(n)] for _ in range(n)]
            try:
                mat = validate_int(rows)
            except MatrixError:
                continue
            dual = dual_matrix(mat)
            s = np.array([list(r) for r in dual.s_factor], dtype=object)
            t = np.array([list(r) for r in dual.t_factor], dtype=object)
            assert (s @ t).tolist() == [list(r) for r in mat.entries]
            assert (t @ s).tolist() == [list(r) for r in dual.a_prime.entries]
            assert validate(dual.a_prime.entries) == dual.a_prime
            done += 1

    def test_edge_matrix_near_the_cap_is_small(self):
        # 3000 parallel edges, 9 * 10^6 cells: the rows of A' and T are
        # shared between edges, so the decomposition holds O(n E) cells
        tracemalloc.start()
        try:
            dual = dual_matrix(validate_int([[3000]]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert dual.a_prime.entries == ((1,) * 3000,) * 3000
        assert dual.t_factor == ((1,),) * 3000

    def test_edge_matrix_rows_stay_shared(self):
        # the constructor of A' keeps each tuple row as it is
        rows = dual_matrix(validate_int([[3000]])).a_prime.entries
        assert all(row is rows[0] for row in rows)
        rows = dual_matrix(validate_int([[0, 2], [3, 1]])).a_prime.entries
        assert len({id(row) for row in rows}) == 2


class TestWitnessDimension:
    def test_examples(self, golden_mean, full2, perm2):
        assert witness_dimension(golden_mean, 10, 2) == 377
        assert witness_dimension(full2, 3, 1) == 16
        assert witness_dimension(perm2, 7, 3) == 2

    def test_validation(self, golden_mean):
        with pytest.raises(ValueError):
            witness_dimension(golden_mean, 0, 1)


class TestParsing:
    def test_text_format(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n1 0\n")
        assert load_matrix(str(path)).entries == ((1, 1), (1, 0))
        # a blank or whitespace-only line between the rows is skipped
        for text in ("1 1\n\n1 0\n", "1 1\n \t \n1 0\n"):
            assert parse_matrix(text) == parse_matrix("1 1\n1 0\n")

    def test_json_format(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "rows": [[0, 2], [1, 0]]}))
        assert load_int_matrix(str(path)).entries == ((0, 2), (1, 0))

    def test_json_n_mismatch(self):
        with pytest.raises(MatrixError):
            parse_matrix('{"n": 3, "rows": [[1, 1], [1, 0]]}')

    def test_json_missing_rows(self):
        with pytest.raises(MatrixError):
            parse_matrix('{"n": 2}')

    def test_bad_token(self):
        with pytest.raises(MatrixError):
            parse_matrix("1 x\n1 0\n")

    @pytest.mark.parametrize(
        "token", ["0_1", "+1", "\u0661", "\uff11", "1_000", "--1", "-", "1.0", "0x1"]
    )
    def test_only_ascii_integers(self, token):
        # int() takes the first five: 0_1 read as 1, +1 as 1, the Arabic-Indic
        # and the fullwidth digit one as 1, and 1_000 as 1000
        with pytest.raises(MatrixError, match="^invalid matrix row "):
            parse_matrix(f"1 {token}\n1 0\n")

    def test_ascii_integers_read(self):
        assert parse_matrix("-0 1\n007 -12\n") == [[0, 1], [7, -12]]

    def test_empty(self):
        with pytest.raises(MatrixError):
            parse_matrix("   \n  ")
