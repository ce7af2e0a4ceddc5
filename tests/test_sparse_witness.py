"""The sparse witness verifier and the sparse block matrices against the
dense reference in ``dense_witness_oracle``: byte-identical reports, the
public dense views (``witness_blocks``, ``BlockMatrix.entries``) unchanged,
and products, adjoints and comparisons that agree with the dense forms."""

import itertools
import json
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ckshift import (
    BlockMatrix,
    CKElement,
    CuntzKriegerAlgebra,
    validate,
    verify_witness_decomposition,
)
from ckshift.ck import Monomial, _cell_mismatches, _is_partial_permutation
from ckshift.sft import _admissible

from conftest import (
    FULL2_ROWS,
    FULL3_ROWS,
    GOLDEN_ROWS,
    PERM2_ROWS,
    RANDOM3_ROWS,
    random_degree_zero,
    random_admissible_word,
    random_irreducible,
    random_monomial,
    random_word_ending_at,
    seeded,
    sparse_irreducible,
)
from dense_witness_oracle import (
    dense_adjoint,
    dense_block_embedding,
    dense_equals,
    dense_product,
    dense_witness_blocks,
    product_shift,
    verify_witness_decomposition_dense,
)

MATRICES = {
    "golden": GOLDEN_ROWS,
    "full2": FULL2_ROWS,
    "random3": RANDOM3_ROWS,
    "full3": FULL3_ROWS,
}
DATA = Path(__file__).parent / "data"
GRID = [(1, 1), (1, 2), (2, 1), (2, 2)]
CASES = [
    (name, n0, n, fault)
    for name in MATRICES
    for n0, n in GRID
    if (name, n0, n) != ("full3", 2, 2)  # the dense oracle takes ~10 s there
    for fault in (False, True)
]


@pytest.fixture(scope="module")
def algebras():
    return {name: CuntzKriegerAlgebra(validate(rows)) for name, rows in MATRICES.items()}


@pytest.mark.parametrize("name,n0,n,fault", CASES)
def test_report_matches_dense_oracle(algebras, name, n0, n, fault):
    alg = algebras[name]
    sparse = verify_witness_decomposition(alg, n0, n, inject_fault=fault)
    dense = verify_witness_decomposition_dense(alg, n0, n, inject_fault=fault)
    assert json.dumps(sparse.to_json_dict(), sort_keys=True) == json.dumps(
        dense.to_json_dict(), sort_keys=True
    )
    assert sparse.ok is not fault


@pytest.mark.parametrize("rows", [*MATRICES.values(), PERM2_ROWS],
                         ids=[*MATRICES, "perm2"])
def test_shift_by_concatenation_matches_product_oracle(rows):
    # the same stored terms, not merely equal elements of the algebra
    alg = CuntzKriegerAlgebra(validate(rows))
    rng = seeded(212)
    elements = [alg.identity, alg.zero]
    for _ in range(26):
        coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randrange(1, 4))
        elements.append(coeff * random_monomial(alg, rng) + random_monomial(alg, rng))
        elements.append(random_degree_zero(alg, rng))
    for power in range(4):
        for x in elements:
            assert alg.shift(x, power) == product_shift(alg, x, power)


class TestPartialPermutation:
    def test_accepts_partial_permutations(self):
        assert _is_partial_permutation(set())
        assert _is_partial_permutation({(0, 2), (1, 0), (3, 3)})

    def test_two_units_in_one_row(self):
        assert not _is_partial_permutation({(0, 1), (0, 2)})

    def test_two_units_in_one_column(self):
        assert not _is_partial_permutation({(1, 0), (2, 0)})


def test_witness_blocks_match_dense_oracle(algebras):
    for alg in algebras.values():
        for alpha, beta in (((), ()), ((1,), ()), ((1,), (1,)), ((1, 2), (2,))):
            if not _admissible(alg.matrix.entries, alpha):
                continue
            for i in range(1, alg.n + 1):
                for l in (0, 1):
                    m = l + len(alpha) + 2
                    got = alg.witness_blocks(alpha, beta, i, l, m)
                    want = dense_witness_blocks(alg, alpha, beta, i, l, m)
                    assert list(got) == list(want)
                    for key, block in got.items():
                        assert block.dtype == np.int64
                        assert np.array_equal(block, want[key])


def _shifted_generators(alg):
    """S_alpha P_i S_beta* shifted l <= 2 times, |beta| <= |alpha| <= 1."""
    out = []
    for alpha in ((), (1,), (alg.n,)):
        for beta in ((), (1,)) if alpha else ((),):
            for i in range(1, alg.n + 1):
                gen = alg.generator(alpha, i, beta)
                out += [alg.shift(gen, l) for l in range(3)]
    return out


def test_block_embedding_matches_dense_oracle(algebras):
    # the same stored terms in every cell, not merely equal elements
    rng = seeded(2024)
    perm2 = CuntzKriegerAlgebra(validate(PERM2_ROWS))
    for alg in [*algebras.values(), perm2]:
        elements = [alg.identity, alg.zero, -alg.identity, Fraction(2, 3) * alg.q(1)]
        for _ in range(6):
            coeff = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randrange(1, 4))
            elements.append(coeff * random_monomial(alg, rng))
        elements += [random_degree_zero(alg, rng) for _ in range(3)]
        elements.append(random_monomial(alg, rng) - 2 * random_degree_zero(alg, rng))
        elements += _shifted_generators(alg)
        for x in elements:
            for m in (1, 2, 3, 4):
                got = alg.block_embedding(m, x)
                assert got.index == alg.words(m)
                assert got.entries == dense_block_embedding(alg, m, x)


def _shape_elements(alg, m, rng):
    """Elements whose terms S_a S_b* meet every shape of the embedding's
    two products at depth m, with Fraction coefficients: a and b each
    shorter than m, of length m and longer than m; a of length m with b
    ending at a's terminus, elsewhere, or empty; and sums whose terms cancel
    in the cells, zero in the algebra but not as stored terms."""
    mat = alg.matrix

    def coeff():
        return Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randrange(1, 4))

    out = []
    for k, j in itertools.product(range(m + 3), repeat=2):
        left = random_admissible_word(mat, rng, k)
        right = random_admissible_word(mat, rng, j)
        out.append(alg.monomial(left, right, coeff()) + random_monomial(alg, rng, m + 2))
    for t in range(1, alg.n + 1):
        a = random_word_ending_at(mat, rng, m, t)
        for u in range(1, alg.n + 1):
            for j in (1, m, m + 1):
                out.append(alg.monomial(a, random_word_ending_at(mat, rng, j, u), coeff()))
        out.append(alg.monomial(a, (), coeff()))
    vanishing = -alg.identity
    for j in range(1, alg.n + 1):
        vanishing = vanishing + alg.p(j)
    out.append(vanishing)
    for x in out[: 2 * (m + 3)]:
        depth = max(len(b) for _, b in x.terms) + 1
        out.append(x - CKElement(alg, alg._refine_terms(x.terms, depth)))
    return [x for x in out if not x.is_zero]


@pytest.mark.parametrize("m", [1, 2])
def test_block_embedding_in_every_product_shape_matches_dense_oracle(algebras, m):
    # the same stored terms in every cell as the dense products give
    rng = seeded(1606 + m)
    for name, alg in algebras.items():
        elements = _shape_elements(alg, m, rng)
        terms = [(mono, c) for x in elements for mono, c in x.terms.items()]
        assert any(len(a) > m for (a, _), _ in terms)
        assert any(len(b) > m for (_, b), _ in terms)
        assert any(len(a) == m and b and b[-1] == a[-1] for (a, b), _ in terms)
        assert any(len(a) == m and b and b[-1] != a[-1] for (a, b), _ in terms) or alg.n == 1
        assert any(len(a) == m and not b for (a, b), _ in terms)
        assert any(type(c) is Fraction for _, c in terms)
        assert any(x.terms and alg.equal(x, alg.zero) for x in elements)
        for x in elements:
            got = alg.block_embedding(m, x)
            assert got.entries == dense_block_embedding(alg, m, x), (name, x)


def test_embedding_cells_are_the_nonzero_entries(algebras):
    rng = seeded(77)
    for alg in algebras.values():
        for _ in range(8):
            x = random_monomial(alg, rng) + random_monomial(alg, rng)
            dense = dense_block_embedding(alg, 3, x)
            cells = alg.block_embedding(3, x)._cells
            nonzero = {
                (r, c)
                for r, row in enumerate(dense)
                for c, entry in enumerate(row)
                if not entry.is_zero
            }
            assert set(cells) == nonzero
            for (r, c), entry in cells.items():
                assert entry == dense[r][c]


SMALL = ("golden", "full2", "random3")


def test_product_adjoint_and_equals_match_dense_oracle(algebras):
    rng = seeded(4242)
    for name in SMALL:
        alg = algebras[name]
        for m in (1, 2, 3):
            for _ in range(4):
                x = random_monomial(alg, rng, max_len=2)
                x = x + random_degree_zero(alg, rng, max_depth=2, terms=2)
                y = random_monomial(alg, rng, max_len=2)
                y = y + random_monomial(alg, rng, max_len=2)
                bx, by = alg.block_embedding(m, x), alg.block_embedding(m, y)
                dx, dy = dense_block_embedding(alg, m, x), dense_block_embedding(alg, m, y)
                assert (bx * by).entries == dense_product(alg, dx, dy)
                assert bx.adjoint().entries == dense_adjoint(dx)
                for left, right in ((bx, by), (bx * by, alg.block_embedding(m, x * y))):
                    assert left.equals(right) == dense_equals(alg, left.entries, right.entries)


def test_equal_on_equal_terms_needs_no_refinement(algebras, monkeypatch):
    rng = seeded(515)
    for alg in algebras.values():
        elements = [alg.identity, alg.zero, alg.q(1)]
        elements += [random_monomial(alg, rng) for _ in range(4)]
        elements += [random_degree_zero(alg, rng) for _ in range(4)]
        for x in elements:
            assert alg.equal(x, x)
            assert alg.equal(x, CKElement(alg, dict(x.terms)))
            assert alg.equal(x, 2 * (Fraction(1, 2) * x))
        # equal but stored differently: this needs the refinement
        total = alg.zero
        for j in range(1, alg.n + 1):
            total = total + alg.p(j)
        assert alg.equal(total, alg.identity)

        def refuse(terms, depth):
            raise AssertionError("refined terms that are stored equal")

        with monkeypatch.context() as patch:
            patch.setattr(alg, "_refine_terms", refuse)
            for x in elements:
                assert alg.equal(x, CKElement(alg, dict(x.terms)))
            with pytest.raises(AssertionError):
                alg.equal(total, alg.identity)


def test_a_cell_in_two_witness_blocks_holds_their_sum(monkeypatch):
    # the witness side is the sum of block (x) piece over all blocks, so a
    # unit that two blocks share gives S_mu + S_mu' there, not the last piece
    alg = CuntzKriegerAlgebra(validate(GOLDEN_ROWS))
    real = alg._witness_units
    shared = []

    def overlapping(*args, **kwargs):
        blocks = real(*args, **kwargs)
        nonempty = [units for units in blocks.values() if units]
        if len(nonempty) > 1 and not shared:
            shared.append(min(nonempty[-1]))
            nonempty[0].add(shared[0])
        return blocks

    monkeypatch.setattr(alg, "_witness_units", overlapping)
    report = verify_witness_decomposition(alg, 1, 1)
    index = alg.words(2)
    r, c = shared[0]
    assert {"row": list(index[r]), "col": list(index[c])} in [
        {"row": f["row"], "col": f["col"]}
        for f in report.failures
        if f["kind"] == "entry_mismatch"
    ]


def test_witness_failure_records_are_pinned(monkeypatch):
    # a second unit in the row of one block's first unit breaks that block's
    # partial isometry and the embedding identity: both kinds of record, in
    # generator-then-power order, entry mismatches before blocks
    alg = CuntzKriegerAlgebra(validate(GOLDEN_ROWS))
    real = alg._witness_units
    w = len(alg.words(2))

    def row_pair(*args):
        blocks = real(*args)
        for units in blocks.values():
            if units:
                r, c = min(units)
                units.add((r, (c + 1) % w))
                break
        return blocks

    monkeypatch.setattr(alg, "_witness_units", row_pair)
    report = verify_witness_decomposition(alg, 1, 1)
    assert (report.cases, report.passed) == (14, 4)
    assert {f["kind"] for f in report.failures} == {"entry_mismatch", "not_partial_isometry"}
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert text == (DATA / "verify_witness_golden_1_1_row_pair.json").read_text()


def _block(alg, cells):
    return BlockMatrix(alg, 1, alg.words(1), cells)


def test_equals_with_a_cell_stored_on_one_side(algebras):
    alg = algebras["golden"]
    one_side = _block(alg, {(0, 1): alg.p(1)})
    empty = _block(alg, {})
    assert not one_side.equals(empty)
    assert not empty.equals(one_side)
    both = _block(alg, {(0, 1): alg.p(1), (1, 0): alg.p(2)})
    assert not one_side.equals(both)
    assert not both.equals(one_side)
    assert both.equals(_block(alg, {(1, 0): alg.p(2), (0, 1): alg.p(1)}))


def test_equals_with_a_stored_cell_that_is_zero_in_the_algebra(algebras):
    for name in SMALL:
        alg = algebras[name]
        vanishing = -alg.identity  # p(1) + ... + p(n) - 1
        for j in range(1, alg.n + 1):
            vanishing = vanishing + alg.p(j)
        assert vanishing.terms and alg.equal(vanishing, alg.zero)
        stored = _block(alg, {(0, 0): vanishing})
        assert (0, 0) in stored._cells
        empty = _block(alg, {})
        assert stored.equals(empty)
        assert empty.equals(stored)
        other = _block(alg, {(0, 0): vanishing, (1, 1): alg.p(1)})
        assert not stored.equals(other)
        assert not other.equals(stored)


def _relabelled_chord_cycle():
    """A 5-cycle with two chords, its states shuffled."""
    rng = seeded(1414)
    rows = sparse_irreducible(rng, 5, extra_edges=2).entries
    order = list(range(5))
    rng.shuffle(order)
    return [[rows[order[i]][order[j]] for j in range(5)] for i in range(5)]


@pytest.mark.parametrize(
    "rows",
    [GOLDEN_ROWS, FULL3_ROWS, RANDOM3_ROWS, _relabelled_chord_cycle()],
    ids=["golden", "full3", "random3", "chord5"],
)
def test_prefix_table_matches_bisection(rows):
    # every word over the alphabet of length <= m, admissible or not, gets
    # the range that bisection in words(m) gives; the table stores only the
    # prefixes of admissible words
    alg = CuntzKriegerAlgebra(validate(rows))
    n = alg.n
    for m in range(1, 5):
        index = alg.words(m)
        spans = alg._spans(m)
        assert alg._spans(m) is spans
        for k in range(m + 1):
            for prefix in itertools.product(range(1, n + 1), repeat=k):
                lo = bisect_left(index, prefix)
                want = range(lo, bisect_left(index, prefix + (n + 1,), lo))
                got = spans.get(prefix, range(0))
                assert got == want and (prefix in spans) == bool(want), (m, prefix)
        assert set(spans) == {word[:k] for word in index for k in range(m + 1)}
        for pos, word in enumerate(index):
            assert spans[word] == range(pos, pos + 1)


@pytest.mark.parametrize("seed,n", [(32, 3), (33, 3), (34, 4), (35, 4)])
def test_report_matches_dense_oracle_on_seeded_matrices(seed, n):
    alg = CuntzKriegerAlgebra(random_irreducible(seeded(seed), n, density=0.5))
    for (n0, nn), fault in itertools.product([(1, 1), (1, 2), (2, 1)], (False, True)):
        sparse = verify_witness_decomposition(alg, n0, nn, inject_fault=fault)
        dense = verify_witness_decomposition_dense(alg, n0, nn, inject_fault=fault)
        assert sparse.to_json_dict() == dense.to_json_dict(), (n0, nn, fault)
        assert sparse.ok is not fault


def _vanishing(alg):
    """Terms of P_1 + ... + P_n - 1: zero in the algebra, not as a map."""
    terms = {Monomial((j,), (j,)): 1 for j in range(1, alg.n + 1)}
    terms[Monomial((), ())] = -1
    return terms


def test_cell_mismatches_decide_cancelled_cells_in_the_algebra(algebras):
    alg = algebras["golden"]
    p1 = {Monomial((1,), (1,)): 1}
    vanishing = _vanishing(alg)
    zero_coefficient = {Monomial((1,), (2,)): 0}
    # cancelled terms against an absent cell, either way round
    for cancelled in (vanishing, zero_coefficient, {}):
        assert _cell_mismatches(alg, {(0, 1): cancelled}, {}) == []
        assert _cell_mismatches(alg, {}, {(0, 1): cancelled}) == []
    # a cell that does not cancel, against an absent one: one mismatch
    assert _cell_mismatches(alg, {(0, 1): p1}, {}) == [(0, 1)]
    assert _cell_mismatches(alg, {}, {(0, 1): p1}) == [(0, 1)]
    # maps that differ but agree in the algebra, and row-major order
    padded = {**p1, **vanishing}
    padded[Monomial((1,), (1,))] = 2
    lhs = {(1, 0): p1, (0, 2): p1, (0, 1): padded, (2, 2): vanishing}
    rhs = {(0, 1): p1, (1, 1): p1}
    assert _cell_mismatches(alg, lhs, rhs) == [(0, 2), (1, 0), (1, 1)]
    assert _cell_mismatches(alg, rhs, lhs) == [(0, 2), (1, 0), (1, 1)]


def test_cancelled_terms_on_either_side_leave_the_report_unchanged(monkeypatch):
    # the embedding's cells gain terms that cancel, and a cell of them where
    # nothing is stored; the witness pieces gain terms that cancel: every
    # term map differs, and only the algebra decides
    alg = CuntzKriegerAlgebra(validate(RANDOM3_ROWS))
    want = verify_witness_decomposition(alg, 1, 2, inject_fault=True).to_json_dict()
    real_cells, real_s, real_q = alg._embedding_cells, alg.s, alg.q
    vanishing = CKElement(alg, _vanishing(alg))
    assert vanishing.terms and alg.equal(vanishing, alg.zero)

    def padded_cells(m, x):
        cells = real_cells(m, x)
        # a key of the embedding's own making: a cell of the identity's
        # embedding, the block diagonal, where x stores nothing
        free = [key for key in real_cells(m, alg.identity) if key not in cells]
        assert free
        for terms in cells.values():
            for mono, c in vanishing.terms.items():
                terms[mono] = terms.get(mono, 0) + c
        cells[free[0]] = dict(vanishing.terms)
        return cells

    monkeypatch.setattr(alg, "_embedding_cells", padded_cells)
    monkeypatch.setattr(alg, "s", lambda word: real_s(word) + vanishing)
    monkeypatch.setattr(alg, "q", lambda j: real_q(j) + vanishing)
    got = verify_witness_decomposition(alg, 1, 2, inject_fault=True).to_json_dict()
    assert got == want
    assert want["cases"] - want["passed"] == 1


def test_full3_depth_six_cases_all_pass():
    alg = CuntzKriegerAlgebra(validate(FULL3_ROWS))
    report = verify_witness_decomposition(alg, 3, 3)
    assert (report.cases, report.passed, report.failures) == (10890, 10890, [])
