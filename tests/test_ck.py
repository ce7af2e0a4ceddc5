import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from ckshift import (
    BlockMatrix,
    CuntzKriegerAlgebra,
    DepthExceededError,
    DepthTooSmallError,
    InadmissibleWordError,
    Monomial,
    NonZeroDegreeError,
    MatrixError,
    NoConvergenceError,
    SymbolOutOfRangeError,
    ZeroRowError,
    parry_measure,
    partition_entropy,
    spectral_radius,
    validate,
    verify_relations,
    verify_witness_decomposition,
)
from ckshift import matrix
from ckshift.matrix import TransitionMatrix, parse_matrix

from conftest import random_degree_zero, random_monomial, seeded
from dense_witness_oracle import product

DATA = Path(__file__).parent / "data"


class TestConstruction:
    def test_monomial_stored(self, golden_alg):
        x = golden_alg.monomial((1, 1), (2, 1))
        assert x.terms == {Monomial((1, 1), (2, 1)): Fraction(1)}

    def test_inadmissible_is_zero(self, golden_alg):
        assert golden_alg.monomial((2, 2), ()).is_zero
        assert golden_alg.s((1, 2, 2)).is_zero

    def test_disjoint_successor_rows_give_zero(self):
        # rows 1 and 2 share no common successor, so S_1 S_2* vanishes
        alg = CuntzKriegerAlgebra(validate([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))
        assert alg.monomial((1,), (2,)).is_zero
        # and the decision procedure agrees with the block picture
        assert alg.equal(alg.monomial((1,), (2,)), alg.zero)

    def test_symbol_range(self, golden_alg):
        with pytest.raises(SymbolOutOfRangeError):
            golden_alg.monomial((3,), ())
        with pytest.raises(SymbolOutOfRangeError):
            golden_alg.p(0)

    def test_identity_and_zero(self, golden_alg):
        assert golden_alg.identity.terms == {Monomial((), ()): Fraction(1)}
        assert golden_alg.zero.is_zero

    def test_projections(self, golden_alg):
        assert golden_alg.p(2).terms == {Monomial((2,), (2,)): Fraction(1)}
        assert golden_alg.q(1) == golden_alg.p(1) + golden_alg.p(2)
        assert golden_alg.q(2) == golden_alg.p(1)

    def test_element_identifies_zero_monomials(self, golden_alg):
        # S_2 S_2 is zero in the algebra; equal is sound only if it is dropped
        x = golden_alg.element({Monomial((2, 2), ()): 1})
        assert x.is_zero
        assert golden_alg.equal(x, golden_alg.zero)
        assert golden_alg.equal(golden_alg.s((2, 2)), x)
        # S_1 S_2* vanishes here too: rows 1 and 2 share no successor
        alg = CuntzKriegerAlgebra(validate([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))
        assert alg.element({((1,), (2,)): 3}).is_zero

    def test_element_checks_symbols_and_adds_coinciding_keys(self, golden_alg):
        with pytest.raises(SymbolOutOfRangeError):
            golden_alg.element({((5,), ()): 1})
        # range(1, 2) and (1,) are different keys for the same word
        x = golden_alg.element({((1,), ()): Fraction(1, 2), (range(1, 2), ()): Fraction(1, 2)})
        assert x == golden_alg.s((1,))
        y = golden_alg.element({((1,), ()): 1, (range(1, 2), ()): -1, ((2,), (2,)): 2})
        assert y.terms == {Monomial((2,), (2,)): Fraction(2)}


class TestGenerator:
    def test_bare_projection(self, golden_alg):
        assert golden_alg.generator((), 1, ()) == golden_alg.p(1)

    def test_killed_by_adjacency(self, golden_alg):
        assert golden_alg.generator((1,), 2, (2,)).is_zero

    def test_one_sided(self, golden_alg):
        g = golden_alg.generator((1,), 1, ())
        assert g == golden_alg.monomial((1, 1), (1,))

    def test_inadmissible_word_raises(self, golden_alg):
        with pytest.raises(InadmissibleWordError):
            golden_alg.generator((2, 2), 1, ())
        with pytest.raises(InadmissibleWordError):
            golden_alg.generator((), 1, (2, 2))

    def test_one_builder_for_every_generator(self, golden_alg, full3_alg, random3_alg):
        # every admissible alpha, beta with |beta| <= |alpha| <= 3 and every
        # i, junction failures included, against the word path of monomial
        for alg in (golden_alg, full3_alg, random3_alg):
            words = [w for k in range(4) for w in alg.words(k)]
            zeros = 0
            for a in words:
                for b in (w for w in words if len(w) <= len(a)):
                    for i in range(1, alg.n + 1):
                        x = alg._generator(a, b, i)
                        assert x == alg.generator(a, i, b)
                        assert x == alg.monomial(a + (i,), b + (i,))
                        zeros += x.is_zero
            # full3 has every edge, so no junction fails there
            assert zeros > 0 or alg is full3_alg

    def test_no_algebra_for_a_zero_row(self):
        # the matrix constructor checks the grid, so no algebra is built on a
        # zero row and no generator needs to test for one
        with pytest.raises(ZeroRowError) as exc:
            CuntzKriegerAlgebra(TransitionMatrix(((1, 1), (0, 0))))
        assert exc.value.row == 2

    def test_list_words(self, golden_alg):
        alg = golden_alg
        assert alg.monomial([1], [1]) == alg.p(1)
        assert alg.s([1, 2]) == alg.s((1, 2))
        assert alg.s_star([2, 1]) == alg.s_star((2, 1))
        assert alg.monomial([1, 1], [2], Fraction(1, 2)) == alg.monomial((1, 1), (2,), Fraction(1, 2))
        assert alg.generator([1], 2, []) == alg.generator((1,), 2, ())
        assert alg.monomial([2, 2], []).is_zero

    @pytest.mark.parametrize("call, error", [
        (lambda alg: alg.monomial([3], []), SymbolOutOfRangeError),
        (lambda alg: alg.monomial((), [0]), SymbolOutOfRangeError),
        (lambda alg: alg.monomial(1, ()), TypeError),
        (lambda alg: alg.monomial((), 1), TypeError),
        # the left word fails first
        (lambda alg: alg.monomial([5], 1), SymbolOutOfRangeError),
        (lambda alg: alg.s(2), TypeError),
        (lambda alg: alg.s([1, 3]), SymbolOutOfRangeError),
        (lambda alg: alg.s_star([True]), SymbolOutOfRangeError),
        (lambda alg: alg.p(3), SymbolOutOfRangeError),
        (lambda alg: alg.element({((4,), ()): 1}), SymbolOutOfRangeError),
        (lambda alg: alg.element({(1, ()): 1}), TypeError),
        (lambda alg: alg.generator([1], 3, []), SymbolOutOfRangeError),
        (lambda alg: alg.generator(1, 1, ()), TypeError),
        (lambda alg: alg.generator([2, 2], 1, []), InadmissibleWordError),
    ])
    def test_bad_words_raise(self, golden_alg, call, error):
        with pytest.raises(error):
            call(golden_alg)

    def test_witness_verifier_builds_every_generator_once(self, golden_alg, monkeypatch):
        calls = []
        real = CuntzKriegerAlgebra._generator

        def counted(self, a, b, i):
            calls.append((a, b, i))
            return real(self, a, b, i)

        monkeypatch.setattr(CuntzKriegerAlgebra, "_generator", counted)
        n = 1
        report = verify_witness_decomposition(golden_alg, 1, n)
        assert report.ok
        # seven pairs (alpha, beta) with |beta| <= |alpha| <= 1, two symbols
        assert len(calls) == report.cases // n == 14
        assert len(set(calls)) == len(calls)


class TestMultiply:
    def test_isometry_composition(self, golden_alg):
        x = golden_alg.monomial((1,), ()) * golden_alg.monomial((), (1,))
        assert x == golden_alg.p(1)

    def test_support_projection_expansion(self, golden_alg):
        q1 = golden_alg.monomial((), (1,)) * golden_alg.monomial((1,), ())
        assert q1 == golden_alg.p(1) + golden_alg.p(2)

    def test_middle_projection(self, golden_alg):
        x = golden_alg.monomial((1,), (2,)) * golden_alg.monomial((2,), (1,))
        assert golden_alg.equal(x, golden_alg.monomial((1, 1), (1, 1)))

    def test_orthogonal_words_annihilate(self, golden_alg):
        assert (golden_alg.s_star((1,)) * golden_alg.s((2,))).is_zero

    def test_scalar_and_linearity(self, golden_alg):
        p1 = golden_alg.p(1)
        p2 = golden_alg.p(2)
        x = 2 * p1 + Fraction(1, 3) * p2
        assert x.terms[Monomial((1,), (1,))] == 2
        assert x.terms[Monomial((2,), (2,))] == Fraction(1, 3)
        assert (x - x).is_zero

    def test_associativity_random(self, golden_alg, full2_alg, random3_alg):
        rng = seeded(301)
        for alg in (golden_alg, full2_alg, random3_alg):
            for _ in range(40):
                x = random_monomial(alg, rng)
                y = random_monomial(alg, rng)
                z = random_monomial(alg, rng)
                assert alg.equal((x * y) * z, x * (y * z))

    def test_distributivity_random(self, golden_alg):
        rng = seeded(302)
        for _ in range(40):
            x = random_monomial(golden_alg, rng)
            y = random_monomial(golden_alg, rng)
            z = random_monomial(golden_alg, rng)
            assert golden_alg.equal(x * (y + z), x * y + x * z)

    def test_cross_algebra_rejected(self, golden_alg, full2_alg):
        with pytest.raises(ValueError):
            golden_alg.p(1) * full2_alg.p(1)


FOREIGN_USES = {
    "shift": lambda alg, x: alg.shift(x, 1),
    "block_embedding": lambda alg, x: alg.block_embedding(2, x),
    "af_blocks": lambda alg, x: alg.af_blocks(x, 2),
    "equal": lambda alg, x: alg.equal(x, x),
}


@pytest.mark.parametrize("use", FOREIGN_USES.values(), ids=list(FOREIGN_USES))
def test_elements_of_another_algebra_rejected(golden_alg, full2_alg, use):
    # S_22 S_22* is nonzero over full2; over golden its words are not
    # admissible, and shifting it there would store S_122 S_122*
    x = full2_alg.monomial((2, 2), (2, 2))
    with pytest.raises(ValueError, match="^elements belong to different algebras$"):
        use(golden_alg, x)


class TestAdjoint:
    def test_swap(self, golden_alg):
        assert golden_alg.monomial((1,), (2,)).adjoint() == golden_alg.monomial((2,), (1,))

    def test_linear(self, golden_alg):
        x = golden_alg.p(1) + 3 * golden_alg.monomial((1, 2), (1,))
        y = golden_alg.s((2,))
        assert (x + y).adjoint() == x.adjoint() + y.adjoint()

    def test_antihomomorphism_random(self, golden_alg, full2_alg):
        rng = seeded(303)
        for alg in (golden_alg, full2_alg):
            for _ in range(40):
                x = random_monomial(alg, rng)
                y = random_monomial(alg, rng)
                assert alg.equal((x * y).adjoint(), y.adjoint() * x.adjoint())

    def test_involution(self, golden_alg):
        rng = seeded(304)
        for _ in range(20):
            x = random_monomial(golden_alg, rng)
            assert x.adjoint().adjoint() == x


class TestRefinement:
    def test_one_step(self, golden_alg):
        x = golden_alg.monomial((1,), (2,))
        assert x.refined(2) == golden_alg.monomial((1, 1), (2, 1))

    def test_identity_to_depth_one(self, golden_alg):
        refined = golden_alg.identity.refined(1)
        assert refined == golden_alg.p(1) + golden_alg.p(2)

    def test_already_at_depth(self, golden_alg):
        x = golden_alg.monomial((1, 1), (2, 1))
        assert x.refined(2) == x

    def test_depth_too_small(self, golden_alg):
        with pytest.raises(DepthTooSmallError):
            golden_alg.monomial((1, 1), (2, 1)).refined(1)

    def test_preserves_degree_and_value(self, full3_alg):
        rng = seeded(305)
        for _ in range(20):
            x = random_monomial(full3_alg, rng)
            depth = max(len(m.right) for m in x.terms) + 2
            y = x.refined(depth)
            assert full3_alg.equal(x, y)
            assert x.degrees() == y.degrees()
            assert all(len(m.right) == depth for m in y.terms)


class TestEqual:
    def test_unit_decomposition(self, golden_alg):
        assert golden_alg.equal(golden_alg.identity, golden_alg.p(1) + golden_alg.p(2))

    def test_refinement_invariance(self, golden_alg):
        x = golden_alg.monomial((1,), (2,))
        assert golden_alg.equal(x, x.refined(3))

    def test_distinct_projections(self, golden_alg):
        assert not golden_alg.equal(golden_alg.p(1), golden_alg.p(2))

    def test_reflexive_symmetric(self, random3_alg):
        rng = seeded(306)
        for _ in range(20):
            x = random_monomial(random3_alg, rng)
            y = random_monomial(random3_alg, rng)
            assert random3_alg.equal(x, x)
            assert random3_alg.equal(x, y) == random3_alg.equal(y, x)

    def test_scalar_sensitivity(self, golden_alg):
        x = golden_alg.p(1)
        assert not golden_alg.equal(x, Fraction(2) * x)


class TestShift:
    def test_unital(self, golden_alg, full2_alg, random3_alg):
        for alg in (golden_alg, full2_alg, random3_alg):
            for power in (0, 1, 2, 3):
                assert alg.equal(alg.shift(alg.identity, power), alg.identity)

    def test_golden_projection(self, golden_alg):
        assert golden_alg.shift(golden_alg.p(2), 1) == golden_alg.monomial((1, 2), (1, 2))

    def test_star_preserving(self, golden_alg):
        rng = seeded(307)
        for _ in range(20):
            x = random_monomial(golden_alg, rng)
            assert golden_alg.equal(
                golden_alg.shift(x, 1).adjoint(), golden_alg.shift(x.adjoint(), 1)
            )

    def test_composition(self, golden_alg, full2_alg):
        rng = seeded(308)
        for alg in (golden_alg, full2_alg):
            for _ in range(15):
                x = random_monomial(alg, rng, max_len=2)
                assert alg.equal(alg.shift(alg.shift(x, 1), 1), alg.shift(x, 2))
                assert alg.equal(alg.shift(alg.shift(x, 2), 1), alg.shift(x, 3))


class TestBlockEmbedding:
    def test_full2_matrix_unit(self, full2_alg):
        bm = full2_alg.block_embedding(1, full2_alg.monomial((1,), (2,)))
        entries = bm.entries
        for r, row_word in enumerate(bm.index):
            for c, col_word in enumerate(bm.index):
                entry = entries[r][c]
                if (row_word, col_word) == ((1,), (2,)):
                    assert full2_alg.equal(entry, full2_alg.identity)
                else:
                    assert entry.is_zero

    def test_identity_diagonal_support_form(self, golden_alg, full2_alg, random3_alg):
        for alg in (golden_alg, full2_alg, random3_alg):
            for m in (1, 2, 3):
                bm = alg.block_embedding(m, alg.identity)
                entries = bm.entries
                for r, row_word in enumerate(bm.index):
                    for c, col_word in enumerate(bm.index):
                        entry = entries[r][c]
                        if r == c:
                            assert alg.equal(entry, alg.q(row_word[-1]))
                        else:
                            assert entry.is_zero

    def test_homomorphism_random(self, golden_alg, full2_alg):
        rng = seeded(309)
        for alg in (golden_alg, full2_alg):
            for _ in range(15):
                x = random_monomial(alg, rng, max_len=2)
                y = random_monomial(alg, rng, max_len=2)
                m = rng.randrange(1, 3)
                left = alg.block_embedding(m, x) * alg.block_embedding(m, y)
                assert left.equals(alg.block_embedding(m, x * y))

    def test_star_compatible(self, golden_alg):
        rng = seeded(310)
        for _ in range(10):
            x = random_monomial(golden_alg, rng, max_len=2)
            assert golden_alg.block_embedding(2, x.adjoint()).equals(
                golden_alg.block_embedding(2, x).adjoint()
            )

    def test_entry_accessor(self, golden_alg):
        bm = golden_alg.block_embedding(1, golden_alg.identity)
        assert golden_alg.equal(bm.entry((1,), (1,)), golden_alg.q(1))

    def test_entry_finds_every_word_pair(self, random3_alg):
        x = random3_alg.s((1, 2)) + random3_alg.p(3)
        bm = random3_alg.block_embedding(2, x)
        words = random3_alg.words(2)
        for r, mu in enumerate(words):
            for c, nu in enumerate(words):
                assert bm.entry(list(mu), nu) == bm.entries[r][c]

    @pytest.mark.parametrize(
        "word, message",
        [
            ((2, 2), "(2, 2) is not an admissible word of length 2"),
            ((1,), "(1,) is not an admissible word of length 2"),
            ((1, 2, 1), "(1, 2, 1) is not an admissible word of length 2"),
            ((1, 3), "symbol 3 outside alphabet 1..2"),
        ],
        ids=["inadmissible", "short", "long", "symbol out of range"],
    )
    def test_entry_rejects_other_words(self, golden_alg, word, message):
        bm = golden_alg.block_embedding(2, golden_alg.identity)
        for row, col in ((word, (1, 2)), ((1, 2), word)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                bm.entry(row, col)

    def test_index_is_the_words_of_the_depth(self, golden_alg):
        # entry looks words up in the algebra's table for words(depth)
        with pytest.raises(ValueError, match=re.escape("is indexed by words(1)")):
            BlockMatrix(golden_alg, 1, ((2,), (1,)), {})

    def test_equals_across_algebras_is_false(self, golden_alg, full2_alg):
        # both embeddings are over the index ((1,), (2,))
        assert golden_alg.words(1) == full2_alg.words(1)
        lhs = golden_alg.block_embedding(1, golden_alg.identity)
        assert not lhs.equals(full2_alg.block_embedding(1, full2_alg.identity))


# an element, a block matrix and a block diagonal of the golden algebra
# against operands of other types: each operator returns NotImplemented,
# so Python raises TypeError, or falls back to identity for ==
MIXED_TYPE_OPERATIONS = {
    "x + 1": lambda x, block, diag: x + 1,
    "x - 1": lambda x, block, diag: x - 1,
    "x * 0.5": lambda x, block, diag: x * 0.5,
    "0.5 * x": lambda x, block, diag: 0.5 * x,
    "block * 2": lambda x, block, diag: block * 2,
    "diag * 1": lambda x, block, diag: diag * 1,
    "x == 1": lambda x, block, diag: x == 1,
    "diag == 1": lambda x, block, diag: diag == 1,
}


@pytest.mark.parametrize("expr", list(MIXED_TYPE_OPERATIONS))
def test_mixed_type_operands_are_not_implemented(golden_alg, expr):
    alg = golden_alg
    operands = alg.p(1), alg.block_embedding(1, alg.identity), alg.af_blocks(alg.p(1), 1)
    if "==" in expr:
        assert MIXED_TYPE_OPERATIONS[expr](*operands) is False
    else:
        with pytest.raises(TypeError):
            MIXED_TYPE_OPERATIONS[expr](*operands)


class TestAfBlocks:
    def test_projection_is_rank_one_unit(self, golden_alg):
        bd = golden_alg.af_blocks(golden_alg.p(1), 1)
        assert bd.blocks[1] == ((Fraction(1),),)
        assert bd.blocks[2] == ((Fraction(0),),)

    def test_nonzero_degree_rejected(self, golden_alg):
        with pytest.raises(NonZeroDegreeError):
            golden_alg.af_blocks(golden_alg.s((1,)), 2)

    def test_too_deep_rejected(self, golden_alg):
        with pytest.raises(DepthExceededError):
            golden_alg.af_blocks(golden_alg.monomial((1, 1), (2, 1)), 1)

    def test_mixed_termini_at_target_depth_rejected(self, golden_alg):
        with pytest.raises(DepthExceededError):
            golden_alg.af_blocks(golden_alg.monomial((1,), (2,)), 1)

    def test_homomorphism(self, golden_alg, full2_alg, random3_alg):
        rng = seeded(311)
        for alg in (golden_alg, full2_alg, random3_alg):
            for _ in range(30):
                depth = rng.randrange(2, 5)
                x = random_degree_zero(alg, rng, max_depth=depth - 1)
                y = random_degree_zero(alg, rng, max_depth=depth - 1)
                assert alg.af_blocks(x, depth) * alg.af_blocks(y, depth) == alg.af_blocks(
                    x * y, depth
                )

    def test_agrees_with_equal(self, golden_alg, random3_alg):
        rng = seeded(312)
        for alg in (golden_alg, random3_alg):
            for _ in range(40):
                x = random_degree_zero(alg, rng, max_depth=3)
                if rng.random() < 0.5:
                    y = x.refined(4)  # equal by construction, different shape
                else:
                    y = x + random_degree_zero(alg, rng, max_depth=3, terms=1)
                assert alg.equal(x, y) == (alg.af_blocks(x, 4) == alg.af_blocks(y, 4))


class TestRelationSuite:
    def test_passes_everywhere(self, golden_alg, full2_alg, full3_alg, random3_alg):
        for alg in (golden_alg, full2_alg, full3_alg, random3_alg):
            report = verify_relations(alg)
            assert report.ok
            assert report.passed == report.cases
            assert report.failures == []

    def test_fault_injection_reports(self, golden_alg):
        report = verify_relations(golden_alg, inject_fault=True)
        assert not report.ok
        assert {"relation": "unit_decomposition"} in report.failures

    def test_report_shape(self, golden_alg):
        payload = verify_relations(golden_alg).to_json_dict()
        assert set(payload) == {"cases", "passed", "failures", "params"}

    def test_every_failure_record_is_pinned(self, golden_alg, monkeypatch):
        # with every comparison failing, each case of all five relations
        # leaves its record, in the order the suite checks them
        monkeypatch.setattr(golden_alg, "equal", lambda x, y: False)
        report = verify_relations(golden_alg, max_word_len=2, max_state_len=2)
        assert (report.cases, report.passed, len(report.failures)) == (45, 0, 45)
        assert {f["relation"] for f in report.failures} == {
            "range_projection_orthogonality", "unit_decomposition", "word_collapse",
            "support_absorption", "depth_resolution",
        }
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        assert text == (DATA / "verify_relations_golden_2_2_unequal.json").read_text()


# coefficients whose products cancel (1/2 - 1/2) and come out integral (1/2 * 2)
NORMAL_FORM_COEFFS = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), 2, -2, 1)


def _assert_normal(x):
    """No stored coefficient is 0, and an integral one is an int."""
    for c in x.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _mixed_element(alg, rng):
    """One to three random monomials over a few shared words, each with a
    coefficient from NORMAL_FORM_COEFFS, so that terms meet and cancel."""
    x = alg.zero
    for _ in range(rng.randrange(1, 4)):
        x = x + rng.choice(NORMAL_FORM_COEFFS) * random_monomial(alg, rng, max_len=2)
    return x


class TestNormalForm:
    def test_every_producer_stores_normal_form(self, golden_alg, full2_alg, full3_alg, random3_alg):
        rng = seeded(331)
        pairs = cancelled = integral = 0
        for alg in (golden_alg, random3_alg, full2_alg, full3_alg):
            for _ in range(300):
                x, y = _mixed_element(alg, rng), _mixed_element(alg, rng)
                xy = x * y
                # the oracle shares no code with the algebra's product
                assert xy == product(alg, x, y)
                if x.terms and y.terms and not xy.terms:
                    cancelled += 1
                fractional = any(type(c) is Fraction for c in (*x.terms.values(), *y.terms.values()))
                integral += fractional and any(type(c) is int for c in xy.terms.values())
                for z in (xy, alg.shift(x, 1), x.adjoint(), -x, x + y, x.refined(3)):
                    _assert_normal(z)
                pairs += 1
        assert pairs == 1200
        assert cancelled and integral

    def test_empty_product_is_the_zero(self, golden_alg):
        # P_1 P_2 has no term at all
        assert golden_alg.p(1) * golden_alg.p(2) is golden_alg.zero

    def test_cancelling_product(self, golden_alg):
        # (1 - P_1 - P_2) S_1 = S_1 - S_1 + 0: the one term cancels to 0
        x = golden_alg.identity - golden_alg.p(1) - golden_alg.p(2)
        assert x.terms
        s1 = golden_alg.s((1,))
        assert (x * s1).terms == {}
        assert product(golden_alg, x, s1).terms == {}

    def test_integral_fraction_products_are_ints(self, full2_alg):
        half, two = Fraction(1, 2) * full2_alg.s((1,)), 2 * full2_alg.s_star((1,))
        for z in (half * two, two * half, half * (2 * full2_alg.p(1))):
            assert z.terms and all(type(c) is int for c in z.terms.values())
            _assert_normal(z)
        # 1/2 S_1 (2 S_1*) = P_1, 2 S_1* (1/2 S_1) = Q_1 = P_1 + P_2
        assert half * two == full2_alg.p(1)
        assert two * half == full2_alg.q(1)


def _residual_over_tol(alg, monkeypatch):
    monkeypatch.setattr(matrix, "_residual", lambda *args: 1.0)
    spectral_radius(alg.matrix)


GUARDS = {
    "shift power": (
        lambda alg, mp: alg.shift(alg.p(1), -1), ValueError, "power must be nonnegative"
    ),
    "block depth": (
        lambda alg, mp: alg.block_embedding(0, alg.p(1)), ValueError, "block depth must be >= 1"
    ),
    "af depth": (lambda alg, mp: alg.af_blocks(alg.p(1), 0), ValueError, "depth must be >= 1"),
    "partition depth": (
        lambda alg, mp: partition_entropy(parry_measure(alg.matrix), 0),
        ValueError,
        "partition depth must be >= 1",
    ),
    "block index": (
        lambda alg, mp: alg.block_embedding(1, alg.p(1)) * alg.block_embedding(2, alg.p(1)),
        ValueError,
        "block matrices are not over the same index",
    ),
    "diagonal depth": (
        lambda alg, mp: alg.af_blocks(alg.p(1), 1) * alg.af_blocks(alg.p(1), 2),
        ValueError,
        "block shapes differ",
    ),
    "malformed JSON": (
        lambda alg, mp: parse_matrix('{"rows": [[1, 1], [1, 0]]'),
        MatrixError,
        "invalid JSON matrix file: ",
    ),
    "residual over tol": (
        _residual_over_tol,
        NoConvergenceError,
        "Perron vector residual 1.000e+00 is more than tol 1.000e-12",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=list(GUARDS))
def test_guard_rejects_invalid_argument(golden_alg, monkeypatch, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}") as err:
        call(golden_alg, monkeypatch)
    assert "\n" not in str(err.value)
