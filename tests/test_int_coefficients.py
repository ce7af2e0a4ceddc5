"""Coefficients: an integral one is stored as an int, any other as a
Fraction, and elements print and compare exactly as they did when every
coefficient was a Fraction.

``tests/data/seeded_element_reprs.txt`` holds ``repr`` of the elements of
``seeded_elements`` as computed when every coefficient was stored as a
Fraction; regenerate it only for a deliberate change of the printed form.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from ckshift import CuntzKriegerAlgebra, Monomial, validate

from conftest import (
    FULL2_ROWS,
    FULL3_ROWS,
    GOLDEN_ROWS,
    PERM2_ROWS,
    RANDOM3_ROWS,
    random_degree_zero,
    random_monomial,
    seeded,
)

REPRS = Path(__file__).parent / "data" / "seeded_element_reprs.txt"
MATRICES = {
    "golden": GOLDEN_ROWS,
    "full2": FULL2_ROWS,
    "random3": RANDOM3_ROWS,
    "perm2": PERM2_ROWS,
    "full3": FULL3_ROWS,
}


def seeded_elements(alg, rng):
    """Elements with integral, fractional, negative and cancelling
    coefficients, and the results of every operation on them."""
    out = [alg.identity, alg.zero, alg.q(1), alg.p(alg.n)]
    for _ in range(6):
        coeff = Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice([1, 2, 3]))
        x = coeff * random_monomial(alg, rng) + random_monomial(alg, rng)
        y = random_degree_zero(alg, rng)
        out += [x, y, x * y, y * x, x - y, 2 * (Fraction(1, 2) * x), -y]
        out += [alg.shift(x, 1), x.adjoint(), y.refined(4), Fraction(3, 2) * y]
    return out


def _types(x):
    return {type(c) for c in x.terms.values()}


class TestStoredType:
    def test_constructors_store_ints(self, golden_alg):
        alg = golden_alg
        assert alg.identity.terms == {Monomial((), ()): 1}
        assert _types(alg.identity) == {int}
        assert _types(alg.monomial((1, 1), (2, 1))) == {int}
        assert _types(alg.monomial((1,), (1,), Fraction(4, 2))) == {int}
        assert _types(alg.monomial((1,), (1,), 3.0)) == {int}
        assert _types(alg.q(1)) == {int}
        assert _types(alg.p(2)) == {int}
        halves = alg.element({((1,), ()): Fraction(1, 2), (range(1, 2), ()): Fraction(1, 2)})
        assert halves.terms == {Monomial((1,), ()): 1}
        assert _types(halves) == {int}
        assert _types(alg.element({((1,), (1,)): Fraction(-6, 3)})) == {int}

    def test_products_and_scalars_store_ints(self, golden_alg):
        alg = golden_alg
        x = alg.monomial((1,), (2, 1), -3)
        assert _types(alg._multiply(alg.s_star((1,)), alg.s((1,)))) == {int}
        assert _types(x * x.adjoint()) == {int}
        assert _types(2 * x) == {int}
        assert _types(x * Fraction(2, 1)) == {int}
        half = Fraction(1, 2) * x
        assert _types(half) == {Fraction}
        assert _types(2 * half) == {int}
        assert (2 * half) == x
        # Fraction products that come out integral
        y = alg.monomial((1,), (1,), Fraction(2, 3))
        z = alg.monomial((1,), (1,), Fraction(3, 2))
        assert (y * z).terms == {Monomial((1,), (1,)): 1}
        assert _types(y * z) == {int}
        assert _types(half + half) == {int}

    def test_non_integral_stays_fraction(self, golden_alg):
        alg = golden_alg
        x = alg.monomial((1,), (2,), Fraction(1, 3))
        assert x.terms == {Monomial((1,), (2,)): Fraction(1, 3)}
        assert _types(x) == {Fraction}
        assert _types(alg.element({((1,), ()): Fraction(-5, 2)})) == {Fraction}
        assert _types(Fraction(1, 3) * alg.p(1)) == {Fraction}
        assert _types(alg.p(1) * Fraction(-7, 4)) == {Fraction}
        y = alg.monomial((2,), (1,), Fraction(1, 2))
        assert _types(x * y) == {Fraction}
        assert _types(x + x) == {Fraction}
        assert _types(-x) == {Fraction}

    def test_block_diagonal_stays_fraction(self, golden_alg):
        blocks = golden_alg.af_blocks(golden_alg.p(1) + golden_alg.p(2), 2).blocks
        for grid in blocks.values():
            assert {type(c) for row in grid for c in row} == {Fraction}


@pytest.mark.parametrize("name", list(MATRICES))
def test_repr_and_eq_unchanged(name):
    alg = CuntzKriegerAlgebra(validate(MATRICES[name]))
    elements = seeded_elements(alg, seeded(808))
    want = [line.split(" ", 1)[1] for line in REPRS.read_text().splitlines()
            if line.split(" ", 1)[0] == name]
    assert [repr(x) for x in elements] == want
    for x in elements:
        # an int compares and hashes equal to its Fraction
        assert x.terms == {m: Fraction(c) for m, c in x.terms.items()}
        assert _types(x) <= {int, Fraction}
    for x, rx in zip(elements, want):
        for y, ry in zip(elements, want):
            assert (x == y) is (rx == ry)
