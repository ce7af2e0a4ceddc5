"""The relation suite against a reference whose products share no code with
the algebra's ``_multiply``."""

import pytest

from ckshift import CuntzKriegerAlgebra, verify_relations

import relation_oracle
from dense_witness_oracle import product

ALGEBRAS = ("golden", "full2", "full3", "random3")


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("name", ALGEBRAS)
def test_report_equals_the_reference(request, name, fault):
    alg = request.getfixturevalue(f"{name}_alg")
    got = verify_relations(alg, inject_fault=fault)
    want = relation_oracle.verify_relations(alg, inject_fault=fault)
    assert got == want
    assert [list(f.items()) for f in got.failures] == [list(f.items()) for f in want.failures]
    assert got.ok is not fault


def _drop_last_of_each_expansion(real):
    """``_pair_products`` with the last monomial of every expanded support
    projection left out: the middle words meet, are nonempty, and neither
    outer word ends where they do."""

    def patched(self, m1, m2):
        out = real(self, m1, m2)
        (mu, nu), (al, be) = m1, m2
        if nu == al and nu and not (mu and mu[-1] == nu[-1]) and not (be and be[-1] == nu[-1]):
            return out[:-1]
        return out

    return patched


def _case_products(alg, failure):
    """The factors of a failed case, each product a list of elements to
    multiply in turn."""
    relation = failure["relation"]
    if relation == "range_projection_orthogonality":
        return [alg.p(failure["i"]), alg.p(failure["j"])]
    if relation == "word_collapse":
        return [alg.s_star(failure["mu"]), alg.s(failure["nu"])]
    assert relation == "support_absorption", failure
    eta = failure["eta"]
    return [alg.s_star(eta), alg.s(eta), alg.s(failure["alpha"])]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_a_broken_expansion_fails_only_where_the_products_differ(request, monkeypatch, name):
    alg = request.getfixturevalue(f"{name}_alg")
    monkeypatch.setattr(
        CuntzKriegerAlgebra, "_pair_products",
        _drop_last_of_each_expansion(CuntzKriegerAlgebra._pair_products),
    )
    report = verify_relations(alg)
    assert not report.ok and report.failures
    for failure in report.failures:
        factors = _case_products(alg, failure)
        patched = oracle = factors[0]
        for factor in factors[1:]:
            patched = alg._multiply(patched, factor)
            oracle = product(alg, oracle, factor)
        assert not alg.equal(patched, oracle), failure
