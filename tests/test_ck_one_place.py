"""Each algebra invariant is set in one place: every element is built by the
``CKElement`` constructor, which normalizes its terms, and a verification
at depth m finds every word in the one prefix table of depth m."""

import pytest

from ckshift import CKElement, verify_witness_decomposition


@pytest.fixture
def built(monkeypatch):
    """The elements built through ``CKElement.__init__``, in order."""
    elements = []
    real = CKElement.__init__

    def recording(self, algebra, terms):
        real(self, algebra, terms)
        elements.append(self)

    monkeypatch.setattr(CKElement, "__init__", recording)
    return elements


def test_every_producer_builds_through_the_constructor(golden_alg, built):
    alg = golden_alg
    x = alg.monomial((1, 2), (2,), 3) + alg.p(1)
    producers = {
        "negation": lambda: -x,
        "adjoint": lambda: x.adjoint(),
        "support projection": lambda: alg.q(1),
        "generator": lambda: alg.generator((1,), 1, ()),
        "shift": lambda: alg.shift(x, 2),
        # every coefficient of S_1 S_1* is the int 1
        "all-int product": lambda: alg.s((1,)) * alg.s_star((1,)),
    }
    skipped = []
    for name, make in producers.items():
        built.clear()
        z = make()
        assert z.terms, name
        if not built or built[-1] is not z:
            skipped.append(name)
    assert not skipped
    assert all(type(c) is int for c in (alg.s((1,)) * alg.s_star((1,))).terms.values())


@pytest.fixture
def depths(golden_alg, monkeypatch):
    """The depths whose prefix table the golden algebra is asked for."""
    asked = []
    real = golden_alg._spans

    def recording(m):
        asked.append(m)
        return real(m)

    monkeypatch.setattr(golden_alg, "_spans", recording)
    return asked


def test_the_witness_verifier_asks_for_the_depth_m_table_only(golden_alg, depths):
    report = verify_witness_decomposition(golden_alg, 2, 2)
    assert report.ok
    assert set(depths) == {4}


def test_witness_blocks_ask_for_the_depth_m_table_only(golden_alg, depths):
    alg, m = golden_alg, 4
    cases = 0
    for a in (w for k in range(3) for w in alg.words(k)):
        for b in (w for k in range(len(a) + 1) for w in alg.words(k)):
            for i in (1, 2):
                for l in range(m - len(a)):
                    depths.clear()
                    blocks = alg.witness_blocks(a, b, i, l, m)
                    assert set(depths) == {m}, (a, b, i, l)
                    cases += any(block.any() for block in blocks.values())
    assert cases
