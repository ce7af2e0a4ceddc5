"""The sparse witness verifier against the dense reference in
``dense_witness_oracle``: byte-identical reports, and the public dense views
(``witness_blocks``, ``block_embedding``) unchanged."""

import json

import numpy as np
import pytest

from ckshift import CuntzKriegerAlgebra, validate, verify_witness_decomposition
from ckshift.ck import _is_partial_permutation

from conftest import (
    FULL2_ROWS,
    FULL3_ROWS,
    GOLDEN_ROWS,
    RANDOM3_ROWS,
    random_degree_zero,
    random_monomial,
    seeded,
)
from dense_witness_oracle import (
    dense_block_embedding,
    dense_witness_blocks,
    verify_witness_decomposition_dense,
)

MATRICES = {
    "golden": GOLDEN_ROWS,
    "full2": FULL2_ROWS,
    "random3": RANDOM3_ROWS,
    "full3": FULL3_ROWS,
}
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
            if not alg._admissible(alpha):
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


def test_block_embedding_matches_dense_oracle(algebras):
    rng = seeded(2024)
    for alg in algebras.values():
        elements = [alg.identity, alg.zero]
        elements += [random_monomial(alg, rng) for _ in range(6)]
        elements += [random_degree_zero(alg, rng) for _ in range(3)]
        elements += [alg.shift(alg.generator((1,), 1, ()), 1)]
        for x in elements:
            for m in (1, 2, 3):
                got = alg.block_embedding(m, x)
                want = dense_block_embedding(alg, m, x)
                assert got.index == want.index
                assert got.entries == want.entries


def test_embedding_cells_are_the_nonzero_entries(algebras):
    rng = seeded(77)
    for alg in algebras.values():
        for _ in range(8):
            x = random_monomial(alg, rng) + random_monomial(alg, rng)
            dense = dense_block_embedding(alg, 3, x)
            cells = alg._embedding_cells(3, x)
            nonzero = {
                (r, c)
                for r, row in enumerate(dense.entries)
                for c, entry in enumerate(row)
                if not entry.is_zero
            }
            assert set(cells) == nonzero
            for (r, c), entry in cells.items():
                assert entry == dense.entries[r][c]
