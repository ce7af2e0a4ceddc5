import numpy as np
import pytest

from ckshift import (
    InadmissibleWordError,
    WitnessPreconditionError,
    verify_witness_decomposition,
)
from ckshift.sft import _admissible


def unit_positions(block):
    return {(int(r), int(c)) for r, c in np.argwhere(block)}


class TestWitnessBlocks:
    def test_diagonal_branch_golden(self, golden_alg):
        # alpha = beta = (1), i = 1, l = 0, m = 2: only the length-1 middle
        # word (1) qualifies, so the block for terminus 1 is a single
        # diagonal unit at row word (1, 1) and the other block is empty
        blocks = golden_alg.witness_blocks((1,), (1,), 1, 0, 2)
        index = golden_alg.words(2)
        pos = index.index((1, 1))
        assert unit_positions(blocks[1]) == {(pos, pos)}
        assert unit_positions(blocks[2]) == set()

    def test_degenerate_branch(self, golden_alg):
        # alpha = beta = empty: blocks collect diagonal units over all
        # length-m words starting at i, keyed by their terminus
        blocks = golden_alg.witness_blocks((), (), 1, 0, 2)
        index = golden_alg.words(2)
        assert unit_positions(blocks[1]) == {(index.index((1, 1)),) * 2}
        assert unit_positions(blocks[2]) == {(index.index((1, 2)),) * 2}

    def test_off_diagonal_branch_keys(self, full2_alg):
        blocks = full2_alg.witness_blocks((1,), (), 1, 1, 3)
        assert set(blocks) == {(1,), (2,)}
        w = len(full2_alg.words(3))
        for block in blocks.values():
            assert block.shape == (w, w)
            assert set(np.unique(block)) <= {0, 1}

    def test_every_block_is_partial_isometry(self, golden_alg, full2_alg, random3_alg):
        for alg in (golden_alg, full2_alg, random3_alg):
            for alpha, beta in (((), ()), ((1,), ()), ((1,), (1,)), ((1, 1), (2,))):
                if alpha and not _admissible(alg.matrix.entries, alpha):
                    continue
                for i in range(1, alg.n + 1):
                    for l in (0, 1):
                        m = l + 1 + len(alpha) + 1
                        blocks = alg.witness_blocks(alpha, beta, i, l, m)
                        for block in blocks.values():
                            assert np.array_equal(block @ block.T @ block, block)

    def test_preconditions(self, golden_alg):
        with pytest.raises(WitnessPreconditionError):
            golden_alg.witness_blocks((1,), (1, 1), 1, 0, 4)  # |beta| > |alpha|
        with pytest.raises(WitnessPreconditionError):
            golden_alg.witness_blocks((1,), (), 1, 0, 1)  # m too small
        with pytest.raises(WitnessPreconditionError):
            golden_alg.witness_blocks((1,), (), 1, -1, 4)
        with pytest.raises(InadmissibleWordError):
            golden_alg.witness_blocks((2, 2), (), 1, 0, 4)


class TestVerifier:
    def test_golden_small(self, golden_alg):
        report = verify_witness_decomposition(golden_alg, 1, 1)
        assert report.ok
        assert report.params == {"n0": 1, "n": 1, "m": 2}

    def test_full2_small(self, full2_alg):
        assert verify_witness_decomposition(full2_alg, 1, 1).ok

    def test_random3(self, random3_alg):
        assert verify_witness_decomposition(random3_alg, 1, 1).ok

    def test_case_count_golden(self, golden_alg):
        # generators: alpha in {e} + L(1) + L(2), beta no longer than alpha,
        # every symbol i, every shift power l < n
        report = verify_witness_decomposition(golden_alg, 2, 2)
        assert report.cases == 100
        assert report.passed == 100

    def test_mutation_detected(self, golden_alg):
        report = verify_witness_decomposition(golden_alg, 1, 1, inject_fault=True)
        assert not report.ok
        assert report.passed < report.cases
        assert any(f["kind"] == "entry_mismatch" for f in report.failures)

    def test_deterministic(self, golden_alg):
        a = verify_witness_decomposition(golden_alg, 1, 2)
        b = verify_witness_decomposition(golden_alg, 1, 2)
        assert a.to_json_dict() == b.to_json_dict()

    def test_bad_parameters(self, golden_alg):
        with pytest.raises(ValueError):
            verify_witness_decomposition(golden_alg, 0, 1)
