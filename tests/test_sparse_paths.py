"""The sparse paths: the count route the cost model takes on a long chord
cycle, whose walk reads most rows by one gather, and the Parry rows built
over the successor lists, against dense references."""

import math
from pathlib import Path

import pytest

from ckshift import load_matrix, markov_entropy, matrix, parry_measure, validate, word_count

from conftest import (
    GOLDEN_ROWS,
    PERM2_ROWS,
    RANDOM3_ROWS,
    chord_cycle,
    random_irreducible,
    seeded,
)
from parry_oracle import dense_parry_measure
from word_count_oracle import oracle_count

DATA = Path(__file__).parent / "data"

# the benchmark's first 120-state chord cycle: 116 rows with one successor
CHORD120 = validate(chord_cycle(120, 3, seeded(1)))


def moduli_tried(monkeypatch):
    moduli = []
    real = matrix._berlekamp_massey
    monkeypatch.setattr(
        matrix, "_berlekamp_massey", lambda s, prime: moduli.append(prime) or real(s, prime)
    )
    return moduli


def test_chord_cycle_walks_to_w_1000(monkeypatch):
    # 999 steps of the gathered walk cost less than the recurrence's set-up,
    # Berlekamp-Massey and powering; priced at a row and an edge per state,
    # the walk used to lose to the recurrence here
    assert sum(len(row) == 1 for row in CHORD120.successors) == 116
    moduli = moduli_tried(monkeypatch)
    assert word_count(CHORD120, 1000) == oracle_count(CHORD120, 1000)
    assert moduli == []


def test_chord_cycle_takes_the_recurrence_at_w_20000(monkeypatch):
    moduli = moduli_tried(monkeypatch)
    count = word_count(CHORD120, 20_000)
    assert moduli == [(1 << 61) - 1]
    monkeypatch.setattr(matrix, "_recurrence_pays", lambda *_: False)
    assert word_count(CHORD120, 20_000) == count


def parry_matrices():
    return {
        "cycle12": load_matrix(str(DATA / "cycle12.txt")),
        "golden": validate(GOLDEN_ROWS),
        "random3": validate(RANDOM3_ROWS),
        "dense 40x40": random_irreducible(seeded(2111), 40, density=0.9),
        "2-cycle": validate(PERM2_ROWS),
        "chord cycle 120": CHORD120,
    }


@pytest.mark.parametrize("name", list(parry_matrices()))
def test_parry_rows_are_the_dense_rows(name):
    # the same floats, bit for bit: == and not approx
    mat = parry_matrices()[name]
    pd, dense = parry_measure(mat), dense_parry_measure(mat)
    assert pd.stochastic == dense.stochastic
    assert pd.stationary == dense.stationary
    assert pd.radius == dense.radius
    # zero cells skipped: the same value as over every positive cell
    assert markov_entropy(pd) == math.fsum(
        -pi * p * math.log(p)
        for pi, row in zip(pd.stationary, pd.stochastic)
        for p in row
        if p > 0.0
    )
