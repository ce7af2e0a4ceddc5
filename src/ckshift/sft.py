"""One-sided shift spaces: admissible words, the maximal-entropy Markov
measure, and entropy estimators.

Words are plain tuples of symbols from 1..n.  The empty tuple is the empty
word and is always admissible, as are single letters.  Probabilities and
entropies are floating point; natural logarithms throughout, with the
convention 0 log 0 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matrix import (
    MatrixError,
    NotIrreducibleError,
    TransitionMatrix,
    _fmt_count,
    _word_counts,
    spectral_radius,
    word_count,
)

__all__ = [
    "WORD_CAP",
    "SymbolOutOfRangeError",
    "TooManyWordsError",
    "ParryData",
    "ConvergenceRow",
    "ConvergenceReport",
    "is_admissible",
    "enumerate_words",
    "parry_measure",
    "cylinder_probability",
    "markov_entropy",
    "partition_entropy",
    "entropy_estimates",
]

Word = tuple[int, ...]

WORD_CAP = 10_000_000


class SymbolOutOfRangeError(ValueError):
    def __init__(self, symbol, n: int):
        super().__init__(f"symbol {symbol!r} outside alphabet 1..{n}")
        self.symbol = symbol


class TooManyWordsError(ValueError):
    """More admissible words of some length than a cap allows.

    ``count`` is the exact number of words, or None when it was not
    counted: its bound passed ``_EXACT_COUNT_BITS`` bits, and a shorter
    length already had more words than the cap.  The message then names
    the ``length`` instead of the count.
    """

    def __init__(self, count: int | None, cap: int, length: int | None = None):
        if count is None:
            words = f"the words of length {_fmt_count(length)}"
        else:
            words = f"{_fmt_count(count)} words"
        super().__init__(f"{words} exceed the enumeration cap of {cap}")
        self.count = count
        self.cap = cap


def _check_word(word, n: int) -> Word:
    w = tuple(word)
    for sym in w:
        if not isinstance(sym, int) or isinstance(sym, bool) or not 1 <= sym <= n:
            raise SymbolOutOfRangeError(sym, n)
    return w


def is_admissible(mat: TransitionMatrix, word) -> bool:
    """True iff every consecutive transition of the word is allowed.

    Empty and single-letter words are admissible by convention.
    """
    return _admissible(mat.entries, _check_word(word, mat.n))


def _admissible(rows, word: Word) -> bool:
    """``is_admissible`` for a checked word, over the 0-indexed grid rows."""
    return all(rows[a - 1][b - 1] for a, b in zip(word, word[1:]))


# the most bits that the bound on w(k) may have for ``_check_cap`` to count
# w(k) exactly; past it the count alone takes seconds, and writing out its
# digits for the error far longer
_EXACT_COUNT_BITS = 2**18


def _check_cap(mat: TransitionMatrix, k: int, cap: int) -> None:
    """Raise TooManyWordsError when w(k), the number of admissible words of
    length k >= 1, exceeds ``cap``.

    w(k) has at most log2 n + (k - 1) log2(max row sum) bits.  While that
    bound is at most ``_EXACT_COUNT_BITS``, w(k) is counted exactly and the
    error gives it.  Past it, w(j) is counted at j = 1, 2, 4, ... and at k,
    and the first count over the cap refuses, with ``count`` None.  No row
    is zero, so every word extends and w is nondecreasing in k: w(k) is over
    the cap exactly when one of these counts is.
    """
    top = max(map(len, mat.successors))
    if top == 1 or k - 1 <= (_EXACT_COUNT_BITS - math.log2(mat.n)) / math.log2(top):
        count = word_count(mat, k)
        if count > cap:
            raise TooManyWordsError(count, cap)
        return
    j = 1
    while True:
        if word_count(mat, j) > cap:
            raise TooManyWordsError(None, cap, k)
        if j == k:
            return
        j = min(2 * j, k)


def enumerate_words(mat: TransitionMatrix, k: int, cap: int = WORD_CAP) -> list[Word]:
    """All admissible words of length k, lexicographically sorted.

    Raises TooManyWordsError when the count would exceed ``cap``; see
    ``_check_cap``, which counts exactly in advance unless the count is too
    long to be worth writing out, and then refuses without it.

    Built one length at a time: extending a sorted list word by word, each
    through its ascending successor list, keeps it sorted.  No recursion, so
    k is not bounded by the interpreter's recursion limit.
    """
    if k < 1:
        raise ValueError("word length must be >= 1")
    _check_cap(mat, k, cap)
    successors = mat.successors
    level = [(s,) for s in range(1, mat.n + 1)]
    for _ in range(k - 1):
        level = [w + (j,) for w in level for j in successors[w[-1] - 1]]
    return level


@dataclass(frozen=True)
class ParryData:
    """Maximal-entropy Markov measure of an irreducible transition matrix.

    ``stochastic`` is the row-stochastic matrix P with P(i,j) positive
    exactly where the transition matrix is 1, and ``stationary`` is its
    stationary probability vector (``parry_measure`` checks this to 100
    times its ``tol``, so to 1e-10 at the default tol of 1e-12).
    The measure of the cylinder of a word is stationary[first] times the
    product of the transition probabilities along it.
    """

    radius: float
    stochastic: tuple[tuple[float, ...], ...]
    stationary: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.stationary)

    def transition(self, i: int, j: int) -> float:
        return self.stochastic[i - 1][j - 1]


def parry_measure(mat: TransitionMatrix, tol: float = 1e-12) -> ParryData:
    """Build the maximal-entropy Markov measure from the Perron eigendata.

    P(i,j) = A(i,j) u_j / (lambda u_i) for the right Perron vector u, rows
    renormalized to sum exactly 1; the stationary vector is proportional to
    the componentwise product of the two Perron vectors.  Raises
    NotIrreducibleError for reducible matrices, and MatrixError when the
    stationary vector misses stationarity by more than 100 tol.

    Each row is computed over its successor list and the stationarity check
    runs over the predecessor lists, so beyond the Perron search the work
    is O(n + |E|), besides the n^2 zeros that ``stochastic`` stores.  The
    floats are those of the dense n^2 sums, bit for bit: a 0 entry only
    adds 0.0 to them.
    """
    perron = spectral_radius(mat, tol)
    n = mat.n
    lam = perron.radius
    u = perron.right
    v = perron.left
    rows = []
    for i, succ in enumerate(mat.successors):
        scale = lam * u[i]
        raw = [u[j - 1] / scale for j in succ]
        total = sum(raw)
        row = [0.0] * n
        for j, x in zip(succ, raw):
            row[j - 1] = x / total
        rows.append(tuple(row))
    weights = [u[i] * v[i] for i in range(n)]
    z = sum(weights)
    stationary = tuple(w / z for w in weights)
    # stationarity is implied by the eigenvector equations; check it landed,
    # with a slack that grows with the eigenvector residuals the caller allowed
    err = max(
        abs(sum(stationary[i - 1] * rows[i - 1][j] for i in pred) - stationary[j])
        for j, pred in enumerate(mat.predecessors)
    )
    if err > 100 * tol:
        raise MatrixError(f"stationary vector check failed (error {err:.3e})")
    return ParryData(radius=lam, stochastic=tuple(rows), stationary=stationary)


def cylinder_probability(pd: ParryData, word) -> float:
    """Measure of the cylinder set of a word: 1 for the empty word, 0 for
    inadmissible words."""
    w = _check_word(word, pd.n)
    if not w:
        return 1.0
    prob = pd.stationary[w[0] - 1]
    for a, b in zip(w, w[1:]):
        prob *= pd.transition(a, b)
        if prob == 0.0:
            return 0.0
    return prob


def markov_entropy(pd: ParryData) -> float:
    """Entropy rate of the Markov measure, -sum_i pi_i sum_j P(i,j) log P(i,j).

    Only the nonzero cells of the dense rows are visited (``filter``, in
    C), one per edge: 124 of the 14,400 cells of a 120-state cycle with
    three chords and a loop.  The terms are summed by ``math.fsum``, which
    is exactly rounded, so the sum adds no rounding of its own however many
    edges there are, and the order of the terms does not matter.
    """
    return math.fsum(
        -pi * p * math.log(p)
        for pi, row in zip(pd.stationary, pd.stochastic)
        for p in filter(None, row)
    )


def _support(pd: ParryData) -> TransitionMatrix:
    """The 0/1 matrix of the positive cells of ``pd.stochastic`` (a nan, a
    negative or a -0.0 cell is not positive), checked by the
    ``TransitionMatrix`` constructor: its check yields the successor
    lists, and the predecessor lists come from those in O(n + |E|).  A
    fault raises as ``validate`` does."""
    return TransitionMatrix([[1 if p > 0.0 else 0 for p in row] for row in pd.stochastic])


def partition_entropy(pd: ParryData, n: int, cap: int = WORD_CAP) -> float:
    """Shannon entropy of the measure over the depth-n cylinder partition,
    i.e. over all admissible words of length n.

    By the chain rule for a stationary Markov chain this is
    H(stationary) + (n - 1) h, with h the entropy rate (Walters, *An
    Introduction to Ergodic Theory*, Markov shifts); ``stationary`` is
    stationary for ``stochastic`` by ParryData's invariant.  ``cap`` still
    bounds the number of cylinders, as for an enumeration, through
    ``_check_cap``.
    """
    if n < 1:
        raise ValueError("partition depth must be >= 1")
    _check_cap(_support(pd), n, cap)
    h0 = -sum(p * math.log(p) for p in pd.stationary if p > 0.0)
    return h0 + (n - 1) * markov_entropy(pd)


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    count: int
    growth: float
    ratio: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Table of word-growth entropy estimates.

    ``growth`` is log w(k) / k, the direct growth-rate estimator; ``ratio``
    is log(w(k+1) / w(k)), which converges much faster.  ``target`` is
    log of the spectral radius when the matrix is irreducible, else None.
    """

    rows: tuple[ConvergenceRow, ...]
    target: float | None

    def to_csv(self) -> str:
        lines = ["k,w_k,eq3,ratio"]
        lines += [",".join(map(str, _row_fields(r).values())) for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "target": None if self.target is None else _fmt(self.target),
            "rows": [_row_fields(r) for r in self.rows],
        }


def _row_fields(row: ConvergenceRow, scale: float = 1.0) -> dict:
    """The printed fields of a convergence row, in column order, with each
    entropy divided by ``scale``."""
    return {
        "k": row.k,
        "w_k": _fmt_count(row.count),
        "eq3": _fmt(row.growth / scale),
        "ratio": _fmt(row.ratio / scale),
    }


def entropy_estimates(mat: TransitionMatrix, k_max: int) -> ConvergenceReport:
    """Entropy estimates from word counts for k = 1..k_max.

    Both estimators converge to log of the spectral radius; the growth form
    only at rate O(log k / k), the ratio form geometrically for primitive
    matrices.  Counts are exact integers, printed in full by ``to_csv`` and
    ``to_json_dict``, so arbitrarily large k is safe.
    """
    return ConvergenceReport(rows=_estimate_rows(mat, k_max), target=_log_radius(mat))


def _log_radius(mat: TransitionMatrix) -> float | None:
    """log r(A), the target of the estimators; None when A is not
    irreducible."""
    try:
        return math.log(spectral_radius(mat).radius)
    except NotIrreducibleError:
        return None


def _estimate_rows(
    mat: TransitionMatrix, k_max: int, k_min=1, counts=None
) -> tuple[ConvergenceRow, ...]:
    """The rows k_min..k_max of ``entropy_estimates``, without its target,
    from the counts w(k_min), ..., w(k_max + 1) alone: ``counts`` when the
    caller has them (a longer list is cut), else counted here."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    if counts is None:
        counts = _word_counts(mat, k_max + 1, k_min)
    return tuple(
        ConvergenceRow(k, wk, math.log(wk) / k, math.log(wk1) - math.log(wk))
        for k, wk, wk1 in zip(range(k_min, k_max + 1), counts, counts[1:])
    )
