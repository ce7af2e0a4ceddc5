"""Transition matrices: validation, graph structure, exact counting, Perron data.

A transition matrix is a square 0/1 matrix with no zero row and no zero
column.  The ``IntMatrix`` and ``TransitionMatrix`` constructors check their
grid, and no other path makes a matrix, so an instance meets these rules
however it was built; ``validate`` and ``validate_int`` are those
constructors.  The check keeps each row's nonzero columns, which become
``successors``; ``predecessors`` is built from the successors in
O(n + |E|).  Symbols are numbered 1..n in every public interface; the
entry grid itself is stored 0-indexed.
Everything combinatorial (matrix powers, word counts) is computed in exact
arbitrary-precision integer arithmetic.
A word count w(k) = 1^T A^(k-1) 1 takes one of two exact routes, chosen by
the cost model in ``_recurrence_pays``: the walk v <- A v over the
successor lists, by the one exact matrix-vector kernel ``_matvec`` (a row
with a single successor costs it one read of a C-level ``itemgetter``
gather), each count summed through the in-degrees over only the states
entered more than once, or the minimal recurrence of the counts themselves
(Berlekamp-Massey, checked exactly) with x^(k-1) taken modulo its
polynomial by binary powering.  Each bit squares the remainder by
Karatsuba's split, 3^ceil(log2 d) squares of its coefficients where the
schoolbook takes d squares and d(d - 1)/2 products; the schoolbook is the
base case, for d = 1 or coefficients under ``_SPLIT_BITS`` bits.  For
fewer than (d + 1) / 2 counts from a recurrence of order d, the powering
stops at x^h, h = (k-1) // 2, and the counts restart at w(h + 1): that
skips the top squaring, the dearest step.  Past the first d counts, each
comes from p itself, w(k + d) = -sum_j q_j w(k + j).
When Berlekamp-Massey fails its exact check at one modulus, the cost model
prices the next modulus against walking on before it is tried.
The Perron vectors are found in floating point (power iteration, with
Noda's inverse iteration where the spectral gap is small), and the spectral
radius is then certified by exact integer Collatz-Wielandt bounds on those
vectors.  Those bounds sum A u and A^T v over the successor and
predecessor lists in Python integers, by the same kernel as the walk; the
residual of the pair is summed over the same lists, in floats.

The float search is one call, ``_perron.perron_vectors``: the matrix in,
the two vectors out as lists of Python floats.  That private module is the
one place numpy is used; ``spectral_radius`` imports it on first use.
Everything here is pure Python and holds no numpy object, so validation,
word counts and ``dual_matrix`` never load numpy.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial

__all__ = [
    "MatrixError",
    "NotSquareError",
    "EntryOutOfRangeError",
    "ZeroRowError",
    "ZeroColumnError",
    "NotIrreducibleError",
    "NoConvergenceError",
    "TransitionMatrix",
    "IntMatrix",
    "PerronData",
    "DualDecomposition",
    "validate",
    "validate_int",
    "is_irreducible",
    "is_permutation",
    "matrix_power",
    "word_count",
    "spectral_radius",
    "dual_matrix",
    "witness_dimension",
    "load_matrix",
    "load_int_matrix",
]


class MatrixError(ValueError):
    """Base class for matrix validation and computation failures."""


class NotSquareError(MatrixError):
    pass


class EntryOutOfRangeError(MatrixError):
    def __init__(self, row: int, col: int, value, expected: str = "0 or 1"):
        super().__init__(f"entry ({row},{col}) is {value!r}, expected {expected}")
        self.row = row
        self.col = col
        self.value = value


class ZeroRowError(MatrixError):
    def __init__(self, row: int):
        super().__init__(f"row {row} is zero")
        self.row = row


class ZeroColumnError(MatrixError):
    def __init__(self, col: int):
        super().__init__(f"column {col} is zero")
        self.col = col


class NotIrreducibleError(MatrixError):
    pass


class NoConvergenceError(MatrixError):
    def __init__(self, iterations: int, message: str | None = None):
        super().__init__(
            message or f"power iteration did not converge within {iterations} iterations"
        )
        self.iterations = iterations


@dataclass(frozen=True)
class IntMatrix:
    """Square nonnegative integer matrix with no zero row or column.

    The constructor checks the grid, so every instance meets these rules
    however it was built; it raises as ``validate`` documents.  The rows
    may be any iterables, and ``entries`` is stored as a tuple of tuples; a
    row that is a tuple already is kept as the same object.  The check keeps
    each distinct row's nonzero columns as one tuple: the successor lists
    of a ``TransitionMatrix``.
    """

    entries: tuple[tuple[int, ...], ...]
    _top = math.inf  # the largest entry allowed
    _expected = "a nonnegative integer"

    def __post_init__(self) -> None:
        grid = tuple(r if type(r) is tuple else tuple(r) for r in self.entries)
        n = len(grid)
        if not n:
            raise NotSquareError("matrix has no rows")
        symbols = range(1, n + 1)
        # one pass, in row order, over the distinct row objects: a row shared
        # by many states (as in the A' of ``dual_matrix``) is checked once,
        # and its nonzero columns are kept as one tuple, shared as the row is
        support: dict[int, tuple[int, ...]] = {}
        for i, row in enumerate(grid, start=1):
            if id(row) in support:
                continue
            if len(row) != n:
                raise NotSquareError(f"matrix is {n}x{len(row)}, expected square")
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) > self._top:
                for j, v in enumerate(row, start=1):
                    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= self._top:
                        raise EntryOutOfRangeError(i, j, v, self._expected)
            cols = tuple(itertools.compress(symbols, row))
            if not cols:
                raise ZeroRowError(i)
            support[id(row)] = cols
        entered = set().union(*support.values())
        if len(entered) < n:
            raise ZeroColumnError(min(set(symbols) - entered))
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "_successors", tuple(support[id(row)] for row in grid))

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based symbol pair (i, j)."""
        return self.entries[i - 1][j - 1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({[list(r) for r in self.entries]})"


@dataclass(frozen=True, repr=False)
class TransitionMatrix(IntMatrix):
    """Square 0/1 matrix with no zero row or column: the matrices for which
    the Cuntz-Krieger algebra is defined.  Its constructor checks the grid
    as ``IntMatrix``'s does, with entries of 0 or 1 only."""

    _top = 1
    _expected = "0 or 1"

    @property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """successors[i-1] lists, in ascending order, the symbols j with
        entry (i, j) = 1: the tuples the constructor's check kept, so rows
        that are one object share one tuple."""
        return self._successors

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """predecessors[j-1] lists, in ascending order, the symbols i with
        entry (i, j) = 1, built from the successors in O(n + |E|)."""
        preds: list[list[int]] = [[] for _ in self.entries]
        for i, succ in enumerate(self._successors, start=1):
            for j in succ:
                preds[j - 1].append(i)
        return tuple(map(tuple, preds))


@dataclass(frozen=True)
class PerronData:
    """Spectral radius and both Perron eigenvectors of a transition matrix.

    Vectors are normalized to sum 1.  ``lower`` and ``upper`` are floats
    with lower <= r(A) <= upper proved in exact arithmetic: each is the
    exact Collatz-Wielandt bound of the returned vectors, rounded outward.
    ``radius`` is their midpoint.  ``residual`` is the achieved value of
    max(inf-norm of A u - radius u, inf-norm of A^T v - radius v), in
    floats, with A u and A^T v summed over the successor and predecessor
    lists; ``iterations`` counts the Noda and power steps of both vectors.
    """

    radius: float
    right: tuple[float, ...]
    left: tuple[float, ...]
    residual: float
    iterations: int
    lower: float
    upper: float


@dataclass(frozen=True)
class DualDecomposition:
    """Edge-matrix factorization of a nonnegative integer matrix.

    For the input matrix M, ``s_factor @ t_factor == M`` and
    ``t_factor @ s_factor == a_prime`` hold exactly over the integers, so
    M and the 0/1 matrix ``a_prime`` share their spectral radius.  Edge k
    of the new alphabet is labelled ``edge_labels[k] = (i, j, t)``, the
    t-th parallel edge from symbol i to symbol j.
    """

    a_prime: TransitionMatrix
    s_factor: tuple[tuple[int, ...], ...]
    t_factor: tuple[tuple[int, ...], ...]
    edge_labels: tuple[tuple[int, int, int], ...]


def validate(rows) -> TransitionMatrix:
    """Validate a raw integer grid as a transition matrix: the grid checked
    by the ``TransitionMatrix`` constructor.

    Raises NotSquareError, EntryOutOfRangeError, ZeroRowError or
    ZeroColumnError for the first fault found.  The rows are checked in
    order, each for its length, then its entries from left to right (ints,
    not bools), then for being zero; after every row, the columns, and the
    first zero column is reported.  So of several faults the first row that
    breaks any rule is reported, and a zero column only when no row breaks
    one.
    """
    return TransitionMatrix(rows)


def validate_int(rows) -> IntMatrix:
    """Validate a raw grid as a nonnegative integer matrix without zero
    rows or columns: the grid checked by the ``IntMatrix`` constructor, in
    the order ``validate`` documents."""
    return IntMatrix(rows)


def _reachable(succ: tuple[tuple[int, ...], ...], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        i = stack.pop()
        for j in succ[i - 1]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def is_irreducible(mat: TransitionMatrix) -> bool:
    """True iff the digraph with an edge i -> j whenever entry (i, j) = 1
    is strongly connected."""
    n = mat.n
    if len(_reachable(mat.successors, 1)) != n:
        return False
    return len(_reachable(mat.predecessors, 1)) == n


def is_permutation(mat: TransitionMatrix) -> bool:
    """True iff every row and every column contains exactly one 1.  A
    transition matrix has no zero column, so n rows with one 1 each cover
    every column exactly once, and only the rows are read."""
    return all(len(row) == 1 for row in mat.successors)


def _matmul(a, b):
    """Exact product of two row-major matrices of ints or Fractions (shapes
    must agree), as a list of lists."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            v = arow[k]
            if v:
                brow = b[k]
                for j in range(cols):
                    orow[j] += v * brow[j]
    return out


def matrix_power(mat: IntMatrix, k: int) -> tuple[tuple[int, ...], ...]:
    """Exact k-th power by repeated squaring over Python integers (A^0 = I)."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    n = mat.n
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [list(r) for r in mat.entries]
    e = k
    while e:
        if e & 1:
            result = _matmul(result, base)
        e >>= 1
        if e:
            base = _matmul(base, base)
    return tuple(tuple(r) for r in result)


def _gather(indices):
    """v -> the sequence of v[i] for i in ``indices``, read in C by one
    ``operator.itemgetter``.  Given a single index, itemgetter returns the
    item itself, not a 1-tuple, so one index (or none) reads a slice."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    start = indices[0] if indices else 0
    return operator.itemgetter(slice(start, start + len(indices)))


def _matvec(adjacency):
    """The map v -> A v for the 0/1 matrix A whose row i lists its nonzero
    columns (1-based) in adjacency[i - 1]: ``mat.successors`` gives A and
    ``mat.predecessors`` its transpose.  Every row must be nonempty, as
    every row and column of a ``TransitionMatrix`` is.  Exact on ints; on
    floats, each row is its first entry plus the float ``sum`` of the rest,
    taken in list order.

    Built once per adjacency: a step gathers every row's first entry with
    one ``operator.itemgetter`` call, in C (``_gather``, which reads a 1x1
    matrix's one entry as a slice), then adds the rest only of the rows
    that have more than one entry: a second entry by a plain index, three
    or more by the row's own itemgetter.  So a row with a single entry,
    most of the rows of a long cycle with a few chords, costs one gathered
    read, not a Python call of its own."""
    firsts = _gather([row[0] - 1 for row in adjacency])
    seconds = [(i, row[1] - 1) for i, row in enumerate(adjacency) if len(row) == 2]
    tails = [
        (i, operator.itemgetter(*[j - 1 for j in row[1:]]))
        for i, row in enumerate(adjacency)
        if len(row) > 2
    ]

    def matvec(v: list[int]) -> list[int]:
        out = list(firsts(v))
        for i, j in seconds:
            out[i] += v[j]
        for i, tail in tails:
            out[i] += sum(tail(v))
        return out

    return matvec


def _walk_counts(successors, n: int):
    """Yield w(1), w(2), ... for ever: v <- A v from v = 1, where v[i]
    counts the words of the current length that start at symbol i + 1.

    A count is summed through the in-degrees, not over v: a word of length
    k + 1 is a word of length k with a symbol entering it prepended, so
    w(k + 1) = sum_j indeg(j) v_k(j) = w(k) + sum_j (indeg(j) - 1) v_k(j),
    from w(1) = n.  Every in-degree is at least 1, so only the states
    entered more than once are read, by one gather; the in-degrees come
    from the successor lists in O(|E|)."""
    step = _matvec(successors)
    indegree = collections.Counter(itertools.chain.from_iterable(successors))
    entered = [j for j, d in indegree.items() if d > 1]
    weights = [indegree[j] - 1 for j in entered]
    gather = _gather([j - 1 for j in entered])
    v = [1] * n
    count = n
    yield count
    while True:
        count += sum(map(operator.mul, weights, gather(v)))
        yield count
        v = step(v)


# Moduli for Berlekamp-Massey, tried in turn: the Mersenne primes 2^e - 1.
# 2^61 - 1 holds every coefficient for the chord cycles and the small
# matrices of the tests and the benchmark; a random 120-state matrix of
# density 1/2 needs 2^521 - 1, and one of 300 states 2^1279 - 1.  Past the
# last, the counts take the walk.
_MERSENNE_EXPONENTS = (61, 127, 521, 1279, 2203, 4423, 9689, 19937)


def _berlekamp_massey(s: list[int], prime: int) -> list[int]:
    """Low coefficients q of the shortest recurrence of s modulo ``prime``:
    p = x^d + q[d-1] x^(d-1) + ... + q[0] annihilates s mod ``prime``.
    Each q[j] is lifted to its residue of least absolute value (Massey,
    IEEE Trans. Inf. Theory 15, 1969)."""
    s = [x % prime for x in s]
    conn, prev = [1], [1]  # connection polynomials, constant term first
    length, gap, prev_disc = 0, 1, 1
    for i in range(len(s)):
        disc = sum(map(operator.mul, conn, s[i::-1])) % prime
        if not disc:
            gap += 1
            continue
        coef = disc * pow(prev_disc, -1, prime) % prime
        old = conn
        top = gap + len(prev)
        conn = conn + [0] * (top - len(conn))
        conn[gap:top] = [(a - coef * b) % prime for a, b in zip(conn[gap:top], prev)]
        if 2 * length <= i:
            length, prev, prev_disc, gap = i + 1 - length, old, disc, 1
        else:
            gap += 1
    conn += [0] * (length + 1 - len(conn))
    half = prime >> 1
    return [c - prime if c > half else c for c in conn[length:0:-1]]


def _annihilates(q: list[int], s: list[int]) -> bool:
    """True iff s[i] + sum_j q[j] s[i - d + j] = 0 for d <= i < len(s)."""
    d = len(q)
    taps = [(j, c) for j, c in enumerate(q) if c]
    return all(
        s[i] + sum(c * s[i - d + j] for j, c in taps) == 0 for i in range(d, len(s))
    )


def _minimal_recurrence(
    s: list[int], exponents=_MERSENNE_EXPONENTS
) -> list[int] | None:
    """Low coefficients of the minimal polynomial of s = (1^T A^j 1), j < 2n,
    checked exactly; None when no modulus 2^e - 1, e in ``exponents``,
    recovers it.

    The minimal polynomial of A annihilates s and has degree at most n, so
    that of s does too, and it is monic with integer coefficients (Gauss's
    lemma).  A candidate of degree d <= n found modulo a prime is accepted
    only if it annihilates s over the integers.  Then it annihilates the
    whole sequence: a recurrence of order at most n that holds on the first
    2n terms of a sequence with one of order at most n holds for ever
    (Massey's length bound).
    """
    for e in exponents:
        q = _berlekamp_massey(s, (1 << e) - 1)
        if _annihilates(q, s):
            return q
    return None


def _times_x(r: list[int], taps) -> list[int]:
    """x r mod p, for r of degree < d = len(r) and p = x^d + sum of the
    (j, q_j) in ``taps``."""
    top = r[-1]
    r = [0, *r[:-1]]
    if top:
        for j, c in taps:
            r[j] -= top * c
    return r


# ``_square`` squares by the schoolbook when every coefficient is shorter
# than this many bits: below it, for d up to 12, the split's extra squares
# and additions cost more than the products they save
_SPLIT_BITS = 2048


def _square(r: list[int]) -> list[int]:
    """The 2d - 1 coefficients of r(x)^2, for r given by its d coefficients,
    constant first.

    Karatsuba's split (Karatsuba & Ofman, 1962): with r = lo + x^h hi and
    h = ceil(d / 2), r^2 = lo^2 + x^h ((lo + hi)^2 - lo^2 - hi^2) +
    x^(2h) hi^2, three squares of half the length, so a long remainder
    costs 3^ceil(log2 d) squares of its coefficients, where the schoolbook
    takes d squares and d(d - 1)/2 products; CPython squares an int in
    about 0.6 of a product's time.  The split adds O(d) additions per
    level, and lo + hi is one bit longer than its halves.  The base case
    is the schoolbook, for d = 1, or when every coefficient is under
    ``_SPLIT_BITS`` bits: so a short remainder, as in the first bits of a
    powering, costs what it did before the split."""
    d = len(r)
    if d > 1 and max(max(r).bit_length(), min(r).bit_length()) >= _SPLIT_BITS:
        h = (d + 1) // 2
        low, high = r[:h], r[h:]
        mid = _square([*map(operator.add, low, high), *low[len(high) :]])
        low, high = _square(low), _square(high)
        sq = low + [0] + high
        cross = map(operator.sub, map(operator.sub, mid, low), high + [0, 0])
        sq[h : 3 * h - 1] = map(operator.add, sq[h : 3 * h - 1], cross)
        return sq
    sq = [0] * (2 * d - 1)
    for i, a in enumerate(r):
        if a:
            sq[2 * i] += a * a
            lo, hi = 2 * i + 1, i + d
            twice = map((a + a).__mul__, r[i + 1 :])
            sq[lo:hi] = map(operator.add, sq[lo:hi], twice)
    return sq


def _x_power(e: int, taps, d: int) -> list[int]:
    """x^e mod p by binary powering (Fiduccia, SIAM J. Comput. 14, 1985):
    each bit squares the remainder by ``_square``, 3^ceil(log2 d) squares
    of its coefficients once they reach ``_SPLIT_BITS`` bits and the
    schoolbook's d(d+1)/2 products below that, and reduces the square by
    the recurrence, one product per tap for each of its d - 1 high
    coefficients.  The last squaring is the largest, its operands half the
    size of the result; ``_word_counts`` powers only to half of a deep
    exponent when 2K < d + 1 counts make that squaring the dearer step."""
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        sq = _square(r)
        for i in range(2 * d - 2, d - 1, -1):
            c = sq[i]
            if c:
                for j, t in taps:
                    sq[i - d + j] -= c * t
        r = sq[:d]
        if bit == "1":
            r = _times_x(r, taps)
    return r


def _recurrence_pays(
    n: int, edges: float, k_min: int, k_max: int, bits: int = 61
) -> bool:
    """The cost model that picks the route to w(k_min), ..., w(k_max).

    Costs are counted in Python-level integer operations (one addition or
    product of short operands, about 0.07 us on a 2-core Xeon VM):
    - the walk takes k_max - 1 steps of v <- A v, each n + ``edges``
      operations.  A row with two or more successors costs one operation
      for the row and one per edge; a row with one successor is one read
      of the C-level gather of ``_matvec``, priced at a tenth of its row
      and edge, 1/5 in all.  So ``edges`` is |E| less 9/5 per row with one
      successor, and |E| itself when every row has two or more.  The count
      that goes with each step reads only the states entered more than
      once (``_walk_counts``), and is left inside the price of the rows;
    - the recurrence walks 2n steps for s_0, ..., s_(2n-1); runs
      Berlekamp-Massey modulo 2^bits - 1, 2n rounds of about 2n products and
      50 operations of overhead, where a product costs bits / 61 operations;
      takes x^(k_min - 1) mod p by binary powering, at most n^2 operations
      per bit, but x^e is a bare monomial for e < d, so only the bits of
      (k_min - 1) // n count (when ``_word_counts`` stops the powering at
      half the exponent, its restart costs the n^2 products of the bit it
      saves); and spends 2n per further count (a shift by x and a dot
      product for the first d, and past them one dot product of p's d
      coefficients with the last d counts, left at the same price).
    ``_word_counts`` tries only the moduli this model prices below the
    walk.  Once one has failed its exact check, the 2n set-up steps are in
    hand on both routes, so they cancel, and so does the failed attempt,
    which neither route pays again.
    The order d <= n of the recurrence is not known before its set-up, so n
    stands in for it.  The model leaves out the growth of the operands:
    the walk's additions grow as its counts do and the powering's products
    grow faster, but the walk takes k steps where the powering takes
    log2 k, so the routes come close only at short k, where the operands
    are short too.  The bits / 61 product cost overstates the larger
    moduli (Berlekamp-Massey at 2^127 - 1 measured about 1.45 times its
    time at 2^61 - 1, at 2^521 - 1 about 5.6 times).
    Measured crossovers of a forced walk and a forced recurrence for one
    count w(k) (best of 9 on that VM, Python 3.11; the model's switch in
    brackets): a random dense 12-state matrix with 82 edges near k = 60
    (47), a random 40-state one with 795 edges near 115 (98); the
    120-state chord cycle of the benchmark near 5000 (4673), a 50-state
    one near 1350 (1399); the 200-cycle with a loop near 3900 (10215).
    So the model leaves the walk a little early on dense matrices, whose
    further successors the kernel gathers and sums in C for less than an
    operation each, and walks late on the 200-cycle: its counts are
    nearly linear below w(n), so Berlekamp-Massey meets few nonzero
    discrepancies, and p has two taps.  Its recurrence costs about a third
    of its price, which the walk's price cannot see before the set-up.
    """
    walk = (k_max - 1) * (n + edges)
    recurrence = (
        2 * n * (n + edges)
        + 4 * n * (n * bits // 61 + 25)
        + n * n * ((k_min - 1) // n).bit_length()
        + 2 * n * (k_max - k_min)
    )
    return recurrence < walk


def _word_counts(mat: TransitionMatrix, k_max: int, k_min: int = 1) -> list[int]:
    """[w(k_min), ..., w(k_max)], exactly, where w(k) = 1^T A^(k-1) 1
    counts the admissible words of length k.  A k_min below 1 raises
    ValueError: this is the one check of the word-length rule, which
    ``word_count`` and ``sft.enumerate_words`` reach through it.

    Two exact routes; ``_recurrence_pays`` picks the cheaper.  The walk
    (``_walk_counts``) steps v <- A v over the successor lists by the
    kernel of ``_matvec``, built once: per length, one C-level gather of
    every row's first successor, then the bigint additions of the further
    successors of the rows that have more than one.  Each count adds to
    the last the (indeg(j) - 1) v(j) of the states j entered more than
    once, by one more gather, not a sum over all n states.  The recurrence
    walks only to s_j = w(j + 1) for j < 2n, finds their minimal
    polynomial p of degree d <= n (``_minimal_recurrence``), and gives
    w(k) = sum_j r_j s_j with r = x^(k-1) mod p (``_x_power``), so a deep
    k_min costs, per bit of k_min, one square of r by ``_square``,
    3^ceil(log2 d) squares of its coefficients by Karatsuba's split (the
    schoolbook's d(d+1)/2 products while they are under ``_SPLIT_BITS``
    bits), and its reduction by p.  The next counts, up to the first d,
    read r, x r, x^2 r, ..., a shift by x between two counts, and every
    count after those comes from p itself, w(k + d) = -sum_j q_j w(k + j):
    one C-level dot product.
    When fewer than (d + 1) / 2 counts are asked for (2K < d + 1, with
    K = k_max - k_min + 1), the top squaring of that powering, the square
    of a half-size remainder, costs more than the counts do, so it is
    skipped: r = x^h mod p for h = (k_min - 1) // 2 gives the d counts
    t_i = w(h + i + 1) = sum_j r_j s_(i+j), d^2 products of a half-size
    r_j by a short s, and the counts go on from t with r, or x r when
    k_min - 1 is odd, at d half-size products each.
    p annihilates the counts but not always the vectors A^j 1, so this
    route yields counts only, never the vector A^(k-1) 1.
    """
    if k_min < 1:
        raise ValueError("word length must be >= 1")
    n = mat.n
    # a row with one successor is one read of the walk's C-level gather:
    # priced at a fifth of an operation in all, -4/5 here beside its 1 in n
    edges = sum(d if d > 1 else -0.8 for d in map(len, mat.successors))
    walk = _walk_counts(mat.successors, n)
    # a modulus costs more the more bits it has, so the priced ones are a prefix
    pays = partial(_recurrence_pays, n, edges, k_min, k_max)
    exponents = tuple(itertools.takewhile(pays, _MERSENNE_EXPONENTS))
    if exponents:
        s = list(itertools.islice(walk, 2 * n))
        q = _minimal_recurrence(s, exponents)
        if q is not None:
            d = len(q)
            taps = [(j, c) for j, c in enumerate(q) if c]
            if 2 * (k_max - k_min + 1) < d + 1:
                # restart the counts at s_h: s_(h+i) = sum_j r_j s_(i+j)
                # for r = x^h mod p
                h, odd = divmod(k_min - 1, 2)
                r = _x_power(h, taps, d)
                s = [sum(map(operator.mul, r, s[i : i + d])) for i in range(d)]
                if odd:
                    r = _times_x(r, taps)
            else:
                r = _x_power(k_min - 1, taps, d)
            counts = []
            for _ in range(min(k_max - k_min + 1, d)):
                if counts:
                    r = _times_x(r, taps)
                counts.append(sum(map(operator.mul, r, s)))
            # the rest from p itself: w(k + d) = -sum_j q_j w(k + j)
            for i in range(k_max - k_min + 1 - d):
                counts.append(-sum(map(operator.mul, q, counts[i : i + d])))
            return counts
        walk = itertools.chain(s, walk)
    return list(itertools.islice(walk, k_min - 1, k_max))


def word_count(mat: TransitionMatrix, k: int) -> int:
    """Number of admissible words of length k, exactly: the entry sum
    1^T A^(k-1) 1, by the walk or the minimal recurrence of the counts,
    whichever the cost model in ``_recurrence_pays`` finds cheaper.  On the
    recurrence, a single count of order d >= 2 powers x only to
    (k - 1) // 2 and restarts the counts at w((k - 1) // 2 + 1), as
    ``_word_counts`` does whenever 2K < d + 1.  A length below 1 raises
    the ValueError of ``_word_counts``, which holds the word-length rule."""
    return _word_counts(mat, k, k)[0]


def _scaled(vec) -> list[int]:
    """Positive integers proportional to a positive float vector, exactly:
    each float times one common power of two."""
    parts = [math.frexp(x) for x in vec]
    low = min(e for _, e in parts)
    return [int(math.ldexp(f, 53)) << (e - low) for f, e in parts]


def _float_below(num: int, den: int) -> float:
    """The largest float <= num / den (den > 0)."""
    x = num / den
    a, b = x.as_integer_ratio()
    return math.nextafter(x, -math.inf) if a * den > num * b else x


def _float_above(num: int, den: int) -> float:
    """The smallest float >= num / den (den > 0), inf past the largest."""
    try:
        x = num / den
    except OverflowError:
        return math.inf
    a, b = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if a * den < num * b else x


def _collatz_wielandt(adjacency, vec) -> tuple[float, float]:
    """Floats lo <= min_i (A u)_i / u_i and hi >= max_i (A u)_i / u_i for
    the 0/1 matrix A given by its adjacency lists (as in ``_matvec``, whose
    kernel sums A u over them) and the positive vector u = vec.  The ratios
    are compared exactly, by integer cross-products; for irreducible A,
    r(A) lies in [lo, hi] (Collatz-Wielandt; Seneta, ch. 1)."""
    u = _scaled(vec)
    sums = _matvec(adjacency)(u)
    lo = hi = 0
    for i in range(1, len(u)):
        if sums[i] * u[lo] < sums[lo] * u[i]:
            lo = i
        if sums[i] * u[hi] > sums[hi] * u[i]:
            hi = i
    return _float_below(sums[lo], u[lo]), _float_above(sums[hi], u[hi])


def _residual(adjacency, vec: list[float], radius: float) -> float:
    """max_i |(A u)_i - radius u_i| in floats, for A given by its adjacency
    lists and u = vec, with A u from ``_matvec``."""
    return max(abs(s - radius * x) for s, x in zip(_matvec(adjacency)(vec), vec))


def _check_tol(tol: float) -> None:
    """The one rule for a tolerance: positive and finite (so not nan)."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")


def spectral_radius(
    mat: TransitionMatrix, tol: float = 1e-12, max_iterations: int = 1_000_000
) -> PerronData:
    """Spectral radius and Perron eigenvectors of an irreducible transition matrix.

    Each Perron vector of m = A + I (right, and left from the transpose)
    comes from power iteration on m when that converges within n // 3 + 1
    steps, and otherwise from Noda's inverse iteration, finished by power
    iteration; the power loop's ratio bracket, within tol / 4, is the
    stopping test.  The positive diagonal of the shift makes the power step
    converge even for periodic irreducible matrices.  Both vectors are
    normalized to sum 1 and are strictly positive.  The radius is then
    certified: the exact Collatz-Wielandt bounds of the right vector (under
    A) and of the left vector (under the transpose), in integer arithmetic,
    are intersected and rounded outward to ``lower`` and ``upper``, and
    ``radius`` is their midpoint.  When rounding stalls the float iteration
    short of tol / 4, the exact bracket alone decides.  The float search
    is numpy's, in ``_perron``; the certificate and the residual are not.

    Budget: power and Noda steps together count against ``max_iterations``
    for each vector, and ``iterations`` is their sum over both vectors.

    Raises NotIrreducibleError when the matrix is reducible (positivity of
    the eigenvectors would not be guaranteed) and NoConvergenceError when
    the iteration budget is exhausted, or when the certified bracket is
    wider than tol or the residual larger than tol.
    """
    _check_tol(tol)
    if not is_irreducible(mat):
        raise NotIrreducibleError("matrix is not irreducible")
    from . import _perron

    u, v, iterations = _perron.perron_vectors(mat, tol / 4.0, max_iterations)
    lo_right, hi_right = _collatz_wielandt(mat.successors, u)
    lo_left, hi_left = _collatz_wielandt(mat.predecessors, v)
    lower = max(lo_right, lo_left)
    upper = min(hi_right, hi_left)
    if upper - lower > tol:
        raise NoConvergenceError(
            iterations,
            f"certified bracket [{lower!r}, {upper!r}] on the spectral radius is "
            f"{upper - lower:.3e} wide, more than tol {tol:.3e}",
        )
    radius = 0.5 * (lower + upper)
    residual = max(_residual(mat.successors, u, radius), _residual(mat.predecessors, v, radius))
    if residual > tol:
        raise NoConvergenceError(
            iterations,
            f"Perron vector residual {residual:.3e} is more than tol {tol:.3e}",
        )
    return PerronData(
        radius=radius,
        right=tuple(u),
        left=tuple(v),
        residual=residual,
        iterations=iterations,
        lower=lower,
        upper=upper,
    )


def _fmt_count(count: int) -> str:
    """Every digit of an exact count.  Past the int-to-str digit limit of
    Python >= 3.10.7, meant for parsing, ``decimal`` converts it."""
    try:
        return str(count)
    except ValueError:
        import decimal

        return str(decimal.Decimal(count))


# the most cells the edge matrix of dual_matrix may have, sized like
# sft.WORD_CAP: its rows are shared, but ``ckshift dual`` prints every cell
_EDGE_CELL_CAP = 10_000_000


def dual_matrix(mat: IntMatrix) -> DualDecomposition:
    """Edge construction for a nonnegative integer matrix M.

    The edge alphabet has one symbol (i, j, t) per unit of M(i, j); two
    edges are composable exactly when the first ends where the second
    starts.  Row i of S marks the edges leaving i; an edge into j has the
    unit vector of j as its row of T and row j of S as its row of A', one
    tuple shared by every edge into j, so O(n E) cells are held, not E^2.
    The ``TransitionMatrix`` constructor checks each of those n distinct
    rows once, so the check of A' takes O(n E) steps too.
    S T = M and T S = A' hold exactly, checked in O(n E + n^2) steps.

    Raises MatrixError, before allocating anything, when the edge matrix
    would have more than ``_EDGE_CELL_CAP`` cells.
    """
    ecount = sum(map(sum, mat.entries))
    if ecount * ecount > _EDGE_CELL_CAP:
        raise MatrixError(
            f"{_fmt_count(ecount)} edges give an edge matrix of "
            f"{_fmt_count(ecount * ecount)} cells, "
            f"more than the cap of {_EDGE_CELL_CAP}"
        )
    n = mat.n
    labels = tuple(
        (i, j, t)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        for t in range(1, mat.entry(i, j) + 1)
    )
    # the labels run by source, so the edges leaving state i are a block
    outs = [sum(row) for row in mat.entries]
    s_rows = tuple(
        (0,) * before + (1,) * out + (0,) * (ecount - before - out)
        for before, out in zip(itertools.accumulate(outs, initial=0), outs)
    )
    units = tuple(tuple(int(j == k) for k in range(n)) for j in range(n))
    t_rows = tuple(units[j - 1] for _, j, _ in labels)
    a_prime_rows = tuple(s_rows[j - 1] for _, j, _ in labels)
    # for 0/1 factors: row i of S T sums the rows of T at the 1s of row i of
    # S, and row r of T S is the row of S at the one 1 of row r of T (a row
    # of T without exactly one 1 fails); shared rows compare by identity
    st = [list(map(sum, zip(*itertools.compress(t_rows, row)))) for row in s_rows]
    if st != [list(r) for r in mat.entries]:
        raise MatrixError("internal error: S T does not reproduce the input matrix")
    ts = tuple(s_rows[row.index(1)] if sum(row) == 1 else None for row in t_rows)
    if ts != a_prime_rows:
        raise MatrixError("internal error: T S does not reproduce the edge matrix")
    return DualDecomposition(
        a_prime=TransitionMatrix(a_prime_rows),
        s_factor=s_rows,
        t_factor=t_rows,
        edge_labels=labels,
    )


def witness_dimension(mat: TransitionMatrix, n: int, n0: int) -> int:
    """Matrix-dimension factor w(n + n0) of the finite-dimensional
    approximation witness; log of it over n converges to log r(A)."""
    if n < 1 or n0 < 1:
        raise ValueError("n and n0 must be >= 1")
    return word_count(mat, n + n0)


# an entry of a text matrix file: ASCII digits, with an optional minus sign
_INTEGER = re.compile("-?[0-9]+")


def parse_matrix(text: str) -> list[list[int]]:
    """Parse a matrix file body.

    Two formats are accepted: a JSON object {"n": <int>, "rows": [[...], ...]}
    or plain text with one row per line, entries separated by whitespace.
    A text entry is an ASCII integer, an optional minus sign and the digits
    0-9 (``-?[0-9]+``): ``+1``, ``0_1`` and non-ASCII digits are invalid
    rows, though ``int()`` would take them.  A negative entry is read, and
    left for the matrix constructors to reject.
    """
    body = text.strip()
    if not body:
        raise MatrixError("matrix file is empty")
    if body.startswith("{"):
        try:
            obj = json.loads(body)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise MatrixError(f"invalid JSON matrix file: {exc}") from exc
        if "rows" not in obj:
            raise MatrixError('JSON matrix file must contain a "rows" key')
        rows = obj["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise MatrixError('JSON matrix file: "rows" must be a list of lists')
        if "n" in obj:
            n = obj["n"]
            if not isinstance(n, int) or isinstance(n, bool):
                raise MatrixError(
                    f'JSON matrix file: "n" must be an integer, not {json.dumps(n)}'
                )
            if n != len(rows):
                raise MatrixError(f"JSON matrix file declares n={n} but has {len(rows)} rows")
        return rows
    rows = []
    for line in body.splitlines():
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if not all(map(_INTEGER.fullmatch, tokens)):
                raise ValueError("an entry is not an ASCII integer")
            rows.append(list(map(int, tokens)))
        except ValueError as exc:  # a malformed entry, or one past the digit limit
            raise MatrixError(f"invalid matrix row {line!r}") from exc
    return rows


def load_matrix(path: str) -> TransitionMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return validate(parse_matrix(fh.read()))


def load_int_matrix(path: str) -> IntMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_int(parse_matrix(fh.read()))
