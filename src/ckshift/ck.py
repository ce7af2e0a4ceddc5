"""Exact symbolic calculus for the generator algebra of a transition matrix.

The algebra is generated by one partial isometry per symbol, subject to the
usual relations: the range projections P_i = S_i S_i* are orthogonal, and
the support projections satisfy S_i* S_i = sum_j A(i,j) P_j.  Elements are
finite linear combinations of monomials S_mu S_nu* over admissible words,
with exact rational coefficients, so equality of elements is decidable.
Stored terms are in normal form: no coefficient is zero, and a coefficient
is stored as an ``int`` when it is integral and as a ``Fraction``
otherwise; an int is a ``numbers.Rational`` and compares, hashes and prints
like the equal Fraction.  Every element is built by the ``CKElement``
constructor, which normalizes every map it is given, so normal form is set
in one place.

A monomial is identified with zero at construction time when either word is
inadmissible, or when the two words end in symbols with no common successor
(in that case S_mu S_nu* = S_mu Q_t(mu) Q_t(nu) S_nu* vanishes because the
two support projections are orthogonal).  Every stored monomial is therefore
a nonzero element, and monomials whose right words share a common length are
linearly independent, which is what makes the equality decision procedure
(split by gauge degree, refine to a common right depth, compare coefficient
maps) sound.

A block matrix stores only its nonzero cells, keyed by (row, column) word
index; ``entries`` is a dense view built on access.  Products, adjoints and
comparisons visit the stored cells alone, and the witness verifier compares
the block embedding with the witness side through the same comparison.  The
zero-one witness blocks are partial permutation matrices, kept as the sets
of their (row, column) units; ``witness_blocks`` is a dense numpy view of
them, and the one place here that imports numpy, when it is called.  The
finite-dimensional block picture of the degree-zero part uses exact
Fractions.

The block embedding is built term by term: the cell (mu, nu) of S_a S_b* is
S_mu* S_a S_b* S_nu, two products of bare monomials, and a product of
stored monomials checks only its new junction and the two termini, since
the words it joins are admissible already.  The rows and columns visited
are those the prefix table holds under a word, so each product comes in
one of three shapes, fixed before it is formed: the row (column) word
extends the word it meets, equals it, or is its prefix.

Words are found in one prefix table per length m, built once from the
sorted tuple of admissible words of that length: the words with a given
prefix form one contiguous range of it, and a concatenation of admissible
words of total length at most m is admissible exactly when the table holds
it.  A verification at depth m finds every word it needs, rows, columns
and witness units alike, in the one depth-m table.  The canonical shift is
concatenation too, since S_eta S_a S_b* S_eta* = S_{eta a} S_{eta b}*; it
multiplies nothing.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import _CK_NAMES
from .matrix import TransitionMatrix, _matmul
from .sft import (
    Word,
    _admissible,
    _check_word,
    enumerate_words,
)

__all__ = list(_CK_NAMES)


class InadmissibleWordError(ValueError):
    pass


class DepthTooSmallError(ValueError):
    pass


class NonZeroDegreeError(ValueError):
    pass


class DepthExceededError(ValueError):
    pass


class WitnessPreconditionError(ValueError):
    pass


class Monomial(NamedTuple):
    """The pair of words (mu, nu) denoting S_mu S_nu*."""

    left: Word
    right: Word

    @property
    def degree(self) -> int:
        return len(self.left) - len(self.right)

    def __str__(self) -> str:
        if not self.left and not self.right:
            return "1"
        out = []
        if self.left:
            out.append("S(" + ",".join(map(str, self.left)) + ")")
        if self.right:
            out.append("S(" + ",".join(map(str, self.right)) + ")*")
        return "".join(out)


def _coeff(c) -> numbers.Rational:
    """c as an exact coefficient: an int as it is, anything else as a
    Fraction (which ``CKElement`` stores as an int when it is integral)."""
    return c if type(c) is int else Fraction(c)


class CKElement:
    """Immutable finite rational combination of monomials.

    The stored terms are in normal form: no coefficient is zero, and an
    integral coefficient is stored as an ``int``, any other as a
    ``Fraction``.  The constructor normalizes the map it is given, into a
    map of its own, and every element of the algebra is built through it.
    ``==`` is structural (same stored terms); use ``algebra.equal`` for
    equality in the algebra, which is invariant under refinement.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "CuntzKriegerAlgebra", terms: dict):
        self.algebra = algebra
        self.terms = {
            m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for m, c in terms.items()
            if c
        }

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return sorted({m.degree for m in self.terms})

    def __add__(self, other):
        if not isinstance(other, CKElement):
            return NotImplemented
        self.algebra._check_own(other)
        merged = dict(self.terms)
        for m, c in other.terms.items():
            merged[m] = merged.get(m, 0) + c
        return CKElement(self.algebra, merged)

    def __neg__(self):
        return CKElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, CKElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CKElement):
            self.algebra._check_own(other)
            return self.algebra._multiply(self, other)
        if isinstance(other, numbers.Rational):
            c = _coeff(other)
            return CKElement(self.algebra, {m: v * c for m, v in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Rational):
            return self.__mul__(other)
        return NotImplemented

    def adjoint(self) -> "CKElement":
        """The *-operation: S_mu S_nu* maps to S_nu S_mu*, coefficients
        unchanged (they are rational)."""
        return CKElement(
            self.algebra,
            {Monomial(m.right, m.left): c for m, c in self.terms.items()},
        )

    def refined(self, depth: int) -> "CKElement":
        """Rewrite so every term's right word has length exactly ``depth``.

        The value in the algebra and the gauge degree of every term are
        unchanged.  Raises DepthTooSmallError if some term is already deeper.
        """
        for m in self.terms:
            if len(m.right) > depth:
                raise DepthTooSmallError(
                    f"term {m} has right depth {len(m.right)} > {depth}"
                )
        return CKElement(self.algebra, self.algebra._refine_terms(self.terms, depth))

    def __eq__(self, other):
        if not isinstance(other, CKElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            parts.append(f"{c}*{m}" if c != 1 or str(m) == "1" else str(m))
        return " + ".join(parts)


class CuntzKriegerAlgebra:
    """Symbolic generator algebra attached to a transition matrix."""

    def __init__(self, matrix: TransitionMatrix):
        self.matrix = matrix
        self.n = matrix.n
        self._rows = matrix.entries
        self._succ = matrix.successors
        self._succ_mask = tuple(
            sum(1 << (j - 1) for j in row) for row in matrix.successors
        )
        # the terms P_j of each support projection Q_i = sum_j A(i,j) P_j
        self._q_terms = tuple(
            tuple(Monomial((j,), (j,)) for j in row) for row in matrix.successors
        )
        self._word_cache: dict[int, tuple[Word, ...]] = {0: ((),)}
        self._span_cache: dict[int, dict[Word, range]] = {}
        self.zero = CKElement(self, {})
        self.identity = CKElement(self, {Monomial((), ()): 1})

    # -- words ------------------------------------------------------------

    def words(self, k: int) -> tuple[Word, ...]:
        """Admissible words of length k (k = 0 gives the empty word)."""
        if k not in self._word_cache:
            self._word_cache[k] = tuple(enumerate_words(self.matrix, k))
        return self._word_cache[k]

    def _spans(self, m: int) -> dict[Word, range]:
        """The prefix table of ``words(m)``: every prefix (of length 0 to m)
        of an admissible length-m word, mapped to the positions of the words
        that start with it, a contiguous range of the sorted tuple.  A full
        word maps to its one position; a prefix the table lacks has the
        empty range, so a length-m word is admissible exactly when the
        table holds it."""
        spans = self._span_cache.get(m)
        if spans is None:
            first: dict[Word, int] = {}
            last: dict[Word, int] = {}
            for pos, word in enumerate(self.words(m)):
                for k in range(m + 1):
                    prefix = word[:k]
                    first.setdefault(prefix, pos)
                    last[prefix] = pos
            spans = self._span_cache[m] = {
                prefix: range(lo, last[prefix] + 1) for prefix, lo in first.items()
            }
        return spans

    def _meet(self, left: Word, right: Word) -> Monomial | None:
        """S_left S_right* for admissible words, or None when their termini
        have no common successor."""
        if left and right and not (
            self._succ_mask[left[-1] - 1] & self._succ_mask[right[-1] - 1]
        ):
            return None
        return tuple.__new__(Monomial, (left, right))

    def _cat(self, u: Word, v: Word) -> Word | None:
        """The concatenation of admissible words, or None when the junction
        is not an edge."""
        if u and v and not self._rows[u[-1] - 1][v[0] - 1]:
            return None
        return u + v

    def _check_own(self, x: CKElement) -> None:
        if x.algebra is not self:
            raise ValueError("elements belong to different algebras")

    # -- constructors ------------------------------------------------------

    def element(self, terms: dict) -> CKElement:
        """The sum of c * S_left S_right* over ``terms``, a dict {(left, right): c}.

        Each key goes through the same checks and zero identification as
        ``monomial``: keys that vanish in the algebra are dropped, and the
        coefficients of keys that coincide are added up.
        """
        acc: dict[Monomial, numbers.Rational] = {}
        for (left, right), c in terms.items():
            left, right = _check_word(left, self.n), _check_word(right, self.n)
            if _admissible(self._rows, left) and _admissible(self._rows, right):
                m = self._meet(left, right)
                if m is not None:
                    acc[m] = acc.get(m, 0) + _coeff(c)
        return CKElement(self, acc)

    def monomial(self, left, right, coeff=1) -> CKElement:
        """coeff * S_left S_right*; the zero element when the monomial
        vanishes in the algebra."""
        # checked here so that list words become tuples, which can be dict keys
        return self.element({(_check_word(left, self.n), _check_word(right, self.n)): coeff})

    def s(self, word) -> CKElement:
        """S_word (the identity for the empty word, zero if inadmissible)."""
        return self.monomial(word, ())

    def s_star(self, word) -> CKElement:
        return self.monomial((), word)

    def p(self, i: int) -> CKElement:
        """Range projection P_i = S_i S_i*."""
        return self.monomial((i,), (i,))

    def q(self, i: int) -> CKElement:
        """Support projection S_i* S_i, expanded as sum_j A(i,j) P_j."""
        _check_word((i,), self.n)
        return CKElement(self, dict.fromkeys(self._q_terms[i - 1], 1))

    def generator(self, alpha, i: int, beta) -> CKElement:
        """S_alpha P_i S_beta*.

        Raises InadmissibleWordError when alpha or beta is inadmissible;
        returns the zero element when an adjacency factor vanishes.
        """
        return self._generator(*self._generator_words(alpha, i, beta), i)

    def _generator(self, a: Word, b: Word, i: int) -> CKElement:
        """S_a P_i S_b* for admissible words a and b: zero when a junction
        into i fails; otherwise both words end at i, so they meet."""
        left, right = self._cat(a, (i,)), self._cat(b, (i,))
        if left is None or right is None:
            return self.zero
        return CKElement(self, {tuple.__new__(Monomial, (left, right)): 1})

    def _generator_words(self, alpha, i: int, beta) -> tuple[Word, Word]:
        """alpha and beta as words, checked for S_alpha P_i S_beta*: every
        symbol (i too) in range, and alpha and beta admissible."""
        a = _check_word(alpha, self.n)
        b = _check_word(beta, self.n)
        _check_word((i,), self.n)
        if not _admissible(self._rows, a):
            raise InadmissibleWordError(f"alpha {a} is not admissible")
        if not _admissible(self._rows, b):
            raise InadmissibleWordError(f"beta {b} is not admissible")
        return a, b

    # -- multiplication ----------------------------------------------------

    def _pair_products(self, m1: Monomial, m2: Monomial) -> Sequence[Monomial]:
        """Monomials of (S_mu S_nu*)(S_al S_be*), each with coefficient 1:
        none, one, or those of ``_extend``, all distinct.

        If al extends nu the inner isometries collapse onto the surplus; if
        nu extends al symmetrically; if nu = al the support projection in the
        middle is expanded as a sum over common successor symbols.  All other
        shapes annihilate.  Both monomials are stored ones, so every word
        is admissible and only the new junction and the termini are checked.
        A surplus keeps the terminus of the longer word, whose own monomial
        already passed the termini check.
        """
        mu, nu = m1
        al, be = m2
        if nu == al:
            if not nu or (mu and mu[-1] == nu[-1]) or (be and be[-1] == nu[-1]):
                # empty middle, or the support projection in the middle is
                # absorbed by an adjacent word with the same terminus
                m = self._meet(mu, be)
                return () if m is None else (m,)
            return self._extend(mu, be, self._succ[nu[-1] - 1])
        if len(al) > len(nu) and al[: len(nu)] == nu:
            left = self._cat(mu, al[len(nu) :])
            if left is not None:
                return (tuple.__new__(Monomial, (left, be)),)
        elif len(nu) > len(al) and nu[: len(al)] == al:
            right = self._cat(be, nu[len(al) :])
            if right is not None:
                return (tuple.__new__(Monomial, (mu, right)),)
        return ()

    def _multiply(self, x: CKElement, y: CKElement) -> CKElement:
        """x y for elements of this algebra, unchecked; a product without
        a term is the zero element itself."""
        acc: dict[Monomial, numbers.Rational] = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                c = c1 * c2
                for m in self._pair_products(m1, m2):
                    acc[m] = acc.get(m, 0) + c
        if not acc:
            return self.zero
        return CKElement(self, acc)

    # -- refinement and equality -------------------------------------------

    def _extend(self, mu: Word, nu: Word, symbols) -> list[Monomial]:
        """S_{mu j} S_{nu j}* for each j in ``symbols`` that may follow both
        mu and nu (an empty word allows every symbol)."""
        rows, new = self._rows, tuple.__new__
        lrow = rows[mu[-1] - 1] if mu else None
        rrow = rows[nu[-1] - 1] if nu else None
        return [
            new(Monomial, (mu + (j,), nu + (j,)))
            for j in symbols
            if (lrow is None or lrow[j - 1]) and (rrow is None or rrow[j - 1])
        ]

    def _refine_terms(self, terms: dict, depth: int) -> dict:
        acc: dict[Monomial, numbers.Rational] = {}
        symbols = range(1, self.n + 1)
        stack = list(terms.items())
        while stack:
            mono, coeff = stack.pop()
            if len(mono.right) == depth:
                acc[mono] = acc.get(mono, 0) + coeff
            else:
                for deeper in self._extend(mono.left, mono.right, symbols):
                    stack.append((deeper, coeff))
        return {m: c for m, c in acc.items() if c}

    def equal(self, x: CKElement, y: CKElement) -> bool:
        """Decide x = y in the algebra.

        The difference is split by gauge degree; within each degree all terms
        are refined to the maximal right depth present and the coefficient
        maps compared.  Sound because stored monomials are nonzero and, at a
        common right depth, linearly independent.  Elements of this algebra
        stored with the same terms are equal without a refinement.
        """
        if x.terms == y.terms and x.algebra is self is y.algebra:
            return True
        self._check_own(x)
        self._check_own(y)
        sectors: dict[int, dict] = {}
        for m, c in (x - y).terms.items():
            sectors.setdefault(m.degree, {})[m] = c
        for sector in sectors.values():
            depth = max(len(m.right) for m in sector)
            if self._refine_terms(sector, depth):
                return False
        return True

    # -- the canonical shift and the block embedding ------------------------

    def shift(self, x: CKElement, power: int = 1) -> CKElement:
        """The canonical shift map, sum over words eta of length ``power`` of
        S_eta x S_eta* (the identity map for power 0)."""
        self._check_own(x)
        if power < 0:
            raise ValueError("power must be nonnegative")
        if power == 0:
            return x
        # S_eta S_a S_b* S_eta* = S_{eta a} S_{eta b}*, zero when either
        # junction is inadmissible; distinct (eta, a, b) give distinct words,
        # and a nonempty a or b keeps the terminus the stored term checked
        rows, meet, new = self._rows, self._meet, tuple.__new__
        acc: dict[Monomial, numbers.Rational] = {}
        for eta in self.words(power):
            row = rows[eta[-1] - 1]
            for (a, b), c in x.terms.items():
                if (not a or row[a[0] - 1]) and (not b or row[b[0] - 1]):
                    mono = new(Monomial, (eta + a, eta + b)) if a and b else meet(eta + a, eta + b)
                    if mono is not None:
                        acc[mono] = c
        return CKElement(self, acc)

    def block_embedding(self, m: int, x: CKElement) -> "BlockMatrix":
        """The w(m) x w(m) block-matrix embedding with entry (mu, nu) equal
        to S_mu* x S_nu; a *-homomorphism into the block algebra."""
        self._check_own(x)
        if m < 1:
            raise ValueError("block depth must be >= 1")
        cells = self._embedding_cells(m, x)
        return BlockMatrix(
            self, m, self.words(m), {key: CKElement(self, terms) for key, terms in cells.items()}
        )

    def _embedding_cells(self, m: int, x: CKElement) -> dict:
        """The cells of ``block_embedding(m, x)`` as raw term maps, a dict
        {(row, col): {monomial: coeff}} keyed by word index; m >= 1.

        Each term c S_a S_b* of x adds c S_mu* S_a S_b* S_nu to the cell
        (mu, nu), two products of bare monomials.  That is nonzero only when
        mu is prefix-comparable with a, and nu with the right word hr of the
        half S_mu* S_a S_b* = S_hl S_hr*, so only the rows found under a[:m]
        and the columns found under hr[:m] are visited.  The prefix table
        thus fixes the shape of each product: a row (a column) extends a
        (hr), and the surplus goes to the other word after one junction
        check; or it is that word, and the support projection between them
        is absorbed or expanded over the successors of its terminus; or it
        is a prefix of that word, which keeps the rest.  The maps are not normalized: a cell whose terms
        cancel keeps them, with coefficient 0, or is left empty.
        """
        index, spans, succ, rows = self.words(m), self._spans(m), self._succ, self._rows
        new, empty = tuple.__new__, range(0)
        acc: dict[tuple[int, int], dict] = {}
        for (a, b), c in x.terms.items():
            # S_row* S_a S_b*, one half S_hl S_hr* per row (or per successor)
            k = len(a)
            if k > m:  # the row is a prefix of a
                halves = [(r, a[m:], b) for r in spans.get(a[:m], empty)]
            elif k == m:  # the row is a
                r = spans[a][0]
                if b and b[-1] == a[-1]:
                    halves = [(r, (), b)]
                else:
                    halves = [(r, hl, hr) for hl, hr in self._extend((), b, succ[a[-1] - 1])]
            else:  # the row extends a: one junction, from b to the surplus
                brow = rows[b[-1] - 1] if b else None
                halves = [
                    (r, (), b + index[r][k:])
                    for r in spans.get(a, empty)
                    if brow is None or brow[index[r][k] - 1]
                ]
            # S_hl S_hr* S_col, in the same three shapes
            for r, hl, hr in halves:
                h, lrow = len(hr), rows[hl[-1] - 1] if hl else None
                if h < m:  # the column extends hr: one junction, from hl to the surplus
                    for col in spans.get(hr, empty):
                        s = index[col][h:]
                        if lrow is None or lrow[s[0] - 1]:
                            mono = new(Monomial, (hl + s, ()))
                            cell = acc.setdefault((r, col), {})
                            cell[mono] = cell.get(mono, 0) + c
                    continue
                col = spans[hr[:m]][0]
                if h > m:  # the column is a prefix of hr
                    monos = (new(Monomial, (hl, hr[m:])),)
                elif hl and hl[-1] == hr[-1]:  # the column is hr
                    monos = (new(Monomial, (hl, ())),)
                elif hl:
                    monos = self._extend(hl, (), succ[hr[-1] - 1])
                else:
                    monos = self._q_terms[hr[-1] - 1]
                cell = acc.setdefault((r, col), {})
                for mono in monos:
                    cell[mono] = cell.get(mono, 0) + c
        return acc

    # -- witness blocks for the embedding identities -------------------------

    def witness_blocks(self, alpha, beta, i: int, l: int, m: int):
        """Explicit 0/1 witness blocks for the shifted-generator image under
        the block embedding.

        For |alpha| > |beta| the result maps each admissible word mu of
        length |alpha| - |beta| to the sum of matrix units
        e_{eta alpha mid, eta beta mid mu} over |eta| = l and mid of length
        m - l - |alpha| starting at i; the image of the shifted generator is
        then sum_mu block(mu) (x) S_mu.  For |alpha| = |beta| the result maps
        each symbol j to the analogous sum with mid additionally ending at j,
        and the image is sum_j block(j) (x) Q_j.  Every block is a partial
        isometry (B B^T B = B over the integers).

        Each block is a dense w(m) x w(m) int64 array; the verifier works on
        the sparse unit sets underneath, whose words all come from the one
        prefix table of depth m.
        """
        a, b = self._generator_words(alpha, i, beta)
        if len(b) > len(a):
            raise WitnessPreconditionError(
                f"|beta| = {len(b)} exceeds |alpha| = {len(a)}"
            )
        if l < 0:
            raise WitnessPreconditionError("shift power l must be nonnegative")
        if m < l + 1 + len(a):
            raise WitnessPreconditionError(
                f"block depth m = {m} is below l + 1 + |alpha| = {l + 1 + len(a)}"
            )
        import numpy as np

        units = self._witness_units(a, b, i, l, m)
        w = len(self.words(m))
        out = {}
        for key, cells in units.items():
            block = np.zeros((w, w), dtype=np.int64)
            for r, c in cells:
                block[r, c] = 1
            out[key] = block
        return out

    def _witness_units(self, a: Word, b: Word, i: int, l: int, m: int) -> dict:
        """The witness blocks of ``witness_blocks``, each as the set of its
        (row, col) matrix units, keyed (and ordered) the same way.  The
        arguments are trusted: a and b are admissible word tuples with
        |b| <= |a|, and 0 <= l <= m - 1 - |a|.

        Rows and columns are both looked up in the prefix table of depth m:
        a row's columns are the words under its head, eta b followed by the
        row's own mid."""
        index, spans = self.words(m), self._spans(m)
        empty = range(0)
        # a column word is eta b mid mu, or eta b mid when |a| = |b|: its
        # block is keyed by its tail mu, or by its last symbol, the end of mid
        if len(a) > len(b):
            out = {mu: set() for mu in self.words(len(a) - len(b))}
            key = slice(len(b) - len(a), None)
        else:
            out = {j: set() for j in range(1, self.n + 1)}
            key = -1
        # the rows eta a mid are the words of length m that extend eta a i;
        # the columns of a row are the words of length m that extend eta b
        # mid, none when eta b i is not admissible
        for eta in self.words(l):
            for row in spans.get(eta + a + (i,), empty):
                for col in spans.get(eta + b + index[row][l + len(a) :], empty):
                    out[index[col][key]].add((row, col))
        return out

    # -- finite-dimensional picture of the degree-zero part ------------------

    def af_blocks(self, x: CKElement, depth: int) -> "BlockDiagonal":
        """Map a degree-zero element of right depth <= depth to the
        block-diagonal matrix algebra indexed by word terminus.

        After refinement every term S_mu S_nu* with t(mu) = t(nu) = t becomes
        the matrix unit E_{mu nu} of the block of terminus t, whose size is
        the number of depth-``depth`` words ending at t.  Raises
        NonZeroDegreeError or DepthExceededError when the element does not
        live in this picture.
        """
        self._check_own(x)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        for m in x.terms:
            if m.degree != 0:
                raise NonZeroDegreeError(f"term {m} has degree {m.degree}")
            if len(m.right) > depth:
                raise DepthExceededError(
                    f"term {m} has right depth {len(m.right)} > {depth}"
                )
        refined = self._refine_terms(x.terms, depth)
        index = self.words(depth)
        by_terminus: dict[int, list[Word]] = {t: [] for t in range(1, self.n + 1)}
        pos: dict[Word, tuple[int, int]] = {}
        for wd in index:
            t = wd[-1]
            pos[wd] = (t, len(by_terminus[t]))
            by_terminus[t].append(wd)
        grids = {
            t: [[Fraction(0)] * len(words) for _ in words]
            for t, words in by_terminus.items()
        }
        for m, c in refined.items():
            if m.left[-1] != m.right[-1]:
                raise DepthExceededError(
                    f"term {m} mixes termini at depth {depth}; it only embeds "
                    f"at depth {depth + 1}"
                )
            t, r = pos[m.left]
            _, col = pos[m.right]
            grids[t][r][col] = Fraction(c)
        return BlockDiagonal(
            depth,
            {t: tuple(tuple(row) for row in grid) for t, grid in grids.items()},
        )


def _cell_mismatches(alg: CuntzKriegerAlgebra, lhs: dict, rhs: dict) -> list:
    """The (row, col) keys, in row-major order, where two block matrices,
    given as term maps {(row, col): {monomial: coeff}}, differ in the
    algebra; a cell missing on one side is zero there.

    Cells with equal term maps are equal.  Only the others go through
    ``alg.equal``, which decides cancellation and refinement, so only they
    become elements and only their keys are sorted.
    """
    if lhs == rhs:
        return []
    empty: dict = {}
    differing = [key for key, terms in lhs.items() if rhs.get(key, empty) != terms]
    differing += [key for key, terms in rhs.items() if terms and key not in lhs]
    return [
        key
        for key in sorted(differing)
        if not alg.equal(
            CKElement(alg, lhs.get(key, empty)), CKElement(alg, rhs.get(key, empty))
        )
    ]


class BlockMatrix:
    """Square matrix over the symbolic algebra, indexed by the admissible
    words of a fixed length.

    Only the nonzero cells are stored, as a dict {(row, col): element} keyed
    by word index; cells left out are zero.  ``entries`` is a read-only
    dense view (a tuple of rows), built on each access.
    """

    __slots__ = ("algebra", "depth", "index", "_cells")

    def __init__(self, algebra, depth, index, cells: dict):
        if index != algebra.words(depth):
            raise ValueError(f"a block matrix of depth {depth} is indexed by words({depth})")
        self.algebra = algebra
        self.depth = depth
        self.index = index
        self._cells = {key: x for key, x in cells.items() if x.terms}

    @property
    def entries(self) -> tuple:
        zero = self.algebra.zero
        cells = self._cells
        w = len(self.index)
        return tuple(tuple(cells.get((r, c), zero) for c in range(w)) for r in range(w))

    def entry(self, row_word, col_word) -> CKElement:
        """The cell of two admissible words of length ``depth``."""
        spans, pos = self.algebra._spans(self.depth), []
        for word in (row_word, col_word):
            w = _check_word(word, self.algebra.n)
            if len(w) != self.depth or w not in spans:
                raise ValueError(f"{w} is not an admissible word of length {self.depth}")
            pos.append(spans[w][0])
        return self._cells.get(tuple(pos), self.algebra.zero)

    def __mul__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        if self.algebra is not other.algebra or self.index != other.index:
            raise ValueError("block matrices are not over the same index")
        alg = self.algebra
        right_rows: dict[int, list] = {}
        for (k, j), b in other._cells.items():
            right_rows.setdefault(k, []).append((j, b))
        acc: dict[tuple[int, int], dict] = {}
        for (i, k), a in self._cells.items():
            for j, b in right_rows.get(k, ()):
                cell = acc.setdefault((i, j), {})
                for mono, c in alg._multiply(a, b).terms.items():
                    cell[mono] = cell.get(mono, 0) + c
        cells = {key: CKElement(alg, terms) for key, terms in acc.items()}
        return BlockMatrix(alg, self.depth, self.index, cells)

    def adjoint(self) -> "BlockMatrix":
        cells = {(c, r): x.adjoint() for (r, c), x in self._cells.items()}
        return BlockMatrix(self.algebra, self.depth, self.index, cells)

    def equals(self, other: "BlockMatrix") -> bool:
        """Entrywise equality in the algebra."""
        if self.algebra is not other.algebra or self.index != other.index:
            return False
        return not _cell_mismatches(
            self.algebra,
            {key: x.terms for key, x in self._cells.items()},
            {key: x.terms for key, x in other._cells.items()},
        )


class BlockDiagonal:
    """Block-diagonal rational matrix, one block per word terminus."""

    __slots__ = ("depth", "blocks")

    def __init__(self, depth: int, blocks: dict):
        self.depth = depth
        self.blocks = blocks

    def __eq__(self, other):
        if not isinstance(other, BlockDiagonal):
            return NotImplemented
        return self.depth == other.depth and self.blocks == other.blocks

    __hash__ = None

    def __mul__(self, other):
        if not isinstance(other, BlockDiagonal):
            return NotImplemented
        if self.depth != other.depth or self.blocks.keys() != other.blocks.keys():
            raise ValueError("block shapes differ")
        out = {
            t: tuple(map(tuple, _matmul(a, other.blocks[t])))
            for t, a in self.blocks.items()
        }
        return BlockDiagonal(self.depth, out)


@dataclass
class VerificationReport:
    """Outcome of a symbolic verification run."""

    cases: int
    passed: int
    failures: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed == self.cases

    def to_json_dict(self) -> dict:
        return asdict(self)


def _report(params: dict, cases) -> VerificationReport:
    """The report of ``cases``: the one step by which both verifiers count
    a case, compare it, and record how it failed.

    Each case is ``(names, values, mismatches)``.  ``mismatches`` holds one
    dict of details per mismatch the comparison finds (a tuple or a list),
    and is empty when the case holds.  Each mismatch appends one failure
    record: the fields that name the case (``names`` paired with
    ``values``), then the details, every word written as a list.  Records
    are built here, for a mismatch only, in the order of the cases and of
    their mismatches.  A case without a mismatch counts as passed.
    """
    report = VerificationReport(0, 0, params=params)
    for names, values, mismatches in cases:
        report.cases += 1
        report.passed += not mismatches
        for detail in mismatches:
            record = dict(zip(names, values), **detail)
            report.failures.append(
                {key: list(v) if type(v) is tuple else v for key, v in record.items()}
            )
    return report


def verify_relations(
    alg: CuntzKriegerAlgebra,
    max_word_len: int = 4,
    max_state_len: int = 3,
    inject_fault: bool = False,
) -> VerificationReport:
    """Check the defining relations of the algebra by exact computation.

    Covers orthogonality of the range projections, the unit decomposition
    sum_j P_j = 1, the collapse rule S_mu* S_nu = delta_{mu nu} Q_t(mu) for
    words of equal length, absorption Q_eta S_alpha = A(eta o(alpha)) S_alpha,
    and the depth resolutions sum over length-m words of S_mu S_mu* = 1.
    Each instance of a relation is one case, decided by ``alg.equal`` and
    entered into the report by ``_report``; a failed case leaves one
    record, and the records come in the order above, each family in the
    order of its symbols and words.  Every element here comes from the
    algebra, so products go straight to ``alg._multiply``.

    ``inject_fault`` corrupts one coefficient of the unit decomposition, to
    exercise the failure reporting path.
    """
    params = {"max_word_len": max_word_len, "max_state_len": max_state_len}
    return _report(params, _relation_cases(alg, max_word_len, max_state_len, inject_fault))


def _relation_cases(alg: CuntzKriegerAlgebra, max_word_len, max_state_len, inject_fault):
    """Yield the cases of ``verify_relations`` in its order, each as
    ``_report`` takes it."""
    n, rows, mul, equal, zero = alg.n, alg._rows, alg._multiply, alg.equal, alg.zero

    def case(names, values, lhs, rhs):
        return names, values, () if equal(lhs, rhs) else ({},)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = alg.p(i) if i == j else zero
            yield case(
                ("relation", "i", "j"), ("range_projection_orthogonality", i, j),
                mul(alg.p(i), alg.p(j)), rhs,
            )

    total = zero
    for j in range(1, n + 1):
        total = total + alg.p(j)
    if inject_fault:
        total = total + alg.p(1) * Fraction(1, 2)
    yield case(("relation",), ("unit_decomposition",), total, alg.identity)

    q = {j: alg.q(j) for j in range(1, n + 1)}
    s_levels = {
        k: [(wd, alg.s(wd)) for wd in alg.words(k)]
        for k in range(1, max(max_word_len, max_state_len) + 1)
    }

    for k in range(1, max_word_len + 1):
        level = s_levels[k]
        for mu, _ in level:
            star = alg.s_star(mu)
            for nu, s_nu in level:
                rhs = q[mu[-1]] if mu == nu else zero
                yield case(
                    ("relation", "mu", "nu"), ("word_collapse", mu, nu), mul(star, s_nu), rhs
                )

    for ke in range(1, max_state_len + 1):
        for eta, s_eta in s_levels[ke]:
            q_eta = mul(alg.s_star(eta), s_eta)
            row = rows[eta[-1] - 1]
            for ka in range(1, max_state_len + 1):
                for a, s_a in s_levels[ka]:
                    rhs = s_a if row[a[0] - 1] else zero
                    yield case(
                        ("relation", "eta", "alpha"), ("support_absorption", eta, a),
                        mul(q_eta, s_a), rhs,
                    )

    for m in range(1, max_word_len + 1):
        resolution = CKElement(alg, {Monomial(wd, wd): 1 for wd in alg.words(m)})
        yield case(("relation", "m"), ("depth_resolution", m), resolution, alg.identity)


def _is_partial_permutation(units) -> bool:
    """True iff the 0/1 matrix with these (row, col) units satisfies
    B B^T B = B, i.e. no row and no column holds two units."""
    by_row = dict(units)
    return len(by_row) == len(units) == len(set(by_row.values()))


def verify_witness_decomposition(
    alg: CuntzKriegerAlgebra,
    n0: int,
    n: int,
    *,
    inject_fault: bool = False,
) -> VerificationReport:
    """Verify, generator by generator, that the block embedding of every
    shifted generator equals its witness-block decomposition.

    For every generator S_alpha P_i S_beta* with |beta| <= |alpha| <= n0 and
    every shift power l < n, the left side is computed symbolically through
    the embedding at depth m = n + n0 and compared entrywise with the sum of
    witness blocks tensored with S_mu (or with Q_j); every witness block is
    additionally checked to be a partial isometry.  Both sides are sparse
    maps from cells to terms, compared by ``_cell_mismatches``: only a cell
    whose term maps differ goes to ``alg.equal``.  Each (alpha, beta, i, l)
    is one case, entered into the report by ``_report``; a failed case
    leaves one record per mismatched cell, in row-major order, then one per
    block that is not a partial isometry, in block order.  Cases come in generator-then-power
    order: alpha and beta by length, then lexicographically, then i, then l.

    ``inject_fault`` removes one matrix unit (the first in row-major order)
    from the first nonempty witness block, to exercise the failure reporting
    path.
    """
    if n0 < 1 or n < 1:
        raise ValueError("n0 and n must be >= 1")
    return _report({"n0": n0, "n": n, "m": n0 + n}, _witness_cases(alg, n0, n, inject_fault))


def _witness_cases(alg: CuntzKriegerAlgebra, n0: int, n: int, inject_fault: bool):
    """Yield the cases of ``verify_witness_decomposition`` in its order,
    each as ``_report`` takes it."""
    m = n0 + n
    index = alg.words(m)
    injected = False
    # S_mu for a block keyed by a word, Q_j for one keyed by a symbol
    pieces: dict = {mu: alg.s(mu) for k in range(1, n0 + 1) for mu in alg.words(k)}
    pieces.update((j, alg.q(j)) for j in range(1, alg.n + 1))

    for alpha in [w for k in range(n0 + 1) for w in alg.words(k)]:
        for beta in [w for k in range(len(alpha) + 1) for w in alg.words(k)]:
            for i in range(1, alg.n + 1):
                # both words come from alg.words, so they are admissible
                gen = alg._generator(alpha, beta, i)
                for l in range(n):
                    # alpha and beta are admissible, |beta| <= |alpha| <= n0
                    # and l < n, so the case meets witness_blocks' checks
                    blocks = alg._witness_units(alpha, beta, i, l, m)
                    if inject_fault and not injected:
                        for units in blocks.values():
                            if units:
                                units.remove(min(units))
                                injected = True
                                break
                    lhs = alg._embedding_cells(m, alg.shift(gen, l))
                    rhs: dict[tuple[int, int], dict] = {}
                    for key, units in blocks.items():
                        piece = pieces[key]
                        # a cell that one unit covers shares the piece's
                        # terms; neither side's maps are written to below
                        for cell in units:
                            if cell in rhs:
                                rhs[cell] = (CKElement(alg, rhs[cell]) + piece).terms
                            else:
                                rhs[cell] = piece.terms
                    mismatches = [
                        {"kind": "entry_mismatch", "row": index[r], "col": index[c]}
                        for r, c in _cell_mismatches(alg, lhs, rhs)
                    ] + [
                        {"kind": "not_partial_isometry", "block": key}
                        for key, units in blocks.items()
                        if units and not _is_partial_permutation(units)
                    ]
                    yield ("alpha", "beta", "i", "l"), (alpha, beta, i, l), mismatches
