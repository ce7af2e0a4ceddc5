"""Matrix-squaring reference for the word counts.

The count route as it stood before the counts went through the walk and
their minimal recurrence: A^e 1 by binary powering that squares the n x n
integer matrix and applies each square only to the vector.  It shares no
code with ``matrix.py`` (no successor lists, no recurrence), so agreement
of the two is an independent check of both count routes there.
"""


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def power_vector(mat, e):
    """A^e 1, exactly, by binary powering that never forms A^e.

    The top bit applies the square below it twice, so the largest square,
    whose entries are the longest, is never formed.
    """
    v = [1] * mat.n
    if e == 0:
        return v
    base = [list(r) for r in mat.entries]
    top = e.bit_length() - 1
    for b in range(top):
        if b:
            base = _matmul(base, base)
        if e >> b & 1:
            v = matvec(base, v)
    for _ in range(2 if top else 1):
        v = matvec(base, v)
    return v


def oracle_count(mat, k):
    """w(k) = 1^T A^(k-1) 1."""
    return sum(power_vector(mat, k - 1))
