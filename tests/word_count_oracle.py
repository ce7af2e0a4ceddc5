"""Matrix-squaring reference for the word counts.

The count route as it stood before the counts went through the walk and
their minimal recurrence: A^e 1 by binary powering that squares the n x n
integer matrix and applies each square only to the vector.  It shares no
code with ``matrix.py`` (no successor lists, no recurrence), so agreement
of the two is an independent check of both count routes there.  Its n^3
squarings are slow past a hundred or so states; for the long cycle with a
loop, ``cycle_with_loop_count`` counts from the graph's shape instead.
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


def cycle_with_loop_count(n, k):
    """w(k) for the n-cycle with a loop at symbol 1, n >= 2, as
    ``conftest.cycle_with_loop`` builds it, from the shape of the graph
    alone.

    A path of j < n steps from symbol 1 loops some t <= j times and then
    runs on: j + 1 paths.  From the symbol m steps before symbol 1 there is
    one path if j < m, and otherwise it meets symbol 1 with j - m steps
    left: j - m + 1 paths.  Summed over m = 1..n-1, w(j + 1) = n + j(j+1)/2
    for j < n.  Past that, A^n = A^(n-1) + I (Cayley-Hamilton; the
    characteristic polynomial is x^n - x^(n-1) - 1), so
    w(j + 1) = w(j) + w(j + 1 - n).
    """
    counts = [n + j * (j + 1) // 2 for j in range(min(k, n))]
    for j in range(n, k):
        counts.append(counts[j - 1] + counts[j - n])
    return counts[k - 1]
