"""Independent references for the benchmark's checks.

Nothing here calls ``ckshift``: counts come from closed forms or a
successor-vector recurrence, spectral data from closed forms, bisection or
``numpy.linalg``.  The benchmark computes every reference before it starts
timing, so none of this work is measured.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def successors(rows) -> list[list[int]]:
    """0-based successor lists of a 0/1 grid."""
    return [[j for j, v in enumerate(row) if v] for row in rows]


def word_counts(rows, k_max: int) -> list[int]:
    """[w(1), ..., w(k_max)]: exact admissible-word counts.

    Carries v_k(i) = number of words of length k starting at i, using
    v_{k+1}(i) = sum over successors j of v_k(j).
    """
    succ = successors(rows)
    v = [1] * len(rows)
    out = [sum(v)]
    for _ in range(k_max - 1):
        v = [sum(v[j] for j in s) for s in succ]
        out.append(sum(v))
    return out


def word_count(rows, k: int) -> int:
    """w(k) alone, by the same recurrence, holding one vector at a time."""
    succ = successors(rows)
    v = [1] * len(rows)
    for _ in range(k - 1):
        v = [sum(v[j] for j in s) for s in succ]
    return sum(v)


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1, by fast doubling."""

    def pair(m):
        if m == 0:
            return 0, 1
        a, b = pair(m >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if m & 1 else (c, d)

    return pair(n)[0]


def cycle_loop_root(n: int) -> float:
    """Perron root of an n-cycle with one self-loop: the root in (1, 2) of
    x^n - x^(n-1) - 1, found by bisection."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** (n - 1) * (mid - 1.0) - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def perron_root(rows) -> float:
    """Largest eigenvalue modulus, from numpy.linalg.eigvals."""
    return float(np.abs(np.linalg.eigvals(np.array(rows, dtype=float))).max())


def parry_reference(rows) -> tuple[float, np.ndarray, np.ndarray]:
    """(radius, stochastic matrix, stationary vector) of the maximal-entropy
    measure, from numpy.linalg.eig."""
    a = np.array(rows, dtype=float)

    def perron_vector(m):
        vals, vecs = np.linalg.eig(m)
        top = int(np.argmax(vals.real))
        vec = np.abs(vecs[:, top].real)
        return float(vals[top].real), vec / vec.sum()

    lam, u = perron_vector(a)
    _, v = perron_vector(a.T)
    stochastic = a * u[None, :] / (lam * u[:, None])
    stationary = u * v / float(u @ v)
    return lam, stochastic, stationary


def golden_partition_entropy(depth: int) -> float:
    """Entropy of the depth-n cylinder partition under the golden-mean
    Parry measure: H(pi) + (n - 1) log(phi), pi = (phi^2, 1) / (phi^2 + 1)."""
    p1 = PHI * PHI / (PHI * PHI + 1.0)
    p2 = 1.0 - p1
    return -(p1 * math.log(p1) + p2 * math.log(p2)) + (depth - 1) * math.log(PHI)


def admissible_words(rows, k: int) -> list[tuple[int, ...]]:
    """All admissible words of length k (symbols 1..n), lexicographically
    sorted, by filtering the cartesian product (small cases only)."""
    n = len(rows)
    return [
        w
        for w in itertools.product(range(1, n + 1), repeat=k)
        if all(rows[a - 1][b - 1] for a, b in zip(w, w[1:]))
    ]


def is_strongly_connected(rows) -> bool:
    succ = successors(rows)
    pred = successors([list(col) for col in zip(*rows)])
    for graph in (succ, pred):
        seen = {0}
        stack = [0]
        while stack:
            for j in graph[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(rows):
            return False
    return True


def int_matmul(a, b) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def witness_cases(rows, n0: int, n: int) -> int:
    """Case count of the witness verifier: one case per generator
    S_alpha P_i S_beta* with |beta| <= |alpha| <= n0, and per power l < n."""
    w = [1] + word_counts(rows, n0)
    total = sum(w[a] * sum(w[: a + 1]) for a in range(n0 + 1))
    return total * len(rows) * n


def relation_cases(rows, max_word_len: int = 4, max_state_len: int = 3) -> int:
    """Case count of the relation verifier at its default depths."""
    w = word_counts(rows, max_word_len)
    states = sum(w[:max_state_len])
    return len(rows) ** 2 + 1 + sum(x * x for x in w) + states * states + max_word_len


def close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
