"""Floating-point search for the Perron vectors of a transition matrix.

The only module of the package that imports numpy at load time, and, with
``CuntzKriegerAlgebra.witness_blocks``, the only code that holds numpy arrays.
``matrix.spectral_radius`` imports it on first use, so the exact work
(validation, word counts, the edge-matrix factorization and the generator
algebra) never loads numpy.  Its one entry point, ``perron_vectors``, takes
the matrix and returns the two vectors as lists of Python floats.  Each
Perron vector of A + I comes from power iteration, with Noda's inverse
iteration where the spectral gap is small.  Noda's steps share one shifted
matrix per vector and rewrite only its diagonal, the one part that depends
on the shift, which relies on ``np.linalg.solve`` not writing its input.
``matrix`` then certifies the radius in exact integer arithmetic, and
computes the residual of the pair over the adjacency lists with the kernel
of that certificate.
"""

from __future__ import annotations

import math

import numpy as np

from .matrix import NoConvergenceError, TransitionMatrix


def _power_loop(m: np.ndarray, tol: float, max_iterations: int, v: np.ndarray):
    """Power iteration for a nonnegative irreducible matrix with positive
    diagonal, from the positive vector v summing to 1.

    Returns (eigenvalue, vector summing to 1, residual, iterations,
    converged).  The eigenvalue estimate is the midpoint of the componentwise
    ratio bounds lo and hi, which bracket the true Perron root at every
    step.  One product m @ v per step: the product that measures a step's
    residual is the next step's w, and the residual is only computed once
    the bracket is within tol.

    Stops unconverged when the budget is spent, or when n steps in a row
    neither lower hi nor raise lo past their best so far.  In exact
    arithmetic that never happens short of an eigenvector: m^(n-1) is
    positive, so each ratio n - 1 steps on is a positive average of the
    ratios now.  In floats it means rounding has taken over and no later
    step can do better.
    """
    n = m.shape[0]
    w = m @ v
    lam = math.nan
    residual = math.inf
    best_lo, best_hi = -math.inf, math.inf
    flat = 0
    for it in range(1, max_iterations + 1):
        ratios = w / v
        lo = float(ratios.min())
        hi = float(ratios.max())
        lam = 0.5 * (lo + hi)
        v = w / w.sum()
        w = m @ v
        if hi - lo <= tol:
            residual = float(np.abs(w - lam * v).max())
            if residual <= tol:
                return lam, v, residual, it, True
        if lo > best_lo or hi < best_hi:
            best_lo, best_hi = max(lo, best_lo), min(hi, best_hi)
            flat = 0
        else:
            flat += 1
            if flat >= n:
                return lam, v, residual, it, False
    return lam, v, residual, max_iterations, False


def _noda(m: np.ndarray, tol: float, max_steps: int, v: np.ndarray):
    """Noda's inverse iteration for a nonnegative irreducible matrix, from
    the positive vector v summing to 1.

    Each step shifts by the Collatz-Wielandt upper bound sigma = max_i
    (m v)_i / v_i and solves (sigma I - m) y = v.  For sigma above the
    Perron root that inverse is a positive matrix, so y stays positive; the
    shift decreases to the root quadratically (Noda, Numer. Math. 17, 1971;
    Elsner, Numer. Math. 26, 1976).  Stops once the ratio bracket is within
    tol, after ``max_steps`` steps, as soon as the shift fails to decrease
    (rounding has taken over), or at the first solve that fails or gives a
    vector that is not finite and positive, keeping the last good vector.
    Returns (vector summing to 1, steps taken).

    One shifted matrix is kept for the whole call: only its diagonal
    depends on sigma, so a step writes sigma - m_ii there and leaves the
    cells 0.0 - m_ij alone.  Those are the floats of sigma I - m built
    afresh (sigma * 0.0 - m_ij off the diagonal, sigma * 1.0 - m_ii on it),
    and the reuse is sound because ``np.linalg.solve`` never writes its
    input.
    """
    n = m.shape[0]
    shifted = 0.0 - m
    diagonal = m.diagonal().copy()
    last = math.inf
    steps = 0
    while steps < max_steps:
        ratios = (m @ v) / v
        sigma = float(ratios.max())
        if sigma - float(ratios.min()) <= tol or sigma >= last:
            break
        last = sigma
        shifted.flat[:: n + 1] = sigma - diagonal
        try:
            y = np.linalg.solve(shifted, v)
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(y).all() and y.min() > 0.0):
            break
        v = y / y.sum()
        steps += 1
    return v, steps


def _perron_vector(m: np.ndarray, tol: float, max_iterations: int):
    """Perron vector of m, and the steps spent on it.

    Power iteration runs first, for at most n // 3 + 1 steps, at n^2
    multiplications a step: about the n^3 / 3 of one LU factorization.  A
    matrix with a large spectral gap, one that mixes quickly, is done there.
    One with a small gap, such as a long cycle with few chords, goes on to
    Noda steps from that vector, and the power loop finishes from theirs as
    the stopping test.  All three count against ``max_iterations``, and at
    least one step is left to the last loop.  A loop that stalls at a float
    fixed point ends the search, leaving the verdict to the exact bracket.
    """
    n = m.shape[0]
    probe = min(n // 3 + 1, max_iterations)
    _, v, _, used, converged = _power_loop(m, tol, probe, np.full(n, 1.0 / n))
    if converged:
        return v, used
    v, steps = _noda(m, tol, max_iterations - used - 1, v)
    used += steps
    _, v, _, it, converged = _power_loop(m, tol, max_iterations - used, v)
    if not converged and used + it == max_iterations:
        raise NoConvergenceError(max_iterations)
    return v, used + it


def perron_vectors(mat: TransitionMatrix, tol: float, max_iterations: int):
    """Right and left Perron vectors of the transition matrix ``mat``, as
    lists of Python floats each summing to 1, and the steps spent on both.
    Both are found on A + I, built here from the successor lists; each
    vector's steps count against ``max_iterations`` on their own."""
    n = mat.n
    rows = [i for i, succ in enumerate(mat.successors) for _ in succ]
    cols = [j - 1 for succ in mat.successors for j in succ]
    shifted = np.eye(n)
    shifted[rows, cols] += 1.0
    right, it_right = _perron_vector(shifted, tol, max_iterations)
    left, it_left = _perron_vector(shifted.T, tol, max_iterations)
    return right.tolist(), left.tolist(), it_right + it_left
