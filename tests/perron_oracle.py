"""Reference power iteration: the loop ``_perron._power_loop`` ran, from the
uniform start vector, before it carried the product m @ v from one step to
the next.

Each step here multiplies by the matrix twice (once for the step, once for
the residual) and computes the residual at every step.  The two loops
follow the same trajectory, so their results must agree bit for bit.

Reference Noda iteration: the loop ``_perron._noda`` ran before it kept one
shifted matrix per call.  Each step here builds sigma I - m afresh from
``np.eye``; the floats of that matrix, and so the steps, must be the same.
"""

import math

import numpy as np

from ckshift.matrix import NoConvergenceError


def perron_iterate(m: np.ndarray, tol: float, max_iterations: int):
    """Power iteration for a nonnegative irreducible matrix with positive diagonal.

    Returns (eigenvalue, vector summing to 1, residual, iterations).  The
    eigenvalue estimate is the midpoint of the componentwise ratio bounds,
    which bracket the true Perron root at every step.
    """
    n = m.shape[0]
    v = np.full(n, 1.0 / n)
    for it in range(1, max_iterations + 1):
        w = m @ v
        ratios = w / v
        lam = 0.5 * (float(ratios.min()) + float(ratios.max()))
        v = w / w.sum()
        residual = float(np.abs(m @ v - lam * v).max())
        if float(ratios.max() - ratios.min()) <= tol and residual <= tol:
            return lam, v, residual, it
    raise NoConvergenceError(max_iterations)


def noda_reference(m: np.ndarray, tol: float, max_steps: int, v: np.ndarray):
    """Noda's inverse iteration from the positive vector v summing to 1,
    solving with a fresh sigma * np.eye(n) - m at every step.  Returns
    (vector summing to 1, steps taken)."""
    eye = np.eye(m.shape[0])
    last = math.inf
    steps = 0
    while steps < max_steps:
        ratios = (m @ v) / v
        sigma = float(ratios.max())
        if sigma - float(ratios.min()) <= tol or sigma >= last:
            break
        last = sigma
        try:
            y = np.linalg.solve(sigma * eye - m, v)
        except np.linalg.LinAlgError:
            break
        if not (np.isfinite(y).all() and y.min() > 0.0):
            break
        v = y / y.sum()
        steps += 1
    return v, steps
