"""Reference power iteration: the loop ``matrix._power_loop`` ran, from the
uniform start vector, before it carried the product m @ v from one step to
the next.

Each step here multiplies by the matrix twice (once for the step, once for
the residual) and computes the residual at every step.  The two loops
follow the same trajectory, so their results must agree bit for bit.
"""

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
