"""Dense reference for the Parry measure.

The body ``sft.parry_measure`` had before it went over the successor and
predecessor lists: each row of P is computed from all n cells of its grid
row, zeros included, and stationarity is checked over all n^2 cells.  It
shares the Perron search (``spectral_radius``) but no row or sum with
``parry_measure``, so equal floats from the two show that the sparse rows
and the sparse check are the dense ones, bit for bit.
"""

from ckshift import spectral_radius
from ckshift.matrix import MatrixError
from ckshift.sft import ParryData


def dense_parry_measure(mat, tol: float = 1e-12) -> ParryData:
    perron = spectral_radius(mat, tol)
    n = mat.n
    lam = perron.radius
    u = perron.right
    v = perron.left
    rows = []
    for i in range(n):
        raw = [mat.entries[i][j] * u[j] / (lam * u[i]) for j in range(n)]
        total = sum(raw)
        rows.append(tuple(x / total for x in raw))
    weights = [u[i] * v[i] for i in range(n)]
    z = sum(weights)
    stationary = tuple(w / z for w in weights)
    err = max(
        abs(sum(stationary[i] * rows[i][j] for i in range(n)) - stationary[j])
        for j in range(n)
    )
    if err > 100 * tol:
        raise MatrixError(f"stationary vector check failed (error {err:.3e})")
    return ParryData(radius=lam, stochastic=tuple(rows), stationary=stationary)
