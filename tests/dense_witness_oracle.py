"""Dense reference for the witness verifier and the block matrices.

The verifier as it stood before it went sparse: dense w x w int64 witness
blocks, the block embedding multiplied out in every one of its w^2 cells,
``alg.equal`` on every cell, and the partial-isometry check as the matrix
identity B B^T B = B.  Block matrices here are dense grids (a tuple of row
tuples of elements), multiplied by the loop over all w^3 index triples that
``BlockMatrix`` used before it stored only its nonzero cells.  None of this
shares code with the sparse paths in ``ck.py`` (witness units, the pruned
block embedding, the prefix table of word positions, stored cells, term
maps compared before ``equal``), so agreement of the two is an independent
check of them.  Admissibility of a concatenation
is decided here by checking each junction, and the shift by multiplying out
S_eta x S_eta*, where ``ck.py`` looks words up and concatenates.  Elements
are multiplied here by ``product``, which walks every word of every result,
where ``ck.py`` checks only the new junction and the termini and builds the
embedding's cells from bare monomials.
"""

import numpy as np

from ckshift.ck import CKElement, Monomial, VerificationReport


def _checked(alg, left, right):
    """S_left S_right*, or None when it vanishes: a word is inadmissible or
    the two termini have no common successor."""
    entry = alg.matrix.entry
    for word in (left, right):
        if any(not entry(a, b) for a, b in zip(word, word[1:])):
            return None
    if left and right and not any(
        entry(left[-1], j) and entry(right[-1], j) for j in range(1, alg.n + 1)
    ):
        return None
    return Monomial(left, right)


def _pair(alg, m1, m2):
    """The monomials of (S_mu S_nu*)(S_al S_be*)."""
    mu, nu = m1
    al, be = m2
    if nu == al:
        if not nu or (mu and mu[-1] == nu[-1]) or (be and be[-1] == nu[-1]):
            return [_checked(alg, mu, be)]
        return [
            _checked(alg, mu + (j,), be + (j,))
            for j in range(1, alg.n + 1)
            if alg.matrix.entry(nu[-1], j)
        ]
    if al[: len(nu)] == nu:
        return [_checked(alg, mu + al[len(nu) :], be)]
    if nu[: len(al)] == al:
        return [_checked(alg, mu, be + nu[len(al) :])]
    return []


def product(alg, x, y):
    """x y, summed over every pair of terms."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            for mono in _pair(alg, m1, m2):
                if mono is not None:
                    acc[mono] = acc.get(mono, 0) + c1 * c2
    return CKElement(alg, acc)


def cat_admissible(alg, *parts):
    """Whether the concatenation of admissible words is admissible: every
    junction between consecutive nonempty parts is an edge."""
    prev = ()
    for part in parts:
        if not part:
            continue
        if prev and not alg.matrix.entry(prev[-1], part[0]):
            return False
        prev = part
    return True


def product_shift(alg, x, power):
    """The canonical shift as the sum of products S_eta x S_eta* over the
    words eta of length ``power``."""
    if power == 0:
        return x
    acc = {}
    for eta in alg.words(power):
        left = alg.s(eta)
        for mono, c in product(alg, product(alg, left, x), left.adjoint()).terms.items():
            acc[mono] = acc.get(mono, 0) + c
    return CKElement(alg, acc)


def dense_block_embedding(alg, m, x):
    """The grid with entry (mu, nu) = S_mu* x S_nu, multiplied out for every
    cell."""
    index = alg.words(m)
    rights = [alg.s(wd) for wd in index]
    zero_row = (alg.zero,) * len(index)
    entries = []
    for wd in index:
        left = product(alg, alg.s_star(wd), x)
        if left.is_zero:
            entries.append(zero_row)
        else:
            entries.append(tuple(product(alg, left, r) for r in rights))
    return tuple(entries)


def dense_product(alg, left, right):
    """Product of two w x w grids, summing over every index triple."""
    w = len(left)
    out = []
    for i in range(w):
        acc_row = [dict() for _ in range(w)]
        for k in range(w):
            a = left[i][k]
            if not a.terms:
                continue
            for j in range(w):
                b = right[k][j]
                if not b.terms:
                    continue
                prod = product(alg, a, b)
                acc = acc_row[j]
                for mono, c in prod.terms.items():
                    acc[mono] = acc.get(mono, 0) + c
        out.append(tuple(CKElement(alg, acc) for acc in acc_row))
    return tuple(out)


def dense_adjoint(grid):
    w = len(grid)
    return tuple(tuple(grid[c][r].adjoint() for c in range(w)) for r in range(w))


def dense_equals(alg, left, right):
    """Entrywise equality in the algebra, ``alg.equal`` on every cell."""
    return all(
        alg.equal(a, b)
        for row_a, row_b in zip(left, right)
        for a, b in zip(row_a, row_b)
    )


def dense_witness_blocks(alg, alpha, beta, i, l, m):
    """The witness blocks as dense arrays, by the same loops as
    ``witness_blocks``; preconditions are the caller's business."""
    a, b = tuple(alpha), tuple(beta)
    index = alg.words(m)
    pos = {wd: r for r, wd in enumerate(index)}
    w = len(index)
    mids = [wd for wd in alg.words(m - l - len(a)) if wd[0] == i]
    etas = alg.words(l)
    if len(a) > len(b):
        out = {
            mu: np.zeros((w, w), dtype=np.int64)
            for mu in alg.words(len(a) - len(b))
        }
        for eta in etas:
            for mid in mids:
                if not cat_admissible(alg, eta, a, mid):
                    continue
                row = pos[eta + a + mid]
                for mu, block in out.items():
                    if cat_admissible(alg, eta, b, mid, mu):
                        block[row, pos[eta + b + mid + mu]] = 1
        return out
    out = {j: np.zeros((w, w), dtype=np.int64) for j in range(1, alg.n + 1)}
    for eta in etas:
        for mid in mids:
            if not cat_admissible(alg, eta, a, mid):
                continue
            if not cat_admissible(alg, eta, b, mid):
                continue
            out[mid[-1]][pos[eta + a + mid], pos[eta + b + mid]] = 1
    return out


def verify_witness_decomposition_dense(alg, n0, n, inject_fault=False):
    if n0 < 1 or n < 1:
        raise ValueError("n0 and n must be >= 1")
    m = n0 + n
    index = alg.words(m)
    w = len(index)
    failures = []
    cases = 0
    failed_cases = 0
    injected = False

    alphas = [()]
    for k in range(1, n0 + 1):
        alphas.extend(alg.words(k))
    for alpha in alphas:
        betas = [()]
        for k in range(1, len(alpha) + 1):
            betas.extend(alg.words(k))
        for beta in betas:
            for i in range(1, alg.n + 1):
                gen = alg.generator(alpha, i, beta)
                for l in range(n):
                    cases += 1
                    case_failures = len(failures)
                    blocks = dense_witness_blocks(alg, alpha, beta, i, l, m)
                    if inject_fault and not injected:
                        for key in blocks:
                            nz = np.argwhere(blocks[key])
                            if len(nz):
                                blocks[key][nz[0][0], nz[0][1]] = 0
                                injected = True
                                break
                    lhs = dense_block_embedding(alg, m, product_shift(alg, gen, l))
                    rhs_terms = [[None] * w for _ in range(w)]
                    for key, block in blocks.items():
                        piece = (
                            alg.s(key) if isinstance(key, tuple) else alg.q(key)
                        )
                        for r, c in np.argwhere(block):
                            cell = rhs_terms[r][c]
                            if cell is None:
                                cell = rhs_terms[r][c] = {}
                            for mono, coeff in piece.terms.items():
                                cell[mono] = cell.get(mono, 0) + coeff
                    for r in range(w):
                        for c in range(w):
                            rhs = (
                                alg.zero
                                if rhs_terms[r][c] is None
                                else CKElement(alg, rhs_terms[r][c])
                            )
                            if not alg.equal(lhs[r][c], rhs):
                                failures.append(
                                    {
                                        "alpha": list(alpha),
                                        "beta": list(beta),
                                        "i": i,
                                        "l": l,
                                        "kind": "entry_mismatch",
                                        "row": list(index[r]),
                                        "col": list(index[c]),
                                    }
                                )
                    for key, block in blocks.items():
                        if not np.array_equal(block @ block.T @ block, block):
                            failures.append(
                                {
                                    "alpha": list(alpha),
                                    "beta": list(beta),
                                    "i": i,
                                    "l": l,
                                    "kind": "not_partial_isometry",
                                    "block": list(key) if isinstance(key, tuple) else key,
                                }
                            )
                    if len(failures) > case_failures:
                        failed_cases += 1

    return VerificationReport(
        cases=cases,
        passed=cases - failed_cases,
        failures=failures,
        params={"n0": n0, "n": n, "m": m},
    )
