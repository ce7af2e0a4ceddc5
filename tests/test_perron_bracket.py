"""The certified Perron bracket, the exact sandwich that ties the Perron
route to the word-growth route, and the Parry entropy inside the bracket.

For a positive vector u whose Collatz-Wielandt ratios (A u)_i / u_i lie in
[lo, hi], lo^(k-1) u <= A^(k-1) u <= hi^(k-1) u holds componentwise, and
1 lies between u / max(u) and u / min(u), so for every k

    lo^(k-1) sum(u) / max(u)  <=  w(k)  <=  hi^(k-1) sum(u) / min(u).

Every comparison here is in exact rational arithmetic; the floats returned
by ``spectral_radius`` are read as the rationals they are.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ckshift import (
    NoConvergenceError,
    markov_entropy,
    parry_measure,
    spectral_radius,
    validate,
    word_count,
)
from ckshift import _perron, matrix

from conftest import (
    GOLDEN_ROWS,
    RANDOM3_ROWS,
    chord_cycle,
    cycle_with_loop,
    cyclic_permutation,
    periodic_irreducible,
    random_irreducible,
    seeded,
    sparse_irreducible,
)
from perron_oracle import noda_reference, perron_iterate


def _collatz_wielandt(adjacency, vec):
    """Exact (min, max) of (A u)_i / u_i, with (A u)_i the sum of u over
    adjacency[i]."""
    u = [Fraction(x) for x in vec]
    ratios = [sum(u[j - 1] for j in row) / u[i] for i, row in enumerate(adjacency)]
    return min(ratios), max(ratios)


def _matrices():
    """Seeded irreducible matrices: primitive, periodic, permutations and
    sparse near-cycles."""
    rng = seeded(601)
    mats = [validate(GOLDEN_ROWS), validate(RANDOM3_ROWS)]
    mats += [validate([[1] * n for _ in range(n)]) for n in (1, 2, 5)]
    mats += [random_irreducible(rng, rng.randrange(2, 9)) for _ in range(6)]
    mats += [periodic_irreducible(rng, rng.randrange(4, 10), p) for p in (2, 3, 4)]
    mats += [cyclic_permutation(rng, n) for n in (1, 2, 5, 8)]
    mats += [sparse_irreducible(rng, 15) for _ in range(2)]
    mats.append(validate(cycle_with_loop(30)))
    return mats


def _check_bracket(mat, pd, tol):
    """pd.lower and pd.upper are the intersected exact bounds of both Perron
    vectors, rounded outward by at most one float; radius lies between."""
    lo_right, hi_right = _collatz_wielandt(mat.successors, pd.right)
    lo_left, hi_left = _collatz_wielandt(mat.predecessors, pd.left)
    lo, hi = max(lo_right, lo_left), min(hi_right, hi_left)
    assert Fraction(pd.lower) <= lo < Fraction(math.nextafter(pd.lower, math.inf))
    assert Fraction(math.nextafter(pd.upper, -math.inf)) < hi <= Fraction(pd.upper)
    assert pd.lower <= pd.radius <= pd.upper
    assert pd.upper - pd.lower <= tol


def _cycle_root_sign(n, x):
    """Sign of x^n - x^(n-1) - 1: negative below the Perron root of
    ``cycle_with_loop(n)``, positive above it (for x >= 1)."""
    value = x**n - x ** (n - 1) - 1
    return (value > 0) - (value < 0)


class TestCertifiedBracket:
    @pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
    def test_exact_collatz_wielandt_bound_rounded_outward(self, tol):
        for mat in _matrices():
            _check_bracket(mat, spectral_radius(mat, tol), tol)

    def test_contains_known_roots(self):
        for n in (1, 2, 3, 7):
            pd = spectral_radius(validate([[1] * n for _ in range(n)]))
            assert Fraction(pd.lower) <= n <= Fraction(pd.upper)
        rng = seeded(602)
        for n in (1, 2, 3, 6, 9):
            pd = spectral_radius(cyclic_permutation(rng, n))
            assert Fraction(pd.lower) <= 1 <= Fraction(pd.upper)
        # n = 2 is the golden mean, root phi
        for n in (2, 3, 50):
            mat = validate(cycle_with_loop(n))
            pd = spectral_radius(mat)
            _check_bracket(mat, pd, 1e-12)
            assert _cycle_root_sign(n, Fraction(pd.lower)) <= 0
            assert _cycle_root_sign(n, Fraction(pd.upper)) >= 0

    def test_long_cycle_with_loop(self):
        # plain power iteration needed 95,878 steps here; now 134 power
        # steps per vector find the gap small, and Noda steps do the rest
        mat = validate(cycle_with_loop(400))
        pd = spectral_radius(mat)
        _check_bracket(mat, pd, 1e-12)
        assert _cycle_root_sign(400, Fraction(pd.lower)) <= 0
        assert _cycle_root_sign(400, Fraction(pd.upper)) >= 0
        assert pd.iterations <= 300

    def test_budget_counts_noda_and_power_steps(self, golden_mean):
        # golden is symmetric, so both vectors take the same steps: one
        # power step, four Noda steps, then one power step
        pd = spectral_radius(golden_mean)
        assert pd.iterations == 12
        assert spectral_radius(golden_mean, max_iterations=6) == pd
        with pytest.raises(NoConvergenceError, match="within 5 iterations"):
            spectral_radius(golden_mean, max_iterations=5)

    def test_tolerance_at_machine_precision(self, golden_mean):
        # the float bracket never reaches tol / 4 here; the iteration stops
        # once rounding stalls it, and the exact bracket decides
        pd = spectral_radius(golden_mean, tol=1e-15)
        _check_bracket(golden_mean, pd, 1e-15)
        assert _cycle_root_sign(2, Fraction(pd.lower)) <= 0
        assert _cycle_root_sign(2, Fraction(pd.upper)) >= 0
        assert pd.iterations <= 40

    def test_bracket_wider_than_tol_fails_fast(self, golden_mean):
        # no float vector brackets phi within 1e-16 (4 ulp wide at best)
        with pytest.raises(NoConvergenceError, match="certified bracket") as err:
            spectral_radius(golden_mean, tol=1e-16)
        assert err.value.iterations <= 40

    def test_quick_mixing_matrix_never_solves(self, monkeypatch):
        # a dense matrix has a large spectral gap: power iteration converges
        # within its first n // 3 + 1 steps, as it did without Noda
        def no_solve(a, b):
            raise AssertionError("Noda step on a quickly mixing matrix")

        rng = seeded(604)
        rows = [[int(rng.random() < 0.5) for _ in range(60)] for _ in range(60)]
        for i in range(60):
            rows[i][(i + 1) % 60] = 1
        mat = validate(rows)
        m = np.array(rows, dtype=float) + np.eye(60)
        plain = perron_iterate(m, 1e-12 / 4, 21)[3] + perron_iterate(m.T, 1e-12 / 4, 21)[3]
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        pd = spectral_radius(mat)
        assert pd.iterations == plain
        _check_bracket(mat, pd, 1e-12)

    @pytest.mark.parametrize("outcome", ["raises", "negative", "nan"])
    def test_failed_noda_step_is_plain_power_iteration(self, monkeypatch, outcome):
        def bad_solve(a, b):
            if outcome == "raises":
                raise np.linalg.LinAlgError("singular matrix")
            return -b if outcome == "negative" else b * math.nan

        rng = seeded(603)
        for mat in [validate(GOLDEN_ROWS), random_irreducible(rng, 6)]:
            tol = 1e-12
            m = np.array(mat.entries, dtype=float) + np.eye(mat.n)
            plain = perron_iterate(m, tol / 4, 1_000_000)[3] + perron_iterate(
                m.T, tol / 4, 1_000_000
            )[3]
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", bad_solve)
                pd = spectral_radius(mat, tol)
            assert pd.iterations == plain
            _check_bracket(mat, pd, tol)


def _noda_matrices():
    """m = A + I, as ``perron_vectors`` builds it, for golden, cycle12, the
    200-cycle with a loop, chord cycles of 120 and 250 states and a random
    primitive 30-state matrix."""
    rows = [GOLDEN_ROWS, cycle_with_loop(12), cycle_with_loop(200)]
    rows += [chord_cycle(120, 3, seeded(1)), chord_cycle(250, 3, seeded(2))]
    rows.append(random_irreducible(seeded(631), 30, force_loop=True).entries)
    return [np.array(r, dtype=float) + np.eye(len(r)) for r in rows]


def _noda_starts(m, tol):
    """The uniform vector, and the power loop's vector that ``_perron_vector``
    hands to ``_noda``."""
    n = m.shape[0]
    uniform = np.full(n, 1.0 / n)
    return [uniform, _perron._power_loop(m, tol, n // 3 + 1, uniform)[1]]


class TestNodaShiftedMatrix:
    """``_noda`` keeps one shifted matrix per call and rewrites its diagonal
    at each step.  Its floats are those of sigma I - m built afresh, so the
    steps are the reference loop's, bit for bit."""

    @pytest.mark.parametrize("budget", [1, 2, 1_000_000])
    def test_same_vector_bytes_and_steps_as_fresh_matrices(self, budget):
        tol = 1e-12 / 4
        for a_plus_i in _noda_matrices():
            # the right vector's matrix, and the F-ordered view of the left
            for m in (a_plus_i, a_plus_i.T):
                for v in _noda_starts(m, tol):
                    y, steps = _perron._noda(m, tol, budget, v)
                    want, want_steps = noda_reference(m, tol, budget, v)
                    assert steps == want_steps
                    assert y.tobytes() == want.tobytes()

    def test_every_solve_gets_the_one_shifted_matrix(self, monkeypatch):
        # off the diagonal its cells stay 0.0 - m; on it, each step has
        # written sigma - m_ii for that step's sigma
        tol = 1e-12 / 4
        solve = np.linalg.solve
        for a_plus_i in _noda_matrices():
            for m in (a_plus_i, a_plus_i.T):
                n = m.shape[0]
                off = ~np.eye(n, dtype=bool)
                seen = []

                def recording_solve(a, b):
                    sigma = float(((m @ b) / b).max())
                    assert a[off].tobytes() == (0.0 - m)[off].tobytes()
                    assert a.diagonal().tobytes() == (sigma - m.diagonal()).tobytes()
                    seen.append(a)
                    return solve(a, b)

                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "solve", recording_solve)
                    _, steps = _perron._noda(m, tol, 1_000_000, np.full(n, 1.0 / n))
                assert steps >= 2 and len(seen) >= steps
                assert all(a is seen[0] for a in seen)


class TestCertificateOnArbitraryVectors:
    """The exact bracket of any positive float vector, not only of a Perron
    vector, is rounded outward by at most one float.  Entries 2^2000 apart
    put some ratios past the largest float, and others below the least."""

    def test_bounds_are_the_nearest_floats_outside(self):
        rng = seeded(605)
        largest = Fraction(math.nextafter(math.inf, 0.0))
        for mat in _matrices():
            for adjacency in (mat.successors, mat.predecessors):
                for _ in range(5):
                    vec = [
                        math.ldexp(rng.uniform(0.5, 1.0), rng.randint(-1000, 1000))
                        for _ in range(mat.n)
                    ]
                    lo, hi = matrix._collatz_wielandt(adjacency, vec)
                    low, high = _collatz_wielandt(adjacency, vec)
                    # lo is the largest float <= low, which is at most r(A)
                    assert Fraction(lo) <= low < Fraction(math.nextafter(lo, math.inf))
                    # hi is the smallest float >= high, inf when there is none
                    if hi == math.inf:
                        assert high > largest
                    else:
                        assert Fraction(math.nextafter(hi, -math.inf)) < high <= Fraction(hi)


class TestPerronSeam:
    """``_perron.perron_vectors`` is the one call into the float search: the
    matrix in, two lists of Python floats and a step count out.  Everything
    after it (the certificate, the residual) is computed outside numpy, so
    any search that returns that shape can stand in for it."""

    def test_returns_float_lists_and_a_step_count(self):
        mats = [validate(GOLDEN_ROWS), validate(cycle_with_loop(12))]
        for mat in mats + [random_irreducible(seeded(621), 60)]:
            right, left, iterations = _perron.perron_vectors(mat, 1e-12 / 4, 1_000_000)
            for vec in (right, left):
                assert type(vec) is list and len(vec) == mat.n
                assert all(type(x) is float for x in vec)
            assert type(iterations) is int

    def test_spectral_radius_takes_any_search_behind_the_seam(self, monkeypatch):
        # the reference power iteration on A + I and its transpose stands in
        # for the power and Noda search
        rng = seeded(622)
        mats = [validate(GOLDEN_ROWS), validate(RANDOM3_ROWS), validate([[1] * 3] * 3)]
        mats.append(random_irreducible(rng, 8, force_loop=True))
        for mat in mats:
            m = np.array(mat.entries, dtype=float) + np.eye(mat.n)
            _, right, _, it_right = perron_iterate(m, 1e-12 / 4, 1_000_000)
            _, left, _, it_left = perron_iterate(m.T, 1e-12 / 4, 1_000_000)
            stub = (right.tolist(), left.tolist(), it_right + it_left)
            calls = []

            def search(arg, tol, max_iterations):
                calls.append(arg)
                return stub

            with monkeypatch.context() as patch:
                patch.setattr(_perron, "perron_vectors", search)
                pd = spectral_radius(mat)
            assert calls == [mat]
            assert (list(pd.right), list(pd.left), pd.iterations) == stub
            _check_bracket(mat, pd, 1e-12)

    def test_left_residual_alone_is_refused(self, monkeypatch):
        # the true right vector and a left vector off by 1e-9 in one
        # component: the certified bracket is the right vector's, so only
        # the left residual can refuse the pair
        mats = [validate(GOLDEN_ROWS), validate(RANDOM3_ROWS), validate(cycle_with_loop(12))]
        for mat in mats:
            pd = spectral_radius(mat)
            left = list(pd.left)
            left[0] += 1e-9
            stub = (list(pd.right), left, pd.iterations)
            with monkeypatch.context() as patch:
                patch.setattr(_perron, "perron_vectors", lambda *args: stub)
                with pytest.raises(NoConvergenceError, match=r"^Perron vector residual \d\.\d+e-09 "):
                    spectral_radius(mat)

    def test_residual_over_the_adjacency_lists(self):
        # the seeded set of test_matrix's residual test: the float sums over
        # the successor and predecessor lists agree with a dense product
        eps = 2.0**-53
        rng = seeded(104)
        for _ in range(15):
            mat = random_irreducible(rng, rng.randrange(2, 8))
            pd = spectral_radius(mat)
            a = np.array(mat.entries, dtype=float)
            u, v = np.array(pd.right), np.array(pd.left)
            dense = max(
                float(np.abs(a @ u - pd.radius * u).max()),
                float(np.abs(a.T @ v - pd.radius * v).max()),
            )
            assert abs(pd.residual - dense) <= 8 * mat.n * eps * max(1.0, pd.radius)


class TestRouteSandwich:
    """Route 1 (the Perron vector) bounds route 2 (the exact word counts)."""

    def test_word_counts_between_perron_bounds(self):
        for mat in _matrices():
            pd = spectral_radius(mat)
            _check_bracket(mat, pd, 1e-12)
            u = [Fraction(x) for x in pd.right]
            lo, hi = _collatz_wielandt(mat.successors, pd.right)
            below = sum(u) / max(u)
            above = sum(u) / min(u)
            for k in range(1, 201):
                assert below <= word_count(mat, k) <= above, (mat, k)
                below *= lo
                above *= hi


class TestParryEntropyInBracket:
    """Route 3 (the Parry measure's entropy rate) lies in the certified
    bracket of route 1, [log lower, log upper], up to a stated float error.

    parry_measure builds P(i,j) = A(i,j) u_j / (A u)_i from the right Perron
    vector u, so -log P(i,j) = log rho_i + log u_i - log u_j with
    rho_i = (A u)_i / u_i, and for any weights pi, with s_i = sum_j P(i,j),

        h = sum_i pi_i s_i log rho_i + sum_j (pi_j s_j - (pi P)_j) log u_j.

    The second sum has total weight 0, so it is at most half the
    stationarity defect |pi o s - pi P|_1 times max log u - min log u.  For
    pi = u o v / z with v the left Perron vector, sum_i pi_i rho_i =
    v^T A u / z is both a pi-mean of the rho_i and of the left ratios
    (A^T v)_j / v_j, so it lies in [lower, upper]; by Jensen the pi-mean of
    log rho_i is at most its log and at least its log minus
    (max rho - min rho)^2 / (8 min rho^2) (Popoviciu's variance bound).
    Floats add the rest: markov_entropy sums N = nnz(A) nonnegative terms,
    at most (N - 1) eps h off (Higham, Accuracy and Stability of Numerical
    Algorithms, (4.4)); the renormalized rows and pi carry at most (n + 4)
    eps relative error each, which moves h, log rho and log u by
    (n + 4) eps (1 + h + span log u); logs and products add a few eps.  The
    bound below is twice the sum, the factor covering second-order terms
    and the float evaluation of the bound itself.
    """

    @staticmethod
    def _error_bound(mat, perron, pd, h):
        eps = 2.0**-53
        n = mat.n
        adjacency = np.array(mat.entries, dtype=float)
        u = np.array(perron.right)
        rho = adjacency @ u / u
        stochastic = np.array(pd.stochastic)
        pi = np.array(pd.stationary)
        defect = float(np.abs(pi * stochastic.sum(axis=1) - pi @ stochastic).sum())
        span = float(np.log(u).max() - np.log(u).min())
        jensen = float((rho.max() - rho.min()) ** 2 / (8 * rho.min() ** 2))
        rounding = (int(adjacency.sum()) + 3 * n + 8) * eps * (1 + h + span)
        return 2 * (rounding + defect * span / 2 + jensen)

    def test_markov_entropy_between_log_bounds(self):
        rng = seeded(611)
        mats = _matrices()
        mats += [random_irreducible(rng, n, density=d)
                 for n, d in ((40, 0.3), (120, 0.1), (200, 0.05))]
        mats += [periodic_irreducible(rng, n, p) for n, p in ((30, 2), (60, 5), (200, 4))]
        mats += [cyclic_permutation(rng, n) for n in (50, 200)]
        mats += [sparse_irreducible(rng, n) for n in (60, 200)]
        mats += [validate(cycle_with_loop(n)) for n in (100, 200)]
        for mat in mats:
            perron = spectral_radius(mat)
            pd = parry_measure(mat)
            h = markov_entropy(pd)
            slack = self._error_bound(mat, perron, pd, h)
            assert slack < 1e-11
            assert math.log(perron.lower) - slack <= h <= math.log(perron.upper) + slack, mat

    def test_markov_entropy_sums_its_terms_exactly(self):
        # the 200-state period-4 matrix of the test above, whose 4,977 terms
        # summed one by one in floats land 14 ulp below log(lower); summed
        # exactly, the rest of the error (from the Parry vectors) is 2 ulp
        rng = seeded(611)
        for n, d in ((40, 0.3), (120, 0.1), (200, 0.05)):
            random_irreducible(rng, n, density=d)
        for n, p in ((30, 2), (60, 5)):
            periodic_irreducible(rng, n, p)
        mat = periodic_irreducible(rng, 200, 4)
        perron = spectral_radius(mat)
        h = markov_entropy(parry_measure(mat))
        ulp = math.ulp(h)
        assert math.log(perron.lower) - 4 * ulp <= h <= math.log(perron.upper) + 4 * ulp
