import dataclasses
import decimal
import math
import sys

import pytest

from ckshift import (
    MatrixError,
    NotIrreducibleError,
    ParryData,
    SymbolOutOfRangeError,
    TooManyWordsError,
    cylinder_probability,
    entropy_estimates,
    enumerate_words,
    is_admissible,
    markov_entropy,
    parry_measure,
    partition_entropy,
    sft,
    spectral_radius,
    validate,
    word_count,
)

from conftest import (
    chord_cycle,
    enum_partition_entropy,
    product_count,
    random_irreducible,
    seeded,
)

PHI = (1 + math.sqrt(5)) / 2
LOG_PHI = math.log(PHI)


class TestAdmissibility:
    def test_examples(self, golden_mean):
        assert is_admissible(golden_mean, (1, 1, 2))
        assert not is_admissible(golden_mean, (2, 2))
        assert is_admissible(golden_mean, ())
        assert is_admissible(golden_mean, (2,))

    def test_symbol_out_of_range(self, golden_mean):
        with pytest.raises(SymbolOutOfRangeError):
            is_admissible(golden_mean, (1, 3))
        with pytest.raises(SymbolOutOfRangeError):
            is_admissible(golden_mean, (0,))


class TestEnumerateWords:
    def test_golden_pairs(self, golden_mean):
        assert enumerate_words(golden_mean, 2) == [(1, 1), (1, 2), (2, 1)]

    def test_single_letters(self, full3):
        assert enumerate_words(full3, 1) == [(1,), (2,), (3,)]

    def test_full2_pairs(self, full2):
        assert enumerate_words(full2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_sorted_and_counted(self, golden_mean):
        for k in range(1, 13):
            words = enumerate_words(golden_mean, k)
            assert words == sorted(words)
            assert len(words) == word_count(golden_mean, k)
            assert len(words) == product_count(golden_mean, k) if k <= 8 else True

    def test_cap(self, full2):
        with pytest.raises(TooManyWordsError):
            enumerate_words(full2, 10, cap=100)

    def test_length_validation(self, full2):
        with pytest.raises(ValueError):
            enumerate_words(full2, 0)

    def test_deep_cycle_without_recursion(self, perm2):
        # far past the interpreter's default recursion limit of 1000
        words = enumerate_words(perm2, 2000)
        assert words == [(1, 2) * 1000, (2, 1) * 1000]


def _shallow_counts(monkeypatch):
    """Spy on ``word_count`` as ``sft`` binds it: the lengths it counts, in
    order; counting any length above 2^20 fails at once."""
    real, lengths = sft.word_count, []

    def spy(mat, k):
        lengths.append(k)
        assert k <= 2**20, f"counted w({k})"
        return real(mat, k)

    monkeypatch.setattr(sft, "word_count", spy)
    return lengths


def _deep_message(k, cap=10_000_000):
    return f"the words of length {k} exceed the enumeration cap of {cap}"


class TestDeepCap:
    @pytest.mark.parametrize("k", [10**6, 10**7, 99999999999999999999])
    def test_words_refused_without_the_count(self, golden_mean, monkeypatch, k):
        lengths = _shallow_counts(monkeypatch)
        with pytest.raises(TooManyWordsError) as exc:
            enumerate_words(golden_mean, k)
        assert (exc.value.count, exc.value.cap, str(exc.value)) == (None, 10**7, _deep_message(k))
        # lengths doubling from 1 up to the first count over the cap
        assert lengths == [2**e for e in range(len(lengths))]
        assert word_count(golden_mean, lengths[-1]) > 10**7 >= word_count(golden_mean, lengths[-2])

    def test_partition_refused_without_the_count(self, golden_mean, monkeypatch):
        pd = parry_measure(golden_mean)
        _shallow_counts(monkeypatch)
        with pytest.raises(TooManyWordsError, match=f"^{_deep_message(10**7)}$") as exc:
            partition_entropy(pd, 10**7)
        assert exc.value.count is None

    def test_exact_count_up_to_the_bound(self, full2, monkeypatch):
        # full2 has w(k) = 2^k: the bound log2 2 + (k - 1) log2 2 = k bits
        # stays exact up to k = 2^18 and refuses by doubling past it
        lengths = _shallow_counts(monkeypatch)
        with pytest.raises(TooManyWordsError) as exc:
            enumerate_words(full2, 2**18)
        assert exc.value.count == 2 ** (2**18)
        assert lengths == [2**18]
        with pytest.raises(TooManyWordsError, match=f"^{_deep_message(2**18 + 1)}$") as exc:
            enumerate_words(full2, 2**18 + 1)
        assert exc.value.count is None

    def test_slow_growth_is_counted_to_the_end(self, monkeypatch):
        # 1^a 2^(k - a): k + 1 words, under a cap that a deep k passes
        upper = validate([[1, 1], [0, 1]])
        lengths = _shallow_counts(monkeypatch)
        sft._check_cap(upper, 300_000, 10**6)
        assert lengths == [2**e for e in range(19)] + [300_000]
        with pytest.raises(TooManyWordsError, match=f"^{_deep_message(300_000, 1000)}$"):
            enumerate_words(upper, 300_000, cap=1000)

    def test_one_successor_per_row_counts_exactly(self, monkeypatch):
        # w(k) = n for every k: the bound is log2 n, however deep k is
        cycle = validate([[0, 1], [1, 0]])
        lengths = _shallow_counts(monkeypatch)
        with pytest.raises(TooManyWordsError, match="^2 words exceed the enumeration cap of 1$"):
            enumerate_words(cycle, 2**20, cap=1)
        assert lengths == [2**20]


class TestParryMeasure:
    def test_golden_mean_values(self, golden_mean):
        pd = parry_measure(golden_mean)
        assert abs(pd.radius - PHI) <= 1e-12
        expected_p = [[1 / PHI, 1 / PHI**2], [1.0, 0.0]]
        for i in range(2):
            for j in range(2):
                assert abs(pd.stochastic[i][j] - expected_p[i][j]) <= 1e-9
        pi1 = PHI**2 / (PHI**2 + 1)
        assert abs(pd.stationary[0] - pi1) <= 1e-9
        assert abs(pd.stationary[1] - (1 - pi1)) <= 1e-9

    def test_full2_uniform(self, full2):
        pd = parry_measure(full2)
        assert all(abs(p - 0.5) <= 1e-12 for row in pd.stochastic for p in row)
        assert all(abs(p - 0.5) <= 1e-12 for p in pd.stationary)

    def test_permutation(self, perm2):
        pd = parry_measure(perm2)
        assert abs(pd.radius - 1.0) <= 1e-12
        assert pd.stochastic[0][1] == pytest.approx(1.0)
        assert pd.stochastic[0][0] == 0.0
        assert all(abs(p - 0.5) <= 1e-12 for p in pd.stationary)

    def test_invariants_on_random(self):
        rng = seeded(201)
        for _ in range(10):
            mat = random_irreducible(rng, rng.randrange(2, 8))
            pd = parry_measure(mat)
            n = mat.n
            for i in range(n):
                assert abs(sum(pd.stochastic[i]) - 1.0) <= 1e-12
                for j in range(n):
                    assert (pd.stochastic[i][j] > 0) == (mat.entries[i][j] == 1)
            assert abs(sum(pd.stationary) - 1.0) <= 1e-12
            for j in range(1, n + 1):
                flow = sum(pd.stationary[i - 1] * pd.transition(i, j) for i in range(1, n + 1))
                assert abs(flow - pd.stationary[j - 1]) <= 1e-10

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError):
            parry_measure(validate([[1, 0], [0, 1]]))

    def test_stationarity_check_scales_with_tol(self, golden_mean, monkeypatch):
        # a left vector off by 1e-8 misses stationarity by about 2.8e-9
        pd = spectral_radius(golden_mean)
        off = dataclasses.replace(pd, left=(pd.left[0] * (1 + 1e-8), pd.left[1]))
        monkeypatch.setattr(sft, "spectral_radius", lambda mat, tol: off)
        for tol in (1e-12, 1e-11):
            with pytest.raises(MatrixError, match="stationary vector check failed"):
                parry_measure(golden_mean, tol)
        for tol in (1e-10, 1e-6):
            assert parry_measure(golden_mean, tol).radius == pd.radius


class TestCylinderProbability:
    def test_examples(self, golden_mean):
        pd = parry_measure(golden_mean)
        assert abs(cylinder_probability(pd, (1, 1)) - 1 / math.sqrt(5)) <= 1e-9
        assert cylinder_probability(pd, (2, 2)) == 0.0
        assert cylinder_probability(pd, ()) == 1.0

    def test_symbol_range(self, golden_mean):
        pd = parry_measure(golden_mean)
        with pytest.raises(SymbolOutOfRangeError):
            cylinder_probability(pd, (3,))

    def test_normalization(self, golden_mean, random3):
        for mat in (golden_mean, random3):
            pd = parry_measure(mat)
            for k in range(1, 11):
                total = sum(cylinder_probability(pd, w) for w in enumerate_words(mat, k))
                assert abs(total - 1.0) <= 1e-10

    def test_shift_invariance(self, golden_mean, random3):
        # summing over one extra leading symbol reproduces the cylinder mass
        for mat in (golden_mean, random3):
            pd = parry_measure(mat)
            for k in range(1, 9):
                for nu in enumerate_words(mat, k):
                    total = sum(
                        cylinder_probability(pd, (i,) + nu)
                        for i in range(1, mat.n + 1)
                        if mat.entry(i, nu[0])
                    )
                    assert abs(total - cylinder_probability(pd, nu)) <= 1e-10


class TestMarkovEntropy:
    def test_golden(self, golden_mean):
        assert abs(markov_entropy(parry_measure(golden_mean)) - LOG_PHI) <= 1e-9

    def test_full(self):
        for n in (2, 3, 5):
            mat = validate([[1] * n for _ in range(n)])
            assert abs(markov_entropy(parry_measure(mat)) - math.log(n)) <= 1e-12

    def test_permutation_zero(self, perm2):
        assert markov_entropy(parry_measure(perm2)) == 0.0


class TestPartitionEntropy:
    def test_full2_exact(self, full2):
        pd = parry_measure(full2)
        for n in range(1, 8):
            assert abs(partition_entropy(pd, n) - n * math.log(2)) <= 1e-10

    def test_golden_increments(self, golden_mean):
        pd = parry_measure(golden_mean)
        h = markov_entropy(pd)
        values = [partition_entropy(pd, n) for n in range(1, 12)]
        for n in range(1, 11):
            assert abs((values[n] - values[n - 1]) - h) <= 1e-9

    def test_depth_one_is_stationary_entropy(self, random3):
        pd = parry_measure(random3)
        expected = -sum(p * math.log(p) for p in pd.stationary if p > 0)
        assert abs(partition_entropy(pd, 1) - expected) <= 1e-12

    def test_chain_rule(self, golden_mean, full2, random3):
        for mat in (golden_mean, full2, random3):
            pd = parry_measure(mat)
            h = markov_entropy(pd)
            h1 = partition_entropy(pd, 1)
            for n in range(1, 9):
                assert abs(partition_entropy(pd, n) - (h1 + (n - 1) * h)) <= 1e-8

    def test_cap(self, full2):
        pd = parry_measure(full2)
        with pytest.raises(TooManyWordsError):
            partition_entropy(pd, 12, cap=100)

    def test_against_enumeration(self, golden_mean, full3, random3):
        rng = seeded(203)
        mats = [golden_mean, full3, random3]
        mats += [random_irreducible(rng, rng.randrange(3, 6)) for _ in range(3)]
        for mat in mats:
            pd = parry_measure(mat)
            for n in range(1, 13):
                want = enum_partition_entropy(pd, n)
                assert partition_entropy(pd, n) == pytest.approx(want, rel=1e-9)

    def test_deep_cycle_without_recursion(self, perm2):
        # far past the interpreter's default recursion limit of 1000
        pd = parry_measure(perm2)
        assert abs(partition_entropy(pd, 2000) - math.log(2)) <= 1e-12

    @staticmethod
    def dense_support(pd):
        return validate([[int(p > 0.0) for p in row] for row in pd.stochastic])

    def test_support_is_the_positive_cells(self, golden_mean, full3, random3):
        rng = seeded(2501)
        mats = [golden_mean, full3, random3, validate(chord_cycle(120, 3, seeded(1)))]
        pds = [parry_measure(m) for m in mats + [random_irreducible(rng, 9)]]
        # by hand: -0.0, a negative cell and a nan are not positive
        stochastic = ((0.5, -0.0, 0.5), (-1.0, 2.0, 0.0), (1.0, math.nan, 1e-300))
        pds.append(ParryData(1.0, stochastic, (1 / 3,) * 3))
        for pd in pds:
            support = sft._support(pd)
            assert support == self.dense_support(pd)
            assert support.successors == self.dense_support(pd).successors
        assert sft._support(pds[-1]).successors == ((1, 3), (2,), (1, 3))

    @pytest.mark.parametrize(
        "stochastic",
        [
            ((0.5, 0.5), (0.0, 0.0)),  # zero row
            ((1.0, 0.0), (1.0, -0.0)),  # zero column
            ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),  # both: the row is named
            ((0.0, 1.0), (1.0, math.nan)),  # no fault: the nan is not a cell
            ((1.0,), (1.0, 0.0)),  # ragged
            (),
        ],
    )
    def test_hand_built_support_raises_as_validate(self, stochastic):
        pd = ParryData(1.0, stochastic, (1.0,) * len(stochastic))
        try:
            want = self.dense_support(pd)
        except MatrixError as exc:
            with pytest.raises(type(exc)) as got:
                partition_entropy(pd, 3)
            assert str(got.value) == str(exc)
            assert vars(got.value) == vars(exc)
        else:
            assert sft._support(pd) == want


class TestEntropyEstimates:
    def test_golden_ratio_convergence(self, golden_mean):
        report = entropy_estimates(golden_mean, 40)
        assert abs(report.rows[-1].ratio - LOG_PHI) < 1e-10

    def test_full2_growth_exact(self, full2):
        report = entropy_estimates(full2, 20)
        for row in report.rows:
            assert abs(row.growth - math.log(2)) <= 1e-12
            assert abs(row.ratio - math.log(2)) <= 1e-12

    def test_permutation(self, perm2):
        report = entropy_estimates(perm2, 10)
        for row in report.rows:
            assert row.ratio == 0.0
            assert abs(row.growth - math.log(2) / row.k) <= 1e-14
        assert abs(report.target) <= 1e-12

    def test_counts_match_word_count(self, random3):
        report = entropy_estimates(random3, 15)
        for row in report.rows:
            assert row.count == word_count(random3, row.k)

    def test_target(self, golden_mean):
        report = entropy_estimates(golden_mean, 5)
        assert abs(report.target - LOG_PHI) <= 1e-10

    def test_reducible_has_no_target(self):
        report = entropy_estimates(validate([[1, 0], [0, 1]]), 3)
        assert report.target is None

    def test_k_max_validation(self, golden_mean):
        with pytest.raises(ValueError):
            entropy_estimates(golden_mean, 1)

    def test_rows_from_k_min(self, golden_mean, random3):
        for mat in (golden_mean, random3):
            assert sft._estimate_rows(mat, 40, 35) == sft._estimate_rows(mat, 40)[34:]
            assert sft._estimate_rows(mat, 40, 40) == sft._estimate_rows(mat, 40)[-1:]

    def test_ratio_converges_for_primitive(self):
        rng = seeded(202)
        for _ in range(5):
            mat = random_irreducible(rng, rng.randrange(2, 6), force_loop=True)
            report = entropy_estimates(mat, 60)
            assert abs(report.rows[-1].ratio - report.target) <= 1e-6


class TestConvergenceReportSerialization:
    def test_csv_shape(self, golden_mean):
        report = entropy_estimates(golden_mean, 4)
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "k,w_k,eq3,ratio"
        assert lines[1].startswith("1,2,")
        assert len(lines) == 5

    def test_json_shape(self, golden_mean):
        report = entropy_estimates(golden_mean, 3)
        payload = report.to_json_dict()
        assert set(payload) == {"target", "rows"}
        assert payload["rows"][0]["w_k"] == "2"
        assert set(payload["rows"][0]) == {"k", "w_k", "eq3", "ratio"}

    def test_deterministic(self, golden_mean):
        a = entropy_estimates(golden_mean, 6)
        b = entropy_estimates(golden_mean, 6)
        assert a.to_csv() == b.to_csv()
        assert a.to_json_dict() == b.to_json_dict()

    def test_counts_past_the_int_str_limit(self):
        # 2^15000 has 4516 digits, past the default int-to-str limit of 4300
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        count = 2**15000
        row = sft.ConvergenceRow(k=15000, count=count, growth=0.5, ratio=0.5)
        report = sft.ConvergenceReport(rows=(row,), target=None)
        digits = report.to_json_dict()["rows"][0]["w_k"]
        assert report.to_csv() == f"k,w_k,eq3,ratio\n15000,{digits},0.5,0.5\n"
        with decimal.localcontext() as ctx:
            ctx.prec = 5000
            assert decimal.Decimal(digits) == decimal.Decimal(2) ** 15000
        # the interpreter's own limit is left as it was
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
