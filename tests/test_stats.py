import math
import random

import pytest

import helpers
from vdsagent import stats


def f_pdf(x, d1, d2):
    log_b = (math.lgamma(d1 / 2) + math.lgamma(d2 / 2)
             - math.lgamma((d1 + d2) / 2))
    return math.exp((d1 / 2) * math.log(d1 / d2)
                    + (d1 / 2 - 1) * math.log(x)
                    - ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
                    - log_b)


def simpson(f, lo, hi, n):
    if n % 2:
        n += 1
    h = (hi - lo) / n
    total = f(lo) + f(hi)
    for i in range(1, n):
        total += f(lo + i * h) * (4 if i % 2 else 2)
    return total * h / 3


class TestSpecialFunctions:
    def test_beta_endpoints(self):
        assert stats.regularized_beta(2.0, 5.0, 0.0) == 0.0
        assert stats.regularized_beta(2.0, 5.0, 1.0) == 1.0

    def test_beta_symmetry(self):
        rng = random.Random(4)
        for _ in range(200):
            a = rng.uniform(0.3, 10)
            b = rng.uniform(0.3, 10)
            x = rng.random()
            left = stats.regularized_beta(a, b, x)
            right = 1 - stats.regularized_beta(b, a, 1 - x)
            assert left == pytest.approx(right, abs=1e-12)

    def test_beta_uniform_case(self):
        # I_x(1, 1) is the identity
        for x in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert stats.regularized_beta(1, 1, x) == pytest.approx(x,
                                                                    abs=1e-14)


def f_dist_cdf(x, d1, d2):
    """F(d1, d2) cdf through I_{d1 x / (d1 x + d2)}(d1 / 2, d2 / 2)."""
    return stats.regularized_beta(d1 / 2, d2 / 2, d1 * x / (d1 * x + d2))


class TestFCdf:
    """`regularized_beta` read as the F cdf that `anova_test` relies on."""

    def test_closed_forms(self):
        for x in (0.2, 1.0, 3.0, 8.0, 20.0):
            assert f_dist_cdf(x, 1, 2) == \
                pytest.approx(math.sqrt(x / (x + 2)), abs=1e-12)
            assert f_dist_cdf(x, 2, 2) == \
                pytest.approx(x / (x + 1), abs=1e-12)
            assert f_dist_cdf(x, 2, 4) == \
                pytest.approx(1 - (2 / (x + 2)) ** 2, abs=1e-12)
            assert f_dist_cdf(x, 4, 2) == \
                pytest.approx((2 * x / (2 * x + 1)) ** 2, abs=1e-12)

    def test_simpson_cross_check(self):
        for x in (0.5, 1.5, 4.0):
            numeric = simpson(lambda t: f_pdf(t, 5, 7), 1e-12, x, 4000)
            assert f_dist_cdf(x, 5, 7) == pytest.approx(numeric, abs=1e-8)

    def test_zero_and_negative(self):
        assert f_dist_cdf(0.0, 3, 5) == 0.0
        assert stats.regularized_beta(1.5, 2.5, -0.4) == 0.0

    def test_bad_df(self):
        with pytest.raises(ValueError):
            f_dist_cdf(1.0, 0, 5)


class TestChiSquaredTest:
    """`exact_test`, the expertise test the statistics block runs in place
    of Pearson's chi-squared; case names are kept from that test."""

    def test_benchmark_fixture(self):
        # 15 instances per level; 13/14/15 solved
        table = [[13, 2], [14, 1], [15, 0]]
        res = stats.exact_test(table)
        assert res.p_value == 0.7621564482029598
        assert res.p_value == helpers.fraction_exact_p(table)

    def test_all_success(self):
        assert stats.exact_test([[15, 0], [15, 0], [15, 0]]).p_value == 1.0

    def test_perfect_split(self):
        # only the observed table and its mirror are this unlikely
        res = stats.exact_test([[10, 0], [0, 10]])
        assert res.p_value == 2 / math.comb(20, 10)
        assert res.p_value < 0.05

    def test_proportional_rows_score_zero(self):
        # the most likely table: every table is no more likely than it
        assert stats.exact_test([[2, 4], [3, 6], [1, 2]]).p_value == 1.0

    def test_zero_expected_cells_contribute_nothing(self):
        # an all-zero column admits the observed table alone
        assert stats.exact_test([[5, 0], [5, 0]]).p_value == 1.0
        assert stats.exact_test([[0, 3], [0, 1], [0, 7]]).p_value == 1.0

    @pytest.mark.parametrize("table", [
        [[1, 2]],
        [[1, 2], [3]],
        [[1], [2]],
        [[1, -1], [2, 3]],
        [[0, 0], [1, 2]],
        [],
        [[1, 2, 3], [4, 5, 6]],
        [[1.0, 2], [3, 4]],
        [[True, 2], [3, 4]],
    ])
    def test_degenerate_tables(self, table):
        with pytest.raises(stats.DegenerateTable):
            stats.exact_test(table)

    def test_row_permutation_invariance(self):
        a = stats.exact_test([[13, 2], [14, 1], [15, 0]])
        b = stats.exact_test([[15, 0], [13, 2], [14, 1]])
        assert a.p_value == b.p_value

    def test_matches_fraction_reference(self):
        rng = random.Random(1951)
        # one run per row, all-zero columns, and full rows of 20
        tables = [[[1, 0], [0, 1]], [[1, 0], [1, 0], [0, 1]],
                  [[0, 20], [0, 20]], [[0, 3], [0, 1], [0, 7]],
                  [[20, 0], [0, 20], [20, 0]]]
        for _ in range(150):
            table = []
            for _ in range(rng.choice((2, 3))):
                runs = rng.randint(1, 20)
                solved = rng.randint(0, runs)
                table.append([solved, runs - solved])
            tables.append(table)
        for table in tables:
            assert stats.exact_test(table).p_value == \
                helpers.fraction_exact_p(table), table


class TestAnova:
    def test_benchmark_fixture(self):
        res = stats.anova_test([[1.0, 2.0], [3.0, 4.0]])
        assert res.f_stat == 8.0
        assert res.df_between == 1
        assert res.df_within == 2
        # F(1, 2) survival at x reduces to 1 - sqrt(x / (x + 2))
        assert res.p_value == pytest.approx(1 - math.sqrt(0.8), rel=1e-14)
        assert res.p_value == pytest.approx(0.10557280900008414, rel=1e-12)

    def test_identical_everywhere(self):
        res = stats.anova_test([[2.0, 2.0], [2.0, 2.0, 2.0]])
        assert res.f_stat == 0.0
        assert res.p_value == 1.0

    def test_zero_within_variance(self):
        res = stats.anova_test([[5.0, 5.0], [7.0, 7.0]])
        assert math.isinf(res.f_stat)
        assert res.p_value == 0.0

    @pytest.mark.parametrize("groups", [
        [[1.0, 2.0]],
        [[1.0], []],
        [[1.0], [2.0]],
    ])
    def test_degenerate_inputs(self, groups):
        with pytest.raises(stats.DegenerateInput):
            stats.anova_test(groups)

    def test_shift_and_scale_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            groups = [[rng.uniform(-5, 5) for _ in range(rng.randint(2, 6))]
                      for _ in range(rng.randint(2, 4))]
            base = stats.anova_test(groups)
            if not math.isfinite(base.f_stat):
                continue
            shift = rng.uniform(-100, 100)
            scale = rng.uniform(0.1, 10)
            moved = stats.anova_test(
                [[scale * x + shift for x in g] for g in groups])
            assert moved.f_stat == pytest.approx(base.f_stat, rel=1e-8)
            assert moved.p_value == pytest.approx(base.p_value, rel=1e-7)

    def test_group_permutation_invariance(self):
        g1, g2, g3 = [1.0, 2.5], [3.0, 4.0, 5.0], [0.5, 2.0]
        a = stats.anova_test([g1, g2, g3])
        b = stats.anova_test([g3, g1, g2])
        assert a.f_stat == pytest.approx(b.f_stat, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)
