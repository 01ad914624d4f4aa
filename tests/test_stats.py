import itertools
import math
import random

import pytest

import helpers
from vdsagent import stats


class TestChiSquaredTest:
    """`exact_test`, the one expertise test the statistics block runs;
    case names are kept from the Pearson chi-squared test it replaced."""

    def test_benchmark_fixture(self):
        # 15 instances per level; 13/14/15 solved
        table = [[13, 2], [14, 1], [15, 0]]
        p = stats.exact_test(table)
        assert type(p) is float
        assert p == 0.7621564482029598
        assert p == helpers.fraction_exact_p(table)

    def test_all_success(self):
        assert stats.exact_test([[15, 0], [15, 0], [15, 0]]) == 1.0

    def test_perfect_split(self):
        # only the observed table and its mirror are this unlikely
        p = stats.exact_test([[10, 0], [0, 10]])
        assert p == 2 / math.comb(20, 10)
        assert p < 0.05

    def test_proportional_rows_score_zero(self):
        # the most likely table: every table is no more likely than it
        assert stats.exact_test([[2, 4], [3, 6], [1, 2]]) == 1.0

    def test_zero_expected_cells_contribute_nothing(self):
        # an all-zero column admits the observed table alone
        assert stats.exact_test([[5, 0], [5, 0]]) == 1.0
        assert stats.exact_test([[0, 3], [0, 1], [0, 7]]) == 1.0

    @pytest.mark.parametrize("table", [
        [[1, 2]],
        [[1, 2], [3]],
        [[1], [2]],
        [[1, -1], [2, 3]],
        [[0, 0], [1, 2]],
        [],
        [[1, 2, 3], [4, 5]],
        [[1.0, 2], [3, 4]],
        [[True, 2], [3, 4]],
        [[1, 2], [3, 4, 5]],
        [[1, 2, 3], [4, 5, 6], [7, 8]],
        [[1, 2, 3]],
        [[0, 0, 0], [1, 2, 3]],
        [[1, 2, 3.0], [4, 5, 6]],
        [[1, 2, 3], [4, -5, 6]],
    ])
    def test_degenerate_tables(self, table):
        with pytest.raises(stats.DegenerateTable):
            stats.exact_test(table)

    def test_all_zero_columns_are_not_degenerate(self):
        # an unused iteration count is a zero column, not a missing outcome
        assert stats.exact_test([[15, 0, 0]] * 3) == 1.0
        assert stats.exact_test([[15, 0, 0], [15, 0, 0], [12, 3, 0]]) == \
            stats.exact_test([[15, 0], [15, 0], [12, 3]])
        assert stats.exact_test([[0, 4, 0, 1], [0, 0, 0, 3]]) == \
            stats.exact_test([[4, 1], [0, 3]])

    def test_r_by_c_perfect_split(self):
        # only the 3! tables with each row in its own column are this
        # unlikely, each of weight 1, out of multinomial(15; 5, 5, 5)
        p = stats.exact_test([[5, 0, 0], [0, 5, 0], [0, 0, 5]])
        total = math.factorial(15) // math.factorial(5) ** 3
        assert p == 6 / total

    def test_column_permutation_invariance(self):
        a = stats.exact_test([[3, 0, 2], [0, 4, 1], [2, 2, 2]])
        b = stats.exact_test([[2, 3, 0], [1, 0, 4], [2, 2, 2]])
        assert a == b

    def test_row_permutation_invariance(self):
        a = stats.exact_test([[13, 2], [14, 1], [15, 0]])
        b = stats.exact_test([[15, 0], [13, 2], [14, 1]])
        assert a == b

    def test_matches_fraction_reference(self):
        rng = random.Random(1951)
        # one run per row, all-zero columns, and full rows of 20
        tables = [[[1, 0], [0, 1]], [[1, 0], [1, 0], [0, 1]],
                  [[0, 20], [0, 20]], [[0, 3], [0, 1], [0, 7]],
                  [[20, 0], [0, 20], [20, 0]], [[1, 2, 3], [4, 5, 6]],
                  [[15, 0, 0], [15, 0, 0], [12, 3, 0]],
                  [[1, 0, 0, 0], [0, 0, 0, 1]]]
        for _ in range(150):
            table = []
            for _ in range(rng.choice((2, 3))):
                runs = rng.randint(1, 20)
                solved = rng.randint(0, runs)
                table.append([solved, runs - solved])
            tables.append(table)
        # r x c: small counts, so some columns and cells are empty
        for rows, columns in itertools.product((2, 3), (2, 3, 4)):
            for _ in range(12):
                table = []
                while len(table) < rows:
                    row = [rng.randint(0, 12 // columns)
                           for _ in range(columns)]
                    if any(row):
                        table.append(row)
                tables.append(table)
        for table in tables:
            assert stats.exact_test(table) == \
                helpers.fraction_exact_p(table), table
