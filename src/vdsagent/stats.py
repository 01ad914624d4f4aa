"""Exact r x c test of independence (Freeman-Halton), stdlib only.

The test enumerates every table with the observed margins in integer
arithmetic, row by row over the column sums left.  A table has at most
prod_i comb(n_i + c - 1, c - 1) completions, so the cost grows with
the row sizes and the number of columns: a 3 x 3 table with 15 runs per
row (at most 136^2 tables) takes tens of milliseconds, the 3 x 2 and
3 x 3 tables of the mock suites well under one.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .errors import VdsAgentError


class DegenerateTable(VdsAgentError):
    """The contingency table cannot support an exact test."""


def _multinomial(counts: Sequence[int]) -> int:
    return math.factorial(sum(counts)) // math.prod(map(math.factorial,
                                                        counts))


def _splits(size: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every way to split size into len(caps) counts, count j <= caps[j]."""
    *head, last = caps
    for counts in itertools.product(*(range(min(size, c) + 1) for c in head)):
        rest = size - sum(counts)
        if 0 <= rest <= last:
            yield (*counts, rest)


def exact_test(table: Sequence[Sequence[int]]) -> float:
    """The p-value of the exact test of independence on an r x c count
    table (Freeman-Halton).

    Given both margins, a table whose row i of size n_i holds counts
    x_i1..x_ic has weight prod multinomial(n_i; x_i1..x_ic); the weights
    of all such tables sum to multinomial(N; C_1..C_c).  p is the summed
    weight of the tables no more likely than the observed one over that
    sum.  Weights are ints, so ties compare exactly.  All-zero columns
    admit only zeros and are dropped before enumerating.
    """
    rows = [tuple(r) for r in table]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise DegenerateTable("need at least two groups and two outcomes")
    for r in rows:
        if len(r) != len(rows[0]) or not all(
                type(x) is int and x >= 0 for x in r):
            raise DegenerateTable("rows must be equal-length sequences of "
                                  "non-negative ints")
        if not any(r):
            raise DegenerateTable("a group has zero observations")
    kept = [col for col in zip(*rows) if any(col)]
    rows = list(zip(*kept))
    columns = [sum(col) for col in kept]
    observed = math.prod(map(_multinomial, rows))
    *head, _ = map(sum, rows)

    def tail(i: int, left: tuple[int, ...], weight: int) -> int:
        if i == len(head):  # the last row takes the column sums left
            weight *= _multinomial(left)
            return weight if weight <= observed else 0
        return sum(tail(i + 1, tuple(c - x for c, x in zip(left, counts)),
                        weight * _multinomial(counts))
                   for counts in _splits(head[i], left))

    return tail(0, tuple(columns), 1) / _multinomial(columns)
