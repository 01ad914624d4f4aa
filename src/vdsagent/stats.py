"""Exact r x 2 test of independence and one-way ANOVA, stdlib only.

The exact test enumerates every table with the observed margins in
integer arithmetic.  ANOVA's p-value comes from the regularized
incomplete beta function, evaluated in-module by a modified Lentz
continued fraction to well beyond the 1e-8 error the tests check
against direct density integration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import VdsAgentError

_ITMAX = 500
_EPS = 1e-15
_TINY = 1e-300


class DegenerateTable(VdsAgentError):
    """The contingency table cannot support an exact test."""


class DegenerateInput(VdsAgentError):
    """The ANOVA groups cannot support an F test."""


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0 or b <= 0:
        raise ValueError("require a > 0 and b > 0")
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class ExactTestResult:
    p_value: float


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    df_between: int
    df_within: int
    p_value: float


def exact_test(table: Sequence[Sequence[int]]) -> ExactTestResult:
    """Exact test of independence on an r x 2 count table (Freeman-Halton).

    Given both margins, a table with a_i first-column counts in rows of
    size n_i has weight prod comb(n_i, a_i); the weights of all such
    tables sum to comb(N, A).  p is the summed weight of the tables no
    more likely than the observed one over comb(N, A).  Weights are
    ints, so ties compare exactly.
    """
    rows = [tuple(r) for r in table]
    if len(rows) < 2:
        raise DegenerateTable("need at least two groups")
    for r in rows:
        if len(r) != 2 or not all(type(c) is int and c >= 0 for c in r):
            raise DegenerateTable("each row must be a pair of non-negative "
                                  "ints")
        if r == (0, 0):
            raise DegenerateTable("a group has zero observations")
    sizes = [a + b for a, b in rows]
    total = sum(a for a, _ in rows)
    observed = math.prod(math.comb(a + b, a) for a, b in rows)
    *head, last = sizes
    tail = 0
    for firsts in itertools.product(*(range(n + 1) for n in head)):
        rest = total - sum(firsts)
        if 0 <= rest <= last:
            weight = math.comb(last, rest) * math.prod(map(math.comb, head,
                                                           firsts))
            if weight <= observed:
                tail += weight
    return ExactTestResult(p_value=tail / math.comb(sum(sizes), total))


def anova_test(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """One-way ANOVA across g >= 2 groups of observations.

    Conventions: all values identical everywhere -> F = 0, p = 1; zero
    within-group variance with nonzero between -> F = inf, p = 0.
    """
    data = [list(g) for g in groups]
    if len(data) < 2:
        raise DegenerateInput("need at least two groups")
    if any(not g for g in data):
        raise DegenerateInput("every group needs at least one value")
    n_total = sum(len(g) for g in data)
    df_between = len(data) - 1
    df_within = n_total - len(data)
    if df_within < 1:
        raise DegenerateInput("need more observations than groups")
    grand = sum(sum(g) for g in data) / n_total
    ss_between = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in data)
    ss_within = sum((x - sum(g) / len(g)) ** 2 for g in data for x in g)
    if ss_within == 0:
        if ss_between == 0:
            return AnovaResult(0.0, df_between, df_within, 1.0)
        return AnovaResult(math.inf, df_between, df_within, 0.0)
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    p_value = regularized_beta(df_within / 2.0, df_between / 2.0,
                               df_within / (df_within + df_between * f_stat))
    return AnovaResult(f_stat=f_stat, df_between=df_between,
                       df_within=df_within, p_value=p_value)
