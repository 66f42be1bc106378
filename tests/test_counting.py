"""Counting-law tails against each law's own probabilities: P(tau > k)
plus P(tau <= k) is one, on both sides of Zeta's exact table, and a count
that is negative or fractional is rejected."""

import math

import pytest

from heavytails.counting import Deterministic, Geometric1, Poisson, Zeta
from heavytails.errors import InvalidInput

# k = 511 reads Zeta's table, k = 512 and beyond its Euler-Maclaurin tail
COUNTS = (0, 1, 511, 512, 10_000)

LAWS = (Poisson(0.0), Poisson(0.7), Poisson(25.0), Geometric1(0.3),
        Geometric1(1e-3), Geometric1(1.0), Zeta(1.1), Zeta(1.5), Zeta(2.0))


@pytest.mark.parametrize("law", LAWS, ids=repr)
def test_tail_and_cdf_sum_to_one(law):
    terms = [law.pmf(j) for j in range(max(COUNTS) + 1)]
    for k in COUNTS:
        assert law.tail(k) + math.fsum(terms[:k + 1]) == pytest.approx(
            1.0, rel=0, abs=1e-12), k


@pytest.mark.parametrize("p", [0.3, 1e-3, 1.0])
def test_geometric_tail_is_the_closed_form(p):
    for k in COUNTS:
        assert Geometric1(p).tail(k) == pytest.approx(
            math.exp(k * math.log1p(-p)) if p < 1 else float(k == 0),
            rel=1e-12, abs=0)


def test_deterministic_tail_steps_at_n():
    law = Deterministic(5)
    assert [law.tail(k) for k in (0, 4, 5, 6)] == [1.0, 1.0, 0.0, 0.0]
    assert Deterministic(0).tail(0) == 0.0


@pytest.mark.parametrize("law", LAWS + (Deterministic(5),), ids=repr)
@pytest.mark.parametrize("k", [-1, 2.5])
def test_tail_rejects_a_count_that_is_not_a_nonnegative_integer(law, k):
    with pytest.raises(InvalidInput, match="nonnegative integer"):
        law.tail(k)
