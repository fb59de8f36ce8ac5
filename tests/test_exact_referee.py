"""The exact rational referee, refereed: enumeration, Fibonacci and means.

``exact_referee`` is the exact side of the library's long-horizon checks,
so it is held here to three anchors that owe it nothing: the scalar
enumeration of every sequence, the order-k Fibonacci numbers at p = 1/2 and
the closed-form mean count of overlapping runs.
"""

from fractions import Fraction

import pytest
from exact_referee import (
    chain_of,
    count_law,
    gaps,
    iid,
    longest_law,
    wait_law,
)

from successruns.fibk import fib_k
from successruns.models import IID, Markov
from successruns.oracle import (
    FirstRunWait,
    LongestRun,
    RthRunWait,
    RunCount,
    enumerate_reference,
)
from successruns.rth_waiting import Scheme

# dyadic parameters: the float models are exactly the rational chains
MODELS = [IID(0.375), Markov(0.5, 0.25, 0.625)]
STATS = [
    FirstRunWait(3),
    *(RthRunWait(2, 2, s) for s in Scheme),
    *(RthRunWait(1, 3, s) for s in Scheme),
    *(RunCount(k, s) for k in (1, 2) for s in Scheme),
    LongestRun(),
]


def _law(chain, n, stat):
    if isinstance(stat, FirstRunWait):
        return wait_law(chain, stat.k, 1, "I", n)
    if isinstance(stat, RthRunWait):
        return wait_law(chain, stat.k, stat.r, stat.scheme.value, n)
    if isinstance(stat, RunCount):
        return count_law(chain, n, stat.k, stat.scheme.value)
    return longest_law(chain, n)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", [1, 4, 12])
def test_referee_equals_scalar_enumeration(model, n):
    chain = chain_of(model)
    for stat in STATS:
        tv, rel = gaps(enumerate_reference(model, n, stat), _law(chain, n, stat))
        assert tv <= 1e-15 and rel <= 1e-13, (stat, tv, rel)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_fair_coin_first_run_law_is_scaled_fibonacci(k):
    # P(V_k = n) * 2**n = F^(k)_(n-k+1), the order-k Fibonacci number
    law = wait_law(iid(Fraction(1, 2)), k, 1, "I", 60)
    assert law[:k] == [0] * k
    for n in range(k, 61):
        assert law[n] * 2**n == fib_k(k, n - k + 1), n


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 8), Fraction(2, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_overlapping_count_mean_is_exact(p, k):
    # each of the n - k + 1 windows of k trials is all successes w.p. p**k
    for n in (k - 1, k, k + 1, 25):
        law = count_law(iid(p), n, k, "III")
        mean = sum(x * w for x, w in enumerate(law))
        assert mean == (n - k + 1) * p**k
        assert sum(law) == 1
