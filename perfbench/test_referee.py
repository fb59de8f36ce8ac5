"""The benchmark's referee against the package's scalar enumeration.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.  enumerate_reference
walks every 0/1 sequence through the definitional counters, so agreement here
vouches for the forward passes the benchmark checks the engines against.
"""

import numpy as np
import pytest

import referee as R
import workloads
from successruns import IID, LongestRun, Markov, RthRunWait, RunCount
from successruns.oracle import enumerate_reference

MODELS = [(IID(0.37), R.iid(0.37)), (Markov(0.45, 0.3, 0.6), R.markov(0.45, 0.3, 0.6))]
TOL = 1e-13


def law(pm) -> R.Law:
    return R.Law(pm.offset, pm.probs, pm.tail)


@pytest.mark.parametrize("model,chain", MODELS)
@pytest.mark.parametrize("n", [1, 6, 12])
def test_forward_passes_match_enumeration(model, chain, n):
    assert R.tv(law(enumerate_reference(model, n, LongestRun())), R.longest_law(chain, n)) < TOL
    for k in (1, 2, 3):
        for scheme in R.SCHEMES:
            got = R.counts_law(chain, n, k, scheme)
            assert R.tv(law(enumerate_reference(model, n, RunCount(k, scheme))), got) < TOL
            for r in (1, 2):
                got = R.wait_law(chain, k, r, scheme, n)
                assert R.tv(law(enumerate_reference(model, n, RthRunWait(k, r, scheme))), got) < TOL


@pytest.mark.parametrize("chain", [R.iid(0.55), R.markov(0.45, 0.3, 0.6)])
@pytest.mark.parametrize("scheme", R.SCHEMES)
def test_renewal_moments_match_a_long_forward_pass(chain, scheme):
    k, r, nmax = 2, 3, 600
    pass_law = R.wait_law(chain, k, r, scheme, nmax)
    assert pass_law.tail < 1e-15
    values = np.arange(nmax + 1, dtype=np.float64)
    mean, second = R.wait_moments(chain, k, r, scheme)
    assert mean == pytest.approx(float(values @ pass_law.probs), rel=1e-12)
    assert second == pytest.approx(float(values**2 @ pass_law.probs), rel=1e-12)


def test_closed_forms_match_the_referee():
    p, k = 0.55, 3
    assert R.iid_mean_wait(p, k) == pytest.approx(R.wait_moments(R.iid(p), k, 1, "I")[0], rel=1e-12)
    for scheme in ("II", "III"):
        counted = R.mean_of(R.counts_law(R.iid(p), 40, k, scheme))
        assert R.iid_mean_count(p, 40, k, scheme) == pytest.approx(counted, rel=1e-12)
    fib = R.fibonacci_half_law(k, 60)
    assert np.abs(fib - R.wait_law(R.iid(0.5), k, 1, "I", 60).probs).max() < 1e-15
    assert list(fib[3:8] * 2.0 ** np.arange(3, 8)) == [1, 1, 2, 4, 7]


def test_tables_check_reports_a_wrong_count_law():
    """counts_pmf at n=100 (k=2, scheme III) drifts about 1e-2 from the truth."""
    from successruns import counts_pmf

    pm = counts_pmf(IID(0.5), 100, 2, "III")
    problems = workloads.check_counts("counts_pmf", workloads.law_of(pm), R.iid(0.5), True, 100, 2, "III")
    assert problems and "tv" in problems[0]
