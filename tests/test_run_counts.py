"""Run counts in a fixed number of trials, all three counting rules."""

import math
from itertools import product

import numpy as np
import pytest
from exact_referee import chain_of, count_law, gaps

from successruns import rth_waiting
from successruns.checks import counts_rows, trk_rows
from successruns.models import IID, Markov, Pmf
from successruns.rth_waiting import Scheme, occurrence_factors, trk_pmf
from successruns.run_counts import (
    count_runs,
    counts_moments,
    _count_laws,
    counts_pmf,
    first_occurrence_index,
    max_count,
    occurrence_indices,
)

MODELS = [IID(0.5), IID(0.35), Markov(0.45, 0.3, 0.6), Markov(0.62, 0.55, 0.35)]
SCHEMES = list(Scheme)


def test_counting_rules_on_a_worked_sequence():
    bits = [1, 1, 1, 1, 0, 1, 1]
    # four solid successes, break, two more
    assert count_runs(bits, 2, Scheme.NON_OVERLAPPING) == 3
    assert count_runs(bits, 2, Scheme.AT_LEAST) == 2
    assert count_runs(bits, 2, Scheme.OVERLAPPING) == 4
    assert list(occurrence_indices(bits, 2, Scheme.NON_OVERLAPPING)) == [2, 4, 7]
    assert list(occurrence_indices(bits, 2, Scheme.AT_LEAST)) == [2, 7]
    assert list(occurrence_indices(bits, 2, Scheme.OVERLAPPING)) == [2, 3, 4, 7]


def test_counting_rules_accept_strings():
    assert count_runs("11011", 2, Scheme.NON_OVERLAPPING) == 2
    assert count_runs("0000", 1, Scheme.OVERLAPPING) == 0


def test_first_occurrence_index():
    bits = [0, 1, 1, 1, 0, 1, 1]
    assert first_occurrence_index(bits, 2, 1, Scheme.NON_OVERLAPPING) == 3
    assert first_occurrence_index(bits, 2, 2, Scheme.NON_OVERLAPPING) == 7
    assert first_occurrence_index(bits, 2, 2, Scheme.OVERLAPPING) == 4
    assert first_occurrence_index(bits, 2, 3, Scheme.AT_LEAST) is None
    with pytest.raises(ValueError):
        first_occurrence_index(bits, 2, 0, Scheme.AT_LEAST)


def _max_count_by_patterns(n, k, scheme):
    """max_count as it ran both patterns through the counter (kept verbatim)."""
    solid = count_runs([1] * n, k, scheme)
    spaced = count_runs((([1] * k + [0]) * (n // (k + 1) + 1))[:n], k, scheme)
    return max(solid, spaced)


def _counts_pmf_per_n(model, n, k, scheme):
    """counts_pmf as it extracted every series afresh at n (kept verbatim)."""
    if n < 0:
        raise ValueError(f"horizon n must be >= 0, got {n}")
    scheme = Scheme.from_label(scheme)
    xmax = max_count(n, k, scheme)
    cdf = np.zeros(xmax + 2)  # cdf[x-1] = P(T_x <= n) for x = 1..xmax+1
    for x in range(1, xmax + 2):
        pm = trk_pmf(model, k, x, scheme, nmax=n)
        cdf[x - 1] = float(pm.probs.sum())
    probs = np.zeros(xmax + 1)
    probs[0] = 1.0 - cdf[0]
    for x in range(1, xmax + 1):
        probs[x] = cdf[x - 1] - cdf[x]
    return Pmf(offset=0, probs=probs)


def _counts_rows_per_n(model, k, scheme, nmax):
    """checks.counts_rows as it called counts_pmf once per n (kept verbatim)."""
    return tuple(_counts_pmf_per_n(model, n, k, scheme) for n in range(nmax + 1))


def _same_law(a, b):
    return (a.offset, a.probs.tobytes(), a.tail) == (b.offset, b.probs.tobytes(), b.tail)


def test_max_count_closed_form_matches_the_patterns():
    for n, k, scheme in product(range(301), range(1, 13), SCHEMES):
        assert max_count(n, k, scheme) == _max_count_by_patterns(n, k, scheme)


def test_max_count_closed_patterns():
    assert max_count(7, 2, Scheme.NON_OVERLAPPING) == 3
    assert max_count(7, 2, Scheme.AT_LEAST) == 2  # 11 0 11 0 1: trailing 1 too short
    assert max_count(7, 2, Scheme.OVERLAPPING) == 6
    assert max_count(9, 3, Scheme.NON_OVERLAPPING) == 3
    assert max_count(9, 3, Scheme.AT_LEAST) == 2


def test_max_count_is_attained_not_exceeded():
    for n, k, scheme in product((5, 8), (1, 2, 3), SCHEMES):
        cap = max_count(n, k, scheme)
        best = max(
            count_runs(bits, k, scheme)
            for bits in product((0, 1), repeat=n)
        )
        assert cap == best


def test_fair_coin_three_trials_overlapping_by_hand():
    # of the 8 strings, only 111 gives two overlapping double-runs
    pm = counts_pmf(IID(0.5), 3, 2, Scheme.OVERLAPPING)
    assert math.isclose(pm.p(0), 0.625, abs_tol=1e-15)
    assert math.isclose(pm.p(1), 0.25, abs_tol=1e-15)
    assert math.isclose(pm.p(2), 0.125, abs_tol=1e-15)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (9, 2), (12, 3)])
def test_counts_pmf_is_a_complete_distribution(model, scheme, n, k):
    pm = counts_pmf(model, n, k, scheme)
    assert pm.offset == 0
    assert pm.tail == 0.0
    assert len(pm.probs) == max_count(n, k, scheme) + 1
    assert math.isclose(float(np.sum(pm.probs)), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n,k", [(6, 2), (10, 2), (11, 3)])
def test_inversion_and_polynomial_routes_agree(model, scheme, n, k):
    # the polynomial route is the exact law: the coefficients of G_n(w)
    law = count_law(chain_of(model), n, k, scheme.value)
    tv, rel = gaps(counts_pmf(model, n, k, scheme), law)
    assert tv <= 1e-12 and rel <= 1e-9, (tv, rel)


def test_count_polynomials_are_probability_generating():
    chain = chain_of(IID(0.4))
    for m in range(13):
        g = count_law(chain, m, 2, "I")
        assert sum(g) == 1 and min(g) >= 0
        assert len(g) == max_count(m, 2, Scheme.NON_OVERLAPPING) + 1
        tv, rel = gaps(counts_pmf(IID(0.4), m, 2, Scheme.NON_OVERLAPPING), g)
        assert tv <= 1e-12 and rel <= 1e-9, (m, tv, rel)


def _inversion_cancels(figure):
    return pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=f"the waiting-time inversion differences cdfs whose series "
        f"cancel in float64 around repeated roots: {figure}",
    )


@pytest.mark.parametrize(
    "model,n,scheme",
    [
        pytest.param(
            IID(0.5), 100, "III",
            marks=_inversion_cancels("TV 1.0e-2, mean 24.7585 for 24.75"),
        ),
        pytest.param(IID(0.5), 100, "II", marks=_inversion_cancels("TV 2.5e-6")),
        pytest.param(IID(0.5), 100, "I", marks=_inversion_cancels("TV 4.7e-8")),
        pytest.param(IID(0.5), 80, "III", marks=_inversion_cancels("TV 1.9e-6")),
        pytest.param(
            IID(0.375), 60, "III",
            marks=_inversion_cancels("TV 2.7e-9, 5.0e-6 relative"),
        ),
        pytest.param(
            IID(0.375), 40, "III", marks=_inversion_cancels("1.3e-9 relative")
        ),
        pytest.param(
            Markov(0.5, 0.25, 0.625), 60, "III",
            marks=_inversion_cancels("8.0e-7 relative"),
        ),
    ],
)
def test_long_horizon_counts_match_the_exact_law(model, n, scheme):
    law = count_law(chain_of(model), n, 2, scheme)
    tv, rel = gaps(counts_pmf(model, n, 2, scheme), law)
    assert tv <= 1e-12 and rel <= 1e-9, (tv, rel)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_moments_match_pmf(model, scheme):
    n, k = 14, 2
    pm = counts_pmf(model, n, k, scheme)
    mom = counts_moments(model, n, k, scheme)
    xs = np.arange(len(pm.probs), dtype=float)
    assert math.isclose(mom.mean, float(xs @ pm.probs), abs_tol=1e-13)
    assert math.isclose(
        mom.second_moment, float((xs**2) @ pm.probs), abs_tol=1e-12
    )


def test_more_trials_never_lose_runs():
    # expected count grows with the horizon under every rule
    for model, scheme in product(MODELS, SCHEMES):
        means = [counts_moments(model, n, 2, scheme).mean for n in (4, 8, 16)]
        assert means[0] < means[1] < means[2]


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        counts_pmf(IID(0.5), -1, 2, Scheme.NON_OVERLAPPING)
    with pytest.raises(ValueError):
        count_runs([1, 0], 0, Scheme.NON_OVERLAPPING)


@pytest.mark.parametrize("model", [IID(0.37), Markov(0.45, 0.3, 0.6)])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_all_horizons_equal_the_per_horizon_route_bit_for_bit(model, k):
    # rows below a count's first possible trial are included: at nmax 0, 1
    # and 2 most counts cannot occur yet
    for scheme, nmax in product(SCHEMES, (0, 1, 2, 26)):
        want = _counts_rows_per_n(model, k, scheme, nmax)
        got = counts_rows.__wrapped__(model, k, scheme, nmax)
        assert len(got) == nmax + 1
        assert all(_same_law(a, b) for a, b in zip(got, want))
        assert _same_law(counts_pmf(model, nmax, k, scheme), want[-1])


def test_a_law_that_failed_per_horizon_still_fails():
    with pytest.raises(ValueError, match="pmf entry"):
        _counts_pmf_per_n(IID(0.5), 105, 2, "III")
    with pytest.raises(ValueError, match="pmf entry"):
        counts_pmf(IID(0.5), 105, 2, "III")


def test_known_drift_at_a_long_horizon_is_unchanged():
    # the exact mean is 24.75; the waiting-time inversion cancels in float64
    # at this horizon, and this pins that it still gives the same law
    assert counts_pmf(IID(0.5), 100, 2, "III").mean() == 24.75853747793034


def test_a_table_of_laws_past_the_limit_is_refused():
    # 1100 x 1101 entries: without the limit the ladder runs for seconds
    # and then refuses a tail mass
    with pytest.raises(ValueError) as err:
        counts_pmf(IID(0.5), 1100, 1, "III")
    assert str(err.value) == (
        "the table of r-th-run laws to horizon 1100 would hold 1100 x 1101 "
        "entries, above the limit of 1048576"
    )


def test_a_table_of_1e10_entries_is_refused_before_it_is_built(monkeypatch):
    def ladder(h, a, emax, nmax):
        raise AssertionError(f"a ladder of {emax + 1} x {nmax + 1} entries was built")

    monkeypatch.setattr(rth_waiting, "ladder_series", ladder)
    with pytest.raises(ValueError, match=r"horizon 100000 .* above the limit"):
        counts_pmf(IID(0.5), 10**5, 1, "III")


@pytest.fixture
def crafted_ladder(monkeypatch):
    """Series of T_1..T_3 for IID(1/2), k = 2, scheme I to n = 6, replaced by
    a table in which T_1's prefix to n = 3 holds too much mass and T_2 has
    an entry Pmf refuses."""
    table = np.zeros((3, 7))
    table[0, 2:] = [0.25, 0.75 + 1.5e-12, -1e-12, -1e-12, 0.0]
    table[1, 4:] = [0.5, 0.5 + 1e-3, -1e-3]
    table[2, 6] = 0.5

    def ladder(h, a, emax, nmax):
        assert (emax, nmax) == (2, 6)
        return table.copy()

    monkeypatch.setattr(rth_waiting, "ladder_series", ladder)
    return occurrence_factors(IID(0.5), 2, "I")


def test_count_laws_raise_the_first_error_in_per_horizon_order(crafted_ladder):
    # each row runs all of its horizons before the next row's entry rule,
    # as counts_pmf one horizon at a time meets them: T_1 fails at n = 3
    # before T_2's refused entry is reached
    h, a = crafted_ladder
    with pytest.raises(ValueError) as err:
        _count_laws(h, a, 2, "I", range(0, 7))
    assert str(err.value) == (
        "tail mass -1.5001333508735115e-12 is below -1e-12 or NaN"
    )


def test_rth_run_tables_raise_the_refused_entry_at_one_horizon(crafted_ladder):
    # at n = 6 alone T_1 holds its mass, and T_2's entry is refused
    with pytest.raises(ValueError) as err:
        trk_rows.__wrapped__(IID(0.5), 2, "I", 3, 6)
    assert str(err.value) == "pmf entry -0.001 below -1e-12; refusing to clamp"
