"""Waiting time for the r-th run of length k under the three counting rules."""

import math

import numpy as np
import pytest
from exact_referee import chain_of, gaps, wait_law

from successruns.geometric import vk_pmf
from successruns.models import IID, ConsistencyError, Markov, tv_distance
from successruns.polyseries import Poly, RationalGF, ladder_series
from successruns.rth_waiting import (
    Scheme,
    _check_mass,
    occurrence_factors,
    trk_moments,
    trk_pgf,
    trk_pmf,
    trk_tail,
)
from successruns.run_counts import counts_pmf

MODELS = [IID(0.5), IID(0.35), Markov(0.45, 0.3, 0.6), Markov(0.62, 0.55, 0.35)]
SCHEMES = list(Scheme)


def test_scheme_labels_round_trip():
    assert Scheme.from_label("I") is Scheme.NON_OVERLAPPING
    assert Scheme.from_label("II") is Scheme.AT_LEAST
    assert Scheme.from_label("III") is Scheme.OVERLAPPING
    assert Scheme.from_label(Scheme.OVERLAPPING) is Scheme.OVERLAPPING
    with pytest.raises(ValueError):
        Scheme.from_label("IV")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_first_run_is_scheme_free(model, scheme):
    # r = 1 means the same event under every counting rule
    base = vk_pmf(model, 2, vmax=40)
    got = trk_pmf(model, 2, 1, scheme, 40)
    assert tv_distance(base, got) < 1e-12


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("k,r", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_pmf_starts_at_min_support(model, scheme, k, r):
    # the table starts at the smallest index the factors allow, and that
    # index carries mass
    pm = trk_pmf(model, k, r, scheme, 60)
    assert pm.probs[0] > 0.0
    assert pm.offset == trk_pmf(model, k, r, scheme, 0).offset


def test_min_support_by_scheme():
    # r runs of length k need: rk trials packed solid; (r-1) separators for
    # the at-least rule; k + r - 1 trials when overlaps count
    m = IID(0.5)
    assert trk_pmf(m, 3, 4, Scheme.NON_OVERLAPPING, 20).offset == 12
    assert trk_pmf(m, 3, 4, Scheme.AT_LEAST, 20).offset == 15
    assert trk_pmf(m, 3, 4, Scheme.OVERLAPPING, 20).offset == 6


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_series_and_recursive_routes_agree(model, scheme):
    # the recursive route is the exact forward pass over the streak chain
    for k, r in ((2, 2), (3, 2), (2, 3)):
        law = wait_law(chain_of(model), k, r, scheme.value, 50)
        tv, rel = gaps(trk_pmf(model, k, r, scheme, 50), law)
        assert tv <= 1e-12 and rel <= 1e-9, (k, r, tv, rel)


def _repeated_roots(figure):
    return pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=f"the series of H * A**(r-1) cancels in float64 around A's "
        f"r-1 times repeated roots: worst entry {figure} relative off",
    )


@pytest.mark.parametrize(
    "k,r,scheme,nmax",
    [
        pytest.param(2, 8, "II", 150, marks=_repeated_roots("2.0e-6")),
        pytest.param(2, 10, "I", 200, marks=_repeated_roots("2.7e-6")),
    ],
)
def test_many_runs_at_a_long_horizon_match_the_exact_law(k, r, scheme, nmax):
    law = wait_law(chain_of(IID(0.5)), k, r, scheme, nmax)
    tv, rel = gaps(trk_pmf(IID(0.5), k, r, scheme, nmax), law)
    assert tv <= 1e-12 and rel <= 1e-9, (tv, rel)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_pgf_mass_is_one(model, scheme):
    gf = trk_pgf(model, 2, 3, scheme)
    assert math.isclose(gf(1.0), 1.0, abs_tol=1e-9)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tail_complements_pmf(model, scheme):
    n = 45
    pm = trk_pmf(model, 2, 2, scheme, n)
    dense = np.zeros(n + 1)
    dense[pm.offset : pm.offset + len(pm.probs)] = pm.probs
    tails = trk_tail(model, 2, 2, scheme, n)
    assert np.allclose(tails, 1.0 - np.cumsum(dense), atol=1e-12)
    assert math.isclose(tails[-1], pm.tail, abs_tol=1e-12)


def test_fair_coin_double_run_moments_by_hand():
    m = trk_moments(IID(0.5), 2, 1, Scheme.NON_OVERLAPPING)
    assert math.isclose(m.mean, 6.0, abs_tol=1e-10)
    assert math.isclose(m.second_moment, 58.0, abs_tol=1e-10)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("r", [2, 3])
def test_independent_trial_mean_recursions(p, k, r):
    # renewal bookkeeping: fresh wait per run; at-least adds a geometric
    # run-ending stretch per renewal; overlapping extends by single successes
    model = IID(p)
    q = 1.0 - p
    ev = trk_moments(model, k, 1, Scheme.NON_OVERLAPPING).mean
    mi = trk_moments(model, k, r, Scheme.NON_OVERLAPPING).mean
    mii = trk_moments(model, k, r, Scheme.AT_LEAST).mean
    miii = trk_moments(model, k, r, Scheme.OVERLAPPING).mean
    assert math.isclose(mi, r * ev, rel_tol=1e-9)
    assert math.isclose(mii, r * ev + (r - 1) / q, rel_tol=1e-9)
    assert math.isclose(miii, ev + (r - 1) * (1 + q * ev), rel_tol=1e-9)


@pytest.mark.parametrize("r", [5, 10, 30, 200])
def test_moments_stay_exact_for_many_runs(r):
    # overlapping pairs in fair coin flips: the first takes E = 6, Var = 22
    # trials; each later one takes one success, or a failure and a fresh
    # wait, so E = 4 and Var = 20 per run
    mom = trk_moments(IID(0.5), 2, r, Scheme.OVERLAPPING)
    mean, var = 6 + 4 * (r - 1), 22 + 20 * (r - 1)
    assert math.isclose(mom.mean, mean, rel_tol=1e-12)
    assert math.isclose(mom.second_moment, var + mean**2, rel_tol=1e-12)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_moments_match_series_accumulation(model, scheme):
    k, r = 2, 2
    n = 600
    coeffs = np.array(trk_pgf(model, k, r, scheme).series(n))
    values = np.arange(n + 1, dtype=float)
    mom = trk_moments(model, k, r, scheme)
    assert math.isclose(mom.mean, float(values @ coeffs), rel_tol=1e-10)
    assert math.isclose(
        mom.second_moment, float((values**2) @ coeffs), rel_tol=1e-9
    )


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        trk_pmf(IID(0.5), 0, 1, Scheme.NON_OVERLAPPING, 10)
    with pytest.raises(ValueError):
        trk_pmf(IID(0.5), 2, 0, Scheme.NON_OVERLAPPING, 10)


@pytest.mark.parametrize("model", [IID(0.35), Markov(0.45, 0.3, 0.6)])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("k", [1, 3])
def test_power_ladder_equals_repeated_squaring(model, scheme, k):
    # the batched kernel's series of H times each power must stay
    # bit-identical to the per-r route
    h, a = occurrence_factors(model, k, scheme)
    rows = ladder_series(h, a, 60, 70)
    assert rows.shape == (61, 71)
    for e, row in enumerate(rows):
        assert row.tobytes() == np.array((h * a**e).series(70)).tobytes(), e


@pytest.mark.parametrize(
    "model", [IID(0.37), Markov(0.45, 0.3, 0.6), Markov(0.62, 0.55, 0.35)]
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ladder_series_rows_are_each_powers_series_bit_for_bit(model, k):
    # tobytes() compares signed zeros too; the horizons run from below the
    # factors' degrees to far above them, and every emax to 40 leaves the
    # ladder's top level absent, partial or full
    for scheme in SCHEMES:
        h, a = occurrence_factors(model, k, scheme)
        powers = [a**e for e in range(41)]
        for nmax in sorted({0, 1, 2, k, 26, 60}):
            want = np.array([(h * power).series(nmax) for power in powers])
            for emax in range(41):
                got = ladder_series(h, a, emax, nmax)
                assert got.shape == (emax + 1, nmax + 1)
                assert got.tobytes() == want[: emax + 1].tobytes(), (scheme, nmax, emax)


def test_mass_check_names_a_denominator_that_vanishes_at_one():
    # at p = 0.02 and k = 12 the first-run pgf's denominator sums to 0.0
    h, a = occurrence_factors(IID(0.02), 12, Scheme.NON_OVERLAPPING)
    assert h.den(1.0) == 0.0
    with pytest.raises(ConsistencyError, match="denominator is 0 at z=1"):
        _check_mass(h, a, 12, Scheme.NON_OVERLAPPING)
    h, _ = occurrence_factors(IID(0.5), 1, Scheme.AT_LEAST)
    vanishing = RationalGF(Poly((0.0, 1.0)), Poly((1.0, -1.0)))
    with pytest.raises(ConsistencyError, match="inter-occurrence"):
        _check_mass(h, vanishing, 1, Scheme.AT_LEAST)
    # neither factor depends on r, so a count query names none
    with pytest.raises(ConsistencyError, match="for k=6, scheme=I$") as err:
        counts_pmf(IID(0.05), 20, 6, "I")
    assert "r=" not in str(err.value)
