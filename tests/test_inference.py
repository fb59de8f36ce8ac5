"""Likelihood fitting from waiting-time samples."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from successruns import inference
from successruns.geometric import MAX_HORIZON, vk_pmf
from successruns.inference import (
    FitResult,
    _as_sample,
    _bootstrap,
    bootstrap_se,
    fit_iid,
    fit_markov,
    loglik_vk,
)
from successruns.models import IID, Markov
from successruns.oracle import SeededStream, sample_waiting_times


def _loglik_via_pmf(model, k: int, sample) -> float:
    """The likelihood as it read a full Pmf from vk_pmf (kept verbatim)."""
    arr = _as_sample(sample, k)
    pm = vk_pmf(model, k, vmax=int(arr.max()))
    idx = arr - pm.offset
    inside = (idx >= 0) & (idx < len(pm.probs))
    if not np.all(inside):
        return -math.inf
    probs = pm.probs[idx]
    if np.any(probs <= 0.0):
        return -math.inf
    return float(np.log(probs).sum())


LOGLIK_MODELS = [
    IID(0.3),
    IID(0.72),
    Markov(0.4, 0.6, 0.3),
    Markov.stationary_start(0.7, 0.45),
]


@pytest.fixture(scope="module")
def fair_sample():
    return sample_waiting_times(IID(0.5), 2, 2000, SeededStream(20260822))


def test_fit_iid_recovers_generator(fair_sample):
    fit = fit_iid(fair_sample, 2)
    assert isinstance(fit, FitResult)
    assert set(fit.estimates) == {"p"}
    assert abs(fit.estimates["p"] - 0.5) < 0.05
    assert fit.converged
    assert fit.iterations > 0
    assert math.isfinite(fit.loglik)
    assert fit.standard_errors is None


def test_fit_is_deterministic(fair_sample):
    a = fit_iid(fair_sample, 2)
    b = fit_iid(fair_sample, 2)
    assert a.estimates == b.estimates
    assert a.loglik == b.loglik


def test_fit_iid_maximizes_the_likelihood(fair_sample):
    fit = fit_iid(fair_sample, 2)
    p_hat = fit.estimates["p"]

    def loglik(p):
        from successruns.geometric import vk_pmf

        pm = vk_pmf(IID(p), 2, vmax=int(fair_sample.max()) + 1)
        return float(np.sum(np.log([pm.p(int(v)) for v in fair_sample])))

    best = loglik(p_hat)
    assert math.isclose(best, fit.loglik, rel_tol=1e-6)
    for off in (-0.02, -0.005, 0.005, 0.02):
        assert loglik(p_hat + off) < best + 1e-9


def test_fit_markov_recovers_generator():
    source = Markov.stationary_start(0.6, 0.5)
    sample = sample_waiting_times(source, 2, 1500, SeededStream(20260823))
    fit = fit_markov(sample, 2)
    assert set(fit.estimates) == {"alpha", "beta", "p"}
    assert fit.converged
    assert abs(fit.estimates["alpha"] - 0.6) < 0.08
    assert abs(fit.estimates["beta"] - 0.5) < 0.08
    # the reported p is the stationary success rate of the fitted chain
    m = Markov.stationary_start(fit.estimates["alpha"], fit.estimates["beta"])
    assert math.isclose(fit.estimates["p"], m.stationary, abs_tol=1e-12)


def test_bootstrap_se_scale_and_determinism(fair_sample):
    short = fair_sample[:200]
    se = bootstrap_se(short, 2, "iid", 200, SeededStream(5))
    assert set(se) == {"p"}
    assert 0.01 <= se["p"] <= 0.06
    again = bootstrap_se(short, 2, "iid", 200, SeededStream(5))
    assert se == again


def test_bootstrap_se_shrinks_with_sample_size(fair_sample):
    small = bootstrap_se(fair_sample[:150], 2, "iid", 120, SeededStream(6))
    large = bootstrap_se(fair_sample, 2, "iid", 120, SeededStream(6))
    assert large["p"] < small["p"]


def test_bootstrap_markov_keys(fair_sample):
    se = bootstrap_se(fair_sample[:200], 2, "markov", 60, SeededStream(8))
    assert set(se) == {"alpha", "beta", "p"}
    assert all(v > 0 for v in se.values())


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_iid(np.array([], dtype=np.int64), 2)
    with pytest.raises(ValueError):
        fit_iid(np.array([5, 1], dtype=np.int64), 2)  # a wait below k trials
    with pytest.raises(ValueError):
        bootstrap_se(np.array([3, 4, 5], dtype=np.int64), 2, "iid", 1, SeededStream(1))
    with pytest.raises(ValueError):
        bootstrap_se(np.array([3, 4, 5], dtype=np.int64), 2, "weibull", 8, SeededStream(1))


@pytest.mark.parametrize("model", LOGLIK_MODELS, ids=repr)
@pytest.mark.parametrize("k", range(1, 7))
def test_loglik_equals_the_pmf_route_bit_for_bit(model, k):
    drawn = sample_waiting_times(model, k, 40, SeededStream(100 + k))
    for sample in (drawn, np.concatenate(([k, k], drawn, [k])), np.array([k])):
        want = _loglik_via_pmf(model, k, sample)
        assert loglik_vk(model, k, sample) == want
        assert math.isfinite(want)


@pytest.mark.parametrize(
    "model,k,sample",
    [
        (IID(0.99), 1, [1, 2, 400]),  # q^399 underflows
        (Markov.stationary_start(0.5, 0.01), 1, [1, 3, 300]),  # beta^298
        (IID(0.999), 2, [2, 5, 400]),  # about 0.032^398
    ],
)
def test_loglik_underflow_is_minus_infinity_on_both_routes(model, k, sample):
    assert _loglik_via_pmf(model, k, sample) == -math.inf
    assert loglik_vk(model, k, sample) == -math.inf


def test_loglik_rejects_what_the_pmf_route_rejected():
    with pytest.raises(ValueError, match="run length k"):
        loglik_vk(IID(0.5), 0, [1, 2])
    with pytest.raises(ValueError, match="below k=3"):
        loglik_vk(IID(0.5), 3, [2, 5])


def test_fits_are_unchanged_by_the_likelihood_route(monkeypatch):
    iid_sample = sample_waiting_times(IID(0.55), 3, 120, SeededStream(31))
    chain = Markov.stationary_start(0.6, 0.4)
    markov_sample = sample_waiting_times(chain, 2, 120, SeededStream(32))

    def run_all():
        return (
            fit_iid(iid_sample, 3),
            fit_markov(iid_sample, 3),
            fit_markov(markov_sample, 2),
            bootstrap_se(iid_sample, 3, "iid", 12, SeededStream(33)),
            bootstrap_se(markov_sample, 2, "markov", 12, SeededStream(34)),
        )

    calls = []

    class OldRoute:
        """Stands in for the per-sample likelihood the fitters build."""

        def __init__(self, family, k, arr):
            self.k, self.arr = k, arr

        def __call__(self, model):
            calls.append(self.k)
            return _loglik_via_pmf(model, self.k, self.arr)

    direct = run_all()
    monkeypatch.setattr(inference, "_SampleLikelihood", OldRoute)
    assert run_all() == direct
    assert len(calls) > 1000  # the fitters really ran the replaced route


@pytest.mark.parametrize(
    "call",
    [
        lambda x: loglik_vk(IID(0.5), 2, x),
        lambda x: fit_iid(x, 2),
        lambda x: fit_markov(x, 2),
        lambda x: bootstrap_se(x, 2, "iid", 4, SeededStream(1)),
    ],
    ids=["loglik_vk", "fit_iid", "fit_markov", "bootstrap_se"],
)
def test_waits_beyond_the_horizon_cap_are_refused(call):
    # just above the cap, so a missing guard costs a table of about 80 MB
    sample = np.array([3, 5, MAX_HORIZON + 2 + 1], dtype=np.int64)
    with pytest.raises(ValueError, match=rf"{MAX_HORIZON + 3} trials.*{MAX_HORIZON}"):
        call(sample)


def test_bootstrap_counts_the_refits_it_drops(monkeypatch, fair_sample):
    short = fair_sample[:100]
    errors, failures = _bootstrap(short, 2, "iid", 10, SeededStream(12))
    assert failures == 0
    assert errors == bootstrap_se(short, 2, "iid", 10, SeededStream(12))
    refits = []

    def first_refit_fails(sample, k):
        refits.append(k)
        if len(refits) == 1:
            raise ValueError("refit failed")
        return fit_iid(sample, k)

    monkeypatch.setitem(inference._FITTERS, "iid", first_refit_fails)
    errors, failures = _bootstrap(short, 2, "iid", 10, SeededStream(12))
    assert (failures, len(refits)) == (1, 10)
    assert set(errors) == {"p"} and errors["p"] > 0.0
    refits.clear()  # the public dict is unchanged: standard errors only
    assert bootstrap_se(short, 2, "iid", 10, SeededStream(12)) == errors


_coord = st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False)


@st.composite
def _simplices(draw):
    dim = draw(st.sampled_from([1, 2]))  # 2 or 3 vertices
    return [np.array(draw(st.lists(_coord, min_size=dim, max_size=dim)))
            for _ in range(dim + 1)]


@settings(max_examples=300, deadline=None)
@given(_simplices())
def test_simplex_bookkeeping_matches_the_per_vertex_loops(simplex):
    dim = simplex[0].size
    old_spread = max(np.max(np.abs(v - simplex[0])) for v in simplex[1:])
    new_spread = np.abs(np.array(simplex[1:]) - simplex[0]).max()
    assert new_spread.tobytes() == old_spread.tobytes()
    old_centroid = np.mean(simplex[:-1], axis=0)
    new_centroid = np.add.reduce(np.array(simplex[:-1]), axis=0) / dim
    assert new_centroid.tobytes() == old_centroid.tobytes()
