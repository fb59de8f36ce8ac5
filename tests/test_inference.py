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
        """Stands in for the per-sample likelihood the fitters report."""

        def __init__(self, k, arr):
            self.k, self.arr = k, arr

        def __call__(self, model):
            calls.append(self.k)
            return _loglik_via_pmf(model, self.k, self.arr)

    scored = []

    class CountedScore(inference._SampleScore):
        """The jet likelihood the fitters step on, counted."""

        def __call__(self, x):
            scored.append(self._k)
            return super().__call__(x)

    class CheckedScore(inference._SampleScore):
        """The jet likelihood the fitters step on, held to the old route."""

        def __init__(self, k, arr):
            super().__init__(k, arr)
            self.k, self.arr = k, arr

        def __call__(self, x):
            value, score, hessian = super().__call__(x)
            want = _loglik_via_pmf(_model_at(Markov, x), self.k, self.arr)
            assert value == pytest.approx(want, rel=1e-13)
            scored.append(self.k)
            return value, score, hessian

    monkeypatch.setattr(inference, "_SampleScore", CountedScore)
    direct = run_all()
    evaluations = len(scored)
    assert evaluations > 0
    scored.clear()
    monkeypatch.setattr(inference, "_SampleLikelihood", OldRoute)
    monkeypatch.setattr(inference, "_SampleScore", CheckedScore)
    assert run_all() == direct
    assert len(calls) == 27  # one reported loglik per fit and refit
    assert len(scored) == evaluations  # every Newton step ran on checked values


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


# ---------------------------------------------------------------------------
# the Newton route: jets of the h recursion, exact score and Hessian


def _model_at(family, x):
    if family is IID:
        return IID(inference.expit(x[0]))
    return Markov.stationary_start(inference.expit(x[0]), inference.expit(x[1]))


def _score_at(family, k, arr):
    """The jet likelihood a fit of `family` steps on: the chain's, or its
    restriction to the IID line."""
    score_at = inference._SampleScore(k, arr)
    return score_at.iid_line if family is IID else score_at


def _score_samples(family, k):
    source = IID(0.6) if family is IID else Markov.stationary_start(0.6, 0.4)
    drawn = sample_waiting_times(source, k, 60, SeededStream(400 + k))
    # count 1 and count 2 take no recursion step for a chain (two seeds)
    return [drawn, np.array([k, k + 1, k + 1, k]), np.array([k, k])]


@pytest.mark.parametrize("family", [IID, Markov], ids=["iid", "markov"])
@pytest.mark.parametrize("k", range(1, 7))
def test_score_and_hessian_match_central_differences(family, k):
    dim = 1 if family is IID else 2
    for sample in _score_samples(family, k):
        score_at = _score_at(family, k, _as_sample(sample, k))
        for x in (np.array([0.3, -0.4][:dim]), np.array([-1.1, 1.7][:dim])):
            value, score, hessian = score_at(x)
            eps = 1e-5
            for i in range(dim):
                step = eps * np.eye(dim)[i]
                up, down = score_at(x + step), score_at(x - step)
                slope = (up[0] - down[0]) / (2 * eps)
                assert score[i] == pytest.approx(slope, rel=1e-6, abs=1e-6)
                bend = (up[1] - down[1]) / (2 * eps)
                np.testing.assert_allclose(hessian[i], bend, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(hessian, hessian.T, rtol=1e-14)


@pytest.mark.parametrize("family", [IID, Markov], ids=["iid", "markov"])
@pytest.mark.parametrize("k", range(1, 7))
def test_jet_value_matches_the_plain_likelihood(family, k):
    dim = 1 if family is IID else 2
    for sample in _score_samples(family, k):
        arr = _as_sample(sample, k)
        score_at = _score_at(family, k, arr)
        plain = inference._SampleLikelihood(k, arr)
        for x in (np.array([0.3, -0.4][:dim]), np.array([-1.1, 1.7][:dim])):
            want = plain(_model_at(family, x))
            assert score_at(x)[0] == pytest.approx(want, rel=1e-13)


def test_jet_value_is_minus_infinity_where_the_likelihood_underflows():
    score_at = _score_at(IID, 1, np.array([1, 2, 400]))
    assert score_at(np.array([inference.logit(0.99)])) == (-math.inf, None, None)
    assert score_at(np.array([40.0]))[0] == -math.inf  # p rounds to 1


def _fitted(fit):
    if set(fit.estimates) == {"p"}:
        return IID(fit.estimates["p"])
    return Markov.stationary_start(fit.estimates["alpha"], fit.estimates["beta"])


def _nm_fit(family, k, sample):
    """The Nelder-Mead fit the fitters made before Newton (kept verbatim),
    started where they start: IID at the moment start, a chain at zero."""
    arr = _as_sample(sample, k)
    loglik = inference._SampleLikelihood(k, arr)
    if family is IID:
        start = np.array([inference._moment_start(arr, k)])
    else:
        start = np.zeros(2)
    res = inference.nelder_mead(lambda x: -loglik(_model_at(family, x)), start)
    return -res.fun


@pytest.mark.parametrize("seed", range(6))
def test_newton_fits_are_no_worse_than_nelder_mead(seed):
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3, 5):
        p = float(rng.uniform(0.3, 0.7))
        beta = float(rng.uniform(0.2, 0.8))
        size = int(rng.integers(30, 300))
        for source in (IID(p), Markov.stationary_start(p, beta)):
            stream = SeededStream(1000 * seed + k)
            sample = sample_waiting_times(source, k, size, stream)
            iid, markov = fit_iid(sample, k), fit_markov(sample, k)
            assert iid.converged and markov.converged
            for family, fit in ((IID, iid), (Markov, markov)):
                reference = _nm_fit(family, k, sample)
                assert fit.loglik >= reference - 1e-12 * abs(reference)
            assert markov.loglik >= iid.loglik - 1e-12 * abs(iid.loglik)


@pytest.mark.parametrize("fitter", [fit_iid, fit_markov], ids=["iid", "markov"])
def test_fit_loglik_is_loglik_vk_at_the_estimate(fitter, fair_sample):
    for k, sample in ((2, fair_sample[:300]), (4, np.array([4, 9, 30, 5, 4, 17]))):
        fit = fitter(sample, k)
        assert fit.loglik == loglik_vk(_fitted(fit), k, sample)


@pytest.mark.parametrize("fitter", [fit_iid, fit_markov], ids=["iid", "markov"])
@pytest.mark.parametrize(
    "k,sample", [(1, [1, 2, 400]), (1, [1, 3, 300]), (2, [2, 5, 400])]
)
def test_fits_of_underflow_samples_never_raise_a_traceback(fitter, k, sample):
    # the samples of test_loglik_underflow_is_minus_infinity_on_both_routes:
    # the likelihood underflows at the models there, not at the maximum
    fit = fitter(sample, k)
    assert fit.converged and math.isfinite(fit.loglik)
    assert fit.loglik == loglik_vk(_fitted(fit), k, sample)


@pytest.mark.parametrize("fitter", [fit_iid, fit_markov], ids=["iid", "markov"])
def test_a_long_wait_does_not_strand_the_fit_at_zero_likelihood(fitter):
    # at the old start, p = 0.05, 0.95^19999 underflows: Nelder-Mead never
    # moved and reported a converged fit with loglik -inf
    fit = fitter([1, 2, 20000], 1)
    assert fit.converged and math.isfinite(fit.loglik)
    assert fit.loglik == loglik_vk(_fitted(fit), 1, [1, 2, 20000])


@pytest.mark.parametrize("fitter", [fit_iid, fit_markov], ids=["iid", "markov"])
def test_long_runs_fit_without_overflow(fitter):
    # p^k underflows at k >= 54 for the smallest p the start once tried
    fit = fitter([60, 61, 65], 60)
    assert fit.converged and math.isfinite(fit.loglik)
    assert 0.9 < fit.estimates["p"] < 1.0


@pytest.mark.parametrize("fitter", [fit_iid, fit_markov], ids=["iid", "markov"])
@pytest.mark.parametrize("k,sample", [(2, [2, 2, 2]), (5, [5])])
def test_a_sample_of_shortest_waits_has_no_maximum(fitter, k, sample):
    message = rf"every waiting time equals k={k}.*no maximum"
    with pytest.raises(ValueError, match=message):
        fitter(sample, k)


@pytest.mark.parametrize("fitter", [fit_iid, fit_markov], ids=["iid", "markov"])
@pytest.mark.parametrize("max_iter", [0, -4])
def test_fits_refuse_fewer_than_one_iteration(fitter, max_iter, fair_sample):
    # without a step, the start came back as an unconverged fit
    message = rf"max_iter must be an integer >= 1, got {max_iter}"
    with pytest.raises(ValueError, match=message):
        fitter(fair_sample[:50], 2, max_iter=max_iter)


def test_bootstrap_drops_resamples_of_shortest_waits():
    # half the waits are k, so a few resamples hold nothing else
    sample = np.array([2, 2, 2, 5, 7, 9])
    rng = SeededStream(2).generator()
    shortest = sum((sample[rng.integers(0, 6, 6)] == 2).all() for _ in range(60))
    assert shortest == 3
    _, failures = _bootstrap(sample, 2, "iid", 60, SeededStream(2))
    assert failures == shortest


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
)
def test_ascent_steps_uphill_by_the_eigenvalue_magnitudes(score, hxx, hxy, hyy):
    g = np.array(score)
    hessian = np.array([[hxx, hxy], [hxy, hyy]])
    step, gain = inference._ascent(g, hessian)
    values, vectors = np.linalg.eigh(-hessian)
    floor = 1e-12 * max(np.abs(values).max(), 1.0)
    mags = np.maximum(np.abs(values), floor)
    along = vectors.T @ g
    want = vectors @ (along / mags)
    # either route has eigenvectors good to a few ulps, which 1/floor
    # scales, and eigenvalues good to a few ulps of the largest
    big = np.abs(values).max()
    slack = (
        1e-14 * np.abs(g).sum() / floor
        + 1e-14 * big * (np.abs(along) / mags**2).sum()
        + 1e-9 * np.abs(want).max()
    )
    np.testing.assert_allclose(step, want, rtol=0, atol=slack)
    assert g @ step >= 0.0
    assert gain == pytest.approx(0.5 * g @ step, rel=1e-9, abs=1e-300)
    one_step, one_gain = inference._ascent(g[:1], hessian[:1, :1])
    assert one_step[0] == g[0] / max(abs(hxx), 1e-12 * max(abs(hxx), 1.0))
    assert one_gain == pytest.approx(0.5 * g[0] * one_step[0], rel=1e-12)


def _counted_evaluations(monkeypatch):
    evaluations = []
    score = inference._SampleScore.__call__
    monkeypatch.setattr(
        inference._SampleScore,
        "__call__",
        lambda self, x: evaluations.append(x) or score(self, x),
    )
    return evaluations


def test_newton_stops_where_rounding_hides_the_gain(monkeypatch):
    # a bootstrap resample whose IID optimum leaves a predicted gain of a
    # few 1e-13 at a loglik near -900, below one unit in its last place:
    # no step can show it, and the fit must stop rather than spin
    source = Markov.stationary_start(0.455, 0.433)
    drawn = sample_waiting_times(source, 2, 350, SeededStream(71052))
    rng = SeededStream(71053).generator()
    for _ in range(3):
        sample = drawn[rng.integers(0, drawn.size, drawn.size)]
    evaluations = _counted_evaluations(monkeypatch)
    fit = fit_iid(sample, 2)
    assert fit.converged and fit.iterations < 10
    assert len(evaluations) < 20


@pytest.mark.parametrize("alpha,beta", [(0.465, 0.373), (0.457, 0.356)])
def test_a_maximum_on_the_boundary_is_reached_in_few_steps(alpha, beta):
    # the chain's likelihood here grows toward beta = 0, which one edge
    # step reaches once logit steps have brought beta near it
    sample = sample_waiting_times(
        Markov.stationary_start(alpha, beta), 3, 500, SeededStream(71013)
    )
    fit = fit_markov(sample, 3)
    assert fit.converged and fit.iterations <= 30
    assert fit.estimates["beta"] < 1e-9
    assert fit.loglik >= _nm_fit(Markov, 3, sample) - 1e-12 * abs(fit.loglik)


# the edge step: a maximum on beta -> 0 in one bound-constrained step

EDGE_SAMPLES = [
    # (alpha, beta, k, draws, seed) of a chain whose fit ends on beta -> 0;
    # the first two are the samples of the test above
    (0.465, 0.373, 3, 500, 71013),
    (0.457, 0.356, 3, 500, 71013),
    (0.45, 0.4, 2, 300, 4),
    (0.6, 0.4, 4, 400, 2),
    (0.65, 0.4, 5, 350, 3),
]


@pytest.mark.parametrize("alpha,beta,k,draws,seed", EDGE_SAMPLES)
def test_a_maximum_on_the_edge_takes_few_evaluations(
    monkeypatch, alpha, beta, k, draws, seed
):
    # logit Newton steps crept toward beta = 0 by at most 1 each, and the
    # first sample took 44 evaluations over 23 iterations
    sample = sample_waiting_times(
        Markov.stationary_start(alpha, beta), k, draws, SeededStream(seed)
    )
    evaluations = _counted_evaluations(monkeypatch)
    fit = fit_markov(sample, k)
    assert fit.converged and fit.estimates["beta"] < 1e-9
    assert len(evaluations) <= 15
    assert fit.loglik >= _nm_fit(Markov, k, sample) - 1e-12 * abs(fit.loglik)


@pytest.mark.parametrize(
    "alpha,k,draws,seed", [(0.4, 2, 500, 2), (0.45, 2, 1000, 6), (0.4, 2, 500, 53)]
)
def test_a_small_positive_beta_stays_inside(alpha, k, draws, seed):
    # on these samples an edge trial gains but its beta score points back
    # into (0, 1), so the fit must not stop on the edge
    sample = sample_waiting_times(
        Markov.stationary_start(alpha, 0.05), k, draws, SeededStream(seed)
    )
    fit = fit_markov(sample, k)
    loglik = inference._SampleLikelihood(k, _as_sample(sample, k))
    reference = inference.nelder_mead(
        lambda x: -loglik(_model_at(Markov, x)), np.zeros(2), tol_f=1e-12
    )
    nm_beta = inference.expit(float(reference.x[1]))
    assert fit.converged and 5e-3 < fit.estimates["beta"] < 0.1
    assert fit.estimates["beta"] == pytest.approx(nm_beta, rel=1e-3)
    assert fit.loglik >= -reference.fun - 1e-12 * abs(fit.loglik)
