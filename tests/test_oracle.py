"""Exhaustive enumeration and seeded simulation as independent referees."""

import numpy as np
import pytest

from successruns import oracle
from successruns.models import IID, Markov, tv_distance
from successruns.oracle import (
    MAX_ENUM_TRIALS,
    FirstRunWait,
    LongestRun,
    RthRunWait,
    RunCount,
    SeededStream,
    enumerate_exact,
    enumerate_reference,
    sample_waiting_times,
    simulate,
)
from successruns.rth_waiting import Scheme

MODELS = [IID(0.5), IID(0.25), Markov(0.45, 0.3, 0.6)]


def test_stream_yields_identical_generators():
    s = SeededStream(123)
    a = s.generator().integers(0, 1 << 30, size=32)
    b = s.generator().integers(0, 1 << 30, size=32)
    assert np.array_equal(a, b)


def test_stream_seeds_differ():
    a = SeededStream(1).generator().random(8)
    b = SeededStream(2).generator().random(8)
    assert not np.array_equal(a, b)


def test_statistic_scheme_coercion():
    s = RthRunWait(2, 1, "I")
    assert s.scheme is Scheme.NON_OVERLAPPING
    c = RunCount(3, "iii")
    assert c.scheme is Scheme.OVERLAPPING


def test_enumeration_horizon_is_bounded():
    with pytest.raises(ValueError):
        enumerate_exact(IID(0.5), MAX_ENUM_TRIALS + 1, LongestRun())
    with pytest.raises(ValueError):
        enumerate_exact(IID(0.5), 0, LongestRun())


def test_first_run_wait_equals_rth_run_special_case():
    for model in MODELS:
        a = enumerate_exact(model, 10, FirstRunWait(2))
        b = enumerate_exact(model, 10, RthRunWait(2, 1, Scheme.NON_OVERLAPPING))
        assert tv_distance(a, b) == 0.0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "stat",
    [
        FirstRunWait(2),
        RthRunWait(2, 2, Scheme.AT_LEAST),
        RthRunWait(2, 2, Scheme.OVERLAPPING),
        RunCount(2, Scheme.NON_OVERLAPPING),
        LongestRun(),
    ],
)
def test_vectorized_and_scalar_enumeration_agree(model, stat):
    for n in (3, 9, 13):
        fast = enumerate_exact(model, n, stat)
        slow = enumerate_reference(model, n, stat)
        assert tv_distance(fast, slow) < 1e-14


def test_enumeration_mass_and_censoring():
    pm = enumerate_exact(IID(0.5), 6, FirstRunWait(3))
    assert pm.offset == 0
    assert len(pm.probs) == 7
    total = float(np.sum(pm.probs)) + pm.tail
    assert abs(total - 1.0) < 1e-12
    assert pm.tail > 0.0  # six trials often end before a triple run


def test_simulate_is_seeded_and_censors():
    model = Markov(0.45, 0.3, 0.6)
    stat = FirstRunWait(3)
    a = simulate(model, 8, stat, 500, SeededStream(77))
    b = simulate(model, 8, stat, 500, SeededStream(77))
    assert a.dtype == np.int64
    assert np.array_equal(a, b)
    assert np.any(a == -1)
    valid = a[a >= 0]
    assert valid.min() >= 3
    assert valid.max() <= 8


def test_simulate_matches_enumeration_in_distribution():
    model = IID(0.6)
    stat = RunCount(2, Scheme.NON_OVERLAPPING)
    n, reps = 8, 20000
    draws = simulate(model, n, stat, reps, SeededStream(2024))
    exact = enumerate_exact(model, n, stat)
    observed = np.bincount(draws, minlength=len(exact.probs)) / reps
    # fixed seed makes this a frozen regression, not a flaky coin flip
    assert np.abs(observed - exact.probs).sum() < 0.02


def test_sample_waiting_times_never_censors():
    model = IID(0.3)
    s = sample_waiting_times(model, 2, 400, SeededStream(9))
    assert s.dtype == np.int64
    assert s.min() >= 2
    t = sample_waiting_times(model, 2, 400, SeededStream(9))
    assert np.array_equal(s, t)


def test_sample_waiting_times_tracks_exact_mean():
    model = IID(0.5)
    s = sample_waiting_times(model, 2, 5000, SeededStream(31))
    assert abs(float(np.mean(s)) - 6.0) < 0.15


def test_sample_waiting_times_refuses_unbounded_horizons(monkeypatch):
    with pytest.raises(ValueError, match="mean"):
        sample_waiting_times(IID(0.1), 8, 10, SeededStream(1))
    # a horizon that keeps falling short is doubled only up to the cap
    monkeypatch.setattr(oracle, "default_vmax", lambda model, k: 2)
    monkeypatch.setattr(oracle, "MAX_HORIZON", 16)
    with pytest.raises(ValueError, match="horizon of 32 trials"):
        sample_waiting_times(IID(0.5), 2, 1000, SeededStream(1))
