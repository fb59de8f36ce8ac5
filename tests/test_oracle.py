"""Exhaustive enumeration and seeded simulation as independent referees."""

import numpy as np
import pytest

from successruns import oracle
from successruns.geometric import longest_run_pmf
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
# every kind of statistic under every scheme, for k <= 3
ALL_STATS = (
    [LongestRun(), FirstRunWait(2)]
    + [RthRunWait(k, r, s) for k in (1, 2, 3) for r in (1, 2) for s in Scheme]
    + [RunCount(k, s) for k in (1, 2, 3) for s in Scheme]
)


# The column scan that enumerate_exact replaced, kept as the bit-for-bit
# reference: an n-column 0/1 matrix per chunk, the streak automaton run down
# its columns, and the closed-form probabilities from its column sums.
def _apply_stat(bits, stat):
    rows, n = bits.shape
    if isinstance(stat, LongestRun):
        streak = np.zeros(rows, dtype=np.int64)
        best = np.zeros(rows, dtype=np.int64)
        for j in range(n):
            streak = (streak + 1) * bits[:, j]
            np.maximum(best, streak, out=best)
        return best, np.ones(rows, dtype=bool)

    k, r, scheme = oracle._stat_fields(stat)
    streak = np.zeros(rows, dtype=np.int64)
    if r is None:
        count = np.zeros(rows, dtype=np.int64)
    else:
        cum = np.zeros(rows, dtype=np.int64)
        wait = np.zeros(rows, dtype=np.int64)
        found = np.zeros(rows, dtype=bool)
    for j in range(n):
        streak = (streak + 1) * bits[:, j]
        if scheme is Scheme.OVERLAPPING:
            hit = streak >= k
        else:
            hit = streak == k
            if scheme is Scheme.NON_OVERLAPPING:
                streak = np.where(hit, 0, streak)
        if r is None:
            count += hit
        else:
            cum += hit
            newly = ~found & (cum >= r)
            wait[newly] = j + 1
            found |= newly
    if r is None:
        return count, np.ones(rows, dtype=bool)
    return wait, found


def _chunk_probabilities(bits, model):
    rows, n = bits.shape
    if isinstance(model, IID):
        ones = bits.sum(axis=1, dtype=np.int64)
        weight = np.array([model.p**i * model.q ** (n - i) for i in range(n + 1)])
        return weight[ones]
    start = np.where(bits[:, 0] == 1, model.p1, model.q1)
    prev, cur = bits[:, :-1], bits[:, 1:]
    c11 = np.sum(prev & cur, axis=1, dtype=np.int64)
    c10 = np.sum(prev & (1 - cur), axis=1, dtype=np.int64)
    c01 = np.sum((1 - prev) & cur, axis=1, dtype=np.int64)
    c00 = (n - 1) - c11 - c10 - c01
    return (
        start
        * np.power(model.alpha, c11)
        * np.power(1.0 - model.alpha, c10)
        * np.power(1.0 - model.beta, c01)
        * np.power(model.beta, c00)
    )


def _column_scan_enumeration(model, n, stat):
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    acc = np.zeros(n + 1)
    tail = 0.0
    for lo in range(0, 1 << n, oracle._CHUNK_ROWS):
        hi = min(lo + oracle._CHUNK_ROWS, 1 << n)
        ids = np.arange(lo, hi, dtype=np.uint64)
        bits = ((ids[:, None] >> shifts) & 1).astype(np.int8)
        probs = _chunk_probabilities(bits, model)
        values, defined = _apply_stat(bits, stat)
        acc += np.bincount(values[defined], weights=probs[defined], minlength=n + 1)
        tail += float(probs[~defined].sum())
    return acc, tail


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


@pytest.mark.parametrize("model", [IID(0.25), Markov(0.45, 0.3, 0.6)])
@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_prefix_tree_matches_the_column_scan_bit_for_bit(model, n):
    for stat in ALL_STATS:
        pm = enumerate_exact(model, n, stat)
        acc, tail = _column_scan_enumeration(model, n, stat)
        assert pm.offset == 0
        assert np.array_equal(pm.probs, acc), stat
        assert pm.tail == tail, stat


@pytest.mark.parametrize("model", [IID(0.25), Markov(0.45, 0.3, 0.6)])
def test_enumeration_across_many_chunks(model, monkeypatch):
    # 32-row chunks put up to seven trials in every chunk's fixed prefix
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 1 << 5)
    one_of_each_kind = [
        LongestRun(),
        RthRunWait(2, 2, Scheme.AT_LEAST),
        RunCount(2, Scheme.OVERLAPPING),
    ]
    for n, stats in ((4, ALL_STATS), (9, ALL_STATS), (12, one_of_each_kind)):
        for stat in stats:
            pm = enumerate_exact(model, n, stat)
            assert tv_distance(pm, enumerate_reference(model, n, stat)) < 1e-14
            acc, tail = _column_scan_enumeration(model, n, stat)
            assert np.array_equal(pm.probs, acc) and pm.tail == tail


@pytest.mark.parametrize("model", [IID(0.5), Markov(0.45, 0.3, 0.6)])
def test_enumeration_at_the_largest_horizon(model):
    # 2**24 sequences in sixteen chunks of 2**20
    n = MAX_ENUM_TRIALS
    exact = enumerate_exact(model, n, LongestRun())
    assert tv_distance(exact, longest_run_pmf(model, n)) < 1e-10


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
