"""Exhaustive enumeration and seeded simulation for run statistics.

This module is the ground truth the analytic routes are judged against.
``enumerate_exact`` walks every 0/1 sequence of length n (vectorized over
chunks of sequence ids), evaluates a run statistic on each, and accumulates
exact sequence probabilities; nothing in it shares code with the generating
function machinery, so agreement between the two is meaningful evidence.
``enumerate_reference`` recomputes the same tables through the scalar
counters in ``run_counts`` and exists purely to validate the vectorized
engine on small n.

``simulate`` and ``sample_waiting_times`` produce reproducible Monte Carlo
draws from an explicit seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometric import MAX_HORIZON, default_vmax, horizon_error, vk_pmf
from .models import ConsistencyError, IID, Markov, Pmf, TrialModel
from .run_counts import count_runs, first_occurrence_index
from .rth_waiting import Scheme

MAX_ENUM_TRIALS = 24
_CHUNK_ROWS = 1 << 20


@dataclass(frozen=True)
class SeededStream:
    """A reproducible randomness source: fixed seed, named bit generator."""

    seed: int
    algorithm: str = "pcg64"

    def __post_init__(self):
        if self.algorithm != "pcg64":
            raise ValueError(
                f"unsupported bit generator {self.algorithm!r}; only 'pcg64' "
                "is reproducible across the suite"
            )

    def generator(self) -> np.random.Generator:
        """A fresh generator; two calls yield identical streams."""
        return np.random.Generator(np.random.PCG64(self.seed))


@dataclass(frozen=True)
class FirstRunWait:
    """Trial index of the first completed k-run (scheme-independent)."""

    k: int


@dataclass(frozen=True)
class RthRunWait:
    """Trial index at which the r-th counted run completes."""

    k: int
    r: int
    scheme: Scheme

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme.from_label(self.scheme))


@dataclass(frozen=True)
class RunCount:
    """Number of counted k-runs in the full horizon."""

    k: int
    scheme: Scheme

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme.from_label(self.scheme))


@dataclass(frozen=True)
class LongestRun:
    """Length of the longest success run in the full horizon."""


Statistic = FirstRunWait | RthRunWait | RunCount | LongestRun


def _stat_fields(stat: Statistic) -> tuple[int, int | None, Scheme]:
    """Normalize a statistic to (k, r-or-None-for-counting, scheme)."""
    if isinstance(stat, FirstRunWait):
        return stat.k, 1, Scheme.NON_OVERLAPPING
    if isinstance(stat, RthRunWait):
        return stat.k, stat.r, stat.scheme
    if isinstance(stat, RunCount):
        return stat.k, None, stat.scheme
    if isinstance(stat, LongestRun):
        return 1, None, Scheme.NON_OVERLAPPING
    raise TypeError(f"unknown statistic {stat!r}")


def _validate_stat(stat: Statistic) -> None:
    k, r, _ = _stat_fields(stat)
    if not isinstance(stat, LongestRun) and k < 1:
        raise ValueError(f"run length k must be >= 1, got {k}")
    if r is not None and r < 1:
        raise ValueError(f"occurrence index r must be >= 1, got {r}")


def _apply_stat(bits: np.ndarray, stat: Statistic) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a statistic on every row of a 0/1 matrix.

    Returns (values, defined): ``defined`` is False on rows where a waiting
    statistic never materializes within the horizon (counting statistics are
    always defined).  Columns are scanned left to right with the streak
    automaton each scheme is defined by.
    """
    rows, n = bits.shape
    if isinstance(stat, LongestRun):
        streak = np.zeros(rows, dtype=np.int64)
        best = np.zeros(rows, dtype=np.int64)
        for j in range(n):
            streak = (streak + 1) * bits[:, j]
            np.maximum(best, streak, out=best)
        return best, np.ones(rows, dtype=bool)

    k, r, scheme = _stat_fields(stat)
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


def _chunk_probabilities(bits: np.ndarray, model: TrialModel) -> np.ndarray:
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


def enumerate_exact(model: TrialModel, n: int, stat: Statistic) -> Pmf:
    """Exact distribution of a run statistic over all 2**n sequences.

    Sequences are enumerated in chunks of at most 2**20 integer ids (the
    first trial is the highest-order bit) and accumulated in fixed order, so
    results are bit-for-bit reproducible.  Waiting statistics put the mass
    of sequences with no r-th occurrence into the pmf tail.

    Raises
    ------
    ValueError
        If n exceeds MAX_ENUM_TRIALS (use :func:`simulate` beyond that).
    ConsistencyError
        If the accumulated mass misses 1 by more than 1e-12.
    """
    if not 1 <= n <= MAX_ENUM_TRIALS:
        raise ValueError(
            f"exhaustive enumeration supports 1 <= n <= {MAX_ENUM_TRIALS}, "
            f"got n={n}; use simulate() for longer horizons"
        )
    _validate_stat(stat)
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    acc = np.zeros(n + 1)
    tail = 0.0
    for lo in range(0, 1 << n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, 1 << n)
        ids = np.arange(lo, hi, dtype=np.uint64)
        bits = ((ids[:, None] >> shifts) & 1).astype(np.int8)
        probs = _chunk_probabilities(bits, model)
        values, defined = _apply_stat(bits, stat)
        acc += np.bincount(values[defined], weights=probs[defined], minlength=n + 1)
        tail += float(probs[~defined].sum())
    total = float(acc.sum()) + tail
    if abs(total - 1.0) > 1e-12:
        raise ConsistencyError(
            f"enumerated mass is {total!r}, off by {total - 1.0:.3e}"
        )
    return Pmf(offset=0, probs=acc, tail=tail)


def _sequence_probability(bits: tuple[int, ...], model: TrialModel) -> float:
    if isinstance(model, IID):
        ones = sum(bits)
        return model.p**ones * model.q ** (len(bits) - ones)
    prob = model.p1 if bits[0] else model.q1
    for prev, cur in zip(bits, bits[1:]):
        if prev:
            prob *= model.alpha if cur else 1.0 - model.alpha
        else:
            prob *= (1.0 - model.beta) if cur else model.beta
    return prob


def enumerate_reference(model: TrialModel, n: int, stat: Statistic) -> Pmf:
    """Scalar re-derivation of :func:`enumerate_exact` for small n.

    Walks the same 2**n sequences one at a time through the definitional
    counters in ``run_counts``; intended only to validate the vectorized
    engine, so the horizon is capped at 16 trials.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"reference enumeration supports 1 <= n <= 16, got {n}")
    _validate_stat(stat)
    acc = np.zeros(n + 1)
    tail = 0.0
    for bits in product((0, 1), repeat=n):
        prob = _sequence_probability(bits, model)
        if isinstance(stat, LongestRun):
            best = streak = 0
            for b in bits:
                streak = streak + 1 if b else 0
                best = max(best, streak)
            acc[best] += prob
        elif isinstance(stat, RunCount):
            acc[count_runs(bits, stat.k, stat.scheme)] += prob
        else:
            k, r, scheme = _stat_fields(stat)
            idx = first_occurrence_index(bits, k, r, scheme)
            if idx is None:
                tail += prob
            else:
                acc[idx] += prob
    return Pmf(offset=0, probs=acc, tail=tail)


def _draw_sequences(
    model: TrialModel, n: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    if isinstance(model, IID):
        return (rng.random((reps, n)) < model.p).astype(np.int8)
    bits = np.empty((reps, n), dtype=np.int8)
    bits[:, 0] = rng.random(reps) < model.p1
    for j in range(1, n):
        success_prob = np.where(bits[:, j - 1] == 1, model.alpha, 1.0 - model.beta)
        bits[:, j] = rng.random(reps) < success_prob
    return bits


def simulate(
    model: TrialModel,
    n: int,
    stat: Statistic,
    reps: int,
    stream: SeededStream,
) -> np.ndarray:
    """Monte Carlo draws of a run statistic over a fixed horizon.

    Returns an int64 array of length ``reps``; waiting statistics report -1
    on replications where the occurrence never happens within n trials.
    Identical (model, n, stat, reps, stream) inputs reproduce the array
    exactly.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if n < 1:
        raise ValueError(f"horizon n must be >= 1, got {n}")
    _validate_stat(stat)
    rng = stream.generator()
    bits = _draw_sequences(model, n, reps, rng)
    values, defined = _apply_stat(bits, stat)
    values = values.astype(np.int64)
    values[~defined] = -1
    return values


def sample_waiting_times(
    model: TrialModel, k: int, reps: int, stream: SeededStream
) -> np.ndarray:
    """Exact draws of the first k-run waiting time, by inverse transform.

    The cdf table is extended (doubling the horizon) until it covers every
    uniform draw, so no draw is censored; the result is an int64 array of
    waiting times.  Raises ValueError if that needs a horizon beyond
    MAX_HORIZON.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    rng = stream.generator()
    u = rng.random(reps)
    vmax = default_vmax(model, k)
    while True:
        pm = vk_pmf(model, k, vmax=vmax)
        cdf = np.cumsum(pm.probs)
        idx = np.searchsorted(cdf, u, side="right")
        if idx.max() < len(cdf):
            return (pm.offset + idx).astype(np.int64)
        vmax *= 2
        if vmax > MAX_HORIZON:
            raise horizon_error(model, k, vmax)
