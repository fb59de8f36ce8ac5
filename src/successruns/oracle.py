"""Exhaustive enumeration and seeded simulation for run statistics.

This module is the ground truth the analytic routes are judged against.
``enumerate_exact`` walks every 0/1 sequence of length n (as a prefix tree,
vectorized over chunks of sequence ids), evaluates a run statistic on each,
and accumulates exact sequence probabilities; nothing in it shares code with the generating
function machinery, so agreement between the two is meaningful evidence.
``enumerate_reference`` recomputes the same tables through the scalar
counters in ``run_counts`` and exists purely to validate the vectorized
engine on small n.

``simulate`` and ``sample_waiting_times`` produce reproducible Monte Carlo
draws from an explicit seeded stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometric import MAX_HORIZON, _covering_horizon, horizon_error, vk_pmf
from .models import ConsistencyError, IID, Markov, Pmf, TrialModel, _check_integer
from .run_counts import count_runs, first_occurrence_index
from .rth_waiting import Scheme

MAX_ENUM_TRIALS = 24
_CHUNK_ROWS = 1 << 20


@dataclass(frozen=True)
class SeededStream:
    """A reproducible randomness source: a fixed seed for the PCG64 bit
    generator."""

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, least=0))

    def generator(self) -> np.random.Generator:
        """A fresh generator; two calls yield identical streams."""
        return np.random.Generator(np.random.PCG64(self.seed))


@dataclass(frozen=True)
class FirstRunWait:
    """Trial index of the first completed k-run (scheme-independent)."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _check_integer("run length k", self.k))


@dataclass(frozen=True)
class RthRunWait:
    """Trial index at which the r-th counted run completes."""

    k: int
    r: int
    scheme: Scheme

    def __post_init__(self):
        object.__setattr__(self, "k", _check_integer("run length k", self.k))
        object.__setattr__(self, "r", _check_integer("occurrence index r", self.r))
        object.__setattr__(self, "scheme", Scheme.from_label(self.scheme))


@dataclass(frozen=True)
class RunCount:
    """Number of counted k-runs in the full horizon."""

    k: int
    scheme: Scheme

    def __post_init__(self):
        object.__setattr__(self, "k", _check_integer("run length k", self.k))
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


class _Automaton:
    """The streak automaton that defines a statistic, one trial at a time.

    A state is a tuple of integer arrays with one entry per sequence: the
    current streak, then one or two counters, the last of which is the
    statistic's value.  They are the longest streak; the number of counted
    runs; or the running count and the waiting time, which stays 0 while
    the r-th run has not completed.  :meth:`step` appends trial j (0-based)
    with value ``bit``, a 0/1 array or one scalar for every sequence; the
    enumeration and the simulator drive the same step.
    """

    def __init__(self, stat: Statistic):
        self.longest = isinstance(stat, LongestRun)
        self.k, self.r, self.scheme = _stat_fields(stat)
        self.waits = self.r is not None

    def start(self, rows: int, dtype) -> tuple[np.ndarray, ...]:
        return tuple(np.zeros(rows, dtype=dtype) for _ in range(2 + self.waits))

    def step(self, state: tuple, bit, j: int) -> tuple[np.ndarray, ...]:
        streak = (state[0] + 1) * bit
        if self.longest:
            return streak, np.maximum(state[1], streak)
        if self.scheme is Scheme.OVERLAPPING:
            hit = streak >= self.k
        else:
            hit = streak == self.k
            if self.scheme is Scheme.NON_OVERLAPPING:
                streak = np.where(hit, 0, streak)
        if not self.waits:
            return streak, state[1] + hit
        cum = state[1] + hit
        wait = np.where((state[2] == 0) & (cum >= self.r), j + 1, state[2])
        return streak, cum, wait


def _interleave(zero: np.ndarray, one: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(zero), dtype=zero.dtype)
    out[0::2] = zero
    out[1::2] = one
    return out


def _scan_tree(automaton: _Automaton, n: int, prefix: int, free: int) -> np.ndarray:
    """The statistic on each of the 2**free sequences that share a prefix.

    The n - free leading trials are the bits of ``prefix``, stepped as
    scalars.  Each later trial becomes the new lowest-order bit: every
    state is stepped once with a 0 and once with a 1 and the two results
    are interleaved, so entry i belongs to the sequence whose id is
    ``prefix << free | i``, after O(2**free) work in all.
    """
    state = automaton.start(1, np.int8)  # no statistic exceeds n <= 24
    fixed = n - free
    for j in range(fixed):
        state = automaton.step(state, (prefix >> (fixed - 1 - j)) & 1, j)
    for j in range(fixed, n):
        zero = automaton.step(state, 0, j)
        one = automaton.step(state, 1, j)
        state = tuple(map(_interleave, zero, one))
    return state[-1]


def _sequence_prices(model: TrialModel, n: int) -> tuple[np.ndarray, tuple, tuple]:
    """Price every sequence code once, by the closed form.

    A sequence's probability depends only on its code: its number of
    successes (IID), or its first trial and its 1-1, 1-0 and 0-1
    transition counts (Markov).  Returns (price, first_row, step): trial j
    adds ``row[bit]`` to the code, where ``row`` is ``first_row`` for the
    first trial and ``step[previous bit]`` after it.
    """
    if isinstance(model, IID):
        price = np.array([model.p**i * model.q ** (n - i) for i in range(n + 1)])
        return price, (0, 1), ((0, 1), (0, 1))
    # code = first * n**3 + c11 * n**2 + c10 * n + c01: one axis per count,
    # each priced from a table of its n possible powers
    counts = np.arange(n)
    c00 = (n - 1) - counts[:, None, None] - counts[:, None] - counts
    price = (
        np.array([model.q1, model.p1])[:, None, None, None]
        * np.power(model.alpha, counts)[:, None, None]
        * np.power(1.0 - model.alpha, counts)[:, None]
        * np.power(1.0 - model.beta, counts)
        * np.power(model.beta, counts)[np.maximum(c00, 0)]  # < 0: no such sequence
    )
    return price.ravel(), (0, n**3), ((0, 1), (n, n * n))


def _extend_codes(codes: np.ndarray, step: np.ndarray, trials: int) -> np.ndarray:
    """Append trials to code arrays whose last axis alternates last bits."""
    for _ in range(trials):
        lead = codes.shape[:-1]
        codes = (codes.reshape(lead + (-1, 2, 1)) + step).reshape(lead + (-1,))
    return codes


def _tree_codes(
    n: int, prefix: int, free: int, first_row: tuple, step: tuple
) -> np.ndarray:
    """Code of each sequence that :func:`_scan_tree` visits, in order.

    Codes add up along a sequence, so the free trials are split in two: the
    upper half is grown from the prefix, the lower half from either value of
    the last upper trial, and one broadcast sum joins them.
    """
    fixed = n - free
    code, row = 0, first_row
    for j in range(fixed):
        bit = (prefix >> (fixed - 1 - j)) & 1
        code, row = code + row[bit], step[bit]
    step = np.array(step, dtype=np.intp)
    upper = code + np.array(row, dtype=np.intp)
    upper = _extend_codes(upper, step, free - free // 2 - 1)
    if free == 1:
        return upper
    lower = _extend_codes(step, step, free // 2 - 1)
    return (upper.reshape(-1, 2, 1) + lower).ravel()


def enumerate_exact(model: TrialModel, n: int, stat: Statistic) -> Pmf:
    """Exact distribution of a run statistic over all 2**n sequences.

    Sequences are enumerated in chunks of at most 2**20 integer ids (the
    first trial is the highest-order bit) and accumulated in fixed order, so
    results are bit-for-bit reproducible.  Within a chunk the sequences are
    walked as a prefix tree, one trial per level, in O(2**n) work overall.
    Waiting statistics put the mass of sequences with no r-th occurrence
    into the pmf tail.

    Raises
    ------
    ValueError
        If n exceeds MAX_ENUM_TRIALS (use :func:`simulate` beyond that).
    ConsistencyError
        If the accumulated mass misses 1 by more than 1e-12.
    """
    n = _check_integer("horizon n", n)
    if n > MAX_ENUM_TRIALS:
        raise ValueError(
            f"exhaustive enumeration supports 1 <= n <= {MAX_ENUM_TRIALS}, "
            f"got n={n}; use simulate() for longer horizons"
        )
    automaton = _Automaton(stat)
    free = min(n, _CHUNK_ROWS.bit_length() - 1)  # at most _CHUNK_ROWS per chunk
    price, first_row, step = _sequence_prices(model, n)
    acc = np.zeros(n + 1)
    tail = 0.0
    for prefix in range(1 << (n - free)):
        probs = np.take(price, _tree_codes(n, prefix, free, first_row, step))
        values = _scan_tree(automaton, n, prefix, free)
        counts = np.bincount(values, weights=probs, minlength=n + 1)
        if automaton.waits:
            # a wait of 0 never happened: that mass is the tail, not a value
            counts[0] = 0.0
            tail += float(probs[values == 0].sum())
        acc += counts
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
    n = _check_integer("horizon n", n)
    if n > 16:
        raise ValueError(f"reference enumeration supports 1 <= n <= 16, got {n}")
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
    n = _check_integer("horizon n", n)
    reps = _check_integer("reps", reps)
    rng = stream.generator()
    bits = _draw_sequences(model, n, reps, rng)
    automaton = _Automaton(stat)
    state = automaton.start(reps, np.int64)
    for j in range(n):
        state = automaton.step(state, bits[:, j], j)
    values = state[-1]
    if automaton.waits:
        values[values == 0] = -1
    return values


def sample_waiting_times(
    model: TrialModel, k: int, reps: int, stream: SeededStream
) -> np.ndarray:
    """Exact draws of the first k-run waiting time, by inverse transform.

    The cdf table is extended (doubling the horizon) until it covers every
    uniform draw, so no draw is censored; the result is an int64 array of
    waiting times.  It starts at the horizon default_vmax would take, and
    raises ValueError, naming the mean wait, if the table needs a horizon
    beyond MAX_HORIZON.
    """
    reps = _check_integer("reps", reps)
    k = _check_integer("run length k", k)
    rng = stream.generator()
    u = rng.random(reps)
    vmax = _covering_horizon(model, k)
    while vmax <= MAX_HORIZON:
        vmax = math.ceil(vmax)
        pm = vk_pmf(model, k, vmax=vmax)
        cdf = np.cumsum(pm.probs)
        idx = np.searchsorted(cdf, u, side="right")
        if idx.max() < len(cdf):
            return (pm.offset + idx).astype(np.int64)
        vmax *= 2
    raise horizon_error(model, k, vmax)
