"""Exhaustive enumeration and seeded simulation for run statistics.

This module is the ground truth the analytic routes are judged against.
Each statistic is a small finite automaton over streak states, written out
here as a transition table from the definition of its scheme.
``enumerate_exact`` walks every 0/1 sequence of length n as a prefix tree,
one gather of that table per trial, prices each sequence in closed form and
accumulates the exact law; nothing in it shares code with the generating
function machinery, so agreement between the two is meaningful evidence.
``enumerate_reference`` recomputes the same tables through the scalar
counters in ``run_counts`` and exists purely to validate the vectorized
engine on small n.

``simulate`` steps the same tables over seeded draws, and
``sample_waiting_times`` draws first-run waits by inverse transform; both
are reproducible from an explicit seeded stream.
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
#: Most entries of a statistic's transition table, 32 MiB of indices.  Only
#: simulate's long horizons come near it; LongestRun's (n + 1)**2 states
#: grow fastest and pass it past n = 1447.
_TABLE_ENTRIES = 1 << 22
#: Most draws one call makes: trials (reps x n) for simulate, waits (reps)
#: for sample_waiting_times.  Each draw holds a float64 uniform and an
#: integer or two besides, so this keeps a call within a few hundred MiB,
#: where numpy would page or raise MemoryError on a larger request.
_DRAW_ENTRIES = 1 << 24


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


def _streak_rows(k: int, scheme: Scheme, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Streak code and completed run after a 0 (column 0) and a 1 (column 1).

    Row c is the current streak code: c successes in a row, where the last
    code stands for every longer streak too.  Scheme I counts a run at
    streak k and starts afresh, so its codes are 0..k-1.  Under II and III
    the codes are 0..k, the last one "k or more": II counts a streak once,
    on the success that takes it to k, and III counts every success from
    there on.  No streak outgrows n, so there are never more than n + 1
    codes.
    """
    codes = min(k if scheme is Scheme.NON_OVERLAPPING else k + 1, n + 1)
    streak = np.arange(1, codes + 1)
    hit = streak >= k if scheme is Scheme.OVERLAPPING else streak == k
    code = np.minimum(streak, codes - 1)
    if scheme is Scheme.NON_OVERLAPPING:
        code[hit] = 0
    zero = np.zeros(codes, dtype=np.intp)
    return np.stack([zero, code], axis=1), np.stack([zero, hit], axis=1)


def _transitions(stat: Statistic, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The statistic over n trials as a finite automaton (Fu & Koutras 1994).

    Returns (table, value): trial bit b moves state s to ``table[s, b]``,
    every sequence starts in state 0, and ``value[s]`` is the statistic of
    a sequence that ends in s.  A state is a level and a streak code: the
    level is the longest streak so far for LongestRun (whose codes are the
    streaks 0..n) and the count of runs for RunCount.  A wait's state is
    (trials so far, count < r, streak code), plus one absorbing state per
    trial t at which the r-th run can complete, whose value is t; the others
    have value 0, no r-th run.  States that no sequence of n trials reaches
    are clamped into range.

    Raises
    ------
    ValueError
        If the table would hold more than _TABLE_ENTRIES entries.
    """
    k, r, scheme = _stat_fields(stat)
    if isinstance(stat, LongestRun):
        streak = np.arange(n + 1)
        code = np.stack([np.zeros_like(streak), np.minimum(streak + 1, n)], axis=1)
    else:
        code, hit = _streak_rows(k, scheme, n)
    codes = len(code)
    levels = n + 1 if r is None else min(r, n + 1)
    states = levels * codes if r is None else (n + 1) * levels * codes + n
    if 2 * states > _TABLE_ENTRIES:
        raise ValueError(
            f"the transition table of {type(stat).__name__} over {n} trials "
            f"would hold {states} x 2 entries, above the limit of {_TABLE_ENTRIES}"
        )
    level = np.arange(levels)[:, None, None]
    after = np.maximum(level, code) if isinstance(stat, LongestRun) else level + hit
    if r is None:
        table = np.minimum(after, levels - 1) * codes + code
        return table.reshape(-1, 2), np.repeat(np.arange(levels), codes)
    block = levels * codes  # the states after j trials are j * block + ...
    trial = np.arange(n + 1)[:, None, None, None]
    table = np.where(
        after >= r,
        (n + 1) * block + np.minimum(trial, n - 1),  # the run completes at trial + 1
        np.minimum(trial + 1, n) * block + np.minimum(after, levels - 1) * codes + code,
    )
    absorbed = np.arange((n + 1) * block, states)
    table = np.concatenate([table.reshape(-1, 2), np.stack([absorbed, absorbed], 1)])
    zero = np.zeros((n + 1) * block, dtype=np.intp)
    return table, np.concatenate([zero, np.arange(1, n + 1)])


def _scan_tree(
    table: np.ndarray, value: np.ndarray, n: int, prefix: int, free: int
) -> np.ndarray:
    """The statistic on each of the 2**free sequences that share a prefix.

    The n - free leading trials are the bits of ``prefix``, stepped one at
    a time.  Each later trial becomes the new lowest-order bit: one gather
    takes every state's successors on a 0 and on a 1 side by side, so entry
    i belongs to the sequence whose id is ``prefix << free | i``, after
    O(2**free) work in all.  The last trial gathers the successors' values.
    """
    state = 0
    fixed = n - free
    for j in range(fixed):
        state = table[state, (prefix >> (fixed - 1 - j)) & 1]
    state = np.array([state], dtype=np.intp)
    for _ in range(fixed, n - 1):
        state = np.take(table, state, axis=0).ravel()
    return np.take(value[table], state, axis=0).ravel()


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
    walked as a prefix tree, one gather of the statistic's transition table
    per trial, in O(2**n) work overall: at n = 16 the walk is about 0.1 ms
    of a call's 1 to 1.5 ms, the rest being the sequence codes, prices and
    sums, and n = 20 takes about 20 ms per statistic (2-core x86-64 Linux).
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
    table, value = _transitions(stat, n)
    waits = isinstance(stat, (FirstRunWait, RthRunWait))
    free = min(n, _CHUNK_ROWS.bit_length() - 1)  # at most _CHUNK_ROWS per chunk
    price, first_row, step = _sequence_prices(model, n)
    acc = np.zeros(n + 1)
    tail = 0.0
    for prefix in range(1 << (n - free)):
        probs = np.take(price, _tree_codes(n, prefix, free, first_row, step))
        values = _scan_tree(table, value, n, prefix, free)
        counts = np.bincount(values, weights=probs, minlength=n + 1)
        if waits:
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
    Each trial is one gather of the statistic's transition table, the one
    :func:`enumerate_exact` walks.  Identical (model, n, stat, reps, stream)
    inputs reproduce the array exactly.

    Raises
    ------
    ValueError
        If reps * n exceeds _DRAW_ENTRIES, or the table _TABLE_ENTRIES,
        before anything is drawn.
    """
    n = _check_integer("horizon n", n)
    reps = _check_integer("reps", reps)
    if reps * n > _DRAW_ENTRIES:
        raise ValueError(
            f"simulate would draw reps x n = {reps} x {n} = {reps * n} trials, "
            f"above the limit of {_DRAW_ENTRIES}"
        )
    table, value = _transitions(stat, n)
    bits = _draw_sequences(model, n, reps, stream.generator())
    flat = table.ravel()
    state = np.zeros(reps, dtype=np.intp)
    for j in range(n):
        state = np.take(flat, 2 * state + bits[:, j])
    values = np.take(value, state).astype(np.int64, copy=False)
    if isinstance(stat, (FirstRunWait, RthRunWait)):
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
    beyond MAX_HORIZON, and before drawing if reps exceeds _DRAW_ENTRIES.
    """
    reps = _check_integer("reps", reps)
    k = _check_integer("run length k", k)
    if reps > _DRAW_ENTRIES:
        raise ValueError(
            f"sample_waiting_times would draw reps = {reps} waits, "
            f"above the limit of {_DRAW_ENTRIES}"
        )
    u = stream.generator().random(reps)
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
