"""Number of k-success runs in a fixed number of trials.

Contains the deterministic counters that define each counting scheme on a
concrete 0/1 sequence (these are the ground truth the exhaustive oracle is
built on), and the distribution of the count N_n by inverting waiting
times: N_n >= x exactly when the x-th occurrence arrives by trial n, so
P(N_n = x) differences two waiting-time cdfs.  The test suite referees it
against exact rational laws and against exhaustive enumeration; the
inversion cancels in float64 at long horizons (from n = 40 on at IID(3/8),
k = 2, scheme III, its worst entry is more than 1e-9 off relative).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .models import Pmf, TrialModel, _check_integer
from .polyseries import RationalGF
from .rth_waiting import RunMoments, Scheme, _rth_rows, occurrence_factors


def _as_bits(bits) -> list[int]:
    """A 0/1 sequence as a list of ints: a string of 0s and 1s, or integers
    (numpy's too) each exactly 0 or 1; a bool, float or other entry is
    refused, never truncated."""
    if isinstance(bits, str):
        try:
            return [{"0": 0, "1": 1}[ch] for ch in bits.strip()]
        except KeyError:
            raise ValueError(f"bit string may only contain 0 and 1: {bits!r}")
    out = [_check_integer("bit", b, least=0) for b in bits]
    if any(b > 1 for b in out):
        raise ValueError(f"bits must be 0 or 1, got {max(out)}")
    return out


def occurrence_indices(bits, k: int, scheme: Scheme) -> Iterator[int]:
    """Yield the 1-based trial indices at which runs are counted.

    Scheme I resets the streak after each completed run; scheme II counts a
    maximal block once, when it first reaches length k; scheme III counts
    every trial whose streak is at least k.
    """
    k = _check_integer("run length k", k)
    scheme = Scheme.from_label(scheme)
    streak = 0
    for i, b in enumerate(_as_bits(bits), start=1):
        streak = streak + 1 if b else 0
        if scheme is Scheme.NON_OVERLAPPING:
            if streak == k:
                yield i
                streak = 0
        elif scheme is Scheme.AT_LEAST:
            if streak == k:
                yield i
        else:
            if streak >= k:
                yield i


def count_runs(bits, k: int, scheme: Scheme) -> int:
    """Number of k-runs in a concrete 0/1 sequence under a counting scheme."""
    return sum(1 for _ in occurrence_indices(bits, k, scheme))


def first_occurrence_index(bits, k: int, r: int, scheme: Scheme) -> int | None:
    """1-based trial index at which the r-th run completes, or None."""
    r = _check_integer("occurrence index r", r)
    for count, idx in enumerate(occurrence_indices(bits, k, scheme), start=1):
        if count == r:
            return idx
    return None


def max_count(n: int, k: int, scheme: Scheme) -> int:
    """Largest count achievable in n trials.

    All successes maximize the reset and moving-window counters: n // k
    completed resets and n - k + 1 windows.  The once-per-block counter is
    maximized by blocks of exactly k successes separated by single failures,
    one block per k + 1 trials with the last failure left off, so
    (n + 1) // (k + 1).
    """
    n = _check_integer("horizon n", n, least=0)
    k = _check_integer("run length k", k)
    scheme = Scheme.from_label(scheme)
    if scheme is Scheme.NON_OVERLAPPING:
        count = n // k
    elif scheme is Scheme.AT_LEAST:
        count = (n + 1) // (k + 1)
    else:
        count = n - k + 1
    return max(count, 0)


def _count_laws(
    h: RationalGF, a: RationalGF, k: int, scheme: Scheme, horizons: range
) -> list[Pmf]:
    """Laws of N_n for every n in horizons, via waiting-time inversion.

    P(N_n = x) = P(T_x <= n) - P(T_{x+1} <= n), with T_x the x-th occurrence
    time.  :func:`_rth_rows` gives every P(T_x <= n), each under the checks
    trk_pmf(..., x, scheme, n) runs and in the order it would raise; this
    only differences them.  The caller supplies the factors H and A of
    (model, k, scheme), so a caller that holds them builds them once.
    """
    if not horizons:
        return []
    scheme = Scheme.from_label(scheme)
    xmaxes = [max_count(n, k, scheme) for n in horizons]
    _, _, masses = _rth_rows(h, a, k, scheme, xmaxes[-1] + 1, horizons)
    cdfs = np.zeros((len(horizons), xmaxes[-1] + 1))  # [i, x-1] = P(T_x <= n_i)
    cdfs[:, : masses.shape[1]] = masses
    laws = []
    for xmax, cdf in zip(xmaxes, cdfs):
        probs = np.empty(xmax + 1)
        probs[0] = 1.0 - cdf[0]
        probs[1:] = cdf[:xmax] - cdf[1 : xmax + 1]
        laws.append(Pmf(offset=0, probs=probs))
    return laws


def counts_pmf(model: TrialModel, n: int, k: int, scheme: Scheme) -> Pmf:
    """Distribution of the run count N_n, via waiting-time inversion.

    P(N_n = x) = P(T_x <= n) - P(T_{x+1} <= n), with T_x the x-th occurrence
    time; the support is 0..max_count(n, k, scheme) and the tail is zero.
    """
    n = _check_integer("horizon n", n, least=0)
    k = _check_integer("run length k", k)
    h, a = occurrence_factors(model, k, scheme)
    return _count_laws(h, a, k, scheme, range(n, n + 1))[0]


def counts_moments(model: TrialModel, n: int, k: int, scheme: Scheme) -> RunMoments:
    """Mean and second raw moment of the run count, from its pmf."""
    pm = counts_pmf(model, n, k, scheme)
    return RunMoments(mean=pm.mean(), second_moment=pm.second_moment())
