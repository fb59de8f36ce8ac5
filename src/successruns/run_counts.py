"""Number of k-success runs in a fixed number of trials.

Contains the deterministic counters that define each counting scheme on a
concrete 0/1 sequence (these are the ground truth the exhaustive oracle is
built on), plus two analytic routes to the distribution of the count N_n:

* the default route inverts waiting times: N_n >= x exactly when the x-th
  occurrence arrives by trial n, so P(N_n = x) differences two waiting-time
  cdfs;
* a second route runs an in-n recursion on the sequence of polynomials
  G_n(w) = sum_x P(N_n = x) w^x, derived from the joint generating function
  sum_n G_n(w) z^n = [1 - H(z)(1-w)/(1 - w A(z))] / (1-z).  Because w enters
  that expression linearly, both its numerator and denominator split as
  U0(z) + w U1(z) and V0(z) + w V1(z), and the recursion updates dense
  w-polynomials with scalar z-coefficients — no two-variable rational
  arithmetic is ever performed.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .models import Pmf, TrialModel
from .polyseries import Poly, RationalGF
from .rth_waiting import RunMoments, Scheme, _rth_rows, occurrence_factors


def _as_bits(bits) -> list[int]:
    if isinstance(bits, str):
        try:
            return [{"0": 0, "1": 1}[ch] for ch in bits.strip()]
        except KeyError:
            raise ValueError(f"bit string may only contain 0 and 1: {bits!r}")
    out = []
    for b in bits:
        ib = int(b)
        if ib not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        out.append(ib)
    return out


def occurrence_indices(bits, k: int, scheme: Scheme) -> Iterator[int]:
    """Yield the 1-based trial indices at which runs are counted.

    Scheme I resets the streak after each completed run; scheme II counts a
    maximal block once, when it first reaches length k; scheme III counts
    every trial whose streak is at least k.
    """
    if k < 1:
        raise ValueError(f"run length k must be >= 1, got {k}")
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
    if r < 1:
        raise ValueError(f"occurrence index r must be >= 1, got {r}")
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
    if k < 1:
        raise ValueError(f"run length k must be >= 1, got {k}")
    scheme = Scheme.from_label(scheme)
    if scheme is Scheme.NON_OVERLAPPING:
        count = n // k
    elif scheme is Scheme.AT_LEAST:
        count = (n + 1) // (k + 1)
    else:
        count = n - k + 1
    return max(count, 0)


def _prefix_mass(raw: np.ndarray, probs: np.ndarray, m: int) -> float:
    """Sum of probs[:m], after the tail and total checks of Pmf(probs[:m]).

    probs is raw with its entries in [-1e-12, 0) clamped to 0, as Pmf holds
    it; the tail is 1 minus the unclamped sum, as trk_pmf passes it.
    """
    mass = float(probs[:m].sum())
    tail = 1.0 - (float(raw[:m].sum()) if raw is not probs else mass)
    if tail < -1e-12:
        raise ValueError(f"tail mass {tail} below -1e-12")
    total = mass + max(0.0, tail)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"pmf total {total!r} is not 1 within 1e-9")
    return mass


def _count_laws(
    h: RationalGF, a: RationalGF, k: int, scheme: Scheme, horizons: range
) -> list[Pmf]:
    """Laws of N_n for every n in horizons, via waiting-time inversion.

    P(N_n = x) = P(T_x <= n) - P(T_{x+1} <= n), with T_x the x-th occurrence
    time.  The series of T_x's pgf H * A**(x-1) is causal, so it is extracted
    once, to the last horizon, and P(T_x <= n) is the sum of its first
    n - offset + 1 entries: the prefix that trk_pmf(..., nmax=n) sums, under
    the same entry, tail and total checks.  One power ladder gives every
    A**(x-1).  The caller supplies the factors H and A of (model, k,
    scheme), so a caller that holds them builds them once.
    """
    if not horizons:
        return []
    scheme = Scheme.from_label(scheme)
    xmaxes = [max_count(n, k, scheme) for n in horizons]
    cdfs = np.zeros((len(horizons), xmaxes[-1] + 2))  # [i, x-1] = P(T_x <= n_i)
    rows = _rth_rows(h, a, k, scheme, xmaxes[-1] + 1, horizons[-1])
    for x, offset, raw in rows:
        probs = Pmf(offset=offset, probs=raw, tail=1.0 - float(raw.sum())).probs
        if not (raw < 0.0).any():
            raw = probs  # nothing was clamped: the two sums agree
        for i, n in enumerate(horizons):
            if offset <= n and x <= xmaxes[i] + 1:
                cdfs[i, x - 1] = _prefix_mass(raw, probs, n - offset + 1)
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
    if n < 0:
        raise ValueError(f"horizon n must be >= 0, got {n}")
    h, a = occurrence_factors(model, k, scheme)
    return _count_laws(h, a, k, scheme, range(n, n + 1))[0]


def _joint_count_parts(h: RationalGF, a: RationalGF) -> tuple[Poly, ...]:
    """U0, U1, V0, V1: the joint count gf [1 - H(1-w)/(1 - wA)] / (1-z),
    from the factors H and A, is (U0 + w U1) / (V0 + w V1)."""
    one_minus_z = Poly((1.0, -1.0))
    u0 = (h.den - h.num) * a.den
    u1 = h.num * a.den - h.den * a.num
    v0 = one_minus_z * h.den * a.den
    v1 = -1.0 * (one_minus_z * h.den * a.num)
    return u0, u1, v0, v1


def count_polynomials(
    model: TrialModel, k: int, scheme: Scheme, n: int
) -> list[Poly]:
    """G_0(w)..G_n(w) where G_m(w) = sum_x P(N_m = x) w^x.

    Runs the in-n recursion induced by the joint generating function's
    denominator; each G_m is a dense polynomial in w.
    """
    if n < 0:
        raise ValueError(f"horizon n must be >= 0, got {n}")
    u0, u1, v0, v1 = _joint_count_parts(*occurrence_factors(model, k, scheme))
    assert v0[0] == 1.0 and v1[0] == 0.0

    w_shift = Poly((0.0, 1.0))
    depth = max(v0.degree, v1.degree)
    gs: list[Poly] = []
    for m in range(n + 1):
        acc = Poly((u0[m],)) + Poly((u1[m],)) * w_shift
        for j in range(1, min(m, depth) + 1):
            c0, c1 = v0[j], v1[j]
            prev = gs[m - j]
            if c0 != 0.0:
                acc = acc - c0 * prev
            if c1 != 0.0:
                acc = acc - Poly((c1,)) * w_shift * prev
        gs.append(acc)
    return gs


def counts_pmf_recursive(model: TrialModel, n: int, k: int, scheme: Scheme) -> Pmf:
    """Same distribution as :func:`counts_pmf` via the polynomial recursion."""
    scheme = Scheme.from_label(scheme)
    g_n = count_polynomials(model, k, scheme, n)[n]
    xmax = max_count(n, k, scheme)
    probs = np.zeros(xmax + 1)
    for x in range(min(xmax, g_n.degree) + 1):
        probs[x] = g_n[x]
    return Pmf(offset=0, probs=probs)


def counts_moments(model: TrialModel, n: int, k: int, scheme: Scheme) -> RunMoments:
    """Mean and second raw moment of the run count, from its pmf."""
    pm = counts_pmf(model, n, k, scheme)
    return RunMoments(mean=pm.mean(), second_moment=pm.second_moment())
