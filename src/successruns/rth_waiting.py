"""Waiting time until the r-th occurrence of a k-success run.

Three counting conventions are supported:

* ``Scheme.NON_OVERLAPPING`` ("I"): counting restarts from scratch after each
  completed run, so 5 straight successes contain two 2-runs.
* ``Scheme.AT_LEAST`` ("II"): each maximal success block of length >= k
  counts exactly once, at the trial where it first reaches length k; the next
  occurrence requires an intervening failure.
* ``Scheme.OVERLAPPING`` ("III"): every trial extending a streak to length
  >= k counts, so a block of m >= k successes contributes m - k + 1.

A fourth convention (blocks of *exactly* k) is not a renewal process in the
sense used here and deliberately has no member in the enum.

Everything is built compositionally: the pgf of the r-th occurrence time is
H(z) * A(z)^(r-1), where H is the first-occurrence pgf (the plain k-run wait
for every scheme) and A is the scheme's inter-occurrence pgf.  The pmf is
read off that rational function's series; the moments are composed from
the factors' own.  The test suite referees both against exact rational
laws and against exhaustive enumeration.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .geometric import markov_vk_pgf
from .models import (
    ConsistencyError,
    Pmf,
    TrialModel,
    _check_integer,
    _checked_mass,
    _clamp_rows,
    _entry_error,
)
from .polyseries import Moments, Poly, RationalGF, ladder_series


#: Most entries, rows x (horizon + 1), of the table of r-th-run laws that
#: :func:`_rth_rows` builds; its series kernel holds several arrays that size.
_TABLE_ENTRIES = 2**20


class Scheme(enum.Enum):
    """Run-counting convention; labels follow the customary Roman numerals."""

    NON_OVERLAPPING = "I"
    AT_LEAST = "II"
    OVERLAPPING = "III"

    @classmethod
    def from_label(cls, label) -> "Scheme":
        if isinstance(label, cls):
            return label
        text = str(label).strip().upper().replace("-", "_")
        for member in cls:
            if text in (member.value, member.name):
                return member
        raise ValueError(
            f"unknown scheme {label!r}; expected one of I, II, III"
        )


def occurrence_factors(
    model: TrialModel, k: int, scheme: Scheme
) -> tuple[RationalGF, RationalGF]:
    """First-occurrence pgf H and inter-occurrence pgf A for a scheme.

    The r-th occurrence time has pgf H * A**(r-1).  With G_s the first-run
    pgf of the chain restarted with first-trial success probability s,
    H = G_p1, and the factors are renewal decompositions: scheme I has
    A = G_alpha (full restart after a counted run); scheme II has
    A = ((1-alpha) z / (1 - alpha z)) * G_(1-beta) (flush the current block,
    then a fresh wait after its failure); scheme III has
    A = alpha z + (1-alpha) z * G_(1-beta) (either the streak extends at once
    or a failure forces a fresh wait).  IID(p) is the chain with alpha = p
    and beta = q, where these read A = G, (qz / (1 - pz)) * G and pz + qz*G.
    """
    scheme = Scheme.from_label(scheme)
    a, b = model.alpha, model.beta
    h = markov_vk_pgf(k, a, b, model.p1)
    from_failure = markov_vk_pgf(k, a, b, 1.0 - b)
    if scheme is Scheme.NON_OVERLAPPING:
        return h, markov_vk_pgf(k, a, b, a)
    if scheme is Scheme.AT_LEAST:
        flush = RationalGF(Poly.term(1.0 - a, 1), Poly((1.0, -a)))
        return h, flush * from_failure
    step = RationalGF(Poly.term(a, 1))
    fail_restart = RationalGF(Poly.term(1.0 - a, 1)) * from_failure
    return h, step + fail_restart


def _check_mass(h: RationalGF, a: RationalGF, k: int, scheme: Scheme) -> None:
    """Raise ConsistencyError unless H and A each have unit mass at z = 1."""
    where = f"for k={k}, scheme={Scheme.from_label(scheme).value}"
    for name, factor in (("first-occurrence", h), ("inter-occurrence", a)):
        den1 = factor.den(1.0)
        if den1 == 0.0:
            raise ConsistencyError(
                f"{name} factor denominator is 0 at z=1 {where}"
            )
        mass = factor.num(1.0) / den1
        if abs(mass - 1.0) > 1e-9:
            raise ConsistencyError(
                f"{name} factor mass at z=1 is {mass!r} (deviation "
                f"{mass - 1.0:.3e}) {where}"
            )


def trk_pgf(model: TrialModel, k: int, r: int, scheme: Scheme) -> RationalGF:
    """Rational pgf of the trial index of the r-th counted run.

    Raises ConsistencyError if either building block fails to carry unit
    mass at z = 1 within 1e-9.  The check runs on the low-degree H and A
    factors rather than on the composed power: a transcription fault in a
    factor shows up as an O(1) deviation there, while evaluating the
    expanded r-th power at z = 1 suffers den(1)**(r-1) cancellation and
    would drown the signal in float noise for large r.
    """
    k = _check_integer("run length k", k)
    r = _check_integer("occurrence index r", r)
    h, a = occurrence_factors(model, k, scheme)
    _check_mass(h, a, k, scheme)
    return h * a ** (r - 1)


def _lowest_degree(p: Poly) -> int:
    """Lowest degree with a nonzero coefficient.  The support of
    H * A**(r-1) starts at that of H's numerator plus r - 1 times that of
    A's: products cannot cancel at the lowest degree."""
    for i, c in enumerate(p.coeffs):
        if c != 0.0:
            return i
    return 0


def _rth_rows(
    h: RationalGF, a: RationalGF, k: int, scheme: Scheme, rmax: int, horizons: range
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Laws of T_r to the last horizon nmax for r = 1..R, the r <= rmax
    whose support starts by nmax, under trk_pmf's checks at every horizon.

    Returns offsets, probs and masses: row r - 1 of probs is T_r's law
    under Pmf's entry rule, zero below offsets[r - 1], and masses[i, r - 1]
    is P(T_r <= horizons[i]), zero before the support starts.  The
    factors' mass is checked once, and the table's size against
    _TABLE_ENTRIES, before :func:`ladder_series` builds every row's series,
    bit for bit trk_pmf's.  Then, row by row: the entry refusal if this is
    the first row Pmf refuses, the tail and total checks at nmax, and those
    at each shorter horizon whose support has started, so the error is the
    first that trk_pmf raises horizon by horizon.
    """
    nmax = horizons[-1]
    first, step = _lowest_degree(h.num), _lowest_degree(a.num)
    if first > nmax:
        rows = 0
    else:
        rows = rmax if step == 0 else min(rmax, (nmax - first) // step + 1)
    if rows <= 0:
        return [], np.zeros((0, nmax + 1)), np.zeros((len(horizons), 0))
    _check_mass(h, a, k, scheme)
    if rows * (nmax + 1) > _TABLE_ENTRIES:
        raise ValueError(
            f"the table of r-th-run laws to horizon {nmax} would hold "
            f"{rows} x {nmax + 1} entries, above the limit of {_TABLE_ENTRIES}"
        )
    offsets = [first + r * step for r in range(rows)]
    table = ladder_series(h, a, rows - 1, nmax)
    probs, refused = _clamp_rows(table, offsets)
    masses = np.zeros((len(horizons), rows))
    for r, offset in enumerate(offsets):
        raw, row = table[r, offset:], probs[r, offset:]
        if r == refused:
            raise _entry_error(raw.min())
        if not (raw < 0.0).any():
            raw = row  # nothing was clamped: the two sums agree
        masses[-1, r] = _checked_mass(raw, row)
        for i, n in enumerate(horizons[:-1]):
            if offset <= n:
                m = n - offset + 1
                masses[i, r] = _checked_mass(raw[:m], row[:m])
    return offsets, probs, masses


def trk_pmf(
    model: TrialModel, k: int, r: int, scheme: Scheme, nmax: int
) -> Pmf:
    """P(T = n) for n up to nmax, via series extraction of the composed pgf.

    The r-1 repeated roots of A's denominator make the extraction cancel in
    float64 at long horizons: at IID(1/2), k = 2, trk_pmf(..., 8, "II", 150)
    is 2e-6 off the exact law in its worst entry.
    """
    k = _check_integer("run length k", k)
    r = _check_integer("occurrence index r", r)
    nmax = _check_integer("horizon nmax", nmax, least=0)
    h, a = occurrence_factors(model, k, scheme)
    offset = _lowest_degree(h.num) + (r - 1) * _lowest_degree(a.num)
    if offset > nmax:
        return Pmf(offset=offset, probs=np.zeros(0), tail=1.0)
    _check_mass(h, a, k, scheme)
    probs = np.array((h * a ** (r - 1)).series(nmax)[offset:])
    return Pmf(offset=offset, probs=probs, tail=1.0 - float(probs.sum()))


def trk_tail(
    model: TrialModel, k: int, r: int, scheme: Scheme, nmax: int
) -> np.ndarray:
    """Survival probabilities P(T > n) for n = 0..nmax, from trk_pmf's law."""
    pm = trk_pmf(model, k, r, scheme, nmax)
    probs = np.zeros(nmax + 1)
    probs[pm.offset :] = pm.probs
    return 1.0 - np.cumsum(probs)


class RunMoments(NamedTuple):
    mean: float
    second_moment: float


def trk_moments(model: TrialModel, k: int, r: int, scheme: Scheme) -> RunMoments:
    """Mean and second raw moment of the r-th occurrence time.

    Composed from the factors' own moments (:func:`_compose_moments`);
    differentiating the expanded pgf H * A**(r-1) at z = 1 instead divides
    by den(1)**(r-1), which underflows for large r.
    """
    k = _check_integer("run length k", k)
    r = _check_integer("occurrence index r", r)
    h, a = occurrence_factors(model, k, scheme)
    _check_mass(h, a, k, scheme)
    return _compose_moments(h.moments_at_one(), a.moments_at_one(), r)


def _compose_moments(h: Moments, a: Moments, r: int) -> RunMoments:
    """Moments of T = H + S, S the sum of r - 1 independent copies of A.

    E[T] = E[H] + (r-1) E[A], Var[S] = (r-1) Var[A] and
    E[T^2] = E[H^2] + 2 E[H] E[S] + E[S^2].
    """
    s_mean = (r - 1) * a.mean
    s_var = (r - 1) * (a.second_factorial + a.mean - a.mean**2)
    return RunMoments(
        mean=h.mean + s_mean,
        second_moment=(h.second_factorial + h.mean)
        + 2.0 * h.mean * s_mean
        + (s_var + s_mean**2),
    )
