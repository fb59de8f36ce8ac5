"""Exact laws of success-run statistics, by a forward pass in rationals.

This is the test suite's exact referee for the library's float routes.  It
carries the law of the trial sequence forward one trial at a time over the
states (last bit, streak, count) of the streak chain (finite Markov chain
imbedding: Fu & Koutras, "Distribution theory of runs: a Markov chain
approach", JASA 89, 1994), in ``fractions.Fraction``, so every probability
it returns is exact.  Weights are only ever added and multiplied, so
nothing cancels, at any horizon.

It covers the first-run wait V_k, the wait T_r for the r-th counted run and
the run count N_n under the three counting rules, and the longest run L_n,
for a two-state chain with rational parameters: a success follows a success
with probability alpha, a failure follows a failure with probability beta,
and the first trial is a success with probability p1.  IID(a/b) is the chain
(a/b, a/b, 1 - a/b).

It uses the standard library only and shares no code with the library or
with its other referees (the enumeration oracle and the benchmark's own
checks), so agreement with any of them is independent evidence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

SCHEMES = ("I", "II", "III")


class Chain(NamedTuple):
    """Two-state chain with rational parameters."""

    p1: Fraction
    alpha: Fraction
    beta: Fraction

    def success(self, last: int | None) -> Fraction:
        """P(the next trial is a success | the last bit; None before any)."""
        if last is None:
            return self.p1
        return self.alpha if last else 1 - self.beta


def iid(p) -> Chain:
    """Independent trials with success probability p, as a chain."""
    p = Fraction(p)
    return Chain(p, p, 1 - p)


def chain_of(model) -> Chain:
    """The chain of a float model (any object with p1, alpha and beta), at
    the shortest decimals that print its parameters.

    A float parameter is within half an ulp of its decimal, which moves a
    law at horizon n by about n ulps relative: far below any gate this
    referee serves, and the decimals keep the rationals short.
    """
    params = (model.p1, model.alpha, model.beta)
    return Chain(*(Fraction(repr(v)) for v in params))


def _add(law: dict, state, weight: Fraction) -> None:
    law[state] = law.get(state, 0) + weight


def _count_step(law: dict, chain: Chain, k: int, scheme: str) -> dict:
    """Advance {(last bit, streak, count): weight} by one trial.

    A success extends the streak and is counted when it brings the streak
    to k (I, II) or to at least k (III); under I a counted run resets the
    streak.  The streak is capped at k: past k, scheme II counts nothing
    more and scheme III counts every success, so no state above k is
    needed.
    """
    out: dict = {}
    for (last, streak, count), weight in law.items():
        up = chain.success(last)
        _add(out, (0, 0, count), weight * (1 - up))
        streak += 1
        if streak == k or (scheme == "III" and streak > k):
            count += 1
            if scheme == "I":
                streak = 0
        _add(out, (1, min(streak, k), count), weight * up)
    return out


def _check(k: int, scheme: str) -> None:
    if k < 1:
        raise ValueError(f"run length k must be >= 1, got {k}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")


def wait_law(chain: Chain, k: int, r: int, scheme: str, nmax: int) -> list[Fraction]:
    """P(T_r = n) for n = 0..nmax; the tail is 1 minus their sum.

    T_r is the trial at which the r-th counted k-run completes; T_1 is the
    first-run wait V_k under every rule.  A count absorbs at r: its mass is
    booked at that trial and leaves the pass.
    """
    _check(k, scheme)
    if r < 1:
        raise ValueError(f"occurrence index r must be >= 1, got {r}")
    law = {(None, 0, 0): Fraction(1)}
    probs = [Fraction(0)]
    for _ in range(nmax):
        law = _count_step(law, chain, k, scheme)
        probs.append(sum(law.pop(s) for s in list(law) if s[2] == r))
    return probs


def count_law(chain: Chain, n: int, k: int, scheme: str) -> list[Fraction]:
    """P(N_n = x) for x = 0 up to the largest count with positive mass."""
    _check(k, scheme)
    law = {(None, 0, 0): Fraction(1)}
    for _ in range(n):
        law = _count_step(law, chain, k, scheme)
    probs = [Fraction(0)] * (1 + max(count for _, _, count in law))
    for (_, _, count), weight in law.items():
        probs[count] += weight
    return probs


def longest_law(chain: Chain, n: int) -> list[Fraction]:
    """P(L_n = l) for l = 0..n, over the states (streak, longest so far)."""
    law = {(0, 0): Fraction(1)}
    for trial in range(n):
        out: dict = {}
        for (streak, best), weight in law.items():
            up = chain.success(None if trial == 0 else int(streak > 0))
            _add(out, (0, best), weight * (1 - up))
            _add(out, (streak + 1, max(best, streak + 1)), weight * up)
        law = out
    probs = [Fraction(0)] * (n + 1)
    for (_, best), weight in law.items():
        probs[best] += weight
    return probs


def gaps(pmf, law: list[Fraction]) -> tuple[float, float]:
    """(total variation, worst relative error) of a float table against law.

    ``pmf`` is any table with ``p(value)``, ``offset``, ``probs`` and
    ``tail``, read on values 0..len(law) - 1 and beyond; the exact tail is
    1 minus the law's sum.  The relative error is taken over exact entries
    above 1e-300; an entry the float table gives where the exact law has
    none, or misses where it has some, shows in the total variation.
    """
    tail = 1 - sum(law)
    end = max(len(law), pmf.offset + len(pmf.probs))
    exact = law + [Fraction(0)] * (end - len(law))
    tv = abs(pmf.tail - float(tail))
    worst = 0.0
    for value, want in enumerate(exact):
        got = pmf.p(value)
        tv += abs(got - float(want))
        if want > 1e-300:
            worst = max(worst, float(abs(Fraction(got) - want) / want))
    return 0.5 * tv, worst
