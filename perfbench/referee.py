"""Independent referee for the benchmark's correctness checks.

Nothing here imports successruns.  Every law is recomputed from the
definitions of the streak automata:

* a forward pass over (last trial, streak, count) states with non-negative
  weights gives run counts and r-th waits; nothing is subtracted, so nothing
  cancels in float64;
* a forward pass over (streak, longest so far) gives the longest run;
* absorbing-chain linear systems give the mean and variance of the first and
  inter-occurrence waits, so E[T_r] = E[H] + (r - 1) E[A] and
  Var[T_r] = Var[H] + (r - 1) Var[A] by renewal;
* closed forms for independent trials (E[V_k], E[N_n] under schemes II and
  III) and the order-k Fibonacci identity at p = 1/2, from an integer
  recurrence.

A trial model is a :class:`Chain`: the first trial succeeds with ``p1``, a
success follows a success with ``alpha`` and a failure follows a failure
with ``beta``.  Independent trials are the chain with alpha = p, beta = q.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SCHEMES = ("I", "II", "III")


class Chain(NamedTuple):
    p1: float
    alpha: float
    beta: float


def iid(p: float) -> Chain:
    return Chain(p, p, 1.0 - p)


def markov(p1: float, alpha: float, beta: float) -> Chain:
    return Chain(p1, alpha, beta)


class Law(NamedTuple):
    """Mass on values offset, offset+1, ... plus the mass beyond them."""

    offset: int
    probs: np.ndarray
    tail: float


def tv(a: Law, b: Law) -> float:
    """Total variation distance; each tail is one shared point past both."""
    lo = min(a.offset, b.offset)
    hi = max(a.offset + len(a.probs), b.offset + len(b.probs))
    pa = np.zeros(hi - lo)
    pb = np.zeros(hi - lo)
    pa[a.offset - lo : a.offset - lo + len(a.probs)] = a.probs
    pb[b.offset - lo : b.offset - lo + len(b.probs)] = b.probs
    return 0.5 * (float(np.abs(pa - pb).sum()) + abs(a.tail - b.tail))


# ---------------------------------------------------------------------------
# the streak automaton of each scheme


def _after_success(s: int, k: int, scheme: str) -> tuple[int, bool]:
    """Streak after one more success, and whether a run is counted."""
    s1 = s + 1
    if scheme == "I":
        return (0, True) if s1 >= k else (s1, False)
    if scheme == "II":
        return min(s1, k), s1 == k
    return min(s1, k), s1 >= k


def _trial(w: np.ndarray, succ: tuple[float, float], k: int, scheme: str) -> np.ndarray:
    """One trial on weights w[last, streak, count]; succ[last] = P(success).

    A counted run moves mass one step up the count axis; mass already in
    the last count cell stays there (callers size the axis so that it is
    either unreachable or absorbing).
    """
    new = np.zeros_like(w)
    new[0, 0] = (1.0 - succ[0]) * w[0].sum(axis=0) + (1.0 - succ[1]) * w[1].sum(axis=0)
    moving = succ[0] * w[0] + succ[1] * w[1]  # [streak, count]
    for s in range(k + 1):
        s1, hit = _after_success(s, k, scheme)
        if hit:
            new[1, s1, 1:] += moving[s, :-1]
            new[1, s1, -1] += moving[s, -1]
        else:
            new[1, s1] += moving[s]
    return new


def _passes(chain: Chain, k: int, scheme: str, n: int, width: int):
    """Yield the state weights after trials 1..n, count axis 0..width-1."""
    w = np.zeros((2, k + 1, width))
    w[0, 0, 0] = 1.0
    first = (chain.p1, chain.p1)
    rest = (1.0 - chain.beta, chain.alpha)
    for t in range(1, n + 1):
        w = _trial(w, first if t == 1 else rest, k, scheme)
        yield w


def counts_law(chain: Chain, n: int, k: int, scheme: str) -> Law:
    """Law of the number of counted k-runs in n trials (support 0..n)."""
    w = np.zeros((2, k + 1, n + 1))
    w[0, 0, 0] = 1.0
    for w in _passes(chain, k, scheme, n, n + 1):
        pass
    return Law(0, w.sum(axis=(0, 1)), 0.0)


def wait_law(chain: Chain, k: int, r: int, scheme: str, nmax: int) -> Law:
    """Law of the trial of the r-th counted run, for trials 0..nmax.

    Count r is absorbing: the mass that reaches it at trial t is P(T_r = t),
    and it is removed so it cannot be counted again.
    """
    probs = np.zeros(nmax + 1)
    for t, w in enumerate(_passes(chain, k, scheme, nmax, r + 1), start=1):
        probs[t] = w[:, :, r].sum()
        w[:, :, r] = 0.0
    return Law(0, probs, max(0.0, 1.0 - float(probs.sum())))


def longest_law(chain: Chain, n: int) -> Law:
    """Law of the longest success run in n trials, from weights w[streak, best]."""
    w = np.zeros((n + 1, n + 1))
    w[0, 0] = 1.0
    diag = np.arange(n)
    for t in range(1, n + 1):
        succ = np.full(n + 1, chain.alpha)
        succ[0] = 1.0 - chain.beta
        if t == 1:
            succ[:] = chain.p1
        moving = w * succ[:, None]
        new = np.zeros_like(w)
        new[0] = (w - moving).sum(axis=0)
        new[1:] = moving[:-1]
        # a streak that passes the longest so far drags the longest along
        new[diag + 1, diag + 1] += new[diag + 1, diag]
        new[diag + 1, diag] = 0.0
        w = new
    return Law(0, w.sum(axis=0), 0.0)


def loglik(chain: Chain, k: int, sample) -> float:
    """Log-likelihood of first-run waiting times under a chain."""
    sample = np.asarray(sample, dtype=np.int64)
    law = wait_law(chain, k, 1, "I", int(sample.max()))
    return float(np.log(law.probs[sample]).sum())


# ---------------------------------------------------------------------------
# moments by absorbing-chain linear systems


def _wait_moments(chain: Chain, k: int, scheme: str, start: tuple[int, int] | None):
    """Mean and variance of the trials until the next counted run.

    ``start`` is the (last, streak) state the wait begins in, or None for
    the state before the first trial.  Transient states are (last, streak)
    pairs plus the start; a counted run absorbs.
    """
    states = [(last, s) for last in (0, 1) for s in range(k + 1)]
    index = {st: i for i, st in enumerate(states)}
    size = len(states) + 1  # the last row is "before the first trial"
    q = np.zeros((size, size))
    for i in range(size):
        if i == size - 1:
            s, p_succ = 0, chain.p1
        else:
            last, s = states[i]
            p_succ = chain.alpha if last else 1.0 - chain.beta
        q[i, index[(0, 0)]] += 1.0 - p_succ
        s1, hit = _after_success(s, k, scheme)
        if not hit:
            q[i, index[(1, s1)]] += p_succ
    lhs = np.eye(size) - q
    mean = np.linalg.solve(lhs, np.ones(size))
    second = np.linalg.solve(lhs, 1.0 + 2.0 * q @ mean)
    i = size - 1 if start is None else index[start]
    return float(mean[i]), float(second[i] - mean[i] ** 2)


def wait_moments(chain: Chain, k: int, r: int, scheme: str) -> tuple[float, float]:
    """E[T_r] and E[T_r^2] by renewal over the first and repeat waits."""
    mean_h, var_h = _wait_moments(chain, k, scheme, None)
    after_count = (1, 0) if scheme == "I" else (1, k)
    mean_a, var_a = _wait_moments(chain, k, scheme, after_count)
    mean = mean_h + (r - 1) * mean_a
    var = var_h + (r - 1) * var_a
    return mean, var + mean * mean


# ---------------------------------------------------------------------------
# closed forms for independent trials


def iid_mean_wait(p: float, k: int) -> float:
    """E[V_k] = (1 - p^k) / (q p^k)."""
    return (1.0 - p**k) / ((1.0 - p) * p**k)


def iid_mean_count(p: float, n: int, k: int, scheme: str) -> float | None:
    """E[N_n] for schemes III and II (n >= k); None for scheme I."""
    if n < k:
        return 0.0
    if scheme == "III":
        return (n - k + 1) * p**k
    if scheme == "II":
        return p**k + (n - k) * (1.0 - p) * p**k
    return None


def fibonacci_half_law(k: int, vmax: int) -> np.ndarray:
    """P(V_k = v) at p = 1/2 for v = 0..vmax, as F^(k)_{v-k+1} / 2^v.

    F^(k) is the order-k Fibonacci sequence F_1 = 1, F_m = F_{m-1} + ... +
    F_{m-k}, with F_m = 0 for m <= 0, computed in integers.
    """
    fib = [0] * (vmax + 2)
    fib[1] = 1
    for m in range(2, vmax + 2):
        fib[m] = sum(fib[max(0, m - k) : m])
    out = np.zeros(vmax + 1)
    for v in range(k, vmax + 1):
        out[v] = fib[v - k + 1] / (1 << v)
    return out


def mean_of(law: Law) -> float:
    return float(np.arange(law.offset, law.offset + len(law.probs)) @ law.probs)


def check_close(label: str, got: float, want: float, rel: float) -> str | None:
    """None when got matches want within rel * max(1, |want|), else a message."""
    if math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want)):
        return None
    return f"{label}: got {got!r}, referee {want!r}"
