"""Maximum likelihood fitting from observed first-run waiting times.

The likelihood is the exact waiting-time pmf evaluated at the data, so the
fit inherits whatever the recursion routes guarantee.  Optimization happens
in logit space (every parameter lives in the open unit interval) with a
small hand-rolled Nelder-Mead: the simplex stops when EITHER the function
spread or the simplex diameter collapses, which lets flat likelihoods near
the boundary terminate without chasing noise digits.

Uncertainty comes from a nonparametric bootstrap: resample the waiting
times, refit, and report the spread of the refitted estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometric import MAX_HORIZON, _HPlan, _run_prefix_prob, _validate_k
from .models import IID, Markov
from .oracle import SeededStream


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires 0 < p < 1, got {p}")
    return math.log(p / (1.0 - p))


def expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _as_sample(sample, k: int) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sample must be a nonempty 1-d array of waiting times")
    if arr.min() < k:
        raise ValueError(
            f"waiting times below k={k} are impossible; smallest observed "
            f"is {int(arr.min())}"
        )
    if arr.max() > MAX_HORIZON:
        raise ValueError(
            f"the largest waiting time, {int(arr.max())} trials, is above the "
            f"limit of {MAX_HORIZON} trials that a likelihood tabulates"
        )
    return arr


def loglik_vk(model, k: int, sample) -> float:
    """Exact log-likelihood of first-run waiting times under a model.

    Returns -inf when any observation carries zero probability (which a
    finite-precision pmf can legitimately produce deep in the tail).
    """
    return _SampleLikelihood(type(model), k, _as_sample(sample, k))(model)


class _SampleLikelihood:
    """loglik_vk of one sample that has passed _as_sample, for any model of
    one family.

    The h recursion is planned once, up to the largest wait, so each
    evaluation only runs it: lags and seeds in, the products, then a gather
    of the observed entries, scaled by the run's probability.
    """

    def __init__(self, family: type, k: int, arr: np.ndarray):
        self._k = _validate_k(k)
        self._plan = _HPlan(family, k, int(arr.max()) - k + 1)
        self._at = arr - k

    def __call__(self, model) -> float:
        # the gather copies, so the plan's buffer never leaves the plan
        probs = self._plan.run(model)[self._at]
        probs *= _run_prefix_prob(model, self._k)
        if (probs <= 0.0).any():
            return -math.inf
        return float(np.log(probs).sum())


@dataclass
class NMResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(
    f,
    x0,
    initial_step: float = 0.25,
    tol_f: float = 1e-10,
    tol_x: float = 1e-8,
    max_iter: int = 500,
) -> NMResult:
    """Minimize f by the classic simplex moves (reflect 1, expand 2,
    contract 0.5, shrink 0.5).

    Converges when the simplex function spread drops below tol_f OR its
    diameter drops below tol_x; hitting max_iter returns the best vertex
    with ``converged=False``.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    dim = x0.size
    simplex = [x0.copy()]
    for i in range(dim):
        v = x0.copy()
        v[i] += initial_step
        simplex.append(v)
    fvals = [f(v) for v in simplex]

    for iteration in range(1, max_iter + 1):
        order = np.argsort(fvals)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        spread_f = fvals[-1] - fvals[0]
        spread_x = np.abs(np.array(simplex[1:]) - simplex[0]).max()
        if spread_f < tol_f or spread_x < tol_x:
            return NMResult(simplex[0], fvals[0], iteration, True)

        centroid = np.add.reduce(np.array(simplex[:-1]), axis=0) / dim
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = f(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded)
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = f(contracted)
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                best = simplex[0]
                simplex = [best] + [best + 0.5 * (v - best) for v in simplex[1:]]
                fvals = [fvals[0]] + [f(v) for v in simplex[1:]]
    order = np.argsort(fvals)
    return NMResult(simplex[order[0]], fvals[order[0]], max_iter, False)


@dataclass
class FitResult:
    estimates: dict[str, float]
    loglik: float
    converged: bool
    iterations: int
    standard_errors: dict[str, float] | None = field(default=None)


def _moment_start(sample: np.ndarray, k: int) -> float:
    """Starting p from matching the mean waiting time (1-p^k)/(q p^k).

    The mean is strictly decreasing in p, so a bisection pins it down; the
    result is clamped to [0.05, 0.95] because the optimizer only needs a
    sane interior point, not a boundary-accurate one.
    """
    target = float(sample.mean())

    def mean_at(p: float) -> float:
        return (1.0 - p**k) / ((1.0 - p) * p**k)

    lo, hi = 1e-6, 1.0 - 1e-6
    if mean_at(hi) >= target:
        return 0.95
    if mean_at(lo) <= target:
        return 0.05
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mean_at(mid) > target:
            lo = mid
        else:
            hi = mid
    return min(max(0.5 * (lo + hi), 0.05), 0.95)


def fit_iid(sample, k: int, max_iter: int = 500) -> FitResult:
    """MLE of the success probability from first-run waiting times."""
    arr = _as_sample(sample, k)
    loglik = _SampleLikelihood(IID, k, arr)

    def objective(x: np.ndarray) -> float:
        return -loglik(IID(expit(float(x[0]))))

    start = np.array([logit(_moment_start(arr, k))])
    res = nelder_mead(objective, start, max_iter=max_iter)
    p_hat = expit(float(res.x[0]))
    return FitResult(
        estimates={"p": p_hat},
        loglik=-res.fun,
        converged=res.converged,
        iterations=res.iterations,
    )


def fit_markov(sample, k: int, max_iter: int = 500) -> FitResult:
    """MLE of the chain's stay probabilities from first-run waiting times.

    The first trial is pinned to the stationary law of (alpha, beta), which
    keeps the problem two-dimensional and identifiable from waiting times
    alone; the reported ``p`` is that stationary success probability.
    """
    loglik = _SampleLikelihood(Markov, k, _as_sample(sample, k))

    def objective(x: np.ndarray) -> float:
        alpha = expit(float(x[0]))
        beta = expit(float(x[1]))
        return -loglik(Markov.stationary_start(alpha, beta))

    res = nelder_mead(objective, np.zeros(2), max_iter=max_iter)
    alpha = expit(float(res.x[0]))
    beta = expit(float(res.x[1]))
    model = Markov.stationary_start(alpha, beta)
    return FitResult(
        estimates={"alpha": alpha, "beta": beta, "p": model.stationary},
        loglik=-res.fun,
        converged=res.converged,
        iterations=res.iterations,
    )


_FITTERS = {"iid": fit_iid, "markov": fit_markov}


def bootstrap_se(
    sample,
    k: int,
    family: str,
    b: int,
    stream: SeededStream,
) -> dict[str, float]:
    """Bootstrap standard errors for a waiting-time fit.

    Resamples the data with replacement b times and refits; replicates that
    fail to converge (or error out) are dropped, but more than 20% of them
    failing aborts with RuntimeError rather than reporting a statistic built
    on a broken optimization.
    """
    return _bootstrap(sample, k, family, b, stream)[0]


def _bootstrap(
    sample,
    k: int,
    family: str,
    b: int,
    stream: SeededStream,
) -> tuple[dict[str, float], int]:
    """bootstrap_se's standard errors, and how many refits it dropped."""
    if family not in _FITTERS:
        raise ValueError(f"unknown model family {family!r}; use 'iid' or 'markov'")
    if b < 2:
        raise ValueError(f"bootstrap needs b >= 2 replicates, got {b}")
    arr = _as_sample(sample, k)
    fitter = _FITTERS[family]
    rng = stream.generator()
    draws: list[dict[str, float]] = []
    failures = 0
    for _ in range(b):
        resample = arr[rng.integers(0, arr.size, arr.size)]
        try:
            fit = fitter(resample, k)
        except (ValueError, ArithmeticError):
            failures += 1
            continue
        if not fit.converged:
            failures += 1
            continue
        draws.append(fit.estimates)
    if failures > 0.2 * b:
        raise RuntimeError(
            f"{failures} of {b} bootstrap refits failed; standard errors "
            "would be unreliable"
        )
    keys = draws[0].keys()
    errors = {key: float(np.std([d[key] for d in draws], ddof=1)) for key in keys}
    return errors, failures
