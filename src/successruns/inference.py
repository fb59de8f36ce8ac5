"""Maximum likelihood fitting from observed first-run waiting times.

The likelihood is the exact waiting-time pmf evaluated at the data, so the
fit inherits whatever the recursion routes guarantee.  Optimization happens
in logit space (every parameter lives in the open unit interval) by a
damped Newton method on the exact score and Hessian.  The h recursion is
linear in h, so it carries second-order jets of width 6 (value, first and
second derivatives in logit alpha and logit beta) through the same planned
kernel; the log-likelihood's value, score and Hessian then come from one
gather and a few sums.  IID(p) is the chain at (logit alpha, logit beta) =
(x, -x), x = logit p, seeded with h_1 = p and h_2 = q p, so an IID fit steps
along that line on the same jets, with score g . (1, -1) and second
derivative (1, -1)' H (1, -1).  A small
hand-rolled Nelder-Mead stays as the derivative-free reference optimizer
that the tests hold the Newton fits against.

Uncertainty comes from a nonparametric bootstrap: resample the waiting
times, refit, and report the spread of the refitted estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometric import MAX_HORIZON, _HPlan, mean_wait
from .models import IID, Markov, _check_integer
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
    """The waits as an int64 array, after checking that each is an integer
    in [k, MAX_HORIZON]: an array needs an integer dtype, and every entry
    of any other sequence must pass the integer rule."""
    if isinstance(sample, np.ndarray):
        arr = sample
        if arr.dtype.kind not in "iu":
            raise ValueError(f"waiting times need an integer dtype, got {arr.dtype}")
    else:
        arr = np.array([_check_integer("waiting time", x, least=0) for x in sample])
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
    return arr.astype(np.int64, copy=False)


def loglik_vk(model, k: int, sample) -> float:
    """Exact log-likelihood of first-run waiting times under a model.

    Returns -inf when any observation carries zero probability (which a
    finite-precision pmf can legitimately produce deep in the tail).
    """
    k = _check_integer("run length k", k)
    return _SampleLikelihood(k, _as_sample(sample, k))(model)


class _SampleLikelihood:
    """loglik_vk of one sample that has passed _as_sample, for any model.

    The h recursion is planned once, up to the largest wait, so each
    evaluation only runs it: lags and seeds in, the products, then a gather
    of the observed entries, scaled by the run's probability.
    """

    def __init__(self, k: int, arr: np.ndarray):
        self._k = k
        self._plan = _HPlan(k, int(arr.max()) - k + 1)
        self._at = arr - k

    def __call__(self, model) -> float:
        # the gather copies, so the plan's buffer never leaves the plan
        probs = self._plan.run(model)[self._at]
        probs *= model.alpha ** (self._k - 1)
        if (probs <= 0.0).any():
            return -math.inf
        return float(np.log(probs).sum())


def _exp_jet2(value, dx, dy, dxx, dxy, dyy) -> list[float]:
    """Taylor jet (1, x, y, x^2, xy, y^2) of value * exp(L - L0) from the
    derivatives of L at 0."""
    return [
        value,
        value * dx,
        value * dy,
        0.5 * value * (dxx + dx * dx),
        value * (dxy + dx * dy),
        0.5 * value * (dyy + dy * dy),
    ]


def _chain_jets(x: np.ndarray, powers: np.ndarray, k: int):
    """Jets in (x, y) = (logit alpha, logit beta) of the stationary chain's
    lags and seeds, with the derivatives of log alpha^(k-1).  None when a
    parameter rounds to 0 or 1.

    The lags are c_1 = beta and c_j = (1-alpha)(1-beta) alpha^(j-2), whose
    log has x-derivatives (1-alpha) j - (2-alpha) and -alpha (1-alpha)(j-1),
    and y-derivatives -beta and -beta (1-beta); so each jet is c_j times a
    quadratic in j, and `powers` holds (1, j, j^2) per lag.  The seeds are
    h_1 = p1 = (1-beta)/s and h_2 = (1-p1)(1-beta), with s = 2-alpha-beta.
    """
    a, b = expit(float(x[0])), expit(float(x[1]))
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        return None
    ab, bb = 1.0 - a, 1.0 - b  # d/dx log a = ab and d/dx log ab = -a
    a2 = 2.0 - a
    quad = np.array(
        [
            [1.0, -a2, -b, 0.5 * (a2 * a2 + a * ab), b * a2, 0.5 * b * (b - bb)],
            [0.0, ab, 0.0, -ab * a2 - 0.5 * a * ab, -b * ab, 0.0],
            [0.0, 0.0, 0.0, 0.5 * ab * ab, 0.0, 0.0],
        ]
    )
    lags = powers @ quad
    lags *= (ab * bb * a ** (powers[:, 1] - 2.0))[:, None]
    lags[:1] = _exp_jet2(b, 0.0, bb, 0.0, 0.0, -b * bb)  # c_1 = beta
    s = ab + bb  # log s has derivatives sx, sy, sxx, -sx sy, syy
    sx, sy = -a * ab / s, -b * bb / s
    sxx = -a * ab * (ab - a) / s - sx * sx
    syy = -b * bb * (bb - b) / s - sy * sy
    p1 = bb / s
    dy, dyy = -b - sy, -b * bb - syy  # the same for both seeds
    seeds = np.array(
        [
            _exp_jet2(p1, -sx, dy, -sxx, sx * sy, dyy),
            _exp_jet2((1.0 - p1) * bb, -a - sx, dy, -a * ab - sxx, sx * sy, dyy),
        ]
    )
    m = k - 1
    grad, hess = np.array([m * ab, 0.0]), np.array([[-m * a * ab, 0.0], [0.0, 0.0]])
    return a**m, lags, seeds, grad, hess


#: Where x^2, xy and y^2 sit among a jet's derivative entries, and the
#: Hessian entry over the Taylor coefficient at each place.
_SECOND = np.array([[2, 3], [3, 4]])
_FACTOR = np.array([[2.0, 1.0], [1.0, 2.0]])
#: IID(p) is the chain at (logit alpha, logit beta) = (x, -x), x = logit p.
_IID_LINE = np.array([1.0, -1.0])


class _SampleScore:
    """Log-likelihood of one sample that has passed _as_sample, with its
    score and Hessian in (logit alpha, logit beta).

    The h recursion is planned once with jets of width 6, up to the largest
    wait.  Each evaluation writes the lag and seed jets, runs the plan and
    gathers one jet per distinct wait.  With e = (h - h0) / h0, log h =
    log h0 + e - e^2 / 2 to second order, so the score and Hessian are
    weighted sums over the gathered jets.
    """

    def __init__(self, k: int, arr: np.ndarray):
        self._k = k
        self._plan = _HPlan(k, int(arr.max()) - k + 1, jet=6)
        waits, counts = np.unique(arr, return_counts=True)
        self._at = waits - k
        self._weights = counts.astype(np.float64)
        j = np.arange(1.0, self._plan.lags + 1.0)
        self._powers = np.stack([np.ones_like(j), j, j * j], axis=1)
        self._n = float(arr.size)

    def __call__(self, x: np.ndarray):
        """(value, score, Hessian) at x; (-inf, None, None) where the
        likelihood underflows or a parameter leaves (0, 1)."""
        jets = _chain_jets(x, self._powers, self._k)
        if jets is None:
            return -math.inf, None, None
        scale, lags, seeds, grad, hess = jets
        h = self._plan.run_jets(lags, seeds)[self._at]
        h0 = h[:, 0]
        if not (h0 > 0.0).all():
            return -math.inf, None, None
        w = self._weights
        e = h[:, 1:] / h0[:, None]
        sums = w @ e
        first = e[:, :2]
        hessian = _FACTOR * sums[_SECOND] - (first.T * w) @ first
        hessian += self._n * hess
        if not np.isfinite(hessian).all():
            return -math.inf, None, None
        value = float(w @ np.log(h0)) + self._n * math.log(scale)
        return value, sums[:2] + self._n * grad, hessian

    def iid_line(self, x: np.ndarray):
        """The same along IID(p), the chain at (x[0], -x[0]), x[0] = logit p."""
        value, score, hessian = self(x[0] * _IID_LINE)
        if score is None:
            return value, None, None
        (xx, xy), (_, yy) = hessian.tolist()
        return value, np.array([score[0] - score[1]]), np.array([[xx - 2.0 * xy + yy]])


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

    The fitters use Newton steps on the exact score; this derivative-free
    search is the reference the tests hold them to.

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


#: Largest step, in logit units, before the line search.
_MAX_STEP = 2.0
#: Newton stops once the quadratic model promises less than this gain, or
#: less than _ROUNDING times the log-likelihood: a few units in its last
#: place, which no step can be seen to gain.
_GAIN_TOL = 1e-13
_ROUNDING = 4.0 * np.finfo(np.float64).eps
#: A full step that beat its quadratic model is doubled only while the
#: gain predicted at the trial stays at least this share of the step's own.
_DOUBLING_RATIO = 0.25


def _ascent(score: np.ndarray, hessian: np.ndarray) -> tuple[np.ndarray, float]:
    """The Newton step for a maximum and the gain the quadratic model
    predicts for it, g' A^-1 g / 2.

    A is -H with each eigenvalue replaced by its magnitude, floored at
    1e-12 of the largest (or of 1, if that is smaller), so it is positive
    definite and the step goes uphill even where H is not negative
    definite.  The eigenvectors of a symmetric 2 x 2 matrix come from the
    rotation angle that diagonalizes it, the larger eigenvalue magnitude
    from its trace and the smaller from its determinant (1 x 1: the entry
    itself).
    """
    g = score.tolist()
    a = (-hessian).tolist()
    if len(g) == 1:
        pairs = [(a[0][0], (1.0,))]
    else:
        (p, r), (_, s) = a
        angle = 0.5 * math.atan2(2.0 * r, p - s)
        c, t = math.cos(angle), math.sin(angle)
        mid, radius = 0.5 * (p + s), math.hypot(0.5 * (p - s), r)
        upper, lower = mid + radius, mid - radius  # with (c, t) and (-t, c)
        if mid >= 0.0:  # the smaller magnitude from the determinant
            lower = (p * s - r * r) / upper if upper else 0.0
        else:
            upper = (p * s - r * r) / lower
        pairs = [(upper, (c, t)), (lower, (-t, c))]
    floor = 1e-12 * max(max(abs(value) for value, _ in pairs), 1.0)
    step = np.zeros(len(g))
    gain = 0.0
    for value, vector in pairs:
        along = sum(v * gi for v, gi in zip(vector, g))
        scaled = along / max(abs(value), floor)
        step += scaled * np.array(vector)
        gain += 0.5 * along * scaled
    return step, gain


def _newton(score_at, x0: np.ndarray, max_iter: int) -> NMResult:
    """Maximize a log-likelihood by damped Newton steps from x0.

    `score_at(x)` returns (value, score, Hessian), with value -inf where
    the likelihood cannot be evaluated.  Each step is capped at _MAX_STEP
    and backtracked until it passes an Armijo test.  A full step that
    gains at least what the quadratic model predicted, and whose trial
    point still predicts at least _DOUBLING_RATIO of the step's own gain,
    is doubled while it keeps gaining, which walks toward a maximum at a
    boundary of the parameter space (a logit going to infinity) in few
    steps; near an interior maximum the predicted gain falls quadratically,
    below that ratio, and the trial's Newton step is the next iteration's.
    Stops when the predicted gain falls below _GAIN_TOL or the value's
    rounding, or when no step along the ascent direction gains at all; that
    counts as converged if the predicted gain was under 1e-9 of the value.
    The result carries the value with its sign flipped, as a minimizer's
    would.
    """
    max_iter = _check_integer("max_iter", max_iter)
    x = np.asarray(x0, dtype=np.float64)
    f, g, h = score_at(x)
    if not math.isfinite(f):
        raise ValueError("the likelihood underflows at the starting point")
    ascent = None  # the step from x, when the last iteration computed it
    for iteration in range(1, max_iter + 1):
        step, gain = ascent if ascent is not None else _ascent(g, h)
        ascent = None
        if gain < max(_GAIN_TOL, _ROUNDING * abs(f)):
            return NMResult(x, -f, iteration, True)
        size = float(np.sqrt(step @ step))
        if size > _MAX_STEP:
            step *= _MAX_STEP / size
        slope = float(g @ step)
        model_gain = slope - 0.5 * float(step @ (-h) @ step)
        t = 1.0
        while True:
            trial = score_at(x + t * step)
            if trial[0] > f and trial[0] >= f + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:  # no gain left above rounding
                return NMResult(x, -f, iteration, gain < 1e-9 * max(1.0, abs(f)))
        if t == 1.0 and trial[0] - f >= model_gain:
            ascent = _ascent(trial[1], trial[2])
        if ascent is not None and ascent[1] >= _DOUBLING_RATIO * gain:
            ascent = None  # x moves past the trial
            while True:
                t *= 2.0
                further = score_at(x + t * step)
                if not further[0] > trial[0]:
                    t *= 0.5
                    break
                trial = further
        x = x + t * step
        f, g, h = trial
    return NMResult(x, -f, max_iter, False)


def _fit_sample(sample, k: int) -> tuple[np.ndarray, int]:
    """A sample that has passed _as_sample and has a likelihood maximum,
    with the run length as a Python int."""
    k = _check_integer("run length k", k)
    arr = _as_sample(sample, k)
    if (arr == k).all():
        raise ValueError(
            f"every waiting time equals k={k}: the likelihood grows toward a "
            "success probability of 1 and has no maximum inside (0, 1)"
        )
    return arr, k


def _moment_start(sample: np.ndarray, k: int) -> float:
    """Starting logit p from matching the mean waiting time (1-p^k)/(q p^k).

    The mean is strictly decreasing in p, so a bisection on logit p pins it
    down, to about 7e-3; Newton only needs a nearby interior point.  Means
    beyond what logit p in [-14, 14] reaches take that end.
    """
    target = float(sample.mean())
    lo, hi = -14.0, 14.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if mean_wait(IID(expit(mid)), k) > target:  # inf where p^-k overflows
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_iid(sample, k: int, max_iter: int = 500) -> FitResult:
    """MLE of the success probability from first-run waiting times."""
    arr, k = _fit_sample(sample, k)
    start = np.array([_moment_start(arr, k)])
    res = _newton(_SampleScore(k, arr).iid_line, start, max_iter)
    model = IID(expit(float(res.x[0])))
    return FitResult(
        estimates={"p": model.p},
        loglik=_SampleLikelihood(k, arr)(model),
        converged=res.converged,
        iterations=res.iterations,
    )


def fit_markov(sample, k: int, max_iter: int = 500) -> FitResult:
    """MLE of the chain's stay probabilities from first-run waiting times.

    The first trial is pinned to the stationary law of (alpha, beta), which
    keeps the problem two-dimensional and identifiable from waiting times
    alone; the reported ``p`` is that stationary success probability.

    Newton starts from the IID fit: IID(p) is the chain with alpha = p and
    beta = 1 - p, and every step gains, so the chain's likelihood is never
    below the IID one.  Both fits run on one jet plan.
    """
    arr, k = _fit_sample(sample, k)
    score_at = _SampleScore(k, arr)
    start = np.array([_moment_start(arr, k)])
    x = float(_newton(score_at.iid_line, start, max_iter).x[0])
    res = _newton(score_at, x * _IID_LINE, max_iter)
    model = Markov.stationary_start(expit(float(res.x[0])), expit(float(res.x[1])))
    return FitResult(
        estimates={"alpha": model.alpha, "beta": model.beta, "p": model.stationary},
        loglik=_SampleLikelihood(k, arr)(model),
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
    b = _check_integer("replicates b", b, least=2)
    k = _check_integer("run length k", k)
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
