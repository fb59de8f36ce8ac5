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
derivative (1, -1)' H (1, -1).  Where the maximum lies on an edge of
(0, 1), most often beta -> 0, the likelihood is close to linear in the
probability there, and logit steps only creep out toward it; the Newton
step read in probability coordinates crosses the edge instead, and one
bound-constrained step pins the coordinate next to it, kept only at a
point that gains and satisfies the bound's KKT conditions (a projected
Newton step, as in Bertsekas, SIAM J. Control Optim. 20(2), 1982).  A
small hand-rolled Nelder-Mead stays as the derivative-free reference
optimizer that the tests hold the Newton fits against.

Uncertainty comes from a nonparametric bootstrap: resample the waiting
times, refit, and report the spread of the refitted estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometric import MAX_HORIZON, _h_sequence, _HPlan, mean_wait
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

    Runs the plain h recursion once, up to the largest wait, gathers the
    observed entries, scales them by the run's probability alpha^(k-1) and
    sums their logs.  Returns -inf when any observation carries zero
    probability (which a finite-precision pmf can legitimately produce deep
    in the tail).
    """
    k = _check_integer("run length k", k)
    arr = _as_sample(sample, k)
    probs = _h_sequence(model, k, int(arr.max()) - k + 1)[arr - k]
    probs *= model.alpha ** (k - 1)
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
        """The same along IID(p), the chain at (x[0], -x[0]), x[0] = logit p.

        Keeps the chain's own (value, score, Hessian) at the last point, in
        `on_line`, for a chain fit that starts there.
        """
        chain = self(x[0] * _IID_LINE)
        self.on_line = float(x[0]), chain
        value, score, hessian = chain
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
def _ascent(score: np.ndarray, hessian: np.ndarray) -> tuple[np.ndarray, float]:
    """The Newton step for a maximum and the gain the quadratic model
    predicts for it, g' A^-1 g / 2.

    A is -H with each eigenvalue replaced by its magnitude, floored at
    1e-12 of the largest (or of 1, if that is smaller), so it is positive
    definite and the step goes uphill even where H is not negative
    definite.
    """
    step, gain = _eigen_ascent(score.tolist(), (-hessian).tolist())
    return np.array(step), gain


def _eigen_ascent(g: list[float], a: list[list[float]]) -> tuple[list[float], float]:
    """_ascent on lists, with a = -H.  The eigenvectors of a symmetric
    2 x 2 matrix come from the rotation angle that diagonalizes it, the
    larger eigenvalue magnitude from its trace and the smaller from its
    determinant (1 x 1: the entry itself).
    """
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
    step = [0.0] * len(g)
    gain = 0.0
    for value, vector in pairs:
        along = sum(v * gi for v, gi in zip(vector, g))
        scaled = along / max(abs(value), floor)
        step = [si + scaled * v for si, v in zip(step, vector)]
        gain += 0.5 * along * scaled
    return step, gain


def _edge_step(score_at, x, f, g, h, last, tolerance, closed):
    """A step onto the edges of (0, 1) that the Newton step in probability
    coordinates crosses, as (point, its score_at); None when no coordinate
    heads to an edge or the point is refused.

    Every coordinate of x is a logit, so with p = expit(x) and s = p(1-p)
    the chain rule gives dL/dp = g/s and d2L/dp2 = (H - diag(g(1-2p)))/ss'.
    Where the likelihood is linear in p near an edge, its logit score and
    Hessian both vanish like s, and logit Newton steps creep toward the
    edge by about 1 each.  A coordinate heads to the edge that dL/dp points
    at when
      - the step that reached x moved it that way (at a chain fit's start,
        the IID optimum, the step in p also crosses edges the fit does
        not head for);
      - its remaining gain, |dL/dp| times its distance d to the edge, which
        is |g| / (1 - d), is above `tolerance`, which the stop test sees;
      - `closed` does not hold the edge as (coordinate, side);
      - its ascent step in p would cross the edge.
    Each such coordinate is pinned where that gain is half `tolerance`, and
    the free ones take their own Newton step for that change in p.  The
    point is taken only if it is a KKT point of the bound, with dL/dp of
    each pinned coordinate still pointing out of (0, 1) once the free ones
    take their Newton step there, and only if it gains.  An edge where
    dL/dp points back into (0, 1), or where the likelihood underflows,
    holds no maximum of its coordinate, and goes into `closed`.

    The arithmetic runs on Python floats: it is a handful of operations on
    one or two coordinates, run at every Newton iteration.
    """
    g, dims = g.tolist(), range(len(g))
    side = [math.copysign(1.0, v) for v in g]
    heading = [
        i
        for i, step in zip(dims, last.tolist())
        if side[i] * step > 0.0 and (i, side[i]) not in closed
    ]
    if not heading:
        return None
    x, h = x.tolist(), h.tolist()
    p, q = [expit(v) for v in x], [expit(-v) for v in x]
    distance = [b if v > 0.0 else a for v, a, b in zip(side, p, q)]
    heading = [i for i in heading if abs(g[i]) > tolerance * (1.0 - distance[i])]
    if not heading:
        return None
    s = [a * b for a, b in zip(p, q)]
    try:
        slope = [gi / si for gi, si in zip(g, s)]
        bend = [
            [(h[i][j] - (i == j) * g[i] * (1.0 - 2.0 * p[i])) / (s[i] * s[j])
             for j in dims]
            for i in dims
        ]
    except ZeroDivisionError:
        return None  # a coordinate sits on its edge already
    if not all(map(math.isfinite, slope + [v for row in bend for v in row])):
        return None
    move = _eigen_ascent(slope, [[-v for v in row] for row in bend])[0]
    bound = [i for i in heading if side[i] * move[i] > distance[i]]
    if not bound:
        return None
    free = [i for i in dims if i not in bound]

    def free_step(score, hessian):  # the free coordinates' Newton step
        if not free:
            return []
        return _eigen_ascent(
            [score[i] for i in free], [[-hessian[i][j] for j in free] for i in free]
        )[0]

    target = list(x)
    change = {}  # in p
    for i in bound:
        pinned = 0.5 * tolerance / abs(slope[i])
        target[i] = side[i] * (math.log1p(-pinned) - math.log(pinned))
        change[i] = side[i] * (distance[i] - pinned)
    shifted = [g[i] + sum(h[i][j] / s[j] * change[j] for j in bound) for i in dims]
    for i, v in zip(free, free_step(shifted, h)):
        target[i] += v
    target = np.array(target)
    trial = score_at(target)
    value, score, hessian = trial
    if score is None:
        inward = bound  # the likelihood underflows there
    else:
        g, h = score.tolist(), hessian.tolist()
        polish = free_step(g, h)
        inward = [
            i
            for i in bound
            if side[i] * (g[i] + sum(h[i][j] * v for j, v in zip(free, polish))) <= 0.0
        ]
    closed.update((i, side[i]) for i in inward)
    if inward or not value > f:
        return None
    return target, trial


def _newton(score_at, x0: np.ndarray, max_iter: int, first=None) -> NMResult:
    """Maximize a log-likelihood by damped Newton steps from x0, a point
    in logit coordinates.

    `score_at(x)` returns (value, score, Hessian), with value -inf where
    the likelihood cannot be evaluated; `first`, when given, is its value
    at x0.  Each step is capped at _MAX_STEP and backtracked until it
    passes an Armijo test.  Where the maximum lies on an edge of the
    parameter space, a logit going to infinity, _edge_step pins the
    coordinates that head there in one step instead.  Stops when the
    predicted gain falls below _GAIN_TOL or the value's rounding, or when
    no step along the ascent direction gains at all; that counts as
    converged if the predicted gain was under 1e-9 of the value.  The
    result carries the value with its sign flipped, as a minimizer's
    would.
    """
    max_iter = _check_integer("max_iter", max_iter)
    x = np.asarray(x0, dtype=np.float64)
    f, g, h = score_at(x) if first is None else first
    if not math.isfinite(f):
        raise ValueError("the likelihood underflows at the starting point")
    last = np.zeros_like(x)  # the step that reached x
    closed: set[tuple[int, float]] = set()  # edges without a maximum
    for iteration in range(1, max_iter + 1):
        step, gain = _ascent(g, h)
        tolerance = max(_GAIN_TOL, _ROUNDING * abs(f))
        if gain < tolerance:
            return NMResult(x, -f, iteration, True)
        edge = _edge_step(score_at, x, f, g, h, last, tolerance, closed)
        if edge is not None:
            last = edge[0] - x
            x, (f, g, h) = edge
            continue
        size = float(np.sqrt(step @ step))
        if size > _MAX_STEP:
            step *= _MAX_STEP / size
        slope = float(g @ step)
        t = 1.0
        while True:
            trial = score_at(x + t * step)
            if trial[0] > f and trial[0] >= f + 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:  # no gain left above rounding
                return NMResult(x, -f, iteration, gain < 1e-9 * max(1.0, abs(f)))
        last = t * step
        x = x + last
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
    """MLE of the success probability from first-run waiting times.

    ``loglik`` is the value Newton maximized on the fit's one jet plan:
    :func:`loglik_vk` at the estimate within 1e-13 relative.
    """
    arr, k = _fit_sample(sample, k)
    start = np.array([_moment_start(arr, k)])
    res = _newton(_SampleScore(k, arr).iid_line, start, max_iter)
    model = IID(expit(float(res.x[0])))
    return FitResult(
        estimates={"p": model.p},
        loglik=-res.fun,
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
    below the IID one.  Both fits run on one jet plan, and the chain's
    Newton starts on the IID fit's last evaluation when it was at the IID
    estimate.  ``loglik`` is, as for :func:`fit_iid`, the value Newton
    maximized, so it never reads below the IID fit's.
    """
    arr, k = _fit_sample(sample, k)
    score_at = _SampleScore(k, arr)
    start = np.array([_moment_start(arr, k)])
    x = float(_newton(score_at.iid_line, start, max_iter).x[0])
    at, chain = score_at.on_line
    res = _newton(score_at, x * _IID_LINE, max_iter, chain if at == x else None)
    model = Markov.stationary_start(expit(float(res.x[0])), expit(float(res.x[1])))
    return FitResult(
        estimates={"alpha": model.alpha, "beta": model.beta, "p": model.stationary},
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
