"""Waiting time to the first run of k consecutive successes.

The distribution is driven by an auxiliary sequence h_v: h_1 = p1,
h_2 = q1 (1 - beta) and
  h_v = beta h_{v-1} + (1-alpha)(1-beta) sum_{i=0}^{k-2} alpha^i h_{v-i-2},
with P(V = v) = h_{v-k+1} alpha^(k-1).  IID(p) is the chain with p1 = alpha
= p and beta = q, so it runs the same recursion from h_1 = p, h_2 = q p: p
times the independent-trials h of the paper, whose P(V = v) is
h_{v-k+1} p^k.  The planned kernel (_HPlan) carries plain values, or jets
of width 6 for the likelihood's derivatives (see :mod:`.inference`).

At p = 1/2 the independent-trials h sequence is exactly the order-k
generalized Fibonacci sequence scaled by powers of two, which is what the
cross-checks against :mod:`successruns.fibk` exploit.  The same machinery
yields the rational probability generating functions, a two-root closed form
for k = 2, and the distribution of the longest success run over a fixed
horizon via the equivalence P(V <= n) = P(longest run in n trials >= k): by
the recursion for run lengths below a cut k*(n) of about log_{1/alpha} n,
and past it by a first-order sum over the trials where a run can start,
exact to rounding there.
"""

from __future__ import annotations

import math

import numpy as np

from .models import Pmf, TrialModel, _check_integer
from .polyseries import Poly, RationalGF


#: Largest horizon that :func:`default_vmax` and the sampler's horizon
#: extension may choose on their own; beyond it the caller passes a horizon.
MAX_HORIZON = 10**7
#: The block matrix of :func:`_h_sequence` holds at most twice this many
#: entries, which bounds its memory when both k and the horizon are large.
_BLOCK_ENTRIES = 2**20
#: Entries of the recursion buffer of :func:`_longest_laws`: the run lengths
#: up to the cut advance in one sweep while (horizon + cut) times their
#: number stays within it, and in chunks of run lengths only past it.
_LONGEST_ENTRIES = 2**20


def _lags(model: TrialModel, d: int) -> np.ndarray:
    """Weights c_1..c_d of h_v = sum_j c_j h_{v-j}.

    They do not depend on k: the run length only truncates the lags, so
    every run length of one model shares the same vector.
    """
    a, b = model.alpha, model.beta
    c = np.empty(d)
    c[:1] = b
    c[1:] = (1.0 - a) * (1.0 - b) * a ** np.arange(d - 1)
    return c


def _seeds(model: TrialModel) -> np.ndarray:
    """The values of h that precede the recursion, h_1 and h_2."""
    return np.array([model.p1, model.q1 * (1.0 - model.beta)])


def _jet_products(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each entry of a jet lands in its multiplication operator.

    A jet of width 1, 3 or 6 is a value with its Taylor coefficients to
    second order in 0, 1 or 2 variables, ordered 1, x[, y], x^2[, xy, y^2].
    Multiplying by the jet a is the linear map M with M[row, col] =
    a[src] for each (row, col, src) returned: monomial src times monomial
    col is monomial row.  Entries not listed are zero.
    """
    n = {1: 0, 3: 1, 6: 2}[width]
    monomials = [()] + [(i,) for i in range(n)]
    monomials += [(i, j) for i in range(n) for j in range(i, n)]
    index = {m: i for i, m in enumerate(monomials)}
    triples = [
        (index[tuple(sorted(a + b))], col, src)
        for src, a in enumerate(monomials)
        for col, b in enumerate(monomials)
        if tuple(sorted(a + b)) in index
    ]
    return tuple(np.array(t) for t in zip(*triples))


_JET_PRODUCTS = {width: _jet_products(width) for width in (1, 3, 6)}


class _HPlan:
    """The h recursion of :func:`_h_sequence`, laid out once for every
    model at one (k, count).

    Only lags that reach back to h_1 matter, so d = min(k, count - 1) of
    them are kept.  A matrix M maps the last d values to the next B, and
    each block of B values costs one matrix-vector product.  M is built by
    doubling: its first b rows, applied to the window moved on by b values,
    give the next b rows.  B, a power of two near 2 sqrt(count), keeps both
    stages near O(count d) work in O(sqrt(count)) numpy calls.  Every
    weight is non-negative, so no step cancels.

    With jet width J > 1 each value is a jet (see :func:`_jet_products`):
    h and its first and second derivatives.  The recursion is linear in h,
    so it carries jets unchanged once each weight c_j acts as the J x J
    operator of multiplication by its jet.  Every entry of M, and of the
    window, becomes a J x J block or a J-vector, and the same doubling and
    block products compute the jet recursion exactly.

    The plan holds M, the window buffer and the view that every product
    reads and writes, so a run only writes the weights and seeds and issues
    the products.  Each run overwrites the buffers, including the array the
    previous run returned.
    """

    def __init__(self, k: int, count: int, jet: int = 1):
        self._count = max(count, 0)
        n_seeds = min(2, self._count)  # len(_seeds)
        self._jet, self._products = jet, _JET_PRODUCTS[jet]
        self._h = None
        self.lags = 0
        if self._count == n_seeds:
            return
        d = self.lags = min(k, count - 1)
        block = min(math.isqrt(4 * count), max(1, _BLOCK_ENTRIES // (d * jet**2)))
        # lag j's weight, or its operator, is the block of the first row
        # (block) at column (block) d - j: h_t from the window h_{t-d..t-1}
        mat = self._mat = np.zeros((jet << (block - 1).bit_length(), d * jet))
        self._lag_row = mat[0, ::-1]
        self._doubling = []
        b = 1
        while b < block:
            u = min(b, d)  # the moved window's last u values are rows b-u..b-1
            shift = None
            if b < d:  # and its first d-b values are the old window's last
                shift = (
                    mat[b * jet : 2 * b * jet, b * jet :],
                    mat[: b * jet, : (d - b) * jet],
                )
            self._doubling.append(
                (
                    mat[: b * jet, (d - u) * jet :],
                    mat[(b - u) * jet : b * jet],
                    mat[b * jet : 2 * b * jet],
                    shift,
                )
            )
            b *= 2
        x = np.zeros((d + count) * jet)  # d zero values stand for h_v, v <= 0
        self._seed_slots = x[d * jet : (d + n_seeds) * jet]
        self._blocks = []
        for t in range(n_seeds, count, b):
            rows = min(b, count - t)
            self._blocks.append(
                (
                    mat[: rows * jet],
                    x[t * jet : (t + d) * jet],
                    x[(d + t) * jet : (d + t + rows) * jet],
                )
            )
        self._h = x[d * jet :] if jet == 1 else x[d * jet :].reshape(count, jet)

    def run(self, model: TrialModel) -> np.ndarray:
        """h_1..h_count for `model`, in the plan's buffer (jet width 1)."""
        if self._h is None:
            return _seeds(model)[: self._count]
        self._lag_row[:] = _lags(model, self.lags)
        self._seed_slots[:] = _seeds(model)
        return self._advance()

    def run_jets(self, lags: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Jets of h_1..h_count, shape (count, J), in the plan's buffer.

        `lags` holds the jets of c_1..c_d, shape (d, J), with d =
        ``self.lags``; `seeds` those of the values that precede the
        recursion, shape (2, J).
        """
        if self._h is None:
            return seeds[: self._count]
        rows, cols, src = self._products
        jet, d = self._jet, self.lags
        ops = self._mat[:jet].reshape(jet, d, jet)[:, ::-1].transpose(1, 0, 2)
        ops[:, rows, cols] = lags[:, src]  # ops[j - 1] acts for lag j
        self._seed_slots[:] = seeds.ravel()
        return self._advance()

    def _advance(self) -> np.ndarray:
        for lhs, rhs, out, shift in self._doubling:
            np.dot(lhs, rhs, out)
            if shift is not None:
                np.add(shift[0], shift[1], out=shift[0])
        for lhs, rhs, out in self._blocks:
            np.dot(lhs, rhs, out)
        return self._h


def _h_sequence(model: TrialModel, k: int, count: int) -> np.ndarray:
    """First `count` values h_1..h_count of the auxiliary recursion.

    Plans the blocked recursion (:class:`_HPlan`) and runs it once; a
    caller that runs many models at one horizon keeps the plan instead.
    """
    return _HPlan(k, count).run(model)


def mean_wait(model: TrialModel, k: int) -> float:
    """E[V(k)] in closed form, from first-step equations over streak states.

    Stays finite far beyond where the pgf's moments cancel, which is where
    it is needed: to describe waits too long to tabulate.
    """
    k = _check_integer("run length k", k)
    a, b = model.alpha, model.beta
    try:
        # expected trials after a failure; after a success, 1/(1-b) fewer
        stay = (1.0 - a ** (k - 1)) / (1.0 - a)
        after_failure = (1.0 / (1.0 - b) + stay) * a ** (1 - k)
    except OverflowError:  # a wait beyond float range
        return math.inf
    return 1.0 + after_failure - model.p1 / (1.0 - b)


def horizon_error(model: TrialModel, k: int, horizon: float) -> ValueError:
    """The error for an automatic horizon that would exceed MAX_HORIZON."""
    return ValueError(
        f"the first {k}-run wait has mean {mean_wait(model, k):.6g} trials; "
        f"covering it takes a horizon of {horizon:.0f} trials, above the limit "
        f"of {MAX_HORIZON}"
    )


def _log_decay(model: TrialModel, k: int) -> float:
    """log rho for the dominant root rho of the h recursion: the positive
    root of sum_{j<=k} c_j rho^(-j) = 1.  The weights are non-negative, so
    no root is larger in modulus, and the pmf decays like rho^v.

    In u = log rho the log of the sum is convex and decreasing, so Newton
    from left of the root climbs to it without overshooting.  Both starts
    are left of it: the sum's tangent at u = 0 meets 1 there, and the
    largest (log c_j) / j keeps every term at most 1, so none overflows.
    """
    c = _lags(model, k).tolist()
    log_c = [math.log(x) if x > 0.0 else -math.inf for x in c]  # 0: underflow
    tangent = (sum(c) - 1.0) / sum(j * x for j, x in enumerate(c, 1))
    u = max(tangent, max(lc / j for j, lc in enumerate(log_c, 1)))
    for _ in range(100):  # a handful of steps; the cap only bounds the loop
        w = [math.exp(lc - j * u) for j, lc in enumerate(log_c, 1)]
        total = sum(w)
        step = math.log(total) * total / sum(j * x for j, x in enumerate(w, 1))
        if not step > 1e-15 * abs(u):
            break
        u += step
    return u


def _covering_horizon(model: TrialModel, k: int) -> float:
    """max(10k, log(1e-12) / log(rho)), rho the decay ratio of the
    recursion's dominant root (:func:`_log_decay`): the horizon that leaves
    about 1e-12 of mass in the tail.  Unbounded: 10k alone where that is
    above MAX_HORIZON, inf where rho rounds to 1.
    """
    if 10 * k > MAX_HORIZON:
        return 10 * k
    log_rho = _log_decay(model, k)
    span = math.log(1e-12) / log_rho if log_rho < 0.0 else math.inf
    return max(10 * k, span)


def default_vmax(model: TrialModel, k: int) -> int:
    """Truncation horizon leaving about 1e-12 of mass in the tail.

    Returns :func:`_covering_horizon` rounded up.  Raises ValueError when
    that exceeds MAX_HORIZON.
    """
    k = _check_integer("run length k", k)
    horizon = _covering_horizon(model, k)
    if horizon > MAX_HORIZON:
        raise ValueError(
            f"{horizon_error(model, k, horizon)}; pass an explicit horizon where "
            "one is accepted (vmax, or --vmax on the command line)"
        )
    return math.ceil(horizon)


def vk_pmf(model: TrialModel, k: int, vmax: int | None = None) -> Pmf:
    """Distribution of the trial index at which the first k-run completes.

    Parameters
    ----------
    model : TrialModel
    k : int
        Required run length.
    vmax : int, optional
        Truncation horizon (inclusive); defaults to :func:`default_vmax`.

    Returns
    -------
    Pmf
        Offset k, entries for v = k..vmax, remaining mass in ``tail``.
    """
    k = _check_integer("run length k", k)
    if vmax is None:
        vmax = default_vmax(model, k)
    else:
        vmax = _check_integer("horizon vmax", vmax, least=0)
    if vmax < k:
        return Pmf(offset=k, probs=np.zeros(0), tail=1.0)
    probs = model.alpha ** (k - 1) * _h_sequence(model, k, vmax - k + 1)
    return Pmf(offset=k, probs=probs, tail=1.0 - float(probs.sum()))


def markov_vk_pgf(k: int, alpha: float, beta: float, first_p: float) -> RationalGF:
    """Generating function of the k-run wait for a chain restarted with
    first-trial success probability ``first_p``.

    This is the workhorse behind both the first-run pgf of every model
    (``first_p = p1``) and the inter-occurrence factors of the r-th-run
    module, which restart the chain from a success (``first_p = alpha``) or
    from a failure (``first_p = 1 - beta``).
    """
    k = _check_integer("run length k", k)
    q_first = 1.0 - first_p
    lead = alpha ** (k - 1)
    num = Poly.term(lead * first_p, k) + Poly.term(lead * (q_first - beta), k + 1)
    den_coeffs = [0.0] * (k + 1)
    den_coeffs[0] = 1.0
    den_coeffs[1] = -beta
    for i in range(2, k + 1):
        den_coeffs[i] = -(alpha ** (i - 2)) * (1.0 - alpha) * (1.0 - beta)
    return RationalGF(num, Poly(den_coeffs))


def vk_pgf(model: TrialModel, k: int) -> RationalGF:
    """Rational probability generating function of the first k-run wait."""
    return markov_vk_pgf(k, model.alpha, model.beta, model.p1)


def vk_pmf_closedform_k2(model: TrialModel, v: int) -> float:
    """P(V = v) for k = 2 from the two-root solution of the h recursion.

    The auxiliary recursion for k = 2 is a three-term linear recurrence; its
    general solution is a weighted sum of powers of the two real roots of the
    characteristic quadratic, with weights pinned by h_1 and h_2.  Must agree
    with :func:`vk_pmf` to floating precision and exists purely as an
    independent route for the cross-check suites.
    """
    v = _check_integer("trial index v", v)
    if v < 2:
        return 0.0
    a, b = model.alpha, model.beta
    h1, h2 = model.p1, model.q1 * (1.0 - b)
    root = math.sqrt(b * b + 4.0 * (1.0 - a) * (1.0 - b))
    r1 = 0.5 * (b + root)
    r2 = 0.5 * (b - root)
    c1 = (h2 - r2 * h1) / (r1 * (r1 - r2))
    c2 = (r1 * h1 - h2) / (r2 * (r1 - r2))
    return a * (c1 * r1 ** (v - 1) + c2 * r2 ** (v - 1))


def _first_run_cdfs(model: TrialModel, ks: np.ndarray, n: int) -> np.ndarray:
    """P(V(k) <= m) for consecutive run lengths ks, every m <= n, one pass.

    Row k runs the h recursion with its lags cut at k; all rows advance
    together, one trial index at a time, each step one weighted sum over
    the window of the last `width` values.  Entry [t, i] of the result is
    P(V(ks[i]) <= ks[i] + t): the run prefix times the sum of h_1..h_{t+1}.
    """
    count = n - int(ks[0]) + 1  # the first row needs the most values
    width = min(int(ks[-1]), count - 1)
    seeds = _seeds(model)[:count]
    lag = np.arange(width, 0, -1)  # window row m holds h_{v-lag[m]}
    weights = _lags(model, width)[::-1, None] * (lag[:, None] <= ks)
    h = np.zeros((width + count, len(ks)))  # width zero rows: h_v, v <= 0
    h[width : width + len(seeds)] = seeds[:, None]
    for t in range(len(seeds), count):
        h[width + t] = np.einsum("mr,mr->r", weights, h[t : t + width])
    return model.alpha ** (ks - 1) * np.cumsum(h[width:], axis=0)


def _longest_cut(model: TrialModel, n: int) -> int:
    """k*(n): the smallest run length k >= 1 from which P(V(k) <= n) is the
    first-order sum of :func:`_longest_laws` to rounding.

    That is the smallest k with 2k >= n, where at most one run of length
    >= k fits in n trials and the sum is exact, or with delta = n (1 - beta)
    alpha^(k-1) <= 2^-53, where the overlaps it drops are below rounding.
    """
    half = (n + 1) // 2
    if half <= 1:
        return 1
    rate = n * (1.0 - model.beta)
    # (k - 1) log alpha <= log(2^-53 / rate), in logs so nothing overflows
    lags = math.ceil((-53 * math.log(2.0) - math.log(rate)) / math.log(model.alpha))
    return min(half, 1 + max(0, lags))


def _failure_laws(model: TrialModel, m: int) -> tuple[np.ndarray, np.ndarray]:
    """P(X_t = 0) for the trials t = 1..m, and F(t) = sum_{s<=t} P(X_s = 0).

    A two-state forward pass, doubled: with T the transition and x_t the
    law of trial t, the laws of trials L+1..2L are T^L x_1..T^L x_L, and
    their running sums add T^L (x_1 + .. + x_i) to the first L's total.  A
    sum of m values is thus built in about log2 m levels of non-negative
    products and sums, not m sequential additions.  Each trial's values come
    out the same whatever m is.
    """
    a, b = model.alpha, model.beta
    step = np.array([[a, 1.0 - b], [1.0 - a, b]])  # (success, failure) onward
    # x[state, 0, t - 1] = P(X_t = state), x[state, 1, t - 1] its running sum
    x = np.array([[[model.p1]] * 2, [[model.q1]] * 2])
    while x.shape[2] < m:
        moved = (step @ x.reshape(2, -1)).reshape(x.shape)
        moved[:, 1] += x[:, 1, -1:]
        x = np.concatenate([x, moved], axis=2)
        step = step @ step
        step /= step.sum(axis=0)  # a squared power drifts off unit mass
    return x[1, 0, :m], x[1, 1, :m]


def _longest_laws(model: TrialModel, horizons: range) -> list[Pmf]:
    """Laws of the longest success run L_n in n trials, each n in horizons.

    P(L_n = 0) = q1 beta^(n-1), the all-failure path.  Past it the law
    follows from P(L_n >= k) = P(V(k) <= n), which takes two routes, split
    at each horizon's cut k*(n) (:func:`_longest_cut`).

    From k*(n) on, P(V(k) <= n) is the first-order sum over the trials s
    where a run of k successes can start (Feller vol. I, XIII.7;
    Balakrishnan & Koutras, *Runs and Scans with Applications*, 2002,
    ch. 2):

      S_k = alpha^(k-1) (p1 + (1 - beta) F(n-k)),  F(m) = sum_{t<=m} P(X_t = 0).

    It counts a sequence once per such run, so it is exact when 2k >= n,
    where at most one fits.  Otherwise two starts co-occur with probability
    at most P(start at s) (1 - beta) alpha^(k-1) summed over s, so P(V(k)
    <= n) >= S_k (1 - delta) with delta = n (1 - beta) alpha^(k-1) <=
    2^-53: S_k is within relative error delta / (1 - delta) of it.  Entry
    j >= k* is S_j - S_{j+1}, written out as the non-negative sum

      alpha^(j-1) ((1 - alpha) (p1 + (1 - beta) F(n-j-1))
                   + (1 - beta) P(X_{n-j} = 0))

    (alpha^(n-1) p1 at j = n), so nothing cancels in floating point; it is
    within (delta / (1 - delta)) P(L_n >= j) / P(L_n = j) of exact.

    Below the cut, entry j is P(V(j) <= n) - P(V(j+1) <= n) from the h
    recursion, which runs for k <= k*(n) only, so that entry k* - 1, too, is
    a difference within one route.  That is about log_{1/alpha}(n (1 -
    beta) / 2^-53) run lengths, each step a weighted sum over a window of up
    to k* values, at a cost of O(n k*^2) rather than O(n^3).  One pass to the
    last horizon advances them together while its buffer stays within
    _LONGEST_ENTRIES entries (in chunks of run lengths only past it), and
    every horizon reads its P(V(k) <= n) off the same cumulative sums.  Each
    horizon takes its own cut, so every law is the one a single horizon
    gives.  The support 0..n is complete, so each tail is exactly zero.
    """
    if not horizons:
        return []
    nmax = horizons[-1]
    cuts = [_longest_cut(model, n) for n in horizons]
    # cdf[k - 1] = P(V(k) <= n) from the recursion, k = 1..k*(n); none at
    # k* = 1, where every entry past the first comes from the sum
    cdfs = [np.zeros(cut if cut > 1 else 0) for cut in cuts]
    top = max(len(cdf) for cdf in cdfs)
    chunk = max(1, _LONGEST_ENTRIES // (nmax + top + 1))
    for first in range(1, top + 1, chunk):
        ks = np.arange(first, min(first + chunk, top + 1))
        sums = _first_run_cdfs(model, ks, nmax)
        for n, cdf in zip(horizons, cdfs):
            reach = ks[ks <= len(cdf)]
            cdf[reach - 1] = sums[n - reach, reach - first]
    zeros, running = _failure_laws(model, max(nmax - 1, 0))  # trials t < nmax
    before = np.concatenate(([0.0], running))  # F(m), m = 0..nmax-1
    a, p1, lift = model.alpha, model.p1, 1.0 - model.beta
    laws = []
    for n, cut, cdf in zip(horizons, cuts, cdfs):
        probs = np.empty(n + 1)
        probs[0] = model.q1 * model.beta ** (n - 1) if n else 1.0
        probs[1:cut] = cdf[:-1] - cdf[1:]  # empty at k* = 1
        js = np.arange(cut, n)
        after = n - js - 1  # F(n-j-1) and P(X_{n-j} = 0)
        probs[cut:n] = a ** (js - 1) * (
            (1.0 - a) * (p1 + lift * before[after]) + lift * zeros[after]
        )
        if n:
            probs[n] = a ** (n - 1) * p1
        laws.append(Pmf(offset=0, probs=probs))
    return laws


def longest_run_pmf(model: TrialModel, n: int) -> Pmf:
    """Distribution of the longest success run over n trials.

    Reads the one row of :func:`_longest_laws` at horizon n.
    """
    n = _check_integer("horizon n", n, least=0)
    return _longest_laws(model, range(n, n + 1))[0]
