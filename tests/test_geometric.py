"""First k-run waiting time and longest-run distributions."""

import math
import time

import numpy as np
import pytest
from exact_referee import chain_of, gaps, longest_law, wait_law

from successruns import geometric
from successruns.fibk import fib_k
from successruns.geometric import (
    _BLOCK_ENTRIES,
    MAX_HORIZON,
    _h_sequence,
    _HPlan,
    _lags,
    _longest_cut,
    _longest_laws,
    _seeds,
    default_vmax,
    longest_run_pmf,
    markov_vk_pgf,
    mean_wait,
    vk_pgf,
    vk_pmf,
    vk_pmf_closedform_k2,
)
from successruns.inference import fit_iid, loglik_vk
from successruns.models import IID, Markov, Pmf
from successruns.oracle import (
    LongestRun,
    SeededStream,
    enumerate_exact,
    sample_waiting_times,
)
from successruns.rth_waiting import Scheme, trk_moments

MODELS = [IID(0.5), IID(0.3), Markov(0.45, 0.3, 0.6), Markov(0.62, 0.55, 0.35)]


def test_fair_coin_first_double_success_by_hand():
    # sequences of length v ending in the first SS: 1/4, 1/8, 1/8, 3/32, ...
    pm = vk_pmf(IID(0.5), 2, vmax=6)
    assert math.isclose(pm.p(2), 0.25, abs_tol=1e-15)
    assert math.isclose(pm.p(3), 0.125, abs_tol=1e-15)
    assert math.isclose(pm.p(4), 0.125, abs_tol=1e-15)
    assert math.isclose(pm.p(5), 0.09375, abs_tol=1e-15)
    assert pm.p(1) == 0.0


def test_k_equal_one_is_geometric():
    p = 0.3
    pm = vk_pmf(IID(p), 1, vmax=30)
    for v in range(1, 31):
        assert math.isclose(pm.p(v), (1 - p) ** (v - 1) * p, abs_tol=1e-14)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_mass_accounts_for_tail(model, k):
    pm = vk_pmf(model, k, vmax=25)
    assert pm.offset == k
    total = float(np.sum(pm.probs)) + pm.tail
    assert math.isclose(total, 1.0, abs_tol=1e-12)
    assert pm.tail > 0.0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pgf_series_matches_pmf(model, k):
    vmax = 40
    coeffs = vk_pgf(model, k).series(vmax)
    pm = vk_pmf(model, k, vmax=vmax)
    dense = np.zeros(vmax + 1)
    dense[pm.offset : pm.offset + len(pm.probs)] = pm.probs
    assert np.allclose(coeffs, dense, atol=1e-12)


def test_markov_pgf_wrapper_consistency():
    m = Markov(0.45, 0.3, 0.6)
    a = markov_vk_pgf(3, m.alpha, m.beta, m.p1).series(30)
    b = vk_pgf(m, 3).series(30)
    assert np.allclose(a, b, atol=1e-14)


@pytest.mark.parametrize("model", MODELS)
def test_closed_form_k2_matches_recursion(model):
    pm = vk_pmf(model, 2, vmax=200)
    for v in range(2, 201):
        assert abs(vk_pmf_closedform_k2(model, v) - pm.p(v)) < 1e-10


def test_default_vmax_leaves_negligible_tail():
    for model in MODELS:
        for k in (1, 2, 3):
            pm = vk_pmf(model, k)
            assert pm.support_end == default_vmax(model, k)
            assert pm.tail < 1e-9


def test_vk_rejects_bad_run_length():
    with pytest.raises(ValueError):
        vk_pmf(IID(0.5), 0)


def test_vk_sub_support_horizon_is_all_tail():
    pm = vk_pmf(IID(0.5), 2, vmax=1)
    assert len(pm.probs) == 0
    assert pm.tail == 1.0


# ---------------------------------------------------------------------------
# longest_run_pmf: the recursion below the cut, the first-order sum past it

#: Horizons at the edges of the old route's chunks of 64 run lengths.
LONGEST_NS = [1, 2, 3, 63, 64, 65, 129]


def _first_run_cdfs_old(model, ks, n):
    """_first_run_cdfs as the old route ran it (kept verbatim)."""
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


def _longest_laws_all_k(model, horizons):
    """_longest_laws as it ran the recursion for every run length, 64 at a
    time, and took P(L_n = 0) as 1 - P(V(1) <= n) (kept verbatim)."""
    if not horizons:
        return []
    nmax = horizons[-1]
    # cdf[k - 1] = P(V(k) <= n) at k = 1..n+1; zero for k = n+1
    cdfs = [np.zeros(n + 1) for n in horizons]
    for first in range(1, nmax + 1, 64):
        ks = np.arange(first, min(first + 64, nmax + 1))
        sums = _first_run_cdfs_old(model, ks, nmax)
        for n, cdf in zip(horizons, cdfs):
            reach = ks[ks <= n]
            cdf[reach - 1] = sums[n - reach, reach - first]
    laws = []
    for cdf in cdfs:
        probs = np.empty(len(cdf))
        probs[0] = 1.0 - cdf[0]
        probs[1:] = cdf[:-1] - cdf[1:]
        laws.append(Pmf(offset=0, probs=probs))
    return laws


CUT_MODELS = [IID(0.5), IID(0.83), Markov(0.45, 0.3, 0.6), Markov(0.3, 0.9, 0.2)]


@pytest.mark.parametrize("model", CUT_MODELS)
@pytest.mark.parametrize("n", [*LONGEST_NS, 253, 1000, 2000])
def test_longest_run_law_agrees_with_the_all_k_route(model, n):
    got = longest_run_pmf(model, n).probs
    want = _longest_laws_all_k(model, range(n, n + 1))[0].probs
    assert 0.5 * np.abs(got - want).sum() <= 1e-15
    # P(L_n = 0) is mended: the old route took it as 1 - P(V(1) <= n)
    assert got[0] == model.q1 * model.beta ** (n - 1)
    big = want[1:] > 1e-300
    rel = np.abs(got[1:][big] - want[1:][big]) / want[1:][big]
    assert rel.max(initial=0.0) <= 1e-13


def test_longest_cut_takes_the_first_order_sum_where_it_is_exact_or_rounding():
    # 2k >= n binds at short horizons; delta = n (1 - beta) alpha^(k-1) <=
    # 2^-53 at long ones, and the cut is the smallest k with either
    for model in CUT_MODELS:
        for n in range(1, 3000, 37):
            cut = _longest_cut(model, n)
            rate = n * (1.0 - model.beta)
            below, at = rate * model.alpha ** np.array([cut - 2, cut - 1])
            assert 2 * cut >= n or at <= 2.0**-53, (n, cut)
            if cut > 1:
                assert 2 * (cut - 1) < n and below > 2.0**-53, (n, cut)
    assert _longest_cut(IID(0.5), 20) == 10 and _longest_cut(IID(0.5), 21) == 11
    assert _longest_cut(Markov(0.3, 0.9, 0.2), 2000) == 420


def test_longest_laws_sweep_in_chunks_past_the_entry_budget(monkeypatch):
    # 2^17 entries split the 238 run lengths below the cut at n = 2000 into
    # five chunks of 58; as with many horizons, a chunk's narrower window may
    # be summed in another order, which moves an entry by a few 1e-16
    model, n = IID(0.83), 2000
    whole = longest_run_pmf(model, n).probs
    monkeypatch.setattr(geometric, "_LONGEST_ENTRIES", 2**17)
    chunked = longest_run_pmf(model, n).probs
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", [IID(0.5), Markov(0.3, 0.9, 0.2)])
def test_longest_run_law_at_5000_trials_within_budget(model):
    n = 5000
    start = time.perf_counter()
    longest_run_pmf(model, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, elapsed
    cut = _longest_cut(model, n)
    ks = sorted({*range(1, 40), *range(40, n + 1, 397), cut - 1, cut, cut + 1, n})
    assert_longest_duality(model, n, ks)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", [1, 2, 3, 9, 16])
def test_longest_run_matches_enumeration(model, n):
    got = longest_run_pmf(model, n)
    want = enumerate_exact(model, n, LongestRun())
    assert got.offset == want.offset == 0
    np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-13)


def assert_longest_duality(model, n, ks):
    pm = longest_run_pmf(model, n)
    assert len(pm.probs) == n + 1 and pm.tail == 0.0
    assert math.isclose(float(pm.probs.sum()), 1.0, abs_tol=1e-12)
    for k in ks:
        at_least = float(pm.probs[k:].sum())
        by_wait = float(vk_pmf(model, k, vmax=n).probs.sum())
        assert abs(at_least - by_wait) < 1e-12, (k, at_least, by_wait)


DYADIC = [IID(0.375), Markov(0.5, 0.25, 0.625)]


@pytest.mark.parametrize("model", DYADIC)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_first_run_law_matches_the_exact_law(model, k):
    law = wait_law(chain_of(model), k, 1, "I", 200)
    tv, rel = gaps(vk_pmf(model, k, vmax=200), law)
    assert tv <= 1e-12 and rel <= 1e-9, (tv, rel)


def _low_entries_cancel(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.mark.parametrize(
    "model,n",
    [(m, n) for n in (30, 40) for m in DYADIC]
    # the cut, at 2k = n and at 2k = n + 1, and at delta <= 2^-53 (k* = 30)
    + [(m, n) for m in DYADIC for n in (20, 21)]
    + [(DYADIC[1], 80)]
    + [
        pytest.param(
            Markov(0.3, 0.9, 0.2),
            30,
            marks=_low_entries_cancel(
                "P(L_n = 1) = P(V(1) <= n) - P(V(2) <= n) cancels at high "
                "alpha: 8.2e-5 relative off at n = 30 (TV 1.2e-15)"
            ),
        ),
        pytest.param(
            Markov(0.3, 0.9, 0.2),
            60,
            marks=_low_entries_cancel(
                "P(L_n = 1) is 100% off at n = 60 (P(L_n = 2) 4.6e-2; TV "
                "2.3e-15)"
            ),
        ),
        pytest.param(
            IID(0.62),
            60,
            marks=_low_entries_cancel(
                "P(L_n = 1) is 1.3e-7 relative off at n = 60 (TV 7.6e-16)"
            ),
        ),
    ],
)
def test_longest_run_law_matches_the_exact_law(model, n):
    tv, rel = gaps(longest_run_pmf(model, n), longest_law(chain_of(model), n))
    assert tv <= 1e-12 and rel <= 1e-9, (tv, rel)


def test_longest_run_five_fair_trials_by_hand():
    # 32 equally likely strings; count by maximal success-run length
    pm = longest_run_pmf(IID(0.5), 5)
    want = {0: 1 / 32, 1: 12 / 32, 2: 11 / 32, 3: 5 / 32, 4: 2 / 32, 5: 1 / 32}
    for value, prob in want.items():
        assert math.isclose(pm.p(value), prob, abs_tol=1e-14)
    assert pm.tail == 0.0


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n", [1, 2, 6, 12])
def test_longest_run_mass_is_exact(model, n):
    pm = longest_run_pmf(model, n)
    assert pm.offset == 0
    assert len(pm.probs) == n + 1
    assert math.isclose(float(np.sum(pm.probs)), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("model", MODELS)
def test_longest_run_routes_agree(model):
    for n in (3, 8, 14):
        pm = longest_run_pmf(model, n)
        exact = enumerate_exact(model, n, LongestRun())
        for k in range(0, n + 1):
            assert abs(pm.p(k) - exact.p(k)) < 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_longest_run_columns_match_enumeration(model):
    # P(longest = k) along n for fixed k: what the longest-run generating
    # function in n expands to
    exact = {n: enumerate_exact(model, n, LongestRun()) for n in (2, 7, 20)}
    for k in (0, 1, 2, 4):
        for n, law in exact.items():
            assert abs(law.p(k) - longest_run_pmf(model, n).p(k)) < 1e-10


def test_longest_laws_for_many_horizons_past_one_chunk():
    # one pass to n = 130 runs the recursion for run lengths up to the last
    # horizon's cut and sums a wider window of it than a pass to a shorter
    # horizon does; the extra terms are exact zeros, but a numpy build may
    # associate the window's sum differently, which moves an entry by a few
    # 1e-16
    model, nmax = IID(0.62), 130
    laws = _longest_laws(model, range(nmax + 1))
    assert len(laws) == nmax + 1
    for n, law in enumerate(laws):
        alone = longest_run_pmf(model, n)
        assert (law.offset, law.tail, len(law.probs)) == (0, 0.0, n + 1)
        np.testing.assert_allclose(law.probs, alone.probs, rtol=0, atol=1e-15)


def test_longest_run_duality_with_waiting_time():
    # the longest run reaches k within n trials iff the first k-run wait is
    # <= n; the horizons straddle the edges of the old route's chunks of k,
    # and at n = 129 the faster chains' cut falls below n / 2
    for model in MODELS:
        for n in (4, 9, 15, *LONGEST_NS):
            assert_longest_duality(model, n, range(1, n + 1))


@pytest.mark.parametrize("model", [IID(0.5), Markov(0.45, 0.3, 0.6)])
def test_longest_run_duality_at_long_horizon(model):
    n = 1000
    ks = sorted({*range(1, 40), *range(40, n + 1, 37), n - 1, n})
    assert_longest_duality(model, n, ks)


# ---------------------------------------------------------------------------
# the block kernel against the paper's recurrence, transcribed term by term


def paper_vk_pmf(model, k, vmax):
    """P(V = v), v = k..vmax, straight from the h recursion in plain floats."""
    count = vmax - k + 1
    h = [0.0] * (count + 1)  # h[0] unused
    if isinstance(model, IID):
        p, q = model.p, model.q
        h[1] = 1.0
        for v in range(2, count + 1):
            h[v] = q * sum(p ** (i - 1) * h[v - i] for i in range(1, min(k, v - 1) + 1))
        scale = p**k
    else:
        a, b = model.alpha, model.beta
        h[1] = model.p1
        if count >= 2:
            h[2] = model.q1 * (1.0 - b)
        for v in range(3, count + 1):
            h[v] = b * h[v - 1] + sum(
                (1.0 - a) * (1.0 - b) * a**i * h[v - i - 2]
                for i in range(0, min(k - 2, v - 3) + 1)
            )
        scale = a ** (k - 1)
    return np.array([scale * x for x in h[1:]])


KERNEL_PS = [0.02, 0.1, 0.35, 0.5, 0.75, 0.9, 0.98]
KERNEL_CHAINS = [
    Markov(p1, a, b)
    for p1, a, b in [
        (0.5, 0.02, 0.5),
        (0.1, 0.5, 0.98),
        (0.9, 0.98, 0.02),
        (0.45, 0.3, 0.6),
        (0.98, 0.9, 0.9),
        (0.02, 0.75, 0.1),
    ]
]


def assert_kernel_matches(model, k, vmax):
    got = vk_pmf(model, k, vmax=vmax).probs
    want = paper_vk_pmf(model, k, vmax)
    # relative; values near the bottom of the float range round on their own
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("p", KERNEL_PS)
def test_kernel_matches_paper_recurrence_iid(p, k):
    for vmax in (k, k + 1, k + 7, 3000):
        assert_kernel_matches(IID(p), k, vmax)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("model", KERNEL_CHAINS)
def test_kernel_matches_paper_recurrence_markov(model, k):
    for vmax in (k, k + 1, k + 2, k + 9, 3000):
        assert_kernel_matches(model, k, vmax)


def _h_sequence_per_call(model, k, count):
    """_h_sequence as one function that laid out its blocks on every call,
    with np.matmul for the products (kept verbatim)."""
    if count < 1:
        return np.zeros(0)
    seeds = _seeds(model)[:count]
    if count == len(seeds):
        return seeds
    d = min(k, count - 1)
    block = min(math.isqrt(4 * count), max(1, _BLOCK_ENTRIES // d))
    mat = np.empty((1 << (block - 1).bit_length(), d))
    mat[0] = _lags(model, d)[::-1]  # h_t from the window h_{t-d..t-1}
    b = 1
    while b < block:
        u = min(b, d)  # the moved window's last u values are rows b-u..b-1
        np.matmul(mat[:b, d - u :], mat[b - u : b], out=mat[b : 2 * b])
        if b < d:  # and its first d-b values are the old window's last
            mat[b : 2 * b, b:] += mat[:b, : d - b]
        b *= 2
    x = np.zeros(d + count)  # d zeros stand for h_v, v <= 0
    x[d : d + len(seeds)] = seeds
    for t in range(len(seeds), count, b):
        rows = min(b, count - t)
        x[d + t : d + t + rows] = mat[:rows] @ x[t : t + d]
    return x[d:]


PLAN_COUNTS = sorted(
    {0, 1, 2, 3, 1000, 20000} | {2**e + s for e in range(1, 15) for s in (-1, 0, 1)}
)
PLAN_MODELS = {
    IID: [IID(p) for p in KERNEL_PS],
    Markov: [m for p in KERNEL_PS for m in (Markov(p, p, 0.4), Markov(0.5, 0.6, p))],
}


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 40])
@pytest.mark.parametrize("family", [IID, Markov], ids=["iid", "markov"])
def test_planned_kernel_matches_the_per_call_kernel_bit_for_bit(family, k):
    for count in PLAN_COUNTS:
        plan = _HPlan(k, count)
        for model in PLAN_MODELS[family]:  # every run rewrites the same buffers
            want = _h_sequence_per_call(model, k, count)
            assert plan.run(model).tobytes() == want.tobytes()
            assert _h_sequence(model, k, count).tobytes() == want.tobytes()


@pytest.mark.parametrize("model", [IID(0.5), Markov(0.45, 0.3, 0.6)])
def test_planned_kernel_with_the_block_capped_by_its_entries(model):
    k, count = 30000, 30001
    assert _BLOCK_ENTRIES // k < math.isqrt(4 * count)  # the cap sets B
    want = _h_sequence_per_call(model, k, count)
    assert _h_sequence(model, k, count).tobytes() == want.tobytes()


def _jet_product(a, b):
    """Product of second-order Taylor jets, row by row: width 3 is
    (1, x, x^2), width 6 is (1, x, y, x^2, xy, y^2)."""
    a0, b0 = a[..., :1], b[..., :1]
    if a.shape[-1] == 3:
        a1, a2 = a[..., 1:2], a[..., 2:3]
        b1, b2 = b[..., 1:2], b[..., 2:3]
        return np.concatenate(
            [a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0], -1
        )
    ax, ay, axx, axy, ayy = (a[..., i : i + 1] for i in range(1, 6))
    bx, by, bxx, bxy, byy = (b[..., i : i + 1] for i in range(1, 6))
    return np.concatenate(
        [
            a0 * b0,
            a0 * bx + ax * b0,
            a0 * by + ay * b0,
            a0 * bxx + ax * bx + axx * b0,
            a0 * bxy + ax * by + ay * bx + axy * b0,
            a0 * byy + ay * by + ayy * b0,
        ],
        -1,
    )


def _jet_recursion(lags, seeds, count):
    """h_t = sum_j c_j h_(t-j) over jets, one step at a time."""
    h = np.zeros((count, lags.shape[1] if len(lags) else seeds.shape[1]))
    h[: len(seeds)] = seeds[:count]
    for t in range(len(seeds), count):
        window = min(len(lags), t)
        h[t] = _jet_product(lags[:window], h[t - window : t][::-1]).sum(axis=0)
    return h


@pytest.mark.parametrize("width", [3, 6])
@pytest.mark.parametrize("family", [IID, Markov], ids=["iid", "markov"])
@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_jet_plan_runs_the_recursion_over_jets(family, k, width):
    rng = np.random.default_rng(k * width)
    n_seeds = 2
    for count in (0, 1, 2, 3, 5, 17, 64, 65, 300):
        plan = _HPlan(k, count, jet=width)
        assert plan.lags == (min(k, count - 1) if count > n_seeds else 0)
        for _ in range(2):  # every run rewrites the same buffers
            # positive entries: nothing cancels, so the routes agree closely
            lags = rng.uniform(0.05, 0.3, (plan.lags, width)) / max(plan.lags, 1)
            seeds = rng.uniform(0.1, 1.0, (n_seeds, width))
            got = plan.run_jets(lags, seeds)
            want = _jet_recursion(lags, seeds, count)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("model", [IID(0.5), Markov(0.45, 0.3, 0.6)])
def test_jet_plan_with_the_block_capped_by_its_entries(model):
    k, count, width = 2000, 2100, 6
    assert _BLOCK_ENTRIES // (k * width**2) < math.isqrt(4 * count)  # the cap sets B
    seeds = np.zeros((len(_seeds(model)), width))
    seeds[:, 0] = _seeds(model)
    lags = np.zeros((k, width))
    lags[:, 0] = _lags(model, k)
    lags[:, 1] = np.arange(1, k + 1) * lags[:, 0]  # as if d/dx log c_j = j
    got = _HPlan(k, count, jet=width).run_jets(lags, seeds)
    np.testing.assert_allclose(got[:, 0], _h_sequence(model, k, count), rtol=1e-12)
    want = _jet_recursion(lags, seeds, count)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_kernel_cuts_lags_at_the_horizon():
    # only h_1..h_101 are needed, so at most 100 lags can matter
    start = time.perf_counter()
    pm = vk_pmf(IID(0.5), 2000, vmax=2100)
    assert time.perf_counter() - start < 1.0
    np.testing.assert_allclose(
        pm.probs, paper_vk_pmf(IID(0.5), 2000, 2100), rtol=1e-12, atol=1e-300
    )


def test_kernel_long_horizon_meets_fibonacci_identity():
    # at p = 1/2, P(V = v) = F^(k)_(v-k+1) / 2^v
    k = 5
    pm = vk_pmf(IID(0.5), k, vmax=10**5)
    assert pm.tail < 1e-12
    head = 0
    for v in range(k, 200):
        try:
            want = fib_k(k, v - k + 1) / 2.0**v
        except OverflowError:
            break
        assert pm.p(v) == pytest.approx(want, rel=1e-13)
        head += 1
    assert head > 50


# ---------------------------------------------------------------------------
# automatic horizons are bounded


def test_default_vmax_refuses_horizons_beyond_the_cap():
    with pytest.raises(ValueError, match=r"mean 1\.11111e\+08 trials.*--vmax"):
        default_vmax(IID(0.1), 8)
    with pytest.raises(ValueError, match="mean"):
        vk_pmf(IID(0.1), 8)
    with pytest.raises(ValueError, match="mean"):
        default_vmax(IID(0.5), MAX_HORIZON)
    # an explicit horizon is still honored
    assert vk_pmf(IID(0.1), 8, vmax=100).support_end == 100


@pytest.mark.parametrize(
    "model,k,want",
    [
        (IID(0.5), 3, 330),
        (IID(0.9), 8, 211),
        (IID(0.2), 6, 539489),
        (IID(0.05), 4, 4653522),
        (Markov(0.4, 0.3, 0.9), 5, 38827),
        (Markov(0.4, 0.9, 0.1), 2, 27),
    ],
)
def test_default_vmax_below_the_cap_is_pinned(model, k, want):
    assert default_vmax(model, k) == want


@pytest.mark.parametrize("model", MODELS + [Markov(0.1, 0.8, 0.95)])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_mean_wait_matches_generating_function(model, k):
    want = trk_moments(model, k, 1, Scheme.NON_OVERLAPPING).mean
    assert mean_wait(model, k) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "model,k",
    [(Markov(0.5, a, b), k) for a in (0.02, 0.5, 0.9) for b in (0.02, 0.5, 0.9)
     for k in (1, 2, 3)],
)
def test_default_vmax_stops_where_the_tail_reaches_1e12(model, k):
    # the dominant root sets the horizon: about 1e-12 is left at it, and
    # a tenth less would leave more than that, unless the 10k floor binds
    vmax = default_vmax(model, k)
    assert vk_pmf(model, k).tail < 1e-11
    if vmax > 10 * k:
        assert vk_pmf(model, k, vmax=int(0.9 * vmax)).tail > 1e-12


def test_default_vmax_covers_a_slowly_mixing_chain():
    # the old probe of 50 trials read a decay ratio far too small here and
    # left 9.8e-3 of the mass in the tail
    pm = vk_pmf(Markov(0.5, 0.1, 0.02), 5)
    assert pm.tail < 1e-9


def test_default_vmax_refuses_a_chain_whose_mean_wait_is_out_of_reach():
    # mean 1.7e12 trials: the old probe built a 6.78M-entry table with
    # 0.999996 of the mass left in its tail
    with pytest.raises(ValueError, match=r"mean 1\.66525e\+12 trials.*--vmax"):
        vk_pmf(Markov(0.5, 0.02, 0.1), 8)


# ---------------------------------------------------------------------------
# IID(p) is the chain Markov(p, p, 1 - p)


@pytest.mark.parametrize("p", KERNEL_PS)
def test_iid_runs_as_the_chain_that_stays_on_success_with_p(p):
    iid, chain = IID(p), Markov(p, p, 1.0 - p)
    for k in (1, 2, 3, 5):
        vmax = 300 if p < 0.5 else None
        want = vk_pmf(chain, k, vmax=vmax)
        got = vk_pmf(iid, k, vmax=vmax)
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.tail == want.tail
    for n in (0, 1, 7, 60):
        got = longest_run_pmf(iid, n).probs
        assert got.tobytes() == longest_run_pmf(chain, n).probs.tobytes()
    stream = SeededStream(int(1000 * p))
    sample = sample_waiting_times(iid, 2, 200, stream)
    assert (sample == sample_waiting_times(chain, 2, 200, stream)).all()
    assert loglik_vk(iid, 2, sample) == loglik_vk(chain, 2, sample)
    fit = fit_iid(sample, 2)
    p_hat = fit.estimates["p"]
    want = loglik_vk(Markov(p_hat, p_hat, 1.0 - p_hat), 2, sample)
    assert fit.loglik == pytest.approx(want, rel=1e-13)
