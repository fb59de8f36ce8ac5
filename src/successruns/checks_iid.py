"""Verification catalog, independent-trials half.

Every entry transcribes one printed display exactly as it stands in the
source text (anchors are ``L<line>`` pointers into it) and measures its
worst disagreement against engine quantities obtained by an independent
route: recursion-style displays are judged against the rational-series
route and transform-style displays against the recursion route, so no
printed form is ever compared against its own derivation path.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .checks import (
    CheckResult,
    counts_double_gf_slice,
    counts_mean_row,
    counts_second_row,
    counts_wpolys,
    diff_terms,
    double_gf_slice,
    drive_sequence,
    entry,
    factors,
    longest_rows,
    measure,
    moment_row,
    pad_dev,
    recurrence_residual,
    rel_dev,
    residual_2d,
    run_taps,
    seq_dev,
    series_dev,
    slice_dev,
    trk_mean,
    trk_rows,
    trk_second,
    trk_tail_rows,
    vk_row,
    vk_series,
    worst,
    wpoly_residual,
    wseries_dev,
)
from .fibk import char_roots, fib_k
from .geometric import vk_pgf
from .models import IID, Markov
from .polyseries import Poly, RationalGF
from .rth_waiting import Scheme

IID_PS = (0.35, 0.5, 0.62)
#: Chain parameters for the longest-run transform sweep, whose displays are
#: stated for the general two-state chain.
CHAIN_MODELS = (Markov(0.45, 0.3, 0.6), Markov(0.62, 0.55, 0.35))

VMAX = 60  # first-run waiting-time horizon
NMAX = 45  # r-th waiting-time horizon
CMAX = 26  # run-count horizon
RMAX = 4  # deepest waiting-time index tabulated
TRK_KS = (2, 3)
W_POINTS = (0.4, 0.85)

_PS = "p in {0.35, 0.5, 0.62}"
_VK_PAR = f"{_PS}; v <= {VMAX}"
_VK_KS_PAR = f"{_PS}; k in 1..4; v <= {VMAX}"
_TRK_PAR = f"{_PS}; k in {{2, 3}}; r <= {RMAX}; n <= {NMAX}"
_TRK_W_PAR = f"{_PS}; k in {{2, 3}}; w in {{0.4, 0.85}}; n <= {NMAX}"
_MOM_PAR = f"{_PS}; k in {{2, 3}}; r <= {RMAX}"
_CNT_PAR = f"{_PS}; k in {{2, 3}}; n <= {CMAX}"
_CNT_W_PAR = f"{_PS}; k in {{2, 3}}; w in {{0.4, 0.85}}; n <= {CMAX}"

# sweeps: success probabilities, run lengths and w values
_MODELS = tuple(IID(p) for p in IID_PS)
_P = tuple((p,) for p in IID_PS)
_PK = tuple(product(IID_PS, range(1, 5)))
_MK = tuple(product(_MODELS, TRK_KS))
_MKW = tuple(product(_MODELS, TRK_KS, W_POINTS))


def _char_iid(p: float, k: int) -> Poly:
    """1 - z + q p^k z^{k+1}, the k-step characteristic polynomial."""
    return Poly((1.0, -1.0)) + Poly.term((1.0 - p) * p**k, k + 1)


def _drive_wtable(inits, terms, nmax, width) -> np.ndarray:
    """Drive count-distribution rows in w-coefficient space.

    Each term is (lag, (c0, c1)): c0 multiplies the lagged row and c1 its
    unit shift, i.e. the x-1 column of the printed pmf relation.
    """
    g = np.zeros((nmax + 1, width))
    for n, row in enumerate(inits):
        g[n, : len(row)] = row
    for n in range(len(inits), nmax + 1):
        acc = np.zeros(width)
        for lag, (c0, c1) in terms:
            if n - lag < 0:
                continue
            prev = g[n - lag]
            if c0 != 0.0:
                acc += c0 * prev
            if c1 != 0.0:
                acc[1:] += c1 * prev[:-1]
        g[n] = acc
    return g


def _gn_lemma_dev(model: IID, k: int, scheme: Scheme, terms) -> float:
    """Residual of a printed G_n(w) relation and of its starting rows.

    The relation is probed from n = k + 1 on; the rows are G_n = 1 for
    n < k and G_k = 1 - p^k + p^k w.
    """
    p = model.p
    wp = counts_wpolys(model, k, scheme, CMAX)
    return worst(
        wpoly_residual(wp, terms, k + 1),
        worst(*(pad_dev(wp[n], (1.0,)) for n in range(k))),
        pad_dev(wp[k], (1.0 - p**k, p**k)),
    )


def _count_pmf_dev(model: IID, k: int, scheme: Scheme, terms) -> float:
    """Gap of count laws driven by a printed pmf relation from the engine's.

    The relation runs from the printed starting rows up to CMAX.
    """
    p = model.p
    wp = counts_wpolys(model, k, scheme, CMAX)
    inits = [np.array([1.0])] * k + [np.array([1.0 - p**k, p**k])]
    table = _drive_wtable(inits, terms, CMAX, CMAX + 2)
    return worst(*(pad_dev(table[n], wp[n]) for n in range(CMAX + 1)))


def _root_sum_dev(k: int, roots: np.ndarray, weights: np.ndarray) -> float:
    """Worst relative gap of sum_i weights_i roots_i^(n-1) from F_n, n <= 60.

    F_n is fib_k(k, n); the imaginary part of the sum counts as a gap too.
    """
    powers = np.array([roots**e for e in range(60)])  # row n - 1: roots^(n-1)
    totals = (weights * powers).sum(axis=1)
    exact = np.array([fib_k(k, n) for n in range(1, 61)], dtype=np.float64)
    gaps = np.abs([totals.real - exact, totals.imag]) / np.maximum(1.0, exact)
    return float(np.max(gaps))


# ---------------------------------------------------------------------------
# order-k Fibonacci closed forms

_FIB = "iid-fib"


@entry(
    _FIB,
    "fib-binet-k2",
    "L232-236",
    "n <= 60",
    tuple((n,) for n in range(1, 61)),
    note="golden-ratio pair form; relative deviation",
)
def _(n):
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    psi = (1.0 - np.sqrt(5.0)) / 2.0
    printed = (phi - 1.0) / (2.0 + 3.0 * (phi - 2.0)) * phi ** (n - 1)
    printed += (psi - 1.0) / (2.0 + 3.0 * (psi - 2.0)) * psi ** (n - 1)
    exact = fib_k(2, n)
    return abs(printed - exact) / max(1.0, exact)


@entry(
    _FIB,
    "fib-spickerman",
    "L242-246",
    "k in 2..8; n <= 60",
    tuple((k,) for k in range(2, 9)),
    note="root sum recomputed from the characteristic polynomial; "
    "relative deviation",
)
def _(k):
    roots = char_roots(k)
    weights = (roots ** (k + 1) - roots**k) / (2.0 * roots**k - (k + 1))
    return _root_sum_dev(k, roots, weights)


@entry(
    _FIB,
    "fib-dresden",
    "L256-258",
    "k in 2..8; n <= 60",
    tuple((k,) for k in range(2, 9)),
    note="root sum recomputed from the characteristic polynomial; "
    "relative deviation",
)
def _(k):
    roots = char_roots(k)
    return _root_sum_dev(k, roots, (roots - 1.0) / (2.0 + (k + 1) * (roots - 2.0)))


def _fib_closed_forms() -> list[CheckResult]:
    return measure(_FIB)


# ---------------------------------------------------------------------------
# first-run waiting time

_VK_PMF = "iid-vk-pmf"


@entry(
    _VK_PMF,
    "iid-vk-pdf-k2",
    "L110-113",
    _VK_PAR,
    _P,
    note="a restatement alongside carries a stray success-probability "
    "factor; the display itself is exact",
)
def _(p):
    q = 1.0 - p
    h = drive_sequence(((1, q), (2, p * q)), lambda n: float(n == 1), VMAX)
    pmf = np.zeros(VMAX + 1)
    pmf[2:] = p * p * h[1:VMAX]
    return seq_dev(pmf, vk_series(IID(p), 2, VMAX))


@entry(_VK_PMF, "iid-vk-pdf-k3", "L132-135", _VK_PAR, _P)
def _(p):
    q = 1.0 - p
    h = drive_sequence(
        ((1, q), (2, q * p), (3, q * p * p)), lambda n: float(n == 1), VMAX
    )
    pmf = np.zeros(VMAX + 1)
    pmf[3:] = p**3 * h[1 : VMAX - 1]
    return seq_dev(pmf, vk_series(IID(p), 3, VMAX))


@entry(
    _VK_PMF,
    "iid-vk-pdf-general",
    "L153-157",
    _VK_KS_PAR,
    _PK,
    note="a derivation line nearby hard-codes exponent 3 where the "
    "general run length belongs",
)
def _(p, k):
    q = 1.0 - p
    taps = tuple((i, q * p ** (i - 1)) for i in range(1, k + 1))
    h = drive_sequence(taps, lambda n: float(n == 1), VMAX)
    pmf = np.zeros(VMAX + 1)
    for v in range(k, VMAX + 1):
        pmf[v] = p**k * h[v - k + 1]
    return seq_dev(pmf, vk_series(IID(p), k, VMAX))


@entry(
    _VK_PMF,
    "iid-vk-fib-half",
    "L192-214",
    "p = 0.5; k in 2..5; v <= 40",
    tuple((k,) for k in range(2, 6)),
    note="run-length-5 display names an unrelated variable on its "
    "left side; the right side is exact",
)
def _(k):
    row = vk_row(IID(0.5), k, 40)
    return worst(*(abs(fib_k(k, v - k + 1) * 0.5**v - row[v]) for v in range(k, 41)))


def _geom_pmf_recursions() -> list[CheckResult]:
    return measure(_VK_PMF)


_VK_CLOSED = "iid-vk-closed"


@entry(
    _VK_CLOSED,
    "iid-vk-closedform-k2",
    "L290-293",
    f"{_PS}; v <= 200",
    _P,
    note="leading factor should be the success probability squared; "
    "the second denominator equals the negated root gap so the "
    "bracket is sound; the left side also displays a fixed argument "
    "where the running value belongs",
)
def _(p):
    q = 1.0 - p
    disc = np.sqrt(q * q + 4.0 * p * q)
    r1 = (q + disc) / 2.0
    r2 = (q - disc) / 2.0
    row = vk_row(IID(p), 2, 200)
    return worst(*(
        abs(
            p * (r1 ** (v - 1) / (r1 - r2) + r2 ** (v - 1) / (q - 2.0 * r1))
            - row[v]
        )
        for v in range(2, 201)
    ))


@entry(_VK_CLOSED, "iid-vk-pgf-k2", "L410", _VK_PAR, _P)
def _(p):
    q = 1.0 - p
    gf = RationalGF(Poly((0.0, 0.0, p * p)), Poly((1.0, -q, -q * p)))
    return seq_dev(gf.series(VMAX), vk_row(IID(p), 2, VMAX))


@entry(
    _VK_CLOSED,
    "iid-vk-corollary-k2",
    "L438-441",
    _VK_PAR,
    _P,
    note="stated in two-state notation; evaluated at its "
    "independent-trials reduction",
)
def _(p):
    q = 1.0 - p
    u = run_taps({2: p * p}, ((1, q), (2, q * p)), 3, VMAX)
    return seq_dev(u, vk_series(IID(p), 2, VMAX))


@entry(_VK_CLOSED, "iid-vk-pgf-k3", "L476", _VK_PAR, _P)
def _(p):
    q = 1.0 - p
    gf = RationalGF(
        Poly((0.0, 0.0, 0.0, p**3)), Poly((1.0, -q, -q * p, -q * p * p))
    )
    return seq_dev(gf.series(VMAX), vk_row(IID(p), 3, VMAX))


@entry(_VK_CLOSED, "iid-vk-corollary-k3", "L485-488", _VK_PAR, _P)
def _(p):
    q = 1.0 - p
    u = run_taps({3: p**3}, ((1, q), (2, q * p), (3, q * p * p)), 4, VMAX)
    return seq_dev(u, vk_series(IID(p), 3, VMAX))


@entry(
    _VK_CLOSED,
    "iid-vk-pgf-general",
    "L508",
    _VK_KS_PAR,
    _PK,
    note="both printed equivalent fractions checked",
)
def _(p, k):
    q = 1.0 - p
    den_a = Poly((1.0,)) - sum(
        (Poly.term(q * p ** (i - 1), i) for i in range(1, k + 1)),
        Poly((0.0,)),
    )
    form_a = RationalGF(Poly.term(p**k, k), den_a)
    num_b = Poly.term(p**k, k) - Poly.term(p ** (k + 1), k + 1)
    den_b = Poly((1.0, -1.0)) + Poly.term(p**k * q, k + 1)
    form_b = RationalGF(num_b, den_b)
    truth = vk_row(IID(p), k, VMAX)
    return worst(
        seq_dev(form_a.series(VMAX), truth), seq_dev(form_b.series(VMAX), truth)
    )


@entry(_VK_CLOSED, "iid-vk-recursion-depth1", "L518-532", _VK_KS_PAR, _PK)
def _(p, k):
    q = 1.0 - p
    u = run_taps(
        {k: p**k, k + 1: q * p**k},
        ((1, 1.0), (k + 1, -(p**k) * q)),
        k + 2,
        VMAX,
    )
    return seq_dev(u, vk_series(IID(p), k, VMAX))


@entry(_VK_CLOSED, "iid-vk-recursion-depthk", "L540-554", _VK_KS_PAR, _PK)
def _(p, k):
    q = 1.0 - p
    inits = {k: p**k}
    for v in range(k + 1, 2 * k + 1):
        inits[v] = q * p**k
    taps = tuple((i, q * p ** (i - 1)) for i in range(1, k + 1))
    u = run_taps(inits, taps, 2 * k + 1, VMAX)
    return seq_dev(u, vk_series(IID(p), k, VMAX))


def _geom_closed_forms() -> list[CheckResult]:
    return measure(_VK_CLOSED)


# ---------------------------------------------------------------------------
# longest success run

_LONGEST = "iid-longest"


@entry(
    _LONGEST,
    "longest-duality-identities",
    "L902-906",
    f"{_PS}; k in 1..4; n <= 30; x <= 40",
    _PK,
    note="five displayed equivalences between longest-run and "
    "first-run-waiting probabilities, checked pointwise",
)
def _(p, k):
    model = IID(p)
    q = 1.0 - p
    lp = longest_rows(model, 40)
    vrow = vk_row(model, k, VMAX)
    cdf = np.cumsum(vrow)
    cdf1 = np.cumsum(vk_row(model, k + 1, VMAX))
    gaps = []
    for n in range(31):
        row = lp[n]
        ge_k = float(row[k:].sum()) if k <= n else 0.0
        lt_k = float(row[: min(k, n + 1)].sum())
        eq_k = float(row[k]) if k <= n else 0.0
        gaps.append(abs(ge_k - cdf[n]))
        gaps.append(abs(lt_k - (1.0 - cdf[n])))
        gaps.append(abs(eq_k - (cdf[n] - cdf1[n])))
        if n >= 1:
            gaps.append(abs(lt_k - vrow[n + k + 1] / (q * p**k)))
    for x in range(k + 2, 41):
        nn = x - k - 1
        lt_k = float(lp[nn][: min(k, nn + 1)].sum())
        gaps.append(abs(vrow[x] - q * p**k * lt_k))
    return worst(*gaps)


@entry(
    _LONGEST,
    "longest-gf-construction",
    "L920-955",
    f"{_PS} and two chain points; k in 0..4; n <= 30",
    tuple((model,) for model in _MODELS + CHAIN_MODELS),
    note="run-length-zero display sums from n = 1; compared on that "
    "range",
)
def _(model):
    z1 = Poly((1.0, -1.0))
    slices = longest_rows(model, 40)
    gaps = []
    for k in range(1, 5):
        gk = vk_pgf(model, k)
        gk1 = vk_pgf(model, k + 1)
        num = gk.num * gk1.den - gk1.num * gk.den
        den = gk.den * gk1.den * z1
        gaps.append(slice_dev(RationalGF(num, den).series(30), slices, k))
    g1 = vk_pgf(model, 1)
    p0 = float(vk_row(model, 1, VMAX)[0])
    num0 = (g1.den - g1.num) + p0 * g1.den - g1.den * z1
    den0 = g1.den * z1
    series0 = RationalGF(num0, den0).series(30)
    gaps.extend(abs(series0[n] - slices[n][0]) for n in range(1, 31))
    return worst(*gaps)


@entry(
    _LONGEST,
    "longest-iid-gf-closedform",
    "L963-974",
    f"{_PS}; k in {{2, 3, 4}}; n <= 30",
    tuple(product(IID_PS, (2, 3, 4))),
    note="true transform is run-prefix times squared stopped-step "
    "factor over the product of the two adjacent characteristic "
    "polynomials; the printed denominator instead factors through a "
    "spurious linear term and the numerator is damaged to match",
)
def _(p, k):
    q = 1.0 - p
    t = p ** (2 * k + 2) * q
    pnum = (
        Poly.term(p**k, k)
        + Poly.term(p**k * (t - 2.0 * p - 1.0), k + 1)
        + Poly.term(p ** (k + 1) * (2.0 + p - p ** (2 * k + 1) * q), k + 2)
        - Poly.term(p ** (k + 2), k + 3)
        - Poly.term(p ** (2 * k + 1) * q, 2 * k + 2)
        + Poly.term(p ** (2 * k + 2) * q, 2 * k + 3)
    )
    pden = (
        Poly((1.0, t - 3.0, 3.0 - 2.0 * t, t - 1.0))
        + Poly.term(p**k * q, k + 1)
        + Poly.term(p**k * q * (t - 2.0), k + 2)
        + Poly.term(p**k * q * (1.0 - t), k + 3)
    )
    series = RationalGF(pnum, pden).series(30)
    return slice_dev(series, longest_rows(IID(p), 40), k)


@entry(
    _LONGEST,
    "longest-iid-recursion",
    "L997-1016",
    f"{_PS}; k in {{2, 3, 4}}; n <= 30",
    tuple(product(IID_PS, (2, 3, 4))),
    note="inherits the closed-form damage; the clause naming values "
    "below the support is also garbled",
)
def _(p, k):
    q = 1.0 - p
    t = p ** (2 * k + 2) * q
    taps = (
        (1, 3.0 - t),
        (2, 2.0 * t - 3.0),
        (3, 1.0 - t),
        (k + 1, -(p**k) * q),
        (k + 2, p**k * q * (2.0 - t)),
        (k + 3, p**k * q * (t - 1.0)),
    )
    src = {
        k: p**k,
        k + 1: p**k * (t - 2.0 * p - 1.0),
        k + 2: p ** (k + 1) * (2.0 + p - p ** (2 * k + 1) * q),
        k + 3: -(p ** (k + 2)),
        2 * k + 2: -(p ** (2 * k + 1)) * q,
        2 * k + 3: p ** (2 * k + 2) * q,
    }
    u = drive_sequence(taps, lambda n: src.get(n, 0.0), 30)
    return slice_dev(u, longest_rows(IID(p), 40), k)


def _longest_run() -> list[CheckResult]:
    return measure(_LONGEST)


# ---------------------------------------------------------------------------
# r-th run waiting time, non-overlapping counting

_TRK1 = "iid-trk1"


@entry(_TRK1, "iid-trk1-pgf-power", "L1179", _TRK_PAR, _MK)
def _(model, k):
    p = model.p
    base = RationalGF(Poly.term(p**k, k) * Poly((1.0, -p)), _char_iid(p, k))
    rows = trk_rows(model, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    return worst(
        *(seq_dev((base**r).series(NMAX), rows[r]) for r in range(1, RMAX + 1))
    )


@entry(_TRK1, "iid-trk1-double-pgf", "L1188", _TRK_W_PAR, _MK)
def _(model, k):
    p = model.p
    d = _char_iid(p, k)
    gaps = []
    for w in W_POINTS:
        den = d - Poly.term(p**k * w, k) + Poly.term(p ** (k + 1) * w, k + 1)
        truth = double_gf_slice(model, k, Scheme.NON_OVERLAPPING, w)
        gaps.append(series_dev(RationalGF(d, den), truth, NMAX))
    return worst(*gaps)


@entry(
    _TRK1, "iid-trk1-step", "L1208", f"{_PS}; k in {{2, 3}}; r <= 3; n <= {NMAX}", _MK
)
def _(model, k):
    p = model.p
    d = _char_iid(p, k)
    rnum = Poly.term(p**k, k) * Poly((1.0, -p))
    rows = trk_rows(model, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    snum, sden = Poly((1.0,)), Poly((1.0,))
    gaps = []
    for r in range(1, 4):
        snum = snum * rnum
        sden = sden * d
        gaps.append(seq_dev(RationalGF(snum, sden).series(NMAX), rows[r]))
    return worst(*gaps)


@entry(
    _TRK1,
    "iid-trk1-pmf-recursion",
    "L1233",
    _TRK_PAR,
    _MK,
    note="first right-hand term should carry the current count "
    "subscript, not the previous one",
)
def _(model, k):
    p, q = model.p, model.q
    rows = trk_rows(model, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    terms = (
        (1, 1, 1.0),
        (0, k + 1, -(p**k) * q),
        (1, k, p**k),
        (1, k + 1, -(p ** (k + 1))),
    )
    return residual_2d(rows, terms, 1, k + 2)


@entry(
    _TRK1,
    "iid-trk1-tail-recursion",
    "L1255-1257",
    _TRK_PAR,
    _MK,
    note="the two leading terms should carry the current count "
    "subscript, not the previous one",
)
def _(model, k):
    p, q = model.p, model.q
    tails = trk_tail_rows(model, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    terms = (
        [(1, 1, 2.0), (1, 2, -1.0)]
        + diff_terms(0, k + 2, p**k * q)
        + diff_terms(1, k + 1, -(p**k))
        + diff_terms(1, k + 2, p ** (k + 1))
    )
    return residual_2d(tails, terms, 1, k + 4)


@entry(
    _TRK1,
    "iid-trk1-mean-gf",
    "L1323",
    _MOM_PAR,
    _MK,
    note="denominator lacks a reciprocal failure-probability factor: "
    "at p = 0.5, k = 2 it yields means 3r where the engine gives 6r",
)
def _(model, k):
    p = model.p
    num = Poly((0.0, 1.0 - p**k))
    den = p**k * Poly((1.0, -2.0, 1.0))
    return wseries_dev(
        num, den, lambda r: trk_mean(model, k, Scheme.NON_OVERLAPPING, r), 1, RMAX
    )


@entry(
    _TRK1,
    "iid-trk1-mean-recursion",
    "L1333-1336",
    _MOM_PAR,
    _MK,
    note="two-step relation holds on engine means; the printed first "
    "value lacks the failure-probability reciprocal, and no second "
    "value is printed though the relation needs one",
)
def _(model, k):
    p = model.p
    true = moment_row(trk_mean, model, k, Scheme.NON_OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 2.0), (2, -1.0)), 3)
    mu1 = (1.0 - p**k) / p**k
    return worst(res, rel_dev(mu1, true[1]))


@entry(_TRK1, "iid-trk1-second-gf", "L1355-1363", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    a1 = p**k * q * ((1.0 + p) * (p**k - 1.0) + 2.0 * q * k)
    a2 = q * ((1.0 - p**k) * (2.0 - p**k * q) - 2.0 * k * p**k * q)
    num = Poly((0.0, a2, a1))
    den = p ** (2 * k) * q**3 * Poly((1.0, -3.0, 3.0, -1.0))
    return wseries_dev(
        num, den, lambda r: trk_second(model, k, Scheme.NON_OVERLAPPING, r), 1, RMAX
    )


@entry(
    _TRK1,
    "iid-trk1-second-recursion",
    "L1369-1378",
    _MOM_PAR,
    _MK,
    note="three-step relation holds on engine values and the printed "
    "first value matches; the printed second value is damaged, going "
    "negative on part of the sweep (no third is printed though the "
    "relation needs one)",
)
def _(model, k):
    p, q = model.p, model.q
    true = moment_row(trk_second, model, k, Scheme.NON_OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 3.0), (2, -3.0), (3, 1.0)), 4)
    u1 = (
        q * ((1.0 - p**k) * (2.0 - p**k * q) - 2.0 * k * p**k * q)
    ) / (p ** (2 * k) * q**3)
    u2 = (
        2.0 * p ** (2 * k) * (1.0 + q)
        + 2.0 * k * p**k * (p - 2.0 * q * k - 5.0)
        + 6.0
    ) / (p ** (2 * k) * q**2)
    return worst(res, rel_dev(u1, true[1]), rel_dev(u2, true[2]))


def _trk_non_overlapping() -> list[CheckResult]:
    return measure(_TRK1)


# ---------------------------------------------------------------------------
# r-th run waiting time, at-least counting

_TRK2 = "iid-trk2"


@entry(_TRK2, "iid-trk2-pgf-closedform", "L1407", _TRK_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    d = _char_iid(p, k)
    gnum = Poly.term(p**k, k) * Poly((1.0, -p))
    rnum = gnum * Poly((0.0, q))
    rden = d * Poly((1.0, -p))
    rows = trk_rows(model, k, Scheme.AT_LEAST, RMAX, NMAX)
    gaps = []
    for r in range(1, RMAX + 1):
        num, den = gnum, d
        for _ in range(r - 1):
            num = num * rnum
            den = den * rden
        gaps.append(seq_dev(RationalGF(num, den).series(NMAX), rows[r]))
    return worst(*gaps)


@entry(_TRK2, "iid-trk2-double-pgf", "L1422", _TRK_W_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    d = _char_iid(p, k)
    gaps = []
    for w in W_POINTS:
        num = d + Poly.term(p**k * w, k) * Poly((1.0, -1.0))
        den = d - Poly.term(p**k * q * w, k + 1)
        truth = double_gf_slice(model, k, Scheme.AT_LEAST, w)
        gaps.append(series_dev(RationalGF(num, den), truth, NMAX))
    return worst(*gaps)


@entry(_TRK2, "iid-trk2-step", "L1433-1436", _TRK_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    d = _char_iid(p, k)
    rows = trk_rows(model, k, Scheme.AT_LEAST, RMAX, NMAX)
    num = Poly.term(p**k, k) * Poly((1.0, -p))
    den = d
    gaps = [seq_dev(RationalGF(num, den).series(NMAX), rows[1])]
    for r in range(2, RMAX + 1):
        num = num * Poly.term(p**k * q, k + 1)
        den = den * d
        gaps.append(seq_dev(RationalGF(num, den).series(NMAX), rows[r]))
    return worst(*gaps)


@entry(_TRK2, "iid-trk2-pmf-recursion", "L1451-1462", _TRK_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    table = np.zeros((RMAX + 1, NMAX + 1))
    table[0, 0] = 1.0
    table[1, k] = p**k
    table[1, k + 1] = p**k * q
    for n in range(k + 2, NMAX + 1):
        table[1, n] = table[1, n - 1] - p**k * q * table[1, n - k - 1]
    for r in range(2, RMAX + 1):
        for n in range(1, NMAX + 1):
            acc = table[r, n - 1]
            if n - k - 1 >= 0:
                acc += p**k * q * (table[r - 1, n - k - 1] - table[r, n - k - 1])
            table[r, n] = acc
    return seq_dev(table[1:], trk_rows(model, k, Scheme.AT_LEAST, RMAX, NMAX)[1:])


@entry(
    _TRK2,
    "iid-trk2-tail-recursion",
    "L1473-1474",
    _TRK_PAR,
    _MK,
    note="both difference blocks carry the current count subscript "
    "and cancel; the second should reference the previous count",
)
def _(model, k):
    p, q = model.p, model.q
    tails = trk_tail_rows(model, k, Scheme.AT_LEAST, RMAX, NMAX)
    terms = (
        [(0, 1, 2.0), (0, 2, -1.0)]
        + diff_terms(0, k + 2, p**k * q)
        + diff_terms(0, k + 2, -(p**k) * q)
    )
    return residual_2d(tails, terms, 2, k + 4)


@entry(_TRK2, "iid-trk2-mean-gf", "L1487", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    num = Poly((0.0, 1.0 - p**k, p**k))
    den = p**k * q * Poly((1.0, -2.0, 1.0))
    return wseries_dev(
        num, den, lambda r: trk_mean(model, k, Scheme.AT_LEAST, r), 1, RMAX
    )


@entry(_TRK2, "iid-trk2-mean-recursion", "L1496-1499", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    true = moment_row(trk_mean, model, k, Scheme.AT_LEAST, RMAX)
    res = recurrence_residual(true, ((1, 2.0), (2, -1.0)), 3)
    mu1 = (1.0 - p**k) / (p**k * q)
    mu2 = (2.0 - p**k) / (p**k * q)
    return worst(res, rel_dev(mu1, true[1]), rel_dev(mu2, true[2]))


@entry(_TRK2, "iid-trk2-second-gf", "L1512-1519", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    a1 = 2.0 + p**k * (p - 3.0 + q * (p**k - 2.0 * k))
    a2 = -(p**k) * (p - 3.0 + 2.0 * q * (p**k - k))
    a3 = p ** (2 * k) * q
    num = Poly((0.0, a1, a2, a3))
    den = q**2 * p ** (2 * k) * Poly((1.0, -3.0, 3.0, -1.0))
    return wseries_dev(
        num, den, lambda r: trk_second(model, k, Scheme.AT_LEAST, r), 1, RMAX
    )


@entry(_TRK2, "iid-trk2-second-recursion", "L1530-1537", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    true = moment_row(trk_second, model, k, Scheme.AT_LEAST, RMAX)
    res = recurrence_residual(true, ((1, 3.0), (2, -3.0), (3, 1.0)), 4)
    scale = p ** (2 * k) * q**2
    u1 = (2.0 + p**k * (p - 3.0 + q * (p**k - 2.0 * k))) / scale
    u2 = (6.0 + p**k * (2.0 * (p - 3.0) + q * (p**k - 4.0 * k))) / scale
    u3 = (12.0 + p**k * (3.0 * (p - 3.0) + q * (p**k - 6.0 * k))) / scale
    return worst(
        res, rel_dev(u1, true[1]), rel_dev(u2, true[2]), rel_dev(u3, true[3])
    )


def _trk_at_least() -> list[CheckResult]:
    return measure(_TRK2)


# ---------------------------------------------------------------------------
# r-th run waiting time, overlapping counting

_TRK3 = "iid-trk3"


@entry(_TRK3, "iid-trk3-pgf-closedform", "L1559", _TRK_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    d = _char_iid(p, k)
    ext = Poly((1.0, -1.0)) + Poly.term(q * p ** (k - 1), k)
    rows = trk_rows(model, k, Scheme.OVERLAPPING, RMAX, NMAX)
    gaps = []
    for r in range(1, RMAX + 1):
        num = Poly((1.0, -p)) * Poly.term(p ** (k + r - 1), k + r - 1)
        den = Poly((1.0,))
        for _ in range(r - 1):
            num = num * ext
        for _ in range(r):
            den = den * d
        gaps.append(seq_dev(RationalGF(num, den).series(NMAX), rows[r]))
    return worst(*gaps)


@entry(_TRK3, "iid-trk3-double-pgf", "L1574", _TRK_W_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    d = _char_iid(p, k)
    ext = Poly((1.0, -1.0)) + Poly.term(q * p ** (k - 1), k)
    gaps = []
    for w in W_POINTS:
        num = d + w * (
            Poly((1.0, -1.0))
            * Poly((0.0, p))
            * (Poly.term(p ** (k - 1), k - 1) - Poly((1.0,)))
        )
        den = d - w * (Poly((0.0, p)) * ext)
        truth = double_gf_slice(model, k, Scheme.OVERLAPPING, w)
        gaps.append(series_dev(RationalGF(num, den), truth, NMAX))
    return worst(*gaps)


@entry(
    _TRK3,
    "iid-trk3-step",
    "L1586",
    f"{_PS}; k in {{2, 3}}; r in 2..4; n <= {NMAX}",
    _MK,
    note="no starting transform is printed; seeded from the engine's "
    "first-passage transform",
)
def _(model, k):
    p, q = model.p, model.q
    d = _char_iid(p, k)
    ext = Poly((1.0, -1.0)) + Poly.term(q * p ** (k - 1), k)
    h_gf, _unused = factors(model, k, Scheme.OVERLAPPING)
    rows = trk_rows(model, k, Scheme.OVERLAPPING, RMAX, NMAX)
    num, den = h_gf.num, h_gf.den
    gaps = []
    for r in range(2, RMAX + 1):
        num = num * (Poly((0.0, p)) * ext)
        den = den * d
        gaps.append(seq_dev(RationalGF(num, den).series(NMAX), rows[r]))
    return worst(*gaps)


@entry(_TRK3, "iid-trk3-pmf-recursion", "L1603-1604", _TRK_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    rows = trk_rows(model, k, Scheme.OVERLAPPING, RMAX, NMAX)
    terms = (
        (0, 1, 1.0),
        (0, k + 1, -(p**k) * q),
        (1, 1, p),
        (1, 2, -p),
        (1, k + 1, p**k * q),
    )
    return residual_2d(rows, terms, 2, 0)


@entry(
    _TRK3,
    "iid-trk3-tail-recursion",
    "L1614-1617",
    _TRK_PAR,
    _MK,
    note="the previous-count two-step coefficient lacks its "
    "success-probability factor",
)
def _(model, k):
    p, q = model.p, model.q
    tails = trk_tail_rows(model, k, Scheme.OVERLAPPING, RMAX, NMAX)
    terms = (
        [(0, 1, 2.0), (0, 2, -1.0)]
        + diff_terms(0, k + 2, p**k * q)
        + [(1, 1, p), (1, 2, -2.0), (1, 3, p)]
        + diff_terms(1, k + 2, -(p**k) * q)
    )
    return residual_2d(tails, terms, 2, k + 4)


@entry(_TRK3, "iid-trk3-mean-gf", "L1633", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    num = Poly((0.0, 1.0 - p**k, p**k - p))
    den = p**k * q * Poly((1.0, -2.0, 1.0))
    return wseries_dev(
        num, den, lambda r: trk_mean(model, k, Scheme.OVERLAPPING, r), 1, RMAX
    )


@entry(_TRK3, "iid-trk3-mean-recursion", "L1642-1650", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    true = moment_row(trk_mean, model, k, Scheme.OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 2.0), (2, -1.0)), 3)
    mu1 = (1.0 - p**k) / (p**k * q)
    mu2 = (q + 1.0 - p**k) / (p**k * q)
    return worst(res, rel_dev(mu1, true[1]), rel_dev(mu2, true[2]))


@entry(_TRK3, "iid-trk3-second-gf", "L1662-1671", _MOM_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    a1 = 2.0 + p**k * (p - 3.0 + q * (p**k - 2.0 * k))
    a2 = (
        p**k * (3.0 + p * p + 2.0 * k * q * (1.0 + p))
        - 4.0 * p
        - 2.0 * p ** (2 * k) * q
    )
    a3 = (
        2.0 * p * p
        + p ** (2 * k) * q
        - (1.0 + p + 2.0 * q * k) * p ** (k + 1)
    )
    num = Poly((0.0, a1, a2, a3))
    den = p ** (2 * k) * q**2 * Poly((1.0, -3.0, 3.0, -1.0))
    return wseries_dev(
        num, den, lambda r: trk_second(model, k, Scheme.OVERLAPPING, r), 1, RMAX
    )


@entry(
    _TRK3,
    "iid-trk3-second-recursion",
    "L1681-1691",
    _MOM_PAR,
    _MK,
    note="heading names the at-least scheme; body is the overlapping "
    "one",
)
def _(model, k):
    p, q = model.p, model.q
    true = moment_row(trk_second, model, k, Scheme.OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 3.0), (2, -3.0), (3, 1.0)), 4)
    scale = p ** (2 * k) * q**2
    u1 = (2.0 + p**k * (p - 3.0 + q * (p**k - 2.0 * k))) / scale
    u2 = (
        6.0
        - 4.0 * p
        + p ** (2 * k) * q
        - p**k * (6.0 + 2.0 * q * k * (2.0 - p) - p * (3.0 + p))
    ) / scale
    u3 = (
        12.0
        - 12.0 * p
        + 2.0 * p * p
        + p ** (2 * k) * q
        + p**k * (p * (2.0 * p + 5.0) - 2.0 * k * q * (3.0 - 2.0 * p) - 9.0)
    ) / scale
    return worst(
        res, rel_dev(u1, true[1]), rel_dev(u2, true[2]), rel_dev(u3, true[3])
    )


def _trk_overlapping() -> list[CheckResult]:
    return measure(_TRK3)


# ---------------------------------------------------------------------------
# run counts, non-overlapping counting

_CNT1 = "iid-counts1"


def _counts1_second_taps(p: float, k: int):
    return (
        (1, 3.0),
        (2, -3.0),
        (3, 1.0),
        (k, 2.0 * p**k),
        (k + 1, -6.0 * p**k),
        (k + 2, 6.0 * p**k),
        (k + 3, -2.0 * p**k),
        (2 * k, -(p ** (2 * k))),
        (2 * k + 1, 3.0 * p ** (2 * k)),
        (2 * k + 2, -3.0 * p ** (2 * k)),
        (2 * k + 3, p ** (2 * k)),
    )


@entry(_CNT1, "iid-counts1-double-pgf", "L2599", _CNT_W_PAR, _MKW)
def _(model, k, w):
    p, q = model.p, model.q
    num = Poly((1.0,)) - Poly.term(p**k, k)
    den = (
        Poly((1.0, -1.0))
        - Poly.term(p**k * w, k)
        + Poly.term((q + p * w) * p**k, k + 1)
    )
    truth = counts_double_gf_slice(model, k, Scheme.NON_OVERLAPPING, w)
    return series_dev(RationalGF(num, den), truth, CMAX)


@entry(_CNT1, "iid-counts1-gn-lemma", "L2610-2623", _CNT_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    terms = (
        (1, (1.0,)),
        (k, (0.0, p**k)),
        (k + 1, (-q * p**k, -(p ** (k + 1)))),
    )
    return _gn_lemma_dev(model, k, Scheme.NON_OVERLAPPING, terms)


@entry(_CNT1, "iid-counts1-pmf-recursion", "L2641-2648", _CNT_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    terms = (
        (1, (1.0, 0.0)),
        (k, (0.0, p**k)),
        (k + 1, (-q * p**k, -(p ** (k + 1)))),
    )
    return _count_pmf_dev(model, k, Scheme.NON_OVERLAPPING, terms)


@entry(_CNT1, "iid-counts1-mean-gf", "L2670", _CNT_PAR, _MK)
def _(model, k):
    p = model.p
    num = Poly.term(p**k, k) * Poly((1.0, -p))
    den = (
        Poly((1.0, -1.0))
        * Poly((1.0, -1.0))
        * (Poly((1.0,)) - Poly.term(p**k, k))
    )
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_mean_row(model, k, Scheme.NON_OVERLAPPING, CMAX),
    )


@entry(_CNT1, "iid-counts1-mean-recursion", "L2681-2684", _CNT_PAR, _MK)
def _(model, k):
    p = model.p
    u = run_taps(
        {k: p**k, k + 1: p**k * (2.0 - p)},
        (
            (1, 2.0),
            (2, -1.0),
            (k, p**k),
            (k + 1, -2.0 * p**k),
            (k + 2, p**k),
        ),
        k + 2,
        CMAX,
    )
    return seq_dev(u, counts_mean_row(model, k, Scheme.NON_OVERLAPPING, CMAX))


@entry(_CNT1, "iid-counts1-second-gf", "L2723", _CNT_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    inner = (
        Poly((1.0, -1.0))
        + Poly.term(p**k, k)
        + Poly.term((q - p) * p**k, k + 1)
    )
    num = Poly.term(p**k, k) * Poly((1.0, -p)) * inner
    m = Poly((1.0,)) - Poly.term(p**k, k)
    den = Poly((1.0, -1.0)) * Poly((1.0, -1.0)) * Poly((1.0, -1.0)) * m * m
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_second_row(model, k, Scheme.NON_OVERLAPPING, CMAX),
    )


@entry(
    _CNT1,
    "iid-counts1-second-recursion-relation",
    "L2734-2737",
    _CNT_PAR,
    _MK,
    note="relation alone, probed on engine second moments",
)
def _(model, k):
    return recurrence_residual(
        counts_second_row(model, k, Scheme.NON_OVERLAPPING, CMAX),
        _counts1_second_taps(model.p, k),
        2 * k + 4,
    )


@entry(
    _CNT1,
    "iid-counts1-second-recursion-inits",
    "L2742-2753",
    _CNT_PAR,
    _MK,
    note="one quadratic-band token is typeset unreadably and is read "
    "as the integer two, the reading under which the band starts "
    "correctly; the band is nonetheless wrong one step later and the "
    "four boundary rows lack their run-probability factors",
)
def _(model, k):
    p = model.p
    inits = {}
    for n in range(k, 2 * k):
        inits[n] = (
            (n * n + (3.0 - 2.0 * k) * n + (k - 1.0) * (k - 2.0)) / 2.0 * p**k
        )
    inits[2 * k] = 3.0 * p**k * (k * k - 5.0 * k + 12.0) + 3.0 * p ** (2 * k)
    inits[2 * k + 1] = (
        3.0 * k * (k + 5.0) / 2.0 + 6.0 * p**k - 3.0 * p ** (2 * k)
    )
    inits[2 * k + 2] = k * (k + 7.0) / 2.0 + 6.0 + 3.0 * p ** (2 * k)
    inits[2 * k + 3] = k * (k + 9.0) / 2.0 + 10.0 - p ** (2 * k)
    u = run_taps(inits, _counts1_second_taps(p, k), 2 * k + 4, CMAX)
    return seq_dev(u, counts_second_row(model, k, Scheme.NON_OVERLAPPING, CMAX))


def _counts_non_overlapping() -> list[CheckResult]:
    return measure(_CNT1)


# ---------------------------------------------------------------------------
# run counts, at-least counting

_CNT2 = "iid-counts2"


@entry(_CNT2, "iid-counts2-double-pgf", "L2796", _CNT_W_PAR, _MKW)
def _(model, k, w):
    p, q = model.p, model.q
    num = Poly((1.0,)) - Poly.term(p**k * (1.0 - w), k)
    den = Poly((1.0, -1.0)) + Poly.term(p**k * q * (1.0 - w), k + 1)
    truth = counts_double_gf_slice(model, k, Scheme.AT_LEAST, w)
    return series_dev(RationalGF(num, den), truth, CMAX)


@entry(_CNT2, "iid-counts2-gn-lemma", "L2808-2821", _CNT_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    terms = ((1, (1.0,)), (k + 1, (-(p**k) * q, p**k * q)))
    return _gn_lemma_dev(model, k, Scheme.AT_LEAST, terms)


@entry(_CNT2, "iid-counts2-pmf-recursion", "L2839-2848", _CNT_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    terms = ((1, (1.0, 0.0)), (k + 1, (-(p**k) * q, p**k * q)))
    return _count_pmf_dev(model, k, Scheme.AT_LEAST, terms)


@entry(_CNT2, "iid-counts2-mean-gf", "L2868", _CNT_PAR, _MK)
def _(model, k):
    p = model.p
    num = Poly.term(p**k, k) * Poly((1.0, -p))
    den = Poly((1.0, -1.0)) * Poly((1.0, -1.0))
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_mean_row(model, k, Scheme.AT_LEAST, CMAX),
    )


@entry(_CNT2, "iid-counts2-mean-recursion", "L2879-2882", _CNT_PAR, _MK)
def _(model, k):
    p = model.p
    u = run_taps(
        {k: p**k, k + 1: p**k * (2.0 - p)},
        ((1, 2.0), (2, -1.0)),
        k + 2,
        CMAX,
    )
    return seq_dev(u, counts_mean_row(model, k, Scheme.AT_LEAST, CMAX))


@entry(
    _CNT2,
    "iid-counts2-second-gf",
    "L2928",
    _CNT_PAR,
    _MK,
    note="heading names the waiting-time variable; body is the count",
)
def _(model, k):
    p, q = model.p, model.q
    num = (
        Poly.term(p**k, k)
        * Poly((1.0, -p))
        * (Poly((1.0, -1.0)) + Poly.term(2.0 * p**k * q, k + 1))
    )
    den = Poly((1.0, -1.0)) * Poly((1.0, -1.0)) * Poly((1.0, -1.0))
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_second_row(model, k, Scheme.AT_LEAST, CMAX),
    )


@entry(
    _CNT2,
    "iid-counts2-second-recursion",
    "L2940-2958",
    _CNT_PAR,
    _MK,
    note="one source term carries the overlapping-scheme mark and "
    "the below-support clause is garbled; values check out",
)
def _(model, k):
    p, q = model.p, model.q
    src = {
        k: p**k,
        k + 1: -(p**k) * (1.0 + p),
        k + 2: p ** (k + 1),
        2 * k + 1: 2.0 * p ** (2 * k) * q,
        2 * k + 2: -2.0 * p ** (2 * k + 1) * q,
    }
    u = drive_sequence(
        ((1, 3.0), (2, -3.0), (3, 1.0)), lambda n: src.get(n, 0.0), CMAX
    )
    return seq_dev(u, counts_second_row(model, k, Scheme.AT_LEAST, CMAX))


def _counts_at_least() -> list[CheckResult]:
    return measure(_CNT2)


# ---------------------------------------------------------------------------
# run counts, overlapping counting

_CNT3 = "iid-counts3"


@entry(_CNT3, "iid-counts3-double-pgf", "L2996", _CNT_W_PAR, _MKW)
def _(model, k, w):
    p, q = model.p, model.q
    num = Poly((1.0,)) - Poly((0.0, p * w)) - Poly.term(p**k * (1.0 - w), k)
    den = (
        Poly((1.0, -(1.0 + p * w), p * w))
        + Poly.term(p**k * q * (1.0 - w), k + 1)
    )
    truth = counts_double_gf_slice(model, k, Scheme.OVERLAPPING, w)
    return series_dev(RationalGF(num, den), truth, CMAX)


@entry(_CNT3, "iid-counts3-gn-lemma", "L3007-3020", _CNT_PAR, _MK)
def _(model, k):
    p, q = model.p, model.q
    terms = (
        (1, (1.0, p)),
        (2, (0.0, -p)),
        (k + 1, (-(p**k) * q, p**k * q)),
    )
    return _gn_lemma_dev(model, k, Scheme.OVERLAPPING, terms)


@entry(
    _CNT3,
    "iid-counts3-pmf-recursion",
    "L3038-3048",
    _CNT_PAR,
    _MK,
    note="the starting row is labeled with the running index where "
    "the run length is meant",
)
def _(model, k):
    p, q = model.p, model.q
    terms = (
        (1, (1.0, p)),
        (2, (0.0, -p)),
        (k + 1, (-(p**k) * q, p**k * q)),
    )
    return _count_pmf_dev(model, k, Scheme.OVERLAPPING, terms)


@entry(_CNT3, "iid-counts3-mean-gf", "L3068", _CNT_PAR, _MK)
def _(model, k):
    p = model.p
    num = Poly.term(p**k, k)
    den = Poly((1.0, -1.0)) * Poly((1.0, -1.0))
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_mean_row(model, k, Scheme.OVERLAPPING, CMAX),
    )


@entry(_CNT3, "iid-counts3-mean-recursion", "L3078-3081", _CNT_PAR, _MK)
def _(model, k):
    p = model.p
    u = run_taps({k: p**k}, ((1, 2.0), (2, -1.0)), k + 1, CMAX)
    return seq_dev(u, counts_mean_row(model, k, Scheme.OVERLAPPING, CMAX))


@entry(
    _CNT3,
    "iid-counts3-second-gf",
    "L3121",
    _CNT_PAR,
    _MK,
    note="numerator is missing its order-(k+1) term, which should "
    "carry minus the stopped-run weight; the heading also names the "
    "waiting-time variable where the count is meant",
)
def _(model, k):
    p, q = model.p, model.q
    num = (
        Poly.term(p**k, k)
        - Poly.term(p ** (k + 1), k + 2)
        + Poly.term(2.0 * p ** (2 * k) * q, 2 * k + 1)
    )
    den = Poly((1.0, -(p + 3.0), 3.0 * (1.0 + p), -(1.0 + 3.0 * p), p))
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_second_row(model, k, Scheme.OVERLAPPING, CMAX),
    )


@entry(
    _CNT3,
    "iid-counts3-second-recursion",
    "L3134-3150",
    _CNT_PAR,
    _MK,
    note="source terms match the damaged companion transform, so the "
    "order-(k+1) source value is missing here too; three displayed "
    "terms also carry the at-least-scheme mark and the below-support "
    "clause is garbled",
)
def _(model, k):
    p, q = model.p, model.q
    src = {
        k: p**k,
        k + 2: -(p ** (k + 1)),
        2 * k + 1: 2.0 * p ** (2 * k) * q,
    }
    u = drive_sequence(
        (
            (1, 3.0 + p),
            (2, -3.0 * (1.0 + p)),
            (3, 1.0 + 3.0 * p),
            (4, -p),
        ),
        lambda n: src.get(n, 0.0),
        CMAX,
    )
    return seq_dev(u, counts_second_row(model, k, Scheme.OVERLAPPING, CMAX))


def _counts_overlapping() -> list[CheckResult]:
    return measure(_CNT3)


CATALOG = (
    _fib_closed_forms,
    _geom_pmf_recursions,
    _geom_closed_forms,
    _longest_run,
    _trk_non_overlapping,
    _trk_at_least,
    _trk_overlapping,
    _counts_non_overlapping,
    _counts_at_least,
    _counts_overlapping,
)
