"""Verification catalog, two-state-chain half.

Companion to the independent-trials catalog: each entry transcribes one
printed display for the dependent-trials model, with ``L<line>`` anchors
into the source text, and measures its worst disagreement against engine
quantities computed by an independent route.  Chain parameters are
(p1, alpha, beta): first-trial success, success-after-success, and
failure-after-failure.
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
    not_transcribed,
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
from .models import Markov
from .polyseries import Poly, RationalGF
from .rth_waiting import Scheme

MODELS = (Markov(0.45, 0.3, 0.6), Markov(0.62, 0.55, 0.35))

VMAX = 60
NMAX = 45
CMAX = 26
RMAX = 4
KS = (2, 3)
W_POINTS = (0.4, 0.85)

_PAR = "(p1, alpha, beta) in {(0.45, 0.3, 0.6), (0.62, 0.55, 0.35)}"
_VK_PAR = f"{_PAR}; v <= {VMAX}"
_VK_KS_PAR = f"{_PAR}; k in 1..4; v <= {VMAX}"
_K_PAR = f"{_PAR}; k in {{2, 3}}"
_KN_PAR = f"{_PAR}; k in {{2, 3}}; n <= {NMAX}"
_TRK_PAR = f"{_PAR}; k in {{2, 3}}; r <= {RMAX}; n <= {NMAX}"
_TRK_W_PAR = f"{_PAR}; k in {{2, 3}}; w in {{0.4, 0.85}}; n <= {NMAX}"
_STEP_PAR = f"{_PAR}; k in {{2, 3}}; r in 2..4; n <= {NMAX}"
_MOM_PAR = f"{_PAR}; k in {{2, 3}}; r <= {RMAX}"
_CNT_PAR = f"{_PAR}; k in {{2, 3}}; n <= {CMAX}"
_CNT_W_PAR = f"{_PAR}; k in {{2, 3}}; w in {{0.4, 0.85}}; n <= {CMAX}"

# sweeps: chains, run lengths and w values
_M = tuple((m,) for m in MODELS)
_MK = tuple(product(MODELS, KS))
_MK4 = tuple(product(MODELS, range(1, 5)))
_MKW = tuple(product(MODELS, KS, W_POINTS))


def _den_k(a: float, b: float, k: int) -> Poly:
    """1 - beta s - sum_{i=2}^k alpha^{i-2}(1-alpha)(1-beta) s^i."""
    out = Poly((1.0, -b))
    for i in range(2, k + 1):
        out = out - Poly.term(a ** (i - 2) * (1.0 - a) * (1.0 - b), i)
    return out


def _big_r(a: float, b: float, k: int) -> Poly:
    """(1 - alpha z) times the k-step chain characteristic polynomial."""
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    return Poly((1.0, -(a + b), -(1.0 - a - b))) + Poly.term(c, k + 1)


def _double_pgf_dev(m: Markov, k: int, scheme: Scheme, big_r, pz, qz) -> float:
    """Worst gap of the printed (R + w P) / (R + w Q) from the engine, over w."""
    return worst(*(
        series_dev(
            RationalGF(big_r + w * pz, big_r + w * qz),
            double_gf_slice(m, k, scheme, w),
            NMAX,
        )
        for w in W_POINTS
    ))


def _step_ratio_dev(m: Markov, k: int, scheme: Scheme, rnum, rs) -> float:
    """Worst gap of rnum / R times the pgf of T_{r-1} from row r, r in rs.

    The pgf of T_{r-1} is H * A**(r-2) from the cached factors, bit for bit
    what trk_pgf builds; row r is from the checked table of trk_rows.
    """
    big_r = _big_r(m.alpha, m.beta, k)
    rows = trk_rows(m, k, scheme, RMAX, NMAX)
    h, a = factors(m, k, scheme)
    gaps = []
    for r in rs:
        prev = h * a ** (r - 2)
        printed = RationalGF(rnum * prev.num, big_r * prev.den)
        gaps.append(seq_dev(printed.series(NMAX), rows[r]))
    return worst(*gaps)


# ---------------------------------------------------------------------------
# first-run waiting time

_VK_REC = "markov-vk-rec"


@entry(_VK_REC, "markov-vk-pdf-k2", "L572-575", _VK_PAR, _M)
def _(m):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    h = run_taps(
        {1: p, 2: q * (1.0 - b)},
        ((1, b), (2, (1.0 - a) * (1.0 - b))),
        3,
        VMAX,
    )
    pmf = np.zeros(VMAX + 1)
    pmf[2:] = a * h[1:VMAX]
    return seq_dev(pmf, vk_series(m, 2, VMAX))


@entry(_VK_REC, "markov-vk-pdf-k3", "L590-593", _VK_PAR, _M)
def _(m):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    h = run_taps(
        {1: p, 2: q * (1.0 - b)},
        (
            (1, b),
            (2, (1.0 - a) * (1.0 - b)),
            (3, a * (1.0 - a) * (1.0 - b)),
        ),
        3,
        VMAX,
    )
    pmf = np.zeros(VMAX + 1)
    pmf[3:] = a * a * h[1 : VMAX - 1]
    return seq_dev(pmf, vk_series(m, 3, VMAX))


@entry(_VK_REC, "markov-vk-pdf-general", "L612-619", _VK_KS_PAR, _MK4)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    taps = ((1, b),) + tuple(
        (i + 2, (1.0 - a) * (1.0 - b) * a**i) for i in range(k - 1)
    )
    h = run_taps({1: p, 2: q * (1.0 - b)}, taps, 3, VMAX)
    pmf = np.zeros(VMAX + 1)
    for v in range(k, VMAX + 1):
        pmf[v] = a ** (k - 1) * h[v - k + 1]
    return seq_dev(pmf, vk_series(m, k, VMAX))


@entry(
    _VK_REC,
    "markov-vk-corollary-k2",
    "L752-755",
    _VK_PAR,
    _M,
    note="second starting value has a plus where a minus belongs in "
    "the failure-persistence factor",
)
def _(m):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    u = run_taps(
        {2: p * a, 3: a * q * (1.0 + b)},
        ((1, b), (2, (1.0 - a) * (1.0 - b))),
        4,
        VMAX,
    )
    return seq_dev(u, vk_series(m, 2, VMAX))


@entry(_VK_REC, "markov-vk-corollary-k3", "L782-785", _VK_PAR, _M)
def _(m):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    u = run_taps(
        {3: p * a * a, 4: q * (1.0 - b) * a * a},
        (
            (1, b),
            (2, (1.0 - a) * (1.0 - b)),
            (3, a * (1.0 - a) * (1.0 - b)),
        ),
        5,
        VMAX,
    )
    return seq_dev(u, vk_series(m, 3, VMAX))


@entry(
    _VK_REC,
    "markov-vk-corollary-3term-recursion",
    "L816-817",
    f"{_PAR}; k in {{2, 3}}; v <= {VMAX}",
    _MK,
    note="two-step coefficient carries a minus where a plus belongs",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    taps = ((1, a + b), (2, -(1.0 - a - b)), (k + 1, -c))
    return recurrence_residual(vk_series(m, k, VMAX), taps, k + 3)


@entry(_VK_REC, "markov-vk-corollary-3term-inits", "L823-832", _K_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    printed = (
        (k, p * a ** (k - 1)),
        (k + 1, q * a ** (k - 1) * (1.0 - b)),
        (k + 2, a ** (k - 1) * (1.0 - b) * (b * q + p * (1.0 - a))),
    )
    row = vk_series(m, k, VMAX)
    return worst(*(abs(val - row[v]) for v, val in printed))


@entry(
    _VK_REC,
    "markov-vk-remark-depthk",
    "L841-855",
    f"{_PAR}; k in {{2, 3, 4}}; v <= {VMAX}",
    tuple(product(MODELS, (2, 3, 4))),
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    taps = ((1, b),) + tuple(
        (i, (1.0 - a) * (1.0 - b) * a ** (i - 2)) for i in range(2, k + 1)
    )
    u = run_taps(
        {k: p * a ** (k - 1), k + 1: q * a ** (k - 1) * (1.0 - b)},
        taps,
        k + 2,
        VMAX,
    )
    return seq_dev(u, vk_series(m, k, VMAX))


def _vk_recursions() -> list[CheckResult]:
    return measure(_VK_REC)


_VK_CLOSED = "markov-vk-closed"

#: The printed three-decimal table of stationary first-trial success
#: probabilities: one row per alpha, one column per beta in _BETAS.
_STATIONARY_TABLE = {
    0.1: (0.500, 0.438, 0.357, 0.250, 0.100),
    0.3: (0.563, 0.500, 0.417, 0.300, 0.125),
    0.5: (0.643, 0.583, 0.500, 0.375, 0.167),
    0.7: (0.750, 0.700, 0.625, 0.500, 0.250),
    0.9: (0.900, 0.875, 0.833, 0.750, 0.500),
}
_BETAS = (0.1, 0.3, 0.5, 0.7, 0.9)


@entry(
    _VK_CLOSED,
    "markov-vk-closedform-k2",
    "L644-648",
    f"{_PAR}; v <= 200",
    _M,
    note="both root powers run one too high, and the second "
    "denominator carries the failure probability where the "
    "failure-persistence parameter belongs; the left side also "
    "displays a fixed argument",
)
def _(m):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    disc = np.sqrt(b * b + 4.0 * (1.0 - a) * (1.0 - b))
    r1 = (b + disc) / 2.0
    r2 = (b - disc) / 2.0
    row = vk_row(m, 2, 200)
    gaps = []
    for v in range(2, 201):
        printed = a * (
            r2 * (p * r1 + q - b) / (r2 * (r1 - r2)) * r1 ** (v - 1)
            + (q * (1.0 - b) - p * r1) / (q - 2.0 * r1) * r2 ** (v - 1)
        )
        gaps.append(abs(printed - row[v]))
    return worst(*gaps)


@entry(
    _VK_CLOSED,
    "markov-vk-stationary-table",
    "L672-676",
    "alpha, beta in {0.1, 0.3, 0.5, 0.7, 0.9}",
    tuple(_STATIONARY_TABLE.items()),
    note="three-decimal table of stationary first-trial success "
    "probabilities; deviations beyond half-unit rounding",
)
def _(a, vals):
    return worst(*(
        worst(0.0, abs(printed - Markov.stationary_start(a, b).p1) - 5e-4)
        for b, printed in zip(_BETAS, vals)
    ))


@entry(_VK_CLOSED, "markov-vk-pgf-k2", "L714", _VK_PAR, _M)
def _(m):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    gf = RationalGF(
        Poly((0.0, 0.0, p * a, (q - b) * a)),
        Poly((1.0, -b, -(1.0 - a) * (1.0 - b))),
    )
    return seq_dev(gf.series(VMAX), vk_row(m, 2, VMAX))


@entry(_VK_CLOSED, "markov-vk-pgf-k3", "L772-773", _VK_PAR, _M)
def _(m):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    gf = RationalGF(
        Poly((0.0, 0.0, 0.0, a * a * p, a * a * (q - b))),
        Poly(
            (
                1.0,
                -b,
                -(1.0 - a) * (1.0 - b),
                -a * (1.0 - a) * (1.0 - b),
            )
        ),
    )
    return seq_dev(gf.series(VMAX), vk_row(m, 3, VMAX))


@entry(_VK_CLOSED, "markov-vk-pgf-general", "L802-803", _VK_KS_PAR, _MK4)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = Poly.term(a ** (k - 1), k) * Poly((p, q - b))
    gf = RationalGF(num, _den_k(a, b, k))
    return seq_dev(gf.series(VMAX), vk_row(m, k, VMAX))


@entry(
    _VK_CLOSED,
    "markov-vk-pgf-general-factored",
    "L804-805",
    _VK_KS_PAR,
    _MK4,
    note="final denominator term carries a minus where a plus "
    "belongs",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    num = Poly.term(a ** (k - 1), k) * Poly((p, q - b)) * Poly((1.0, -a))
    den = Poly((1.0, -(a + b), -(1.0 - a - b))) - Poly.term(c, k + 1)
    gf = RationalGF(num, den)
    return seq_dev(gf.series(VMAX), vk_row(m, k, VMAX))


def _vk_closed_forms() -> list[CheckResult]:
    return measure(_VK_CLOSED)


# ---------------------------------------------------------------------------
# longest success run

_LONGEST = "markov-longest"


@entry(
    _LONGEST,
    "markov-longest-gf-closedform",
    "L1051-1059",
    f"{_PAR}; k in {{2, 3}}; n <= 30",
    _MK,
    note="numerator order-(k+3) term has a sign flipped inside its "
    "success-weighted bracket and a denominator brace swaps the "
    "transition-sum token",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    pnum = (
        Poly.term(p * a ** (k - 1), k)
        + Poly.term(a ** (k - 1) * (1.0 - b - p * (3.0 * a + b)), k + 1)
        + Poly.term(
            a ** (k - 1)
            * (
                (1.0 - b) * (1.0 - 3.0 * a - b)
                - p * (1.0 - a - 3.0 * a * a - b - 2.0 * a * b)
            ),
            k + 2,
        )
        + Poly.term(
            a**k
            * (
                (1.0 - b) * (2.0 - 3.0 * a - 2.0 * b)
                + p * (a * a - 2.0 * (1.0 - b) + a * (2.0 + b))
            ),
            k + 3,
        )
        + Poly.term(a ** (k + 1) * (1.0 - p - b) * (1.0 - a - b), k + 4)
    )
    pden = (
        Poly(
            (
                1.0,
                -2.0 * (a + b),
                (a + 1.0) ** 2 + (b + 1.0) ** 2 + 2.0 * a * b - 4.0,
                2.0 * (1.0 - a - b) * (a + b),
                (1.0 - a - b) ** 2,
            )
        )
        + Poly.term(c, k + 1)
        + Poly.term(-b * c, k + 2)
        + Poly.term(-c * (1.0 - (1.0 - a) * (1.0 - b) * b), k + 3)
        + Poly.term(-a * c * (1.0 - a - b), k + 4)
        + Poly.term(a ** (2 * k - 1) * (1.0 - a) ** 2 * (1.0 - b) ** 2, 2 * k + 3)
    )
    series = RationalGF(pnum, pden).series(30)
    return slice_dev(series, longest_rows(m, 40), k)


@entry(
    _LONGEST,
    "markov-longest-recursion",
    "L1082-1102",
    f"{_PAR}; k in {{2, 3}}; n <= 30",
    _MK,
    note="inherits the closed-form damage, keeps the farthest tap "
    "unnegated when every other one mirrors, varies one source "
    "bracket from the companion transform, and repeats a source "
    "index label (read as the next one)",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    taps = (
        (1, 2.0 * (a + b)),
        (2, 4.0 - (a + 1.0) ** 2 - (b + 1.0) ** 2 - 2.0 * a * b),
        (3, -2.0 * (1.0 - a - b) * (a + b)),
        (4, -((1.0 - a - b) ** 2)),
        (k + 1, -c),
        (k + 2, b * c),
        (k + 3, c * (1.0 - (1.0 - a) * (1.0 - b) * b)),
        (k + 4, a * c * (1.0 - a - b)),
        (2 * k + 3, a ** (2 * k - 1) * (1.0 - a) ** 2 * (1.0 - b) ** 2),
    )
    src = {
        k: p * a ** (k - 1),
        k + 1: a ** (k - 1) * (1.0 - b - p * (3.0 * a + b)),
        k + 2: a ** (k - 1)
        * (
            (1.0 - b) * (1.0 - 3.0 * a - b)
            - p * (1.0 - a - 3.0 * a * a - b - 2.0 * a * b)
        ),
        k + 3: a**k
        * (
            (1.0 - b) * (2.0 - 3.0 * a - 2.0 * b)
            + p * (a * a - 2.0 * a * (1.0 - b) + a * (2.0 + b))
        ),
        k + 4: a ** (k + 1) * (1.0 - p - b) * (1.0 - a - b),
    }
    u = drive_sequence(taps, lambda n: src.get(n, 0.0), 30)
    return slice_dev(u, longest_rows(m, 40), k)


def _longest_run() -> list[CheckResult]:
    return measure(_LONGEST)


# ---------------------------------------------------------------------------
# occurrence factor transforms

_FACTORS = "markov-factors"


@entry(
    _FACTORS,
    "markov-factors-h",
    "L1727",
    _KN_PAR,
    _MK,
    note="first-passage factor shared by all three counting schemes",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = Poly.term(a ** (k - 1), k - 1) * Poly((0.0, p, q * (1.0 - b) - b * p))
    printed = RationalGF(num, _den_k(a, b, k))
    return worst(
        *(series_dev(printed, factors(m, k, sch)[0], NMAX) for sch in Scheme)
    )


@entry(_FACTORS, "markov-factors-a1", "L1728", _KN_PAR, _MK)
def _(m, k):
    a, b = m.alpha, m.beta
    num = Poly.term(a ** (k - 1), k - 1) * Poly(
        (0.0, a, (1.0 - a) * (1.0 - b) - a * b)
    )
    printed = RationalGF(num, _den_k(a, b, k))
    _, a_gf = factors(m, k, Scheme.NON_OVERLAPPING)
    return series_dev(printed, a_gf, NMAX)


@entry(_FACTORS, "markov-factors-a2", "L1735", _KN_PAR, _MK)
def _(m, k):
    a, b = m.alpha, m.beta
    num = (
        Poly((0.0, 1.0 - a))
        * Poly.term(a ** (k - 1), k - 1)
        * Poly((0.0, 1.0 - b))
    )
    den = Poly((1.0, -a)) * _den_k(a, b, k)
    printed = RationalGF(num, den)
    _, a_gf = factors(m, k, Scheme.AT_LEAST)
    return series_dev(printed, a_gf, NMAX)


@entry(_FACTORS, "markov-factors-a3", "L1745", _KN_PAR, _MK)
def _(m, k):
    a, b = m.alpha, m.beta
    den = _den_k(a, b, k)
    num = Poly((0.0, a)) * den + Poly.term(
        (1.0 - a) * (1.0 - b) * a ** (k - 1), k + 1
    )
    printed = RationalGF(num, den)
    _, a_gf = factors(m, k, Scheme.OVERLAPPING)
    return series_dev(printed, a_gf, NMAX)


def _factors() -> list[CheckResult]:
    return measure(_FACTORS)


# ---------------------------------------------------------------------------
# r-th run waiting time, non-overlapping counting

_TRK1 = "markov-trk1"


@entry(_TRK1, "markov-trk1-double-pgf", "L1783-1786", _TRK_W_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    big_r = _big_r(a, b, k)
    s = a ** (k - 1) * (p - a)
    pz = (
        Poly.term(s, k)
        - Poly.term(s * (a + 1.0), k + 1)
        + Poly.term(s * a, k + 2)
    )
    qz = (
        Poly.term(-(a**k), k)
        - Poly.term(a ** (k - 1) * (1.0 - a - a * a - b), k + 1)
        + Poly.term(a**k * (1.0 - a - b), k + 2)
    )
    return _double_pgf_dev(m, k, Scheme.NON_OVERLAPPING, big_r, pz, qz)


@entry(
    _TRK1,
    "markov-trk1-step-ratio",
    "L1804",
    f"{_PAR}; k in {{2, 3}}; r in {{3, 4}}; n <= {NMAX}",
    _MK,
    note="middle numerator term carries a minus where a plus "
    "belongs; applied to the engine's previous-index transform",
)
def _(m, k):
    a, b = m.alpha, m.beta
    rnum = (
        Poly.term(a**k, k)
        - Poly.term(a ** (k - 1) * (1.0 - a - a * a - b), k + 1)
        - Poly.term(a**k * (1.0 - a - b), k + 2)
    )
    return _step_ratio_dev(m, k, Scheme.NON_OVERLAPPING, rnum, (3, 4))


@entry(_TRK1, "markov-trk1-step-first", "L1807", _KN_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = (
        Poly.term(a ** (k - 1) * p, k)
        + Poly.term(a ** (k - 1) * (q - b - a * p), k + 1)
        + Poly.term(a**k * (b - q), k + 2)
    )
    printed = RationalGF(num, _big_r(a, b, k))
    rows = trk_rows(m, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    return seq_dev(printed.series(NMAX), rows[1])


@entry(
    _TRK1,
    "markov-trk1-pmf-recursion",
    "L1825-1828",
    _TRK_PAR,
    _MK,
    note="previous-index one-step-in coefficient carries a minus "
    "where a plus belongs",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    rows = trk_rows(m, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    terms = (
        (0, 1, a + b),
        (0, 2, 1.0 - a - b),
        (0, k + 1, -c),
        (1, k, a**k),
        (1, k + 1, -(a ** (k - 1)) * (1.0 - a - a * a - b)),
        (1, k + 2, -(a**k) * (1.0 - a - b)),
    )
    return residual_2d(rows, terms, 2, k + 3)


@entry(_TRK1, "markov-trk1-pmf-inits", "L1834-1841", _K_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    rows = trk_rows(m, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    printed = (
        (k, p * a ** (k - 1)),
        (k + 1, q * a ** (k - 1) * (1.0 - b)),
        (k + 2, a ** (k - 1) * (1.0 - b) * (b * q + p * (1.0 - a))),
    )
    return worst(*(abs(val - rows[1][n]) for n, val in printed))


@entry(
    _TRK1,
    "markov-trk1-tail-recursion",
    "L1861-1866",
    _TRK_PAR,
    _MK,
    note="previous-index one-step-in difference coefficient has its "
    "sign flipped",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    tails = trk_tail_rows(m, k, Scheme.NON_OVERLAPPING, RMAX, NMAX)
    terms = (
        [(0, 1, 1.0)]
        + diff_terms(0, 2, -(a + b))
        + diff_terms(0, 3, -(1.0 - a - b))
        + diff_terms(0, k + 2, c)
        + diff_terms(1, k + 1, -(a**k))
        + diff_terms(1, k + 2, a ** (k - 1) * (1.0 - a - a * a - b))
        + diff_terms(1, k + 3, a**k * (1.0 - a - b))
    )
    return residual_2d(tails, terms, 2, k + 4)


@entry(_TRK1, "markov-trk1-mean-gf", "L1906", _MOM_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = Poly(
        (
            0.0,
            a * (2.0 - a - b) + a**k * (a * (b - q) - p),
            (1.0 - a) * (p - a) * a**k,
        )
    )
    den = (1.0 - a) * (1.0 - b) * a**k * Poly((1.0, -2.0, 1.0))
    return wseries_dev(
        num, den, lambda r: trk_mean(m, k, Scheme.NON_OVERLAPPING, r), 1, RMAX
    )


@entry(_TRK1, "markov-trk1-mean-recursion", "L1921-1925", _MOM_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    true = moment_row(trk_mean, m, k, Scheme.NON_OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 2.0), (2, -1.0)), 3)
    scale = (1.0 - a) * (1.0 - b) * a**k
    mu1 = (a * (2.0 - a - b) + a**k * (a * (b - q) - p)) / scale
    mu2 = (
        2.0 * a * (2.0 - a - b)
        + a**k * (2.0 * a * b - a * q - 2.0 * a + a * a - p)
    ) / scale
    return worst(res, rel_dev(mu1, true[1]), rel_dev(mu2, true[2]))


@entry(
    _TRK1,
    "markov-trk1-second-gf",
    "L1973-1987",
    _MOM_PAR,
    _MK,
    note="first and third numerator coefficients are exact; the "
    "middle one is damaged inside its far-renewal bracket",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    a1 = (
        a ** (2 * k) * (1.0 - a) * (1.0 - b) * (p + (b - q) * a)
        + 2.0 * a * a * (2.0 - a - b) ** 2
        - a ** (k + 1)
        * (
            2.0 * p * (1.0 - a) * (2.0 - a - b)
            + 2.0 * k * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
            + (1.0 - b) * (b + a * (5.0 - 3.0 * a - 3.0 * b))
        )
    )
    a2 = (
        2.0 * k * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
        + 2.0 * p * (1.0 - a) * (2.0 - a - b)
        - (1.0 + a) * b * b
        + (8.0 - 5.0 * a) * a * b
        + b
        - a * (11.0 - (13.0 - 4.0 * a) * a)
        - a ** (k - 1)
        * (
            2.0 * p * (1.0 - a) * (1.0 - (1.0 - a) * a - b)
            + a * (1.0 - b) * (2.0 - b + a * (3.0 - 3.0 * a - b))
        )
    )
    a3 = a ** (2 * k) * (1.0 - a) ** 2 * (p - a) * (1.0 - 2.0 * a - b)
    num = Poly((0.0, a1, a2 * a ** (k + 1), a3))
    den = (
        a ** (2 * k)
        * (1.0 - a) ** 2
        * (1.0 - b) ** 2
        * Poly((1.0, -3.0, 3.0, -1.0))
    )
    return wseries_dev(
        num, den, lambda r: trk_second(m, k, Scheme.NON_OVERLAPPING, r), 1, RMAX
    )


@entry(
    _TRK1,
    "markov-trk1-second-recursion",
    "L1997-2020",
    _MOM_PAR,
    _MK,
    note="two line breaks carry no operator and are read as plus; "
    "the relation and first two starting values hold under that "
    "reading while the third value stays damaged under either one",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    true = moment_row(trk_second, m, k, Scheme.NON_OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 3.0), (2, -3.0), (3, 1.0)), 4)
    scale = a ** (2 * k) * (1.0 - a) ** 2 * (1.0 - b) ** 2
    c1 = (
        a ** (2 * k) * (1.0 - a) * (1.0 - b) * (p + (b - q) * a)
        + 2.0 * a * a * (2.0 - a - b) ** 2
        - a ** (k + 1)
        * (
            2.0 * p * (1.0 - a) * (2.0 - a - b)
            + 2.0 * k * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
            + (1.0 - b) * (b + a * (5.0 - 3.0 * a - 3.0 * b))
        )
    )
    c2 = (
        6.0 * a**4
        - 4.0 * a ** (k + 4)
        + 2.0
        * a ** (k + 3)
        * (11.0 - 2.0 * p - 2.0 * k * (1.0 - b) - 7.0 * b)
        - 12.0 * a**3 * (2.0 - b)
        + 6.0 * a * a * (2.0 - b) ** 2
        + p * a ** (2 * k) * (1.0 - b)
        - a ** (2 * k + 3) * (3.0 - 2.0 * p - 3.0 * b)
        - a ** (2 * k + 1)
        * (1.0 - 2.0 * p * (2.0 - b) - (3.0 - 2.0 * b) * b)
        + a ** (2 * k + 2)
        * (6.0 - 7.0 * p - 10.0 * b + 3.0 * p * b + 4.0 * b * b)
        - 2.0
        * a ** (k + 2)
        * (
            13.0
            - 6.0 * k
            - 6.0 * p
            - 2.0 * (8.0 - 4.0 * k - p) * b
            + (5.0 - 2.0 * k) * b * b
        )
        - 2.0
        * a ** (k + 1)
        * (
            4.0 * p
            + 2.0 * k * (2.0 - b) * (1.0 - b)
            + b
            - b * (2.0 * p + b)
        )
    )
    c3 = (
        12.0 * a * a * (2.0 - a - b) ** 2
        - a ** (k + 1)
        * (
            (3.0 - a) * a * (7.0 - 4.0 * a)
            + b
            - a * (24.0 - 11.0 * a) * b
            - (1.0 - 7.0 * a) * b * b
            + 2.0 * p * (1.0 - a) * (2.0 - a - b)
            + 2.0 * k * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
        )
        + a ** (2 * k + 1)
        * (
            a * (19.0 - (7.0 - a) * a)
            - 1.0
            + 4.0 * b
            - 2.0 * a * b * (13.0 - 5.0 * a)
            - 3.0 * (1.0 - 3.0 * a) * b * b
        )
        + a ** (2 * k)
        * (p * (1.0 - a) * (1.0 - b + a * (9.0 - 4.0 * a - 5.0 * b)))
    )
    return worst(
        res,
        rel_dev(c1 / scale, true[1]),
        rel_dev(c2 / scale, true[2]),
        rel_dev(c3 / scale, true[3]),
    )


def _trk_non_overlapping() -> list[CheckResult]:
    return measure(_TRK1)


# ---------------------------------------------------------------------------
# r-th run waiting time, at-least counting

_TRK2 = "markov-trk2"


@entry(_TRK2, "markov-trk2-double-pgf", "L2049-2052", _TRK_W_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    big_r = _big_r(a, b, k)
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    pz = (
        Poly.term(a**k * (b - q), k + 2)
        + Poly.term(a ** (k - 1) * (q * a - p - a * b), k + 1)
        + Poly.term(p * a ** (k - 1), k)
    )
    qz = Poly.term(-c, k + 1)
    return _double_pgf_dev(m, k, Scheme.AT_LEAST, big_r, pz, qz)


@entry(
    _TRK2,
    "markov-trk2-step-ratio",
    "L2063",
    _STEP_PAR,
    _MK,
    note="applied to the engine's previous-index transform",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    rnum = Poly.term(c, k + 1)
    return _step_ratio_dev(m, k, Scheme.AT_LEAST, rnum, range(2, RMAX + 1))


@entry(
    _TRK2,
    "markov-trk2-step-first",
    "L2066",
    _KN_PAR,
    _MK,
    note="every numerator term carries one power of the "
    "success-persistence parameter too many",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = (
        Poly.term(a**k * p, k)
        + Poly.term(a**k * (q - p * a - b), k + 1)
        + Poly.term(a ** (k + 1) * (b - q), k + 2)
    )
    printed = RationalGF(num, _big_r(a, b, k))
    rows = trk_rows(m, k, Scheme.AT_LEAST, RMAX, NMAX)
    return seq_dev(printed.series(NMAX), rows[1])


@entry(
    _TRK2,
    "markov-trk2-pmf-recursion",
    "L2084-2085",
    _TRK_PAR,
    _MK,
    note="two-step coefficient carries a spurious "
    "success-persistence factor",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    rows = trk_rows(m, k, Scheme.AT_LEAST, RMAX, NMAX)
    terms = (
        (0, 1, a + b),
        (0, 2, (1.0 - a - b) * a),
        (0, k + 1, -c),
        (1, k + 1, c),
    )
    return residual_2d(rows, terms, 2, k + 3)


@entry(
    _TRK2,
    "markov-trk2-pmf-inits",
    "L2091-2098",
    _K_PAR,
    _MK,
    note="all three starting values carry one power of the "
    "success-persistence parameter too many",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    rows = trk_rows(m, k, Scheme.AT_LEAST, RMAX, NMAX)
    printed = (
        (k, p * a**k),
        (k + 1, q * a**k * (1.0 - b)),
        (k + 2, a**k * (1.0 - b) * (b * q + p * (1.0 - a))),
    )
    return worst(*(abs(val - rows[1][n]) for n, val in printed))


@entry(
    _TRK2,
    "markov-trk2-tail-recursion",
    "L2120-2123",
    _TRK_PAR,
    _MK,
    note="three-step difference coefficient carries a spurious "
    "success-persistence factor",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    tails = trk_tail_rows(m, k, Scheme.AT_LEAST, RMAX, NMAX)
    terms = (
        [(0, 1, 1.0 + a + b), (0, 2, -(a + b))]
        + diff_terms(0, 3, -a * (1.0 - a - b))
        + diff_terms(0, k + 2, c)
        + diff_terms(1, k + 2, -c)
    )
    return residual_2d(tails, terms, 2, k + 4)


@entry(
    _TRK2,
    "markov-trk2-mean-gf",
    "L2144",
    _MOM_PAR,
    _MK,
    note="first-order coefficient is the correct starting mean, but "
    "the second-order one misstates the per-run increment",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = Poly(
        (
            0.0,
            a ** (k - 1) * (a * b - q * a - p) + (2.0 - a - b),
            a ** (k - 1) * (1.0 - a) * (p - a),
        )
    )
    den = (1.0 - a) * (1.0 - b) * a ** (k - 1) * Poly((1.0, -2.0, 1.0))
    return wseries_dev(
        num, den, lambda r: trk_mean(m, k, Scheme.AT_LEAST, r), 1, RMAX
    )


@entry(
    _TRK2,
    "markov-trk2-mean-recursion",
    "L2155-2159",
    _MOM_PAR,
    _MK,
    note="relation and first value hold; the second starting value "
    "is damaged",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    true = moment_row(trk_mean, m, k, Scheme.AT_LEAST, RMAX)
    res = recurrence_residual(true, ((1, 2.0), (2, -1.0)), 3)
    scale = (1.0 - a) * (1.0 - b) * a ** (k - 1)
    mu1 = (a ** (k - 1) * (a * b - q * a - p) + (2.0 - a - b)) / scale
    mu2 = (
        a ** (k - 1) * (2.0 * a * b - 3.0 * q * a - 2.0 * p - p * a + a * a)
        + 2.0 * (2.0 - a - b)
    ) / scale
    return worst(res, rel_dev(mu1, true[1]), rel_dev(mu2, true[2]))


@entry(
    _TRK2,
    "markov-trk2-second-gf",
    "L2186-2194",
    _MOM_PAR,
    _MK,
    note="second and third numerator coefficients are exact; the "
    "leading one is damaged beyond any single sign repair",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    t1, t2 = 1.0 - a, 1.0 - b
    t3 = (b - q) * a + p
    t4 = b + a * (5.0 - 3.0 * a - 3.0 * b)
    a1 = (
        t1 * t2 * t3 * a ** (2 * k)
        + 2.0 * a * (t1 + t2) ** 2
        - a ** (k + 1)
        * (2.0 * p * t1 * (t1 + t2) + 2.0 * k * t1 * t2 * (t1 + t2) - t2 * t4)
    )
    a2 = a**k * (
        2.0 * k * a * t1 * t2 * (t1 + t2)
        - 2.0 * a**k * t1 * t2 * t3
        + a * (2.0 * p * t1 * (t1 + t2) + t2 * t4)
    )
    a3 = t1 * t2 * t3 * a ** (2 * k)
    num = Poly((0.0, a1, a2, a3))
    den = a ** (2 * k) * t1**2 * t2**2 * Poly((1.0, -3.0, 3.0, -1.0))
    return wseries_dev(
        num, den, lambda r: trk_second(m, k, Scheme.AT_LEAST, r), 1, RMAX
    )


@entry(
    _TRK2,
    "markov-trk2-second-recursion",
    "L2203-2224",
    _MOM_PAR,
    _MK,
    note="an unclosed bracket in the third value is read as closing "
    "after its final brace; under that reading the third value is "
    "exact, the second needs only its final bracket sign flipped, "
    "and the first carries deeper damage shared with the companion "
    "transform's leading coefficient",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    true = moment_row(trk_second, m, k, Scheme.AT_LEAST, RMAX)
    res = recurrence_residual(true, ((1, 3.0), (2, -3.0), (3, 1.0)), 4)
    t1, t2 = 1.0 - a, 1.0 - b
    t3 = (b - q) * a + p
    t4 = b + a * (5.0 - 3.0 * a - 3.0 * b)
    scale = a ** (2 * k) * t1**2 * t2**2
    inner = 2.0 * p * t1 * (t1 + t2) + 2.0 * k * t1 * t2 * (t1 + t2)
    b1 = (
        t1 * t2 * t3 * a ** (2 * k)
        + 2.0 * a * (t1 + t2) ** 2
        - a ** (k + 1) * (inner - t2 * t4)
    )
    b2 = (
        t1 * t2 * t3 * a ** (2 * k)
        + 6.0 * a * a * (t1 + t2) ** 2
        - 2.0 * a ** (k + 1) * (inner - t2 * t4)
    )
    b3 = (
        t1 * t2 * t3 * a ** (2 * k)
        + 12.0 * a * a * (t1 + t2) ** 2
        - 3.0 * a ** (k + 1) * (inner + t2 * t4)
    )
    return worst(
        res,
        rel_dev(b1 / scale, true[1]),
        rel_dev(b2 / scale, true[2]),
        rel_dev(b3 / scale, true[3]),
    )


def _trk_at_least() -> list[CheckResult]:
    return measure(_TRK2)


# ---------------------------------------------------------------------------
# r-th run waiting time, overlapping counting

_TRK3 = "markov-trk3"


@entry(
    _TRK3,
    "markov-trk3-double-pgf",
    "L2265-2269",
    _TRK_W_PAR,
    _MK,
    note="numerator's order-(k+1) adjustment term has its sign "
    "flipped; the rest of the display is exact",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    big_r = _big_r(a, b, k)
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    g = 1.0 - a - b
    pz = (
        Poly.term(a**k * (b - q), k + 2)
        + Poly.term(a ** (k - 1) * (p + (b - q) * a), k + 1)
        + Poly.term(p * a ** (k - 1), k)
        + Poly((0.0, -a, a * (a + b), a * g))
    )
    qz = Poly.term(-c, k + 1) + Poly((0.0, -a, a * (a + b), a * g))
    return _double_pgf_dev(m, k, Scheme.OVERLAPPING, big_r, pz, qz)


@entry(
    _TRK3,
    "markov-trk3-step-ratio",
    "L2280",
    _STEP_PAR,
    _MK,
    note="applied to the engine's previous-index transform",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    g = 1.0 - a - b
    rnum = Poly.term(c, k + 1) + Poly((0.0, a, -a * (a + b), -a * g))
    return _step_ratio_dev(m, k, Scheme.OVERLAPPING, rnum, range(2, RMAX + 1))


@entry(
    _TRK3,
    "markov-trk3-step-first",
    "L2283",
    _KN_PAR,
    _MK,
    note="every numerator term carries one power of the "
    "success-persistence parameter too many; a stray dot in the "
    "printed denominator is read as formatting noise",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = (
        Poly.term(a**k * p, k)
        - Poly.term(a**k * (p * a + b - q), k + 1)
        + Poly.term(a ** (k + 1) * (b - q), k + 2)
    )
    printed = RationalGF(num, _big_r(a, b, k))
    rows = trk_rows(m, k, Scheme.OVERLAPPING, RMAX, NMAX)
    return seq_dev(printed.series(NMAX), rows[1])


@entry(_TRK3, "markov-trk3-pmf-recursion", "L2301-2304", _TRK_PAR, _MK)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    rows = trk_rows(m, k, Scheme.OVERLAPPING, RMAX, NMAX)
    terms = (
        (0, 1, a + b),
        (0, 2, 1.0 - a - b),
        (0, k + 1, -c),
        (1, 1, a),
        (1, 2, -a * (a + b)),
        (1, 3, -a * (1.0 - a - b)),
        (1, k + 1, c),
    )
    return residual_2d(rows, terms, 2, k + 2)


@entry(
    _TRK3,
    "markov-trk3-pmf-inits",
    "L2310-2317",
    _K_PAR,
    _MK,
    note="index-zero row is the unit mass as displayed; the three "
    "first-passage values carry one power of the "
    "success-persistence parameter too many",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    rows = trk_rows(m, k, Scheme.OVERLAPPING, RMAX, NMAX)
    printed = (
        (k, p * a**k),
        (k + 1, q * a**k * (1.0 - b)),
        (k + 2, a**k * (1.0 - b) * (b * q + p * (1.0 - a))),
    )
    return worst(
        abs(rows[0][0] - 1.0),
        float(np.max(np.abs(rows[0][1:]))),
        *(abs(val - rows[1][n]) for n, val in printed),
    )


@entry(
    _TRK3,
    "markov-trk3-tail-recursion",
    "L2337-2341",
    _TRK_PAR,
    _MK,
    note="three defects: the current-index two-step term is absent, "
    "the current-index difference block has its sign flipped, and "
    "the previous-index three-step coefficient drops its "
    "transition-sum factor",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    g = 1.0 - a - b
    tails = trk_tail_rows(m, k, Scheme.OVERLAPPING, RMAX, NMAX)
    terms = (
        [(0, 1, 1.0 + a + b), (0, 3, -g)]
        + diff_terms(0, k + 2, -c)
        + [(1, 1, a), (1, 2, -a * (1.0 + a + b)), (1, 3, a), (1, 4, a * g)]
        + diff_terms(1, k + 2, -c)
    )
    return residual_2d(tails, terms, 2, k + 4)


@entry(
    _TRK3,
    "markov-trk3-mean-gf",
    "L2358-2365",
    _MOM_PAR,
    _MK,
    note="the two numerator coefficients are interchanged: the "
    "order-two token reproduces the engine's starting mean and the "
    "order-one token its per-run increment shortfall",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    w1 = (q - b) * a**k + p * a ** (k - 1) + a * a - (2.0 - b) * a
    w2 = a ** (k - 1) * ((b - q) * a - p) + (2.0 - a - b)
    num = Poly((0.0, w1, w2))
    den = (1.0 - a) * (1.0 - b) * a ** (k - 1) * Poly((1.0, -2.0, 1.0))
    return wseries_dev(
        num, den, lambda r: trk_mean(m, k, Scheme.OVERLAPPING, r), 1, RMAX
    )


@entry(
    _TRK3,
    "markov-trk3-mean-recursion",
    "L2376-2380",
    _MOM_PAR,
    _MK,
    note="first value inherits the interchanged transform "
    "coefficient; the second scales wrong by one "
    "success-persistence power and shows an unbalanced brace, read "
    "at face value",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    true = moment_row(trk_mean, m, k, Scheme.OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 2.0), (2, -1.0)), 3)
    mu1 = ((q - b) * a**k + p * a ** (k - 1) + a * a - (2.0 - b) * a) / (
        (1.0 - a) * (1.0 - b) * a ** (k - 1)
    )
    mu2 = (
        a ** (k - 1) * ((b - q) * a - p) + (2.0 - a) * (2.0 - a - b)
    ) / ((1.0 - a) * (1.0 - b) * a ** (k - 2))
    return worst(res, rel_dev(mu1, true[1]), rel_dev(mu2, true[2]))


@entry(
    _TRK3,
    "markov-trk3-second-gf",
    "L2416-2432",
    _MOM_PAR,
    _MK,
    note="third numerator coefficient is exact; the leading one "
    "needs only its final bracket sign flipped and the middle one "
    "carries further damage",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    a1 = (
        a ** (2 * k) * (1.0 - a) * (1.0 - b) * (p + (b - q) * a)
        + 2.0 * a * a * (2.0 - a - b) ** 2
        - a ** (k + 1)
        * (
            2.0 * p * (1.0 - a) * (2.0 - a - b)
            + 2.0 * k * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
            - (1.0 - b) * (b + a * (5.0 - 3.0 * a - 3.0 * b))
        )
    )
    a2 = (
        -2.0 * a ** (2 * k) * (1.0 - a) * (1.0 - b) * (p + (b - q) * a)
        + ((1.0 - b) * (2.0 * k - 5.0) + 2.0 * p) * a ** (k + 4)
        + a ** (k + 3)
        * (
            (1.0 - b)
            * (5.0 * (1.0 - b) - 4.0 * p - 2.0 * k * (2.0 - b) + 3.0)
            + 2.0 * p * b
        )
        - (2.0 * p + (2.0 * k - 1.0) * (1.0 - b)) * a ** (k + 2)
        + (
            2.0 * p * (2.0 - b)
            + 2.0 * k * (2.0 - b) * (1.0 - b)
            + b * (1.0 - b)
        )
        * a ** (k + 1)
        - 4.0 * a**5
        - 4.0 * a**3 * (2.0 - b) * (2.0 - 2.0 * a - b)
    )
    a3 = (
        a ** (2 * k) * (1.0 - a) * (1.0 - b) * (p + (b - q) * a)
        + 2.0 * a**4 * (2.0 - a - b) ** 2
        - a ** (k + 2)
        * (
            2.0 * p * (1.0 - a) * (2.0 - a - b)
            + 2.0 * k * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
            - (1.0 - b) * (4.0 - 3.0 * b - a * (11.0 - 5.0 * a - 5.0 * b))
        )
    )
    num = Poly((0.0, a1, a2, a3))
    den = (
        a ** (2 * k)
        * (1.0 - a) ** 2
        * (1.0 - b) ** 2
        * Poly((1.0, -3.0, 3.0, -1.0))
    )
    return wseries_dev(
        num, den, lambda r: trk_second(m, k, Scheme.OVERLAPPING, r), 1, RMAX
    )


@entry(
    _TRK3,
    "markov-trk3-second-recursion",
    "L2443-2464",
    _MOM_PAR,
    _MK,
    note="an unclosed bracket in the second value is read as "
    "closing after its final brace; all three values print a minus "
    "before their final bracket token where a plus belongs, and "
    "with that repaired the first two become exact while the third "
    "additionally misprints one run-count factor as a doubled "
    "complement",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    true = moment_row(trk_second, m, k, Scheme.OVERLAPPING, RMAX)
    res = recurrence_residual(true, ((1, 3.0), (2, -3.0), (3, 1.0)), 4)
    scale = a ** (2 * k) * (1.0 - a) ** 2 * (1.0 - b) ** 2
    lead = a ** (2 * k) * (1.0 - a) * (1.0 - b) * (p + (b - q) * a)
    b1 = (
        lead
        + 2.0 * a * a * (2.0 - a - b) ** 2
        - a ** (k + 1)
        * (
            2.0 * p * (1.0 - a) * (2.0 - a - b)
            + 2.0 * k * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
            - (1.0 - b) * (b + a * (5.0 - 3.0 * a - 3.0 * b))
        )
    )
    b2 = (
        lead
        + 2.0 * a * a * (3.0 - 2.0 * a) * (2.0 - a - b) ** 2
        - a ** (k + 1)
        * (
            2.0 * p * (2.0 - a) * (1.0 - a) * (2.0 - a - b)
            + 2.0 * k * (2.0 - a) * (1.0 - a) * (1.0 - b) * (2.0 - a - b)
            - (1.0 - b)
            * (
                a * (2.0 - a) * (7.0 - 5.0 * a)
                + (5.0 * a * a - 9.0 * a + 2.0) * b
            )
        )
    )
    b3 = (
        lead
        + 2.0 * a * a * (a * a - 6.0 * a + 6.0) * (2.0 - a - b) ** 2
        - a ** (k + 1)
        * (
            2.0 * p * (1.0 - a) * (3.0 - 2.0 * a) * (2.0 - a - b)
            + 2.0 * k * (1.0 - a) * (2.0 - 2.0 * a) * (1.0 - b) * (2.0 - a - b)
            - (1.0 - b)
            * (
                10.0 * a**3
                + 10.0 * a * a * b
                - 31.0 * a * a
                - 15.0 * a * b
                + 23.0 * a
                + 3.0 * b
            )
        )
    )
    return worst(
        res,
        rel_dev(b1 / scale, true[1]),
        rel_dev(b2 / scale, true[2]),
        rel_dev(b3 / scale, true[3]),
    )


def _trk_overlapping() -> list[CheckResult]:
    return measure(_TRK3)


# ---------------------------------------------------------------------------
# run counts, non-overlapping counting

_CNT1 = "markov-counts1"


def _counts1_terms(a: float, b: float, k: int):
    g = 1.0 - a - b
    return (
        (1, (a + b,)),
        (2, (g,)),
        (k, (0.0, a**k)),
        (
            k + 1,
            (
                -(a ** (k + 1)) * (1.0 - a) * (1.0 - b),
                a ** (k + 1) * (1.0 - a - b - a * a),
            ),
        ),
        (k + 2, (0.0, -(a**k) * g)),
    )


@entry(
    _CNT1,
    "markov-counts1-double-pgf",
    "L3209-3216",
    _CNT_W_PAR,
    _MKW,
    note="denominator follows the no-new-run kernel but lacks the "
    "horizon-accumulation factor and misprints one renewal exponent "
    "two high; the numerator, constant term included, does not "
    "match the truth either",
)
def _(m, k, w):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    g = 1.0 - a - b
    num = (
        Poly.term(a**k * (1.0 - p * b + (p - a) * w), k + 1)
        + Poly.term(a ** (k - 1) * (p + (a - p) * w), k)
        + Poly((-1.0, -g))
    )
    den = (
        Poly((1.0, -(a + b), -g))
        + Poly.term(-(a**k) * w, k)
        + Poly.term(
            a ** (k + 1) * ((1.0 - a) * (1.0 - b) - w * (1.0 - a - b - a * a)),
            k + 1,
        )
        + Poly.term(w * a**k * g, k + 2)
    )
    truth = counts_double_gf_slice(m, k, Scheme.NON_OVERLAPPING, w)
    return series_dev(RationalGF(num, den), truth, CMAX)


@entry(
    _CNT1,
    "markov-counts1-gn-lemma",
    "L3227-3229",
    _CNT_PAR,
    _MK,
    note="both far-lag renewal coefficients carry the exponent two "
    "high; every other tap is exact",
)
def _(m, k):
    wp = counts_wpolys(m, k, Scheme.NON_OVERLAPPING, CMAX)
    return wpoly_residual(wp, _counts1_terms(m.alpha, m.beta, k), k + 2)


@entry(
    _CNT1,
    "markov-counts1-pmf-recursion",
    "L3249-3251",
    _CNT_PAR,
    _MK,
    note="pointwise restatement of the damaged polynomial relation; "
    "same exponent defect",
)
def _(m, k):
    wp = counts_wpolys(m, k, Scheme.NON_OVERLAPPING, CMAX)
    return wpoly_residual(wp, _counts1_terms(m.alpha, m.beta, k), k + 2)


@entry(_CNT1, "markov-counts1-mean-gf", "L3273", _CNT_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = Poly.term(a ** (k - 1), k) * Poly((1.0, -a)) * Poly((p, q - b))
    den = (
        Poly((1.0, -1.0))
        * Poly((1.0, -1.0))
        * (Poly((1.0,)) - Poly.term(a**k, k))
        * Poly((1.0, 1.0 - a - b))
    )
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_mean_row(m, k, Scheme.NON_OVERLAPPING, CMAX),
    )


@entry(
    _CNT1,
    "markov-counts1-mean-recursion",
    "L3284-3301",
    _CNT_PAR,
    _MK,
    note="relation taps are exact; the third starting value merely "
    "repeats the second where a fresh term belongs",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    taps = (
        (1, 1.0 + a + b),
        (2, 1.0 - 2.0 * a - 2.0 * b),
        (3, -(1.0 - a - b)),
        (k, a**k),
        (k + 1, -(a**k) * (1.0 + a + b)),
        (k + 2, -(a**k) * (1.0 - 2.0 * a - 2.0 * b)),
        (k + 3, a**k * (1.0 - a - b)),
    )
    inits = {
        k: p * a ** (k - 1),
        k + 1: a ** (k - 1) * (1.0 - q * b),
        k + 2: a ** (k - 1) * (1.0 - q * b),
    }
    u = run_taps(inits, taps, k + 3, CMAX)
    return seq_dev(u, counts_mean_row(m, k, Scheme.NON_OVERLAPPING, CMAX))


@entry(
    _CNT1,
    "markov-counts1-second-gf",
    "L3337",
    _CNT_PAR,
    _MK,
    note="heading names the waiting-time variable; body is the count",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    g = 1.0 - a - b
    inner = (
        Poly.term(a**k * g, k + 2)
        + Poly.term(a ** (k - 1) * (a * a + 2.0 * a + 2.0 * b - 2.0 - a * b), k + 1)
        - Poly.term(a**k, k)
        + Poly((-1.0, a + b, g))
    )
    num = (
        Poly.term(a ** (k - 1), k)
        * Poly((-1.0, a))
        * Poly((-p, b - q))
        * inner
    )
    zm1 = Poly((-1.0, 1.0))
    akz = Poly.term(a**k, k) - Poly((1.0,))
    gz = Poly((-1.0, -g))
    den = zm1 * zm1 * zm1 * akz * akz * gz * gz
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_second_row(m, k, Scheme.NON_OVERLAPPING, CMAX),
    )


def _counts_non_overlapping() -> list[CheckResult]:
    return measure(_CNT1)


# ---------------------------------------------------------------------------
# run counts, at-least counting

_CNT2 = "markov-counts2"


@entry(
    _CNT2,
    "markov-counts2-double-pgf",
    "L3384-3393",
    _CNT_W_PAR,
    _MKW,
    note="numerator matches the truth exactly; every denominator "
    "sign is flipped, so the printed fraction is the negative of "
    "the true one",
)
def _(m, k, w):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    num = (
        Poly.term(a**k * (1.0 - w) * (q - b), k + 2)
        + Poly.term(a ** (k - 1) * (1.0 - w) * (p - a + p * a + a * b), k + 1)
        + Poly.term(-p * a ** (k - 1) * (1.0 - w), k)
        + Poly((1.0, -(a + b), a + b - 1.0))
    )
    den = (
        Poly.term(c * (1.0 - w), k + 2)
        + Poly.term(-c * (1.0 - w), k + 1)
        + Poly((-1.0, 1.0 + a + b, 1.0 - 2.0 * a - 2.0 * b, a + b - 1.0))
    )
    truth = counts_double_gf_slice(m, k, Scheme.AT_LEAST, w)
    return series_dev(RationalGF(num, den), truth, CMAX)


@entry(_CNT2, "markov-counts2-gn-lemma", "L3404-3406", _CNT_PAR, _MK)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    wp = counts_wpolys(m, k, Scheme.AT_LEAST, CMAX)
    terms = (
        (1, (1.0 + a + b,)),
        (2, (1.0 - 2.0 * a - 2.0 * b,)),
        (3, (a + b - 1.0,)),
        (k + 1, (-c, c)),
        (k + 2, (c, -c)),
    )
    return wpoly_residual(wp, terms, k + 3)


@entry(
    _CNT2,
    "markov-counts2-pmf-recursion",
    "L3426-3428",
    _CNT_PAR,
    _MK,
    note="final shifted term carries a plus where a minus belongs; "
    "the display also drops its equals sign",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    wp = counts_wpolys(m, k, Scheme.AT_LEAST, CMAX)
    terms = (
        (1, (1.0 + a + b,)),
        (2, (1.0 - 2.0 * a - 2.0 * b,)),
        (3, (a + b - 1.0,)),
        (k + 1, (-c, c)),
        (k + 2, (c, c)),
    )
    return wpoly_residual(wp, terms, k + 3)


@entry(_CNT2, "markov-counts2-mean-gf", "L3450", _CNT_PAR, _MK)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    num = Poly.term(a ** (k - 1), k) * Poly((-1.0, a)) * Poly((-p, b - q))
    zm1 = Poly((-1.0, 1.0))
    gz = Poly((1.0, 1.0 - a - b))
    den = zm1 * zm1 * gz
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_mean_row(m, k, Scheme.AT_LEAST, CMAX),
    )


@entry(
    _CNT2,
    "markov-counts2-second-gf",
    "L3462",
    _CNT_PAR,
    _MK,
    note="two defects in the numerator bracket: its linear block "
    "enters with the wrong sign and one token shows a product "
    "where the transition sum belongs; the heading also names the "
    "waiting-time variable",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    bracket = Poly.term(2.0 * a**k * (1.0 - a) * (1.0 - b), k + 1) + a * (
        Poly((-1.0, 1.0)) * Poly((1.0, 1.0 - a * b))
    )
    num = (
        Poly.term(a ** (k - 2), k)
        * Poly((-1.0, a))
        * Poly((-p, b - q))
        * bracket
    )
    zm1 = Poly((-1.0, 1.0))
    gz = Poly((1.0, 1.0 - a - b))
    den = zm1 * zm1 * zm1 * gz * gz
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_second_row(m, k, Scheme.AT_LEAST, CMAX),
    )


def _counts_at_least() -> list[CheckResult]:
    return measure(_CNT2)


# ---------------------------------------------------------------------------
# run counts, overlapping counting

_CNT3 = "markov-counts3"


@entry(
    _CNT3,
    "markov-counts3-double-pgf",
    "L3514-3530",
    _CNT_W_PAR,
    _MKW,
    note="widespread damage: numerator lacks the order-k renewal "
    "block and carries a spurious order-(k+1) term, while the "
    "denominator flips two low-order signs, drops a factor token "
    "and gains a spurious renewal product",
)
def _(m, k, w):
    a, b = m.alpha, m.beta
    ak1 = a ** (k - 1)
    num = (
        Poly((1.0,))
        + Poly.term(-(1.0 + a + b + w * a), 1)
        + Poly.term(
            -(1.0 - 2.0 * a - w * a - w * a * a - 2.0 * b - w * a * b), 2
        )
        + Poly.term(
            1.0 - a + w * a - 2.0 * w * a * a - b - 2.0 * w * a * b, 3
        )
        + Poly.term(-a * w * (1.0 - a - b), 4)
        + Poly.term(
            ak1 * (1.0 - a + w + w * a - b + a * b + b * w - w * a * b), k + 1
        )
        + Poly.term(
            -ak1 * (1.0 - a + w * a - w - b + a * b - w * a * b + w * b), k + 2
        )
    )
    den = (
        Poly((-1.0,))
        + Poly.term(-(1.0 + a + w * a + b), 1)
        + Poly.term(1.0 - 2.0 * a - w * a - w * a * a - 2.0 * b - w * a * b, 2)
        + Poly.term(1.0 - a + w * a - 2.0 * w * a * a - b - 2.0 * w * a * b, 3)
        + Poly.term(-a * w * (1.0 - a - b), 4)
        + Poly.term(ak1 * (1.0 - a - w + w * a + b + w * b - w * a * b), k + 1)
        + Poly.term(
            -ak1
            * (
                1.0
                - a
                + w * a
                - w
                - b
                + a * b
                - w * a * b
                + 2.0 * w * a * a * b
                + w * b
            ),
            k + 2,
        )
    )
    truth = counts_double_gf_slice(m, k, Scheme.OVERLAPPING, w)
    return series_dev(RationalGF(num, den), truth, CMAX)


@entry(
    _CNT3,
    "markov-counts3-gn-lemma",
    "L3540-3544",
    _CNT_PAR,
    _MK,
    note="two defects: the unshifted far-lag coefficient drops a "
    "product token from the renewal weight, and the farthest "
    "shifted coefficient gains a spurious term; the display also "
    "lists its terms in reversed order with trailing commas",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    g = 1.0 - a - b
    wp = counts_wpolys(m, k, Scheme.OVERLAPPING, CMAX)
    terms = (
        (1, (1.0 + a + b, a)),
        (2, (1.0 - 2.0 * a - 2.0 * b, -a * (1.0 + a + b))),
        (3, (-g, -a * (1.0 - 2.0 * a - 2.0 * b))),
        (4, (0.0, a * g)),
        (k + 1, (-(a ** (k - 1)) * (1.0 - a - b), c)),
        (k + 2, (c, -c + 2.0 * a * a * b * a ** (k - 1))),
    )
    return wpoly_residual(wp, terms, k + 3)


@entry(
    _CNT3,
    "markov-counts3-pmf-recursion",
    "L3563-3568",
    _CNT_PAR,
    _MK,
    note="three defects: one shifted coefficient keeps a stray "
    "minus one inside its bracket, the unshifted far-lag weight "
    "misprints the renewal token, and the farthest shifted "
    "coefficient gains a spurious term",
)
def _(m, k):
    a, b = m.alpha, m.beta
    c = a ** (k - 1) * (1.0 - a) * (1.0 - b)
    wp = counts_wpolys(m, k, Scheme.OVERLAPPING, CMAX)
    terms = (
        (1, (a + b + 1.0, a)),
        (2, (1.0 - 2.0 * a - 2.0 * b, -a * (1.0 + a + b - 1.0))),
        (3, (-(1.0 - a - b), -a * (1.0 - 2.0 * a - 2.0 * b))),
        (4, (0.0, a * (1.0 - a - b))),
        (k + 1, (-(a ** (k - 1)) * (1.0 - a + b), c)),
        (k + 2, (c, a ** (k - 1) * (a - 1.0 - a * b + 2.0 * a * a * b + b))),
    )
    return wpoly_residual(wp, terms, k + 3)


@entry(
    _CNT3,
    "markov-counts3-second-gf",
    "L3602",
    _CNT_PAR,
    _MK,
    note="one numerator token shows a product where the transition "
    "sum belongs; the heading also names the waiting-time variable",
)
def _(m, k):
    p, q, a, b = m.p1, m.q1, m.alpha, m.beta
    bracket = Poly.term(2.0 * a**k * (1.0 - a) * (1.0 - b), k + 1) + a * (
        Poly((-1.0, 1.0)) * Poly((1.0, a)) * Poly((-1.0, a * b - 1.0))
    )
    num = Poly.term(a ** (k - 2), k) * Poly((p, q - b)) * bracket
    zm1 = Poly((-1.0, 1.0))
    gz = Poly((1.0, 1.0 - a - b))
    den = zm1 * zm1 * zm1 * Poly((-1.0, a)) * gz * gz
    return seq_dev(
        RationalGF(num, den).series(CMAX),
        counts_second_row(m, k, Scheme.OVERLAPPING, CMAX),
    )


def _counts_overlapping() -> list[CheckResult]:
    return measure(_CNT3) + [
        not_transcribed(
            "markov-counts3-mean-gf",
            "L3590",
            _CNT_PAR,
            note="display references an undefined leading coefficient, so "
            "no faithful transcription exists; its visible parts also "
            "misprint one numerator sign, while the denominator polynomial "
            "matches the negated product of the horizon and background "
            "factors once the cancelled success factor is removed",
        )
    ]


CATALOG = (
    _vk_recursions,
    _vk_closed_forms,
    _longest_run,
    _factors,
    _trk_non_overlapping,
    _trk_at_least,
    _trk_overlapping,
    _counts_non_overlapping,
    _counts_at_least,
    _counts_overlapping,
)
