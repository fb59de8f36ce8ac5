"""Verification catalog for printed closed forms of run-statistic laws.

The source literature for these distributions prints a large catalog of
closed forms: pgfs, double generating functions, pmf and tail recursions,
moment generating functions and initial-condition tables.  Some of them are
damaged in print (sign slips, copied subscripts, stray factors).  This
module transcribes each printed form exactly as it appears and compares it
against the package's compositional engine, which is itself validated
against the exhaustive enumeration oracle.  Nothing in the computation
modules ever evaluates a transcribed form; entries live here purely as a
record of which printed forms are trustworthy.

Statuses:

* ``CONFIRMED`` — the transcription agrees with the engine within 1e-8
  at every sweep point;
* ``ERRATUM`` — it deviates beyond that somewhere; the note pins down the
  defect and, where recovered, the minimal repair;
* ``NOT_TRANSCRIBED`` — the printed form references symbols that are never
  defined, so there is nothing to evaluate.

An entry is declared by decorating a function that measures the printed
form at one sweep point::

    @entry(GROUP, "iid-vk-pgf-k2", "L410", "p in {...}; v <= 60", P_POINTS)
    def _(p):
        return seq_dev(printed_series(p), vk_row(IID(p), 2, 60))

``entry`` records the id, anchor, parameter description, sweep and note;
``measure(GROUP)`` is the only place that walks a sweep, takes the worst
deviation over its points and turns it into a ``CheckResult``.  Each catalog
module exposes one zero-argument function per group, listed in its
``CATALOG`` tuple.

``run_all`` executes the whole catalog, ``write_ledger`` persists it as
newline-delimited JSON, and ``EXPECTED_STATUS`` pins the reviewed status of
every entry so any drift (an engine regression, or a transcription edit)
fails loudly in the test suite and in the command-line ``check`` verb.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometric import _longest_laws
from .models import ConsistencyError, Pmf, TrialModel
from .polyseries import Moments, Poly, RationalGF
from .rth_waiting import (
    Scheme,
    _check_mass,
    _compose_moments,
    _rth_rows,
    occurrence_factors,
)

CONFIRMED = "CONFIRMED"
ERRATUM = "ERRATUM"
NOT_TRANSCRIBED = "NOT_TRANSCRIBED"

#: Agreement tolerance separating CONFIRMED from ERRATUM.  Generous against
#: float noise (engine quantities are exact rational-series arithmetic) yet
#: far below any genuine transcription defect, which shows up at O(1).
TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    """Outcome of verifying one printed formula against the engine."""

    formula_id: str
    anchor: str
    status: str
    max_deviation: float | None
    parameters: str
    note: str = ""


def finding(
    formula_id: str,
    anchor: str,
    deviation: float,
    parameters: str,
    note: str = "",
) -> CheckResult:
    """Build a CheckResult, deciding CONFIRMED vs ERRATUM on TOL."""
    status = CONFIRMED if deviation <= TOL else ERRATUM
    return CheckResult(
        formula_id=formula_id,
        anchor=anchor,
        status=status,
        max_deviation=float(deviation),
        parameters=parameters,
        note=note,
    )


def not_transcribed(
    formula_id: str, anchor: str, parameters: str, note: str
) -> CheckResult:
    return CheckResult(
        formula_id=formula_id,
        anchor=anchor,
        status=NOT_TRANSCRIBED,
        max_deviation=None,
        parameters=parameters,
        note=note,
    )


@dataclass(frozen=True)
class Entry:
    """One printed form: its record fields and how to measure it.

    ``deviation(*point)`` is the disagreement at one point of ``sweep``.
    """

    formula_id: str
    anchor: str
    parameters: str
    sweep: tuple[tuple, ...]
    deviation: Callable[..., float]
    note: str = ""


#: Entries by group, in declaration order.  Filled once, as the catalog
#: modules are imported.
_GROUPS: dict[str, list[Entry]] = {}


def entry(
    group: str,
    formula_id: str,
    anchor: str,
    parameters: str,
    sweep: Iterable[tuple],
    note: str = "",
) -> Callable[[Callable[..., float]], Callable[..., float]]:
    """Register the decorated deviation function as an entry of ``group``.

    An empty sweep is refused: it would measure nothing and still read as
    CONFIRMED.
    """
    points = tuple(sweep)
    if not points:
        raise ValueError(f"{formula_id}: empty sweep")

    def register(fn: Callable[..., float]) -> Callable[..., float]:
        record = Entry(formula_id, anchor, parameters, points, fn, note)
        _GROUPS.setdefault(group, []).append(record)
        return fn

    return register


def measure(group: str) -> list[CheckResult]:
    """Every entry of ``group``, judged on its worst deviation over its sweep.

    A deviation that is not a finite number >= 0 (a NaN from a kernel, an
    overflow) measures nothing, so it raises ConsistencyError naming the
    entry and the sweep point rather than reading as agreement.
    """
    out = []
    for rec in _GROUPS[group]:
        dev = 0.0
        for point in rec.sweep:
            here = rec.deviation(*point)
            if not 0.0 <= here < math.inf:
                raise ConsistencyError(
                    f"{rec.formula_id}: deviation {here!r} at sweep point "
                    f"{point!r} is not a finite number >= 0"
                )
            dev = max(dev, here)
        out.append(finding(rec.formula_id, rec.anchor, dev, rec.parameters, rec.note))
    return out


# ---------------------------------------------------------------------------
# comparison helpers


def seq_dev(a: Sequence[float], b: Sequence[float]) -> float:
    """Max absolute elementwise gap between two equal-length sequences."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch {av.shape} vs {bv.shape}")
    if av.size == 0:
        return 0.0
    return float(np.max(np.abs(av - bv)))


def series_dev(printed: RationalGF, truth: RationalGF, nmax: int) -> float:
    """Max gap between the first nmax+1 series coefficients of two gfs."""
    return seq_dev(printed.series(nmax), truth.series(nmax))


def pad_dev(a: Sequence[float], b: Sequence[float]) -> float:
    """Max absolute gap between two sequences, zero-padded to equal length."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    width = max(av.size, bv.size)
    pa = np.zeros(width)
    pb = np.zeros(width)
    pa[: av.size] = av
    pb[: bv.size] = bv
    if width == 0:
        return 0.0
    return float(np.max(np.abs(pa - pb)))


def worst(*gaps: float) -> float:
    """The largest of some gaps; NaN if any of them is NaN.

    Python's ``max`` keeps its first argument when a comparison with a NaN
    is false, so it drops a NaN that is not first and a poisoned table would
    read as agreement.
    """
    if any(math.isnan(gap) for gap in gaps):
        return math.nan
    return max(gaps)


def rel_dev(printed: float, truth: float) -> float:
    """Deviation normalized by max(1, |truth|), for moment-scale values."""
    return abs(printed - truth) / max(1.0, abs(truth))


def slice_dev(
    series: Sequence[float], slices: Sequence[np.ndarray], k: int
) -> float:
    """Max gap of series[n] from P(longest run in n trials = k), over n.

    A NaN gap makes the result NaN.
    """
    return float(
        np.max(
            [
                abs(series[n] - (slices[n][k] if k <= n else 0.0))
                for n in range(len(series))
            ]
        )
    )


def _lagged_sum(
    table: np.ndarray, terms: Iterable[tuple], lows: tuple[int, ...]
) -> np.ndarray:
    """sum coeff * table[i - lags] over the window table[lows:], as an array.

    Each term is (lag per axis..., coeff).  The accumulator starts at 0.0
    and takes the terms in order, each as one whole-window product added
    where every lagged index is at least zero; elsewhere the term adds
    nothing.  Every window entry thus sees the same additions in the same
    order as a per-entry loop over the terms would make.
    """
    acc = np.zeros(tuple(size - lo for size, lo in zip(table.shape, lows)))
    for *lags, coeff in terms:
        starts = [max(lo, lag) for lo, lag in zip(lows, lags)]
        if any(start >= size for start, size in zip(starts, table.shape)):
            continue  # the lag reaches past the window's far edge
        dst = tuple(slice(start - lo, None) for start, lo in zip(starts, lows))
        src = tuple(
            slice(start - lag, size - lag)
            for start, lag, size in zip(starts, lags, table.shape)
        )
        acc[dst] += coeff * table[src]
    return acc


def recurrence_residual(
    row: Sequence[float],
    taps: Sequence[tuple[int, float]],
    n_lo: int,
) -> float:
    """Worst residual of u[n] = sum coeff*u[n-lag] over n >= n_lo.

    Indices below zero contribute nothing.  Unlike :func:`drive_sequence`
    this never propagates the relation; it probes whether an independently
    computed sequence satisfies it.  Residuals are normalized by
    max(1, |u[n]|) so probability rows are judged absolutely and moment
    rows relative to their scale.  Each sum adds the taps in their given
    order (see :func:`_lagged_sum`); a NaN anywhere in the window makes the
    result NaN.
    """
    u = np.asarray(row, dtype=np.float64)
    truth = u[n_lo:]
    if not truth.size:
        return 0.0
    acc = _lagged_sum(u, taps, (n_lo,))
    return float(np.max(np.abs(acc - truth) / np.maximum(1.0, np.abs(truth))))


def run_taps(
    inits: dict[int, float],
    taps: Sequence[tuple[int, float]],
    start: int,
    nmax: int,
) -> np.ndarray:
    """Impose printed initial values, then run a printed linear relation.

    Values before `start` stay exactly as given (zero where unlisted);
    from `start` on, u[n] = sum coeff*u[n-lag], summed in tap order.
    Duplicate lags accumulate.  The relation runs on Python floats, which
    round each operation as float64 does.
    """
    u = [0.0] * (nmax + 1)
    for n, val in inits.items():
        u[n] = float(val)
    taps = [(lag, float(coeff)) for lag, coeff in taps]
    for n in range(start, nmax + 1):
        acc = 0.0
        for lag, coeff in taps:
            if n - lag >= 0:
                acc += coeff * u[n - lag]
        u[n] = acc
    return np.array(u)


def diff_terms(dr: int, far: int, coeff: float) -> list[tuple[int, int, float]]:
    """residual_2d terms for coeff * (x_{r-dr}(n-far) - x_{r-dr}(n-far+1))."""
    return [(dr, far, coeff), (dr, far - 1, -coeff)]


def drive_sequence(
    taps: Sequence[tuple[int, float]],
    source: Callable[[int], float],
    nmax: int,
) -> np.ndarray:
    """Run u[n] = sum_taps coeff*u[n-lag] + source(n) with u[n<0] = 0.

    Each u[n] starts from source(n) and adds the nonzero taps in order, on
    Python floats.
    """
    taps = [(lag, float(coeff)) for lag, coeff in taps if coeff != 0.0]
    u = [0.0] * (nmax + 1)
    for n in range(nmax + 1):
        acc = float(source(n))
        for lag, coeff in taps:
            if n - lag >= 0:
                acc += coeff * u[n - lag]
        u[n] = acc
    return np.array(u)


def residual_2d(
    table: np.ndarray,
    terms: Sequence[tuple[int, int, float]],
    r_lo: int,
    n_lo: int,
) -> float:
    """Worst residual of h[r][n] = sum coeff*h[r-dr][n-dn] over a window.

    ``table`` is indexed [r][n]; terms are (dr, dn, coeff).  The window runs
    from (r_lo, n_lo) to the table's upper-right corner; indices that would
    fall below row zero or column zero contribute nothing (the sequences are
    zero there).  Each sum adds the terms in their given order (see
    :func:`_lagged_sum`); a NaN anywhere in the window makes the result NaN.
    """
    window = table[r_lo:, n_lo:]
    if not window.size:
        return 0.0
    acc = _lagged_sum(table, terms, (r_lo, n_lo))
    return float(np.max(np.abs(window - acc)))


def wpoly_residual(
    polys: Sequence[np.ndarray],
    terms: Sequence[tuple[int, Sequence[float]]],
    n_lo: int,
) -> float:
    """Worst residual of G_n(w) = sum c_j(w) G_{n-j}(w) in coefficient space.

    ``polys[n]`` holds the ascending w-coefficients of G_n; each term is
    (lag, w-coefficients of c_j).  The G_n are the rows of one zero-padded
    table wide enough for every product.  Each term's product c_j G_{n-j}
    is the sum over i of c_j[i] times the rows j back, shifted i places up
    in w, taken in descending i, the order of np.convolve's dot products
    when c_j is the shorter factor; the products are then subtracted from
    G_n in term order.  A dot product that fuses its multiply-adds rounds
    differently, so this agrees with a per-row np.convolve to the last
    digit or two, not bit for bit.  A NaN in the window makes the result
    NaN.
    """
    if n_lo >= len(polys):
        return 0.0
    width = max(map(len, polys)) + max((len(c) - 1 for _, c in terms), default=0)
    table = np.zeros((len(polys), width))
    for n, poly in enumerate(polys):
        table[n, : len(poly)] = poly
    acc = table[n_lo:].copy()
    for lag, c in terms:
        shifts = [(lag, i, c[i]) for i in reversed(range(len(c)))]
        acc -= _lagged_sum(table, shifts, (n_lo, 0))
    return float(np.max(np.abs(acc))) if acc.size else 0.0


# ---------------------------------------------------------------------------
# cached engine reference tables


@lru_cache(maxsize=None)
def vk_row(model: TrialModel, k: int, vmax: int) -> np.ndarray:
    """P(V(k)=v) for v = 0..vmax from the engine recursion."""
    from .geometric import vk_pmf

    pm = vk_pmf(model, k, vmax=vmax)
    row = np.zeros(vmax + 1)
    row[pm.offset : pm.offset + len(pm.probs)] = pm.probs
    return row


@lru_cache(maxsize=None)
def vk_series(model: TrialModel, k: int, vmax: int) -> np.ndarray:
    """P(V(k)=v) for v = 0..vmax via the engine's rational-pgf route.

    Deliberately a different route from :func:`vk_row` so recursion-style
    printed forms are judged against series arithmetic and pgf-style printed
    forms against the recursion, never against their own family.
    """
    from .geometric import vk_pgf

    return np.array(vk_pgf(model, k).series(vmax))


@lru_cache(maxsize=None)
def longest_rows(model: TrialModel, nmax: int) -> tuple[np.ndarray, ...]:
    """P(longest success run in n trials = j) for j = 0..n, n = 0..nmax."""
    return tuple(pm.probs for pm in _longest_laws(model, range(nmax + 1)))


#: The first- and inter-occurrence factors H and A, built once per
#: (model, k, scheme) for every table, slice and moment that reads them.
factors = lru_cache(maxsize=None)(occurrence_factors)


@lru_cache(maxsize=None)
def trk_rows(
    model: TrialModel, k: int, scheme: Scheme, rmax: int, nmax: int
) -> np.ndarray:
    """h[r][n] = P(T_{r,k} = n) for r = 0..rmax; row zero is the delta at 0.

    Row r is the law trk_pmf(model, k, r, scheme, nmax) gives, read off the
    checked table :func:`_rth_rows` builds at the one horizon nmax, so the
    first row trk_pmf refuses fails with its error.
    """
    table = np.zeros((rmax + 1, nmax + 1))
    table[0, 0] = 1.0
    h, a = factors(model, k, scheme)
    offsets, probs, _ = _rth_rows(h, a, k, scheme, rmax, range(nmax, nmax + 1))
    table[1 : len(offsets) + 1] = probs
    return table


@lru_cache(maxsize=None)
def trk_tail_rows(
    model: TrialModel, k: int, scheme: Scheme, rmax: int, nmax: int
) -> np.ndarray:
    """tail[r][n] = P(T_{r,k} > n); row zero is identically zero."""
    rows = trk_rows(model, k, scheme, rmax, nmax)
    return 1.0 - np.cumsum(rows, axis=1)


@lru_cache(maxsize=None)
def double_gf_slice(
    model: TrialModel, k: int, scheme: Scheme, w: float
) -> RationalGF:
    """The exact double generating function sum_r H_r(z) w^r at fixed w.

    Includes the r = 0 term (constant 1), matching
    1 + w*H(z) / (1 - w*A(z)) assembled by polynomial arithmetic.
    """
    h, a = factors(model, k, scheme)
    num = h.den * a.den + Poly((w,)) * (h.num * a.den - h.den * a.num)
    den = h.den * (a.den - Poly((w,)) * a.num)
    return RationalGF(num, den)


@lru_cache(maxsize=None)
def counts_double_gf_slice(
    model: TrialModel, k: int, scheme: Scheme, w: float
) -> RationalGF:
    """sum_n G_n(w) z^n at fixed w, where G_n(w) = sum_x P(N_n = x) w^x.

    From the factors H and A, the joint count gf [1 - H(1-w)/(1 - wA)] / (1-z)
    is (U0 + w U1) / (V0 + w V1): w enters linearly, so the slice at w is
    two polynomial sums.
    """
    h, a = factors(model, k, scheme)
    one_minus_z = Poly((1.0, -1.0))
    u0 = (h.den - h.num) * a.den
    u1 = h.num * a.den - h.den * a.num
    v0 = one_minus_z * h.den * a.den
    v1 = -1.0 * (one_minus_z * h.den * a.num)
    return RationalGF(u0 + Poly((w,)) * u1, v0 + Poly((w,)) * v1)


@lru_cache(maxsize=None)
def counts_rows(
    model: TrialModel, k: int, scheme: Scheme, nmax: int
) -> tuple[Pmf, ...]:
    """Run-count distributions N_0..N_nmax via waiting-time inversion."""
    from .run_counts import _count_laws

    h, a = factors(model, k, scheme)
    return tuple(_count_laws(h, a, k, scheme, range(nmax + 1)))


@lru_cache(maxsize=None)
def counts_wpolys(
    model: TrialModel, k: int, scheme: Scheme, nmax: int
) -> tuple[np.ndarray, ...]:
    """Ascending w-coefficient arrays of G_n(w) for n = 0..nmax."""
    return tuple(pm.probs.copy() for pm in counts_rows(model, k, scheme, nmax))


@lru_cache(maxsize=None)
def counts_mean_row(
    model: TrialModel, k: int, scheme: Scheme, nmax: int
) -> np.ndarray:
    """E[N_n] for n = 0..nmax."""
    return np.array([pm.mean() for pm in counts_rows(model, k, scheme, nmax)])


@lru_cache(maxsize=None)
def counts_second_row(
    model: TrialModel, k: int, scheme: Scheme, nmax: int
) -> np.ndarray:
    """E[N_n^2] for n = 0..nmax."""
    return np.array(
        [pm.second_moment() for pm in counts_rows(model, k, scheme, nmax)]
    )


@lru_cache(maxsize=None)
def _factor_moments(
    model: TrialModel, k: int, scheme: Scheme
) -> tuple[Moments, Moments]:
    """Moments at z = 1 of the H and A factors, after their mass check."""
    h, a = factors(model, k, scheme)
    _check_mass(h, a, k, scheme)
    return h.moments_at_one(), a.moments_at_one()


@lru_cache(maxsize=None)
def trk_mean(model: TrialModel, k: int, scheme: Scheme, r: int) -> float:
    """E[T_{r,k}], as trk_moments composes it."""
    return _compose_moments(*_factor_moments(model, k, scheme), r).mean


@lru_cache(maxsize=None)
def trk_second(model: TrialModel, k: int, scheme: Scheme, r: int) -> float:
    """E[T_{r,k}^2], as trk_moments composes it."""
    return _compose_moments(*_factor_moments(model, k, scheme), r).second_moment


def moment_row(
    moment: Callable[[TrialModel, int, Scheme, int], float],
    model: TrialModel,
    k: int,
    scheme: Scheme,
    rmax: int,
) -> np.ndarray:
    """[0, moment(r = 1), ..., moment(r = rmax)] for trk_mean or trk_second."""
    return np.array(
        [0.0] + [moment(model, k, scheme, r) for r in range(1, rmax + 1)]
    )


def wseries_dev(
    printed_num: Poly,
    printed_den: Poly,
    truth: Callable[[int], float],
    r_lo: int,
    r_hi: int,
) -> float:
    """Compare a printed generating function in w against engine values.

    Expands printed_num/printed_den to order r_hi and compares coefficient
    r against truth(r) for r in [r_lo, r_hi].  Deviations are relative
    (normalized by max(1, |truth|)): the targets are moments, which grow
    far past unit scale.
    """
    coeffs = RationalGF(printed_num, printed_den).series(r_hi)
    return float(
        np.max([rel_dev(coeffs[r], truth(r)) for r in range(r_lo, r_hi + 1)])
    )


# ---------------------------------------------------------------------------
# catalog execution

CatalogFn = Callable[[], list[CheckResult]]


def _catalog_functions() -> list[CatalogFn]:
    from . import checks_iid, checks_markov

    return list(checks_iid.CATALOG) + list(checks_markov.CATALOG)


def run_all() -> list[CheckResult]:
    """Execute every catalog entry; results sorted by formula id."""
    results: list[CheckResult] = []
    for fn in _catalog_functions():
        results.extend(fn())
    results.sort(key=lambda r: r.formula_id)
    ids = [r.formula_id for r in results]
    dupes = {i for i in ids if ids.count(i) > 1}
    if dupes:
        raise RuntimeError(f"duplicate formula ids in catalog: {sorted(dupes)}")
    return results


def diff_expected(
    results: Iterable[CheckResult], expected: dict[str, str] | None = None
) -> list[tuple[str, str, str]]:
    """(formula_id, expected, observed) triples wherever status drifted.

    Also reports catalog entries missing from the expected table (default
    EXPECTED_STATUS) and expected ids the run never produced, so the pinned
    table cannot rot silently.
    """
    table = EXPECTED_STATUS if expected is None else expected
    out: list[tuple[str, str, str]] = []
    seen = {}
    for res in results:
        seen[res.formula_id] = res.status
        want = table.get(res.formula_id)
        if want is None:
            out.append((res.formula_id, "<unlisted>", res.status))
        elif want != res.status:
            out.append((res.formula_id, want, res.status))
    for fid in table:
        if fid not in seen:
            out.append((fid, table[fid], "<missing>"))
    return out


def write_ledger(results: Iterable[CheckResult], path) -> None:
    """Persist results as newline-delimited JSON, sorted by formula id."""
    lines = []
    for res in sorted(results, key=lambda r: r.formula_id):
        record = {
            "formula_id": res.formula_id,
            "anchor": res.anchor,
            "status": res.status,
            "max_deviation": res.max_deviation,
            "parameters": res.parameters,
            "note": res.note,
        }
        lines.append(json.dumps(record, allow_nan=False, sort_keys=True))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


#: Reviewed status of every catalog entry.  Pinned from a verified run of the
#: full catalog; ``diff_expected`` treats any mismatch, missing id, or
#: unlisted id as a failure.  Populated at the bottom of this module so the
#: catalog functions above stay the single source of the entries themselves.
EXPECTED_STATUS: dict[str, str] = {
    "fib-binet-k2": "CONFIRMED",
    "fib-dresden": "CONFIRMED",
    "fib-spickerman": "CONFIRMED",
    "iid-counts1-double-pgf": "CONFIRMED",
    "iid-counts1-gn-lemma": "CONFIRMED",
    "iid-counts1-mean-gf": "CONFIRMED",
    "iid-counts1-mean-recursion": "CONFIRMED",
    "iid-counts1-pmf-recursion": "CONFIRMED",
    "iid-counts1-second-gf": "CONFIRMED",
    "iid-counts1-second-recursion-inits": "ERRATUM",
    "iid-counts1-second-recursion-relation": "CONFIRMED",
    "iid-counts2-double-pgf": "CONFIRMED",
    "iid-counts2-gn-lemma": "CONFIRMED",
    "iid-counts2-mean-gf": "CONFIRMED",
    "iid-counts2-mean-recursion": "CONFIRMED",
    "iid-counts2-pmf-recursion": "CONFIRMED",
    "iid-counts2-second-gf": "CONFIRMED",
    "iid-counts2-second-recursion": "CONFIRMED",
    "iid-counts3-double-pgf": "CONFIRMED",
    "iid-counts3-gn-lemma": "CONFIRMED",
    "iid-counts3-mean-gf": "CONFIRMED",
    "iid-counts3-mean-recursion": "CONFIRMED",
    "iid-counts3-pmf-recursion": "CONFIRMED",
    "iid-counts3-second-gf": "ERRATUM",
    "iid-counts3-second-recursion": "ERRATUM",
    "iid-trk1-double-pgf": "CONFIRMED",
    "iid-trk1-mean-gf": "ERRATUM",
    "iid-trk1-mean-recursion": "ERRATUM",
    "iid-trk1-pgf-power": "CONFIRMED",
    "iid-trk1-pmf-recursion": "ERRATUM",
    "iid-trk1-second-gf": "CONFIRMED",
    "iid-trk1-second-recursion": "ERRATUM",
    "iid-trk1-step": "CONFIRMED",
    "iid-trk1-tail-recursion": "ERRATUM",
    "iid-trk2-double-pgf": "CONFIRMED",
    "iid-trk2-mean-gf": "CONFIRMED",
    "iid-trk2-mean-recursion": "CONFIRMED",
    "iid-trk2-pgf-closedform": "CONFIRMED",
    "iid-trk2-pmf-recursion": "CONFIRMED",
    "iid-trk2-second-gf": "CONFIRMED",
    "iid-trk2-second-recursion": "CONFIRMED",
    "iid-trk2-step": "CONFIRMED",
    "iid-trk2-tail-recursion": "ERRATUM",
    "iid-trk3-double-pgf": "CONFIRMED",
    "iid-trk3-mean-gf": "CONFIRMED",
    "iid-trk3-mean-recursion": "CONFIRMED",
    "iid-trk3-pgf-closedform": "CONFIRMED",
    "iid-trk3-pmf-recursion": "CONFIRMED",
    "iid-trk3-second-gf": "CONFIRMED",
    "iid-trk3-second-recursion": "CONFIRMED",
    "iid-trk3-step": "CONFIRMED",
    "iid-trk3-tail-recursion": "ERRATUM",
    "iid-vk-closedform-k2": "ERRATUM",
    "iid-vk-corollary-k2": "CONFIRMED",
    "iid-vk-corollary-k3": "CONFIRMED",
    "iid-vk-fib-half": "CONFIRMED",
    "iid-vk-pdf-general": "CONFIRMED",
    "iid-vk-pdf-k2": "CONFIRMED",
    "iid-vk-pdf-k3": "CONFIRMED",
    "iid-vk-pgf-general": "CONFIRMED",
    "iid-vk-pgf-k2": "CONFIRMED",
    "iid-vk-pgf-k3": "CONFIRMED",
    "iid-vk-recursion-depth1": "CONFIRMED",
    "iid-vk-recursion-depthk": "CONFIRMED",
    "longest-duality-identities": "CONFIRMED",
    "longest-gf-construction": "CONFIRMED",
    "longest-iid-gf-closedform": "ERRATUM",
    "longest-iid-recursion": "ERRATUM",
    "markov-counts1-double-pgf": "ERRATUM",
    "markov-counts1-gn-lemma": "ERRATUM",
    "markov-counts1-mean-gf": "CONFIRMED",
    "markov-counts1-mean-recursion": "ERRATUM",
    "markov-counts1-pmf-recursion": "ERRATUM",
    "markov-counts1-second-gf": "CONFIRMED",
    "markov-counts2-double-pgf": "ERRATUM",
    "markov-counts2-gn-lemma": "CONFIRMED",
    "markov-counts2-mean-gf": "CONFIRMED",
    "markov-counts2-pmf-recursion": "ERRATUM",
    "markov-counts2-second-gf": "ERRATUM",
    "markov-counts3-double-pgf": "ERRATUM",
    "markov-counts3-gn-lemma": "ERRATUM",
    "markov-counts3-mean-gf": "NOT_TRANSCRIBED",
    "markov-counts3-pmf-recursion": "ERRATUM",
    "markov-counts3-second-gf": "ERRATUM",
    "markov-factors-a1": "CONFIRMED",
    "markov-factors-a2": "CONFIRMED",
    "markov-factors-a3": "CONFIRMED",
    "markov-factors-h": "CONFIRMED",
    "markov-longest-gf-closedform": "ERRATUM",
    "markov-longest-recursion": "ERRATUM",
    "markov-trk1-double-pgf": "CONFIRMED",
    "markov-trk1-mean-gf": "CONFIRMED",
    "markov-trk1-mean-recursion": "CONFIRMED",
    "markov-trk1-pmf-inits": "CONFIRMED",
    "markov-trk1-pmf-recursion": "ERRATUM",
    "markov-trk1-second-gf": "ERRATUM",
    "markov-trk1-second-recursion": "ERRATUM",
    "markov-trk1-step-first": "CONFIRMED",
    "markov-trk1-step-ratio": "ERRATUM",
    "markov-trk1-tail-recursion": "ERRATUM",
    "markov-trk2-double-pgf": "CONFIRMED",
    "markov-trk2-mean-gf": "ERRATUM",
    "markov-trk2-mean-recursion": "ERRATUM",
    "markov-trk2-pmf-inits": "ERRATUM",
    "markov-trk2-pmf-recursion": "ERRATUM",
    "markov-trk2-second-gf": "ERRATUM",
    "markov-trk2-second-recursion": "ERRATUM",
    "markov-trk2-step-first": "ERRATUM",
    "markov-trk2-step-ratio": "CONFIRMED",
    "markov-trk2-tail-recursion": "ERRATUM",
    "markov-trk3-double-pgf": "ERRATUM",
    "markov-trk3-mean-gf": "ERRATUM",
    "markov-trk3-mean-recursion": "ERRATUM",
    "markov-trk3-pmf-inits": "ERRATUM",
    "markov-trk3-pmf-recursion": "CONFIRMED",
    "markov-trk3-second-gf": "ERRATUM",
    "markov-trk3-second-recursion": "ERRATUM",
    "markov-trk3-step-first": "ERRATUM",
    "markov-trk3-step-ratio": "CONFIRMED",
    "markov-trk3-tail-recursion": "ERRATUM",
    "markov-vk-closedform-k2": "ERRATUM",
    "markov-vk-corollary-3term-inits": "CONFIRMED",
    "markov-vk-corollary-3term-recursion": "ERRATUM",
    "markov-vk-corollary-k2": "ERRATUM",
    "markov-vk-corollary-k3": "CONFIRMED",
    "markov-vk-pdf-general": "CONFIRMED",
    "markov-vk-pdf-k2": "CONFIRMED",
    "markov-vk-pdf-k3": "CONFIRMED",
    "markov-vk-pgf-general": "CONFIRMED",
    "markov-vk-pgf-general-factored": "ERRATUM",
    "markov-vk-pgf-k2": "CONFIRMED",
    "markov-vk-pgf-k3": "CONFIRMED",
    "markov-vk-remark-depthk": "CONFIRMED",
    "markov-vk-stationary-table": "CONFIRMED",
}
