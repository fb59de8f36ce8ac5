"""The self-audit's array kernels against the per-element loops they replace.

Each ``_loop_*`` function below is the earlier scalar form of a kernel,
kept verbatim as the reference.  The array forms keep the loops' order of
additions, so they must agree bit for bit; the one exception is
``wpoly_residual``, whose reference sums through np.convolve.
"""

import math

import numpy as np
import pytest

from successruns import checks, oracle
from successruns.checks import (
    drive_sequence,
    entry,
    measure,
    recurrence_residual,
    residual_2d,
    run_taps,
    wpoly_residual,
)
from successruns.models import ConsistencyError, IID, Markov, TrialModel


def _loop_rel_dev(printed, truth):
    return abs(printed - truth) / max(1.0, abs(truth))


def _loop_recurrence_residual(row, taps, n_lo):
    u = np.asarray(row, dtype=np.float64)
    worst = 0.0
    for n in range(n_lo, u.size):
        acc = 0.0
        for lag, coeff in taps:
            if n - lag >= 0:
                acc += coeff * u[n - lag]
        worst = max(worst, _loop_rel_dev(acc, u[n]))
    return worst


def _loop_run_taps(inits, taps, start, nmax):
    u = np.zeros(nmax + 1)
    for n, val in inits.items():
        u[n] = val
    for n in range(start, nmax + 1):
        acc = 0.0
        for lag, coeff in taps:
            if n - lag >= 0:
                acc += coeff * u[n - lag]
        u[n] = acc
    return u


def _loop_drive_sequence(taps, source, nmax):
    u = np.zeros(nmax + 1)
    for n in range(nmax + 1):
        acc = source(n)
        for lag, coeff in taps:
            if coeff != 0.0 and n - lag >= 0:
                acc += coeff * u[n - lag]
        u[n] = acc
    return u


def _loop_residual_2d(table, terms, r_lo, n_lo):
    rmax = table.shape[0] - 1
    nmax = table.shape[1] - 1
    worst = 0.0
    for r in range(r_lo, rmax + 1):
        for n in range(n_lo, nmax + 1):
            acc = 0.0
            for dr, dn, coeff in terms:
                rr, nn = r - dr, n - dn
                if rr >= 0 and nn >= 0:
                    acc += coeff * table[rr, nn]
            worst = max(worst, abs(table[r, n] - acc))
    return worst


def _loop_wpoly_residual(polys, terms, n_lo):
    worst = 0.0
    for n in range(n_lo, len(polys)):
        width = max(
            len(polys[n]),
            max(
                (len(polys[n - lag]) + len(c) - 1
                 for lag, c in terms
                 if n - lag >= 0),
                default=0,
            ),
        )
        acc = np.zeros(width)
        acc[: len(polys[n])] = polys[n]
        for lag, c in terms:
            if n - lag < 0:
                continue
            conv = np.convolve(np.asarray(c, dtype=np.float64), polys[n - lag])
            acc[: len(conv)] -= conv
        worst = max(worst, float(np.max(np.abs(acc))) if acc.size else 0.0)
    return worst


def _loop_sequence_prices(model: TrialModel, n: int):
    if isinstance(model, IID):
        price = np.array([model.p**i * model.q ** (n - i) for i in range(n + 1)])
        return price, (0, 1), ((0, 1), (0, 1))
    first, c11, c10, c01 = np.indices((2, n, n, n)).reshape(4, -1)
    c00 = np.maximum((n - 1) - c11 - c10 - c01, 0)  # < 0: no such sequence
    price = (
        np.where(first == 1, model.p1, model.q1)
        * np.power(model.alpha, c11)
        * np.power(1.0 - model.alpha, c10)
        * np.power(1.0 - model.beta, c01)
        * np.power(model.beta, c00)
    )
    return price, (0, n**3), ((0, 1), (n, n * n))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _coeff(rng) -> float:
    """A coefficient, exactly zero one time in four."""
    return 0.0 if rng.random() < 0.25 else float(rng.normal())


def _taps(rng, reach: int) -> list[tuple[int, float]]:
    """One to five taps whose lags may reach past the window."""
    return [
        (int(rng.integers(0, reach + 3)), _coeff(rng))
        for _ in range(int(rng.integers(1, 6)))
    ]


SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_residual_2d_matches_the_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 31))
    table = rng.normal(size=(rows, cols))
    terms = [
        (int(rng.integers(0, rows + 2)), int(rng.integers(0, cols + 3)), _coeff(rng))
        for _ in range(int(rng.integers(1, 6)))
    ]
    r_lo, n_lo = int(rng.integers(0, rows + 2)), int(rng.integers(0, cols + 2))
    got = residual_2d(table, terms, r_lo, n_lo)
    assert _bits(got) == _bits(_loop_residual_2d(table, terms, r_lo, n_lo))


@pytest.mark.parametrize("seed", SEEDS)
def test_recurrence_residual_matches_the_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 41))
    row = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size=size)
    taps = _taps(rng, size)
    n_lo = int(rng.integers(0, size + 3))
    got = recurrence_residual(row, taps, n_lo)
    assert _bits(got) == _bits(_loop_recurrence_residual(row, taps, n_lo))


@pytest.mark.parametrize("seed", SEEDS)
def test_printed_recurrences_run_as_the_loops_do_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    nmax = int(rng.integers(0, 41))
    taps = _taps(rng, nmax)
    inits = {
        int(n): float(rng.normal()) for n in rng.integers(0, nmax + 1, size=3)
    }
    start = int(rng.integers(0, nmax + 3))
    got = run_taps(inits, taps, start, nmax)
    assert _bits(got) == _bits(_loop_run_taps(inits, taps, start, nmax))

    source = rng.normal(size=nmax + 1)
    got = drive_sequence(taps, lambda n: source[n], nmax)
    want = _loop_drive_sequence(taps, lambda n: source[n], nmax)
    assert _bits(got) == _bits(want)


def _wpoly_case(rng):
    count = int(rng.integers(1, 16))
    polys = [rng.normal(size=int(rng.integers(1, 9))) for _ in range(count)]
    terms = [
        (int(rng.integers(1, count + 3)),
         [_coeff(rng) for _ in range(int(rng.integers(1, 4)))])
        for _ in range(int(rng.integers(1, 5)))
    ]
    return polys, terms, int(rng.integers(0, count + 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_wpoly_residual_matches_the_convolutions(seed):
    # np.convolve's dot products may fuse multiply-adds, and where c_j is
    # longer than the row it multiplies they sum the other way round, so
    # only the rounding may differ
    polys, terms, n_lo = _wpoly_case(np.random.default_rng(seed))
    scale = max(np.max(np.abs(g)) for g in polys) * (
        1.0 + sum(sum(abs(ci) for ci in c) for _, c in terms)
    )
    got = wpoly_residual(polys, terms, n_lo)
    assert abs(got - _loop_wpoly_residual(polys, terms, n_lo)) <= 1e-15 * scale


def test_residual_kernels_propagate_nan():
    table = np.ones((4, 6))
    table[3, 5] = math.nan
    assert math.isnan(residual_2d(table, [(1, 1, 0.5)], 1, 1))
    row = np.linspace(1.0, 2.0, 12)
    row[7] = math.nan
    assert math.isnan(recurrence_residual(row, [(1, 1.0)], 2))
    polys = [np.ones(3) for _ in range(6)]
    polys[2] = np.array([1.0, math.nan])
    assert math.isnan(wpoly_residual(polys, [(1, [0.5, 0.5])], 1))
    # the loops dropped them: Python's max keeps its first argument
    assert _loop_residual_2d(table, [(1, 1, 0.5)], 1, 1) == 0.5


@pytest.fixture
def group():
    name = "test-kernels-scratch"
    yield name
    checks._GROUPS.pop(name, None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
def test_a_deviation_that_is_not_a_finite_number_raises(group, bad):
    @entry(group, "t-bad", "L1", "x in {1, 2}", [(1,), (2,)])
    def _(x):
        return bad if x == 2 else 0.0

    with pytest.raises(ConsistencyError, match=r"t-bad: deviation .* at sweep point \(2,\)"):
        measure(group)


CHAINS = (Markov(0.45, 0.3, 0.6), Markov(0.62, 0.55, 0.35), Markov(0.1, 0.97, 0.02))


@pytest.mark.parametrize("n", range(1, 25))
def test_sequence_prices_match_the_closed_form_bit_for_bit(n):
    for model in CHAINS + (IID(0.3), IID(0.5)):
        got = oracle._sequence_prices(model, n)
        want = _loop_sequence_prices(model, n)
        assert _bits(got[0]) == _bits(want[0])
        assert got[1:] == want[1:]
