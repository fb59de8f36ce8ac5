"""The formula verification catalog and its drift detection."""

import json
import os
import re
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import successruns
from successruns import checks, checks_iid, checks_markov, rth_waiting, run_counts
from successruns.checks import (
    TOL,
    CheckResult,
    EXPECTED_STATUS,
    counts_rows,
    diff_expected,
    entry,
    longest_rows,
    measure,
    run_all,
    trk_mean,
    trk_rows,
    trk_second,
    write_ledger,
)
from successruns.geometric import longest_run_pmf
from successruns.models import IID, ConsistencyError, Markov
from successruns.rth_waiting import trk_moments, trk_pmf
from successruns.run_counts import counts_pmf

CATALOG_MODELS = (
    tuple(IID(p) for p in checks_iid.IID_PS)
    + checks_iid.CHAIN_MODELS
    + checks_markov.MODELS
)


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_catalog_size_and_order(results):
    assert len(results) == 134
    ids = [r.formula_id for r in results]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_every_entry_is_well_formed(results):
    anchor = re.compile(r"^L\d+(-\d+)?$")
    for r in results:
        assert r.status in ("CONFIRMED", "ERRATUM", "NOT_TRANSCRIBED")
        assert anchor.match(r.anchor), r.formula_id
        assert r.parameters
        if r.status == "CONFIRMED":
            assert r.max_deviation is not None and r.max_deviation <= TOL
        elif r.status == "ERRATUM":
            assert r.max_deviation is not None and r.max_deviation > TOL
            assert r.note  # a defect always carries a description
        else:
            assert r.max_deviation is None
            assert r.note


def test_statuses_match_reviewed_ledger(results):
    assert diff_expected(results) == []
    assert len(EXPECTED_STATUS) == 134


def test_known_erratum_is_flagged(results):
    by_id = {r.formula_id: r for r in results}
    mean_gf = by_id["iid-trk1-mean-gf"]
    assert mean_gf.status == "ERRATUM"
    assert mean_gf.max_deviation > 0.1
    assert EXPECTED_STATUS["iid-trk1-mean-gf"] == "ERRATUM"


def test_confirmed_entries_dominate(results):
    confirmed = sum(1 for r in results if r.status == "CONFIRMED")
    errata = sum(1 for r in results if r.status == "ERRATUM")
    assert confirmed == 82
    assert errata == 51


def test_count_tables_hold_the_laws_counts_pmf_gives():
    # one series per count serves every horizon of the table, and each row
    # is the law counts_pmf computes at that horizon alone
    for model, k, scheme in product(
        (IID(0.5), Markov(0.62, 0.55, 0.35)), (1, 3), ("I", "II", "III")
    ):
        rows = counts_rows(model, k, scheme, 14)
        for n, row in enumerate(rows):
            alone = counts_pmf(model, n, k, scheme)
            assert row.probs.tobytes() == alone.probs.tobytes()
            assert (row.offset, row.tail) == (alone.offset, alone.tail)


def test_rth_run_tables_hold_the_laws_trk_pmf_gives():
    # one power ladder serves every r of the table; row r is the table
    # trk_pmf gives for that r alone, including rows that start past nmax
    for model, k, scheme in product(
        (IID(0.35), Markov(0.62, 0.55, 0.35)), (1, 2, 3), ("I", "II", "III")
    ):
        table = trk_rows.__wrapped__(model, k, scheme, 8, 20)
        for r in range(1, 9):
            pm = trk_pmf(model, k, r, scheme, nmax=20)
            row = np.zeros(21)
            row[pm.offset : pm.offset + len(pm.probs)] = pm.probs
            assert table[r].tobytes() == row.tobytes()


def test_longest_tables_hold_the_laws_longest_run_pmf_gives():
    # one pass to n = 40 serves every horizon the catalog reads
    for model in CATALOG_MODELS:
        rows = longest_rows.__wrapped__(model, 40)
        assert len(rows) == 41
        for n, row in enumerate(rows):
            pm = longest_run_pmf(model, n)
            dense = np.zeros(n + 1)
            dense[pm.offset : pm.offset + len(pm.probs)] = pm.probs
            assert row.tobytes() == dense.tobytes()


def test_rth_run_moments_compose_as_trk_moments_does():
    for model, k, scheme in product(
        (IID(0.5), Markov(0.45, 0.3, 0.6)), (2, 3), ("I", "II", "III")
    ):
        for r in (1, 2, 7):
            want = trk_moments(model, k, r, scheme)
            assert trk_mean.__wrapped__(model, k, scheme, r) == want.mean
            assert (
                trk_second.__wrapped__(model, k, scheme, r)
                == want.second_moment
            )


@pytest.mark.parametrize(
    "k, scheme, rmax, nmax",
    [(2, "II", 10, 200), (2, "III", 30, 200), (2, "III", 30, 120)],
)
def test_rth_run_tables_fail_with_the_first_error_trk_pmf_raises(k, scheme, rmax, nmax):
    # tail mass at r = 10 and r = 14, and a refused entry at r = 29
    for r in range(1, rmax + 1):
        try:
            trk_pmf(IID(0.5), k, r, scheme, nmax)
        except ValueError as err:
            first = str(err)
            break
    else:
        pytest.fail("trk_pmf answered every r")
    with pytest.raises(ValueError) as got:
        trk_rows.__wrapped__(IID(0.5), k, scheme, rmax, nmax)
    assert str(got.value) == first


def test_count_tables_fail_where_a_horizon_fails():
    with pytest.raises(ValueError, match="pmf entry"):
        counts_rows.__wrapped__(IID(0.5), 2, "III", 105)


def test_drift_detection_reports_all_directions():
    fake = [
        CheckResult("a-one", "L1", "CONFIRMED", 1e-12, "p in {0.5}"),
        CheckResult("b-two", "L2", "ERRATUM", 0.3, "p in {0.5}", note="off"),
    ]
    expected = {"a-one": "CONFIRMED", "b-two": "CONFIRMED", "c-three": "ERRATUM"}
    diff = diff_expected(fake, expected=expected)
    assert ("b-two", "CONFIRMED", "ERRATUM") in diff
    assert ("c-three", "ERRATUM", "<missing>") in diff
    fake.append(CheckResult("d-four", "L4", "CONFIRMED", 0.0, "p in {0.5}"))
    diff = diff_expected(fake, expected=expected)
    assert ("d-four", "<unlisted>", "CONFIRMED") in diff


def test_ledger_round_trips(results, tmp_path):
    path = tmp_path / "ledger.ndjson"
    write_ledger(results, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(results)
    rows = [json.loads(line) for line in lines]
    assert [row["formula_id"] for row in rows] == [r.formula_id for r in results]
    for row, r in zip(rows, results):
        assert set(row) == {
            "formula_id",
            "anchor",
            "status",
            "max_deviation",
            "parameters",
            "note",
        }
        assert row["status"] == r.status
        assert row["anchor"] == r.anchor
        if r.max_deviation is None:
            assert row["max_deviation"] is None
        else:
            assert row["max_deviation"] == pytest.approx(r.max_deviation)


@pytest.fixture
def group(monkeypatch):
    # a registry group that exists for one test only
    monkeypatch.setitem(checks._GROUPS, "test-only", [])
    return "test-only"


def test_measure_keeps_the_worst_point_and_tol_itself_confirms(group):
    @entry(group, "t-worst", "L1", "x in {1, 3, 2}", [(1,), (3,), (2,)], note="n")
    def _(x):
        return x / 8.0

    @entry(group, "t-tol", "L2", "x = TOL", [(TOL,), (0.0,)])
    def _(x):
        return x

    worst, at_tol = measure(group)
    assert worst == CheckResult(
        "t-worst", "L1", "ERRATUM", 0.375, "x in {1, 3, 2}", "n"
    )
    assert at_tol == CheckResult("t-tol", "L2", "CONFIRMED", TOL, "x = TOL")


def test_an_entry_with_an_empty_sweep_is_refused(group):
    with pytest.raises(ValueError, match="t-empty: empty sweep"):
        entry(group, "t-empty", "L1", "nothing", (point for point in ()))
    assert measure(group) == []


def test_an_error_in_an_entry_reaches_the_caller(group):
    @entry(group, "t-raises", "L1", "x = 1", [(1,)])
    def _(x):
        raise ZeroDivisionError("inside the entry")

    with pytest.raises(ZeroDivisionError, match="inside the entry"):
        measure(group)


def _bodies_that_read_a_poisoned_entry(module, group, monkeypatch, name, poison):
    """Run every body of `module` alone with one entry of the truth table
    `name` clean, set to 0.5 and set to NaN; the ids of the bodies that
    raised on the NaN.

    ``poison(value, fill)`` returns the table's value with its entry set to
    fill, leaving the cached value untouched.  A body that reads the entry
    must raise, never keep a finite worst gap over the other entries; one
    whose deviation does not move when the entry is 0.5 does not read it.
    """
    real, fill = getattr(checks, name), [None]

    def table(*args):
        value = real(*args)
        return value if fill[0] is None else poison(value, fill[0])

    def alone(rec, value):
        fill[0] = value
        monkeypatch.setitem(checks._GROUPS, group, [rec])
        return measure(group)[0].max_deviation

    monkeypatch.setattr(module, name, table)
    raised = []
    for records in list(checks._GROUPS.values()):
        for rec in records:
            if rec.deviation.__module__ != module.__name__:
                continue
            clean, moved = alone(rec, None), alone(rec, 0.5)
            try:
                poisoned = alone(rec, np.nan)
            except ConsistencyError as err:
                assert str(err).startswith(f"{rec.formula_id}: deviation nan")
                raised.append(rec.formula_id)
                continue
            assert poisoned == moved == clean, rec.formula_id
    return raised


def _set_entry(value, fill, *at):
    """A copy of an array, or of a tuple of arrays, with value[at] = fill."""
    if isinstance(value, tuple):
        rows = list(value)
        rows[at[0]] = _set_entry(rows[at[0]], fill, *at[1:])
        return tuple(rows)
    value = value.copy()
    value[at] = fill
    return value


@pytest.mark.parametrize("module", [checks_iid, checks_markov])
def test_a_nan_row_in_a_waiting_time_table_never_reads_as_agreement(
    module, group, monkeypatch
):
    # row r = 4 of every waiting-time table is NaN
    def row4(rows, fill):
        return _set_entry(rows, fill, 4)

    raised = _bodies_that_read_a_poisoned_entry(
        module, group, monkeypatch, "trk_rows", row4
    )
    assert raised
    if module is checks_markov:
        assert {"markov-trk2-step-ratio", "markov-trk3-step-ratio"} <= set(raised)


#: One entry of each other truth table the catalog reads: (table, index).
POISONED_ENTRIES = {
    "vk_row": (6,),
    "longest_rows": (10, 3),  # P(L_10 = 3)
    "counts_wpolys": (10, 1),  # P(N_10 = 1)
    "counts_mean_row": (10,),
    "counts_second_row": (10,),
    "trk_tail_rows": (2, 12),  # P(T_2 > 12)
}


@pytest.mark.parametrize("module", [checks_iid, checks_markov])
@pytest.mark.parametrize("name", POISONED_ENTRIES)
def test_a_nan_entry_in_any_truth_table_never_reads_as_agreement(
    name, module, group, monkeypatch
):
    def poison(value, fill):
        return _set_entry(value, fill, *POISONED_ENTRIES[name])

    raised = _bodies_that_read_a_poisoned_entry(
        module, group, monkeypatch, name, poison
    )
    assert raised


def test_a_cold_catalog_builds_each_factor_pair_once(monkeypatch):
    # every table, slice and power reads H and A through checks.factors;
    # nothing in the catalog's engine calls builds its own pair
    def refused(*args):
        raise AssertionError(f"occurrence_factors{args} outside checks.factors")

    for module in (rth_waiting, run_counts):
        monkeypatch.setattr(module, "occurrence_factors", refused)
    for cached in vars(checks).values():
        if callable(getattr(cached, "cache_clear", None)):
            cached.cache_clear()
    run_all()
    assert checks.factors.cache_info().misses == 30


def test_importing_the_package_leaves_the_catalog_unloaded():
    src = os.path.dirname(os.path.dirname(successruns.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, successruns; "
        "print(sorted(m for m in sys.modules if m.startswith('successruns.checks_')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
