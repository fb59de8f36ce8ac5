"""End-to-end behavior of the command-line interface."""

import contextlib
import gc
import io
import json
import re
import weakref

import numpy as np
import pytest

from successruns import checks_iid, cli, inference
from successruns.checks import vk_row
from successruns.cli import PmfRows, _render, main
from successruns.fibk import fib_k
from successruns.geometric import MAX_HORIZON, longest_run_pmf, vk_pmf
from successruns.models import IID, Markov
from successruns.run_counts import counts_pmf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    record = json.loads(out)
    assert set(record) == {"kind", "parameters", "payload", "errata_flags"}
    return record


def test_pmf_first_run_wait(capsys):
    code, out, _ = run(
        capsys, "pmf", "--iid", "0.5", "--stat", "vk", "--k", "2",
        "--vmax", "10",
    )
    assert code == 0
    record = parse(out)
    assert record["kind"] == "pmf"
    assert record["parameters"]["model"] == "iid"
    rows = dict(tuple(row) for row in record["payload"]["rows"])
    assert rows[5] == pytest.approx(0.09375, abs=1e-15)
    assert record["payload"]["tail"] > 0.0


def test_pmf_overlapping_counts(capsys):
    code, out, _ = run(
        capsys, "pmf", "--iid", "0.5", "--stat", "counts", "--scheme", "III",
        "--k", "2", "--n", "3",
    )
    assert code == 0
    record = parse(out)
    assert record["kind"] == "count"
    rows = dict(tuple(row) for row in record["payload"]["rows"])
    assert rows[2] == pytest.approx(0.125, abs=1e-15)


def test_pmf_markov_longest(capsys):
    code, out, _ = run(
        capsys, "pmf", "--markov", "0.45", "0.3", "0.6", "--stat", "longest",
        "--n", "6",
    )
    assert code == 0
    record = parse(out)
    probs = [row[1] for row in record["payload"]["rows"]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_pmf_rejects_bad_run_length(capsys):
    code, _, err = run(capsys, "pmf", "--iid", "0.5", "--stat", "vk", "--k", "0")
    assert code == 2
    assert "--k" in err


def test_pmf_requires_exactly_one_model(capsys):
    code, _, err = run(capsys, "pmf", "--stat", "vk", "--k", "2")
    assert code == 2
    assert "--iid" in err and "--markov" in err
    code, _, err = run(
        capsys, "pmf", "--iid", "0.5", "--markov", "0.4", "0.5", "0.6",
        "--stat", "vk", "--k", "2",
    )
    assert code == 2


def test_pmf_rejects_off_range_probability(capsys):
    code, _, err = run(capsys, "pmf", "--iid", "1.5", "--stat", "vk", "--k", "2")
    assert code == 2
    assert "(0, 1)" in err


def test_csv_format(capsys):
    code, out, _ = run(
        capsys, "pmf", "--iid", "0.5", "--stat", "vk", "--k", "2",
        "--vmax", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,,pmf"
    assert "parameter,p,0.5" in lines
    assert "rows,2,0.25" in lines
    assert any(line.startswith("tail,") for line in lines)


def test_moments_fair_coin(capsys):
    code, out, _ = run(
        capsys, "moments", "--iid", "0.5", "--stat", "vk", "--k", "2"
    )
    assert code == 0
    record = parse(out)
    assert record["payload"]["mean"] == pytest.approx(6.0, abs=1e-10)
    assert record["payload"]["second_moment"] == pytest.approx(58.0, abs=1e-10)
    assert record["payload"]["variance"] == pytest.approx(22.0, abs=1e-9)


def test_moments_of_a_late_run(capsys):
    # the 200th overlapping pair in fair coin flips: 6 + 199 * 4 trials on
    # average, variance 22 + 199 * 20
    code, out, _ = run(
        capsys, "moments", "--iid", "0.5", "--stat", "trk", "--k", "2",
        "--r", "200", "--scheme", "III",
    )
    assert code == 0
    payload = parse(out)["payload"]
    assert payload["mean"] == pytest.approx(802.0, rel=1e-12)
    assert payload["variance"] == pytest.approx(4002.0, rel=1e-9)


def test_fib_values(capsys):
    code, out, _ = run(capsys, "fib", "--k", "3", "--n", "9")
    assert code == 0
    assert parse(out)["payload"]["value"] == 81
    code, out, _ = run(capsys, "fib", "--k", "2", "--n", "1")
    assert code == 0
    assert parse(out)["payload"]["value"] == 1


def test_fib_closed_form_reports_residue(capsys):
    code, out, _ = run(
        capsys, "fib", "--k", "2", "--n", "40", "--method", "dresden"
    )
    assert code == 0
    payload = parse(out)["payload"]
    assert payload["value"] == 102334155
    assert payload["residue"] < 1e-4


@pytest.mark.parametrize("method", ["dresden", "spickerman"])
def test_fib_closed_form_at_the_largest_order(capsys, method):
    code, out, err = run(
        capsys, "fib", "--k", "32", "--n", "40", "--method", method
    )
    assert code == 0, err
    assert parse(out)["payload"]["value"] == fib_k(32, 40)


def test_fib_overflow_is_an_error_not_a_crash(capsys):
    code, _, err = run(capsys, "fib", "--k", "2", "--n", "200")
    assert code == 1
    assert "overflow" in err.lower()


def test_fit_simulated_recovers_probability(capsys):
    code, out, _ = run(
        capsys, "fit", "--k", "2", "--simulate-iid", "0.5", "--reps", "200",
        "--seed", "7", "--bootstrap", "200",
    )
    assert code == 0
    payload = parse(out)["payload"]
    assert abs(payload["estimates"]["p"] - 0.5) <= 0.1
    assert 0.01 <= payload["standard_errors"]["p"] <= 0.06
    assert payload["converged"] is True
    assert payload["n_obs"] == 200


def test_fit_reads_sample_files(capsys, tmp_path):
    path = tmp_path / "waits.txt"
    path.write_text("# header\n5\n7\n\n3\n12\n")
    code, out, _ = run(capsys, "fit", "--k", "2", "--input", str(path))
    assert code == 0
    payload = parse(out)["payload"]
    assert payload["n_obs"] == 4
    assert 0.0 < payload["estimates"]["p"] < 1.0


def test_fit_rejects_unusable_files(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, _, err = run(capsys, "fit", "--k", "2", "--input", str(empty))
    assert code == 1
    assert "no observations" in err
    mangled = tmp_path / "mangled.txt"
    mangled.write_text("5\nseven\n")
    code, _, err = run(capsys, "fit", "--k", "2", "--input", str(mangled))
    assert code == 1
    assert "seven" in err
    code, _, err = run(
        capsys, "fit", "--k", "2", "--input", str(tmp_path / "absent.txt")
    )
    assert code == 1


def test_fit_refuses_waits_too_large_to_tabulate(capsys, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("5\n# a wait beyond int64\n99999999999999999999\n")
    code, out, err = run(capsys, "fit", "--k", "2", "--input", str(huge))
    assert (code, out) == (1, "")
    assert f"{huge}:3:" in err and "99999999999999999999" in err
    assert "Traceback" not in err
    capped = tmp_path / "capped.txt"
    capped.write_text(f"5\n{MAX_HORIZON + 2 + 1}\n")
    code, out, err = run(capsys, "fit", "--k", "2", "--input", str(capped))
    assert (code, out) == (1, "")
    assert str(MAX_HORIZON + 3) in err and str(MAX_HORIZON) in err


@pytest.mark.parametrize("family", ["iid", "markov"])
def test_fit_handles_long_runs(capsys, tmp_path, family):
    path = tmp_path / "waits.txt"
    path.write_text("60\n61\n65\n")
    code, out, err = run(
        capsys, "fit", "--k", "60", "--input", str(path), "--family", family
    )
    assert (code, err) == (0, "")
    payload = parse(out)["payload"]
    assert payload["converged"] is True
    assert 0.9 < payload["estimates"]["p"] < 1.0


@pytest.mark.parametrize("family", ["iid", "markov"])
def test_fit_refuses_a_sample_of_shortest_waits(capsys, tmp_path, family):
    path = tmp_path / "waits.txt"
    path.write_text("2\n2\n2\n")
    code, out, err = run(
        capsys, "fit", "--k", "2", "--input", str(path), "--family", family
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "every waiting time equals k=2" in err and "no maximum" in err


@pytest.mark.parametrize("max_iter", ["0", "-4"])
def test_fit_refuses_fewer_than_one_iteration(capsys, max_iter):
    code, out, err = run(
        capsys, "fit", "--k", "2", "--simulate-iid", "0.5", "--reps", "50",
        "--seed", "3", "--max-iter", max_iter,
    )
    assert (code, out) == (2, "")
    assert "--max-iter" in err and "Traceback" not in err


def test_fit_reports_dropped_bootstrap_refits(capsys, monkeypatch):
    argv = ("fit", "--k", "2", "--simulate-iid", "0.5", "--reps", "80",
            "--seed", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "bootstrap_failures" not in parse(out)["payload"]
    code, out, _ = run(capsys, *argv, "--bootstrap", "10")
    assert code == 0
    assert parse(out)["payload"]["bootstrap_failures"] == 0
    refits = []

    def first_refit_fails(sample, k):
        refits.append(k)
        if len(refits) == 1:
            raise ValueError("refit failed")
        return inference.fit_iid(sample, k)

    monkeypatch.setitem(inference._FITTERS, "iid", first_refit_fails)
    code, out, _ = run(capsys, *argv, "--bootstrap", "10")
    assert code == 0
    payload = parse(out)["payload"]
    assert payload["bootstrap_failures"] == 1
    assert payload["standard_errors"]["p"] > 0.0


def test_a_negative_bootstrap_seed_is_a_usage_error(capsys, tmp_path):
    # it ran before, on the bootstrap stream seed + 1 = 0
    path = tmp_path / "waits.txt"
    path.write_text("2\n3\n5\n4\n2\n7\n")
    code, out, err = run(
        capsys, "fit", "--k", "2", "--input", str(path), "--bootstrap", "4",
        "--seed", "-1",
    )
    assert (code, out) == (2, "")
    assert "Invalid value for '--seed'" in err and "Traceback" not in err


def test_fit_simulation_requires_seed(capsys):
    code, _, err = run(
        capsys, "fit", "--k", "2", "--simulate-iid", "0.5", "--reps", "50"
    )
    assert code == 2
    assert "--seed" in err


def test_seeded_runs_are_byte_identical(capsys):
    argv = (
        "fit", "--k", "2", "--simulate-markov", "0.5", "0.6", "0.5",
        "--reps", "120", "--seed", "42", "--bootstrap", "80",
    )
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_check_passes_and_writes_ledger(capsys, tmp_path):
    path = tmp_path / "ledger.ndjson"
    code, out, err = run(
        capsys, "check", "--n", "4", "--k", "2", "--ledger", str(path)
    )
    assert code == 0
    assert err == ""
    record = parse(out)
    assert record["kind"] == "check"
    assert record["payload"]["mismatches"] == []
    assert all(tv <= 1e-10 for _, _, tv in record["payload"]["oracle"])
    statuses = {fid: status for fid, status, _ in record["payload"]["formulas"]}
    assert statuses["iid-trk1-mean-gf"] == "ERRATUM"
    assert "iid-trk1-mean-gf=ERRATUM" in record["errata_flags"]
    text = path.read_text()
    assert '"iid-trk1-mean-gf"' in text


def test_check_rejects_oversized_horizon(capsys):
    code, _, err = run(capsys, "check", "--n", "30")
    assert code == 2
    assert "24" in err


def test_check_fails_on_injected_wrong_coefficient(capsys, monkeypatch):
    # corrupt one coefficient of the independent-trials truth table; every
    # formula measured against it must drift and the run must turn red
    def crooked(model, k, vmax):
        row = vk_row(model, k, vmax).copy()
        if vmax >= k:
            row[k] *= 1.02
        return row

    monkeypatch.setattr(checks_iid, "vk_row", crooked)
    code, out, err = run(capsys, "check", "--n", "3", "--k", "1")
    assert code == 1
    record = parse(out)
    assert record["payload"]["mismatches"] != []
    assert "expected CONFIRMED, observed ERRATUM" in err
    # the complaint names the printed location of a drifted formula
    assert "anchor L" in err


def test_check_fails_in_one_line_on_a_nan_deviation(capsys, monkeypatch):
    # a NaN in a truth table measures nothing, so it must not read as
    # agreement: the entry that meets it stops the run, named with its point
    def poisoned(model, k, vmax):
        row = vk_row(model, k, vmax).copy()
        row[-1] = np.nan
        return row

    monkeypatch.setattr(checks_iid, "vk_row", poisoned)
    code, out, err = run(capsys, "check", "--n", "3", "--k", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert re.search(r"iid-vk-\S+: deviation nan at sweep point \(", err)


def test_check_output_is_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "check", "--n", "3", "--k", "1")
    code_b, out_b, _ = run(capsys, "check", "--n", "3", "--k", "1")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_automatic_horizon_beyond_the_cap_is_a_clean_error(capsys):
    code, out, err = run(capsys, "pmf", "--iid", "0.1", "--stat", "vk", "--k", "8")
    assert code == 1
    assert out == ""
    assert "mean 1.11111e+08 trials" in err and "--vmax" in err
    assert "Traceback" not in err
    code, out, err = run(
        capsys, "fit", "--k", "8", "--simulate-iid", "0.1", "--reps", "5",
        "--seed", "1",
    )
    assert code == 1
    assert "mean" in err and "Traceback" not in err
    # the same query with an explicit horizon succeeds
    code, out, _ = run(
        capsys, "pmf", "--iid", "0.1", "--stat", "vk", "--k", "8", "--vmax", "50"
    )
    assert code == 0 and parse(out)["parameters"]["vmax"] == 50


def test_automatic_rth_run_horizon_beyond_the_cap_is_a_clean_error(capsys):
    code, out, err = run(
        capsys, "pmf", "--iid", "0.2", "--stat", "trk", "--k", "6", "--r", "20"
    )
    assert code == 1
    assert out == ""
    assert "10789780 trials" in err and "--vmax" in err
    assert "Traceback" not in err


def test_main_releases_the_streams_it_wrote_to():
    # callers that capture output in a fresh buffer per call must get each
    # buffer back once they drop it, however many calls they make
    refs = []
    for argv in (
        ["pmf", "--iid", "0.5", "--stat", "vk", "--k", "2", "--vmax", "6"],
        ["pmf", "--iid", "0.5", "--stat", "vk", "--k", "2", "--vmax", "6",
         "--format", "csv"],
        ["fib", "--k", "2", "--n", "10"],
        ["pmf", "--iid", "0.5", "--stat", "vk", "--k", "0"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(argv)
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * len(refs)


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--iid", "0.05", "--stat", "vk", "--k", "6"],
        ["moments", "--iid", "0.02", "--stat", "vk", "--k", "12"],
        ["pmf", "--iid", "0.05", "--stat", "counts", "--k", "6", "--n", "20"],
        ["pmf", "--iid", "0.02", "--stat", "trk", "--k", "12", "--r", "1",
         "--vmax", "30"],
    ],
)
def test_rare_success_queries_answer_or_fail_in_one_line(capsys, argv):
    # the factor mass checks cancel badly at small p and long runs; a query
    # either gives its record or fails with one line on stderr
    code, out, err = run(capsys, *argv)
    if code == 0:
        parse(out)
    else:
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "pm",
    [
        vk_pmf(IID(0.519), 3),
        vk_pmf(IID(0.5), 2, vmax=1),
        longest_run_pmf(Markov(0.45, 0.3, 0.6), 80),
        counts_pmf(IID(0.5), 30, 2, "III"),
    ],
)
def test_pmf_rows_render_as_the_generic_rows_did(pm):
    # one pass over the table writes what the per-value walk wrote
    rows = PmfRows(pm)
    generic = [[int(pm.offset + i), float(p)] for i, p in enumerate(pm.probs)]
    assert [list(row) for row in rows] == generic
    assert _render(rows) == _render(generic)


def test_a_non_finite_pmf_entry_fails_in_one_line(capsys, monkeypatch):
    def poisoned(model, k, vmax=None):
        pm = vk_pmf(model, k, vmax=vmax)
        pm.probs[3] = np.nan
        return pm

    monkeypatch.setattr(cli, "vk_pmf", poisoned)
    code, out, err = run(
        capsys, "pmf", "--iid", "0.5", "--stat", "vk", "--k", "2", "--vmax", "10"
    )
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "non-finite number nan" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_non_finite_number_fails_in_one_line_in_either_encoding(
    capsys, monkeypatch, fmt
):
    # both encodings format scalars through one formatter, which refuses
    # NaN and infinity; csv printed "nan" and exited 0 before
    def poisoned(model, k, vmax=None):
        pm = vk_pmf(model, k, vmax=vmax)
        pm.probs[3] = np.nan
        return pm

    moments = cli.trk_moments

    def no_mean(*args):
        return moments(*args)._replace(mean=np.inf)

    monkeypatch.setattr(cli, "vk_pmf", poisoned)
    monkeypatch.setattr(cli, "trk_moments", no_mean)
    for argv, bad in (
        (["pmf", "--iid", "0.5", "--stat", "vk", "--k", "2", "--vmax", "10"], "nan"),
        (["moments", "--iid", "0.5", "--stat", "vk", "--k", "2"], "inf"),
    ):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"Error: non-finite number {bad} in an output record\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--iid", "0.5", "--stat", "vk", "--k", "0"],
        ["pmf", "--iid", "0.5", "--stat", "vk", "--k", "2.5"],
        ["pmf", "--iid", "0.5", "--stat", "longest", "--n", "-1"],
        ["pmf", "--iid", "0.5", "--stat", "trk", "--k", "2", "--r", "0"],
        ["pmf", "--iid", "0.5", "--stat", "vk", "--k", "2", "--vmax", "-1"],
        ["moments", "--iid", "0.5", "--stat", "counts", "--k", "2", "--n", "0"],
        ["check", "--n", "30"],
        ["check", "--k", "0"],
        ["fit", "--k", "0", "--simulate-iid", "0.5", "--reps", "10", "--seed", "1"],
        ["fit", "--k", "2", "--simulate-iid", "0.5", "--reps", "0", "--seed", "1"],
        ["fit", "--k", "2", "--simulate-iid", "0.5", "--reps", "10", "--seed", "-1"],
        ["fib", "--k", "3", "--n", "0"],
    ],
    ids=" ".join,
)
def test_a_bad_integer_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Invalid value for '--" in err and "Traceback" not in err
