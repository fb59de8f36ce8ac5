"""Command-line access to the run-statistics engine.

One executable, one subcommand per task, line-oriented machine-readable
output: a single JSON record by default, flat CSV rows on request.  Numbers
are printed with 17 significant digits so values round-trip exactly, and
every record is fully computed before anything is written.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from .checks import diff_expected, run_all, write_ledger
from .fibk import fib_k, fib_k_dresden, fib_k_spickerman
from .geometric import MAX_HORIZON, default_vmax, longest_run_pmf, vk_pmf
from .inference import _bootstrap, fit_iid, fit_markov
from .models import IID, Markov, Pmf, tv_distance
from .oracle import (
    MAX_ENUM_TRIALS,
    LongestRun,
    RthRunWait,
    RunCount,
    SeededStream,
    enumerate_exact,
    sample_waiting_times,
)
from .rth_waiting import Scheme, trk_moments, trk_pmf
from .run_counts import counts_moments, counts_pmf

ORACLE_TOL = 1e-10


def _non_finite(x: float) -> ValueError:
    return ValueError(f"non-finite number {x!r} in an output record")


def _fmt(x: float) -> str:
    """A float at 17 significant digits, for both encodings; a non-finite
    one is refused."""
    x = float(x)
    if not np.isfinite(x):
        raise _non_finite(x)
    return format(x, ".17g")


class PmfRows:
    """A pmf table's [value, probability] rows, which :func:`_render` writes
    in one pass under one finiteness check of the whole column."""

    __slots__ = ("values", "probs")

    def __init__(self, pm: Pmf):
        self.values = range(pm.offset, pm.offset + len(pm.probs))
        self.probs = pm.probs

    def __iter__(self):
        return zip(self.values, self.probs.tolist())

    def json(self) -> str:
        finite = np.isfinite(self.probs)
        if not finite.all():
            raise _non_finite(float(self.probs[~finite][0]))
        row = "[{}, {:.17g}]".format
        return "[" + ", ".join(map(row, self.values, self.probs.tolist())) + "]"


def _render(value) -> str:
    """JSON text with floats at 17 significant digits, rejecting non-finite."""
    if isinstance(value, PmfRows):
        return value.json()
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        body = ", ".join(
            f"{json.dumps(str(key))}: {_render(val)}"
            for key, val in value.items()
        )
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    raise TypeError(
        f"cannot serialize {type(value).__name__} in an output record"
    )


@dataclass(frozen=True)
class OutputRecord:
    """One invocation's result: what ran, on what, and what came out."""

    kind: str
    parameters: dict
    payload: dict
    errata_flags: list = field(default_factory=list)

    def json_line(self) -> str:
        return _render(
            {
                "kind": self.kind,
                "parameters": self.parameters,
                "payload": self.payload,
                "errata_flags": list(self.errata_flags),
            }
        )

    def csv_lines(self) -> list[str]:
        def cell(v) -> str:
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, (float, np.floating)):
                return _fmt(v)
            return str(v)

        lines = [f"kind,,{self.kind}"]
        for name in sorted(self.parameters):
            lines.append(f"parameter,{name},{cell(self.parameters[name])}")
        for name, entry in self.payload.items():
            if isinstance(entry, (list, tuple, PmfRows)):
                for row in entry:
                    cells = row if isinstance(row, (list, tuple)) else (row,)
                    lines.append(",".join([name] + [cell(c) for c in cells]))
            elif isinstance(entry, dict):
                for key in sorted(entry):
                    lines.append(f"{name},{key},{cell(entry[key])}")
            else:
                lines.append(f"{name},,{cell(entry)}")
        for flag in self.errata_flags:
            lines.append(f"errata,,{flag}")
        return lines

    def emit(self, fmt: str) -> None:
        try:
            lines = [self.json_line()] if fmt == "json" else self.csv_lines()
        except ValueError as exc:  # a non-finite number
            raise click.ClickException(str(exc))
        # an explicit file keeps click from caching (and so keeping alive)
        # whatever stream sys.stdout is at the time
        for line in lines:
            click.echo(line, file=sys.stdout)


def _model_from(iid, markov):
    if (iid is None) == (markov is None or markov == ()):
        raise click.UsageError(
            "specify exactly one of --iid P or --markov P1 ALPHA BETA"
        )
    try:
        if iid is not None:
            return IID(iid), {"model": "iid", "p": iid}
        p1, alpha, beta = markov
        model = Markov(p1, alpha, beta)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return model, {"model": "markov", "p1": p1, "alpha": alpha, "beta": beta}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise click.UsageError(message)


#: A run length, occurrence index, horizon or sample size: an integer >= 1.
_POSITIVE = click.IntRange(min=1)


def _model_options(fn):
    fn = click.option(
        "--iid",
        type=float,
        default=None,
        help="Independent trials with success probability P.",
    )(fn)
    fn = click.option(
        "--markov",
        type=float,
        nargs=3,
        default=None,
        help="Two-state chain: first-trial success P1, "
        "success-after-success ALPHA, failure-after-failure BETA.",
    )(fn)
    return fn


def _format_option(fn):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "csv"]),
        default="json",
        show_default=True,
        help="Output encoding for the result record.",
    )(fn)


def _pmf_payload(pm: Pmf) -> dict:
    return {"rows": PmfRows(pm), "tail": float(pm.tail)}


@click.group()
def cli():
    """Exact statistics of success runs in binary trials."""


@cli.command("pmf")
@_model_options
@click.option(
    "--stat",
    type=click.Choice(["vk", "trk", "counts", "longest"]),
    required=True,
    help="vk: first k-run wait; trk: r-th run wait; counts: number of "
    "runs in n trials; longest: longest run in n trials.",
)
@click.option("--k", type=_POSITIVE, default=None, help="Run length.")
@click.option("--r", type=_POSITIVE, default=1, show_default=True)
@click.option(
    "--scheme",
    type=click.Choice(["I", "II", "III"]),
    default="I",
    show_default=True,
    help="Run counting: I non-overlapping, II at-least, III overlapping.",
)
@click.option("--n", type=_POSITIVE, default=None, help="Trial horizon.")
@click.option(
    "--vmax",
    type=click.IntRange(min=0),
    default=None,
    help="Truncation point for waiting-time tables (default: far enough "
    "that the tail is negligible).",
)
@_format_option
def cmd_pmf(iid, markov, stat, k, r, scheme, n, vmax, fmt):
    """Probability table of a run statistic."""
    model, params = _model_from(iid, markov)
    sch = Scheme.from_label(scheme)
    params["stat"] = stat
    if stat in ("vk", "trk", "counts"):
        _require(k is not None, f"--k is required for --stat {stat}")
        params["k"] = k
    kind = "pmf"
    try:
        if stat == "vk":
            pm = vk_pmf(model, k, vmax=vmax)
            params["vmax"] = pm.support_end
        elif stat == "trk":
            nmax = vmax if vmax is not None else r * default_vmax(model, k)
            if vmax is None and nmax > MAX_HORIZON:
                raise ValueError(
                    f"the automatic horizon for the r={r}-th {k}-run is "
                    f"{r} x {nmax // r} = {nmax} trials, above the limit of "
                    f"{MAX_HORIZON}; pass an explicit --vmax"
                )
            pm = trk_pmf(model, k, r, sch, nmax)
            params.update({"r": r, "scheme": sch.value, "vmax": nmax})
        elif stat == "counts":
            _require(n is not None, "--n is required for --stat counts")
            pm = counts_pmf(model, n, k, sch)
            params.update({"n": n, "scheme": sch.value})
            kind = "count"
        else:
            _require(n is not None, "--n is required for --stat longest")
            pm = longest_run_pmf(model, n)
            params["n"] = n
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    OutputRecord(kind, params, _pmf_payload(pm)).emit(fmt)


@cli.command("moments")
@_model_options
@click.option(
    "--stat",
    type=click.Choice(["vk", "trk", "counts"]),
    required=True,
)
@click.option("--k", type=_POSITIVE, required=True, help="Run length.")
@click.option("--r", type=_POSITIVE, default=1, show_default=True)
@click.option(
    "--scheme",
    type=click.Choice(["I", "II", "III"]),
    default="I",
    show_default=True,
)
@click.option("--n", type=_POSITIVE, default=None, help="Trial horizon (counts).")
@_format_option
def cmd_moments(iid, markov, stat, k, r, scheme, n, fmt):
    """Mean and second raw moment of a run statistic."""
    model, params = _model_from(iid, markov)
    sch = Scheme.from_label(scheme)
    params.update({"stat": stat, "k": k})
    try:
        if stat == "vk":
            mom = trk_moments(model, k, 1, Scheme.NON_OVERLAPPING)
        elif stat == "trk":
            mom = trk_moments(model, k, r, sch)
            params.update({"r": r, "scheme": sch.value})
        else:
            _require(n is not None, "--n is required for --stat counts")
            mom = counts_moments(model, n, k, sch)
            params.update({"n": n, "scheme": sch.value})
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    payload = {
        "mean": mom.mean,
        "second_moment": mom.second_moment,
        "variance": mom.second_moment - mom.mean**2,
    }
    OutputRecord("moments", params, payload).emit(fmt)


def _read_sample(path: str) -> list[int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise click.ClickException(f"cannot read sample file: {exc}")
    values = []
    int64 = np.iinfo(np.int64)
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = int(text)
        except ValueError:
            raise click.ClickException(
                f"{path}:{lineno}: expected one integer per line, got {text!r}"
            )
        if not int64.min <= value <= int64.max:
            raise click.ClickException(
                f"{path}:{lineno}: waiting time {text} does not fit a 64-bit integer"
            )
        values.append(value)
    if not values:
        raise click.ClickException(f"{path}: no observations")
    return values


@cli.command("fit")
@click.option("--k", type=_POSITIVE, required=True, help="Run length.")
@click.option(
    "--input",
    "input_path",
    type=str,
    default=None,
    help="File of waiting times, one integer per line ('#' comments ok).",
)
@click.option(
    "--simulate-iid",
    type=float,
    default=None,
    help="Draw the sample from independent trials with this success "
    "probability instead of reading a file.",
)
@click.option(
    "--simulate-markov",
    type=float,
    nargs=3,
    default=None,
    help="Draw the sample from a two-state chain (P1 ALPHA BETA).",
)
@click.option("--reps", type=_POSITIVE, default=None, help="Sample size to draw.")
@click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=None,
    help="Randomness seed; required for simulation and bootstrap "
    "(the bootstrap stream uses seed+1).",
)
@click.option(
    "--bootstrap",
    type=int,
    default=0,
    show_default=True,
    help="Number of bootstrap refits for standard errors (0 = none).",
)
@click.option(
    "--family",
    type=click.Choice(["iid", "markov"]),
    default=None,
    help="Model family to fit (default: matches the simulation source, "
    "else iid).",
)
@click.option("--max-iter", type=_POSITIVE, default=500, show_default=True)
@_format_option
def cmd_fit(
    input_path,
    k,
    simulate_iid,
    simulate_markov,
    reps,
    seed,
    bootstrap,
    family,
    max_iter,
    fmt,
):
    """Maximum-likelihood fit from first-run waiting times."""
    sources = [
        input_path is not None,
        simulate_iid is not None,
        simulate_markov not in (None, ()),
    ]
    _require(
        sum(sources) == 1,
        "specify exactly one of --input, --simulate-iid, --simulate-markov",
    )
    params: dict = {"k": k}
    if input_path is not None:
        sample = np.asarray(_read_sample(input_path), dtype=np.int64)
        params["input"] = input_path
    else:
        _require(reps is not None, "--reps is required when simulating")
        _require(seed is not None, "--seed is required when simulating")
        try:
            if simulate_iid is not None:
                source = IID(simulate_iid)
                params.update({"simulate": "iid", "p": simulate_iid})
            else:
                p1, alpha, beta = simulate_markov
                source = Markov(p1, alpha, beta)
                params.update(
                    {"simulate": "markov", "p1": p1, "alpha": alpha, "beta": beta}
                )
        except ValueError as exc:
            raise click.UsageError(str(exc))
        params.update({"reps": reps, "seed": seed})
        try:
            sample = sample_waiting_times(source, k, reps, SeededStream(seed))
        except ValueError as exc:
            raise click.ClickException(str(exc))
    if family is None:
        family = "markov" if simulate_markov not in (None, ()) else "iid"
    params["family"] = family
    if bootstrap:
        _require(bootstrap >= 2, "--bootstrap must be >= 2")
        _require(seed is not None, "--seed is required for the bootstrap")
        params["bootstrap"] = bootstrap
    fitter = fit_iid if family == "iid" else fit_markov
    try:
        result = fitter(sample, k, max_iter=max_iter)
        if bootstrap:
            errors, failures = _bootstrap(
                sample, k, family, bootstrap, SeededStream(seed + 1)
            )
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    payload = {
        "estimates": {key: result.estimates[key] for key in sorted(result.estimates)},
        "loglik": result.loglik,
        "converged": result.converged,
        "iterations": result.iterations,
        "standard_errors": (
            {key: errors[key] for key in sorted(errors)} if bootstrap else None
        ),
        "n_obs": int(sample.size),
    }
    if bootstrap:
        payload["bootstrap_failures"] = failures
    OutputRecord("fit", params, payload).emit(fmt)


@cli.command("fib")
@click.option("--k", type=_POSITIVE, required=True, help="Recurrence order.")
@click.option("--n", type=_POSITIVE, required=True, help="1-based index.")
@click.option(
    "--method",
    type=click.Choice(["recurrence", "dresden", "spickerman"]),
    default="recurrence",
    show_default=True,
)
@_format_option
def cmd_fib(k, n, method, fmt):
    """Generalized Fibonacci numbers of order k."""
    params = {"k": k, "n": n, "method": method}
    try:
        if method == "recurrence":
            payload: dict = {"value": fib_k(k, n)}
        else:
            closed = fib_k_dresden if method == "dresden" else fib_k_spickerman
            raw = closed(k, n)
            payload = {
                "value": int(round(raw)),
                "raw": raw,
                "residue": abs(raw - round(raw)),
            }
    except OverflowError as exc:
        raise click.ClickException(f"overflow: {exc}")
    except (ValueError, ArithmeticError) as exc:
        raise click.ClickException(str(exc))
    OutputRecord("fib", params, payload).emit(fmt)


def _oracle_grid(n: int, kmax: int) -> list[list]:
    """Analytic-vs-enumeration comparisons; rows [model, statistic, tv]."""
    models = (
        (IID(0.5), "iid p=0.5"),
        (Markov(0.45, 0.3, 0.6), "markov p1=0.45 alpha=0.3 beta=0.6"),
    )
    rows: list[list] = []
    for model, label in models:
        for k in range(1, kmax + 1):
            for sch in Scheme:
                for r in (1, 2):
                    exact = enumerate_exact(model, n, RthRunWait(k, r, sch))
                    rows.append(
                        [
                            label,
                            f"wait k={k} r={r} scheme={sch.value}",
                            tv_distance(trk_pmf(model, k, r, sch, n), exact),
                        ]
                    )
                exact = enumerate_exact(model, n, RunCount(k, sch))
                rows.append(
                    [
                        label,
                        f"count k={k} scheme={sch.value}",
                        tv_distance(counts_pmf(model, n, k, sch), exact),
                    ]
                )
        exact = enumerate_exact(model, n, LongestRun())
        rows.append(
            [label, "longest", tv_distance(longest_run_pmf(model, n), exact)]
        )
    return rows


@cli.command("check")
@click.option(
    "--n",
    type=click.IntRange(1, MAX_ENUM_TRIALS),
    default=10,
    show_default=True,
    help="Horizon for the exhaustive-enumeration grid (max "
    f"{MAX_ENUM_TRIALS}).",
)
@click.option(
    "--k",
    "kmax",
    type=_POSITIVE,
    default=3,
    show_default=True,
    help="Largest run length on the enumeration grid.",
)
@click.option(
    "--ledger",
    type=str,
    default=None,
    help="Also write the formula findings to this path as NDJSON.",
)
@_format_option
def cmd_check(n, kmax, ledger, fmt):
    """Cross-validate the engine and re-measure every cataloged formula.

    Exits 0 only if the enumeration grid agrees within tolerance and every
    formula's status matches its reviewed value; any drift is a build
    failure, named on the error stream.  A computation that fails outright
    (a deviation that is not a finite number, a failed mass check) exits 1
    with its one-line message.
    """
    try:
        oracle_rows = _oracle_grid(n, kmax)
        results = run_all()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        raise click.ClickException(str(exc))
    mismatches = diff_expected(results)
    if ledger is not None:
        write_ledger(results, ledger)
    formula_rows = [
        [res.formula_id, res.status, res.max_deviation] for res in results
    ]
    flags = [
        f"{res.formula_id}={res.status}"
        for res in results
        if res.status != "CONFIRMED"
    ]
    params = {"n": n, "k": kmax, "oracle_tol": ORACLE_TOL}
    if ledger is not None:
        params["ledger"] = ledger
    payload = {
        "oracle": oracle_rows,
        "formulas": formula_rows,
        "mismatches": [list(m) for m in mismatches],
    }
    OutputRecord("check", params, payload, flags).emit(fmt)
    bad_oracle = [row for row in oracle_rows if row[2] > ORACLE_TOL]
    anchors = {res.formula_id: res.anchor for res in results}
    for label, statistic, tv in bad_oracle:
        click.echo(
            f"check: enumeration disagrees for {label}, {statistic}: "
            f"tv={_fmt(tv)}",
            file=sys.stderr,
        )
    for fid, expected, observed in mismatches:
        click.echo(
            f"check: {fid} (anchor {anchors.get(fid, '?')}): expected "
            f"{expected}, observed {observed}",
            file=sys.stderr,
        )
    return 1 if bad_oracle or mismatches else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        result = cli.main(
            args=argv, prog_name="successruns", standalone_mode=False
        )
    except click.exceptions.Abort:
        return 130
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
