"""The three benchmark workloads, built from a seed.

A workload is a fixed list of operations, each one call into a public
successruns function, plus a check over one round's outputs.  The runner
repeats the list in whole rounds; every round sends the same inputs, so
every round does the same work.  Functions are looked up on the package at
call time, so the tracer's wrappers see every operation.

Sizes stop below the points where the engines are known to go wrong (see
README.md): the checks hold every answer to the referee, so a workload that
crossed one of those points would report itself wrong.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import random
from typing import Callable, NamedTuple

import numpy as np

import referee as R

PMF_TOL = 1e-8  # total variation, engine against referee
MOMENT_TOL = 1e-8  # relative, engine against referee
FIB_TOL = 1e-12  # absolute, vk_pmf at p = 1/2 against F^(k) / 2^v
LOGLIK_TOL = 1e-6  # relative slack for "no lower than" between likelihoods


class Op(NamedTuple):
    label: str
    call: Callable[[], object]


class Workload(NamedTuple):
    ops: list[Op]
    before_round: Callable[[], None]  # runs untimed before every round
    check: Callable[[list], list[str]]  # outputs (None = op failed) -> problems


def _api(sr, name: str, *args):
    return getattr(sr, name)(*args)


def _op(sr, label: str, name: str, *args) -> Op:
    return Op(label, functools.partial(_api, sr, name, *args))


def _nothing() -> None:
    return None


# referee answers are memoized: every round repeats the same inputs
wait_law = functools.lru_cache(maxsize=None)(R.wait_law)
counts_law = functools.lru_cache(maxsize=None)(R.counts_law)
longest_law = functools.lru_cache(maxsize=None)(R.longest_law)
wait_moments = functools.lru_cache(maxsize=None)(R.wait_moments)


def law_of(pm) -> R.Law:
    return R.Law(pm.offset, np.asarray(pm.probs), float(pm.tail))


def _tv_problems(label: str, got: R.Law, want: R.Law, tol: float) -> list[str]:
    dist = R.tv(got, want)
    return [] if dist <= tol else [f"{label}: tv {dist:.3e} against the referee"]


def _close_problems(label: str, pairs, rel: float) -> list[str]:
    found = (R.check_close(f"{label} {name}", got, want, rel) for name, got, want in pairs)
    return [p for p in found if p]


def _model(sr, chain: R.Chain, is_iid: bool):
    if is_iid:
        return sr.IID(chain.p1)
    return sr.Markov(chain.p1, chain.alpha, chain.beta)


def _draw_chain(rng: random.Random, is_iid: bool) -> R.Chain:
    """Model parameters for the tables workload, rounded to 3 decimals."""
    if is_iid:
        return R.iid(round(rng.uniform(0.45, 0.65), 3))
    p1 = round(rng.uniform(0.3, 0.7), 3)
    return R.markov(p1, round(rng.uniform(0.45, 0.65), 3), round(rng.uniform(0.35, 0.6), 3))


def _check_vk(label: str, pm, chain: R.Chain, is_iid: bool, k: int) -> list[str]:
    law = law_of(pm)
    problems = _tv_problems(label, law, wait_law(chain, k, 1, "I", pm.support_end), PMF_TOL)
    if pm.tail > 1e-9:
        problems.append(f"{label}: default horizon leaves tail {pm.tail:.3e}")
    if is_iid:
        # the truncated mean plus the tail at the horizon, against (1-p^k)/(q p^k)
        mean = R.mean_of(law) + pm.tail * pm.support_end
        problems += _close_problems(label, [("mean", mean, R.iid_mean_wait(chain.p1, k))], 1e-6)
    if is_iid and chain.p1 == 0.5:
        fib = R.fibonacci_half_law(k, pm.support_end)[k:]
        gap = float(np.abs(law.probs - fib).max())
        if gap > FIB_TOL:
            problems.append(f"{label}: {gap:.3e} off the order-{k} Fibonacci law")
    return problems


def check_counts(label: str, law: R.Law, chain, is_iid, n, k, scheme) -> list[str]:
    problems = _tv_problems(label, law, counts_law(chain, n, k, scheme), PMF_TOL)
    want = R.iid_mean_count(chain.p1, n, k, scheme) if is_iid else None
    if want is not None:
        problems += _close_problems(label, [("mean", R.mean_of(law), want)], MOMENT_TOL)
    return problems


def _check_moments(label: str, mean, second, chain, k, r, scheme) -> list[str]:
    want_mean, want_second = wait_moments(chain, k, r, scheme)
    return _close_problems(
        label, [("mean", mean, want_mean), ("second moment", second, want_second)], MOMENT_TOL
    )


# ---------------------------------------------------------------------------
# tables: what a user tabulating the laws runs
#
# The size of every query (k, r, horizon) is a fixed level and the model
# family alternates; the seed draws the model parameters and jitters the
# longest-run horizons by a few trials.  So a round's work, and where its
# latency percentiles fall, barely depend on the seed.

#: longest_run_pmf is O(n^3): one query per level and model family, then
#: LONGEST_PLATEAU_QUERIES IID queries at horizon LONGEST_PLATEAU.  Those
#: equal-cost operations sit where the 90th latency percentile falls, so it
#: does not jump between operations of different sizes from seed to seed.
LONGEST_LEVELS = (160, 190, 220, 250)
LONGEST_PLATEAU = 110
LONGEST_PLATEAU_QUERIES = 8
#: Largest count horizon per run length.  counts_pmf drifts away from the
#: referee beyond these: 3e-8 at IID(0.6), n=60, k=2, scheme III.
COUNTS_NMAX = {1: 20, 2: 32, 3: 40}
#: Equal-cost IID counts_pmf queries (n, k, scheme), about 1 ms each, that
#: sit where the median latency falls, for the same reason as the
#: longest-run plateau.
COUNTS_PLATEAU = (24, 3, "II")
COUNTS_PLATEAU_QUERIES = 16
#: trk_pmf horizons; r <= 4 and k <= 3 keep it within 1e-10 of the referee.
TRK_NMAX = (45, 90)
CLI_KINDS = ("pmf vk", "pmf trk", "pmf counts", "pmf longest",
             "moments vk", "moments trk", "moments counts")


def _run_cli(sr, argv: list[str]) -> tuple[int, str]:
    """successruns.cli.main in-process, its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sr.cli.main(argv)
    return code, buf.getvalue()


def _cli_argv(verb, stat, chain, is_iid, k, scheme, r, n, nmax) -> list[str]:
    if is_iid:
        argv = [verb, "--iid", repr(chain.p1)]
    else:
        argv = [verb, "--markov", repr(chain.p1), repr(chain.alpha), repr(chain.beta)]
    argv += ["--stat", stat]
    if stat != "longest":
        argv += ["--k", str(k)]
    if stat == "trk":
        argv += ["--r", str(r), "--scheme", scheme]
        if verb == "pmf":
            argv += ["--vmax", str(nmax)]
    if stat == "counts":
        argv += ["--scheme", scheme]
    if stat in ("counts", "longest"):
        argv += ["--n", str(n)]
    return argv


def _check_cli(label, out, verb, stat, chain, is_iid, k, scheme, r, n, nmax) -> list[str]:
    code, text = out
    if code != 0:
        return [f"{label}: exit code {code}"]
    payload = json.loads(text)["payload"]
    if verb == "moments":
        if stat == "counts":
            law = counts_law(chain, n, k, scheme)
            values = np.arange(len(law.probs))
            want = [("mean", payload["mean"], R.mean_of(law)),
                    ("second moment", payload["second_moment"], float(values**2 @ law.probs))]
            return _close_problems(label, want, MOMENT_TOL)
        r, scheme = (r, scheme) if stat == "trk" else (1, "I")
        return _check_moments(label, payload["mean"], payload["second_moment"], chain, k, r, scheme)
    rows = payload["rows"]
    law = R.Law(rows[0][0], np.array([p for _, p in rows]), payload["tail"])
    if stat == "vk":
        want = wait_law(chain, k, 1, "I", rows[-1][0])
    elif stat == "trk":
        want = wait_law(chain, k, r, scheme, nmax)
    elif stat == "counts":
        want = counts_law(chain, n, k, scheme)
    else:
        want = longest_law(chain, n)
    return _tv_problems(label, law, want, PMF_TOL)


def tables(sr, seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    checks: list[Callable[[object], list[str]]] = []
    seen: set = set()

    def add(op: Op, check) -> None:
        ops.append(op)
        checks.append(check)

    def chain_for(slot: int, *query) -> tuple[R.Chain, bool]:
        """A model for one query slot; redrawn until the query is new."""
        is_iid = slot % 2 == 0
        while True:
            chain = _draw_chain(rng, is_iid)
            if (chain, *query) not in seen:
                seen.add((chain, *query))
                return chain, is_iid

    # vk_pmf at the default horizon; the first slot of each k is p = 1/2,
    # which carries the order-k Fibonacci identity
    for k in range(1, 6):
        for slot in range(4):
            if slot == 0:
                chain, is_iid = R.iid(0.5), True
                seen.add((chain, "vk", k))
            else:
                chain, is_iid = chain_for(slot + 1, "vk", k)
            label = f"vk_pmf {chain} k={k}"
            add(_op(sr, label, "vk_pmf", _model(sr, chain, is_iid), k),
                functools.partial(_check_vk, label, chain=chain, is_iid=is_iid, k=k))

    for slot, (k, r, nmax) in enumerate(itertools.product((1, 2, 3), (1, 2, 3, 4), TRK_NMAX)):
        scheme = R.SCHEMES[(k + r + slot) % 3]
        chain, is_iid = chain_for(slot, "trk", k, r, scheme, nmax)
        label = f"trk_pmf {chain} k={k} r={r} {scheme} nmax={nmax}"
        add(_op(sr, label, "trk_pmf", _model(sr, chain, is_iid), k, r, scheme, nmax),
            lambda pm, label=label, q=(chain, k, r, scheme, nmax):
                _tv_problems(label, law_of(pm), wait_law(*q), PMF_TOL))

    for slot, (k, r) in enumerate(itertools.product((1, 2, 3, 4), (1, 2, 3))):
        scheme = R.SCHEMES[slot % 3]
        chain, is_iid = chain_for(slot, "moments", k, r, scheme)
        label = f"trk_moments {chain} k={k} r={r} {scheme}"
        add(_op(sr, label, "trk_moments", _model(sr, chain, is_iid), k, r, scheme),
            lambda m, label=label, q=(chain, k, r, scheme):
                _check_moments(label, m.mean, m.second_moment, *q))

    counts = [(slot, COUNTS_NMAX[k] * share // 4, k, scheme) for slot, (k, scheme, share)
              in enumerate(itertools.product((1, 2, 3), R.SCHEMES, (2, 3, 4)))]
    counts += [(0, *COUNTS_PLATEAU)] * COUNTS_PLATEAU_QUERIES
    for slot, n, k, scheme in counts:
        chain, is_iid = chain_for(slot, "counts", n, k, scheme)
        label = f"counts_pmf {chain} n={n} k={k} {scheme}"
        add(_op(sr, label, "counts_pmf", _model(sr, chain, is_iid), n, k, scheme),
            lambda pm, label=label, q=(chain, is_iid, n, k, scheme):
                check_counts(label, law_of(pm), *q))

    horizons = [(level + rng.randint(-3, 3), family) for level in LONGEST_LEVELS for family in (0, 1)]
    horizons += [(LONGEST_PLATEAU, 0)] * LONGEST_PLATEAU_QUERIES
    for n, family in horizons:
        chain, is_iid = chain_for(family, "longest", n)
        label = f"longest_run_pmf {chain} n={n}"
        add(_op(sr, label, "longest_run_pmf", _model(sr, chain, is_iid), n),
            lambda pm, label=label, q=(chain, n):
                _tv_problems(label, law_of(pm), longest_law(*q), PMF_TOL))

    # the command line, in-process: each kind of query at three sizes
    for slot, (j, kind) in enumerate(itertools.product(range(3), CLI_KINDS)):
        verb, stat = kind.split()
        k, r, scheme = j + 1, j + 1, R.SCHEMES[(j + slot) % 3]
        n = (40, 80, 120)[j] if stat == "longest" else COUNTS_NMAX[k]
        nmax = TRK_NMAX[j % 2]
        chain, is_iid = chain_for(slot, "cli", kind, k, scheme, r, n, nmax)
        query = (verb, stat, chain, is_iid, k, scheme, r, n, nmax)
        argv = _cli_argv(*query)
        label = "successruns " + " ".join(argv)
        add(Op(label, functools.partial(_run_cli, sr, argv)),
            lambda out, label=label, q=query: _check_cli(label, out, *q))

    def check(outputs: list) -> list[str]:
        problems: list[str] = []
        for out, fn in zip(outputs, checks):
            if out is not None:
                problems += fn(out)
        return problems

    return Workload(ops, _nothing, check)


# ---------------------------------------------------------------------------
# audit: one cold pass of `successruns check --n 16`

AUDIT_N = 16
AUDIT_KMAX = 3
AUDIT_MODELS = ((R.iid(0.5), True), (R.markov(0.45, 0.3, 0.6), False))


def checks_caches(sr) -> list:
    """The catalog's memoized engine tables, found by their cache_clear()."""
    return [f for f in vars(sr.checks).values() if callable(getattr(f, "cache_clear", None))]


def _collect(fn, sink: list):
    out = fn()
    sink.extend(out)
    return out


def audit(sr, seed: int) -> Workload:
    """The enumeration grid, then the catalog, then diff_expected.

    The pass is what `check` does, so the seed changes nothing.
    """
    del seed
    for name in ("checks_iid", "checks_markov"):
        importlib.import_module(f"successruns.{name}")
    tol, n = sr.cli.ORACLE_TOL, AUDIT_N
    ops: list[Op] = []
    grid: list[tuple[int, tuple]] = []  # (index of the enumeration op, referee query)

    def pair(stat, engine: str, engine_args: tuple, what: str, referee_query: tuple) -> None:
        grid.append((len(ops), referee_query))
        ops.append(_op(sr, f"enumerate_exact {chain} {what}", "enumerate_exact", model, n, stat))
        ops.append(_op(sr, f"{engine} {chain} {what} n={n}", engine, model, *engine_args))

    for chain, is_iid in AUDIT_MODELS:
        model = _model(sr, chain, is_iid)
        for k in range(1, AUDIT_KMAX + 1):
            for scheme in R.SCHEMES:
                for r in (1, 2):
                    pair(sr.RthRunWait(k, r, scheme), "trk_pmf", (k, r, scheme, n),
                         f"wait k={k} r={r} {scheme}", (wait_law, chain, k, r, scheme, n))
                pair(sr.RunCount(k, scheme), "counts_pmf", (n, k, scheme),
                     f"count k={k} {scheme}", (counts_law, chain, n, k, scheme))
        pair(sr.LongestRun(), "longest_run_pmf", (n,), "longest", (longest_law, chain, n))

    results: list = []
    first_entry = len(ops)
    for fn in list(sr.checks_iid.CATALOG) + list(sr.checks_markov.CATALOG):
        ops.append(Op(f"catalog {fn.__module__}.{fn.__name__}", functools.partial(_collect, fn, results)))
    ops.append(Op("diff_expected", lambda: sr.diff_expected(results)))
    caches = checks_caches(sr)

    def before_round() -> None:
        for cache in caches:
            cache.cache_clear()
        results.clear()

    def check(outputs: list) -> list[str]:
        problems: list[str] = []
        for i, (referee_fn, *args) in grid:
            want = referee_fn(*args)
            enumerated, engine = outputs[i], outputs[i + 1]
            for j, out in ((i, enumerated), (i + 1, engine)):
                if out is not None:
                    problems += _tv_problems(ops[j].label, law_of(out), want, tol)
            if enumerated is not None and engine is not None:
                dist = sr.tv_distance(engine, enumerated)
                if not dist <= tol:
                    problems.append(f"{ops[i + 1].label}: tv {dist:.3e} against enumerate_exact")
        produced = [res for out in outputs[first_entry:-1] if out is not None for res in out]
        statuses = {res.formula_id: res.status for res in produced}
        if len(statuses) != len(produced):
            problems.append("catalog: duplicate formula ids")
        if statuses != sr.checks.EXPECTED_STATUS:
            drift = sorted(set(statuses.items()) ^ set(sr.checks.EXPECTED_STATUS.items()))
            problems.append(f"catalog: statuses differ from EXPECTED_STATUS: {drift[:6]}")
        if outputs[-1]:
            problems.append(f"diff_expected reports drift: {outputs[-1][:6]}")
        return problems

    return Workload(ops, before_round, check)


# ---------------------------------------------------------------------------
# fit: maximum likelihood from simulated waits

FIT_SAMPLES = 96
#: Samples that also get bootstrap_se: every 13th, which visits each
#: (k, family) pair once.
BOOTSTRAP_SLOTS = tuple(range(0, FIT_SAMPLES, 13))
BOOTSTRAP_B = 4
#: Success (or stay-in-success) probability band per run length.  The
#: samples walk up the band in FIT_SAMPLES // 8 steps and the seed draws
#: within each step, so a round's work is nearly the same for every seed.
#: The likelihood reruns the pure-Python h recursion up to the largest wait
#: on every evaluation, so low p with long runs makes one fit take seconds.
FIT_P_BAND = {2: (0.4, 0.5), 3: (0.45, 0.55), 4: (0.55, 0.65), 5: (0.6, 0.7)}
#: Draws per sample, by slot.
FIT_REPS = (200, 250, 300, 350, 400, 450, 500)


def fit(sr, seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    samples: dict[int, np.ndarray] = {}
    sources: list[tuple] = []  # per sample: chain, is_iid, k, reps, op indices by kind

    for i in range(FIT_SAMPLES):
        k, is_iid, reps = i % 4 + 2, (i // 4) % 2 == 0, FIT_REPS[i % len(FIT_REPS)]
        lo, hi = FIT_P_BAND[k]
        step = (i // 8 + rng.random()) / (FIT_SAMPLES // 8)
        p = round(lo + (hi - lo) * step, 3)
        if is_iid:
            chain, model = R.iid(p), sr.IID(p)
        else:
            model = sr.Markov.stationary_start(p, round(0.35 + 0.15 * step, 3))
            chain = R.markov(model.p1, model.alpha, model.beta)
        stream = seed * 1000 + i

        def draw(i=i, model=model, k=k, reps=reps, stream=stream):
            samples[i] = sr.sample_waiting_times(model, k, reps, sr.SeededStream(stream))
            return samples[i]

        index = {"sample": len(ops)}
        ops.append(Op(f"sample_waiting_times {chain} k={k} reps={reps}", draw))
        for family in ("iid", "markov"):
            index[family] = len(ops)
            ops.append(Op(f"fit_{family} sample {i} k={k}",
                          functools.partial(lambda f, i, k: _api(sr, f, samples[i], k), f"fit_{family}", i, k)))
        if i in BOOTSTRAP_SLOTS:
            family = "iid" if is_iid else "markov"
            index["bootstrap"] = len(ops)
            ops.append(Op(f"bootstrap_se sample {i} {family} b={BOOTSTRAP_B}",
                          lambda i=i, k=k, family=family, stream=stream: sr.bootstrap_se(
                              samples[i], k, family, BOOTSTRAP_B, sr.SeededStream(stream + 1))))
        sources.append((chain, is_iid, k, reps, index))

    def check(outputs: list) -> list[str]:
        problems: list[str] = []
        for i, (chain, is_iid, k, reps, index) in enumerate(sources):
            label = f"sample {i} {chain} k={k}"
            out = {kind: outputs[j] for kind, j in index.items()}
            x = out["sample"]
            if x is None:
                continue
            problems += _check_sample(label, x, chain, k, reps)
            truth = _loglik(chain, k, x)
            iid_fit, markov_fit = out["iid"], out["markov"]
            if iid_fit is not None:
                fitted = R.iid(iid_fit.estimates["p"])
                problems += _check_fit(f"{label} fit_iid", iid_fit.loglik, _loglik(fitted, k, x),
                                       truth if is_iid else None)
            if markov_fit is not None:
                a, b = markov_fit.estimates["alpha"], markov_fit.estimates["beta"]
                fitted = R.markov((1.0 - b) / (2.0 - a - b), a, b)
                problems += _check_fit(f"{label} fit_markov", markov_fit.loglik, _loglik(fitted, k, x), truth)
            if iid_fit is not None and markov_fit is not None:
                # IID is the chain with alpha = p, beta = q
                if markov_fit.loglik < iid_fit.loglik - LOGLIK_TOL * abs(iid_fit.loglik):
                    problems.append(f"{label}: fit_markov loglik {markov_fit.loglik!r} "
                                    f"below fit_iid {iid_fit.loglik!r}")
            se = out.get("bootstrap")
            if se is not None and not all(math.isfinite(v) and v > 0.0 for v in se.values()):
                problems.append(f"{label} bootstrap_se: {se}")
        return problems

    return Workload(ops, samples.clear, check)


@functools.lru_cache(maxsize=None)
def _loglik_of_bytes(chain: R.Chain, k: int, sample: bytes) -> float:
    return R.loglik(chain, k, np.frombuffer(sample, dtype=np.int64))


def _loglik(chain: R.Chain, k: int, sample: np.ndarray) -> float:
    return _loglik_of_bytes(chain, k, np.ascontiguousarray(sample, dtype=np.int64).tobytes())


def _check_fit(label: str, loglik: float, at_estimate: float, truth: float | None) -> list[str]:
    """The reported loglik is the likelihood at the estimate, and no lower
    than the likelihood at the parameters that drew the sample."""
    problems = _close_problems(label, [("loglik", loglik, at_estimate)], 1e-9)
    if truth is not None and loglik < truth - LOGLIK_TOL * abs(truth):
        problems.append(f"{label}: loglik {loglik!r} below the truth {truth!r}")
    return problems


def _check_sample(label: str, x: np.ndarray, chain: R.Chain, k: int, reps: int) -> list[str]:
    if x.shape != (reps,) or x.dtype.kind != "i" or int(x.min()) < k:
        return [f"{label}: {x.shape} draws of kind {x.dtype.kind}, smallest {int(x.min())}"]
    mean, second = wait_moments(chain, k, 1, "I")
    z = (float(x.mean()) - mean) / math.sqrt((second - mean * mean) / reps)
    return [] if abs(z) < 6.0 else [f"{label}: sample mean is {z:.1f} standard errors off"]


WORKLOADS = {"tables": tables, "audit": audit, "fit": fit}
