"""Run one benchmark workload of successruns and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each operation (one call into a
public successruns function) starts when the previous one returns.  The
workload's operations run in whole rounds until the timed rounds add up to
--seconds.  Outputs are checked after each round, outside the timed spans.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 half the time runs untraced, then every
layer is wrapped (see spans.py) and the rest of the time gives the
per-layer figures, per round, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7


def _import_program():
    """Import successruns from this checkout's src/, and time the import."""
    if not os.path.isfile(os.path.join(SRC, "successruns", "__init__.py")):
        sys.exit(f"run.py: no successruns sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import successruns
    import successruns.cli  # noqa: F401  (the tables workload drives the CLI)

    elapsed = time.perf_counter() - start
    if not os.path.abspath(successruns.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported successruns from {successruns.__file__}, not {SRC}")
    return successruns, elapsed


def _setup_probe(args) -> tuple[float, float]:
    """Set-up time of a fresh process: interpreter start, import, inputs.

    The child reports the monotonic clock (system-wide on Linux) once its
    inputs are built; set-up is that instant minus the instant before spawn.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    spawned = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["ready"] - spawned, report["import_s"]


def _run_rounds(workload, seconds: float, recorder=None):
    """Whole rounds until the timed rounds add up to `seconds`.

    Returns the round times, each round's operation latencies, the failed
    operations, the check problems and the number of rounds.
    """
    walls: list[float] = []
    latencies: list[list[float]] = []
    failures: list[str] = []
    problems: list[str] = []
    rounds = 0
    while not walls or sum(walls) < seconds:
        workload.before_round()
        outputs = []
        latencies.append([])
        round_start = time.perf_counter()
        for index, op in enumerate(workload.ops):
            start = time.perf_counter()
            try:
                out = op.call() if recorder is None else recorder.call("op", index, op.call)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            latencies[-1].append(time.perf_counter() - start)
            outputs.append(out)
        walls.append(time.perf_counter() - round_start)
        rounds += 1
        if recorder is not None:
            recorder.round_done()
        problems += workload.check(outputs)
    return walls, latencies, failures, problems, rounds


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(walls, latencies, setups) -> dict:
    """Medians over rounds: each round is one full sample of the workload."""
    p50 = 1e3 * statistics.median(statistics.median(lat) for lat in latencies)
    p90 = 1e3 * statistics.median(statistics.quantiles(lat, n=10)[8] for lat in latencies)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "op_p50_ms": _metric(p50, "ms"),
        "op_p90_ms": _metric(p90, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(recorder, rounds: int, imports, overhead: float) -> dict:
    spans = recorder.summary()
    work = recorder.work

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per_round(x):
        return x / rounds

    def ratio(part, whole):
        return part / whole if whole else 0.0

    fits = calls("inference.fit_iid") + calls("inference.fit_markov")
    enumerations = calls("oracle.enumerate_exact")
    hits, misses = recorder.cache_hits, recorder.cache_misses
    metrics = {}
    for name in ("polyseries.series", "polyseries.poly_mul", "geometric.vk_pmf",
                 "geometric.longest_run_pmf", "rth_waiting.trk_pmf", "rth_waiting.trk_moments",
                 "run_counts.counts_pmf", "oracle.enumerate_exact", "oracle.sample_waiting_times",
                 "inference.loglik_vk", "inference.bootstrap_se", "checks.entry", "cli.main",
                 "models.pmf"):
        metrics[f"{name}.calls"] = _metric(per_round(calls(name)), "count")
        metrics[f"{name}.self_ms"] = _metric(per_round(spans.get(name, {}).get("self_ms", 0.0)), "ms")
    metrics.update({
        "polyseries.series.madds": _metric(per_round(work["polyseries.series"]), "count"),
        "polyseries.poly_mul.madds": _metric(per_round(work["polyseries.poly_mul"]), "count"),
        "geometric.h_terms": _metric(per_round(work["geometric.vk_pmf"]), "count"),
        "geometric.vk_pmf_per_longest": _metric(ratio(
            recorder.count_under("geometric.vk_pmf", ("geometric.longest_run_pmf",)),
            calls("geometric.longest_run_pmf")), "ratio"),
        "rth_waiting.factors_per_pmf": _metric(ratio(
            recorder.count_under("rth_waiting.occurrence_factors", ("rth_waiting.trk_pmf",)),
            calls("rth_waiting.trk_pmf")), "ratio"),
        "run_counts.trk_pmf_per_count": _metric(ratio(
            recorder.count_under("rth_waiting.trk_pmf", ("run_counts.counts_pmf",)),
            calls("run_counts.counts_pmf")), "ratio"),
        "oracle.rows": _metric(per_round(work["oracle.enumerate_exact"]), "count"),
        "oracle.rows_per_statistic": _metric(ratio(work["oracle.enumerate_exact"], enumerations), "ratio"),
        "inference.loglik_per_fit": _metric(ratio(
            recorder.count_under("inference.loglik_vk", ("inference.fit_iid", "inference.fit_markov")),
            fits), "ratio"),
        "inference.nm_iterations": _metric(per_round(work["inference.nelder_mead"]), "count"),
        "checks.cache_hit_ratio": _metric(ratio(hits, hits + misses), "ratio"),
        "checks.cache_misses": _metric(per_round(misses), "count"),
        "cli.bytes_out": _metric(per_round(work["cli.main"]), "B"),
        "import.self_ms": _metric(1e3 * statistics.median(imports), "ms"),
        "trace.overhead": _metric(overhead, "ratio"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, checks_caches

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    sr, import_s = _import_program()
    build = WORKLOADS[args.workload]
    if args.setup_probe:
        build(sr, args.seed)
        print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
        return 0

    setups, imports = zip(*(_setup_probe(args) for _ in range(SETUP_PROBES)))
    workload = build(sr, args.seed)
    if args.trace:
        import spans

        half = args.seconds / 2.0
        base_walls, _, failures, problems, rounds = _run_rounds(workload, half)
        recorder = spans.install(sr)
        recorder.caches = checks_caches(sr)
        workload = build(sr, args.seed)  # rebuilt so the catalog entries are the wrapped ones
        walls, _, traced_failures, traced_problems, traced_rounds = _run_rounds(workload, half, recorder)
        failures += traced_failures
        problems += traced_problems
        rounds += traced_rounds
        overhead = statistics.median(walls) / statistics.median(base_walls)
        metrics = _per_layer(recorder, traced_rounds, imports, overhead)
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"))
    else:
        walls, latencies, failures, problems, rounds = _run_rounds(workload, args.seconds)
        metrics = _end_to_end(walls, latencies, setups)

    for line in failures + problems:
        print(f"run.py: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * len(workload.ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
