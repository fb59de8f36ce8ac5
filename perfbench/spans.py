"""Span recorder for the traced run.

:func:`install` wraps the public functions of each successruns layer at
every binding: the package re-exports names and the modules import them into
their own namespaces (``from .geometric import vk_pmf``), so every module
attribute that is the original function is replaced.  Methods are patched on
their class, and the catalog entries in their ``CATALOG`` tuples.

A span is (name, operation, parent span, start, end).  Spans are kept in
memory in flat arrays and written out at the end; self time, counts, work
totals and ratios are derived from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: Counter = Counter()  # work counts summed at the span boundaries
        self.op = -1  # the operation the next spans belong to
        self._stack: list[int] = []
        self.caches: list = []  # lru caches whose statistics round_done() sums
        self.cache_hits = 0
        self.cache_misses = 0

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.span_name.append(name_id)
        self.span_op.append(self.op)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        """fn inside a span; work(args, kwargs, result) adds to work[name]."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if work is not None:
                    self.work[name] += work(args, kwargs, out)
                return out
            finally:
                self._close(index)

        return traced

    def call(self, name: str, op: int, fn):
        """Run one benchmark operation inside a span of its own."""
        self.op = op
        index = self._open(name)
        try:
            return fn()
        finally:
            self._close(index)

    def round_done(self) -> None:
        """Add the caches' hits and misses; callers clear them between rounds."""
        for cache in self.caches:
            info = cache.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses

    # -- derived figures ---------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms per span name."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = duration.copy()
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], duration[has_parent])
        out = {}
        for name_id, name in enumerate(self.names):
            mine = names == name_id
            out[name] = {
                "calls": int(mine.sum()),
                "total_ms": 1e3 * float(duration[mine].sum()),
                "self_ms": 1e3 * float(own[mine].sum()),
            }
        return out

    def count_under(self, child: str, ancestors: tuple[str, ...]) -> int:
        """Spans named child that run inside a span named one of ancestors."""
        ids = {self._name_ids[a] for a in ancestors if a in self._name_ids}
        if child not in self._name_ids or not ids:
            return 0
        child_id = self._name_ids[child]
        inside = np.zeros(len(self.start), dtype=bool)
        count = 0
        for i, (name_id, parent) in enumerate(zip(self.span_name, self.span_parent)):
            if parent >= 0:
                inside[i] = inside[parent] or self.span_name[parent] in ids
            if name_id == child_id and inside[i]:
                count += 1
        return count

    def write(self, path) -> None:
        """All spans as gzipped JSON columns; times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        record = {
            "names": self.names,
            "name": list(self.span_name),
            "op": list(self.span_op),
            "parent": list(self.span_parent),
            "start": [round(t - t0, 7) for t in self.start],
            "end": [round(t - t0, 7) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _poly_mul_work(args, kwargs, out) -> int:
    a, b = args
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _cli_bytes(args, kwargs, out) -> int:
    # the benchmark hands cli.main a fresh StringIO as standard output
    getvalue = getattr(sys.stdout, "getvalue", None)
    return len(getvalue().encode()) if getvalue else 0


#: span name -> (module, attribute, work measure).  The module is a
#: successruns submodule name; for methods it is "module.Class".
TARGETS = {
    "polyseries.series": ("polyseries.RationalGF", "series",
                          lambda a, kw, out: (_arg(a, kw, 1, "nmax") + 1) * (len(a[0].den.coeffs) - 1)),
    "polyseries.poly_mul": ("polyseries.Poly", "__mul__", _poly_mul_work),
    "geometric.vk_pmf": ("geometric", "vk_pmf", lambda a, kw, out: len(out.probs) * _arg(a, kw, 1, "k")),
    "geometric.longest_run_pmf": ("geometric", "longest_run_pmf", None),
    "rth_waiting.trk_pmf": ("rth_waiting", "trk_pmf", None),
    "rth_waiting.occurrence_factors": ("rth_waiting", "occurrence_factors", None),
    "rth_waiting.trk_moments": ("rth_waiting", "trk_moments", None),
    "run_counts.counts_pmf": ("run_counts", "counts_pmf", None),
    "oracle.enumerate_exact": ("oracle", "enumerate_exact", lambda a, kw, out: 1 << _arg(a, kw, 1, "n")),
    "oracle.sample_waiting_times": ("oracle", "sample_waiting_times", None),
    "inference.loglik_vk": ("inference", "loglik_vk", None),
    "inference.fit_iid": ("inference", "fit_iid", None),
    "inference.fit_markov": ("inference", "fit_markov", None),
    "inference.nelder_mead": ("inference", "nelder_mead", lambda a, kw, out: out.iterations),
    "inference.bootstrap_se": ("inference", "bootstrap_se", None),
    "cli.main": ("cli", "main", _cli_bytes),
    "models.pmf": ("models.Pmf", "__init__", None),
}


def install(sr) -> Recorder:
    """Wrap every target at every binding in the loaded successruns modules."""
    recorder = Recorder()
    modules = [m for name, m in sys.modules.items() if name == "successruns" or name.startswith("successruns.")]
    for name, (where, attr, work) in TARGETS.items():
        module_name, _, class_name = where.partition(".")
        owner = getattr(sr, module_name)
        if class_name:
            owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            wrapper = recorder.wrap(name, original, work)
            for slot, value in list(vars(owner).items()):
                if value is original:  # Poly.__rmul__ is Poly.__mul__
                    setattr(owner, slot, wrapper)
            continue
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original, work)
        for module in modules:
            for slot, value in list(vars(module).items()):
                if value is original:
                    setattr(module, slot, wrapper)
    for name in ("successruns.checks_iid", "successruns.checks_markov"):
        if name in sys.modules:  # loaded by the workloads that run the catalog
            module = sys.modules[name]
            module.CATALOG = tuple(recorder.wrap("checks.entry", fn) for fn in module.CATALOG)
    return recorder
