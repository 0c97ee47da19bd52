"""Outside-in tracer for flowrank.

The tracer never edits the program: it replaces module attributes with
timing wrappers for the duration of a `with tracer.installed():` block and
puts the originals back afterwards. A function is wrapped at every module
that looks it up at run time (`evaluate.statistic` as well as
`ranktest.statistic`, `cli.split_windows`, `hashrank.statistic_uncensored`),
because a module that did `from .x import f` holds its own reference.

Generator functions are timed per `next()`. Spans (name, start, end,
parent, job id) stay in memory in flat arrays until the run ends; a span's
self time is its duration minus the durations of its child spans. Jobs run
in one thread, so spans nest strictly.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): every lookup site of a traced function
SITES = (
    ("cli", "cmd_detect", "cli.cmd_detect"),
    ("cli", "cmd_roc", "cli.cmd_roc"),
    ("cli", "iter_flow_csv", "ingest.iter_flow_csv"),
    ("ingest", "iter_flow_csv", "ingest.iter_flow_csv"),
    ("cli", "split_windows", "ingest.split_windows"),
    ("ingest", "bin_window", "ingest.bin_window"),
    ("cli", "toprank_window", "toprank.run_window"),
    ("toprank", "top_filter", "toprank.top_filter"),
    ("evaluate", "top_filter", "toprank.top_filter"),
    ("toprank", "censor", "toprank.censor"),
    ("evaluate", "censor", "toprank.censor"),
    ("cli", "hashrank_window", "hashrank.run_window"),
    ("cli", "sample_coefficients", "hashrank.sample_coefficients"),
    ("evaluate", "sample_coefficients", "hashrank.sample_coefficients"),
    ("hashrank", "build_sketch", "hashrank.build_sketch"),
    ("evaluate", "build_sketch", "hashrank.build_sketch"),
    ("hashrank", "cell_outcomes", "hashrank.cell_outcomes"),
    ("evaluate", "cell_outcomes", "hashrank.cell_outcomes"),
    ("hashrank", "invert", "hashrank.invert"),
    ("toprank", "detect", "ranktest.detect"),
    ("ranktest", "statistic", "ranktest.statistic"),
    ("evaluate", "statistic", "ranktest.statistic"),
    ("hashrank", "statistic_uncensored", "ranktest.statistic_uncensored"),
    ("evaluate", "statistic_uncensored", "ranktest.statistic_uncensored"),
    ("ranktest", "pvalue", "ranktest.pvalue"),
    ("cli", "comprehensive", "evaluate.comprehensive"),
    ("cli", "roc", "evaluate.roc"),
    ("cli", "generate", "synth.generate"),
    ("evaluate", "generate", "synth.generate"),
    ("evaluate", "to_window_batch", "synth.to_window_batch"),
)
GENERATORS = frozenset({"ingest.iter_flow_csv", "ingest.split_windows"})
# generator sites whose items are counted: only the outermost lookup, so a
# generator that delegates to itself is not counted twice
ITEM_COUNTERS = {
    ("cli", "iter_flow_csv"): "ingest.records",
    ("cli", "split_windows"): "ingest.windows",
}
RANKTEST = ("ranktest.detect", "ranktest.statistic", "ranktest.statistic_uncensored", "ranktest.pvalue")

# per-layer metrics of one job: (unit, better); BENCHMARK.json lists them per method
LAYER_METRICS = {
    "ingest.parse_s": ("s", "lower"),
    "ingest.records": ("count", "higher"),
    "ingest.lines_skipped": ("count", "lower"),
    "ingest.bin_s": ("s", "lower"),
    "ingest.keys": ("count", "higher"),
    "ingest.windows": ("count", "higher"),
    "toprank.top_filter_s": ("s", "lower"),
    "toprank.censor_s": ("s", "lower"),
    "toprank.series_tested": ("count", "lower"),
    "toprank.alarms": ("count", "lower"),
    "hashrank.build_sketch_s": ("s", "lower"),
    "hashrank.keys_hashed": ("count", "lower"),
    "hashrank.cell_tests_s": ("s", "lower"),
    "hashrank.cells_flagged": ("count", "lower"),
    "hashrank.invert_s": ("s", "lower"),
    "hashrank.suspects": ("count", "lower"),
    "hashrank.inversion_yield": ("fraction", "higher"),
    "ranktest.test_s": ("s", "lower"),
    "ranktest.series_tested": ("count", "lower"),
    "ranktest.us_per_series": ("us", "lower"),
    "ranktest.degenerate_share": ("fraction", "lower"),
    "ranktest.pvalue_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "synth.to_window_batch_s": ("s", "lower"),
    "evaluate.sweep_s": ("s", "lower"),
    "evaluate.comprehensive_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "job.wall_s": ("s", "lower"),
    "job.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# layers that only one method runs; the rest are reported for every method
METHOD_LAYERS = {"toprank": "toprank", "hashrank": "hashrank", "evaluate.comprehensive_s": "full"}


def metrics_for(method: str) -> list[str]:
    """Per-layer metric names (without the method prefix) a job of `method` reports."""
    out = []
    for name in LAYER_METRICS:
        owner = METHOD_LAYERS.get(name, METHOD_LAYERS.get(name.split(".")[0]))
        if owner in (None, method):
            out.append(name)
    return out


class _TracedIter:
    """Iterator proxy that records one span per `next()`."""

    __slots__ = ("_it", "_tracer", "_nid", "_counter")

    def __init__(self, it, tracer, nid, counter):
        self._it, self._tracer, self._nid, self._counter = it, tracer, nid, counter

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        i = tr.open(self._nid)
        try:
            item = next(self._it)
        finally:
            tr.close(i)
        if self._counter is not None:
            tr.count(self._counter)
        return item


class Tracer:
    """Span store plus per-job counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = 0
        self.counters: dict[tuple[int, str], float] = {}
        self.missing: list[str] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        key = (self.job_id, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name: str, item_counter):
        nid = self._nid(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                return _TracedIter(fn(*args, **kwargs), tracer, nid, item_counter)
        else:
            def wrapper(*args, **kwargs):
                i = tracer.open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(i)
                if observe is not None:
                    observe(tracer, args, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in SITES:
                module = importlib.import_module(f"flowrank.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                counter = ITEM_COUNTERS.get((module_name, attr))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def job_metrics(self, job_id: int, data_lines: int) -> dict[str, float]:
        """Per-layer metrics of one job from its spans and counters.

        `*_s` metrics are the inclusive time of the named functions (an
        inner span of the same layer is not counted twice), except
        `ingest.parse_s`, `evaluate.sweep_s` and `cli.write_s`, which are
        self times as documented in the README.
        """
        nids = np.frombuffer(self.name_id, dtype=np.int32)
        sel = np.frombuffer(self.job, dtype=np.int32) == job_id
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        parent_nid = np.where(has_parent, nids[np.maximum(parent, 0)], -1)

        def ids(names):
            return np.array([self._ids[n] for n in names if n in self._ids], dtype=np.int32)

        def inclusive(*names):
            group = ids(names)
            mask = sel & np.isin(nids, group) & ~np.isin(parent_nid, group)
            return float(dur[mask].sum())

        def own(*names):
            return float(self_time[sel & np.isin(nids, ids(names))].sum())

        def c(name):
            return float(self.counters.get((job_id, name), 0))

        tested = c("ranktest.series_tested")
        test_s = inclusive(*RANKTEST)
        flagged_keys = c("hashrank.keys_under_flagged")
        return {
            "ingest.parse_s": own("ingest.iter_flow_csv", "ingest.split_windows"),
            "ingest.records": c("ingest.records"),
            "ingest.lines_skipped": data_lines - c("ingest.records") if data_lines else 0.0,
            "ingest.bin_s": inclusive("ingest.bin_window"),
            "ingest.keys": c("ingest.keys"),
            "ingest.windows": c("ingest.windows"),
            "toprank.top_filter_s": inclusive("toprank.top_filter"),
            "toprank.censor_s": inclusive("toprank.censor"),
            "toprank.series_tested": c("toprank.series_tested"),
            "toprank.alarms": c("toprank.alarms"),
            "hashrank.build_sketch_s": inclusive("hashrank.build_sketch"),
            "hashrank.keys_hashed": c("hashrank.keys_hashed"),
            "hashrank.cell_tests_s": inclusive("hashrank.cell_outcomes"),
            "hashrank.cells_flagged": c("hashrank.cells_flagged"),
            "hashrank.invert_s": inclusive("hashrank.invert"),
            "hashrank.suspects": c("hashrank.suspects"),
            "hashrank.inversion_yield": c("hashrank.suspects") / flagged_keys if flagged_keys else 0.0,
            "ranktest.test_s": test_s,
            "ranktest.series_tested": tested,
            "ranktest.us_per_series": 1e6 * test_s / tested if tested else 0.0,
            "ranktest.degenerate_share": c("ranktest.degenerate") / tested if tested else 0.0,
            "ranktest.pvalue_s": inclusive("ranktest.pvalue"),
            "synth.generate_s": inclusive("synth.generate"),
            "synth.to_window_batch_s": inclusive("synth.to_window_batch"),
            "evaluate.sweep_s": own("evaluate.roc"),
            "evaluate.comprehensive_s": inclusive("evaluate.comprehensive"),
            "cli.write_s": own("cli.cmd_detect", "cli.cmd_roc"),
        }


def _observe_bin(tr, args, batch):
    tr.count("ingest.keys", batch.num_keys)


def _observe_censor(tr, args, result):
    tr.count("toprank.series_tested")


def _observe_toprank(tr, args, alarms):
    tr.count("toprank.alarms", len(alarms))


def _observe_sketch(tr, args, table):
    tr.count("hashrank.keys_hashed", args[0].num_keys)


def _observe_invert(tr, args, suspects):
    table, cells = args[0], set(args[1])
    under = set()
    for row, bucket in cells:
        under.update(table.cell_keys[row - 1][bucket - 1])
    tr.count("hashrank.cells_flagged", len(cells))
    tr.count("hashrank.suspects", len(suspects))
    tr.count("hashrank.keys_under_flagged", len(under))


def _observe_test(tr, args, outcome):
    tr.count("ranktest.series_tested")
    tr.count("ranktest.degenerate", int(outcome.degenerate))


_OBSERVERS = {
    "ingest.bin_window": _observe_bin,
    "toprank.censor": _observe_censor,
    "toprank.run_window": _observe_toprank,
    "hashrank.build_sketch": _observe_sketch,
    "hashrank.invert": _observe_invert,
    "ranktest.statistic": _observe_test,
    "ranktest.statistic_uncensored": _observe_test,
}


def warn_missing(tracer: Tracer) -> None:
    if tracer.missing:
        print("perfbench: not traced (attribute gone): " + ", ".join(sorted(set(tracer.missing))),
              file=sys.stderr)
