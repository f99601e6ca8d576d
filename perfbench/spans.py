"""Span tracing of tabmem from outside the program.

``Tracer.install`` replaces each traced function at the name through which
its caller reaches it (``tabmem.memorization.fit_normalizer``, not
``tabmem.distance.fit_normalizer``) with a wrapper that records a span, and
``Tracer.remove`` puts the originals back. Spans are kept in memory as
(name, parent, start, end, counters) and reduced to per-layer metrics when
the run ends. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

# (span name, [module attribute paths through which callers reach it]).
TRACED: list[tuple[str, list[str]]] = [
    ("table.load_csv", ["tabmem.cli.load_csv"]),
    ("table.write_csv", ["tabmem.cli.write_csv"]),
    ("table.concat", ["tabmem.fidelity.concat"]),
    ("distance.fit_normalizer", ["tabmem.memorization.fit_normalizer",
                                 "tabmem.fidelity.fit_normalizer"]),
    ("distance.two_nearest", ["tabmem.memorization.two_nearest"]),
    ("distance.pairwise_mixed", ["tabmem.fidelity.pairwise_mixed"]),
    ("parallel.map_blocks", ["tabmem.distance.map_blocks"]),
    ("memorization.audit", ["tabmem.memorization.audit"]),
    ("association.association_matrix", ["tabmem.augment.association_matrix",
                                        "tabmem.cli.association_matrix"]),
    ("association.cluster_features", ["tabmem.augment.cluster_features",
                                      "tabmem.cli.cluster_features"]),
    ("augment.augment", ["tabmem.cli.run_augment"]),
    ("fidelity.full_report", ["tabmem.cli.full_report"]),
    ("fidelity.shape_score", ["tabmem.fidelity.shape_score"]),
    ("fidelity.trend_score", ["tabmem.fidelity.trend_score"]),
    ("fidelity.c2st_score", ["tabmem.fidelity.c2st_score"]),
    ("fidelity.alpha_precision_beta_recall", ["tabmem.fidelity.alpha_precision_beta_recall"]),
    ("fidelity.dcr_probability", ["tabmem.fidelity.dcr_probability"]),
    ("scorelab.run_replication", ["tabmem.cli.run_replication"]),
    ("scorelab.backward_sample", ["tabmem.cli.backward_sample"]),
    ("scorelab.optimal_score", ["tabmem.scorelab.optimal_score"]),
]
ROOT = "cli.main"
SPAN_NAMES = [ROOT] + [name for name, _ in TRACED]

# Spans that also record CPU time and growth of the RSS high-water mark.
RESOURCE_SPANS = {
    ROOT,
    "distance.fit_normalizer",
    "distance.two_nearest",
    "distance.pairwise_mixed",
    "parallel.map_blocks",
    "fidelity.alpha_precision_beta_recall",
    "fidelity.dcr_probability",
}


def _pairs(args, kwargs, result) -> dict:
    generated, train = args[0], args[1]
    return {"pairs": generated.n_rows * train.n_rows}


def _map_blocks(args, kwargs, result) -> dict:
    threads = args[3] if len(args) > 3 else kwargs.get("threads", 1)
    return {"blocks": len(result), "threads": threads}


def _score_rows(args, kwargs, result) -> dict:
    return {"rows": 1 if result.ndim == 1 else result.shape[0]}


def _replication_steps(args, kwargs, result) -> dict:
    config = args[2]
    return {"trajectory_steps": config.steps * config.trajectories}


def _single_steps(args, kwargs, result) -> dict:
    return {"trajectory_steps": args[2]}


# Counters taken from a call's arguments and result.
COUNTERS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "table.load_csv": lambda a, k, r: {"rows": r.n_rows},
    "table.write_csv": lambda a, k, r: {"rows": a[0].n_rows},
    "distance.fit_normalizer": _pairs,
    "distance.two_nearest": _pairs,
    "distance.pairwise_mixed": _pairs,
    "parallel.map_blocks": _map_blocks,
    "scorelab.optimal_score": _score_rows,
    "scorelab.run_replication": _replication_steps,
    "scorelab.backward_sample": _single_steps,
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children's intervals are merged before subtraction, so overlapping
    children are not charged twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Records spans around patched tabmem functions; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, 0.0)
        if name in RESOURCE_SPANS:
            span.counters["rss0"] = _maxrss_mb()
            span.counters["cpu0"] = time.process_time()
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if "cpu0" in span.counters:
            span.counters["cpu_s"] = time.process_time() - span.counters.pop("cpu0")
            span.counters["rss_growth_mb"] = _maxrss_mb() - span.counters.pop("rss0")
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                try:
                    self.spans[index].counters.update(count(args, kwargs, result))
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the counter, not the run
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every target that exists; return the ones that do not."""
        missing = []
        for name, targets in TRACED:
            for target in targets:
                module_name, attr = target.rsplit(".", 1)
                # import_module, because attribute access on the package can
                # resolve to a function (``tabmem.augment``), not the module.
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    missing.append(target)
                    continue
                self._patched.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
        return missing

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-span calls, s and self_s; cpu_s and rss_growth_mb where recorded;
    and the counters, keyed ``<span>.<counter>``: summed, except ``threads``,
    which keeps its largest value."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        if name in RESOURCE_SPANS:
            out[f"{name}.cpu_s"] = 0.0
            out[f"{name}.rss_growth_mb"] = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.s"] += span.end - span.start
        out[f"{span.name}.self_s"] += self_s
        for key, value in span.counters.items():
            k = f"{span.name}.{key}"
            if key == "threads":
                out[k] = max(out.get(k, 0), value)
            else:
                out[k] = out.get(k, 0) + value
    return out
