"""Span tracing around the public functions of each layer, with Spark counters.

A :class:`Tracer` replaces every public function of a layer module, at every
``repro`` module attribute that holds it (callers import with
``from ... import ...``), by a wrapper that records one span per call:
name, layer, start, end, parent span and run id. Each span runs its Spark
jobs under a job group of its own (the parent's group is restored on exit),
so the jobs, stages and task metrics of the span are read back from the
status tracker and the status store when the span ends, before Spark's
retention limit of 1000 jobs and stages can evict them.

Jobs are charged to the innermost span that is open when they are submitted.
Functions that return a lazy DataFrame therefore do no Spark work of their
own: the plan they build runs later, inside their caller's span, and is
charged to the caller's self time and counters (see ``LAZY``).

Kernels are not wrapped: they run inside Spark's Python workers, which the
driver-side wrappers never reach. ``perfbench.replay`` measures them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

from py4j.protocol import Py4JJavaError

#: layer name -> module whose public functions make up the layer
LAYER_MODULES = {
    "two_means": "repro.core.two_means",
    "stats": "repro.common.stats",
    "gkmeans": "repro.core.gkmeans",
    "knn_graph": "repro.core.knn_graph",
    "bkm": "repro.core.bkm",
    "closure": "repro.baselines.closure",
}

#: functions that return an unexecuted DataFrame plan; their work is
#: charged to the span of whoever runs the plan
LAZY = ("candidate_labels", "top_kappa", "in_cluster_pairs", "random_graph",
        "random_partition", "initial_labels_from_tree")

COUNTERS = ("jobs", "stages", "tasks", "tasks_failed", "task_s", "gc_s",
            "shuffle_mb")

#: which end-to-end metrics each group of per-layer metrics should move, per
#: workload; an empty list predicts no change there
MOVES = {
    "two_means.*": {"tab2_gk": ["init_s", "cluster_init_s", "total_s"],
                    "bkm_closure": ["init_s", "cluster_init_s", "total_s"]},
    "stats.*, *.tasks": {
        "tab2_gk": ["cluster_iter_s", "assign_pts_per_s", "init_s", "total_s"],
        "bkm_closure": ["cluster_iter_s", "assign_pts_per_s", "total_s"]},
    "gkmeans.*": {"tab2_gk": ["cluster_iter_s", "assign_pts_per_s", "init_s", "total_s"],
                  "bkm_closure": []},
    "knn_graph.*": {"tab2_gk": ["init_s", "total_s", "final_E"], "bkm_closure": []},
    "bkm.*": {"tab2_gk": [], "bkm_closure": ["cluster_iter_s", "assign_pts_per_s", "total_s"]},
    "closure.*": {"tab2_gk": [],
                  "bkm_closure": ["cluster_init_s", "cluster_iter_s", "init_s",
                                  "assign_pts_per_s", "total_s"]},
    "kernels.*": {"tab2_gk": [], "bkm_closure": ["cluster_iter_s", "assign_pts_per_s"]},
}

_GROUP = "spark.jobGroup.id"
_DESC = "spark.job.description"


@dataclass
class Span:
    """One call of a wrapped function."""

    id: int
    name: str
    layer: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    result_partitions: int | None = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "parent": self.parent, "run_id": self.run_id,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "lazy": self.name in LAZY, **self.counters,
        }


class Tracer:
    """Wraps the layer functions of ``repro`` while installed.

    Use as a context manager; the original functions are put back on exit.
    """

    def __init__(self, spark, run_id: str):
        self.sc = spark.sparkContext
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._charged_stages: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []
        #: seconds spent switching job groups and reading counters
        self.bookkeeping_s = 0.0

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        for layer, modname in LAYER_MODULES.items():
            mod = importlib.import_module(modname)
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != modname:
                    continue
                self._patch_everywhere(fn, self._wrap(layer, name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch_everywhere(self, fn, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                out = fn(*args, **kwargs)
                if name == "two_means_tree":
                    span.result_partitions = out.rdd.getNumPartitions()
            finally:
                self._close(span)
            return out

        return traced

    # -- spans --------------------------------------------------------------
    def _open(self, layer: str, name: str) -> Span:
        t0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans), name=name, layer=layer,
            parent=parent.id if parent else None, run_id=self.run_id, start=0.0,
        )
        self.sc.setJobGroup(self._group(span), f"{layer}.{name}")
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        self._bookkeeping(parent, span.start - t0)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            self.sc.setJobGroup(self._group(parent), f"{parent.layer}.{parent.name}")
            parent.child_s += span.end - span.start
        else:
            self.sc.setLocalProperty(_GROUP, None)
            self.sc.setLocalProperty(_DESC, None)
        self._read_counters(span)
        self._bookkeeping(parent, time.perf_counter() - span.end)

    def _bookkeeping(self, parent: Span | None, seconds: float) -> None:
        """Charge the tracer's own time to no span's self time."""
        self.bookkeeping_s += seconds
        if parent is not None:
            parent.child_s += seconds

    def _group(self, span: Span) -> str:
        return f"perfbench-{self.run_id}-{span.id}"

    def _read_counters(self, span: Span) -> None:
        jsc = self.sc._jsc.sc()
        # The status store is fed asynchronously by the listener bus.
        jsc.listenerBus().waitUntilEmpty()
        store = jsc.statusStore()
        tracker = self.sc.statusTracker()
        c = span.counters
        for job_id in tracker.getJobIdsForGroup(self._group(span)):
            info = tracker.getJobInfo(job_id)
            c["jobs"] += 1
            for sid in info.stageIds if info else ():
                if sid in self._charged_stages:
                    continue
                try:
                    st = store.lastStageAttempt(sid)
                except Py4JJavaError as e:
                    if "NoSuchElementException" in str(e):
                        continue  # the stage never started
                    raise
                if st.status().toString() == "SKIPPED":
                    continue
                self._charged_stages.add(sid)
                c["stages"] += 1
                c["tasks"] += st.numCompleteTasks() + st.numFailedTasks()
                c["tasks_failed"] += st.numFailedTasks()
                c["task_s"] += st.executorRunTime() / 1000.0
                c["gc_s"] += st.jvmGcTime() / 1000.0
                c["shuffle_mb"] += st.shuffleWriteBytes() / 1e6


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """Per-layer ``calls``, ``self_s`` and Spark counters, plus run totals."""
    out: dict[str, float] = {}
    for layer in LAYER_MODULES:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(s.self_s for s in mine)
        for key in COUNTERS:
            out[f"{layer}.{key}"] = sum(s.counters[key] for s in mine)
    for key in ("jobs", "stages", "tasks", "tasks_failed", "task_s"):
        out[f"spark.{key}"] = sum(s.counters[key] for s in spans)
    trees = [s.result_partitions for s in spans if s.result_partitions is not None]
    out["two_means.out_partitions"] = trees[-1] if trees else 0
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    leaf = name.rsplit(".", 1)[1]
    if leaf.endswith("_gflop"):
        return "GFLOP-computed"
    if name.startswith("kernels.") and leaf.endswith("_mb"):
        return "MB-computed"
    if leaf.endswith("_mb"):
        return "MB"
    if leaf.endswith("_s"):
        return "s"
    if leaf == "evals_per_point":
        return "evals/point"
    if leaf in ("share", "recall"):
        return "fraction"
    if leaf == "final_E":
        return "sq_dist"
    return "count"
