"""Layer tracing from outside the program.

The traced run wraps the public calls of each layer at the place where
its caller looks the name up: a class attribute for methods, the
importing module's global for functions.  Each wrapped call records a
span (name, start, end, parent, round index) in memory; nothing is
written until the run ends, when :meth:`LayerTracer.chrome_trace` turns
the spans into Chrome trace-event JSON.  Calls made more than 10^5 times
per replay are counted, not timed.

A layer's *self time* is its span's duration minus the time its child
spans cover; spans are strictly nested because the replay runs on one
thread, so the children's durations simply add up.  Every name is looked
up at install time and skipped when the program no longer has it, so a
layer that a later change deletes reads as zero instead of breaking the
benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import Any, Callable

#: (module, owner, attribute, span name).  ``owner`` is a class name in
#: ``module`` or ``None`` for a module-level function.
TIMED: tuple[tuple[str, str | None, str, str], ...] = (
    # set-up: fitting and ingest
    ("repro.framework.dita", "DITAPipeline", "fit", "setup.fit"),
    ("repro.affinity.model", "AffinityModel", "fit", "setup.lda"),
    ("repro.willingness.historical_acceptance", "HistoricalAcceptance", "fit",
     "setup.willingness"),
    ("repro.framework.dita", None, "sample_rrr_sets_batched", "setup.rrr"),
    ("repro.stream", None, "multi_day_stream", "log.build"),
    ("repro.stream.events", "EventLog", "from_columns", "log.build"),
    ("repro.stream.segments", "SegmentedEventLog", "__init__", "log.build"),
    ("paperbench.workloads", "SegmentBuilder", "__call__", "segments.build"),
    # state
    ("repro.stream.state", "StreamState", "apply_log_slice", "state.drain"),
    ("repro.stream.state", "StreamState", "expire_tasks", "state.drain"),
    ("repro.stream.state", "StreamState", "churn_workers", "state.drain"),
    ("repro.stream.state", "StreamState", "retire_pairs", "state.retire"),
    # shard dispatch
    ("repro.stream.runtime", "ShardExecutor", "run_round", "shards.dispatch"),
    # checkpoints and scrapes
    ("repro.stream.runtime", "StreamRuntime", "checkpoint", "checkpoint.save"),
    ("repro.obs", None, "render_prometheus", "obs.scrape"),
    # assignment
    ("repro.stream.state", "StreamState", "prepare_round", "assignment.prepare"),
    ("repro.assignment.base", "RoundState", "prepare", "assignment.prepare"),
    ("repro.assignment.base", None, "compute_feasible", "assignment.prepare"),
    ("repro.assignment.greedy", "NearestNeighborAssigner", "assign",
     "assignment.solve"),
    ("repro.assignment.lexico", "LexicographicCostAssigner", "assign",
     "assignment.solve"),
    ("repro.assignment.lexico", "LexicographicCostAssigner", "assign_warm",
     "assignment.solve"),
    # kernels
    ("repro.assignment.base", None, "pairwise_euclidean", "geo.pairwise"),
    ("repro.influence.model", "InfluenceModel", "influence_matrix",
     "influence.matrix"),
    ("repro.willingness.historical_acceptance", "HistoricalAcceptance",
     "willingness_all", "willingness"),
    ("repro.propagation.rrr", "RRRCollection", "weighted_root_cover_batch",
     "propagation.cover"),
    ("repro.affinity.model", "AffinityModel", "affinity_matrix", "affinity"),
    ("repro.assignment.lexico", None, "solve_lexicographic_matching",
     "flow.solve"),
)

#: Calls too frequent to time (≈149k per paper-ia replay): counted only.
COUNTED: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.affinity.model", "AffinityModel", "task_topics",
     "affinity.topics"),
)


class LayerTracer:
    """In-memory span recorder installed around the layers' public calls."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index, round index, phase, args]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.round = -1
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------ spans
    def open(self, name: str, args: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter_ns(), 0, parent, self.round, self.phase,
             args or {}]
        )
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def note(self, index: int, **args: Any) -> None:
        self.spans[index][6].update(args)

    # ---------------------------------------------------------- install
    def install(self) -> None:
        for module, owner, attr, name in TIMED:
            self._patch(module, owner, attr, self._timed(name))
        for module, owner, attr, name in COUNTED:
            self._patch(module, owner, attr, self._counted(name))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, module_name: str, owner_name: str | None, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is None:
            return
        static = inspect.getattr_static(owner, attr, None)
        if static is None:
            return
        if isinstance(static, classmethod):
            wrapped = classmethod(make(static.__func__))
        elif isinstance(static, staticmethod):
            wrapped = staticmethod(make(static.__func__))
        else:
            wrapped = make(static)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, static))

    def _timed(self, name: str) -> Callable[[Callable], Callable]:
        tracer = self
        observe = OBSERVERS.get(name)
        prepare = BEFORE.get(name)

        def make(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                before = prepare(args) if prepare is not None else None
                index = tracer.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.close(index)
                if observe is not None:
                    observe(tracer, index, args, kwargs, result, before)
                return result

            return wrapper

        return make

    def _counted(self, name: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        return make

    # ---------------------------------------------------------- analysis
    def self_times(self) -> list[int]:
        """Per span: duration minus the duration of its direct children."""
        own = [end - start for _, start, end, *_ in self.spans]
        for span in self.spans:
            parent = span[3]
            if parent >= 0:
                own[parent] -= span[2] - span[1]
        return own

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete events, µs)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[1] for span in self.spans)
        events = []
        for index, (name, start, end, parent, round_index, phase, args) in \
                enumerate(self.spans):
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent, "round": round_index,
                         "phase": phase, **args},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ------------------------------------------------ per-call observations
def _observe_influence(tracer, index, args, kwargs, result, before) -> None:
    tasks = args[2] if len(args) > 2 else kwargs.get("tasks", ())
    tracer.note(index, columns=len(tasks))


def _observe_cover(tracer, index, args, kwargs, result, before) -> None:
    weights = args[1] if len(args) > 1 else kwargs["weights"]
    tracer.note(index, columns=int(weights.shape[1]) if weights.ndim > 1 else 1)


def _observe_pairwise(tracer, index, args, kwargs, result, before) -> None:
    tracer.note(index, cells=int(result.size))


def _observe_drain(tracer, index, args, kwargs, result, before) -> None:
    # Only apply_log_slice(self, slab, local_start, local_stop, ...) has
    # four positional arguments among the drain calls.
    if len(args) >= 4:
        tracer.note(index, events=int(args[3]) - int(args[2]))


def _observe_solve(tracer, index, args, kwargs, result, before) -> None:
    prepared = args[1] if len(args) > 1 else kwargs.get("prepared")
    feasible = getattr(prepared, "__dict__", {}).get("feasible")
    if feasible is not None:
        tracer.note(index, feasible=int(feasible.mask.sum()))


def _observe_flow(tracer, index, args, kwargs, result, before) -> None:
    warm = kwargs.get("worker_ids") is not None
    tracer.note(
        index,
        augmentations=int(getattr(result, "augmentations", 0)),
        seeded=int(getattr(result, "seeded", 0)) if warm else 0,
        matched=int(result.rows.size) if warm else 0,
    )


def _observe_dispatch(tracer, index, args, kwargs, result, before) -> None:
    shard_seconds = list(getattr(result, "shard_seconds", {}).values())
    if shard_seconds:
        mean = sum(shard_seconds) / len(shard_seconds)
        tracer.note(index, skew=max(shard_seconds) / mean if mean > 0 else 1.0)


def _observe_scrape(tracer, index, args, kwargs, result, before) -> None:
    tracer.note(index, bytes=len(result.encode()))


def _chunk_store(args) -> tuple[int, int]:
    """(files, bytes) in the chunk store a checkpoint call writes to."""
    from repro.stream import chunk_store_path

    store = chunk_store_path(args[1])
    if not store.is_dir():
        return 0, 0
    sizes = [entry.stat().st_size for entry in os.scandir(store)]
    return len(sizes), sum(sizes)


def _observe_checkpoint(tracer, index, args, kwargs, result, before) -> None:
    from repro.stream import load_checkpoint_manifest

    files, size = _chunk_store(args)
    tracer.note(
        index,
        chunks_written=files - before[0],
        bytes_written=size - before[1],
        chunks_referenced=len(load_checkpoint_manifest(result)["digests"]),
    )


#: Calls that need a look at the world before they run.
BEFORE: dict[str, Callable] = {"checkpoint.save": _chunk_store}

OBSERVERS: dict[str, Callable] = {
    "checkpoint.save": _observe_checkpoint,
    "influence.matrix": _observe_influence,
    "propagation.cover": _observe_cover,
    "geo.pairwise": _observe_pairwise,
    "state.drain": _observe_drain,
    "assignment.solve": _observe_solve,
    "flow.solve": _observe_flow,
    "shards.dispatch": _observe_dispatch,
    "obs.scrape": _observe_scrape,
}
