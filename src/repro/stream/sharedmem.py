"""Fork-once shared-memory workers for the process executor backend.

The legacy process backend pickled every prepared sub-instance — workers,
tasks, histories, matrices — to the pool on every round, which caps world
size long before "millions of users".  This module replaces the shipping
with :mod:`multiprocessing.shared_memory`:

* :class:`SharedSlabs` publishes the columnar :class:`~repro.stream.events.EventLog`
  payload side-tables (worker/task attribute rectangles + id vectors) as
  read-only shared blocks **once per run**; pool workers attach them in
  their initializer and rebuild entities from payload *slots*.
* :class:`ShardScratch` is one reusable shared block per shard holding the
  round's prepared rectangles (distance, feasibility mask, influence,
  entropy) plus the slot vectors.  It grows
  geometrically and is rewritten in place each round, so the per-round
  message to a worker shrinks to a tiny header dict — block name, shapes
  and the round clock.
* :func:`solve_shared_shard` runs in the worker: it maps the scratch
  views zero-copy into a :class:`~repro.assignment.PreparedInstance`,
  solves, and returns plain ``(row, column)`` index pairs; the caller
  rebuilds the full-fidelity assignment against its own prepared instance
  via ``build_assignment`` (which re-validates feasibility), keeping the
  merged round bit-identical to the serial backend.

Preparation always stays in the calling process — the influence model's
column caches live there — so the solve, the CPU-bound part, is all that
crosses the process boundary.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.assignment.base import Assigner, FeasiblePairs, PreparedInstance
from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.geo import Point
from repro.stream.events import EventLog

__all__ = [
    "SharedSlabs",
    "ShardScratch",
    "fork_capable_context",
    "init_shared_worker",
    "solve_shared_shard",
]


def fork_capable_context():
    """The ``fork`` start method when the platform has it, else the default.

    Fork lets the pool inherit the parent's loaded modules (no re-import
    per worker) and is what makes "fork-once" cheap; spawn platforms still
    work — the initializer re-attaches the published slabs by name.
    """
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without adopting cleanup responsibility.

    Ownership stays with the :class:`SharedSlabs`/:class:`ShardScratch`
    publisher; attachments here are read-only leases.  On Python 3.13+
    ``track=False`` expresses that directly.  On older versions the attach
    re-registers the name with the resource tracker — harmless here: the
    pool is forked from the publisher, so both sides talk to the *same*
    tracker process, whose per-name cache is a set (the duplicate register
    is a no-op and the publisher's eventual unlink unregisters it once).
    Explicitly unregistering from the worker instead would corrupt that
    shared cache and make the publisher's unlink raise.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _block_of(array: np.ndarray) -> shared_memory.SharedMemory:
    block = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
    view[...] = array
    del view
    return block


class SharedSlabs:
    """The event log's payload side-tables, published once as shared blocks."""

    def __init__(self, log: EventLog) -> None:
        self._blocks: dict[str, shared_memory.SharedMemory] = {}
        specs = []
        for key, array in log.payload_slabs().items():
            array = np.ascontiguousarray(array)
            block = _block_of(array)
            self._blocks[key] = block
            specs.append((key, block.name, array.dtype.str, array.shape))
        #: What a worker initializer needs to re-attach every slab:
        #: ``(key, shm name, dtype, shape)`` per slab — plain picklables.
        self.specs: tuple = tuple(specs)

    def close(self) -> None:
        """Release and unlink every published slab (idempotent)."""
        blocks, self._blocks = self._blocks, {}
        for block in blocks.values():
            try:
                block.close()
                block.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


def _scratch_fields(workers: int, tasks: int, inline: bool):
    """Field layout of one shard's scratch block, in buffer order.

    Two variants share the common rectangles; what follows them differs:

    * legacy (``inline=False``): per-round *slot vectors* naming rows of
      the per-run :class:`SharedSlabs` payload tables (materialized logs,
      whose side-tables exist for the whole run);
    * inline (``inline=True``): the entity attribute rectangles and id
      vectors themselves, in shard-row order.  Segmented logs use this —
      their payload tables live inside transient per-segment slabs, so no
      stable run-wide slot space exists to point into.
    """
    fields = [
        ("distance", np.float64, (workers, tasks)),
        ("influence", np.float64, (workers, tasks)),
        ("entropy", np.float64, (tasks,)),
    ]
    if inline:
        fields += [
            ("worker_attrs", np.float64, (workers, 4)),
            ("task_attrs", np.float64, (tasks, 4)),
            ("worker_ids", np.int64, (workers,)),
            ("task_ids", np.int64, (tasks,)),
        ]
    else:
        fields += [
            ("worker_slots", np.int64, (workers,)),
            ("task_slots", np.int64, (tasks,)),
        ]
    fields.append(("mask", np.bool_, (workers, tasks)))
    return fields


def _scratch_views(
    buffer, workers: int, tasks: int, inline: bool = False
) -> dict[str, np.ndarray]:
    """Deterministic layout of one shard's round rectangles in a buffer.

    Publisher and solver both derive the views from ``(workers, tasks,
    inline)`` alone, so no offsets travel in the per-round message.  The
    8-byte dtypes come first, the byte-wide mask last, keeping every view
    aligned.
    """
    offset = 0
    views: dict[str, np.ndarray] = {}
    for name, dtype, shape in _scratch_fields(workers, tasks, inline):
        view = np.ndarray(shape, dtype=dtype, buffer=buffer, offset=offset)
        views[name] = view
        offset += view.nbytes
    return views


def _scratch_bytes(workers: int, tasks: int, inline: bool = False) -> int:
    return sum(
        np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64))
        for _, dtype, shape in _scratch_fields(workers, tasks, inline)
    )


class ShardScratch:
    """One shard's reusable shared block for per-round rectangles.

    ``publish`` rewrites the block in place each round and only allocates
    a fresh (larger) segment when the shard outgrows it — the common round
    ships zero new shared memory, just a header dict.
    """

    def __init__(self) -> None:
        self._block: shared_memory.SharedMemory | None = None

    def publish(
        self,
        *,
        shard: int,
        now: float,
        distance: np.ndarray,
        mask: np.ndarray,
        influence: np.ndarray,
        entropy: np.ndarray,
        worker_slots: np.ndarray | None = None,
        task_slots: np.ndarray | None = None,
        worker_attrs: np.ndarray | None = None,
        worker_ids: np.ndarray | None = None,
        task_attrs: np.ndarray | None = None,
        task_ids: np.ndarray | None = None,
    ) -> dict:
        """Copy one round's rectangles in and return the solve header.

        Exactly one entity addressing mode must be supplied: the legacy
        slot vectors (rows into the run-wide :class:`SharedSlabs`), or the
        inline attribute rectangles + id vectors for logs whose payload
        tables are transient (segmented replay).  The header's ``inline``
        flag tells :func:`solve_shared_shard` which layout to map.
        """
        inline = worker_attrs is not None
        workers, tasks = distance.shape
        needed = _scratch_bytes(workers, tasks, inline)
        if self._block is None or self._block.size < needed:
            self.close()
            self._block = shared_memory.SharedMemory(
                create=True, size=max(needed, 4096)
            )
        views = _scratch_views(self._block.buf, workers, tasks, inline)
        views["distance"][...] = distance
        views["influence"][...] = influence
        views["entropy"][...] = entropy
        if inline:
            views["worker_attrs"][...] = worker_attrs
            views["task_attrs"][...] = task_attrs
            views["worker_ids"][...] = worker_ids
            views["task_ids"][...] = task_ids
        else:
            views["worker_slots"][...] = worker_slots
            views["task_slots"][...] = task_slots
        views["mask"][...] = mask
        del views
        return {
            "shard": shard,
            "name": self._block.name,
            "workers": workers,
            "tasks": tasks,
            "now": now,
            "inline": inline,
        }

    def close(self) -> None:
        """Release and unlink the block (idempotent)."""
        block, self._block = self._block, None
        if block is not None:
            try:
                block.close()
                block.unlink()
            except OSError:  # pragma: no cover - already gone
                pass


# --------------------------------------------------------------------------
# Worker-process side.  Module globals are per-process: the initializer
# fills the slab views once, and scratch attachments are cached per shard
# (re-attached only when a shard's block was regrown under a new name).
_worker_slabs: dict[str, np.ndarray] = {}
_worker_blocks: list[shared_memory.SharedMemory] = []
_scratch_cache: dict[int, tuple[str, shared_memory.SharedMemory]] = {}


def init_shared_worker(specs) -> None:
    """Pool initializer: attach every published slab by name."""
    _worker_slabs.clear()
    _worker_blocks.clear()
    _scratch_cache.clear()
    for key, name, dtype, shape in specs:
        block = _attach(name)
        _worker_blocks.append(block)
        _worker_slabs[key] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)


def _attach_scratch(shard: int, name: str) -> shared_memory.SharedMemory:
    cached = _scratch_cache.get(shard)
    if cached is not None:
        if cached[0] == name:
            return cached[1]
        cached[1].close()
    block = _attach(name)
    _scratch_cache[shard] = (name, block)
    return block


def solve_shared_shard(
    assigner: Assigner,
    header: dict,
    warm=None,
    use_warm: bool = False,
) -> tuple[
    int, tuple[np.ndarray, np.ndarray], float, tuple[int, int, int, int], object
]:
    """One shard's solve against shared state; runs in the pool worker.

    Entities are rebuilt from the slab rows the header's slot vectors
    name — or, when the header carries ``inline=True`` (segmented logs,
    which have no run-wide payload slabs), from the attribute rectangles
    shipped inside the scratch block itself.  The rebuilt ``Task`` drops
    ``categories``/``venue_id`` — no
    assigner consults them at solve time (they only read the feasibility/
    influence/entropy rectangles, ids and publication times, all of which
    ride along) — and the caller materializes the returned index pairs
    against its own full-fidelity prepared instance anyway.

    ``use_warm=True`` routes the solve through the assigner's
    ``assign_warm`` with the (possibly ``None``) carried ``warm`` state —
    warm dicts are keyed by real worker/task ids, which the rebuilt
    entities preserve, so carry-over is process-safe.  The final element
    is then ``(warm_out, augmentations, seeded, matched)`` for the
    caller's per-shard carry and solver-effort metrics; ``None`` on cold
    solves.

    The ``(start_ns, end_ns, pid, tid)`` tuple is the solve span on the
    worker's wall clock: the parent's tracer (when one is live) replays it
    onto the shared timeline, attributed to the worker process.
    """
    block = _attach_scratch(header["shard"], header["name"])
    workers_n, tasks_n = header["workers"], header["tasks"]
    inline = bool(header.get("inline"))
    views = _scratch_views(block.buf, workers_n, tasks_n, inline)
    if inline:
        # Segmented logs ship the entity rows in the scratch block itself
        # (shard-row order), so the rows are addressed directly.
        worker_attrs = views["worker_attrs"]
        worker_ids = views["worker_ids"]
        task_attrs = views["task_attrs"]
        task_ids = views["task_ids"]
        worker_rows = range(workers_n)
        task_rows = range(tasks_n)
    else:
        worker_attrs = _worker_slabs["worker_attrs"]
        worker_ids = _worker_slabs["worker_ids"]
        task_attrs = _worker_slabs["task_attrs"]
        task_ids = _worker_slabs["task_ids"]
        worker_rows = views["worker_slots"]
        task_rows = views["task_slots"]
    workers = tuple(
        Worker(
            worker_id=int(worker_ids[slot]),
            location=Point(worker_attrs[slot, 0], worker_attrs[slot, 1]),
            reachable_km=float(worker_attrs[slot, 2]),
            speed_kmh=float(worker_attrs[slot, 3]),
        )
        for slot in worker_rows
    )
    tasks = tuple(
        Task(
            task_id=int(task_ids[slot]),
            location=Point(task_attrs[slot, 0], task_attrs[slot, 1]),
            publication_time=float(task_attrs[slot, 2]),
            valid_hours=float(task_attrs[slot, 3]),
        )
        for slot in task_rows
    )
    instance = SCInstance(
        name=f"shard-{header['shard']}",
        current_time=float(header["now"]),
        tasks=list(tasks),
        workers=list(workers),
        histories={},
        social_edges=[],
        all_worker_ids=(),
    )
    prepared = PreparedInstance(instance, None)
    # Inject the shared rectangles zero-copy into the cached properties, so
    # the lazy properties never recompute.
    prepared.__dict__["feasible"] = FeasiblePairs(
        workers=workers,
        tasks=tasks,
        distance_km=views["distance"],
        mask=views["mask"],
    )
    prepared.__dict__["influence_matrix"] = views["influence"]
    prepared.__dict__["entropy_by_task"] = {
        task.task_id: float(value)
        for task, value in zip(tasks, views["entropy"])
    }
    started = time.perf_counter()
    start_ns = time.time_ns()
    stats = None
    if use_warm:
        part, matching = assigner.assign_warm(prepared, warm)
        stats = (
            matching.warm,
            matching.augmentations,
            matching.seeded,
            int(matching.rows.size),
        )
    else:
        part = assigner.assign(prepared)
    solved = time.perf_counter() - started
    span = (start_ns, time.time_ns(), os.getpid(), threading.get_ident())
    row_of = {worker.worker_id: row for row, worker in enumerate(workers)}
    column_of = {task.task_id: column for column, task in enumerate(tasks)}
    rows = np.empty(len(part), dtype=np.int64)
    cols = np.empty(len(part), dtype=np.int64)
    for index, pair in enumerate(part):
        rows[index] = row_of[pair.worker.worker_id]
        cols[index] = column_of[pair.task.task_id]
    # Views die here; only the cached SharedMemory handles persist, so a
    # regrown scratch block can be re-attached without BufferError.
    del views, prepared, part
    return header["shard"], (rows, cols), solved, span, stats
