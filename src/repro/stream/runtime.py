"""The event-driven streaming runtime and the sharded round executor.

:class:`StreamRuntime` consumes an :class:`~repro.stream.events.EventLog`
through a :class:`~repro.stream.scheduler.Trigger`, maintaining live pools
(:class:`~repro.stream.state.StreamState`) and firing assignment rounds at
the trigger's micro-batch boundaries.  It is a strict superset of the
batched :class:`~repro.framework.online.OnlineSimulator`:

* with a :class:`~repro.stream.scheduler.TimeWindowTrigger` whose window
  equals the simulator's ``batch_hours`` (and a log built by
  :func:`~repro.stream.events.log_from_arrivals` over the same arrivals and
  tasks), the produced assignments are **bit-identical** to
  ``OnlineSimulator.run`` — pinned by a golden cross-check test;
* count/hybrid/adaptive triggers, churn/cancellation/relocation events,
  admission control (:class:`AdmissionController` — defer or shed low-value
  task admissions when round latency blows a budget), wait/latency metrics
  and checkpoint/replay go beyond it.

Rounds can execute **sharded**: :class:`ShardExecutor` splits each round's
pools along a :class:`~repro.stream.shards.ShardLayout` (planned once per
run, radius-aware, so no feasible pair is ever split), runs candidate
generation + assignment per shard — serially or on a thread/process pool —
and merges per-shard assignments in deterministic sorted-shard order
through the same :func:`~repro.assignment.partitioned.merge_assignments`
core the offline :class:`~repro.assignment.PartitionedAssigner` uses.
Because no feasible pair crosses shards, the sharded round solves the same
problem as the unsharded one, split into independent sub-problems.

Two optional layers sit on top of sharding.  **Pipelining**
(``StreamRuntime(pipeline=True)``) overlaps the per-shard phases on the
executor's pool instead of running prepare-all-then-solve-all; results are
collected and merged in ascending shard order, so the rounds stay
bit-identical to the serial schedule.  **Latency-driven rebalancing**
(``StreamRuntime(rebalance=ShardRebalancer(...))``) replaces the planner's
count-based component→shard packing with an EWMA of observed per-component
solve latency, repacked at deterministic round-index boundaries — whole
components move between bins, so the never-split invariant (and hence
assignment equivalence) is untouched.  Per-phase timings
(drain/prepare/solve/merge) and repack counts land on every
:class:`~repro.stream.metrics.RoundRecord`.

The runtime is resumable: ``run(max_rounds=...)`` stops after a bounded
number of rounds with all state intact, :meth:`checkpoint` snapshots that
state to disk (including shard layout and per-shard RNG state), and
:meth:`resume` reconstructs a runtime that continues the run bit-identically
(regression-tested against an uninterrupted run).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.assignment.base import Assigner, PreparedInstance
from repro.assignment.lexico import LexicographicCostAssigner
from repro.assignment.partitioned import bucket_pools, merge_assignments
from repro.data.instance import SCInstance
from repro.entities import Assignment
from repro.influence import InfluenceModel
from repro.obs import NULL_OBS, Observability
from repro.obs.histo import SECONDS_HISTOGRAM
from repro.stream.events import KIND_PUBLISH, EventLog
from repro.stream.metrics import RoundRecord, StreamMetrics, StreamSummary
from repro.stream.scheduler import Trigger
from repro.stream.shards import ShardLayout, ShardRebalancer
from repro.stream.sharedmem import (
    ShardScratch,
    SharedSlabs,
    fork_capable_context,
    init_shared_worker,
    solve_shared_shard,
)
from repro.stream.state import StreamState


class StreamResult:
    """The accumulating outcome of a streaming run."""

    def __init__(self) -> None:
        self.assignment = Assignment()
        self.metrics = StreamMetrics()

    @property
    def rounds(self) -> list[RoundRecord]:
        """Per-round records, in firing order."""
        return self.metrics.rounds

    @property
    def total_assigned(self) -> int:
        """Tasks assigned so far."""
        return self.metrics.total_assigned

    @property
    def total_expired(self) -> int:
        """Tasks that expired unassigned so far."""
        return self.metrics.total_expired

    @property
    def total_churned(self) -> int:
        """Workers that left unassigned so far."""
        return self.metrics.total_churned

    @property
    def total_cancelled(self) -> int:
        """Tasks withdrawn by cancellation events so far."""
        return self.metrics.total_cancelled

    def summary(self) -> StreamSummary:
        """Aggregate metrics snapshot."""
        return self.metrics.summary()


#: Deterministic entropy pool for per-shard generators; spawn key = shard id.
_SHARD_RNG_ENTROPY = 0x5AD5

#: Recognized :class:`ShardExecutor` backends.
EXECUTOR_BACKENDS = ("serial", "thread", "process")

#: Recognized :class:`AdmissionController` policies.
ADMISSION_POLICIES = ("defer", "shed")


class AdmissionController:
    """Defers or sheds low-value task admissions under latency overload.

    When a round's observed cost exceeds ``budget_seconds`` the controller
    turns *overloaded*; while overloaded, publish events whose value falls
    below ``protect_value`` are diverted away from the pool:

    ``defer``
        The task is parked in a backlog and re-admitted — original
        publication time intact, so its wait keeps accruing — at the first
        round where the controller is healthy again.  A parked task whose
        expiry/cancel event drains meanwhile is discarded and counted as
        expired/cancelled like any pooled task.  The stream's final flush
        round force-releases the backlog and admits publishes directly
        (deferring at the end of the stream would silently drop work), so
        defer conserves every publish: assigned, expired or cancelled.
    ``shed``
        The task is dropped outright and only counted.

    The controller leaves the overloaded state once the observed cost
    falls below ``resume_fraction * budget_seconds`` (hysteresis, like the
    adaptive trigger's half-budget growth rule).

    ``value_of(task) -> float`` makes the "low-value" notion pluggable:
    tasks valued at or above ``protect_value`` are always admitted, budget
    or not.  The default (``None``) treats every task as sheddable.
    ``cost_of(record) -> float`` selects the feedback signal; the default
    is the measured wall-clock ``round_seconds``, and tests pass a
    deterministic function of the
    :class:`~repro.stream.metrics.RoundRecord` so runs — and therefore
    checkpoint/replay — are reproducible.

    The runtime never consults the controller when it is not configured:
    ``StreamRuntime(admission=None)`` (the default) replays the exact
    ungated code path, so disabled admission control is bit-identical to a
    runtime without the feature.
    """

    def __init__(
        self,
        budget_seconds: float,
        policy: str = "defer",
        value_of=None,
        protect_value: float = float("inf"),
        cost_of=None,
        resume_fraction: float = 0.5,
    ) -> None:
        if budget_seconds <= 0:
            raise ValueError(
                f"budget_seconds must be positive, got {budget_seconds}"
            )
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"choose from {', '.join(ADMISSION_POLICIES)}"
            )
        if not (0.0 < resume_fraction <= 1.0):
            raise ValueError(
                f"resume_fraction must lie in (0, 1], got {resume_fraction}"
            )
        self.budget_seconds = budget_seconds
        self.policy = policy
        self.value_of = value_of
        self.protect_value = protect_value
        self.cost_of = cost_of if cost_of is not None else (
            lambda record: record.round_seconds
        )
        self.resume_fraction = resume_fraction
        self.overloaded = False
        #: task_id -> (publish event position, publication event time).
        self._backlog: dict[int, tuple[int, float]] = {}
        self.total_deferred = 0
        self.total_shed = 0
        self._round_deferred = 0
        self._round_shed = 0

    # ------------------------------------------------------------------ gate
    def offer(self, position: int, task, time: float) -> bool:
        """Gate one publish event; False diverts it away from the pool."""
        if not self.overloaded:
            return True
        if self.value_of is not None and self.value_of(task) >= self.protect_value:
            return True
        if self.policy == "defer":
            self._backlog[task.task_id] = (position, time)
            self._round_deferred += 1
            self.total_deferred += 1
        else:
            self._round_shed += 1
            self.total_shed += 1
        return False

    def discard(self, task_id: int) -> bool:
        """Drop a parked task on expiry/cancel; True if it was parked."""
        return self._backlog.pop(task_id, None) is not None

    def release(self, force: bool = False) -> list[tuple[int, int, float]]:
        """Backlog entries to re-admit now: ``(task_id, position, time)``.

        Empty while overloaded (unless ``force``, the final-flush path);
        otherwise drains the whole backlog in publish-event order
        (deterministic).
        """
        if (self.overloaded and not force) or not self._backlog:
            return []
        released = sorted(
            (position, task_id, time)
            for task_id, (position, time) in self._backlog.items()
        )
        self._backlog.clear()
        return [(task_id, position, time) for position, task_id, time in released]

    @property
    def backlog_size(self) -> int:
        """Tasks currently parked by the defer policy."""
        return len(self._backlog)

    # -------------------------------------------------------------- feedback
    def take_round_counts(self) -> tuple[int, int]:
        """``(deferred, shed)`` since the last call (round bookkeeping)."""
        counts = (self._round_deferred, self._round_shed)
        self._round_deferred = 0
        self._round_shed = 0
        return counts

    def on_round(self, record) -> None:
        """Observe a completed round and update the overload state."""
        cost = float(self.cost_of(record))
        if cost > self.budget_seconds:
            self.overloaded = True
        elif cost < self.resume_fraction * self.budget_seconds:
            self.overloaded = False

    # ----------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """Serializable control state (policy echoed for resume validation)."""
        return {
            "policy": self.policy,
            "budget_seconds": self.budget_seconds,
            "overloaded": self.overloaded,
            "backlog": [
                [task_id, position, time]
                for task_id, (position, time) in sorted(self._backlog.items())
            ],
            "total_deferred": self.total_deferred,
            "total_shed": self.total_shed,
        }

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (compatibility pre-validated)."""
        self.overloaded = bool(state["overloaded"])
        self._backlog = {
            int(task_id): (int(position), float(time))
            for task_id, position, time in state["backlog"]
        }
        self.total_deferred = int(state["total_deferred"])
        self.total_shed = int(state["total_shed"])
        self._round_deferred = 0
        self._round_shed = 0


def _span_tuple(start_ns: int, end_ns: int) -> tuple[int, int, int, int]:
    """A shippable ``(start_ns, end_ns, pid, tid)`` solve-span record."""
    return (start_ns, end_ns, os.getpid(), threading.get_ident())


def _solve_shard(
    assigner: Assigner,
    shard: int,
    prepared: PreparedInstance,
    warm=None,
    use_warm: bool = False,
) -> tuple[int, Assignment, float, tuple[int, int, int, int], Any]:
    """One shard's timed solve — module-level so process pools can pickle it.

    The span tuple places the solve on the wall-clock timeline (worker
    pid/tid included), so the parent's tracer can attribute it even when
    the solve ran in a pool process.  With ``use_warm=True`` the solve
    routes through the assigner's ``assign_warm`` and the final element
    becomes ``(warm_out, augmentations, seeded, matched)`` — the caller's
    per-shard dual carry plus solver-effort counters; it is ``None`` on
    cold solves.
    """
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
    elapsed = time.perf_counter() - started
    return shard, part, elapsed, _span_tuple(start_ns, time.time_ns()), stats


@dataclass(frozen=True)
class RoundExecution:
    """One sharded round's outcome with its per-phase cost attribution.

    The phase spans are *cumulative across shards*: under the pipelined
    executor the per-shard prepare/solve spans overlap in time, so their
    sum can exceed the round's wall clock — that gap is the overlap win.
    ``shard_seconds`` keeps the per-shard solve spans for the latency
    rebalancer's EWMA.
    """

    assignment: Assignment
    waits: list[tuple[float, float]]
    prepare_seconds: float
    solve_seconds: float
    merge_seconds: float
    shard_seconds: dict[int, float] = field(default_factory=dict)
    #: Successful augmenting paths across all shard solves (0 when the
    #: solves ran cold — the counters only exist on the warm path).
    solve_augmentations: int = 0
    #: Matched pairs carried over intact from the previous round's warm
    #: state, summed across shards.
    warm_seeded: int = 0
    #: Total matched pairs this round across warm shard solves (the
    #: denominator of the warm-hit ratio).
    warm_matched: int = 0
    #: Whether any shard solved through the warm path this round.
    warmed: bool = False


class ShardExecutor:
    """Runs one assignment round as independent per-shard solves.

    Each round: bucket the live pools by
    :meth:`~repro.stream.shards.ShardLayout.shard_of`, prepare every
    non-empty shard as a fresh :class:`~repro.assignment.PreparedInstance`,
    solve the shards on the configured backend, and merge the per-shard
    assignments in ascending shard order.

    In the default (non-pipelined) mode preparation happens in the calling
    thread — prepared instances are fully materialized (feasibility,
    influence, entropy) before dispatch, so workers only run the solver.
    In **pipelined** mode (``run_round(..., pipeline=True)``) the phases
    overlap: on the thread backend each shard's prepare+solve runs as one
    unit on the pool (per-shard prepared instances are disjoint and the
    influence model's column caches are lock-protected, so concurrent
    prepares are safe); on the process backend preparation stays in the
    caller — the caches live in this process — but each shard is submitted
    as soon as it is prepared, so earlier shards solve while later shards
    prepare.  Results are always collected in ascending shard order and
    every prepared instance is deterministic regardless of which thread
    built it, so pipelined rounds are bit-identical to serial ones.

    Backends
    --------
    ``serial``
        Solve shards one after another in the calling thread.  Already
        faster than unsharded on decomposable worlds: k shards of n/k
        entities beat one solve of n for any super-linear solver.
    ``thread``
        A :class:`~concurrent.futures.ThreadPoolExecutor`; effective for
        numpy-heavy solvers that release the GIL.
    ``process``
        A fork-once :class:`~concurrent.futures.ProcessPoolExecutor` over
        shared memory (when the executor knows its event log, the normal
        runtime path): the log's payload slabs are published once per run
        via :class:`~repro.stream.sharedmem.SharedSlabs`, each round ships
        only payload slots + the prepared rectangles through per-shard
        scratch blocks, and workers return plain index pairs — nothing but
        the assigner itself is pickled per round, which is what lets
        CPU-bound solves beat the thread backend.  Without a log (direct
        construction), prepared shards fall back to being pickled whole.
        A crashed worker surfaces as a :class:`RuntimeError` naming the
        shard and round (not a bare ``BrokenProcessPool``), and
        :meth:`close` stays safe afterwards.

    A per-shard :class:`numpy.random.Generator` stream is maintained and
    checkpointed: :meth:`rng_for` is the seed source for stochastic
    assignment policies run inside a shard (deterministic assigners never
    consume it).  When the runtime was given a user generator the shard
    streams are spawned from it (so the user's seed governs them); without
    one they fall back to a fixed entropy pool — deterministic either way,
    and resumed bit-exactly from checkpoints.
    """

    def __init__(
        self,
        layout: ShardLayout,
        influence: InfluenceModel | None = None,
        backend: str = "serial",
        max_workers: int | None = None,
        rng: np.random.Generator | None = None,
        rebalancer: ShardRebalancer | None = None,
        log: EventLog | None = None,
        obs: Observability | None = None,
        warm: bool = False,
    ) -> None:
        if backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; "
                f"choose from {', '.join(EXECUTOR_BACKENDS)}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.layout = layout
        self.influence = influence
        self.backend = backend
        self.rebalancer = rebalancer
        self.obs = obs if obs is not None else NULL_OBS
        #: The event log backing the shared-memory process path; ``None``
        #: keeps the legacy pickle-the-prepared-shard process backend.
        self.log = log
        # Cap the default at the core count: pools wider than the machine
        # only add fork/pickle overhead (notably on the process backend).
        self.max_workers = max_workers or min(
            layout.num_shards, os.cpu_count() or 1
        )
        #: Warm-start duals carried between rounds, per shard.  Purely an
        #: accelerator: solves seeded from these states are pinned
        #: bit-identical to cold solves, and the dict is dropped whenever
        #: shard membership can shift under an entity (repack, relocation)
        #: — never persisted in checkpoints, so resumes rebuild cold.
        self.warm = warm
        self.warm_states: dict[int, Any] = {}
        if rng is not None:
            spawned = rng.spawn(layout.num_shards)
            self.rngs: dict[int, np.random.Generator] = dict(enumerate(spawned))
        else:
            self.rngs = {
                shard: np.random.default_rng(
                    np.random.SeedSequence(
                        entropy=_SHARD_RNG_ENTROPY, spawn_key=(shard,)
                    )
                )
                for shard in range(layout.num_shards)
            }
        self._pool: _FuturesExecutor | None = None
        self._broken = False
        self._slabs: SharedSlabs | None = None
        self._scratch: dict[int, ShardScratch] = {}

    def rng_for(self, shard: int) -> np.random.Generator:
        """The checkpointed random stream owned by ``shard``."""
        return self.rngs[shard]

    # ----------------------------------------------------------------- round
    def _prepare_shard(self, sub_instance: SCInstance) -> PreparedInstance:
        prepared = PreparedInstance(sub_instance, self.influence)
        # Force the lazy caches now, in the calling thread (see class doc).
        prepared.feasible
        prepared.influence_matrix
        prepared.entropy_by_task
        return prepared

    @property
    def shares_memory(self) -> bool:
        """Whether process-backend rounds go through the shared slabs."""
        return self.backend == "process" and self.log is not None

    def _pool_executor(self) -> _FuturesExecutor:
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            elif self.shares_memory:
                # Fork-once: publish the log's payload slabs, then start a
                # pool whose initializer attaches them — after this, rounds
                # ship only slot vectors + scratch headers.  Segmented logs
                # publish nothing run-wide (their payload tables live in
                # transient per-segment slabs); their rounds ship the
                # entity rows inline in the scratch blocks instead.
                if self._slabs is None and not self.log.segmented:
                    self._slabs = SharedSlabs(self.log)
                specs = self._slabs.specs if self._slabs is not None else ()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=fork_capable_context(),
                    initializer=init_shared_worker,
                    initargs=(specs,),
                )
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _shard_result(self, future, shard: int, round_index: int | None):
        """Await one shard's future, translating pool breakage.

        A crashed worker (OOM-killed, segfaulted C extension, ``os._exit``)
        surfaces from :mod:`concurrent.futures` as a contextless
        ``BrokenProcessPool``; name the shard and round instead, and mark
        the pool broken so :meth:`close` never waits on it.
        """
        try:
            return future.result()
        except BrokenProcessPool as error:
            self._broken = True
            where = (
                f"round {round_index}" if round_index is not None
                else "the current round"
            )
            raise RuntimeError(
                f"process-backend worker crashed while solving shard {shard} "
                f"in {where}; the worker pool is broken — close() the "
                "runtime and resume from its last checkpoint"
            ) from error

    def _publish_shard(
        self, shard: int, prepared: PreparedInstance, now: float
    ) -> dict:
        """Copy one prepared shard's rectangles into its scratch block.

        Materialized logs address entities by *slot* — rows of the run-wide
        :class:`SharedSlabs` payload tables the pool attached at fork.
        Segmented logs have no such run-wide table (payload slabs come and
        go with the cursor), so their rounds ship the pooled entities'
        attribute rows inline — O(workers + tasks) per round beside the
        O(workers x tasks) rectangles already copied.
        """
        feasible = prepared.feasible
        log = self.log
        if log.segmented:
            workers_n = len(feasible.workers)
            tasks_n = len(feasible.tasks)
            worker_attrs = np.empty((workers_n, 4), dtype=np.float64)
            worker_ids = np.empty(workers_n, dtype=np.int64)
            for row, worker in enumerate(feasible.workers):
                worker_attrs[row, 0] = worker.location.x
                worker_attrs[row, 1] = worker.location.y
                worker_attrs[row, 2] = worker.reachable_km
                worker_attrs[row, 3] = worker.speed_kmh
                worker_ids[row] = worker.worker_id
            task_attrs = np.empty((tasks_n, 4), dtype=np.float64)
            task_ids = np.empty(tasks_n, dtype=np.int64)
            for column, task in enumerate(feasible.tasks):
                task_attrs[column, 0] = task.location.x
                task_attrs[column, 1] = task.location.y
                task_attrs[column, 2] = task.publication_time
                task_attrs[column, 3] = task.valid_hours
                task_ids[column] = task.task_id
            entities = {
                "worker_attrs": worker_attrs,
                "worker_ids": worker_ids,
                "task_attrs": task_attrs,
                "task_ids": task_ids,
            }
        else:
            entities = {
                "worker_slots": np.fromiter(
                    (log.worker_slot_of(worker) for worker in feasible.workers),
                    dtype=np.int64, count=len(feasible.workers),
                ),
                "task_slots": np.fromiter(
                    (log.task_slot_of(task) for task in feasible.tasks),
                    dtype=np.int64, count=len(feasible.tasks),
                ),
            }
        entropy = np.fromiter(
            (prepared.entropy_by_task[task.task_id] for task in feasible.tasks),
            dtype=np.float64, count=len(feasible.tasks),
        )
        scratch = self._scratch.get(shard)
        if scratch is None:
            scratch = self._scratch[shard] = ShardScratch()
        return scratch.publish(
            shard=shard,
            now=now,
            distance=feasible.distance_km,
            mask=feasible.mask,
            influence=prepared.influence_matrix,
            entropy=entropy,
            **entities,
        )

    def _prepare_and_solve(
        self,
        shard: int,
        sub_instance: SCInstance,
        assigner: Assigner,
        warm=None,
        use_warm: bool = False,
    ) -> tuple[
        int, Assignment, float, float,
        tuple[int, int, int, int], tuple[int, int, int, int], Any,
    ]:
        """One shard's prepare+solve unit (the pipelined thread-pool task).

        The two span tuples are the prepare and solve spans — this unit
        runs on a pool thread, so the spans carry their own tid for the
        parent tracer to attribute.  The final element is the warm-solve
        stats tuple (see :func:`_solve_shard`), ``None`` on cold solves.
        """
        started = time.perf_counter()
        prepare_start_ns = time.time_ns()
        prepared = self._prepare_shard(sub_instance)
        prepared_at = time.perf_counter()
        solve_start_ns = time.time_ns()
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
        solved = time.perf_counter() - prepared_at
        end_ns = time.time_ns()
        return (
            shard,
            part,
            prepared_at - started,
            solved,
            _span_tuple(prepare_start_ns, solve_start_ns),
            _span_tuple(solve_start_ns, end_ns),
            stats,
        )

    def _component_entities(self, state: StreamState) -> dict[int, int]:
        """Pooled entities per layout component (rebalancer attribution)."""
        layout = self.layout
        counts: dict[int, int] = {}
        for worker in state.workers.values():
            component = layout.component_of(worker.location)
            if component >= 0:
                counts[component] = counts.get(component, 0) + 1
        for task in state.tasks.values():
            component = layout.component_of(task.location)
            if component >= 0:
                counts[component] = counts.get(component, 0) + 1
        return counts

    def run_round(
        self,
        state: StreamState,
        assigner: Assigner,
        now: float,
        pipeline: bool = False,
        round_index: int | None = None,
    ) -> RoundExecution:
        """Solve one round shard-by-shard and retire the matched pairs.

        Returns a :class:`RoundExecution` whose assignment and waits match
        :meth:`StreamState.run_assignment` bit-for-bit — the runtime treats
        the two paths interchangeably.  ``pipeline=True`` overlaps the
        per-shard phases (see the class docstring); it is a no-op on the
        serial backend and for rounds with at most one populated shard.
        ``round_index`` only labels worker-crash errors.
        """
        layout = self.layout
        buckets = bucket_pools(
            (state.workers[key] for key in sorted(state.workers)),
            (state.tasks[key] for key in sorted(state.tasks)),
            layout.shard_of,
        )
        component_entities = (
            self._component_entities(state) if self.rebalancer is not None else {}
        )
        shard_instances: list[tuple[int, SCInstance]] = []
        for shard in sorted(buckets):
            workers, tasks = buckets[shard]
            if not workers or not tasks:
                continue
            sub_instance = state.base_instance.with_workers(workers).with_tasks(tasks)
            sub_instance.current_time = now
            shard_instances.append((shard, sub_instance))

        prepare_seconds = 0.0
        solve_seconds = 0.0
        solve_augmentations = 0
        warm_seeded = 0
        warm_matched = 0
        shard_seconds: dict[int, float] = {}
        parts: list[Assignment] = []
        tracer = self.obs.tracer
        # Warm starts only make sense for assigners whose solve exposes the
        # dual-carrying interface; anything else stays on the cold path.
        use_warm = self.warm and isinstance(assigner, LexicographicCostAssigner)

        def emit(
            name: str, span: tuple[int, int, int, int], shard: int, extra=None
        ) -> None:
            args = {"shard": shard, "round": round_index}
            if extra:
                args.update(extra)
            tracer.complete(
                name, span[0], span[1], cat="shard", pid=span[2], tid=span[3],
                args=args,
            )

        def collect(
            shard: int, part: Assignment, solved: float, span=None, stats=None
        ) -> None:
            nonlocal solve_seconds, solve_augmentations, warm_seeded, warm_matched
            parts.append(part)
            solve_seconds += solved
            shard_seconds[shard] = shard_seconds.get(shard, 0.0) + solved
            extra = None
            if stats is not None:
                self.warm_states[shard] = stats[0]
                solve_augmentations += stats[1]
                warm_seeded += stats[2]
                warm_matched += stats[3]
                extra = {"augmentations": stats[1], "warm_seeded": stats[2]}
            if span is not None and tracer.enabled:
                emit("shard.solve", span, shard, extra)

        def collect_shared(shard, prepared, future) -> None:
            # Workers return (row, column) index arrays; materialize them
            # against the caller's full-fidelity prepared instance (which
            # re-validates feasibility and one-to-one matching).
            shard_, index_pairs, solved, span, stats = self._shard_result(
                future, shard, round_index
            )
            collect(
                shard, prepared.build_assignment(index_pairs), solved, span, stats
            )

        pipelined = (
            pipeline and self.backend != "serial" and len(shard_instances) > 1
        )
        if pipelined and self.backend == "thread":
            # Whole prepare+solve units on the pool: shard k+1 prepares
            # while shard k solves, and collection in ascending shard
            # order merges finished shards while later ones still run.
            pool = self._pool_executor()
            futures = [
                pool.submit(
                    self._prepare_and_solve, shard, sub, assigner,
                    self.warm_states.get(shard), use_warm,
                )
                for shard, sub in shard_instances
            ]
            for (shard, _), future in zip(shard_instances, futures):
                shard, part, prep, solved, prep_span, solve_span, stats = (
                    self._shard_result(future, shard, round_index)
                )
                prepare_seconds += prep
                if tracer.enabled:
                    emit("shard.prepare", prep_span, shard)
                collect(shard, part, solved, solve_span, stats)
        elif pipelined:
            # Process backend: prepare in-caller (the influence caches live
            # here), but submit each shard the moment it is prepared so
            # earlier shards solve while later shards prepare.  On the
            # shared-memory path the rectangles go through the shard's
            # scratch block and only a header dict is submitted.
            pool = self._pool_executor()
            shared = self.shares_memory
            futures = []
            for shard, sub_instance in shard_instances:
                started = time.perf_counter()
                prepare_start_ns = time.time_ns()
                prepared = self._prepare_shard(sub_instance)
                if tracer.enabled:
                    emit(
                        "shard.prepare",
                        _span_tuple(prepare_start_ns, time.time_ns()),
                        shard,
                    )
                if shared:
                    header = self._publish_shard(shard, prepared, now)
                    future = pool.submit(
                        solve_shared_shard, assigner, header,
                        self.warm_states.get(shard), use_warm,
                    )
                else:
                    future = pool.submit(
                        _solve_shard, assigner, shard, prepared,
                        self.warm_states.get(shard), use_warm,
                    )
                prepare_seconds += time.perf_counter() - started
                futures.append((shard, prepared, future))
            for shard, prepared, future in futures:
                if shared:
                    collect_shared(shard, prepared, future)
                else:
                    collect(*self._shard_result(future, shard, round_index))
        else:
            work: list[tuple[int, PreparedInstance]] = []
            for shard, sub_instance in shard_instances:
                started = time.perf_counter()
                prepare_start_ns = time.time_ns()
                work.append((shard, self._prepare_shard(sub_instance)))
                prepare_seconds += time.perf_counter() - started
                if tracer.enabled:
                    emit(
                        "shard.prepare",
                        _span_tuple(prepare_start_ns, time.time_ns()),
                        shard,
                    )
            if self.backend == "serial" or len(work) <= 1:
                for shard, prepared in work:
                    collect(
                        *_solve_shard(
                            assigner, shard, prepared,
                            self.warm_states.get(shard), use_warm,
                        )
                    )
            elif self.shares_memory:
                pool = self._pool_executor()
                futures = [
                    (
                        shard,
                        prepared,
                        pool.submit(
                            solve_shared_shard,
                            assigner,
                            self._publish_shard(shard, prepared, now),
                            self.warm_states.get(shard),
                            use_warm,
                        ),
                    )
                    for shard, prepared in work
                ]
                for shard, prepared, future in futures:
                    collect_shared(shard, prepared, future)
            else:
                pool = self._pool_executor()
                futures = [
                    pool.submit(
                        _solve_shard, assigner, shard, prepared,
                        self.warm_states.get(shard), use_warm,
                    )
                    for shard, prepared in work
                ]
                for (shard, _), future in zip(work, futures):
                    collect(*self._shard_result(future, shard, round_index))

        merge_started = time.perf_counter()
        merge_start_ns = time.time_ns()
        merged = merge_assignments(parts)
        waits = state.retire_pairs(merged, now)
        merge_seconds = time.perf_counter() - merge_started
        if tracer.enabled:
            tracer.complete(
                "round.merge", merge_start_ns, time.time_ns(), cat="stream",
                args={"round": round_index, "pairs": len(merged)},
            )
        if self.rebalancer is not None:
            self.rebalancer.observe(layout, shard_seconds, component_entities)
        return RoundExecution(
            assignment=merged,
            waits=waits,
            prepare_seconds=prepare_seconds,
            solve_seconds=solve_seconds,
            merge_seconds=merge_seconds,
            shard_seconds=shard_seconds,
            solve_augmentations=solve_augmentations,
            warm_seeded=warm_seeded,
            warm_matched=warm_matched,
            warmed=use_warm,
        )

    def invalidate_warm(self) -> None:
        """Drop every shard's carried warm state (next solves run cold).

        Called whenever shard membership can shift under an entity — a
        layout repack or a relocation wave — since carried duals are keyed
        by entity id *within* a shard's sub-problem.
        """
        self.warm_states.clear()

    def maybe_repack(self, round_index: int) -> int:
        """Apply a latency-driven repack at this round boundary.

        Returns the number of repacks applied (0 or 1).  Delegates the
        decision to the configured :class:`ShardRebalancer`; without one
        the layout is immutable and this is a no-op.  An applied repack
        moves components between shards, so carried warm states are
        invalidated with it.
        """
        if self.rebalancer is None:
            return 0
        repacked = self.rebalancer.maybe_repack(round_index, self.layout)
        if repacked is None:
            return 0
        self.layout = repacked
        self.invalidate_warm()
        return 1

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Shut down the pool and release shared memory (idempotent).

        Safe after a worker crash: a broken process pool is shut down
        without waiting (``shutdown(wait=True)`` can hang forever on
        workers that will never answer), pending futures are cancelled,
        and the shared slabs/scratch blocks are always unlinked.  The
        executor stays reusable — the next round recreates everything.
        """
        pool, self._pool = self._pool, None
        broken, self._broken = self._broken, False
        try:
            if pool is not None:
                if broken:
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    pool.shutdown(wait=True)
        finally:
            if self._slabs is not None:
                self._slabs.close()
                self._slabs = None
            for scratch in self._scratch.values():
                scratch.close()
            self._scratch.clear()

    # ----------------------------------------------------------- checkpoints
    def state_dict(self) -> dict[str, Any]:
        """Layout + per-shard RNG states (+ EWMA state when rebalancing)."""
        state = {
            "layout": self.layout.state_dict(),
            "rngs": [
                self.rngs[shard].bit_generator.state
                for shard in range(self.layout.num_shards)
            ],
        }
        if self.rebalancer is not None:
            state["rebalance"] = self.rebalancer.state_dict()
        return state

    def load_state_dict(self, state: dict[str, Any]) -> None:
        """Restore per-shard RNG (and EWMA) state; layout validated upstream."""
        for shard, rng_state in enumerate(state["rngs"]):
            self.rngs[shard].bit_generator.state = rng_state
        if self.rebalancer is not None and state.get("rebalance") is not None:
            self.rebalancer.load_state_dict(state["rebalance"])


class StreamRuntime:
    """Plays an event log through micro-batched assignment rounds.

    Parameters
    ----------
    assigner:
        The assignment algorithm run at every round.
    influence_model:
        The fitted influence model shared by all rounds (``None`` for
        influence-free assigners).
    trigger:
        The micro-batch policy (count / time window / hybrid / adaptive).
    base_instance:
        Context shared by every round instance: histories, social network,
        venue visits.  Its own worker/task lists are ignored — pools are
        fed exclusively by the event log.
    log:
        The time-ordered event stream to replay.
    end_time:
        Last round time; defaults to the latest expiry-event time (the
        online simulator's "latest task deadline"), falling back to the
        base instance's ``current_time`` for logs without deadlines.
    patience_hours:
        If set, unassigned workers churn out this many hours after arrival
        (strict, like the online simulator); explicit
        :class:`~repro.stream.events.WorkerChurnEvent` entries work with or
        without it.
    rng:
        Optional generator for stochastic policies; its state is captured
        by checkpoints so replays stay deterministic.
    shards:
        When set, rounds execute sharded: a
        :class:`~repro.stream.shards.ShardLayout` is planned from the log
        (radius-aware, at most ``shards`` shards) and every round runs
        through a :class:`ShardExecutor`.  ``None`` keeps the plain
        single-solve path.
    executor:
        Shard backend: ``"serial"`` (default), ``"thread"`` or
        ``"process"``; ignored without ``shards``.
    shard_cell_km:
        Planning cell size for the shard layout (default: the log's
        largest worker radius).
    pipeline:
        Overlap the per-shard round phases on the executor's worker pool
        (see :class:`ShardExecutor`): bit-identical results, lower round
        wall clock.  Requires ``shards``; a no-op on the serial backend.
    rebalance:
        Optional :class:`~repro.stream.shards.ShardRebalancer` repacking
        the component→shard layout from an EWMA of observed per-component
        solve latency at deterministic round boundaries.  Requires
        ``shards``; assignments stay equivalent under any repack because
        only whole never-split components move between bins.
    admission:
        Optional :class:`AdmissionController` deferring/shedding low-value
        task admissions when observed round latency exceeds its budget.
        ``None`` (the default) replays the exact ungated path — disabled
        admission control is provably a no-op.
    obs:
        Optional :class:`~repro.obs.Observability` bundle (metrics registry
        + span tracer).  The default, :data:`~repro.obs.NULL_OBS`, is fully
        inert; telemetry is pure observation either way — instruments only
        read values the runtime already computed, so obs-on and obs-off
        runs produce bit-identical results (pinned by differential tests).
    warm:
        Carry the previous round's solver duals and surviving matches into
        the next round's solve (per shard when sharded).  Applies only to
        assigners built on :class:`~repro.assignment.LexicographicCostAssigner`
        (IA/EIA/DIA and subclasses); others silently run cold.  Purely an
        accelerator: warm solves are pinned bit-identical (objective value
        and cardinality) to cold solves, warm state is invalidated on
        layout repacks and relocation waves, and it is never checkpointed
        — a resumed runtime rebuilds it cold, keeping the v6 checkpoint
        format untouched.
    """

    def __init__(
        self,
        assigner: Assigner,
        influence_model: InfluenceModel | None,
        trigger: Trigger,
        base_instance: SCInstance,
        log: EventLog,
        end_time: float | None = None,
        patience_hours: float | None = None,
        rng: np.random.Generator | None = None,
        shards: int | None = None,
        executor: str = "serial",
        shard_cell_km: float | None = None,
        admission: AdmissionController | None = None,
        pipeline: bool = False,
        rebalance: ShardRebalancer | None = None,
        obs: Observability | None = None,
        warm: bool = False,
    ) -> None:
        if patience_hours is not None and patience_hours < 0:
            raise ValueError(
                f"patience_hours must be non-negative, got {patience_hours}"
            )
        if pipeline and shards is None:
            raise ValueError("pipeline=True requires shards")
        if rebalance is not None and shards is None:
            raise ValueError("rebalance requires shards")
        self.assigner = assigner
        self.trigger = trigger
        self.log = log
        self.patience_hours = patience_hours
        self.rng = rng
        self.admission = admission
        self.pipeline = pipeline
        self.warm = warm
        self.obs = obs if obs is not None else NULL_OBS
        self._instruments: dict[str, Any] | None = None
        #: Unsharded warm carry + the last round's solver-effort stats
        #: (``(augmentations, seeded, matched)`` or ``None`` on cold
        #: rounds) for the observability hook.  Never checkpointed.
        self._warm_state: Any = None
        self._last_solver_stats: tuple[int, int, int] | None = None
        self.shard_executor: ShardExecutor | None = None
        #: The *requested* shard configuration (vs the planned layout, which
        #: may use fewer bins); persisted in checkpoints so a resume with a
        #: different ``--shards``/cell size fails in the cheap pre-flight.
        self.shard_request: dict | None = None
        if shards is not None:
            layout = ShardLayout.plan(log, shards, cell_km=shard_cell_km)
            self.shard_executor = ShardExecutor(
                layout, influence=influence_model, backend=executor, rng=rng,
                rebalancer=rebalance, log=log, obs=self.obs, warm=warm,
            )
            self.shard_request = {"shards": shards, "cell_km": shard_cell_km}
        self.state = StreamState(base_instance, influence_model)
        self._result = StreamResult()
        self._cursor = 0
        self._clock = base_instance.current_time
        self._start_time = base_instance.current_time
        self._end_time = end_time
        self._started = False
        self._done = False
        self._pending_start_round = False

    # ------------------------------------------------------------ properties
    @property
    def result(self) -> StreamResult:
        """The (possibly still accumulating) run outcome."""
        return self._result

    @property
    def done(self) -> bool:
        """Whether the stream has been fully played out."""
        return self._done

    @property
    def cursor(self) -> int:
        """Index of the next unconsumed log event."""
        return self._cursor

    @property
    def clock(self) -> float:
        """The last round time (or the start time before any round)."""
        return self._clock

    @property
    def end_time(self) -> float | None:
        """The resolved end of the run (None until started)."""
        return self._end_time if self._started else None

    # ----------------------------------------------------------------- start
    def _start(self) -> None:
        if self._started:
            return
        base = self.state.base_instance
        start = self.log.start_time()
        if start is None:
            start = base.current_time
        elif not self.log.has_arrivals():
            # Mirror OnlineSimulator: without arrivals the base instance's
            # clock can still precede the first publication.
            start = min(start, base.current_time)
        self._start_time = start
        self._clock = start
        if self._end_time is None:
            deadline = self.log.last_deadline()
            self._end_time = deadline if deadline is not None else base.current_time
        self._pending_start_round = self.trigger.fires_at_start
        self._started = True

    # ------------------------------------------------------------ scheduling
    def _next_fire_time(self) -> float:
        """When the next round fires: start round, count hit, boundary, or
        the final flush at the end time."""
        if self._pending_start_round:
            return self._start_time
        boundary = self.trigger.next_boundary(self._clock)
        if boundary is not None:
            boundary = min(boundary, self._end_time)
        count = self.trigger.count
        if count is not None:
            limit = self._end_time if boundary is None else boundary
            fire = self.log.next_count_time(self._cursor, count, limit)
            if fire is not None:
                return fire
        if boundary is not None:
            return boundary
        return self._end_time

    # ----------------------------------------------------------------- drain
    def _drain_until(self, fire_time: float) -> tuple[int, int, int, int, int]:
        """Apply every due event, then the expiry/churn sweeps.

        Admission events (arrival/publish/cancel/relocate) apply when
        ``time <= fire_time``; deferred events (expiry/churn) only when
        strictly earlier, so deadlines on the boundary do not bind in this
        round.  The due range is located with two ``searchsorted`` calls on
        the columnar log and applied straight from the columns — slab by
        slab through :meth:`EventLog.slices`, so a segmented log drains
        with only its current windows alive (and everything behind the
        cursor is released afterwards).  With an admission controller
        configured, a healthy round first re-admits the deferred backlog
        (original publication times intact), then gates the new publishes.
        """
        state = self.state
        stop = self.log.drain_stop(self._cursor, fire_time)
        gate = self.admission
        if self.admission is not None:
            final_flush = fire_time >= self._end_time
            for task_id, position, published in self.admission.release(
                force=final_flush
            ):
                state.apply_kind(
                    KIND_PUBLISH, published, task_id,
                    task=self.log.task_at(position),
                )
            if final_flush and self.admission.policy == "defer":
                gate = None  # deferring at the end of the stream drops work
        expired = churned = cancelled = relocated = 0
        for slab, local_start, local_stop, base in self.log.slices(
            self._cursor, stop
        ):
            slab_counts = state.apply_log_slice(
                slab, local_start, local_stop, admission=gate, offset=base
            )
            expired += slab_counts[0]
            churned += slab_counts[1]
            cancelled += slab_counts[2]
            relocated += slab_counts[3]
        drained = stop - self._cursor
        self._cursor = stop
        if self.log.segmented:
            self.log.release_before(self._cursor)
        expired += len(state.expire_tasks(fire_time))
        churned += len(state.churn_workers(fire_time, self.patience_hours))
        return drained, expired, churned, cancelled, relocated

    # ----------------------------------------------------------------- round
    def _fire_round(self, fire_time: float) -> RoundRecord:
        tracer = self.obs.tracer
        round_index = len(self._result.rounds)
        round_start_ns = time.time_ns()
        drain_started = time.perf_counter()
        drained, expired, churned, cancelled, relocated = self._drain_until(
            fire_time
        )
        drain_seconds = time.perf_counter() - drain_started
        if tracer.enabled:
            tracer.complete(
                "round.drain", round_start_ns, time.time_ns(), cat="stream",
                args={"round": round_index, "events": drained},
            )
        if relocated:
            # A relocation wave can move entities across shard boundaries
            # (and perturbs distances everywhere), so carried duals no
            # longer describe the next sub-problems — drop them.
            self._warm_state = None
            if self.shard_executor is not None:
                self.shard_executor.invalidate_warm()
        state = self.state
        pool_workers = state.num_online_workers
        pool_tasks = state.num_open_tasks
        assigned = 0
        elapsed = 0.0
        prepare_seconds = solve_seconds = merge_seconds = 0.0
        solver_stats: tuple[int, int, int] | None = None
        if pool_workers and pool_tasks:
            started = time.perf_counter()
            if self.shard_executor is not None:
                execution = self.shard_executor.run_round(
                    state, self.assigner, fire_time, pipeline=self.pipeline,
                    round_index=len(self._result.rounds),
                )
                assignment, waits = execution.assignment, execution.waits
                prepare_seconds = execution.prepare_seconds
                solve_seconds = execution.solve_seconds
                merge_seconds = execution.merge_seconds
                if execution.warmed:
                    solver_stats = (
                        execution.solve_augmentations,
                        execution.warm_seeded,
                        execution.warm_matched,
                    )
            else:
                # The unsharded composition of run_assignment, phase-timed.
                prepare_start_ns = time.time_ns()
                prepared = state.prepare_round(fire_time)
                prepare_seconds = time.perf_counter() - started
                solve_start_ns = time.time_ns()
                if self.warm and isinstance(
                    self.assigner, LexicographicCostAssigner
                ):
                    assignment, matching = self.assigner.assign_warm(
                        prepared, self._warm_state
                    )
                    self._warm_state = matching.warm
                    solver_stats = (
                        matching.augmentations,
                        matching.seeded,
                        int(matching.rows.size),
                    )
                else:
                    assignment = self.assigner.assign(prepared)
                solve_seconds = time.perf_counter() - started - prepare_seconds
                merge_started = time.perf_counter()
                merge_start_ns = time.time_ns()
                waits = state.retire_pairs(assignment, fire_time)
                merge_seconds = time.perf_counter() - merge_started
                if tracer.enabled:
                    phase_args = {"round": round_index}
                    solve_args = phase_args
                    if solver_stats is not None:
                        solve_args = {
                            "round": round_index,
                            "augmentations": solver_stats[0],
                            "warm_seeded": solver_stats[1],
                        }
                    tracer.complete(
                        "round.prepare", prepare_start_ns, solve_start_ns,
                        cat="stream", args=phase_args,
                    )
                    tracer.complete(
                        "round.solve", solve_start_ns, merge_start_ns,
                        cat="stream", args=solve_args,
                    )
                    tracer.complete(
                        "round.merge", merge_start_ns, time.time_ns(),
                        cat="stream",
                        args={"round": round_index, "pairs": len(assignment)},
                    )
            elapsed = time.perf_counter() - started
            for pair, (task_wait, worker_wait) in zip(assignment, waits):
                self._result.assignment.add(pair.task, pair.worker)
                self._result.metrics.on_assigned(task_wait, worker_wait)
            assigned = len(assignment)
        self._last_solver_stats = solver_stats
        repacks = 0
        if self.shard_executor is not None:
            # Latency-driven repacking fires at deterministic round-index
            # boundaries, after this round's EWMA observation and before
            # the next round's bucketing — never on wall-clock.
            repacks = self.shard_executor.maybe_repack(len(self._result.rounds))
        deferred = shed = 0
        if self.admission is not None:
            deferred, shed = self.admission.take_round_counts()
        record = RoundRecord(
            index=len(self._result.rounds),
            time=fire_time,
            online_workers=pool_workers,
            open_tasks=pool_tasks,
            drained_events=drained,
            assigned=assigned,
            expired_tasks=expired,
            churned_workers=churned,
            cancelled_tasks=cancelled,
            round_seconds=elapsed,
            relocated_workers=relocated,
            deferred_tasks=deferred,
            shed_tasks=shed,
            drain_seconds=drain_seconds,
            prepare_seconds=prepare_seconds,
            solve_seconds=solve_seconds,
            merge_seconds=merge_seconds,
            repacks=repacks,
        )
        self._result.metrics.on_round(record)
        self.trigger.on_round(record)
        if self.admission is not None:
            self.admission.on_round(record)
        self._clock = fire_time
        self._pending_start_round = False
        if fire_time >= self._end_time:
            self._done = True
        if tracer.enabled:
            tracer.complete(
                "round", round_start_ns, time.time_ns(), cat="stream",
                args={
                    "round": record.index,
                    "time": record.time,
                    "online_workers": record.online_workers,
                    "open_tasks": record.open_tasks,
                    "assigned": record.assigned,
                },
            )
        if self.obs.enabled:
            self._observe_round(record)
        return record

    def _observe_round(self, record: RoundRecord) -> None:
        """Fold one finished round into the registry + instant events.

        Pure observation: everything recorded here is read off the
        :class:`RoundRecord` the runtime already built, so enabling
        telemetry cannot perturb results.
        """
        tracer = self.obs.tracer
        if tracer.enabled:
            if record.deferred_tasks or record.shed_tasks:
                tracer.instant(
                    "admission.diverted", cat="admission",
                    args={
                        "round": record.index,
                        "deferred": record.deferred_tasks,
                        "shed": record.shed_tasks,
                        "overloaded": bool(
                            self.admission is not None
                            and self.admission.overloaded
                        ),
                    },
                )
            if record.repacks:
                decision = (
                    self.shard_executor.rebalancer.last_decision
                    if self.shard_executor is not None
                    and self.shard_executor.rebalancer is not None
                    else None
                )
                tracer.instant(
                    "shards.repack", cat="shard",
                    args=decision or {"round": record.index},
                )
        registry = self.obs.registry
        if not registry.enabled:
            return
        if self._instruments is None:
            self._instruments = {
                "rounds": registry.counter(
                    "repro_stream_rounds_total", "Assignment rounds fired."
                ),
                "events": registry.counter(
                    "repro_stream_events_drained_total",
                    "Event-log entries drained into rounds.",
                ),
                "assigned": registry.counter(
                    "repro_stream_assigned_total",
                    "Task-worker pairs assigned.",
                ),
                "expired": registry.counter(
                    "repro_stream_expired_tasks_total",
                    "Tasks that expired unassigned.",
                ),
                "churned": registry.counter(
                    "repro_stream_churned_workers_total",
                    "Workers that left unassigned.",
                ),
                "deferred": registry.counter(
                    "repro_stream_deferred_tasks_total",
                    "Task admissions deferred by the admission controller.",
                ),
                "shed": registry.counter(
                    "repro_stream_shed_tasks_total",
                    "Task admissions shed by the admission controller.",
                ),
                "repacks": registry.counter(
                    "repro_stream_repacks_total",
                    "Shard-layout repacks applied at round boundaries.",
                ),
                "augmentations": registry.counter(
                    "repro_stream_solve_augmentations",
                    "Augmenting paths run by warm-capable round solves.",
                ),
                "warm_hit": registry.gauge(
                    "repro_stream_warm_hit",
                    "Fraction of the last warm round's matches carried over "
                    "intact from the previous round's warm state.",
                ),
                "workers": registry.gauge(
                    "repro_stream_online_workers",
                    "Online workers at the last round's start.",
                ),
                "tasks": registry.gauge(
                    "repro_stream_open_tasks",
                    "Open tasks at the last round's start.",
                ),
                "round_seconds": registry.histogram(
                    "repro_stream_round_seconds",
                    "Wall-clock cost of the assignment computation per round.",
                    **SECONDS_HISTOGRAM,
                ),
                "phase_seconds": registry.histogram(
                    "repro_stream_phase_seconds",
                    "Per-round phase spans (cumulative across shards).",
                    labels=("phase",),
                    **SECONDS_HISTOGRAM,
                ),
            }
        instruments = self._instruments
        instruments["rounds"].inc()
        instruments["events"].inc(record.drained_events)
        instruments["assigned"].inc(record.assigned)
        instruments["expired"].inc(record.expired_tasks)
        instruments["churned"].inc(record.churned_workers)
        instruments["deferred"].inc(record.deferred_tasks)
        instruments["shed"].inc(record.shed_tasks)
        instruments["repacks"].inc(record.repacks)
        instruments["workers"].set(record.online_workers)
        instruments["tasks"].set(record.open_tasks)
        instruments["round_seconds"].record(record.round_seconds)
        stats = self._last_solver_stats
        if stats is not None:
            augmentations, seeded, matched = stats
            instruments["augmentations"].inc(augmentations)
            instruments["warm_hit"].set(seeded / max(matched, 1))
        phases = instruments["phase_seconds"]
        for phase in ("drain", "prepare", "solve", "merge"):
            phases.labels(phase).record(getattr(record, f"{phase}_seconds"))

    # ------------------------------------------------------------------- run
    def run(self, max_rounds: int | None = None) -> StreamResult:
        """Play the stream until done (or for ``max_rounds`` more rounds).

        Repeated calls continue where the previous one stopped; once the
        stream is exhausted the accumulated result is simply returned.
        """
        if max_rounds is not None and max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        self._start()
        started = time.perf_counter()
        fired = 0
        try:
            while not self._done and (max_rounds is None or fired < max_rounds):
                self._fire_round(self._next_fire_time())
                fired += 1
        finally:
            self._result.metrics.add_wall_seconds(time.perf_counter() - started)
        return self._result

    def close(self) -> None:
        """Release executor resources (worker pools, shared memory); the
        runtime stays resumable — a later ``run`` simply recreates them.
        Idempotent, including after a worker crash broke the process pool:
        closing twice (or a runtime that never ran) is a no-op and never
        hangs."""
        if self.shard_executor is not None:
            self.shard_executor.close()

    def __enter__(self) -> "StreamRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------- checkpoints
    def checkpoint(self, path: str | Path) -> Path:
        """Snapshot the complete runtime state to a chunked v6 checkpoint.

        Atomic (a crash mid-save leaves any previous checkpoint intact)
        and incremental (successive snapshots share unchanged chunks
        through the ``repro-chunks`` store), so calling this every few
        rounds is cheap.  Returns the canonical manifest path.
        """
        from repro.stream.checkpoint import save_checkpoint

        return save_checkpoint(self, path)

    @classmethod
    def resume(
        cls,
        path: str | Path,
        assigner: Assigner,
        influence_model: InfluenceModel | None,
        trigger: Trigger,
        base_instance: SCInstance,
        log: EventLog,
        patience_hours: float | None = None,
        rng: np.random.Generator | None = None,
        shards: int | None = None,
        executor: str = "serial",
        shard_cell_km: float | None = None,
        admission: AdmissionController | None = None,
        pipeline: bool = False,
        rebalance: ShardRebalancer | None = None,
        obs: Observability | None = None,
        warm: bool = False,
    ) -> "StreamRuntime":
        """Reconstruct a runtime from a checkpoint and the original log.

        The caller supplies the same (deterministic) collaborators the
        checkpointed run used; the snapshot restores cursor, clock, pools,
        accumulated results, trigger adaptation state, admission-control
        state (overload flag + deferred backlog), shard layout and RNG
        state (runtime-level and per-shard), after verifying the log
        fingerprint — and, for sharded runs, the replanned layout —
        matches.  Pipeline/rebalance configuration must match the
        checkpointed run too; with rebalancing, the saved (possibly
        repacked) layout and EWMA state are adopted so repack decisions
        replay exactly.
        """
        from repro.stream.checkpoint import restore_runtime

        runtime = cls(
            assigner,
            influence_model,
            trigger,
            base_instance,
            log,
            patience_hours=patience_hours,
            rng=rng,
            shards=shards,
            executor=executor,
            shard_cell_km=shard_cell_km,
            admission=admission,
            pipeline=pipeline,
            rebalance=rebalance,
            obs=obs,
            warm=warm,
        )
        restore_runtime(runtime, path)
        return runtime
