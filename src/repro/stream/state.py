"""Live runtime state: the online worker and open task pools.

:class:`StreamState` is the mutable heart of the streaming runtime.  It
keeps the online worker pool and the open task pool, applies drained events
to them, and builds each round's
:class:`~repro.assignment.PreparedInstance` from the live pools.  The only
cache that outlives a round is the
:class:`~repro.influence.InfluenceModel`'s per-location column store, which
is bounded; everything sized by the pool is rebuilt per round, so memory
follows the live pools rather than the horizon.

Pool mutation semantics mirror
:class:`~repro.framework.online.OnlineSimulator` exactly (re-arrival
replaces the pooled worker, expiry and churn are strict-inequality sweeps),
which is what makes the runtime's golden cross-check bit-identical.
"""

from __future__ import annotations

from repro.assignment.base import Assigner, PreparedInstance
from repro.data.instance import SCInstance
from repro.entities import Assignment, Task, Worker
from repro.influence import InfluenceModel
from repro.stream.events import (
    KIND_ARRIVAL,
    KIND_CANCEL,
    KIND_CHURN,
    KIND_EXPIRY,
    KIND_PUBLISH,
    KIND_RELOCATE,
    EventLog,
    StreamEvent,
    TaskCancelEvent,
    TaskExpiryEvent,
    TaskPublishEvent,
    WorkerArrivalEvent,
    WorkerChurnEvent,
    WorkerRelocateEvent,
)


class StreamState:
    """Mutable pools between assignment rounds.

    Parameters
    ----------
    base_instance:
        Supplies the immutable context every round instance shares —
        histories, social network, venue visits, ``all_worker_ids``.
    influence:
        The fitted influence model reused by every round (or ``None``).
    """

    def __init__(
        self,
        base_instance: SCInstance,
        influence: InfluenceModel | None,
    ) -> None:
        self.base_instance = base_instance
        self.influence = influence
        self.workers: dict[int, Worker] = {}
        self.tasks: dict[int, Task] = {}
        self.arrived_at: dict[int, float] = {}
        self.published_at: dict[int, float] = {}

    # -------------------------------------------------------------- pools
    @property
    def num_online_workers(self) -> int:
        """Workers currently online."""
        return len(self.workers)

    @property
    def num_open_tasks(self) -> int:
        """Tasks currently open."""
        return len(self.tasks)

    def apply(self, event: StreamEvent) -> tuple[bool, bool]:
        """Apply one drained event to the pools.

        Returns ``(removed_task, removed_worker)`` — whether the event
        actually retired a pooled entity (expiry/cancel/churn of something
        no longer pooled is a no-op), so callers count outcomes from the
        single dispatch that produced them.
        """
        if isinstance(event, WorkerArrivalEvent):
            return self.apply_kind(
                KIND_ARRIVAL, event.time, event.worker.worker_id, worker=event.worker
            )
        if isinstance(event, TaskPublishEvent):
            return self.apply_kind(
                KIND_PUBLISH, event.time, event.task.task_id, task=event.task
            )
        if isinstance(event, TaskCancelEvent):
            return self.apply_kind(KIND_CANCEL, event.time, event.task_id)
        if isinstance(event, TaskExpiryEvent):
            return self.apply_kind(KIND_EXPIRY, event.time, event.task_id)
        if isinstance(event, WorkerChurnEvent):
            return self.apply_kind(KIND_CHURN, event.time, event.worker_id)
        if isinstance(event, WorkerRelocateEvent):
            pooled = self.workers.get(event.worker_id)
            if pooled is None:
                return False, False
            return self.apply_kind(
                KIND_RELOCATE,
                event.time,
                event.worker_id,
                worker=pooled.moved_to(event.location),
            )
        raise TypeError(f"unsupported stream event {event!r}")

    def apply_kind(
        self,
        kind: int,
        time: float,
        entity_id: int,
        worker: Worker | None = None,
        task: Task | None = None,
    ) -> tuple[bool, bool]:
        """Kind-coded :meth:`apply` — the columnar replay entry point."""
        if kind == KIND_ARRIVAL:
            self.workers[entity_id] = worker
            self.arrived_at[entity_id] = time
        elif kind == KIND_PUBLISH:
            self.tasks[entity_id] = task
            self.published_at[entity_id] = time
        elif kind == KIND_CANCEL or kind == KIND_EXPIRY:
            if self.tasks.pop(entity_id, None) is not None:
                self.published_at.pop(entity_id, None)
                return True, False
        elif kind == KIND_CHURN:
            if self.workers.pop(entity_id, None) is not None:
                self.arrived_at.pop(entity_id, None)
                return False, True
        elif kind == KIND_RELOCATE:
            # A live worker's location update: the pooled worker object is
            # replaced (arrival time unchanged — the wait keeps accruing).
            if entity_id in self.workers:
                self.workers[entity_id] = worker
        else:  # pragma: no cover - new event kinds must be wired explicitly
            raise TypeError(f"unsupported stream event kind {kind!r}")
        return False, False

    def apply_log_slice(
        self, log: EventLog, start: int, stop: int, admission=None, offset: int = 0
    ) -> tuple[int, int, int, int]:
        """Apply log rows ``[start, stop)`` straight from the columns.

        Returns ``(expired, churned, cancelled, relocated)`` counts; the
        drained-event count is simply ``stop - start``.  Payload objects
        (workers/tasks) come from the log's side-tables — no per-event
        wrappers are materialized.

        ``admission`` is an optional gate (duck-typed —
        :class:`~repro.stream.runtime.AdmissionController`): publish rows
        are offered to it first (``offer(position, task, time)`` returning
        False diverts the task away from the pool), and expiry/cancel rows
        first discard any backlog entry (``discard(task_id)``), counting
        the retirement even though the task never reached the pool.  With
        ``admission=None`` the path is exactly the ungated replay.

        ``offset`` shifts the positions *offered to the gate* (only): when
        the runtime drains a segmented log slab-by-slab, ``start``/``stop``
        are slab-local but backlog entries must carry global cursor
        positions so deferred re-admission and checkpoints stay exact
        across segment seams.
        """
        kinds = log.kinds
        times = log.times
        entities = log.entity_ids
        expired = churned = cancelled = relocated = 0
        for position in range(start, stop):
            kind = int(kinds[position])
            entity_id = int(entities[position])
            worker = task = None
            if kind == KIND_ARRIVAL or kind == KIND_RELOCATE:
                worker = log.worker_at(position)
            elif kind == KIND_PUBLISH:
                task = log.task_at(position)
                if admission is not None and not admission.offer(
                    offset + position, task, float(times[position])
                ):
                    continue
            elif admission is not None and kind in (KIND_EXPIRY, KIND_CANCEL):
                if admission.discard(entity_id):
                    if kind == KIND_EXPIRY:
                        expired += 1
                    else:
                        cancelled += 1
                    continue
            if kind == KIND_RELOCATE and entity_id in self.workers:
                relocated += 1
            removed_task, removed_worker = self.apply_kind(
                kind,
                float(times[position]),
                entity_id,
                worker=worker,
                task=task,
            )
            if removed_task:
                if kind == KIND_EXPIRY:
                    expired += 1
                elif kind == KIND_CANCEL:
                    cancelled += 1
            if removed_worker and kind == KIND_CHURN:
                churned += 1
        return expired, churned, cancelled, relocated

    # -------------------------------------------------------------- sweeps
    def expire_tasks(self, now: float) -> list[Task]:
        """Remove and return open tasks whose deadline strictly passed.

        The safety net behind explicit :class:`TaskExpiryEvent`\\ s: logs
        built by :func:`~repro.stream.events.log_from_arrivals` carry one
        expiry event per task (making this sweep find nothing), but
        hand-built logs without them still expire correctly.
        """
        expired = [task for task in self.tasks.values() if task.expiry_time < now]
        for task in expired:
            del self.tasks[task.task_id]
            self.published_at.pop(task.task_id, None)
        return expired

    def churn_workers(self, now: float, patience_hours: float | None) -> list[int]:
        """Remove and return workers whose patience strictly ran out."""
        if patience_hours is None:
            return []
        churned = [
            worker_id
            for worker_id, since in self.arrived_at.items()
            if worker_id in self.workers and now - since > patience_hours
        ]
        for worker_id in churned:
            del self.workers[worker_id]
            self.arrived_at.pop(worker_id, None)
        return churned

    # -------------------------------------------------------------- rounds
    def round_instance(self, now: float) -> SCInstance:
        """The current pools as a deterministic :class:`SCInstance`."""
        instance = self.base_instance.with_workers(
            sorted(self.workers.values(), key=lambda w: w.worker_id)
        ).with_tasks(sorted(self.tasks.values(), key=lambda t: t.task_id))
        instance.current_time = now
        return instance

    def prepare_round(self, now: float) -> PreparedInstance:
        """A prepared instance for an assignment round at ``now``.

        Feasibility and the influence matrix are built here, so the round's
        prepare phase carries them; ``entropy_by_task`` stays lazy because
        only EIA reads it.
        """
        prepared = PreparedInstance(self.round_instance(now), self.influence)
        prepared.feasible
        prepared.influence_matrix
        return prepared

    def run_assignment(
        self, assigner: Assigner, now: float
    ) -> tuple[Assignment, list[tuple[float, float]]]:
        """Run one assignment round and retire the matched pairs.

        Returns the assignment plus the per-pair ``(task_wait,
        worker_wait)`` hours (publication/arrival to ``now``), in pair
        order — the pools and timestamp maps stay consistent because every
        retirement path (assign, expire, cancel, churn) clears its entries
        here in the state layer.
        """
        assignment = assigner.assign(self.prepare_round(now))
        return assignment, self.retire_pairs(assignment, now)

    def retire_pairs(
        self, assignment: Assignment, now: float
    ) -> list[tuple[float, float]]:
        """Retire matched pairs from the pools; returns per-pair waits.

        Shared by the plain and sharded round paths — however an
        assignment was produced, retirement (pools, timestamp maps) happens
        here so the state stays consistent.
        """
        waits: list[tuple[float, float]] = []
        for pair in assignment:
            del self.workers[pair.worker.worker_id]
            del self.tasks[pair.task.task_id]
            waits.append(
                (
                    now - self.published_at.pop(pair.task.task_id),
                    now - self.arrived_at.pop(pair.worker.worker_id),
                )
            )
        return waits
