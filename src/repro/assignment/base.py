"""Shared assignment machinery: feasibility and per-instance caches.

Feasibility of a worker-task pair (paper Section IV-A):

1. the task is inside the worker's reachable circle:
   ``d(w.l, s.l) <= w.r``;
2. the worker can arrive before expiry:
   ``t + t(w.l, s.l) <= s.p + s.phi``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.instance import SCInstance
from repro.entities import Assignment, Task, Worker
from repro.flow.bipartite import MatchingResult
from repro.geo import pairwise_euclidean
from repro.influence import InfluenceModel, entropy_of_tasks


@dataclass(frozen=True)
class FeasiblePairs:
    """The feasibility structure of one instance.

    Attributes
    ----------
    workers / tasks:
        The candidate workers and open tasks, in matrix order.
    distance_km:
        Dense ``C x T`` worker-task distances.
    mask:
        Dense ``C x T`` boolean feasibility matrix.
    """

    workers: tuple[Worker, ...]
    tasks: tuple[Task, ...]
    distance_km: np.ndarray
    mask: np.ndarray

    @property
    def num_feasible(self) -> int:
        """``m`` — the number of available assignments over all workers."""
        return int(self.mask.sum())

    def feasible_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(worker_rows, task_columns)`` of all feasible pairs."""
        return np.nonzero(self.mask)


def compute_feasible(
    workers: list[Worker], tasks: list[Task], current_time: float
) -> FeasiblePairs:
    """Evaluate both feasibility conditions for every worker-task pair."""
    if not workers or not tasks:
        return FeasiblePairs(
            workers=tuple(workers),
            tasks=tuple(tasks),
            distance_km=np.zeros((len(workers), len(tasks))),
            mask=np.zeros((len(workers), len(tasks)), dtype=bool),
        )
    distance = pairwise_euclidean(
        [w.location for w in workers], [t.location for t in tasks]
    )
    radius = np.array([w.reachable_km for w in workers])[:, None]
    speed = np.array([w.speed_kmh for w in workers])[:, None]
    deadline = np.array([t.expiry_time for t in tasks])[None, :]
    reachable = distance <= radius
    in_time = current_time + distance / speed <= deadline
    return FeasiblePairs(
        workers=tuple(workers),
        tasks=tuple(tasks),
        distance_km=distance,
        mask=reachable & in_time,
    )


class PreparedInstance:
    """Caches the per-instance structures every algorithm shares.

    The paper's CPU-time metric covers the *assignment* computation; the
    influence matrix is part of the worker-task influence modeling component
    and is computed once per instance, shared by all algorithms.
    """

    def __init__(self, instance: SCInstance, influence: InfluenceModel | None = None) -> None:
        self.instance = instance
        self.influence = influence

    @cached_property
    def feasible(self) -> FeasiblePairs:
        """Feasibility structure of this instance."""
        return compute_feasible(
            self.instance.workers, self.instance.tasks, self.instance.current_time
        )

    @cached_property
    def influence_matrix(self) -> np.ndarray:
        """``if(w, s)`` per candidate worker and task (zeros if no model)."""
        if self.influence is None:
            return np.zeros((len(self.instance.workers), len(self.instance.tasks)))
        return self.influence.influence_matrix(self.instance.workers, self.instance.tasks)

    @cached_property
    def entropy_by_task(self) -> dict[int, float]:
        """Location entropy per task id (for EIA)."""
        return entropy_of_tasks(self.instance.tasks, self.instance.venue_visits)

    def entropy_vector(self) -> np.ndarray:
        """Location entropies aligned with the task axis of the matrices."""
        return np.array(
            [self.entropy_by_task[t.task_id] for t in self.instance.tasks]
        )

    def build_assignment(
        self,
        pairs: "list[tuple[int, int]] | tuple[np.ndarray, np.ndarray] | MatchingResult",
    ) -> Assignment:
        """Materialize an :class:`Assignment` from (worker_row, task_column)
        index pairs, validating feasibility and one-to-one matching.

        Accepts a list of index tuples, a ``(rows, cols)`` pair of index
        arrays, or a :class:`~repro.flow.MatchingResult` directly — the
        array forms validate vectorized and only fall back to the scalar
        walk to reproduce its precise error messages.
        """
        if isinstance(pairs, MatchingResult):
            pairs = (pairs.rows, pairs.cols)
        if (
            isinstance(pairs, tuple)
            and len(pairs) == 2
            and isinstance(pairs[0], np.ndarray)
        ):
            rows = np.asarray(pairs[0], dtype=np.int64)
            columns = np.asarray(pairs[1], dtype=np.int64)
            valid = (
                np.unique(rows).size == rows.size
                and np.unique(columns).size == columns.size
                and (rows.size == 0 or bool(self.feasible.mask[rows, columns].all()))
            )
            if valid:
                assignment = Assignment()
                workers, tasks = self.instance.workers, self.instance.tasks
                for row, column in zip(rows.tolist(), columns.tolist()):
                    assignment.add(tasks[column], workers[row])
                return assignment
            pairs = list(zip(rows.tolist(), columns.tolist()))
        assignment = Assignment()
        used_rows: set[int] = set()
        used_columns: set[int] = set()
        for row, column in pairs:
            if row in used_rows:
                worker = self.instance.workers[row]
                raise ValueError(
                    f"solver assigned worker row {row} "
                    f"(worker id {worker.worker_id}) to more than one task"
                )
            if column in used_columns:
                task = self.instance.tasks[column]
                raise ValueError(
                    f"solver assigned task column {column} "
                    f"(task id {task.task_id}) to more than one worker"
                )
            if not self.feasible.mask[row, column]:
                raise ValueError(
                    f"solver produced infeasible pair (worker row {row}, task column {column})"
                )
            used_rows.add(row)
            used_columns.add(column)
            assignment.add(self.instance.tasks[column], self.instance.workers[row])
        return assignment


class Assigner(abc.ABC):
    """Interface of every task-assignment algorithm."""

    #: Short name used in experiment tables ("MTA", "IA", ...).
    name: str = "base"

    @abc.abstractmethod
    def assign(self, prepared: PreparedInstance) -> Assignment:
        """Compute a task assignment for the prepared instance."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
