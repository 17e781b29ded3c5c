"""The worker-task influence model (paper Section III-D).

The full influence of a candidate worker ``w_s`` for task ``s`` is

    if(w_s, s) = P_aff(w_s, s) * sum_{w_i != w_s} P_wil(w_i, s) * P_pro(w_s, w_i)

The expensive inner sum is evaluated for *all* candidate workers and tasks
at once through the RRR membership matrix (see
:meth:`~repro.propagation.RRRCollection.weighted_root_cover_batch`), making
the full ``|W| x |S|`` influence matrix a handful of sparse/dense products.

``P_wil(., s)`` and its RRR image depend only on ``s.location``, so the
model caches them per distinct location, not per task: each ``(x, y)``
owns one slot (a column) in two ``(|W| + 1)``-row slabs, and a call
gathers its candidate x task block from them in one fancy index.  Tasks
that share a location share a slot; the slab's capacity is a soft cap
counted in locations.

Ablations (Section V-B1) drop one factor:

* ``IA-WP`` — no affinity:      ``if = sum_i P_wil * P_pro``
* ``IA-AP`` — no willingness:   ``if = P_aff * sigma(w_s)``
* ``IA-AW`` — no propagation:   ``if = P_aff * sum_{i != s} P_wil(w_i, s)``

Cold start: a candidate absent from the fitted social graph is a worker in
no RRR set and with no fitted history.  Its willingness, propagation, self
term and ``sigma`` are 0 and its affinity is uniform (as
:class:`~repro.affinity.AffinityModel` already gives), so its ``if`` row is
0 under IA, IA-WP and IA-AP, and ``P_aff * sum_i P_wil`` under IA-AW.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.affinity import AffinityModel
from repro.entities import Task, Worker
from repro.exceptions import ConfigurationError
from repro.propagation import RRRCollection, SocialGraph
from repro.willingness import HistoricalAcceptance


@dataclass(frozen=True)
class InfluenceComponents:
    """Which of the three factors participate (for the paper's ablations)."""

    affinity: bool = True
    willingness: bool = True
    propagation: bool = True

    def __post_init__(self) -> None:
        if not (self.affinity or self.willingness or self.propagation):
            raise ConfigurationError("at least one influence component is required")

    @staticmethod
    def full() -> "InfluenceComponents":
        """All three factors — the IA configuration."""
        return InfluenceComponents()

    @staticmethod
    def without_affinity() -> "InfluenceComponents":
        """IA-WP: willingness + propagation."""
        return InfluenceComponents(affinity=False)

    @staticmethod
    def without_willingness() -> "InfluenceComponents":
        """IA-AP: affinity + propagation."""
        return InfluenceComponents(willingness=False)

    @staticmethod
    def without_propagation() -> "InfluenceComponents":
        """IA-AW: affinity + willingness."""
        return InfluenceComponents(propagation=False)


class InfluenceModel:
    """Combines affinity, willingness and propagation into ``if(w, s)``.

    The willingness column ``P_wil(., s)`` over all network workers and its
    :meth:`~repro.propagation.RRRCollection.weighted_root_cover_batch`
    image are cached per distinct task location.  Each location owns one
    slot in two ``(|W| + 1, capacity)`` Fortran-order slabs, plus a per-slot
    willingness total (the IA-AW sum) and an "inner valid" flag that a
    change of ``propagation.version`` clears.  A call fills only the slots
    it has not seen (one ``willingness_all`` per new location, one cover
    batch over the stale inner columns), so successive online rounds that
    mostly re-see the same open tasks pay for the ``|W|``-sized columns
    once per location.  The capacity is a soft cap of
    :attr:`MAX_CACHED_LOCATIONS`: past it the oldest locations are evicted,
    never one the current call uses, and a single call with more distinct
    locations than that grows the slabs.  The last slab row stays 0: it is
    the row of every candidate outside the social graph (see the module's
    cold-start rule).  Every cell is computed as it would be without the
    cache.

    Parameters
    ----------
    graph:
        The social network over all workers.
    affinity / willingness:
        Fitted component models.
    propagation:
        The RRR collection estimating ``P_pro`` (from
        :class:`~repro.propagation.RPO` or fixed-count sampling).
    components:
        Ablation switch; defaults to the full model.
    """

    #: Soft cap on cached locations (slab columns); beyond it the oldest
    #: locations are evicted (insertion order).  Bounds memory on long
    #: multi-day runs where expired locations never return, while keeping
    #: every open location warm.  The slabs are allocated with ``np.zeros``,
    #: so columns never written cost no resident memory.
    MAX_CACHED_LOCATIONS = 4096

    def __init__(
        self,
        graph: SocialGraph,
        affinity: AffinityModel,
        willingness: HistoricalAcceptance,
        propagation: RRRCollection,
        components: InfluenceComponents | None = None,
    ) -> None:
        self.graph = graph
        self.affinity = affinity
        self.willingness = willingness
        self.propagation = propagation
        self.components = components or InfluenceComponents.full()
        # Both per-worker vectors carry a trailing 0 for the null row.
        self._sigma_cache: np.ndarray | None = None
        # Root-count per worker for the self-term correction: the sets
        # rooted at w always contain w, so P_pro(w, w) = |W|/N * #roots(w).
        self._self_pro: np.ndarray | None = None
        self._rows_in_graph: np.ndarray | None = None
        self._propagation_version = propagation.version
        # The location store: (x, y) -> slot, in insertion order for
        # eviction; the slabs are allocated on first use.
        self._slot_of: dict[tuple[float, float], int] = {}
        self._free_slots: list[int] = []
        self._wil_slab = np.zeros((0, 0), order="F")
        self._inner_slab = np.zeros((0, 0), order="F")
        self._wil_totals = np.zeros(0)
        self._inner_valid = np.zeros(0, dtype=bool)
        # The store is mutated on lookup (fill + eviction), so concurrent
        # shard prepares under the pipelined runtime serialize through this
        # lock.
        self._lock = threading.RLock()

    # ---------------------------------------------------------------- helpers
    def _check_propagation_freshness(self) -> None:
        """Flush propagation-derived caches if the collection mutated."""
        if self.propagation.version != self._propagation_version:
            self._propagation_version = self.propagation.version
            self._sigma_cache = None
            self._self_pro = None
            self._inner_valid[:] = False

    def _sigma_all(self) -> np.ndarray:
        if self._sigma_cache is None:
            self._sigma_cache = np.append(self.propagation.sigma_all(), 0.0)
        return self._sigma_cache

    def _self_propagation(self) -> np.ndarray:
        if self._self_pro is None:
            counts = np.bincount(
                self.propagation.roots, minlength=self.graph.num_workers
            ).astype(float)
            n_sets = max(len(self.propagation), 1)
            self._self_pro = np.append(
                self.graph.num_workers * counts / n_sets, 0.0
            )
        return self._self_pro

    def _rows_of(self, worker_ids: Sequence[int]) -> np.ndarray:
        """Slab rows of ``worker_ids``; the null row for unknown workers."""
        return self.graph.indices_or(worker_ids, self.graph.num_workers)

    def _location_slots(self, tasks: Sequence[Task], need_inner: bool) -> np.ndarray:
        """The slab slot of every task's location, filling unseen ones.

        The sparse product in ``weighted_root_cover_batch`` is independent
        per column, so batching only the stale slots yields bit-identical
        columns to a full recomputation.
        """
        get = self._slot_of.get
        slots = [get((task.location.x, task.location.y), -1) for task in tasks]
        if -1 in slots:
            self._admit(tasks, slots)
        slots = np.array(slots, dtype=np.int64)
        if need_inner:
            stale = np.unique(slots[~self._inner_valid[slots]])
            if stale.size:
                n = self.graph.num_workers
                self._inner_slab[:n, stale] = (
                    self.propagation.weighted_root_cover_batch(
                        self._wil_slab[:n, stale]
                    )
                )
                self._inner_valid[stale] = True
        return slots

    def _admit(self, tasks: Sequence[Task], slots: list[int]) -> None:
        """Give every unseen location in ``tasks`` a slot and its willingness
        column, completing ``slots`` in place."""
        fresh: dict[tuple[float, float], Task] = {}
        for task, slot in zip(tasks, slots):
            if slot < 0:
                fresh.setdefault((task.location.x, task.location.y), task)
        self._reserve(len(fresh), in_use={slot for slot in slots if slot >= 0})
        n = self.graph.num_workers
        if self._rows_in_graph is None:
            self._rows_in_graph = self.graph.indices_of(self.willingness.worker_ids)
        for key, task in fresh.items():
            slot = self._free_slots.pop()
            self._slot_of[key] = slot
            # Rows outside _rows_in_graph are never written, so they stay 0
            # however often the slot is reused.
            column = self._wil_slab[:n, slot]
            column[self._rows_in_graph] = self.willingness.willingness_all(
                task.location
            )
            self._wil_totals[slot] = column.sum()
            self._inner_valid[slot] = False
        for position, task in enumerate(tasks):
            if slots[position] < 0:
                slots[position] = self._slot_of[(task.location.x, task.location.y)]

    def _reserve(self, count: int, in_use: set[int]) -> None:
        """Free ``count`` slots: evict the oldest locations not in ``in_use``
        and grow the slabs if that is not enough."""
        shortfall = count - len(self._free_slots)
        if shortfall <= 0:
            return
        victims = []
        for key, slot in self._slot_of.items():
            if len(victims) == shortfall:
                break
            if slot not in in_use:
                victims.append(key)
        for key in victims:
            self._free_slots.append(self._slot_of.pop(key))
        shortfall -= len(victims)
        if shortfall > 0:
            capacity = len(self._inner_valid) + shortfall
            self._grow(max(self.MAX_CACHED_LOCATIONS, capacity))

    def _grow(self, capacity: int) -> None:
        old = len(self._inner_valid)
        rows = self.graph.num_workers + 1
        wil = np.zeros((rows, capacity), order="F")
        inner = np.zeros((rows, capacity), order="F")
        if old:
            wil[:, :old] = self._wil_slab
            inner[:, :old] = self._inner_slab
        self._wil_slab, self._inner_slab = wil, inner
        self._wil_totals = np.concatenate([self._wil_totals, np.zeros(capacity - old)])
        self._inner_valid = np.concatenate(
            [self._inner_valid, np.zeros(capacity - old, dtype=bool)]
        )
        # Hand out the new slots in ascending order (pop() takes the last).
        self._free_slots[:0] = range(capacity - 1, old - 1, -1)

    # ------------------------------------------------------------------- API
    def sigma(self, worker_id: int) -> float:
        """Informed range of ``worker_id`` (the AP metric's per-worker term);
        0 for a worker outside the social graph."""
        with self._lock:
            return float(self._sigma_all()[self._rows_of([worker_id])[0]])

    def propagation_to_others(self, worker_id: int) -> float:
        """``sum_{w_j != w} P_pro(w, w_j)`` — Equation 7's per-pair term.

        Equals the informed range minus the self term ``P_pro(w, w)``; 0 for
        a worker outside the social graph.
        """
        with self._lock:
            row = self._rows_of([worker_id])[0]
            value = float(self._sigma_all()[row] - self._self_propagation()[row])
        return max(value, 0.0)

    def influence_matrix(
        self, workers: Sequence[Worker], tasks: Sequence[Task]
    ) -> np.ndarray:
        """``if(w, s)`` for every candidate worker x task: shape ``(C, T)``."""
        if not workers or not tasks:
            return np.zeros((len(workers), len(tasks)))
        with self._lock:
            return self._influence_matrix_locked(workers, tasks)

    def _influence_matrix_locked(
        self, workers: Sequence[Worker], tasks: Sequence[Task]
    ) -> np.ndarray:
        self._check_propagation_freshness()
        worker_ids = [w.worker_id for w in workers]
        rows = self._rows_of(worker_ids)
        use = self.components

        if use.willingness:
            slots = self._location_slots(tasks, need_inner=use.propagation)
            # Gather only the candidate rows of the cached |W|-sized columns:
            # O(C x T) per call, independent of network size.
            cells = (rows[:, None], slots[None, :])
            wil = self._wil_slab[cells]
            if use.propagation:
                # Remove the self term w_i = w_s.
                inner = self._inner_slab[cells] - (
                    self._self_propagation()[rows, None] * wil
                )
            else:
                # IA-AW: plain sum of other workers' willingness.
                inner = self._wil_totals[slots][None, :] - wil
        else:
            # IA-AP: propagation only — the informed range of the candidate.
            inner = np.repeat(self._sigma_all()[rows, None], len(tasks), axis=1)
        inner = np.maximum(inner, 0.0)

        if use.affinity:
            return self.affinity.affinity_matrix(worker_ids, tasks) * inner
        return inner

    def influence(self, worker: Worker, task: Task) -> float:
        """``if(w, s)`` for a single pair (convenience wrapper)."""
        return float(self.influence_matrix([worker], [task])[0, 0])
