"""Tests for the combined worker-task influence model."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.assignment import IAAssigner
from repro.entities import Worker
from repro.exceptions import ConfigurationError
from repro.framework import WorkerArrival, day_arrivals
from repro.influence import InfluenceComponents, InfluenceModel
from repro.propagation import RRRCollection
from repro.stream import StreamRuntime, TimeWindowTrigger, log_from_arrivals


class TestInfluenceComponents:
    def test_full_has_everything(self):
        full = InfluenceComponents.full()
        assert full.affinity and full.willingness and full.propagation

    def test_ablations_drop_one(self):
        assert not InfluenceComponents.without_affinity().affinity
        assert not InfluenceComponents.without_willingness().willingness
        assert not InfluenceComponents.without_propagation().propagation

    def test_all_disabled_rejected(self):
        with pytest.raises(ConfigurationError):
            InfluenceComponents(affinity=False, willingness=False, propagation=False)

    def test_hashable_for_grouping(self):
        assert InfluenceComponents.full() == InfluenceComponents()
        assert len({InfluenceComponents.full(), InfluenceComponents()}) == 1


class TestInfluenceModel:
    def test_matrix_shape(self, fitted_models, tiny_instance):
        model = fitted_models.influence_model()
        matrix = model.influence_matrix(tiny_instance.workers[:5], tiny_instance.tasks[:7])
        assert matrix.shape == (5, 7)

    def test_matrix_non_negative(self, full_influence, tiny_instance):
        matrix = full_influence.influence_matrix(tiny_instance.workers, tiny_instance.tasks)
        assert (matrix >= 0.0).all()

    def test_matrix_not_identically_zero(self, full_influence, tiny_instance):
        matrix = full_influence.influence_matrix(tiny_instance.workers, tiny_instance.tasks)
        assert matrix.max() > 0.0

    def test_empty_inputs(self, full_influence):
        assert full_influence.influence_matrix([], []).shape == (0, 0)

    def test_single_pair_matches_matrix(self, full_influence, tiny_instance):
        worker = tiny_instance.workers[0]
        task = tiny_instance.tasks[0]
        matrix = full_influence.influence_matrix([worker], [task])
        assert full_influence.influence(worker, task) == pytest.approx(float(matrix[0, 0]))

    def test_full_influence_is_affinity_times_inner(self, fitted_models, tiny_instance):
        """if = P_aff * sum_i P_wil * P_pro — verified against the
        components computed independently."""
        model = fitted_models.influence_model()
        worker = tiny_instance.workers[0]
        task = tiny_instance.tasks[0]

        graph = fitted_models.graph
        wil = np.zeros(graph.num_workers)
        for worker_id in fitted_models.willingness.worker_ids:
            wil[graph.index_of(worker_id)] = fitted_models.willingness.willingness(
                worker_id, task.location
            )
        source = graph.index_of(worker.worker_id)
        ppro_row = fitted_models.propagation.ppro_matrix_row(source)
        inner = sum(
            wil[i] * ppro_row[i] for i in range(graph.num_workers) if i != source
        )
        expected = fitted_models.affinity.affinity(worker.worker_id, task) * inner
        assert model.influence(worker, task) == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_ablation_without_affinity_ignores_topics(self, fitted_models, tiny_instance):
        ablated = fitted_models.influence_model(InfluenceComponents.without_affinity())
        full = fitted_models.influence_model()
        workers, tasks = tiny_instance.workers[:4], tiny_instance.tasks[:4]
        matrix_ablated = ablated.influence_matrix(workers, tasks)
        matrix_full = full.influence_matrix(workers, tasks)
        # Full = affinity * ablated (elementwise), with affinity <= 1 -> full <= ablated.
        assert (matrix_full <= matrix_ablated + 1e-9).all()

    def test_ablation_without_willingness_is_affinity_times_sigma(
        self, fitted_models, tiny_instance
    ):
        ablated = fitted_models.influence_model(InfluenceComponents.without_willingness())
        worker = tiny_instance.workers[1]
        task = tiny_instance.tasks[1]
        expected = (
            fitted_models.affinity.affinity(worker.worker_id, task)
            * ablated.sigma(worker.worker_id)
        )
        assert ablated.influence(worker, task) == pytest.approx(expected, rel=1e-9)

    def test_ablation_without_propagation_sums_other_willingness(
        self, fitted_models, tiny_instance
    ):
        ablated = fitted_models.influence_model(InfluenceComponents.without_propagation())
        worker = tiny_instance.workers[2]
        task = tiny_instance.tasks[2]
        graph = fitted_models.graph
        total = 0.0
        for worker_id in fitted_models.willingness.worker_ids:
            if worker_id == worker.worker_id:
                continue
            total += fitted_models.willingness.willingness(worker_id, task.location)
        expected = fitted_models.affinity.affinity(worker.worker_id, task) * total
        assert ablated.influence(worker, task) == pytest.approx(expected, rel=1e-6)

    def test_sigma_positive_for_connected_worker(self, fitted_models, tiny_instance):
        worker = tiny_instance.workers[0]
        assert fitted_models.influence_model().sigma(worker.worker_id) >= 1.0 - 1e-6

    def test_propagation_to_others_excludes_self(self, fitted_models, tiny_instance):
        model = fitted_models.influence_model()
        worker = tiny_instance.workers[0]
        assert model.propagation_to_others(worker.worker_id) <= model.sigma(worker.worker_id)
        assert model.propagation_to_others(worker.worker_id) >= 0.0


# ----------------------------------------------------------- location store
def shared_location_tasks(tasks, copies=2):
    """``tasks`` plus ``copies - 1`` re-published twins at each location."""
    out = list(tasks)
    next_id = max(task.task_id for task in tasks) + 1
    for _ in range(copies - 1):
        for task in tasks:
            out.append(replace(task, task_id=next_id))
            next_id += 1
    return out


def copy_collection(collection):
    copy = RRRCollection(collection.num_workers)
    copy.extend_flat(collection.roots, collection.indptr, collection.flat_members)
    return copy


def model_over(fitted_models, propagation=None, components=None):
    return InfluenceModel(
        graph=fitted_models.graph,
        affinity=fitted_models.affinity,
        willingness=fitted_models.willingness,
        propagation=propagation or fitted_models.propagation,
        components=components,
    )


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` (instance attribute) and return its call log."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


ALL_COMPONENTS = [
    InfluenceComponents.full(),
    InfluenceComponents.without_affinity(),
    InfluenceComponents.without_willingness(),
    InfluenceComponents.without_propagation(),
]


class TestLocationStore:
    def test_shared_location_builds_one_willingness_column(
        self, fitted_models, tiny_instance, monkeypatch
    ):
        model = model_over(fitted_models)
        calls = count_calls(monkeypatch, fitted_models.willingness, "willingness_all")
        task = tiny_instance.tasks[0]
        twins = shared_location_tasks([task])
        matrix = model.influence_matrix(tiny_instance.workers, twins)
        assert len(calls) == 1
        assert matrix[:, 0].tobytes() == matrix[:, 1].tobytes()
        model.influence_matrix(tiny_instance.workers, [task])
        assert len(calls) == 1

    @pytest.mark.parametrize("components", ALL_COMPONENTS)
    def test_slots_filled_by_twins_match_a_cold_model(
        self, fitted_models, tiny_instance, components
    ):
        workers = tiny_instance.workers
        tasks = shared_location_tasks(tiny_instance.tasks[:6], copies=3)
        warm = model_over(fitted_models, components=components)
        warm.influence_matrix(workers, tasks[6:])
        cold = model_over(fitted_models, components=components)
        assert (
            warm.influence_matrix(workers, tasks).tobytes()
            == cold.influence_matrix(workers, tasks).tobytes()
        )

    def test_eviction_matches_fresh_model(
        self, fitted_models, tiny_instance, monkeypatch
    ):
        workers, tasks = tiny_instance.workers, tiny_instance.tasks[:18]
        model = model_over(fitted_models)
        model.MAX_CACHED_LOCATIONS = 3
        windows = [tasks[i:i + 3] for i in range(0, len(tasks), 2)]
        builds = 0
        for window in windows + windows[::-1]:
            fresh = model_over(fitted_models)
            expected = fresh.influence_matrix(workers, window).tobytes()
            calls = count_calls(
                monkeypatch, fitted_models.willingness, "willingness_all"
            )
            assert model.influence_matrix(workers, window).tobytes() == expected
            monkeypatch.undo()
            builds += len(calls)
        # Evicted locations were rebuilt on the way back.
        assert builds > len({task.location for task in tasks})

    def test_call_with_more_locations_than_cap(
        self, fitted_models, tiny_instance, monkeypatch
    ):
        workers, tasks = tiny_instance.workers, tiny_instance.tasks[:9]
        model = model_over(fitted_models)
        model.MAX_CACHED_LOCATIONS = 2
        model.influence_matrix(workers, tiny_instance.tasks[-2:])
        fresh = model_over(fitted_models)
        assert (
            model.influence_matrix(workers, tasks).tobytes()
            == fresh.influence_matrix(workers, tasks).tobytes()
        )
        # Every location of the large call stays cached until the next one.
        calls = count_calls(monkeypatch, fitted_models.willingness, "willingness_all")
        model.influence_matrix(workers, tasks)
        assert calls == []

    def test_propagation_change_refreshes_inner_columns_only(
        self, fitted_models, tiny_instance, monkeypatch
    ):
        workers, tasks = tiny_instance.workers, tiny_instance.tasks[:8]
        collection = copy_collection(fitted_models.propagation)
        model = model_over(fitted_models, propagation=collection)
        model.influence_matrix(workers, tasks)
        wil_calls = count_calls(monkeypatch, fitted_models.willingness, "willingness_all")
        cover_calls = count_calls(monkeypatch, collection, "weighted_root_cover_batch")
        model.influence_matrix(workers, tasks)
        assert wil_calls == [] and cover_calls == []

        extra = fitted_models.propagation
        collection.extend_flat(extra.roots[:200], extra.indptr[:201],
                               extra.flat_members[: extra.indptr[200]])
        refreshed = model.influence_matrix(workers, tasks)
        assert wil_calls == []
        assert len(cover_calls) == 1
        assert cover_calls[0][0].shape[1] == len({t.location for t in tasks})
        fresh = model_over(fitted_models, propagation=copy_collection(collection))
        assert refreshed.tobytes() == fresh.influence_matrix(workers, tasks).tobytes()

    def test_concurrent_calls_with_eviction_match_fresh_model(
        self, fitted_models, tiny_instance
    ):
        """Threads sharing one model (as pipelined shard prepares do) get the
        cold model's bytes even while their calls evict each other's slots."""
        workers, tasks = tiny_instance.workers, tiny_instance.tasks[:16]
        windows = [tasks[i:i + 4] for i in range(0, len(tasks), 3)]
        expected = [
            model_over(fitted_models).influence_matrix(workers, w).tobytes()
            for w in windows
        ]
        model = model_over(fitted_models)
        model.MAX_CACHED_LOCATIONS = 5
        mismatches = []

        def hammer(offset):
            for step in range(40):
                k = (offset + step) % len(windows)
                got = model.influence_matrix(workers, windows[k]).tobytes()
                if got != expected[k]:
                    mismatches.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_without_propagation_totals_match_per_pair_definition(
        self, fitted_models, tiny_instance
    ):
        model = model_over(
            fitted_models, components=InfluenceComponents.without_propagation()
        )
        workers = tiny_instance.workers[:5]
        tasks = shared_location_tasks(tiny_instance.tasks[:4])
        matrix = model.influence_matrix(workers, tasks)
        willingness = fitted_models.willingness
        for i, worker in enumerate(workers):
            for j, task in enumerate(tasks):
                total = sum(
                    willingness.willingness(other, task.location)
                    for other in willingness.worker_ids
                    if other != worker.worker_id
                )
                expected = fitted_models.affinity.affinity(worker.worker_id, task) * total
                assert matrix[i, j] == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------- cold start
def never_seen_worker(fitted_models, location):
    worker_id = max(fitted_models.graph.worker_ids) + 1000
    return Worker(worker_id=worker_id, location=location, reachable_km=25.0)


def known_rows_alone(fitted_models, components, candidates, known, tasks):
    """The rows a model that never saw the unknown candidates gives the
    ``known`` ones.  The affinity factor is taken over the full candidate
    list: a BLAS matrix product's rows depend on how many rows it has, so
    only the factors the influence model itself computes can be compared
    bit for bit across candidate lists."""
    inner_only = replace(components, affinity=False)
    alone = model_over(fitted_models, components=inner_only)
    rows = alone.influence_matrix([candidates[i] for i in known], tasks)
    if not components.affinity:
        return rows
    affinity = fitted_models.affinity.affinity_matrix(
        [w.worker_id for w in candidates], tasks
    )
    return affinity[known] * rows


class TestColdStartWorker:
    @pytest.mark.parametrize("components", ALL_COMPONENTS)
    def test_known_rows_unchanged_and_stranger_row_defined(
        self, fitted_models, tiny_instance, components
    ):
        workers, tasks = tiny_instance.workers, tiny_instance.tasks
        stranger = never_seen_worker(fitted_models, tasks[0].location)
        candidates = [*workers, stranger]
        model = model_over(fitted_models, components=components)
        matrix = model.influence_matrix(candidates, tasks)
        known = np.arange(len(workers))
        expected = known_rows_alone(fitted_models, components, candidates, known, tasks)
        assert matrix[:-1].tobytes() == expected.tobytes()

        if components.willingness and not components.propagation:
            # IA-AW: uniform affinity times everyone's willingness.
            willingness = fitted_models.willingness
            for j, task in enumerate(tasks[:3]):
                total = sum(
                    willingness.willingness(other, task.location)
                    for other in willingness.worker_ids
                )
                expected = fitted_models.affinity.affinity(stranger.worker_id, task) * total
                assert matrix[-1, j] == pytest.approx(expected, rel=1e-9)
        else:
            assert not matrix[-1].any()

    def test_sigma_and_propagation_are_zero(self, fitted_models, tiny_instance):
        model = model_over(fitted_models)
        stranger = never_seen_worker(fitted_models, tiny_instance.tasks[0].location)
        assert model.sigma(stranger.worker_id) == 0.0
        assert model.propagation_to_others(stranger.worker_id) == 0.0

    def test_stream_with_never_seen_worker_runs_to_completion(
        self, tiny_dataset, tiny_instance, fitted_models
    ):
        arrivals = day_arrivals(tiny_dataset, 6)
        stranger = never_seen_worker(fitted_models, tiny_instance.tasks[0].location)
        first = min(arrival.arrival_time for arrival in arrivals)
        arrivals.append(WorkerArrival(worker=stranger, arrival_time=first))
        log = log_from_arrivals(arrivals, tiny_instance.tasks)

        model = model_over(fitted_models)
        calls = []
        original = model.influence_matrix

        def recording(workers, tasks):
            matrix = original(workers, tasks)
            calls.append((list(workers), list(tasks), matrix))
            return matrix

        model.influence_matrix = recording
        result = StreamRuntime(
            IAAssigner(), model, TimeWindowTrigger(4.0), tiny_instance, log
        ).run()
        assert result.total_assigned > 0

        full = InfluenceComponents.full()
        rounds_with_stranger = 0
        for candidates, tasks, matrix in calls:
            is_stranger = np.array(
                [w.worker_id == stranger.worker_id for w in candidates]
            )
            if not is_stranger.any():
                continue
            rounds_with_stranger += 1
            known = np.flatnonzero(~is_stranger)
            expected = known_rows_alone(fitted_models, full, candidates, known, tasks)
            assert matrix[known].tobytes() == expected.tobytes()
            assert not matrix[is_stranger].any()
        assert rounds_with_stranger > 0
