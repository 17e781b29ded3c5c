"""Tests for repro.framework.online — batched-arrival simulation."""

import pytest

from repro.data.instance import SCInstance
from repro.entities import Task, Worker
from repro.exceptions import DataError
from repro.framework import OnlineSimulator, WorkerArrival, day_arrivals
from repro.framework.online import OnlineResult
from repro.assignment import MTAAssigner, NearestNeighborAssigner
from repro.geo import Point


def make_instance(tasks, current_time=0.0):
    return SCInstance(
        name="online-test",
        current_time=current_time,
        tasks=tasks,
        workers=[],
        histories={},
        social_edges=[],
        all_worker_ids=tuple(range(100)),
    )


def make_task(task_id, x, y, published, phi=5.0):
    return Task(
        task_id=task_id,
        location=Point(x, y),
        publication_time=published,
        valid_hours=phi,
    )


def make_arrival(worker_id, x, y, at, radius=10.0, speed=5.0):
    return WorkerArrival(
        worker=Worker(
            worker_id=worker_id,
            location=Point(x, y),
            reachable_km=radius,
            speed_kmh=speed,
        ),
        arrival_time=at,
    )


class TestOnlineSimulatorValidation:
    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            OnlineSimulator(MTAAssigner(), None, batch_hours=0.0)

    def test_rejects_negative_patience(self):
        with pytest.raises(ValueError):
            OnlineSimulator(MTAAssigner(), None, patience_hours=-1.0)


class TestOnlineRun:
    def test_empty_streams(self):
        simulator = OnlineSimulator(MTAAssigner(), None)
        result = simulator.run(make_instance([]), [])
        assert result.total_assigned == 0
        assert len(result.steps) == 1  # one empty round at the start time

    def test_single_worker_single_task(self):
        instance = make_instance([make_task(0, 1.0, 0.0, published=0.0)])
        arrivals = [make_arrival(7, 0.0, 0.0, at=0.0)]
        simulator = OnlineSimulator(MTAAssigner(), None)
        result = simulator.run(instance, arrivals)
        assert result.total_assigned == 1
        pair = result.assignment.pairs[0]
        assert pair.worker.worker_id == 7
        assert pair.task.task_id == 0

    def test_worker_stays_online_until_assigned(self):
        # Worker arrives at t=0; the only feasible task publishes at t=3.
        instance = make_instance([make_task(0, 1.0, 0.0, published=3.0)])
        arrivals = [make_arrival(1, 0.0, 0.0, at=0.0)]
        simulator = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0)
        result = simulator.run(instance, arrivals)
        assert result.total_assigned == 1
        assigned_step = next(s for s in result.steps if s.assigned)
        assert assigned_step.time == pytest.approx(3.0)

    def test_task_expires_unassigned(self):
        # Task lives [0, 1]; the only worker arrives at t=2.
        instance = make_instance([make_task(0, 1.0, 0.0, published=0.0, phi=1.0)])
        arrivals = [make_arrival(1, 0.0, 0.0, at=2.0)]
        simulator = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0)
        result = simulator.run(instance, arrivals, end_time=3.0)
        assert result.total_assigned == 0
        assert result.total_expired == 1

    def test_patience_churns_idle_worker(self):
        # No feasible tasks at all; worker leaves after 2 h of patience.
        instance = make_instance([make_task(0, 500.0, 500.0, published=0.0, phi=8.0)])
        arrivals = [make_arrival(1, 0.0, 0.0, at=0.0)]
        simulator = OnlineSimulator(
            MTAAssigner(), None, batch_hours=1.0, patience_hours=2.0
        )
        result = simulator.run(instance, arrivals, end_time=6.0)
        assert result.total_assigned == 0
        assert result.total_churned == 1

    def test_no_patience_means_no_churn(self):
        instance = make_instance([make_task(0, 500.0, 500.0, published=0.0, phi=8.0)])
        arrivals = [make_arrival(1, 0.0, 0.0, at=0.0)]
        simulator = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0)
        result = simulator.run(instance, arrivals, end_time=6.0)
        assert result.total_churned == 0
        assert all(s.churned_workers == 0 for s in result.steps)

    def test_each_worker_assigned_at_most_once(self):
        tasks = [make_task(i, float(i), 0.0, published=0.0) for i in range(4)]
        arrivals = [make_arrival(1, 0.0, 0.0, at=0.0, radius=50.0)]
        simulator = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0)
        result = simulator.run(make_instance(tasks), arrivals)
        assert result.total_assigned == 1

    def test_later_batches_pick_up_late_tasks(self):
        tasks = [
            make_task(0, 1.0, 0.0, published=0.0),
            make_task(1, 0.0, 1.0, published=2.0),
        ]
        arrivals = [
            make_arrival(1, 0.0, 0.0, at=0.0),
            make_arrival(2, 0.0, 0.0, at=0.0),
        ]
        simulator = OnlineSimulator(MTAAssigner(), None, batch_hours=1.0)
        result = simulator.run(make_instance(tasks), arrivals)
        assert result.total_assigned == 2
        times = sorted(step.time for step in result.steps if step.assigned)
        assert times[0] < times[1]

    def test_works_with_greedy_assigner(self):
        tasks = [make_task(i, float(i), 0.0, published=0.0) for i in range(3)]
        arrivals = [make_arrival(i, float(i), 0.5, at=0.0) for i in range(3)]
        simulator = OnlineSimulator(NearestNeighborAssigner(), None)
        result = simulator.run(make_instance(tasks), arrivals)
        assert result.total_assigned == 3

    def test_cpu_time_accumulates(self):
        tasks = [make_task(i, float(i), 0.0, published=0.0) for i in range(3)]
        arrivals = [make_arrival(i, float(i), 0.5, at=0.0) for i in range(3)]
        result = OnlineSimulator(MTAAssigner(), None).run(make_instance(tasks), arrivals)
        assert result.total_cpu_seconds > 0.0

    def test_rounds_reach_the_assigner_prepared(self):
        """Feasibility and influence are built before the assigner (and its
        CPU timer) runs; entropy stays lazy."""
        seen = []

        class Recording(MTAAssigner):
            def assign(self, prepared):
                seen.append(set(prepared.__dict__))
                return super().assign(prepared)

        tasks = [make_task(i, float(i), 0.0, published=0.0) for i in range(3)]
        arrivals = [make_arrival(i, float(i), 0.5, at=0.0) for i in range(3)]
        OnlineSimulator(Recording(), None).run(make_instance(tasks), arrivals)
        assert seen
        for cached in seen:
            assert {"feasible", "influence_matrix"} <= cached
            assert "entropy_by_task" not in cached


class TestDayArrivals:
    def test_arrivals_sorted_and_unique(self, tiny_dataset):
        day = 6
        arrivals = day_arrivals(tiny_dataset, day)
        times = [a.arrival_time for a in arrivals]
        assert times == sorted(times)
        ids = [a.worker.worker_id for a in arrivals]
        assert len(set(ids)) == len(ids)

    def test_matches_day_instance_workers(self, tiny_dataset, tiny_builder):
        day = 6
        instance = tiny_builder.build_day(day)
        arrivals = day_arrivals(tiny_dataset, day, reachable_km=25.0)
        assert {a.worker.worker_id for a in arrivals} == {
            w.worker_id for w in instance.workers
        }

    def test_empty_day_raises(self, tiny_dataset):
        with pytest.raises(DataError):
            day_arrivals(tiny_dataset, 9999)

    def test_online_end_to_end_on_tiny_world(
        self, tiny_dataset, tiny_instance, full_influence
    ):
        arrivals = day_arrivals(tiny_dataset, 6)
        simulator = OnlineSimulator(
            MTAAssigner(), full_influence, batch_hours=4.0
        )
        result = simulator.run(tiny_instance, arrivals)
        assert isinstance(result, OnlineResult)
        assert result.total_assigned > 0
        # Pool accounting: every assigned task was open in some round.
        assert result.total_assigned <= len(tiny_instance.tasks)
