"""The three replay workloads: their inputs, their set-up and their replay.

Every workload is a closed-loop replay through
:class:`repro.stream.StreamRuntime`: one process, one thread, the log
drained as fast as the runtime can play it.  A workload has three parts:

* ``generate`` builds the inputs from the ``--seed`` argument.  It runs
  in its own process, before the measured process starts, and its output
  is cached on disk by workload and seed.  Each world is pinned (fixed
  generator seed), so every run does the same work; the seed shuffles
  the *order* of the input rows, which the program's canonical sort must
  undo.  One reference digest per workload therefore checks both the
  output and its independence of input order.
* ``setup`` turns loaded inputs into a ready runtime; it is what
  ``setup_s`` times.
* ``on_round`` is the per-round work of the serving loop beside the
  runtime itself (checkpoints and metric scrapes on ``soak-ckpt``).

Nothing here passes an option that depends on wall-clock time (adaptive
triggers, latency-priced admission, shard rebalancing), so the rounds a
replay runs are the same on every run.
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Pinned generator seeds: the worlds never change, only the row order.
WORLD_SEED = 7
SOAK_SEED = 37

SOAK_DAYS = 10
#: Entity-id stride between soak days, so re-used synthetic ids never
#: collide across days.
DAY_ID_STRIDE = 1_000_000
#: Rounds between two metric scrapes on ``soak-ckpt``.
SCRAPE_EVERY = 8


def _dump(obj: Any, path: Path) -> None:
    """Write ``obj`` atomically, so a killed generator leaves no half file."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def _load(path: Path) -> Any:
    with open(path, "rb") as handle:
        return pickle.load(handle)


# --------------------------------------------------------------- log rows
def log_rows(log) -> dict[str, Any]:
    """The ``EventLog.from_columns`` arguments that rebuild ``log``.

    Side tables are listed in row order; relocation rows are not used by
    these workloads, so coordinates are not carried.
    """
    from repro.stream.events import KIND_ARRIVAL, KIND_PUBLISH

    kinds = np.asarray(log.kinds)
    payload = np.full(len(kinds), -1, dtype=np.int64)
    arrivals = np.flatnonzero(kinds == KIND_ARRIVAL)
    publishes = np.flatnonzero(kinds == KIND_PUBLISH)
    payload[arrivals] = np.arange(arrivals.size)
    payload[publishes] = np.arange(publishes.size)
    return {
        "time": np.array(log.times),
        "kind": kinds.copy(),
        "entity_id": np.array(log.entity_ids),
        "payload": payload,
        "workers": [log.worker_at(int(i)) for i in arrivals],
        "tasks": [log.task_at(int(i)) for i in publishes],
    }


def shuffled_rows(rows: dict[str, Any], seed: int) -> dict[str, Any]:
    """``rows`` with its rows in a seed-given order (side tables untouched)."""
    order = np.random.default_rng(seed).permutation(len(rows["time"]))
    out = dict(rows)
    for key in ("time", "kind", "entity_id", "payload"):
        out[key] = np.ascontiguousarray(rows[key][order])
    return out


def log_from_rows(rows: dict[str, Any]):
    from repro.stream import EventLog

    return EventLog.from_columns(
        rows["time"], rows["kind"], rows["entity_id"],
        payload=rows["payload"], workers=rows["workers"], tasks=rows["tasks"],
    )


# ------------------------------------------------------------- workloads
@dataclass
class Replay:
    """A ready runtime plus what its workload's serving loop needs."""

    runtime: Any
    rows: int
    influence: Any = None
    on_round: Callable[[Any], None] | None = None
    finish: Callable[[], dict] | None = None


class Workload:
    name: str = ""
    #: Set-ups per iteration; cheap set-ups repeat so their median holds.
    setup_repeats: int = 1
    #: MiB touched before a run's first replay (see ``run.touch_memory``):
    #: 1.3-1.4x the replay's measured peak RSS, so a change that grows the
    #: peak a little still starts its replays on warm memory.
    footprint_mib: int = 0

    def generate(self, seed: int, cache: Path) -> Path:
        """Write the inputs for ``seed`` under ``cache``; returns the path."""
        raise NotImplementedError

    def load(self, path: Path) -> Any:
        return _load(path)

    def setup(self, inputs: Any, scratch: Path) -> Replay:
        raise NotImplementedError


class PaperIA(Workload):
    """BK-like world, 3 days from the richest, DITA-fitted IA."""

    name = "paper-ia"
    footprint_mib = 1600

    def generate(self, seed: int, cache: Path) -> Path:
        out = cache / f"seed-{seed}.pkl"
        if out.exists():
            return out
        world = cache / "world.pkl"
        if world.exists():
            raw = _load(world)
        else:
            from repro.data import InstanceBuilder, brightkite_like, generate_dataset

            dataset = generate_dataset(brightkite_like(scale=1.0, seed=WORLD_SEED))
            day = InstanceBuilder(dataset).richest_days(count=1)[0]
            days = [d for d in range(day, day + 3) if dataset.checkins_on_day(d)]
            raw = {
                "name": dataset.name,
                "venues": dataset.venues,
                "checkins": list(dataset.checkins),
                "social_edges": list(dataset.social_edges),
                "user_ids": dataset.user_ids,
                "days": days,
            }
            _dump(raw, world)
        order = np.random.default_rng(seed).permutation(len(raw["checkins"]))
        raw["checkins"] = [raw["checkins"][i] for i in order]
        _dump(raw, out)
        return out

    def load(self, path: Path) -> Any:
        from repro.data import CheckInDataset

        raw = _load(path)
        days = raw.pop("days")
        return CheckInDataset(**raw), days

    def setup(self, inputs: Any, scratch: Path) -> Replay:
        from repro.assignment import IAAssigner
        from repro.framework import DITAPipeline, PipelineConfig
        from repro.stream import StreamRuntime, TimeWindowTrigger, multi_day_stream

        dataset, days = inputs
        instance, log = multi_day_stream(dataset, days)
        # The stream CLI's defaults: 20 topics, 20k fixed RRR sets.
        config = PipelineConfig(
            num_topics=20, propagation_mode="fixed", num_rrr_sets=20_000,
            seed=WORLD_SEED,
        )
        influence = DITAPipeline(config).fit(instance).influence_model()
        runtime = StreamRuntime(
            IAAssigner(), influence, TimeWindowTrigger(0.1), instance, log
        )
        return Replay(runtime=runtime, rows=len(log), influence=influence)


class CityBurst(Workload):
    """Eight separated cities at 100x the paper's volume, sharded NN."""

    name = "city-burst"
    setup_repeats = 9
    footprint_mib = 2000

    def generate(self, seed: int, cache: Path) -> Path:
        out = cache / f"seed-{seed}.pkl"
        if out.exists():
            return out
        world = cache / "world.pkl"
        if world.exists():
            base, rows = _load(world)
        else:
            from repro.stream import synthetic_stream

            base, log = synthetic_stream(
                num_workers=20_000,
                num_tasks=25_000,
                area_km=25.0,
                churn_fraction=0.05,
                cancel_fraction=0.02,
                clusters=8,
                seed=WORLD_SEED,
            )
            rows = log_rows(log)
            _dump((base, rows), world)
        _dump((base, shuffled_rows(rows, seed)), out)
        return out

    def setup(self, inputs: Any, scratch: Path) -> Replay:
        from repro.assignment import NearestNeighborAssigner
        from repro.stream import CountTrigger, StreamRuntime

        base, rows = inputs
        log = log_from_rows(rows)
        runtime = StreamRuntime(
            NearestNeighborAssigner(), None, CountTrigger(128), base, log,
            shards=8, executor="serial",
        )
        return Replay(runtime=runtime, rows=len(log))


def soak_day(day: int):
    """Day ``day`` of the soak horizon: a one-day four-city world."""
    from repro.stream import synthetic_stream

    # The scale bench's day world at scale 0.05: 18 h of arrivals and 4 h
    # validity keep every expiry inside the day's 24 h segment window.
    base, log = synthetic_stream(
        num_workers=400,
        num_tasks=2000,
        duration_hours=18.0,
        area_km=25.0,
        valid_hours=4.0,
        reachable_km=10.0,
        cancel_fraction=0.02,
        clusters=4,
        seed=SOAK_SEED + day,
    )
    rows = log_rows(log)
    if day:
        hours = 24.0 * day
        offset = day * DAY_ID_STRIDE
        rows["time"] = rows["time"] + hours
        rows["entity_id"] = rows["entity_id"] + offset
        rows["workers"] = [
            replace(worker, worker_id=worker.worker_id + offset)
            for worker in rows["workers"]
        ]
        rows["tasks"] = [
            replace(
                task, task_id=task.task_id + offset,
                publication_time=task.publication_time + hours,
            )
            for task in rows["tasks"]
        ]
    return base, rows


class SoakCheckpoint(Workload):
    """Ten one-day segments, warm IA, daily checkpoints, metric scrapes."""

    name = "soak-ckpt"
    setup_repeats = 9
    footprint_mib = 3200

    def generate(self, seed: int, cache: Path) -> Path:
        out = cache / f"seed-{seed}.pkl"
        if out.exists():
            return out
        world = cache / "world.pkl"
        if world.exists():
            base, days = _load(world)
        else:
            days = [soak_day(day) for day in range(SOAK_DAYS)]
            base = days[0][0]
            days = [rows for _, rows in days]
            _dump((base, days), world)
        _dump(
            (base, [shuffled_rows(rows, seed + d) for d, rows in enumerate(days)]),
            out,
        )
        return out

    def setup(self, inputs: Any, scratch: Path) -> Replay:
        from repro.assignment import IAAssigner
        from repro.obs import MetricsRegistry, Observability, render_prometheus
        from repro.stream import SegmentedEventLog, StreamRuntime, TimeWindowTrigger

        base, days = inputs
        builders = [SegmentBuilder(rows) for rows in days]
        log = SegmentedEventLog(builders, [24.0 * d for d in range(len(days))])
        registry = MetricsRegistry()
        runtime = StreamRuntime(
            IAAssigner(), None, TimeWindowTrigger(0.25), base, log,
            patience_hours=8.0, warm=True, obs=Observability(registry=registry),
        )
        checkpoints = scratch / "checkpoints"
        shutil.rmtree(checkpoints, ignore_errors=True)
        checkpoints.mkdir(parents=True)
        manifest = checkpoints / "soak"
        state = {"day": 0, "rounds": 0, "scrapes": 0, "checkpoints": 0}

        def on_round(rt) -> None:
            state["rounds"] += 1
            if state["rounds"] % SCRAPE_EVERY == 0:
                render_prometheus(registry)
                state["scrapes"] += 1
            day = math.floor(rt.clock / 24.0)
            if day > state["day"] or rt.done:
                state["day"] = day
                rt.checkpoint(manifest)
                state["checkpoints"] += 1

        def finish() -> dict:
            shutil.rmtree(checkpoints, ignore_errors=True)
            return {
                "scrapes": state["scrapes"],
                "checkpoints": state["checkpoints"],
                "segments": log.segment_count,
            }

        return Replay(runtime=runtime, rows=len(log), on_round=on_round,
                      finish=finish)


class SegmentBuilder:
    """Segment builder: the pre-generated day handed to ``from_columns``."""

    def __init__(self, rows: dict[str, Any]) -> None:
        self.rows = rows

    def __call__(self):
        return log_from_rows(self.rows)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperIA(), CityBurst(), SoakCheckpoint())
}
