"""Scale bench: peak RSS of segmented vs materialized horizon replay.

The point of :class:`~repro.stream.SegmentedEventLog` is that replay
memory is bounded by the *segment window*, not the *horizon length*: the
30-day horizon should stream through the runtime holding roughly two
days of events, while the materialized log holds all thirty.  This bench
measures exactly that — each (horizon, mode) cell runs in its own child
process (``ru_maxrss`` is a process-lifetime maximum, so in-process
before/after sampling cannot isolate a single replay) and reports

* **events/sec** of the full replay;
* **peak RSS** of the child process;
* a **digest** over the assignment pairs and per-round counts, so the
  parent can assert the segmented replay is bit-identical to the
  materialized one at every horizon.

The child also samples its resident set (``VmRSS``) at the end of every
simulated day.

Three properties are asserted:

* exactness — segmented digest == materialized digest at both horizons;
* sub-linear memory — growing the horizon 10x (3 -> 30 days) grows the
  segmented replay's peak RSS by at most half of what it adds to the
  materialized replay's, and the segmented long-horizon run stays below
  the materialized one outright;
* flat memory after warm-up — on the 30-day segmented replay, the RSS at
  the end of the last day exceeds the RSS at the end of day 3 by at most
  ``FLAT_RSS_SLACK_MIB``, so any per-entity cache that never evicts fails
  the bench.

Each day of the horizon is an *independent* one-day synthetic world
(day-offset entity ids, day-shifted times), so the segmented log can
synthesize day ``d`` lazily without replaying days ``0..d-1`` — the
same contract ``--segment-days`` relies on.  The materialized baseline
is ``materialize()`` of the very same segments, which guarantees both
modes replay the identical world.

``REPRO_BENCH_SCALE`` scales per-day volumes like the other benches
(default 0.15; CI smoke runs 0.05).
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve()
REPO = HERE.parent.parent

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))

PAPER_DAY_WORKERS = 2000
PAPER_DAY_TASKS = 2500

#: Short and long horizons (days).  Sub-linearity is asserted on the
#: *delta* between them, which cancels the interpreter baseline RSS.
DAYS_SHORT = 3
DAYS_LONG = 30

#: Allowed RSS growth from the end of day ``DAYS_SHORT`` to the end of the
#: last day of the segmented long-horizon replay.
FLAT_RSS_SLACK_MIB = 64

CLUSTERS = 4
SEED = 37

#: Entity-id stride between days — day ``d`` owns ids ``[d*stride,
#: (d+1)*stride)`` so re-used synthetic ids never collide across days.
DAY_ID_STRIDE = 1_000_000


def day_volume():
    """Per-day arrival volumes, bench-scaled and deliberately
    worker-scarce (1:5): assignment pairs are retained for the whole run
    by ``StreamResult`` in *both* modes, so most tasks must expire
    unassigned for the peak-RSS comparison to stay about the log."""
    workers = max(int(PAPER_DAY_WORKERS * 4 * BENCH_SCALE), 400)
    tasks = max(int(PAPER_DAY_TASKS * 16 * BENCH_SCALE), 2000)
    return workers, tasks


def day_world(day):
    """The raw (instance, log) of day ``day``, times still in [0, 24)."""
    from repro.stream import synthetic_stream

    workers, tasks = day_volume()
    return synthetic_stream(
        num_workers=workers,
        num_tasks=tasks,
        # 18h of arrivals + 4h validity keeps every expiry below t=22, so
        # the day fits strictly inside its 24h segment window.  Synthetic
        # churn is off: churn delays can land past the day's end (the
        # runtime's patience_hours retires idle workers instead).
        duration_hours=18.0,
        area_km=25.0,
        valid_hours=4.0,
        reachable_km=10.0,
        churn_fraction=0.0,
        cancel_fraction=0.02,
        clusters=CLUSTERS,
        seed=SEED + day,
    )


def build_day(day):
    """Deterministic builder for segment ``day``: day-shifted, id-offset."""
    from repro.stream import EventLog

    _, log = day_world(day)
    if day == 0:
        return log
    hours = 24.0 * day
    offset = day * DAY_ID_STRIDE
    columns = log.columns
    workers = [
        replace(worker, worker_id=worker.worker_id + offset)
        for worker in log._workers
    ]
    tasks = [
        replace(
            task,
            task_id=task.task_id + offset,
            publication_time=task.publication_time + hours,
        )
        for task in log._tasks
    ]
    return EventLog.from_columns(
        columns["time"] + hours,
        columns["kind"],
        columns["entity_id"] + offset,
        payload=columns["payload"],
        workers=workers,
        tasks=tasks,
        x=columns["x"],
        y=columns["y"],
    )


def make_segmented(days, max_cached=2):
    from repro.stream import SegmentedEventLog

    return SegmentedEventLog(
        [partial(build_day, day) for day in range(days)],
        [24.0 * day for day in range(days)],
        max_cached=max_cached,
    )


def vm_rss_kb():
    """The current resident set size in KiB (``None`` off Linux)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def child_main(days, mode):
    """Run one (horizon, mode) replay and print a JSON measurement line."""
    import gc
    import resource

    from repro.assignment import NearestNeighborAssigner
    from repro.stream import StreamRuntime, TimeWindowTrigger

    base, _ = day_world(0)
    log = make_segmented(days)
    if mode == "materialized":
        log = log.materialize()
        gc.collect()
    events = len(log)

    runtime = StreamRuntime(
        NearestNeighborAssigner(), None, TimeWindowTrigger(1.0), base, log,
        patience_hours=8.0,
    )
    # day_rss_kb[d] is sampled after the first round past day d's end; the
    # last day's entry after the final round.
    day_rss_kb = []
    started = time.perf_counter()
    try:
        while not runtime.done:
            runtime.run(max_rounds=1)
            while len(day_rss_kb) < min(int(runtime.clock // 24.0), days):
                day_rss_kb.append(vm_rss_kb())
        if len(day_rss_kb) < days:
            day_rss_kb.append(vm_rss_kb())
    finally:
        runtime.close()
    elapsed = time.perf_counter() - started
    result = runtime.result

    pairs = sorted(
        (pair.worker.worker_id, pair.task.task_id)
        for pair in result.assignment.pairs
    )
    counts = [
        [record.assigned, record.expired_tasks, record.cancelled_tasks,
         record.churned_workers]
        for record in result.rounds
    ]
    digest = hashlib.sha256(
        json.dumps([pairs, counts], sort_keys=True).encode()
    ).hexdigest()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes there, KiB on Linux
        rss_kb //= 1024
    print(json.dumps({
        "days": days,
        "mode": mode,
        "events": events,
        "rounds": len(result.rounds),
        "assigned": result.total_assigned,
        "seconds": elapsed,
        "events_per_second": events / elapsed if elapsed > 0 else 0.0,
        "rss_kb": int(rss_kb),
        "day_rss_kb": day_rss_kb,
        "digest": digest,
    }))


def measure(days, mode):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    completed = subprocess.run(
        [sys.executable, str(HERE), str(days), mode],
        env=env, timeout=1800,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert completed.returncode == 0, (
        f"{mode} child for {days} days failed:\n{completed.stderr}"
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_segmented_memory_is_sublinear_in_horizon(benchmark):
    """Peak RSS vs horizon length, segmented against materialized."""
    from figutil import bench_artifact

    cells = {}

    def run_grid():
        for days in (DAYS_SHORT, DAYS_LONG):
            for mode in ("materialized", "segmented"):
                cells[(days, mode)] = measure(days, mode)
        return cells

    benchmark.pedantic(run_grid, rounds=1, iterations=1)

    for days in (DAYS_SHORT, DAYS_LONG):
        seg, mat = cells[(days, "segmented")], cells[(days, "materialized")]
        assert seg["digest"] == mat["digest"], (
            f"segmented replay diverged from materialized at {days} days"
        )
        assert seg["events"] == mat["events"]
        print(
            f"\n{days} days, {mat['events']:>6} events: "
            f"materialized {mat['rss_kb'] / 1024:.1f} MiB peak "
            f"({mat['events_per_second']:,.0f} ev/s) | "
            f"segmented {seg['rss_kb'] / 1024:.1f} MiB peak "
            f"({seg['events_per_second']:,.0f} ev/s)"
        )

    mat_delta = (
        cells[(DAYS_LONG, "materialized")]["rss_kb"]
        - cells[(DAYS_SHORT, "materialized")]["rss_kb"]
    )
    seg_delta = (
        cells[(DAYS_LONG, "segmented")]["rss_kb"]
        - cells[(DAYS_SHORT, "segmented")]["rss_kb"]
    )
    print(
        f"horizon {DAYS_SHORT} -> {DAYS_LONG} days adds "
        f"{mat_delta / 1024:.1f} MiB materialized vs "
        f"{seg_delta / 1024:.1f} MiB segmented"
    )
    assert mat_delta > 0, "materialized RSS did not grow with the horizon"
    assert (
        cells[(DAYS_LONG, "segmented")]["rss_kb"]
        < cells[(DAYS_LONG, "materialized")]["rss_kb"]
    ), "segmented replay should peak below the materialized log"
    assert seg_delta <= 0.5 * mat_delta, (
        f"segmented RSS grew {seg_delta} KiB over {DAYS_LONG - DAYS_SHORT} "
        f"extra days — more than half the materialized growth {mat_delta} KiB"
    )

    day_rss = cells[(DAYS_LONG, "segmented")]["day_rss_kb"]
    if None not in day_rss:
        growth = day_rss[-1] - day_rss[DAYS_SHORT - 1]
        print(
            f"segmented {DAYS_LONG}-day RSS: {day_rss[DAYS_SHORT - 1] / 1024:.1f} "
            f"MiB after day {DAYS_SHORT}, {day_rss[-1] / 1024:.1f} MiB at the end"
        )
        assert growth <= FLAT_RSS_SLACK_MIB * 1024, (
            f"segmented RSS grew {growth / 1024:.1f} MiB between day "
            f"{DAYS_SHORT} and day {DAYS_LONG} (allowed {FLAT_RSS_SLACK_MIB} "
            "MiB): some per-entity state is not released"
        )

    bench_artifact("stream_scale", {
        "scale": BENCH_SCALE,
        "horizons_days": [DAYS_SHORT, DAYS_LONG],
        "cells": {
            f"d{days}_{mode}": cells[(days, mode)]
            for days in (DAYS_SHORT, DAYS_LONG)
            for mode in ("materialized", "segmented")
        },
        "rss_delta_kb": {"materialized": mat_delta, "segmented": seg_delta},
    })


if __name__ == "__main__":
    child_main(int(sys.argv[1]), sys.argv[2])
