"""The measured process: load pre-generated inputs, set up, replay once.

Started by ``run.py``, one fresh process per replay::

    python3 paperbench/replay.py --workload paper-ia --inputs FILE \\
        --trace 0 --scratch DIR

Loading the inputs is untimed.  The process then times
``setup_repeats`` set-ups of the workload, replays the log once through
the last runtime set up, timing every ``run(max_rounds=1)`` call, and
prints one JSON line: set-up times, replay wall and CPU seconds, the
per-round latencies of rounds with non-empty pools, the same set-up
times, replay time and latencies scaled to the nominal host speed
(``hostspeed``), the output digest, assigned count and influence total,
and the process's peak RSS.

With ``--trace 1`` a :class:`~paperbench.tracing.LayerTracer` is
installed before the single set-up, the JSON line gains the per-layer
figures under ``"layers"``, and the spans go to
``DIR/trace-<workload>.json`` in Chrome trace-event format.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from paperbench import hostspeed  # noqa: E402
from paperbench.tracing import LayerTracer  # noqa: E402
from paperbench.workloads import WORKLOADS, Replay  # noqa: E402

#: Rounds between two RSS samples in the traced run.
RSS_EVERY = 8
#: Pairs per ``influence_matrix`` call when pricing the assignment.
QUALITY_CHUNK = 256


def current_rss_mib() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mib() -> float:
    """This process's peak RSS (``VmHWM``).

    Not ``ru_maxrss``: Linux carries the parent's high-water mark through
    ``fork`` and ``execve``, so ``ru_maxrss`` would read at least the
    memory ``run.py`` touched before starting this process.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def influence_total(model, pairs) -> float:
    """Σ if(w, s) over the assigned pairs, in sorted pair order."""
    if model is None or not pairs:
        return 0.0
    total = 0.0
    for start in range(0, len(pairs), QUALITY_CHUNK):
        chunk = pairs[start:start + QUALITY_CHUNK]
        matrix = model.influence_matrix(
            [pair.worker for pair in chunk], [pair.task for pair in chunk]
        )
        total += float(matrix.diagonal().sum())
    return total


def replay(rep: Replay, tracer: LayerTracer | None = None) -> dict:
    """Drain the whole log one ``run(max_rounds=1)`` call at a time.

    A round's span is its ``run`` call plus the workload's ``on_round``
    work; the host-speed probe runs after it, outside every timer, and
    gives the round's scale (see ``hostspeed``).
    """
    runtime = rep.runtime
    latencies: list[float] = []
    busy: list[int] = []
    pools: list[tuple[int, int]] = []
    spans: list[float] = []
    probes: list[float] = []
    rss: list[float] = []
    cpu_started = time.process_time()
    while not runtime.done:
        if tracer is not None:
            tracer.round = len(runtime.result.rounds)
            span = tracer.open("bench.round")
        before = time.perf_counter()
        runtime.run(max_rounds=1)
        after = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
        record = runtime.result.rounds[-1]
        if record.online_workers and record.open_tasks:
            latencies.append(after - before)
            busy.append(len(spans))
            pools.append((record.online_workers, record.open_tasks))
        if rep.on_round is not None:
            rep.on_round(runtime)
        spans.append(time.perf_counter() - before)
        if tracer is not None and record.index % RSS_EVERY == 0:
            rss.append(current_rss_mib())
        probes.append(hostspeed.probe())
    cpu = time.process_time() - cpu_started - sum(probes)
    scale = hostspeed.scales(probes)
    extra = rep.finish() if rep.finish is not None else {}
    runtime.close()
    return {
        "seconds": sum(spans),
        "host_seconds": sum(s * k for s, k in zip(spans, scale)),
        "cpu_seconds": cpu,
        "latencies": latencies,
        "host_latencies": [lat * scale[i] for lat, i in zip(latencies, busy)],
        "probe_s": statistics.median(probes),
        "pools": pools, "rss": rss, **extra,
    }


def outcome(rep: Replay) -> dict:
    """The replay's output: digest, assigned count and influence total."""
    result = rep.runtime.result
    pairs = sorted(
        result.assignment.pairs,
        key=lambda pair: (pair.worker.worker_id, pair.task.task_id),
    )
    ids = [[pair.worker.worker_id, pair.task.task_id] for pair in pairs]
    counts = [
        [r.assigned, r.expired_tasks, r.cancelled_tasks, r.churned_workers]
        for r in result.rounds
    ]
    digest = hashlib.sha256(json.dumps([ids, counts]).encode()).hexdigest()
    return {
        "digest": digest,
        "assigned_tasks": len(pairs),
        "influence_total": influence_total(rep.influence, pairs),
        "rounds": len(result.rounds),
        "rows": rep.rows,
    }


def replay_once(workload, inputs, scratch: Path,
                tracer: LayerTracer | None = None) -> dict:
    """Set up ``workload.setup_repeats`` times (once when traced), then
    replay the last runtime set up."""
    repeats = 1 if tracer is not None else workload.setup_repeats
    setup_seconds, host_setup_seconds = [], []
    for repeat in range(repeats):
        gc.collect()
        probes = hostspeed.setup_probes()
        started = time.perf_counter()
        rep = workload.setup(inputs, scratch)
        setup_seconds.append(time.perf_counter() - started)
        probes += hostspeed.setup_probes()
        host_setup_seconds.append(setup_seconds[-1] * hostspeed.scale(probes))
        if repeat < repeats - 1:
            rep.runtime.close()
            del rep
    if tracer is not None:
        tracer.phase = "replay"
    timing = replay(rep, tracer)
    if tracer is not None:
        tracer.uninstall()
    return {"setup_seconds": setup_seconds,
            "host_setup_seconds": host_setup_seconds, **timing, **outcome(rep),
            "peak_rss_mib": peak_rss_mib()}


def layer_metrics(tracer: LayerTracer, traced: dict) -> dict:
    """Book the traced spans to their layers (seconds unless noted)."""
    own = tracer.self_times()
    spans = tracer.spans
    replay_spans = [i for i, span in enumerate(spans) if span[5] == "replay"]

    def self_s(name: str, phase: str | None = "replay") -> float:
        return sum(own[i] for i, span in enumerate(spans)
                   if span[0] == name and (phase is None or span[5] == phase)) / 1e9

    def outer(name: str, phase: str | None) -> list[int]:
        """Spans of ``name`` without an ancestor of the same name."""
        picked = []
        for i, span in enumerate(spans):
            if span[0] != name or (phase is not None and span[5] != phase):
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                picked.append(i)
        return picked

    def inclusive_s(name: str, phase: str | None = "replay") -> float:
        return sum(spans[i][2] - spans[i][1] for i in outer(name, phase)) / 1e9

    def args_of(name: str, key: str, phase: str | None = "replay") -> list:
        return [span[6][key] for span in spans
                if span[0] == name and key in span[6]
                and (phase is None or span[5] == phase)]

    def count(name: str, phase: str | None = "replay") -> int:
        return sum(1 for span in spans if span[0] == name
                   and (phase is None or span[5] == phase))

    replay_seconds = traced["seconds"]
    covered = sum(
        spans[i][2] - spans[i][1] for i in replay_spans
        if not spans[i][0].startswith("bench.")
        and (spans[i][3] < 0 or spans[spans[i][3]][0].startswith("bench."))
    ) / 1e9
    requested = sum(args_of("influence.matrix", "columns"))
    built = count("willingness")
    segment_builds = count("segments.build", None)
    skews = args_of("shards.dispatch", "skew")
    augmentations = args_of("flow.solve", "augmentations")
    seeded = sum(args_of("flow.solve", "seeded"))
    matched = sum(args_of("flow.solve", "matched"))
    saves = [(spans[i][2] - spans[i][1]) / 1e6 for i in outer("checkpoint.save", "replay")]
    scrapes = [(spans[i][2] - spans[i][1]) / 1e6 for i in outer("obs.scrape", "replay")]
    rss = traced["rss"]
    pools = traced["pools"]
    written = args_of("checkpoint.save", "chunks_written")
    referenced = sum(args_of("checkpoint.save", "chunks_referenced"))
    return {
        "setup.fit_s": (inclusive_s("setup.fit", "setup"), "s"),
        "setup.lda_s": (inclusive_s("setup.lda", "setup"), "s"),
        "setup.willingness_s": (inclusive_s("setup.willingness", "setup"), "s"),
        "setup.rrr_s": (inclusive_s("setup.rrr", "setup"), "s"),
        "setup.log_s": (inclusive_s("log.build", "setup"), "s"),
        "segments.build_s": (inclusive_s("segments.build", None), "s"),
        "segments.builds": (segment_builds, "count"),
        "segments.builds_per_segment": (
            segment_builds / traced["segments"] if traced.get("segments") else 0.0,
            "ratio",
        ),
        "state.drain_s": (self_s("state.drain"), "s"),
        "state.drain_events": (sum(args_of("state.drain", "events")), "count"),
        "state.retire_s": (self_s("state.retire"), "s"),
        "state.rss_growth_mib": (
            rss[-1] - rss[len(rss) // 4] if rss else 0.0, "MiB"
        ),
        "shards.dispatch_s": (self_s("shards.dispatch"), "s"),
        "shards.skew": (statistics.median(skews) if skews else 0.0, "ratio"),
        "checkpoint.save_ms": (statistics.median(saves) if saves else 0.0, "ms"),
        "checkpoint.bytes_written": (
            sum(args_of("checkpoint.save", "bytes_written")), "B"
        ),
        "checkpoint.chunk_reuse": (
            1.0 - sum(written) / referenced if referenced else 0.0, "ratio"
        ),
        "assignment.prepare_s": (self_s("assignment.prepare"), "s"),
        "assignment.solve_s": (self_s("assignment.solve"), "s"),
        "assignment.pool_workers": (sum(p[0] for p in pools), "count"),
        "assignment.pool_tasks": (sum(p[1] for p in pools), "count"),
        "assignment.feasible_pairs": (
            sum(args_of("assignment.solve", "feasible")), "count"
        ),
        "geo.pairwise_s": (self_s("geo.pairwise"), "s"),
        "geo.pairwise_cells": (sum(args_of("geo.pairwise", "cells")), "count"),
        "influence.self_s": (self_s("influence.matrix"), "s"),
        "influence.total_s": (inclusive_s("influence.matrix"), "s"),
        "influence.replay_share": (
            inclusive_s("influence.matrix") / replay_seconds, "ratio"
        ),
        "influence.columns_requested": (requested, "count"),
        "influence.columns_built": (built, "count"),
        "influence.column_hit_ratio": (
            1.0 - built / requested if requested else 0.0, "ratio"
        ),
        "willingness.s": (self_s("willingness"), "s"),
        "willingness.calls": (built, "count"),
        "propagation.cover_s": (self_s("propagation.cover"), "s"),
        "propagation.cover_columns": (
            sum(args_of("propagation.cover", "columns")), "count"
        ),
        "affinity.s": (self_s("affinity"), "s"),
        "affinity.topics_calls": (tracer.counts["affinity.topics"], "count"),
        "flow.solve_s": (self_s("flow.solve"), "s"),
        "flow.augmentations": (sum(augmentations), "count"),
        "flow.warm_seeded_ratio": (seeded / matched if matched else 0.0, "ratio"),
        "obs.scrape_ms": (statistics.median(scrapes) if scrapes else 0.0, "ms"),
        "obs.exposition_bytes": (
            max(args_of("obs.scrape", "bytes"), default=0), "B"
        ),
        "trace.replay_s": (replay_seconds, "s"),
        "trace.uncovered_s": (replay_seconds - covered, "s"),
        "trace.uncovered_share": ((replay_seconds - covered) / replay_seconds, "ratio"),
        "quality.influence_total": (traced["influence_total"], "sum"),
    }


def traced_run(workload, inputs, scratch: Path, name: str) -> dict:
    tracer = LayerTracer()
    tracer.install()
    traced = replay_once(workload, inputs, scratch, tracer)
    (scratch / f"trace-{name}.json").write_text(json.dumps(tracer.chrome_trace()))
    traced["layers"] = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in layer_metrics(tracer, traced).items()
    }
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True, type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.load(args.inputs)
    args.scratch.mkdir(parents=True, exist_ok=True)
    if args.trace:
        report = traced_run(workload, inputs, args.scratch, args.workload)
    else:
        report = replay_once(workload, inputs, args.scratch)
    for key in ("rss", "pools"):
        report.pop(key)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
