"""Paper-path benchmark: closed-loop replays through ``StreamRuntime``.

Usage (from the root of a checkout)::

    python3 paperbench/run.py --workload paper-ia --seed 1 --seconds 35 --trace 0

Three workloads (see ``paperbench/workloads.py``): ``paper-ia``,
``city-burst`` and ``soak-ckpt``.  Each run

1. generates the workload's inputs from ``--seed`` in a child process and
   caches them under ``.paperbench/`` by workload, source hash and seed,
   so input generation is outside the measured process and every timer;
2. touches the workload's memory footprint once (see ``touch_memory``),
   then starts measured processes (``replay.py``) back to back, a fresh
   one per replay, given only those inputs, for ``--seconds`` and at
   least two replays;
3. checks every replay's output digest (sorted worker-task pairs plus the
   per-round assigned/expired/cancelled/churned counts) and its assigned
   count and influence total against ``reference.json``;
4. prints diagnostic lines (host steal time, the measured processes'
   CPU/wall ratio, host-speed probe times and the unscaled wall-clock
   figures, all ungated), then as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.  Timed metrics
   are booked at the nominal host speed (see ``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a traced
replay between two untraced ones and reports the per-layer metrics, with
the spans written to ``.paperbench/scratch/trace-<workload>.json``.

A replay that raises, times out, is killed (e.g. out of memory) or whose
output differs from the reference counts as failed; a run with a failed
replay prints no metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".paperbench"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(ROOT))

from paperbench.workloads import WORKLOADS  # noqa: E402

#: Wall-clock limits (seconds): input generation, and all replays of a
#: run together, so a run ends within three minutes.
GENERATE_TIMEOUT = 600
REPLAYS_TIMEOUT = 160
#: Replays of an untraced run, whatever the time budget.
MIN_REPLAYS = 2
#: ``--trace 1`` replays: the traced one between two untraced ones, whose
#: mean replay time is the base of ``trace.overhead``.
TRACED_MODES = (0, 1, 0)
#: The replay outputs compared with ``reference.json``.
OUTPUT_KEYS = ("digest", "assigned_tasks", "influence_total", "rounds", "rows")
#: Per-seed input files kept per workload; older ones are pruned.
KEEP_SEEDS = 4


def fail(message: str) -> int:
    print(f"paperbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    """The children's environment: the checkout's sources on the path and
    a fixed string-hash seed, so every replay process runs the same
    code path."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def host_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def source_key() -> str:
    """Hash of the program and benchmark sources.

    The cached inputs are pickles of the program's own classes, made by
    its own generators, so they are reused only by a checkout whose
    sources are byte-for-byte the same.
    """
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def generate(workload: str, seed: int) -> Path:
    """Make (or reuse) the cached inputs of ``workload`` for ``seed``."""
    cache = CACHE / workload / source_key()
    cache.mkdir(parents=True, exist_ok=True)
    for other in (CACHE / workload).iterdir():
        if other != cache:
            shutil.rmtree(other, ignore_errors=True)
    target = cache / f"seed-{seed}.pkl"
    if not target.exists():
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), workload, str(seed),
             str(cache)],
            env=child_env(), check=True, timeout=GENERATE_TIMEOUT,
        )
        stale = sorted(cache.glob("seed-*.pkl"), key=lambda p: p.stat().st_mtime)
        for old in stale[:-KEEP_SEEDS]:
            if old != target:
                old.unlink(missing_ok=True)
    return target


def replay_process(workload: str, inputs: Path, trace: int, timeout: float):
    """One measured process; returns (report or None, error text)."""
    command = [
        sys.executable, str(HERE / "replay.py"), "--workload", workload,
        "--inputs", str(inputs), "--trace", str(trace),
        "--scratch", str(CACHE / "scratch"),
    ]
    try:
        completed = subprocess.run(
            command, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, "measured process timed out"
    if completed.returncode != 0:
        return None, (f"measured process exited with {completed.returncode}:\n"
                      f"{completed.stderr[-4000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1]), ""


def touch_memory(mib: int) -> None:
    """Fill ``mib`` MiB, then release it.

    On a VM whose balloon hands free guest pages back to the host, the
    first touch of memory that sat free for a few seconds costs a host
    fault.  A replay started after an idle gap then ran about 20 % slower
    than one started right after another replay had released its memory.
    Touching the workload's footprint first puts every replay of a run in
    the second, back-to-back state.
    """
    import numpy as np

    np.ones(mib << 20, dtype=np.uint8)


def measure(workload: str, inputs: Path, seconds: int, trace: int):
    """Replays, each in a fresh process: for ``--trace 0`` at least
    ``MIN_REPLAYS`` and more while the time budget allows another; for
    ``--trace 1`` see ``TRACED_MODES``.  Returns (reports, errors)."""
    reports, errors = [], []
    touch_memory(WORKLOADS[workload].footprint_mib)
    started = time.perf_counter()
    for mode in TRACED_MODES if trace else itertools.repeat(0):
        remaining = REPLAYS_TIMEOUT - (time.perf_counter() - started)
        if remaining <= 0:
            errors.append("no time left for the replay")
            break
        report, error = replay_process(workload, inputs, mode, remaining)
        if report is None:
            errors.append(error)
        else:
            reports.append(report)
        if trace:
            continue
        done = len(reports) + len(errors)
        elapsed = time.perf_counter() - started
        if done >= MIN_REPLAYS and elapsed * (1 + 1 / done) > seconds:
            break
    return reports, errors


def percentile(values: list[float], q: float) -> float:
    """Exact percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def check(report: dict, reference: dict | None) -> bool:
    return reference is not None and all(
        report[key] == reference[key] for key in OUTPUT_KEYS
    )


def end_to_end(reports: list[dict]) -> dict:
    """Medians over the replays; latency percentiles over all their rounds.
    Set-up and replay times and latencies are the host-speed scaled ones."""
    latencies = [value for report in reports for value in report["host_latencies"]]
    replay_seconds = statistics.median(report["host_seconds"] for report in reports)
    return {
        "setup_s": (statistics.median(
            value for report in reports for value in report["host_setup_seconds"]
        ), "s"),
        "events_per_s": (reports[0]["rows"] / replay_seconds, "1/s"),
        "round_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "round_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "peak_rss_mib": (
            statistics.median(report["peak_rss_mib"] for report in reports),
            "MiB",
        ),
        "assigned_tasks": (reports[0]["assigned_tasks"], "count"),
    }


def wall_clock(reports: list[dict]) -> dict:
    """The unscaled counterparts of the timed end-to-end metrics."""
    latencies = [value for report in reports for value in report["latencies"]]
    replay_seconds = statistics.median(report["seconds"] for report in reports)
    return {
        "setup_s": statistics.median(
            value for report in reports for value in report["setup_seconds"]
        ),
        "events_per_s": reports[0]["rows"] / replay_seconds,
        "round_p50_ms": percentile(latencies, 0.50) * 1e3,
        "round_p95_ms": percentile(latencies, 0.95) * 1e3,
    }


def layers(reports: list[dict]) -> dict:
    """The traced replay's layer figures plus the tracing overhead."""
    traced = next(report for report in reports if "layers" in report)
    untraced = [report["host_seconds"] for report in reports
                if "layers" not in report]
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = {
        "value": traced["host_seconds"] / statistics.mean(untraced) - 1.0,
        "unit": "ratio",
    }
    return metrics


def declared_metrics(trace: int) -> set[str]:
    """The metric names ``BENCHMARK.json`` declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {item["name"]
            for item in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program sources under {ROOT / 'src'}")

    try:
        inputs = generate(args.workload, args.seed)
    except (subprocess.SubprocessError, OSError) as error:
        return fail(f"input generation failed: {error}")

    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    steal0, total0 = host_ticks()
    reports, errors = measure(args.workload, inputs, args.seconds, args.trace)
    steal1, total1 = host_ticks()
    for error in errors:
        print(f"paperbench: {error}", file=sys.stderr)

    reference = references.get(args.workload)
    mismatched = [report for report in reports if not check(report, reference)]
    for report in mismatched:
        print("paperbench: output differs from the reference: " + json.dumps(
            {key: report[key] for key in OUTPUT_KEYS}), file=sys.stderr)
    attempted = len(reports) + len(errors)
    failed = len(errors) + len(mismatched)
    print(f"failed replays: {failed} of {attempted} ({failed / attempted:.0%})")

    metrics = {}
    if failed == 0:
        cpu = sum(report["cpu_seconds"] for report in reports)
        busy = sum(report["seconds"] for report in reports)
        print("diagnostics: " + json.dumps({
            "steal_share": (steal1 - steal0) / (total1 - total0)
            if total1 > total0 else 0.0,
            "cpu_wall_ratio": cpu / busy,
            "replay_seconds": [report["seconds"] for report in reports],
            "probe_ms": [report["probe_s"] * 1e3 for report in reports],
            "wall_clock": {} if args.trace else wall_clock(reports),
        }))
        if args.trace:
            metrics = layers(reports)
            print("layers: " + " ".join(
                f"{name}={item['value']:.6g}{item['unit']}"
                for name, item in metrics.items()
            ))
        else:
            samples = sum(len(report["latencies"]) for report in reports)
            print(f"round latency: p50 and p95 over {samples} non-empty rounds "
                  f"of {len(reports)} replays")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in end_to_end(reports).items()}
    if metrics and set(metrics) != declared_metrics(args.trace):
        return fail("printed metrics differ from BENCHMARK.json: "
                    f"{sorted(set(metrics) ^ declared_metrics(args.trace))}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
