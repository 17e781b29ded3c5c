"""Host-speed probe: the replay's timings expressed at a nominal host speed.

The benchmark runs on a few cores of a shared host.  Work from other
tenants slows every process on it by up to a third, in spells that last
from under a second to minutes, and one replay's wall time then varies
by 10-25 % from the next on identical work; CPU time varies just as
much, so the slowdown is the host's, not the scheduler's.  Time spent
inside those spells says nothing about the program.

So the replay runs a fixed probe kernel after every round, outside the
round's timer, and scales each round's time by ``NOMINAL_S`` over the
median probe time of the rounds around it; each set-up is scaled the
same way by probes run just before and just after it.  A round measured
while the host ran the probe 20 % slower than nominal is booked at 1/1.2
of its wall time.  The kernel mixes what the program's rounds do: numpy
broadcasting, reductions, gathers and sorts, and interpreted Python over
small objects.  It does not depend on the program, so a change to the
program moves the scaled times as much as it moves the wall times on a
steady host.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe kernel's median time (seconds) on the host the reference
#: figures in ``README.md`` were taken on: 2 vCPUs of an Intel Xeon VM.
#: Scaled times are "seconds on that host at its usual speed".
NOMINAL_S = 1.5e-3
#: Rounds on each side of a round whose probe times give its scale.
WINDOW = 16
#: Probes run on each side of a set-up; their median gives its scale.
SETUP_PROBES = 16

_rng = np.random.default_rng(0)
_WORKERS = _rng.random((120, 2))
_TASKS = _rng.random((180, 2))
_VALUES = _rng.random(50_000)
_PICKS = _rng.integers(0, _VALUES.size, 12_000)


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


_ITEMS = [_Item(i, float(i % 97)) for i in range(1600)]


def _bump(item: _Item, step: int) -> int:
    return item.key + step


def probe() -> float:
    """Run the probe kernel once; returns its wall time in seconds.

    About half of it is numpy on arrays of up to a few hundred KiB, half
    interpreted Python over small objects, as in the program's rounds:
    with either half alone, the rounds' slowdown tracked the probe's at
    a power of 1.5 (numpy) or 0.85 (Python) instead of 1.
    """
    started = time.perf_counter()
    distances = np.hypot(
        _WORKERS[:, None, 0] - _TASKS[None, :, 0],
        _WORKERS[:, None, 1] - _TASKS[None, :, 1],
    )
    distances.argmin(axis=1)
    np.argsort(distances[0])
    _VALUES[_PICKS].sum()
    np.sort(_VALUES[:5_000])
    table: dict[int, int] = {}
    total = 0
    for item in _ITEMS:
        table[item.key] = _bump(item, 1)
        if item.value > 3.0:
            total += table[item.key]
    sorted(table.items(), key=lambda pair: -pair[1])
    return time.perf_counter() - started


def scale(probes: list[float]) -> float:
    """``NOMINAL_S`` over the median of ``probes``."""
    return NOMINAL_S / statistics.median(probes)


def scales(probes: list[float]) -> list[float]:
    """Per round, the scale of the probes of the rounds within ``WINDOW``
    of it."""
    return [scale(probes[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(probes))]


def setup_probes() -> list[float]:
    """``SETUP_PROBES`` probe times, taken now."""
    return [probe() for _ in range(SETUP_PROBES)]
