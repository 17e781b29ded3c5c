"""Input generator, run in its own process before the measured one::

    python3 paperbench/inputs.py WORKLOAD SEED CACHE_DIR

Writes ``CACHE_DIR/seed-SEED.pkl`` (and the workload's pinned world,
``CACHE_DIR/world.pkl``, the first time).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from paperbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload, seed, cache = sys.argv[1:4]
    Path(cache).mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload].generate(int(seed), Path(cache))
