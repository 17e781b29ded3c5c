"""Task-assignment algorithms (paper Section IV).

* :class:`MTAAssigner` — Maximum Task Assignment baseline (max flow only);
* :class:`IAAssigner` — basic Influence-aware Assignment (MCMF with cost
  ``1/(if + 1)``);
* :class:`EIAAssigner` — Entropy-based IA (cost ``(s.e + 1)/(if + 1)``);
* :class:`DIAAssigner` — Distance-based IA (cost ``1/(F * if + 1)``);
* :class:`MIAssigner` — Maximum Influence baseline (greedy on influence);
* :class:`NearestNeighborAssigner` — the naive greedy of Figure 1.

All MCMF-based assigners accept an ``engine``:

* ``"mcmf"`` — the from-scratch successive-shortest-path solver on the
  general flow network (:mod:`repro.flow`), exact, readable — the
  correctness reference;
* ``"substrate"`` — the same SSP optimum through the array-native
  bipartite engine (:mod:`repro.flow.bipartite`), an order of magnitude
  faster than ``"mcmf"``;
* ``"dense"`` — a lexicographic reduction to the rectangular assignment
  problem solved by the Jonker-Volgenant implementation in scipy; the
  fallback for very large instances;
* ``"auto"`` (default) — from-scratch substrate up to a size threshold,
  dense beyond it.

All engines are equivalence-tested against each other in the test suite.
"""

from repro.assignment.base import (
    Assigner,
    FeasiblePairs,
    PreparedInstance,
    compute_feasible,
)
from repro.assignment.candidates import CandidatePair, candidate_pairs
from repro.assignment.hungarian import hungarian, solve_lexicographic_hungarian
from repro.assignment.lexico import LexicographicCostAssigner
from repro.assignment.solvers import (
    solve_lexicographic,
    solve_lexicographic_dense,
    solve_lexicographic_matching,
    solve_lexicographic_mcmf,
    solve_lexicographic_substrate,
)
from repro.assignment.mta import MTAAssigner
from repro.assignment.ia import IAAssigner
from repro.assignment.eia import EIAAssigner
from repro.assignment.dia import DIAAssigner
from repro.assignment.mi import MIAssigner
from repro.assignment.greedy import NearestNeighborAssigner
from repro.assignment.partitioned import PartitionedAssigner

__all__ = [
    "Assigner",
    "FeasiblePairs",
    "PreparedInstance",
    "compute_feasible",
    "CandidatePair",
    "candidate_pairs",
    "hungarian",
    "LexicographicCostAssigner",
    "solve_lexicographic",
    "solve_lexicographic_dense",
    "solve_lexicographic_hungarian",
    "solve_lexicographic_matching",
    "solve_lexicographic_mcmf",
    "solve_lexicographic_substrate",
    "MTAAssigner",
    "IAAssigner",
    "EIAAssigner",
    "DIAAssigner",
    "MIAssigner",
    "NearestNeighborAssigner",
    "PartitionedAssigner",
]
