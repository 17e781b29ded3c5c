"""The directed social propagation graph.

Friendship edges are undirected; information can flow both ways, so each
undirected edge {a, b} becomes the arc pair (a -> b) and (b -> a).  The
paper's propagation probability for an arc into ``v`` is in-degree based:
``P(u -> v) = 1 / indeg(v)`` ([29], [31], [41]).  Because that probability
depends only on the head ``v``, sampling the live in-arcs of ``v`` during
reverse-reachability generation is a single vectorized Bernoulli draw.

Two alternative arc-probability models from the influence-maximization
literature are available as extensions:

* ``("uniform", p)`` — every arc live with the same probability ``p``
  (the weighted-cascade constant model);
* ``"trivalency"`` — each directed arc draws uniformly from
  {0.1, 0.01, 0.001} (Chen et al.'s TRIVALENCY benchmark model).

Adjacency is stored CSR-style (indptr + flat neighbor arrays); because the
undirected doubling makes the in- and out-adjacency structurally identical,
both views share the same arrays.  Construction, per-arc probability
mirroring and the degree histogram are pure ``searchsorted`` / ``np.unique``
index algebra — no Python dict/loop mirroring of the CSR structure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import GraphError

#: The trivalency model's arc-probability choices.
TRIVALENCY_VALUES = (0.1, 0.01, 0.001)


class SocialGraph:
    """A directed propagation graph over worker ids.

    Parameters
    ----------
    worker_ids:
        All workers in the network ``W`` (isolated workers allowed).
    edges:
        Undirected friendship pairs (worker ids).  Self-loops are rejected;
        duplicate edges are collapsed.
    edge_probability:
        Arc-probability model: ``"indegree"`` (paper default,
        ``P(u -> v) = 1/indeg(v)``), ``("uniform", p)`` with ``p`` in
        (0, 1], or ``"trivalency"``.
    seed:
        RNG seed for the trivalency draws (ignored by the other models).
    """

    def __init__(
        self,
        worker_ids: Sequence[int],
        edges: Iterable[tuple[int, int]],
        edge_probability: str | tuple[str, float] = "indegree",
        seed: int = 0,
    ) -> None:
        self.worker_ids = tuple(sorted(set(worker_ids)))
        if not self.worker_ids:
            raise GraphError("social graph needs at least one worker")
        self._ids_array = np.asarray(self.worker_ids, dtype=np.int64)
        self._index_of = {w: i for i, w in enumerate(self.worker_ids)}
        n = len(self.worker_ids)

        edge_list = list(edges)
        if edge_list:
            pairs = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
            loops = pairs[:, 0] == pairs[:, 1]
            if loops.any():
                raise GraphError(f"self-loop on worker {int(pairs[loops][0, 0])}")
            endpoint_u = self._lookup(pairs[:, 0], pairs)
            endpoint_v = self._lookup(pairs[:, 1], pairs)
            # Collapse duplicate undirected edges via unique canonical keys.
            low = np.minimum(endpoint_u, endpoint_v)
            high = np.maximum(endpoint_u, endpoint_v)
            keys = np.unique(low * n + high)
            low, high = keys // n, keys % n
            src = np.concatenate([low, high])
            dst = np.concatenate([high, low])
            order = np.lexsort((dst, src))
            flat = dst[order]
            degree = np.bincount(src, minlength=n)
        else:
            flat = np.zeros(0, dtype=np.int64)
            degree = np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])

        # Undirected doubling makes in- and out-adjacency identical, so the
        # two CSR views share storage; only per-arc probabilities differ.
        self._out_indptr = self._in_indptr = indptr
        self._out_flat = self._in_flat = flat
        self.in_degree = degree
        # P(u -> v) under the in-degree model: depends only on v.  Kept for
        # the fast head-only sampling path and backward compatibility.
        with np.errstate(divide="ignore"):
            self.inform_probability = np.where(
                self.in_degree > 0, 1.0 / np.maximum(self.in_degree, 1), 0.0
            )
        self.edge_probability = edge_probability
        self._build_arc_probabilities(edge_probability, seed)

    def _lookup(self, ids: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """Dense indices of worker ids, erroring on the first unknown edge."""
        positions = np.searchsorted(self._ids_array, ids)
        clipped = np.minimum(positions, len(self._ids_array) - 1)
        bad = self._ids_array[clipped] != ids
        if bad.any():
            u, v = pairs[bad][0]
            raise GraphError(f"edge ({int(u)}, {int(v)}) references unknown worker")
        return positions

    def _build_arc_probabilities(
        self, model: str | tuple[str, float], seed: int
    ) -> None:
        """Fill the per-arc probability arrays aligned with both CSR views."""
        n = len(self.worker_ids)
        heads = np.repeat(np.arange(n, dtype=np.int64), self.in_degree)
        if model == "indegree":
            in_probs = self.inform_probability[heads]
        elif model == "trivalency":
            rng = np.random.default_rng(seed)
            in_probs = rng.choice(TRIVALENCY_VALUES, size=len(self._in_flat))
        elif (
            isinstance(model, tuple)
            and len(model) == 2
            and model[0] == "uniform"
        ):
            p = float(model[1])
            if not 0.0 < p <= 1.0:
                raise GraphError(f"uniform arc probability must be in (0, 1], got {p}")
            in_probs = np.full(len(self._in_flat), p)
        else:
            raise GraphError(
                f"unknown edge_probability model {model!r}; "
                "choose 'indegree', 'trivalency', or ('uniform', p)"
            )
        self._in_arc_probs = np.asarray(in_probs, dtype=float)

        # Mirror onto the out-CSR view: the arc (u -> v) sits at key u*n + v
        # in the in view (u = flat entry, v = slice owner) and the out view
        # (u = slice owner, v = flat entry); one argsort + searchsorted maps
        # every out position to its in position.
        in_keys = self._in_flat * n + heads
        out_keys = heads * n + self._out_flat
        order = np.argsort(in_keys)
        positions = np.searchsorted(in_keys[order], out_keys)
        self._out_arc_probs = self._in_arc_probs[order[positions]] if len(order) else (
            np.zeros(0)
        )

    # ----------------------------------------------------------- CSR access
    def in_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, flat_neighbors, arc_probs)`` of the in-adjacency —
        ``arc_probs[k]`` is ``P(flat[k] -> owner)`` for the slice owner."""
        return self._in_indptr, self._in_flat, self._in_arc_probs

    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, flat_neighbors, arc_probs)`` of the out-adjacency —
        ``arc_probs[k]`` is ``P(owner -> flat[k])`` for the slice owner."""
        return self._out_indptr, self._out_flat, self._out_arc_probs

    def in_arc_probs(self, index: int) -> np.ndarray:
        """``P(u -> index)`` for every in-neighbor ``u``, aligned with
        :meth:`in_neighbors`."""
        return self._in_arc_probs[self._in_indptr[index]: self._in_indptr[index + 1]]

    def out_arc_probs(self, index: int) -> np.ndarray:
        """``P(index -> v)`` for every out-neighbor ``v``, aligned with
        :meth:`out_neighbors`."""
        return self._out_arc_probs[self._out_indptr[index]: self._out_indptr[index + 1]]

    # ------------------------------------------------------------------ views
    @property
    def num_workers(self) -> int:
        """``|W|``."""
        return len(self.worker_ids)

    @property
    def num_edges(self) -> int:
        """Number of directed arcs (twice the undirected edge count)."""
        return int(self._out_indptr[-1])

    def index_of(self, worker_id: int) -> int:
        """Dense index of a worker id; raises :class:`GraphError` if unknown."""
        index = self._index_of.get(worker_id)
        if index is None:
            raise GraphError(f"unknown worker id {worker_id}")
        return index

    def indices_of(self, worker_ids: Sequence[int]) -> np.ndarray:
        """Dense indices of many worker ids at once (vectorized lookup)."""
        ids = np.asarray(worker_ids, dtype=np.int64)
        positions = self.indices_or(ids, -1)
        if (positions < 0).any():
            raise GraphError(f"unknown worker id {int(ids[positions < 0][0])}")
        return positions

    def indices_or(self, worker_ids: Sequence[int], default: int) -> np.ndarray:
        """Dense indices of many worker ids, ``default`` for ids outside the
        graph (the non-raising form of :meth:`indices_of`)."""
        ids = np.asarray(worker_ids, dtype=np.int64)
        if ids.size == 0 or not len(self._ids_array):
            return np.full(ids.shape, default, dtype=np.int64)
        positions = np.searchsorted(self._ids_array, ids)
        clipped = np.minimum(positions, len(self._ids_array) - 1)
        positions[self._ids_array[clipped] != ids] = default
        return positions

    def worker_at(self, index: int) -> int:
        """Worker id at dense ``index``."""
        return self.worker_ids[index]

    def out_neighbors(self, index: int) -> np.ndarray:
        """Dense indices of nodes this node can inform."""
        return self._out_flat[self._out_indptr[index]: self._out_indptr[index + 1]]

    def in_neighbors(self, index: int) -> np.ndarray:
        """Dense indices of nodes that can inform this node."""
        return self._in_flat[self._in_indptr[index]: self._in_indptr[index + 1]]

    def degree_histogram(self) -> dict[int, int]:
        """``degree -> count`` over the undirected degrees (for data checks)."""
        values, counts = np.unique(self.in_degree, return_counts=True)
        return {int(degree): int(count) for degree, count in zip(values, counts)}
