"""The worker-task affinity model.

Pipeline (paper Figure 3):

1. the categories of the tasks each worker performed form the document
   ``dc_w``; the documents of all workers train the LDA model;
2. at assignment time, the trained model infers the topic distribution of a
   worker (from their history document) and of a task (from the categories
   at the task's location, ``dc_s``);
3. the affinity is ``P_aff(w, s) = sum_t P(w | t) * P(s | t)`` — with topic
   proportions as the estimator of the per-topic match, this is the inner
   product of the two topic-proportion vectors.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

import numpy as np

from repro.entities import Task, TaskHistory
from repro.exceptions import NotFittedError
from repro.text import LDAModel, VariationalLDA


class AffinityModel:
    """Computes ``P_aff(w, s)`` from worker histories and task categories.

    Parameters
    ----------
    num_topics:
        ``|Top|``; the paper uses 50.
    lda:
        Optional pre-configured LDA engine.  Defaults to a
        :class:`~repro.text.VariationalLDA` with ``num_topics`` topics.
    seed:
        Seed for the default engine.
    """

    def __init__(self, num_topics: int = 50, lda: LDAModel | None = None, seed: int = 0) -> None:
        self.num_topics = num_topics
        self.lda = lda if lda is not None else VariationalLDA(num_topics=num_topics, seed=seed)
        # Dense (num fitted workers x topics) proportions, row-aligned with
        # the sorted worker ids — the same ordering SocialGraph assigns its
        # dense indices, so consumers can gather rows instead of re-stacking
        # per-worker vectors.
        self._theta_matrix: np.ndarray | None = None
        self._row_of: dict[int, int] = {}
        self._unknown_topics: dict[int, np.ndarray] = {}
        # Task-document topic proportions, one row per distinct category
        # tuple, so a call gathers its task rows in one fancy index.  Rows
        # are written once and never change; capacity grows by doubling.
        self._task_row_of: dict[tuple[str, ...], int] = {}
        self._task_theta = np.zeros((0, 0))
        self._task_lock = threading.Lock()
        self._fitted = False

    def fit(self, histories: Mapping[int, TaskHistory]) -> "AffinityModel":
        """Train the LDA model on all workers' category documents.

        Workers with empty histories contribute empty documents and receive
        the uniform topic prior at query time.
        """
        worker_ids = sorted(histories)
        documents = [histories[w].category_document for w in worker_ids]
        if not any(documents):
            raise NotFittedError("every worker history is empty; cannot train LDA")
        self.lda.fit(documents)
        assert self.lda.doc_topic_ is not None
        self._theta_matrix = np.asarray(self.lda.doc_topic_, dtype=float)
        self._row_of = {worker_id: row for row, worker_id in enumerate(worker_ids)}
        self._unknown_topics.clear()
        self._task_row_of.clear()
        self._task_theta = np.zeros((0, 0))
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("AffinityModel.fit must be called first")

    @property
    def effective_topics(self) -> int:
        """Number of topics of the underlying engine."""
        return self.lda.num_topics

    def worker_topics(self, worker_id: int) -> np.ndarray:
        """Topic proportions of a worker (uniform for unknown workers)."""
        self._require_fitted()
        assert self._theta_matrix is not None
        row = self._row_of.get(worker_id)
        if row is not None:
            return self._theta_matrix[row]
        theta = self._unknown_topics.get(worker_id)
        if theta is None:
            theta = np.full(self.effective_topics, 1.0 / self.effective_topics)
            self._unknown_topics[worker_id] = theta
        return theta

    def topic_matrix(self, worker_ids: Sequence[int]) -> np.ndarray:
        """Dense topic proportions for ``worker_ids``, one gathered row each.

        Equivalent to stacking :meth:`worker_topics` per id, but fitted
        workers come out of the dense fit-time matrix in one fancy-indexing
        gather; only unknown workers (uniform prior) are patched in
        afterwards.
        """
        self._require_fitted()
        assert self._theta_matrix is not None
        rows = np.fromiter(
            (self._row_of.get(worker_id, -1) for worker_id in worker_ids),
            dtype=np.int64,
            count=len(worker_ids),
        )
        theta = self._theta_matrix[rows]  # row -1 is a placeholder, fixed below
        unknown = np.flatnonzero(rows < 0)
        if unknown.size:
            theta[unknown] = 1.0 / self.effective_topics
        return theta

    def _task_row(self, key: tuple[str, ...]) -> int:
        """Row of ``key`` in the task-topic matrix, inferred on first use.

        A row is written (and the matrix swapped on growth) before its key
        is published, so a lock-free hit always reads a filled row; misses
        serialize so two new keys never claim the same row.
        """
        row = self._task_row_of.get(key)
        if row is not None:
            return row
        with self._task_lock:
            row = self._task_row_of.get(key)
            if row is not None:
                return row
            theta = self.lda.infer(list(key))
            row = len(self._task_row_of)
            if row == self._task_theta.shape[0]:
                grown = np.zeros(
                    (max(2 * row, 64), theta.shape[0]), dtype=theta.dtype
                )
                if row:
                    grown[:row] = self._task_theta
                self._task_theta = grown
            self._task_theta[row] = theta
            self._task_row_of[key] = row
            return row

    def task_topics(self, categories: Sequence[str]) -> np.ndarray:
        """Topic proportions of a task document (cached by category tuple)."""
        self._require_fitted()
        row = self._task_row(tuple(categories))
        return self._task_theta[row]

    def affinity(self, worker_id: int, task: Task) -> float:
        """``P_aff(w, s)`` for one worker-task pair."""
        theta_w = self.worker_topics(worker_id)
        theta_s = self.task_topics(task.categories)
        return float(theta_w @ theta_s)

    def affinity_matrix(self, worker_ids: Sequence[int], tasks: Sequence[Task]) -> np.ndarray:
        """Return the ``len(worker_ids) x len(tasks)`` affinity matrix.

        The worker side is one dense gather from the fit-time topic matrix
        (:meth:`topic_matrix`) — no per-worker Python stacking — and is
        bit-identical to the historical per-vector path.  The task side is
        one gather from the per-category-tuple task-topic matrix; only
        unseen category tuples run LDA inference.
        """
        self._require_fitted()
        if not worker_ids or not tasks:
            return np.zeros((len(worker_ids), len(tasks)))
        theta_w = self.topic_matrix(worker_ids)
        task_row = self._task_row
        rows = np.fromiter(
            (task_row(tuple(t.categories)) for t in tasks),
            dtype=np.int64,
            count=len(tasks),
        )
        theta_s = self._task_theta[rows]
        return theta_w @ theta_s.T
