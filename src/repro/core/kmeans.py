"""Standard k-Means (Lloyd's algorithm) with k-means++ initialization.

This is the unconstrained baseline of the paper (Section 3).  It is written
from scratch on numpy so that the scalability comparison of Figure 8 runs
both algorithms on the same code path, as the paper does for fairness
("in the scalability experiments ... we use an implementation of k-Means
which mirrors the implementation of Khatri-Rao-k-Means", Appendix B).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np

from .._validation import (
    check_array,
    check_dtype,
    check_finite_norms,
    check_in,
    check_n_features,
    check_positive_int,
    check_random_state,
)
from ..exceptions import NotFittedError, ValidationError
from ..runtime.parallel import RowBlockPool, resolve_parallel
from ._bounds import check_pruning, dense_drift, pruned_assignment
from ._driver import resolve_training, restart_sweep
from ._distances import (
    assign_to_nearest,
    row_norms_squared,
    squared_distances,
)
from ._factored import grouped_row_sum
from ._update import _group_mass

__all__ = ["KMeans", "kmeans_plus_plus_init"]


def _check_sample_weight(sample_weight, n_samples: int, dtype=np.float64) -> np.ndarray:
    """Validate per-sample weights; defaults to all-ones.

    ``dtype`` is the estimator's working dtype: weights are cast once here
    so the per-point products (``w·X``, weighted inertia) stay in-dtype
    instead of silently promoting every float32 hot-loop array to float64.
    """
    if sample_weight is None:
        return np.ones(n_samples, dtype=dtype)
    weights = np.asarray(sample_weight, dtype=dtype).ravel()
    if weights.shape[0] != n_samples:
        raise ValidationError(
            f"sample_weight has length {weights.shape[0]}, expected {n_samples}"
        )
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("sample_weight must be finite and non-negative")
    if weights.sum() <= 0:
        raise ValidationError("sample_weight must have positive total mass")
    return weights


def kmeans_plus_plus_init(
    X: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding [Arthur & Vassilvitskii, 2007].

    The first centroid is drawn uniformly; each subsequent centroid is a data
    point sampled with probability proportional to its squared distance to
    the nearest centroid chosen so far.

    Returns
    -------
    array of shape (n_clusters, m)
    """
    n = X.shape[0]
    if n_clusters > n:
        raise ValidationError(f"n_clusters={n_clusters} exceeds number of samples {n}")
    # Seeds inherit the data dtype (the estimators' working dtype).
    centers = np.empty((n_clusters, X.shape[1]), dtype=X.dtype)
    first = rng.integers(n)
    centers[0] = X[first]
    closest = squared_distances(X, centers[:1]).ravel()
    for i in range(1, n_clusters):
        # D² probabilities in float64 whatever the working dtype:
        # rng.choice normalization is strict, and float32 distances summed
        # to a float32 total can miss its tolerance.  No-op at float64.
        closest64 = np.asarray(closest, dtype=np.float64)
        total = closest64.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; fall back to uniform.
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest64 / total)
        centers[i] = X[idx]
        new_distances = squared_distances(X, centers[i : i + 1]).ravel()
        np.minimum(closest, new_distances, out=closest)
    return centers


class KMeans:
    """Lloyd's k-Means with restarts.

    Parameters
    ----------
    n_clusters : int
        Number of centroids ``k``.
    init : {"k-means++", "random"}
        Seeding strategy.
    n_init : int
        Number of random restarts; the solution with the lowest inertia wins
        (the paper runs each method 20 times and keeps the best, Section 9.1).
    max_iter : int
        Maximum Lloyd iterations per restart (paper: 200).
    tol : float
        Stop when total squared centroid movement falls below ``tol``
        (paper: 1e-4).
    pruning : {"auto", "bounds", "none"}
        Cross-iteration Hamerly pruning (:mod:`repro.core._bounds`): keep a
        per-point upper bound on the distance to the assigned centroid and a
        lower bound on the second-nearest, inflate them by the centroid
        drift each iteration, and re-score only the points whose bounds
        overlap — late iterations cost ``O(|active|·k·m)`` instead of
        ``O(n·k·m)``.  Produces labels, inertia and iteration counts
        identical to the unpruned path *at the same working dtype* (the
        certified bound margins scale with the dtype's machine epsilon);
        ``"auto"`` (default) enables it, ``"none"`` forces the classic full
        re-assignment.
    dtype : {"float64", "float32"} or numpy dtype
        Working dtype of the fit: ``X`` is cast once at ``fit`` entry and
        the distance/update hot loops compute in that precision (float32
        halves memory bandwidth on the BLAS-bound assignment step).
        Grouped accumulation (centroid sums via
        :func:`repro.core.grouped_row_sum`), inertia reductions and the
        pruning-bound maintenance stay float64 — see ``docs/numerics.md``
        for the error envelope.  ``"float64"`` (default) is bit-identical
        to the historical behavior.
    random_state : None, int or Generator
        Source of randomness.
    checkpoint : None, path or CheckpointConfig
        When set, the sequential restart sweep snapshots its full state
        (centers, labels, bound caches, restart/iteration counters,
        best-so-far, RNG state) atomically to this path on the config's
        cadence — see :mod:`repro.runtime.checkpoint`.  Incompatible
        with ``n_jobs``.
    resume_from : None or path
        Resume a fit from a checkpoint written by a run with identical
        parameters on identical data (both verified, mismatch is a typed
        :class:`~repro.exceptions.CheckpointError`).  The resumed fit is
        bit-identical to the uninterrupted one.
    callback : None or callable
        ``callback(restart_index, iteration)`` invoked after every
        completed Lloyd iteration — the training fault-injection seam
        (:class:`~repro.faults.FaultHook`), also usable for progress
        reporting.  A callback raising ``KeyboardInterrupt`` triggers
        the graceful-interrupt path.
    n_jobs : None, int or ExecutorConfig
        ``None`` (default) runs restarts sequentially on a shared RNG —
        bit-compatible with every earlier release.  An int (or a full
        :class:`~repro.runtime.executor.ExecutorConfig`) runs them
        through the supervised parallel executor on per-restart
        ``rng.spawn`` streams: the result is identical at every worker
        count, and restart failures are retried/tolerated per the
        config.  Incompatible with ``checkpoint``/``resume_from``.
    n_threads : int or ParallelConfig
        Threads that run the per-iteration kernels.  The kernels always
        sweep fixed blocks of 4096 rows
        (:class:`~repro.runtime.parallel.ParallelConfig` sets another
        size); with ``1`` (default) the blocks run inline on the calling
        thread, with more on a supervised thread pool.  Block boundaries
        depend only on ``(n, block_rows)`` and reductions merge in block
        order, so every thread count gives the bit-identical model.
        Composes with ``n_jobs`` (restart workers share the pool) and is
        the seam that streams a :class:`numpy.memmap` ``X`` through
        ``fit`` block by block.

    Attributes
    ----------
    cluster_centers_ : array of shape (n_clusters, m)
        Learned centroids, in the working dtype.
    labels_ : int array of shape (n,)
    inertia_ : float
        Sum of squared distances to assigned centroids (Eq. 1).
    n_iter_ : int
        Iterations run by the best restart.
    dtype_ : numpy.dtype
        Working dtype the fit actually ran in.
    converged_ : bool
        ``True`` when ``fit`` ran to normal completion; ``False`` when a
        ``KeyboardInterrupt`` stopped it early (the best state found so
        far is retained instead of lost).

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    >>> model = KMeans(n_clusters=2, random_state=0).fit(X)
    >>> sorted(np.bincount(model.labels_).tolist())
    [2, 2]
    """

    #: knobs a checkpoint must match to resume (with the working dtype)
    _CHECKPOINT_PARAMS = ("n_clusters", "init", "n_init", "max_iter", "tol",
                          "pruning")

    def __init__(
        self,
        n_clusters: int,
        *,
        init: str = "k-means++",
        n_init: int = 10,
        max_iter: int = 200,
        tol: float = 1e-4,
        pruning: str = "auto",
        dtype="float64",
        random_state=None,
        checkpoint=None,
        resume_from=None,
        callback=None,
        n_jobs=None,
        n_threads=1,
    ) -> None:
        self.n_clusters = check_positive_int(n_clusters, "n_clusters")
        self.init = check_in(init, "init", ("k-means++", "random"))
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.pruning = check_pruning(pruning)
        self.dtype = check_dtype(dtype)
        self.random_state = random_state
        self.checkpoint, self.resume_from, self.callback, self.n_jobs = (
            resolve_training(checkpoint, resume_from, callback, n_jobs)
        )
        self.n_threads = resolve_parallel(n_threads)

        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0
        self.dtype_: Optional[np.dtype] = None
        self.converged_: bool = False

    # ------------------------------------------------------------------ API
    def fit(self, X, sample_weight=None) -> "KMeans":
        """Run ``n_init`` restarts of Lloyd's algorithm and keep the best.

        ``sample_weight`` optionally weights each point's contribution to
        the objective and to the centroid updates (e.g. counts of repeated
        rows).
        """
        # KMeans has no aggregator capability to consult: the requested
        # dtype is the working dtype, cast exactly once here.
        self.dtype_ = self.dtype
        X = check_array(X, min_samples=self.n_clusters, dtype=self.dtype_)
        weights = _check_sample_weight(sample_weight, X.shape[0], dtype=X.dtype)
        rng = check_random_state(self.random_state)
        with RowBlockPool(self.n_threads) as pool:
            return self._fit(X, sample_weight, weights, rng, pool)

    def _fit(self, X, sample_weight, weights, rng, parallel) -> "KMeans":
        # ‖x‖² is constant across iterations and restarts — pay for it once.
        x_squared_norms = row_norms_squared(X, parallel=parallel)
        check_finite_norms(x_squared_norms, X.dtype)

        ctx = SimpleNamespace(
            X=X, weights=weights, x_squared_norms=x_squared_norms,
            parallel=parallel, prunes=self.uses_pruning,
            # ... and so is the weighted data matrix feeding the centroid
            # sums.  Unweighted fits reuse X itself: X·1 is exact, so
            # results are unchanged, and a memory-mapped X is never
            # materialized in RAM.
            weighted_X=X if sample_weight is None else X * weights[:, None],
        )
        best, self.inertia_, self.n_iter_, self.converged_ = restart_sweep(
            self, ctx, rng
        )
        self.cluster_centers_, self.labels_ = best["centers"], best["labels"]
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return the labels of the training data."""
        return self.fit(X).labels_

    def predict(self, X) -> np.ndarray:
        """Assign each row of ``X`` to its nearest learned centroid."""
        self._check_fitted()
        X = check_array(X, dtype=self.cluster_centers_.dtype)
        check_n_features(X, self.cluster_centers_.shape[1])
        with RowBlockPool(self.n_threads) as pool:
            labels, _ = assign_to_nearest(
                X, self.cluster_centers_, parallel=pool
            )
        return labels

    def transform(self, X) -> np.ndarray:
        """Squared distances of each row of ``X`` to every centroid."""
        self._check_fitted()
        X = check_array(X, dtype=self.cluster_centers_.dtype)
        check_n_features(X, self.cluster_centers_.shape[1])
        return squared_distances(X, self.cluster_centers_)

    def score(self, X) -> float:
        """Negative inertia of ``X`` under the learned centroids."""
        self._check_fitted()
        X = check_array(X, dtype=self.cluster_centers_.dtype)
        check_n_features(X, self.cluster_centers_.shape[1])
        with RowBlockPool(self.n_threads) as pool:
            _, distances = assign_to_nearest(
                X, self.cluster_centers_, parallel=pool
            )
        return -float(distances.sum(dtype=np.float64))

    def parameter_count(self) -> int:
        """Scalars stored by the summary: ``k · m``."""
        self._check_fitted()
        return int(self.cluster_centers_.size)

    # ------------------------------------------------------------ internals
    def _check_fitted(self) -> None:
        if self.cluster_centers_ is None:
            raise NotFittedError("this KMeans instance is not fitted yet; call fit first")

    def _init_centers(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.init == "k-means++":
            return kmeans_plus_plus_init(X, self.n_clusters, rng)
        indices = rng.choice(X.shape[0], size=self.n_clusters, replace=False)
        return X[indices].copy()

    @property
    def uses_pruning(self) -> bool:
        """Whether Lloyd iterations run with Hamerly bounds pruning."""
        return self.pruning != "none"

    # ------------------------------------------------- the Lloyd driver hooks
    def _begin_run(self, ctx, bounds, rng=None, arrays=None):
        """A fresh restart seeded from ``rng``, or one rebuilt from its
        checkpointed ``arrays``."""
        if arrays is None:
            centers = self._init_centers(ctx.X, rng)
            labels = np.zeros(ctx.X.shape[0], dtype=np.int64)
        else:
            centers = np.ascontiguousarray(arrays["centers"], dtype=self.dtype_)
            labels = np.ascontiguousarray(arrays["labels"], dtype=np.int64)
        return SimpleNamespace(centers=centers, labels=labels, bounds=bounds)

    @staticmethod
    def _run_arrays(run) -> dict:
        return {"centers": run.centers, "labels": run.labels}

    def _final_assign(self, ctx, run):
        return assign_to_nearest(
            ctx.X, run.centers, x_squared_norms=ctx.x_squared_norms,
            parallel=ctx.parallel,
        )

    def _lloyd_step(self, ctx, run, rng) -> float:
        """One Lloyd iteration on ``run``; returns the centroid shift."""
        X, weights, parallel = ctx.X, ctx.weights, ctx.parallel
        centers, bounds = run.centers, run.bounds
        if bounds is None:
            labels, min_distances = assign_to_nearest(
                X, centers, x_squared_norms=ctx.x_squared_norms,
                parallel=parallel,
            )
        else:
            # min_distances is None on partially re-scored passes; only
            # the empty-cluster reseed below needs it.
            labels, _, min_distances = pruned_assignment(
                bounds, run.labels, X, ctx.x_squared_norms,
                lambda idx: centers[run.labels[idx]],
                lambda rows, norms: assign_to_nearest(
                    rows, centers, x_squared_norms=norms,
                    return_second=True, parallel=parallel,
                ),
                parallel,
            )
        new_centers = centers.copy()
        counts = _group_mass(labels, weights, self.n_clusters, parallel)
        # Per-column bincount reduction (grouped_row_sum) over the
        # fit-hoisted weighted matrix: same row-order accumulation as the
        # np.add.at scatter it replaces, an order of magnitude faster — and
        # with pruning this update is the iteration floor.
        sums = grouped_row_sum(labels, ctx.weighted_X, self.n_clusters, parallel)
        non_empty = counts > 0
        new_centers[non_empty] = sums[non_empty] / counts[non_empty, None]
        # Empty clusters: re-seed on the points farthest from their
        # centroid, the standard remedy (also KR-k-Means, Appendix B).
        empty = np.flatnonzero(~non_empty)
        if empty.size:
            if min_distances is None:
                # Pruned iterations skip exact per-point distances; the
                # reseed rule ranks all of them, so fall back to the full
                # computation the unpruned path runs — same call, same
                # inputs, bit-identical reseed choice.
                _, min_distances = assign_to_nearest(
                    X, centers, x_squared_norms=ctx.x_squared_norms,
                    parallel=parallel,
                )
            farthest = np.argsort(min_distances * weights)[::-1][: empty.size]
            new_centers[empty] = X[farthest]
        # float64 reduction for any working dtype (exact no-op at f64):
        # the convergence test must not drown in f32 accumulation noise.
        shift = float(np.sum((new_centers - centers) ** 2, dtype=np.float64))
        if bounds is not None and shift >= self.tol:
            drift = dense_drift(centers, new_centers)
            bounds.inflate(drift[labels], float(drift.max()))
        # Centers and labels advance together, so an interrupt always
        # leaves the last completed iteration's state.
        run.centers, run.labels = new_centers, labels
        return shift
