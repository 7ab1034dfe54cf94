"""The Khatri-Rao-k-Means algorithm (paper Section 6, Algorithm 1).

Khatri-Rao k-Means represents ``k = h_1 · h_2 · ... · h_p`` centroids through
``p`` sets of protocentroids with only ``h_1 + ... + h_p`` stored vectors.
Each iteration, as the paper states it:

1. materializes centroids by aggregating protocentroids (on the fly in the
   memory-efficient mode, or cached in the time-efficient mode — Appendix B)
   — in this implementation an *implicit* step for decomposable
   aggregators, which score the grid without ever building it (see
   "Factored assignment" below);
2. assigns every point to its nearest centroid, which induces a per-set
   assignment through the centroid-index ↔ tuple bijection;
3. updates each protocentroid in closed form (Proposition 6.1, generalized
   here to arbitrary ``p``);
4. stops when the total squared movement of the reconstructed centroids
   falls below ``tol`` (Algorithm 1, line 20).

Both the sum and product aggregators of the paper are supported, as well as
random and k-means++-style initialization (Section 6, "Initialization").

Factored assignment (the Khatri-Rao fast path)
----------------------------------------------
Step 2 dominates the complexity analysis of Section 6.  A direct
implementation pays the full k-Means price — ``O(n·k·m)`` with
``k = ∏ h_q`` — but for the sum aggregator the squared distance to centroid
``c = Σ_q θ_q[j_q]`` decomposes as

.. math::

    ‖x − c‖² = ‖x‖² − 2 Σ_q x·θ_q[j_q] + ‖Σ_q θ_q[j_q]‖²

so assignment needs only ``p`` Gram matrices ``G_q = X @ θ_qᵀ`` of shape
``(n, h_q)`` and a data-free centroid-norm vector ``S`` — never the
``(k, m)`` centroid matrix.  On top of either strategy, cross-iteration
Hamerly bounds (:mod:`repro.core._bounds`, the ``pruning`` knob) shrink the
per-iteration scan to the ``a ≤ n`` *active* points whose bounds overlap:

==============  ==========================  ===========================  ==============
assignment      time per iteration (full)   pruned iteration             materializes?
==============  ==========================  ===========================  ==============
materialized    ``O(n·k·m)``                ``O(a·k·m + n)``             yes
factored        ``O(n·m·Σh_q + n·k·p)``     ``O(a·m·Σh_q + a·k·p + n)``  never
==============  ==========================  ===========================  ==============

The ``assignment`` knob selects the strategy; ``"auto"`` (default) uses the
factored kernel whenever the aggregator advertises
``supports_factored_assignment`` (sum: yes; product: no — it transparently
falls back to the materialized path).  The same capability powers a
closed-form centroid-shift test, so memory mode no longer re-materializes
the centroid grid to check convergence either.

Contingency-table updates (the ``update`` knob)
-----------------------------------------------
Once assignment is factored and pruned, the closed-form protocentroid
update of Proposition 6.1 becomes the per-iteration floor.  Its gather form
materializes an ``(n, m)`` *rest* matrix per set, plus several same-size
temporaries around it.  For the sum aggregator the grouped rest
contribution factors through per-set-pair contingency count tables,
``Σ_{a_q=j} θ_r[a_r] = (C_qr @ θ_r)[j]``, so the update needs one fused
``bincount`` pass over the data per set plus tiny
``(h_q, h_r) @ (h_r, m)`` matmuls — still ``Θ(p·n·m)``, but the only
full-size temporary left is the fused bincount index, a measured ~3–10×
constant-factor win (:mod:`repro.core._update`).  The two forms reorder
floating
point, so they agree to last-ulp drift; the ``update`` knob selects between
them and ``"auto"`` uses the factored kernel whenever the aggregator
advertises ``supports_factored_update`` (sum: yes; product: no — gather
fallback).

Bounds-pruned incremental Lloyd (the ``pruning`` knob)
------------------------------------------------------
After the first few iterations most points provably cannot change label.
Each point keeps an upper bound on the distance to its assigned centroid
and a lower bound on the second-nearest; after every protocentroid update
the bounds are inflated by per-centroid drift bounds and only overlapping
points are re-scored.  For decomposable aggregators the drift side is
factored too: ``‖Δc(j_1..j_p)‖ ≤ Σ_q ‖Δθ_q[j_q]‖`` (the aggregator's
``factored_drift`` hook), so drift bounds for all ``k = ∏ h_q`` centroids
cost ``Σ h_q`` numbers.  Pruned and unpruned runs produce identical labels,
inertia and iteration counts; late iterations typically re-score under 10 %
of the points, a 2–5× end-to-end ``fit()`` speedup on multi-iteration
workloads.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import (
    check_array,
    check_cardinalities,
    check_dtype,
    check_finite_norms,
    check_in,
    check_n_features,
    check_positive_int,
    check_random_state,
)
from ..exceptions import NotFittedError
from ..runtime.parallel import INLINE_POOL, RowBlockPool, resolve_parallel
from ..linalg import (
    get_aggregator,
    khatri_rao_combine,
    num_combinations,
    resolve_working_dtype,
)
from ._bounds import (
    check_pruning,
    dense_drift,
    drift_inflation_from_tables,
    pruned_assignment,
)
from ._driver import require_sets, resolve_training, restart_sweep
from ._distances import (
    _chunked_argmin,
    assign_to_nearest,
    merge_row_block_assignments,
    row_norms_squared,
    squared_distances,
)
from ._factored import (
    ASSIGNMENT_MODES,
    assign_factored,
    resolve_assignment,
)
from ._update import UPDATE_MODES, resolve_update, update_protocentroids
from .kmeans import _check_sample_weight, kmeans_plus_plus_init

__all__ = ["KhatriRaoKMeans"]


def split_seeds(seeds: np.ndarray, cardinalities, aggregator) -> List[np.ndarray]:
    """Factor seed points into protocentroid sets.

    ``seeds`` holds ``Σ h_q`` rows, set by set; protocentroid ``j`` of set
    ``q`` is the ``q``-th part of the aggregator's exact split of that set's
    ``j``-th seed, so combining one protocentroid per set stays inside the
    data range (Section 6, "Initialization").
    """
    p = len(cardinalities)
    thetas = []
    offset = 0
    for q, h in enumerate(cardinalities):
        block = np.empty((h, seeds.shape[1]), dtype=seeds.dtype)
        for j in range(h):
            block[j] = aggregator.split(seeds[offset + j], p)[q]
        thetas.append(block)
        offset += h
    return thetas


def sample_protocentroids(
    X: np.ndarray, cardinalities, aggregator, rng: np.random.Generator
) -> List[np.ndarray]:
    """Random initialization (Algorithm 1, lines 3-4): ``h_q`` data points
    per set, factored through :func:`split_seeds`.

    Raw points would start centroids at e.g. ``x_i + x_j`` for the sum
    aggregator, far outside the data hull (Appendix B).
    """
    n = X.shape[0]
    seeds = np.concatenate([
        X[rng.choice(n, size=h, replace=n < h)] for h in cardinalities
    ])
    return split_seeds(seeds, cardinalities, aggregator)


class KhatriRaoKMeans:
    """Khatri-Rao k-Means clustering (Algorithm 1).

    Parameters
    ----------
    cardinalities : sequence of int
        ``(h_1, ..., h_p)`` — the size of each protocentroid set.  The model
        represents ``h_1 · ... · h_p`` centroids with ``h_1 + ... + h_p``
        stored vectors.
    aggregator : {"sum", "product"} or Aggregator
        The elementwise ``⊕`` combining protocentroids (paper: ``+`` or
        ``×``).
    init : {"random", "kr-k-means++"}
        ``"random"`` samples data points as initial protocentroids
        (Algorithm 1, lines 3-4); ``"kr-k-means++"`` D²-samples far-apart
        data points and factors each into per-set protocentroids via the
        aggregator's exact split (Section 6, "Initialization").
    n_init : int
        Restarts; the lowest-inertia solution is kept (paper: 20).
    max_iter : int
        Maximum iterations per restart (paper: 200).
    tol : float
        Stopping tolerance on total squared centroid movement (paper: 1e-4).
    mode : {"auto", "time", "memory"}
        Peak-memory policy of the scoring sweep (Appendix B): ``"time"``
        scores the whole centroid grid at once, ``"memory"`` sweeps it in
        ``chunk_size`` blocks so peak memory grows with ``∑ h_q`` instead
        of ``∏ h_q``, and ``"auto"`` picks ``"memory"`` when the grid would
        dominate the data matrix.  Whether centroids are *materialized* at
        all is the ``assignment`` knob's business: with the factored kernel
        (the sum-aggregator default since the factored-assignment
        subsystem) neither mode ever builds the ``(∏ h_q, m)`` matrix —
        time mode holds the full ``(n, ∏ h_q)`` partial-score block,
        memory mode only ``(n, chunk_size)`` blocks.
    assignment : {"auto", "factored", "materialized"}
        Strategy for the nearest-centroid step.  ``"factored"`` exploits the
        Khatri-Rao structure: per-set Gram matrices ``G_q = X @ θ_qᵀ`` and a
        data-free centroid-norm vector replace the ``O(n·k·m)`` distance
        computation with ``O(n·m·Σh_q + n·k·p)``, never materializing
        centroids (sum aggregator only; other aggregators fall back to
        ``"materialized"`` transparently).  ``"materialized"`` forces the
        classic full-price path.  ``"auto"`` (default) uses the factored
        kernel whenever the aggregator supports it.  Both strategies produce
        identical labels; in memory mode the factored kernel sweeps the
        tuple grid in ``chunk_size`` blocks so it keeps the bounded-memory
        guarantee too.
    update : {"auto", "factored", "gather"}
        Strategy for the closed-form protocentroid update (Proposition 6.1).
        ``"factored"`` assembles each set's numerator through per-set-pair
        contingency count tables (``C_qr @ θ_r``) instead of gathering an
        ``(n, m)`` rest matrix per set — one fused ``bincount`` pass per
        set, a ~3–10× constant-factor win over the gather arithmetic (sum
        aggregator only; other
        aggregators fall back to ``"gather"`` transparently).  ``"gather"``
        forces the reference per-point arithmetic.  ``"auto"`` (default)
        uses the factored kernel whenever the aggregator supports it.  The
        two strategies reorder floating point and so agree to last-ulp
        drift (empty-cluster reseeds consume the rng identically either
        way).
    pruning : {"auto", "bounds", "none"}
        Cross-iteration Hamerly pruning (:mod:`repro.core._bounds`).
        ``"bounds"`` maintains per-point distance bounds, inflates them with
        per-centroid drift bounds after each protocentroid update (factored
        through the aggregator's ``factored_drift`` hook when it
        decomposes), and re-runs the argmin only on the points whose bounds
        overlap.  Exactly equivalent to the unpruned path — identical
        labels, inertia and iteration counts *at the same working dtype*
        (the certified bound margins scale with the dtype's machine
        epsilon, so float32 runs stay label-identical to unpruned float32
        runs).  ``"auto"`` (default) enables it except in memory mode with
        a non-decomposable aggregator, where the dense ``(k,)`` drift
        vector would break the bounded-peak-memory guarantee; ``"none"``
        always re-scores every point.
    chunk_size : int
        Number of centroids scored at a time in memory mode.
    dtype : {"float64", "float32"} or numpy dtype
        Working dtype of the kernel stack: ``X`` is cast once at ``fit``
        entry, protocentroids/Grams/partial scores are allocated in-dtype,
        and the BLAS-bound hot paths (``cross_gram``, score blocks) run at
        that precision — float32 halves their memory bandwidth, the
        serving-shaped configuration.  Grouped accumulation
        (:func:`repro.core.grouped_row_sum`, the ``C_qr @ θ_r`` contingency
        matmuls), inertia/shift reductions and pruning-bound maintenance
        deliberately stay float64 (error analysis in ``docs/numerics.md``).
        The dtype must be supported by the aggregator's ``working_dtypes``
        capability; unsupported requests fall back to float64 with a
        :class:`~repro.exceptions.DtypeFallbackWarning`.  ``"float64"``
        (default) is bit-identical to the historical behavior.
    random_state : None, int or Generator
        Source of randomness.
    checkpoint : None, path or CheckpointConfig
        When set, the sequential restart sweep snapshots its full state
        (protocentroids, labels, bound caches, restart/iteration
        counters, best-so-far, RNG state) atomically to this path on the
        config's cadence — see :mod:`repro.runtime.checkpoint`.
        Incompatible with ``n_jobs``.
    resume_from : None or path
        Resume a fit from a checkpoint written by a run with identical
        parameters on identical data (both verified, mismatch is a typed
        :class:`~repro.exceptions.CheckpointError`).  The resumed fit is
        bit-identical to the uninterrupted one.
    callback : None or callable
        ``callback(restart_index, iteration)`` invoked after every
        completed Lloyd iteration — the training fault-injection seam
        (:class:`~repro.faults.FaultHook`).  A callback raising
        ``KeyboardInterrupt`` triggers the graceful-interrupt path.
    n_jobs : None, int or ExecutorConfig
        ``None`` (default) runs restarts sequentially on a shared RNG —
        bit-compatible with every earlier release.  An int (or a full
        :class:`~repro.runtime.executor.ExecutorConfig`) runs them
        through the supervised parallel executor on per-restart
        ``rng.spawn`` streams: identical result at every worker count,
        restart failures retried/tolerated per the config.  Incompatible
        with ``checkpoint``/``resume_from``.
    n_threads : int or ParallelConfig
        Threads that run assignment, updates and bound sweeps.  The
        kernels always sweep fixed blocks of 4096 rows
        (:class:`~repro.runtime.parallel.ParallelConfig` sets another
        size); with ``1`` (default) the blocks run inline on the calling
        thread, with more on a supervised thread pool.  Block boundaries
        depend only on ``(n, block_rows)`` and reductions merge in
        ascending block order, so every thread count produces
        bit-identical labels, inertia and iteration counts.  Composes
        with ``n_jobs`` (restart workers share the pool) and is the seam
        that streams a :class:`numpy.memmap` ``X`` through ``fit`` block
        by block — larger-than-RAM datasets train through the identical
        code path.

    Attributes
    ----------
    protocentroids_ : list of arrays, set ``q`` has shape ``(h_q, m)``
        Learned protocentroid sets, in the working dtype.
    labels_ : int array of shape (n,)
        Flat centroid index per point (C-order over the tuple indices).
    set_labels_ : int array of shape (n, p)
        Per-set protocentroid assignment of each point.
    inertia_ : float
    n_iter_ : int
    reassignment_fractions_ : list of float or None
        Fraction of points fully re-scored at each Lloyd iteration of the
        best restart (1.0 on the seeding iteration, then typically decaying
        fast); ``None`` when pruning is disabled.
    dtype_ : numpy.dtype
        Working dtype the fit actually ran in (after capability
        resolution — equals the requested ``dtype`` unless the aggregator
        forced the float64 fallback).
    converged_ : bool
        ``True`` when ``fit`` ran to normal completion; ``False`` when a
        ``KeyboardInterrupt`` stopped it early (the best state found so
        far is retained instead of lost).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> base = np.array([[0.0, 0.0], [0.0, 8.0], [8.0, 0.0], [8.0, 8.0]])
    >>> X = np.vstack([b + 0.05 * rng.normal(size=(30, 2)) for b in base])
    >>> model = KhatriRaoKMeans((2, 2), aggregator="sum", random_state=0).fit(X)
    >>> model.centroids().shape
    (4, 2)
    """

    #: knobs a checkpoint must match to resume (with the working dtype)
    _CHECKPOINT_PARAMS = ("cardinalities", "aggregator", "init", "n_init",
                          "max_iter", "tol", "mode", "assignment", "update",
                          "pruning", "chunk_size")

    def __init__(
        self,
        cardinalities: Sequence[int],
        *,
        aggregator="sum",
        init: str = "random",
        n_init: int = 10,
        max_iter: int = 200,
        tol: float = 1e-4,
        mode: str = "auto",
        assignment: str = "auto",
        update: str = "auto",
        pruning: str = "auto",
        chunk_size: int = 256,
        dtype="float64",
        random_state=None,
        checkpoint=None,
        resume_from=None,
        callback=None,
        n_jobs=None,
        n_threads=1,
    ) -> None:
        self.cardinalities = check_cardinalities(cardinalities)
        self.aggregator = get_aggregator(aggregator)
        self.init = check_in(init, "init", ("random", "kr-k-means++"))
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.mode = check_in(mode, "mode", ("auto", "time", "memory"))
        self.assignment = check_in(assignment, "assignment", ASSIGNMENT_MODES)
        self.update = check_in(update, "update", UPDATE_MODES)
        self.pruning = check_pruning(pruning)
        self.chunk_size = check_positive_int(chunk_size, "chunk_size")
        self.dtype = check_dtype(dtype)
        self.random_state = random_state
        self.checkpoint, self.resume_from, self.callback, self.n_jobs = (
            resolve_training(checkpoint, resume_from, callback, n_jobs)
        )
        self.n_threads = resolve_parallel(n_threads)

        self.protocentroids_: Optional[List[np.ndarray]] = None
        self.labels_: Optional[np.ndarray] = None
        self.set_labels_: Optional[np.ndarray] = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0
        self.reassignment_fractions_: Optional[List[float]] = None
        self.dtype_: Optional[np.dtype] = None
        self.converged_: bool = False

    # ------------------------------------------------------------------ API
    @property
    def n_clusters(self) -> int:
        """Number of representable centroids, ``∏ h_q``."""
        return num_combinations(self.cardinalities)

    @property
    def n_protocentroids(self) -> int:
        """Number of stored vectors, ``∑ h_q``."""
        return int(sum(self.cardinalities))

    @property
    def uses_factored_assignment(self) -> bool:
        """Whether assignment runs through the factored Khatri-Rao kernel.

        Resolves the ``assignment`` knob against the aggregator's
        capability: True for ``"auto"``/``"factored"`` with a decomposable
        aggregator (sum), False when forced ``"materialized"`` or when the
        aggregator (product) requires the materialized fallback.
        """
        return resolve_assignment(self.assignment, self.aggregator)

    @property
    def uses_factored_update(self) -> bool:
        """Whether protocentroid updates run through the contingency kernel.

        Resolves the ``update`` knob against the aggregator's
        ``supports_factored_update`` capability: True for
        ``"auto"``/``"factored"`` with a decomposable aggregator (sum),
        False when forced ``"gather"`` or when the aggregator (product)
        requires the gather fallback.
        """
        return resolve_update(self.update, self.aggregator)

    def _uses_pruning(self, materialize: bool) -> bool:
        """Resolve the ``pruning`` knob for a concrete run configuration."""
        if self.pruning == "none":
            return False
        if self.pruning == "bounds":
            return True
        # auto: enable everywhere except memory mode with a non-decomposable
        # aggregator, where the dense (k,) per-centroid drift vector would
        # break the bounded-peak-memory guarantee of Appendix B.  Keyed on
        # the aggregator capability, not the assignment knob: a decomposable
        # aggregator provides Σh_q drift tables whichever way assignment
        # runs.
        return self.aggregator.supports_factored_assignment or materialize

    def fit(self, X, sample_weight=None) -> "KhatriRaoKMeans":
        """Run ``n_init`` restarts of Algorithm 1 and keep the best solution.

        ``sample_weight`` optionally weights each point in the objective and
        in the closed-form protocentroid updates (the weighted form of
        Proposition 6.1).
        """
        # Resolve the requested dtype against the aggregator capability
        # (loud float64 fallback), then cast exactly once for the whole fit.
        self.dtype_ = resolve_working_dtype(self.dtype, self.aggregator)
        X = check_array(X, min_samples=max(self.cardinalities), dtype=self.dtype_)
        # None stays None: the update kernels and the inertia reduction skip
        # the exact-but-wasted multiply by an all-ones weight column.
        weights = (
            None if sample_weight is None
            else _check_sample_weight(sample_weight, X.shape[0], dtype=X.dtype)
        )
        rng = check_random_state(self.random_state)
        with RowBlockPool(self.n_threads) as pool:
            return self._fit(X, weights, rng, pool)

    def _fit(self, X, weights, rng, parallel) -> "KhatriRaoKMeans":
        materialize = self._should_materialize(X)
        # ‖x‖² is constant across iterations and restarts — pay for it once.
        x_squared_norms = row_norms_squared(X, parallel=parallel)
        check_finite_norms(x_squared_norms, X.dtype)

        ctx = SimpleNamespace(
            X=X, weights=weights, x_squared_norms=x_squared_norms,
            parallel=parallel, materialize=materialize,
            prunes=self._uses_pruning(materialize),
        )
        best, self.inertia_, self.n_iter_, self.converged_ = restart_sweep(
            self, ctx, rng
        )
        self.protocentroids_ = [
            best[f"theta_{q}"] for q in range(len(self.cardinalities))
        ]
        self.labels_ = best["labels"]
        self.set_labels_ = self.set_assignments(self.labels_)
        self.reassignment_fractions_ = (
            [float(f) for f in best["fractions"]] if "fractions" in best
            else None
        )
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return flat centroid labels for the training data."""
        return self.fit(X).labels_

    def predict(self, X) -> np.ndarray:
        """Assign each row of ``X`` to its nearest reconstructed centroid."""
        self._check_fitted()
        X = check_array(X, dtype=self.protocentroids_[0].dtype)
        check_n_features(X, self.protocentroids_[0].shape[1])
        with RowBlockPool(self.n_threads) as pool:
            labels, _ = self._assign(
                X, self.protocentroids_, self._should_materialize(X),
                parallel=pool,
            )
        return labels

    def centroids(self) -> np.ndarray:
        """Materialize the full ``(∏ h_q, m)`` centroid matrix."""
        self._check_fitted()
        return khatri_rao_combine(self.protocentroids_, self.aggregator)

    def parameter_count(self) -> int:
        """Scalars stored by the summary: ``(∑ h_q) · m``."""
        self._check_fitted()
        return int(sum(theta.size for theta in self.protocentroids_))

    def set_assignments(self, labels: Optional[np.ndarray] = None) -> np.ndarray:
        """Decode flat centroid labels into per-set protocentroid indices."""
        if labels is None:
            self._check_fitted()
            labels = self.labels_
        labels = np.asarray(labels, dtype=np.int64).ravel()
        decoded = np.unravel_index(labels, self.cardinalities)
        return np.stack(decoded, axis=1)

    # ------------------------------------------------------------ internals
    def _check_fitted(self) -> None:
        if self.protocentroids_ is None:
            raise NotFittedError(
                "this KhatriRaoKMeans instance is not fitted yet; call fit first"
            )

    def _should_materialize(self, X: np.ndarray) -> bool:
        if self.mode == "time":
            return True
        if self.mode == "memory":
            return False
        # auto: materialize unless the centroid matrix would rival the data.
        return self.n_clusters * X.shape[1] <= max(X.size, 4 * self.chunk_size * X.shape[1])

    # -- initialization ----------------------------------------------------
    def _init_protocentroids(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> List[np.ndarray]:
        if self.init == "random":
            return sample_protocentroids(
                X, self.cardinalities, self.aggregator, rng
            )
        # Sample sum(h_q) far-apart data points with k-means++ D²-sampling,
        # then factor each into per-set protocentroids (Section 6,
        # "Initialization").
        total = sum(self.cardinalities)
        seeds = kmeans_plus_plus_init(X, min(total, X.shape[0]), rng)
        if seeds.shape[0] < total:
            extra = X[rng.choice(X.shape[0], size=total - seeds.shape[0])]
            seeds = np.vstack([seeds, extra])
        return split_seeds(seeds, self.cardinalities, self.aggregator)

    # -- assignment ---------------------------------------------------------
    def _assign(
        self,
        X: np.ndarray,
        thetas: List[np.ndarray],
        materialize: bool,
        x_squared_norms: Optional[np.ndarray] = None,
        return_second: bool = False,
        parallel=INLINE_POOL,
    ) -> Tuple[np.ndarray, ...]:
        if self.uses_factored_assignment:
            # Memory mode sweeps the tuple grid in chunks; time mode scores
            # the whole grid at once (the partial-score matrix is the only
            # O(n·k) allocation either way — centroids are never built).
            return assign_factored(
                X,
                thetas,
                self.aggregator,
                chunk_size=0 if materialize else self.chunk_size,
                x_squared_norms=x_squared_norms,
                return_second=return_second,
                parallel=parallel,
            )
        if materialize:
            centroids = khatri_rao_combine(thetas, self.aggregator)
            return assign_to_nearest(
                X,
                centroids,
                x_squared_norms=x_squared_norms,
                return_second=return_second,
                parallel=parallel,
            )
        return self._assign_chunked(
            X, thetas, x_squared_norms, return_second, parallel
        )

    def _assign_chunked(
        self,
        X: np.ndarray,
        thetas: List[np.ndarray],
        x_squared_norms: Optional[np.ndarray] = None,
        return_second: bool = False,
        parallel=INLINE_POOL,
    ) -> Tuple[np.ndarray, ...]:
        # Row-blocked memory-mode sweep: each block runs its own
        # centroid-chunk argmin (rows are scored independently, so the
        # result is bit-identical at every pool width).
        if x_squared_norms is None:
            x_squared_norms = row_norms_squared(X, parallel=parallel)

        def _block(start, stop):
            X_b = X[start:stop]
            return _chunked_argmin(
                stop - start,
                self.n_clusters,
                self.chunk_size,
                lambda c_start, c_stop: squared_distances(
                    X_b,
                    self._materialize_chunk(thetas, c_start, c_stop),
                    x_squared_norms=x_squared_norms[start:stop],
                ),
                return_second=return_second,
            )

        return merge_row_block_assignments(
            parallel.map(_block, X.shape[0]), return_second
        )

    def _combine_rows(
        self, thetas: List[np.ndarray], set_labels: np.ndarray
    ) -> np.ndarray:
        """Materialize each point's *assigned* centroid only — ``(b, m)``.

        The tightening step of Hamerly pruning needs just these rows, never
        the full grid, for any aggregator.
        """
        parts = [theta[set_labels[:, q]] for q, theta in enumerate(thetas)]
        return self.aggregator.combine(parts)

    def _materialize_chunk(
        self, thetas: List[np.ndarray], start: int, stop: int
    ) -> np.ndarray:
        flat = np.arange(start, stop)
        tuple_indices = np.unravel_index(flat, self.cardinalities)
        parts = [theta[idx] for theta, idx in zip(thetas, tuple_indices)]
        return self.aggregator.combine(parts)

    # -- protocentroid updates (Proposition 6.1, generalized to p sets) -----
    def _update_protocentroids(
        self,
        X: np.ndarray,
        thetas: List[np.ndarray],
        set_labels: np.ndarray,
        rng: np.random.Generator,
        weights: Optional[np.ndarray] = None,
        parallel=INLINE_POOL,
    ) -> List[np.ndarray]:
        """One closed-form update sweep, routed by the ``update`` knob.

        The kernels live in :mod:`repro.core._update`: the contingency-table
        form for decomposable aggregators, the per-point gather reference
        otherwise.  Both share one weighted-mass ``bincount`` per set
        between the update denominator and the empty-cluster reseed, and
        both accept a row pool — per-block partials folded in ascending
        block order, bit-identical at every pool width.
        """
        return update_protocentroids(
            X, thetas, set_labels, self.aggregator, rng,
            weights=weights, factored=self.uses_factored_update,
            parallel=parallel,
        )

    # ------------------------------------------------- the Lloyd driver hooks
    def _begin_run(self, ctx, bounds, rng=None, arrays=None):
        """A fresh restart seeded from ``rng``, or one rebuilt from its
        checkpointed ``arrays``."""
        if arrays is None:
            thetas = self._init_protocentroids(ctx.X, rng)
            labels = np.zeros(ctx.X.shape[0], dtype=np.int64)
            set_labels = None
            fractions = [] if bounds is not None else None
        else:
            thetas = require_sets(
                arrays, "theta_", len(self.cardinalities), self.resume_from,
                self.dtype_,
            )
            labels = np.ascontiguousarray(arrays["labels"], dtype=np.int64)
            set_labels = self.set_assignments(labels)
            fractions = (
                None if bounds is None
                else [float(f) for f in arrays["fractions"]]
            )
        # Shift tracking: the factored closed form and the chunked memory
        # comparison diff protocentroids directly, so both seed the cached
        # previous copies from the current protocentroids; the materialized
        # comparison seeds old_centroids instead.  All three therefore
        # measure a real shift on the next iteration and converge
        # identically.  (On resume this reconstruction is exact: at the end
        # of every completed iteration the caches equal the current
        # protocentroids / their combination, which is what the checkpoint
        # stores.)
        if not self.uses_factored_assignment and ctx.materialize:
            previous_thetas = None
            old_centroids = khatri_rao_combine(thetas, self.aggregator)
        else:
            previous_thetas = [theta.copy() for theta in thetas]
            old_centroids = None
        return SimpleNamespace(
            thetas=thetas, labels=labels, set_labels=set_labels,
            bounds=bounds, fractions=fractions,
            previous_thetas=previous_thetas, old_centroids=old_centroids,
        )

    @staticmethod
    def _run_arrays(run) -> dict:
        arrays = {"labels": run.labels}
        for q, theta in enumerate(run.thetas):
            arrays[f"theta_{q}"] = theta
        if run.fractions is not None:
            arrays["fractions"] = np.asarray(run.fractions, dtype=np.float64)
        return arrays

    def _final_assign(self, ctx, run):
        return self._assign(
            ctx.X, run.thetas, ctx.materialize, ctx.x_squared_norms,
            parallel=ctx.parallel,
        )

    def _lloyd_step(self, ctx, run, rng) -> float:
        """One iteration of Algorithm 1 on ``run``; returns the shift."""
        X, materialize, parallel = ctx.X, ctx.materialize, ctx.parallel
        thetas, bounds = run.thetas, run.bounds
        if bounds is None:
            labels, _ = self._assign(
                X, thetas, materialize, ctx.x_squared_norms, parallel=parallel
            )
        else:
            # Points whose bounds certify a strictly-nearest assigned
            # centroid keep their label; the rest are tightened, and the
            # survivors re-scored through the regular kernels.
            labels, fraction, _ = pruned_assignment(
                bounds, run.labels, X, ctx.x_squared_norms,
                lambda idx: self._combine_rows(thetas, run.set_labels[idx]),
                lambda rows, norms: self._assign(
                    rows, thetas, materialize, norms, return_second=True,
                    parallel=parallel,
                ),
                parallel,
            )
            run.fractions.append(fraction)
        set_labels = self.set_assignments(labels)
        updated = self._update_protocentroids(
            X, thetas, set_labels, rng, ctx.weights, parallel=parallel
        )
        shift, run.old_centroids, drift = self._centroid_shift(
            updated, run.previous_thetas, run.old_centroids, materialize,
            want_drift=bounds is not None,
        )
        run.thetas, run.labels, run.set_labels = updated, labels, set_labels
        if bounds is not None and shift >= self.tol:
            # Triangle-inequality inflation: the assigned centroid's drift
            # bound raises each upper bound, the grid-wide maximum lowers
            # every second-nearest bound.
            if drift[0] == "tables":
                assigned_drift, max_drift = drift_inflation_from_tables(
                    drift[1], set_labels
                )
            else:
                assigned_drift = drift[1][labels]
                max_drift = float(drift[1].max())
            bounds.inflate(assigned_drift, max_drift)
        return shift

    def _store_previous_thetas(
        self, previous_thetas: List[np.ndarray], thetas: List[np.ndarray]
    ) -> None:
        # Reuse the cached buffers (np.copyto) instead of reallocating copies
        # of every protocentroid array each iteration.
        for previous, current in zip(previous_thetas, thetas):
            np.copyto(previous, current)

    def _centroid_shift(
        self,
        thetas: List[np.ndarray],
        previous_thetas: Optional[List[np.ndarray]],
        old_centroids: Optional[np.ndarray],
        materialize: bool,
        want_drift: bool = False,
    ) -> Tuple[float, Optional[np.ndarray], Optional[tuple]]:
        """Total squared centroid movement (Algorithm 1, line 20).

        Returns ``(shift, new_centroids, drift)``; ``new_centroids`` is the
        freshly materialized grid when the materialized comparison produced
        one (so the caller can reuse it instead of combining again), else
        ``None``.  With ``want_drift`` the third element carries per-centroid
        movement bounds for Hamerly inflation: ``("tables", [d_q])`` —
        per-set norm tables from the aggregator's ``factored_drift`` hook,
        ``Σ h_q`` numbers covering the whole grid — for decomposable
        aggregators, or ``("dense", δ)`` with the exact ``(k,)`` movement
        vector otherwise.
        """
        drift: Optional[tuple] = None
        if self.uses_factored_assignment:
            # Closed form for decomposable aggregators — O(m·Σh_q + p²·m),
            # no centroid grid in either time or memory mode.
            shift = self.aggregator.factored_shift(previous_thetas, thetas)
            if want_drift:
                drift = (
                    "tables",
                    self.aggregator.factored_drift(previous_thetas, thetas),
                )
            self._store_previous_thetas(previous_thetas, thetas)
            return shift, None, drift
        if materialize and old_centroids is not None:
            new_centroids = khatri_rao_combine(thetas, self.aggregator)
            if want_drift:
                drift = ("dense", dense_drift(old_centroids, new_centroids))
            shift = float(np.sum(
                (new_centroids - old_centroids) ** 2, dtype=np.float64
            ))
            return shift, new_centroids, drift
        # Memory mode: measure movement chunk by chunk against the cached
        # previous protocentroids (seeded by _begin_run) to avoid
        # materializing all centroids.  Decomposable aggregators get their
        # drift bounds from the Σh_q factored tables even here (the
        # assignment knob may have forced the materialized comparison); the
        # dense (k,) fallback below is what pruning="auto" refuses to
        # allocate in this mode (pruning="bounds" opts in explicitly).
        want_dense = want_drift and not self.aggregator.supports_factored_assignment
        if want_drift and not want_dense:
            drift = (
                "tables",
                self.aggregator.factored_drift(previous_thetas, thetas),
            )
        shift = 0.0
        k = self.n_clusters
        drift_vector = np.empty(k) if want_dense else None
        for start in range(0, k, self.chunk_size):
            stop = min(start + self.chunk_size, k)
            new_chunk = self._materialize_chunk(thetas, start, stop)
            old_chunk = self._materialize_chunk(previous_thetas, start, stop)
            if want_dense:
                drift_vector[start:stop] = dense_drift(old_chunk, new_chunk)
            shift += float(np.sum((new_chunk - old_chunk) ** 2, dtype=np.float64))
        if want_dense:
            drift = ("dense", drift_vector)
        self._store_previous_thetas(previous_thetas, thetas)
        return shift, None, drift
