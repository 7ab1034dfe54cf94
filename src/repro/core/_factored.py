"""Factored assignment kernel exploiting Khatri-Rao structure (Section 6).

The paper identifies the assignment step as the bottleneck of Khatri-Rao
k-Means, yet a direct implementation pays the full k-Means price: it
materializes all ``k = ∏ h_q`` centroids and computes an ``O(n·k·m)``
distance matrix, discarding the very structure that makes the model compact.

For the **sum** aggregator the squared distance decomposes.  With centroid
``c = Σ_q θ_q[j_q]``:

.. math::

    ‖x − c‖² = ‖x‖² − 2 Σ_q x·θ_q[j_q] + S[j_1..j_p]

where ``S[j_1..j_p] = ‖Σ_q θ_q[j_q]‖²`` depends only on the protocentroids.
The per-point work therefore needs just ``p`` Gram matrices
``G_q = X @ θ_qᵀ`` of shape ``(n, h_q)`` plus the data-free vector ``S``,
turning the dominant cost into ``O(n·m·Σh_q + n·k·p)`` and removing centroid
materialization from the hot loop entirely.  Since ``‖x‖²`` is constant per
row it does not affect the argmin, so the kernel minimizes the *partial*
score ``S − 2 Σ_q G_q`` and adds ``‖x‖²`` back only for the returned
distances.

Which aggregators decompose this way is an aggregator capability
(``supports_factored_assignment`` — see :mod:`repro.linalg.aggregators`);
the product aggregator does not, and estimators fall back to the
materialized path for it.

The module also hosts :func:`grouped_row_sum`, the fused-bincount scatter
reduction used by the closed-form protocentroid updates
(:mod:`repro.core._update`); ``np.add.at`` is an order of magnitude slower
for this access pattern.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_float_array, int_prod
from ..exceptions import ValidationError
from ..linalg import get_aggregator
from ..runtime.parallel import INLINE_POOL, fold_blocks
from ._distances import (
    _chunked_argmin,
    _row_min,
    _row_second_min,
    _working_dtype,
    merge_row_block_assignments,
    row_norms_squared,
)

__all__ = ["assign_factored", "grouped_row_sum", "resolve_assignment"]

#: valid values of the estimators' ``assignment`` knob
ASSIGNMENT_MODES = ("auto", "factored", "materialized")


def resolve_assignment(assignment: str, aggregator) -> bool:
    """Return True when the factored kernel should handle assignment.

    ``"auto"`` and ``"factored"`` both resolve to the factored kernel only
    when the aggregator advertises ``supports_factored_assignment``; other
    aggregators transparently fall back to the materialized path.
    """
    if assignment not in ASSIGNMENT_MODES:
        raise ValidationError(
            f"assignment must be one of {ASSIGNMENT_MODES}, got {assignment!r}"
        )
    if assignment == "materialized":
        return False
    return bool(get_aggregator(aggregator).supports_factored_assignment)


def assign_factored(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    aggregator="sum",
    *,
    chunk_size: int = 0,
    x_squared_norms: Optional[np.ndarray] = None,
    return_second: bool = False,
    parallel=INLINE_POOL,
) -> Tuple[np.ndarray, ...]:
    """Assign rows of ``X`` to their nearest Khatri-Rao centroid, factored.

    Produces exactly the labels and squared distances of materializing all
    ``∏ h_q`` centroids and calling
    :func:`repro.core._distances.assign_to_nearest`, but in
    ``O(n·m·Σh_q + n·k·p)`` time and without the ``(k, m)`` centroid matrix.

    Parameters
    ----------
    X : array of shape (n, m)
    thetas : sequence of arrays, set ``q`` of shape ``(h_q, m)``
        The protocentroid sets; centroid ``(j_1, ..., j_p)`` is their
        aggregation, flat-ordered C-style (last set fastest).
    aggregator : str or Aggregator
        Must advertise ``supports_factored_assignment`` (the sum aggregator).
    chunk_size : int
        If positive, sweep the flat tuple grid in chunks of this many
        centroids so at most ``block_rows * chunk_size`` partial scores
        exist at a time — the memory-efficient mode gets the factored
        speedup too.
    x_squared_norms : array of shape (n,), optional
        Precomputed ``‖x‖²`` per row (hoisted out of Lloyd iterations).
    return_second : bool
        Also return the squared distance to the second-nearest centroid
        (``inf`` when ``∏ h_q == 1``), seeding Hamerly pruning bounds at no
        extra asymptotic cost.
    parallel : RowBlockPool
        Runs :func:`_assign_factored_block` over the fixed row blocks:
        each block computes its own Grams and partial scores, and the
        per-row outputs are concatenated in block order.  Rows are scored
        independently, so the result is bit-identical at every pool
        width, and a memory-mapped ``X`` is only touched one block at a
        time.

    Returns
    -------
    labels : int array of shape (n,)
    min_distances : float array of shape (n,)
    second_distances : float array of shape (n,), only if ``return_second``
    """
    agg = get_aggregator(aggregator)
    if not agg.supports_factored_assignment:
        raise ValidationError(
            f"aggregator {agg.name!r} does not support factored assignment; "
            "use the materialized path instead"
        )
    # Dtype-preserving: float32 data scores in float32 (sgemm Grams, half-
    # bandwidth partial-score blocks); anything else widens to float64.
    X = as_float_array(X)
    if x_squared_norms is None:
        x_squared_norms = row_norms_squared(X, parallel=parallel)
    return merge_row_block_assignments(
        parallel.map(
            lambda start, stop: _assign_factored_block(
                X[start:stop], thetas, agg, chunk_size,
                x_squared_norms[start:stop], return_second,
            ),
            X.shape[0],
        ),
        return_second,
    )


def _assign_factored_block(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    agg,
    chunk_size: int,
    x_squared_norms: np.ndarray,
    return_second: bool,
) -> Tuple[np.ndarray, ...]:
    """Factored assignment of one row block (see :func:`assign_factored`)."""
    n = X.shape[0]
    cardinalities = tuple(theta.shape[0] for theta in thetas)
    # int_prod, not np.prod: the implicit grid size overflows int64 for
    # large configurations (e.g. eight sets of 256) and np.prod wraps.
    k = int_prod(cardinalities)
    grams = agg.cross_gram(X, thetas)  # p matrices of shape (n, h_q)

    second = None
    if chunk_size <= 0 or chunk_size >= k:
        self_terms = agg.self_interaction(thetas)  # flat (k,)
        partial = _full_partial_scores(grams, self_terms, cardinalities)
        labels = np.argmin(partial, axis=1)
        best = _row_min(partial, labels)
        if return_second:
            second = _row_second_min(partial, labels)
    else:
        # The chunked sweep evaluates self-interactions per block from small
        # per-set tables, so nothing of size k is ever allocated and the
        # memory mode's bounded-peak guarantee carries over.
        self_term_block = agg.self_interaction_blocks(thetas)
        # Doubling is exact, so 2·G_q gathered equals 2·(G_q gathered).
        doubled_grams = [2.0 * gram for gram in grams]
        dtype = _working_dtype(grams[0])
        # Two (n, chunk) buffers reused by every chunk: _chunked_argmin
        # consumes each score block before asking for the next, and a
        # fresh buffer of that size page-faults on first touch at a cost
        # that rivals the arithmetic itself.
        scores = np.empty((n, min(chunk_size, k)), dtype=dtype)
        gathered = np.empty_like(scores)
        result = _chunked_argmin(
            n,
            k,
            chunk_size,
            lambda start, stop: _partial_score_block(
                doubled_grams, self_term_block, cardinalities, start, stop,
                scores[:, : stop - start], gathered[:, : stop - start],
            ),
            return_second=return_second,
            dtype=dtype,
        )
        if return_second:
            labels, best, second = result
        else:
            labels, best = result
    min_distances = x_squared_norms + best
    np.maximum(min_distances, 0.0, out=min_distances)
    if return_second:
        second_distances = x_squared_norms + second
        np.maximum(second_distances, 0.0, out=second_distances)
        return labels, min_distances, second_distances
    return labels, min_distances


def _full_partial_scores(
    grams: Sequence[np.ndarray],
    self_terms: np.ndarray,
    cardinalities: Tuple[int, ...],
) -> np.ndarray:
    """``S − 2 Σ_q G_q`` broadcast over the whole ``(n, h_1, ..., h_p)`` grid."""
    n = grams[0].shape[0]
    p = len(cardinalities)
    scores = np.broadcast_to(
        self_terms.reshape((1,) + cardinalities), (n,) + cardinalities
    ).copy()
    for q, gram in enumerate(grams):
        shape = [1] * (p + 1)
        shape[0] = n
        shape[q + 1] = cardinalities[q]
        scores -= 2.0 * gram.reshape(shape)
    return scores.reshape(n, -1)


def _partial_score_block(
    doubled_grams: Sequence[np.ndarray],
    self_term_block: Callable[[Sequence[np.ndarray]], np.ndarray],
    cardinalities: Tuple[int, ...],
    start: int,
    stop: int,
    out: np.ndarray,
    gathered: np.ndarray,
) -> np.ndarray:
    """Partial scores ``S − 2 Σ_q G_q`` for flat centroid indices
    ``[start, stop)`` into ``out``, given the doubled Grams ``2 G_q``.

    Accumulates left to right, ``((S − 2G_0) − 2G_1) − …``; ``gathered``
    is scratch of ``out``'s shape.
    """
    tuple_indices = np.unravel_index(np.arange(start, stop), cardinalities)
    out[...] = self_term_block(tuple_indices)
    for gram, indices in zip(doubled_grams, tuple_indices):
        np.take(gram, indices, axis=1, out=gathered)
        out -= gathered
    return out


def grouped_row_sum(
    assignments: np.ndarray, values: np.ndarray, num_groups: int,
    parallel=INLINE_POOL, weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum rows of ``values`` into ``num_groups`` buckets given by ``assignments``.

    Equivalent to ``np.add.at(out, assignments, values)`` on a zeroed
    ``(num_groups, m)`` array, but implemented as a single flat
    ``np.bincount`` over the fused index ``assignments·m + column`` —
    ``np.add.at`` buffered scatter is a known order-of-magnitude slowdown
    for this access pattern, and one fused pass beats the previous
    per-column ``np.bincount`` loop (m Python-level calls over strided
    columns) at every realistic ``m``.  Bit-identical to both: every output
    bucket accumulates its contributions in the same (increasing-row)
    order.

    **Accumulates — and returns — float64 for every input dtype.**  This is
    one of the two deliberate float64 islands of the ``dtype="float32"``
    kernel stack (the other is the ``C_qr @ θ_r`` contingency matmuls; see
    ``docs/numerics.md``): the grouped sum reduces up to ``n`` terms per
    bucket, and a float32 accumulator would grow an ``O(eps32·n·|Σ|)``
    error that dwarfs the single ``O(eps32·|v|)`` rounding the callers pay
    when they store the quotient back into a float32 protocentroid.  Each
    float32 element widens to float64 exactly, so the result is
    bit-identical to summing a pre-widened copy.

    ``weights`` (shape ``(n,)``) sums ``w·values`` instead, weighting one
    row block at a time so no full ``(n, m)`` product is ever built.

    ``parallel`` (a :class:`~repro.runtime.parallel.RowBlockPool`) runs
    one fused-bincount partial per fixed row block, and the partials are
    **summed in ascending block order** — the accumulation split is fixed
    by the block boundaries alone, so the result is bit-identical at
    every pool width.
    """
    values = as_float_array(values)

    def _block(start, stop):
        block = values[start:stop]
        if weights is not None:
            block = block * np.asarray(
                weights[start:stop], dtype=values.dtype
            )[:, None]
        return _grouped_row_sum_block(assignments[start:stop], block, num_groups)

    return fold_blocks(parallel.map(_block, values.shape[0]))


def _grouped_row_sum_block(
    assignments: np.ndarray, values: np.ndarray, num_groups: int
) -> np.ndarray:
    """One fused-bincount partial of :func:`grouped_row_sum` (one block)."""
    m = values.shape[1]
    if m == 0:
        return np.zeros((num_groups, m), dtype=np.float64)
    fused = assignments.astype(np.int64, copy=False)[:, None] * m + np.arange(
        m, dtype=np.int64
    )
    # np.bincount casts its weights to float64 internally (exact for f4
    # inputs) and always returns a float64 accumulation.
    return np.bincount(
        fused.ravel(), weights=np.ascontiguousarray(values).ravel(),
        minlength=num_groups * m,
    ).reshape(num_groups, m)
