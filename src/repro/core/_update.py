r"""Contingency-table protocentroid updates (Proposition 6.1, factored form).

With factored assignment (:mod:`repro.core._factored`) and Hamerly pruning
(:mod:`repro.core._bounds`) in place, the closed-form protocentroid update is
the per-iteration floor of Khatri-Rao k-Means: the textbook implementation of
Proposition 6.1 gathers, for every set ``q``, the per-point *rest*
contribution ``rest_i = ⊕_{r≠q} θ_r[a_r(i)]`` — an ``(n, m)`` materialization
per set, ``O(p·n·m)`` per iteration with several full-size temporaries.

For the decomposable (**sum**) aggregator that gather factors through
per-set-pair *contingency tables*.  The grouped rest contribution is

.. math::

    Σ_{i : a_q(i)=j} w_i · θ_r[a_r(i)] = (C_{qr} @ θ_r)[j],
    \qquad C_{qr}[j, l] = Σ_{i : a_q(i)=j, a_r(i)=l} w_i

so the weighted numerator of the update for set ``q`` becomes

.. math::

    N_q = \mathrm{grouped\_row\_sum}(a_q, w·X) − Σ_{r≠q} C_{qr} @ θ_r

with each ``C_qr`` obtained from a single ``bincount`` on the fused index
``a_q·h_r + a_r`` — ``O(n)`` per pair — and each matmul costing
``O(h_q·h_r·m)``.  Both forms remain ``Θ(p·n·m)`` asymptotically (the
factored numerator still takes one ``grouped_row_sum`` pass over the data
per set), but the factored per-set pass is a single fused ``bincount`` —
index arithmetic plus one add per element, memory-bandwidth-bound —
whereas the gather form materializes and walks several ``(n, m)`` float
temporaries per set (the gathered rest, its combine, the subtraction, the
optional weight product).  The only full-size allocation per factored pass
is the fused ``(n, m)`` int64 index inside ``grouped_row_sum`` (plus
``w·X`` once when weighted), which is where the measured ~3–10×
constant-factor win comes from.

The factored form *reorders* floating-point arithmetic relative to the
gather form (grouped sums of ``x − rest`` versus grouped sums of ``x`` minus
table-factored sums of ``θ``), so results agree only to last-ulp drift —
:mod:`tests.test_update_equivalence` certifies the agreement with an
explicit error envelope.  Which aggregators decompose is an aggregator
capability (``supports_factored_update`` in
:mod:`repro.linalg.aggregators`, mirroring the assignment protocol); the
product aggregator does not (``x·∏ θ`` is not linear in any ``θ_r``) and
transparently falls back to the gather path.

Both kernels reseed empty protocentroids identically (same weighted-mass
test, same ``rng`` draws, in the same order), so the reseed trajectories of
the two arithmetic forms coincide bit for bit.

Dtype policy (the estimators' ``dtype`` knob)
---------------------------------------------
Inputs keep their float32/float64 dtype through the per-point arithmetic
(gathers, ``w·X``, ``x − rest``), but **all grouped accumulation runs in
float64**: :func:`repro.core._factored.grouped_row_sum` and
``np.bincount`` return float64 sums, and the ``C_qr @ θ_r`` rest terms are
computed as float64-``C_qr`` matmuls.  The float64 numerator/denominator
quotient is rounded **once** when stored into the (working-dtype)
protocentroid array, so the per-update error at float32 is ``O(eps32·|θ|)``
per coordinate instead of the ``O(eps32·n_j·|Σ|)`` a float32 accumulator
would pay over a bucket of ``n_j`` points (see ``docs/numerics.md``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_float_array
from ..exceptions import ValidationError
from ..linalg import get_aggregator
from ..runtime.parallel import INLINE_POOL, fold_blocks
from ._factored import _grouped_row_sum_block, grouped_row_sum

__all__ = [
    "UPDATE_MODES",
    "resolve_update",
    "pair_count_tables",
    "factored_sum_numerator",
    "sum_sufficient_statistics",
    "update_factored",
    "update_gather",
    "update_protocentroids",
]

#: valid values of the estimators' ``update`` knob
UPDATE_MODES = ("auto", "factored", "gather")

# Entries of the product-aggregator denominator below this threshold keep the
# previous protocentroid value instead of dividing by ~0.
_EPSILON = 1e-12


def resolve_update(update: str, aggregator) -> bool:
    """Return True when the contingency-table kernel should run the update.

    ``"auto"`` and ``"factored"`` both resolve to the factored kernel only
    when the aggregator advertises ``supports_factored_update``; other
    aggregators transparently fall back to the gather path.
    """
    if update not in UPDATE_MODES:
        raise ValidationError(
            f"update must be one of {UPDATE_MODES}, got {update!r}"
        )
    if update == "gather":
        return False
    return bool(get_aggregator(aggregator).supports_factored_update)


def _pair_table(
    a_q: np.ndarray,
    a_r: np.ndarray,
    h_q: int,
    h_r: int,
    weights: Optional[np.ndarray],
) -> np.ndarray:
    """One ``(h_q, h_r)`` contingency table of weighted co-assignment counts,
    from a single ``bincount`` on the fused index ``a_q·h_r + a_r``."""
    fused = a_q.astype(np.int64, copy=False) * h_r + a_r
    counts = np.bincount(fused, weights=weights, minlength=h_q * h_r)
    return counts.reshape(h_q, h_r).astype(float, copy=False)


def pair_count_tables(
    set_labels: np.ndarray,
    cardinalities: Sequence[int],
    weights: Optional[np.ndarray] = None,
    parallel=INLINE_POOL,
) -> List[List[Optional[np.ndarray]]]:
    """All pairwise contingency tables of weighted co-assignment counts.

    ``tables[q][r][j, l] = Σ_{i : a_q(i)=j, a_r(i)=l} w_i`` for ``q ≠ r``
    (``w_i = 1`` without weights), each unordered pair computed with one
    fused ``bincount`` per row block; ``tables[r][q]`` shares the
    transpose rather than recounting.  Diagonal entries are ``None``.

    ``parallel`` (a :class:`~repro.runtime.parallel.RowBlockPool`) counts
    each fixed row block's tables and sums the partials in ascending
    block order — bit-identical at every pool width.
    """
    p = len(cardinalities)
    pairs = [(q, r) for q in range(p) for r in range(q + 1, p)]

    def _block(start, stop):
        w = None if weights is None else weights[start:stop]
        return [
            _pair_table(
                set_labels[start:stop, q], set_labels[start:stop, r],
                int(cardinalities[q]), int(cardinalities[r]), w,
            )
            for q, r in pairs
        ]

    parts = parallel.map(_block, set_labels.shape[0])
    tables: List[List[Optional[np.ndarray]]] = [[None] * p for _ in range(p)]
    for i, (q, r) in enumerate(pairs):
        table = fold_blocks([part[i] for part in parts])
        tables[q][r] = table
        tables[r][q] = table.T
    return tables


def factored_sum_numerator(
    q: int,
    thetas: Sequence[np.ndarray],
    grouped_x: np.ndarray,
    tables: Sequence[Sequence[Optional[np.ndarray]]],
) -> np.ndarray:
    """Numerator of the sum-aggregator update for set ``q``.

    ``grouped_x`` is ``grouped_row_sum(a_q, w·X)``; the rest contribution is
    subtracted through the contingency tables against the *current* thetas
    (Gauss-Seidel callers pass the partially updated list).
    """
    numerator = grouped_x.copy()
    for r, theta in enumerate(thetas):
        if r == q:
            continue
        numerator -= tables[q][r] @ theta
    return numerator


def sum_sufficient_statistics(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    q: int,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(numerator, mass)`` of the weighted sum update for a single set.

    The standalone entry point for callers that merge statistics across data
    shards (federated learning): each shard reports its contingency-factored
    numerator ``grouped_row_sum(a_q, w·X) − Σ_{r≠q} C_qr @ θ_r`` and weighted
    mass; the server sums them and divides, which is exactly the global
    closed-form update of Proposition 6.1.
    """
    X = as_float_array(X)
    cardinalities = tuple(theta.shape[0] for theta in thetas)
    h = cardinalities[q]
    a_q = set_labels[:, q]
    Xw = X if weights is None else X * np.asarray(weights, dtype=X.dtype)[:, None]
    numerator = grouped_row_sum(a_q, Xw, h)
    for r, theta in enumerate(thetas):
        if r == q:
            continue
        table = _pair_table(a_q, set_labels[:, r], h, cardinalities[r], weights)
        # float64 C_qr against the working-dtype θ_r promotes to a float64
        # matmul — the second documented float64 accumulation island.
        numerator -= table @ np.asarray(theta, dtype=np.float64)
    mass = np.bincount(a_q, weights=weights, minlength=h).astype(float, copy=False)
    return numerator, mass


def _group_mass(
    assignments: np.ndarray, weights: Optional[np.ndarray], num_groups: int,
    parallel=INLINE_POOL,
) -> np.ndarray:
    """Weighted point mass per protocentroid — one ``bincount`` per row
    block, shared by the update denominator and the empty-cluster reseed.

    Per-block partial masses are summed in block order.  Unweighted
    masses are integer-valued, so they fold exactly at every split;
    weighted masses follow the standard blocked-sum contract
    (bit-identical across pool widths).
    """
    return fold_blocks(parallel.map(
        lambda start, stop: np.bincount(
            assignments[start:stop],
            weights=None if weights is None else weights[start:stop],
            minlength=num_groups,
        ).astype(float, copy=False),
        assignments.shape[0],
    ))


def _reseed_empty(
    updated: np.ndarray,
    mass: np.ndarray,
    X: np.ndarray,
    aggregator,
    rng: Optional[np.random.Generator],
    num_sets: int,
    q: int,
) -> None:
    """Re-seed protocentroids with no assigned mass (Appendix B)."""
    empty = np.flatnonzero(mass == 0)
    if empty.size and rng is None:
        raise ValidationError(
            f"protocentroid set {q} has {empty.size} member(s) with no "
            "assigned mass; pass rng= to enable empty-cluster reseeding"
        )
    for j in empty:
        parts = aggregator.split(X[rng.integers(X.shape[0])], num_sets)
        updated[j] = parts[q]


def update_factored(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    aggregator="sum",
    rng: Optional[np.random.Generator] = None,
    weights: Optional[np.ndarray] = None,
    parallel=INLINE_POOL,
) -> List[np.ndarray]:
    """Closed-form protocentroid update via contingency tables.

    Produces the Gauss-Seidel sweep of Proposition 6.1 — set ``q`` updated
    against the already-updated sets ``r < q`` and the old sets ``r > q``,
    empty protocentroids reseeded from ``rng`` between sets — exactly as
    :func:`update_gather` does, but assembles each numerator as
    ``grouped_row_sum(a_q, w·X) − Σ_{r≠q} C_qr @ θ_r`` instead of gathering
    an ``(n, m)`` rest matrix per set.  Same values up to last-ulp
    reordering drift (certified in ``tests/test_update_equivalence.py``);
    identical reseed draws.

    Parameters
    ----------
    X : array of shape (n, m)
    thetas : sequence of arrays, set ``q`` of shape ``(h_q, m)``
    set_labels : int array of shape (n, p)
        Per-set protocentroid assignment of each point.
    aggregator : str or Aggregator
        Must advertise ``supports_factored_update`` (the sum aggregator).
    rng : numpy Generator, optional
        Source of reseed draws; only required when a protocentroid can end
        up empty.
    weights : array of shape (n,), optional
        Per-point weights of the weighted Proposition 6.1.
    parallel : RowBlockPool
        Contingency tables, grouped sums and masses are computed as
        per-block partials folded in fixed block order (bit-identical at
        every pool width); the Gauss-Seidel set order is untouched.  Also
        the memmap seam — a mapped ``X`` is weighted and reduced one
        block at a time.

    Returns
    -------
    list of arrays — the updated protocentroid sets (inputs untouched).
    """
    agg = get_aggregator(aggregator)
    if not agg.supports_factored_update:
        raise ValidationError(
            f"aggregator {agg.name!r} does not support the contingency-table "
            "update; use the gather path instead"
        )
    X = as_float_array(X)
    cardinalities = tuple(theta.shape[0] for theta in thetas)
    tables = pair_count_tables(set_labels, cardinalities, weights, parallel)
    new_thetas = [as_float_array(theta).copy() for theta in thetas]
    for q, h in enumerate(cardinalities):
        assignments = set_labels[:, q]
        mass = _group_mass(assignments, weights, h, parallel)
        # w·X is formed one row block at a time inside grouped_row_sum, so
        # no (n, m) temporary exists (the memmap contract).
        grouped_x = grouped_row_sum(assignments, X, h, parallel, weights)
        numerator = factored_sum_numerator(q, new_thetas, grouped_x, tables)
        updated = new_thetas[q]
        non_empty = mass > 0
        updated[non_empty] = numerator[non_empty] / mass[non_empty, None]
        _reseed_empty(updated, mass, X, agg, rng, len(thetas), q)
    return new_thetas


def update_gather(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    aggregator="sum",
    rng: Optional[np.random.Generator] = None,
    weights: Optional[np.ndarray] = None,
    parallel=INLINE_POOL,
) -> List[np.ndarray]:
    """Closed-form protocentroid update with per-point rest gathers.

    The reference arithmetic of Proposition 6.1 (any aggregator): for each
    set, the rest contribution ``⊕_{r≠q} θ_r[a_r]`` is materialized per
    point and reduced with :func:`repro.core._factored.grouped_row_sum` —
    ``O(p·n·m)`` per call.  The factored kernel reproduces it to last-ulp
    drift for decomposable aggregators.

    Each row block gathers its own rest slice and reduces it, partials
    folded in block order — the ``(n, m)`` rest temporaries shrink to
    per-block size (the memmap seam) and results are bit-identical at
    every pool width.
    """
    agg = get_aggregator(aggregator)
    X = as_float_array(X)
    m = X.shape[1]
    cardinalities = tuple(theta.shape[0] for theta in thetas)
    w_column = (
        None if weights is None
        else np.asarray(weights, dtype=X.dtype)[:, None]
    )
    is_product = agg.name == "product"
    new_thetas = [as_float_array(theta).copy() for theta in thetas]
    for q, h in enumerate(cardinalities):
        assignments = set_labels[:, q]
        mass = _group_mass(assignments, weights, h, parallel)
        updated = new_thetas[q]

        def _block(start, stop):
            rest = _rest_contribution(
                agg, new_thetas, set_labels[start:stop], q, m
            )
            Xb = X[start:stop]
            a_b = assignments[start:stop]
            wc_b = None if w_column is None else w_column[start:stop]
            if is_product:
                # θ_q^j = Σ w·x ⊙ rest / Σ w·rest ⊙ rest over points with
                # a_q = j (weighted Proposition 6.1).
                x_rest = Xb * rest if wc_b is None else Xb * rest * wc_b
                r_rest = rest * rest if wc_b is None else rest * rest * wc_b
                return (
                    _grouped_row_sum_block(a_b, x_rest, h),
                    _grouped_row_sum_block(a_b, r_rest, h),
                )
            # θ_q^j = Σ w·(x − rest) / Σ w over points with a_q = j.
            diff = Xb - rest if wc_b is None else (Xb - rest) * wc_b
            return (_grouped_row_sum_block(a_b, diff, h),)

        parts = parallel.map(_block, X.shape[0])
        numerator = fold_blocks([part[0] for part in parts])
        if is_product:
            denominator = fold_blocks([part[1] for part in parts])
            safe = denominator > _EPSILON
            updated[safe] = numerator[safe] / denominator[safe]
        else:
            non_empty = mass > 0
            updated[non_empty] = numerator[non_empty] / mass[non_empty, None]
        _reseed_empty(updated, mass, X, agg, rng, len(thetas), q)
    return new_thetas


def update_protocentroids(
    X: np.ndarray,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    aggregator,
    rng: Optional[np.random.Generator] = None,
    weights: Optional[np.ndarray] = None,
    factored: Optional[bool] = None,
    parallel=INLINE_POOL,
) -> List[np.ndarray]:
    """Dispatch one closed-form update to the factored or gather kernel.

    ``factored=None`` resolves from the aggregator capability (the ``auto``
    behavior); ``factored=True`` with a non-decomposable aggregator falls
    back to the gather path transparently, mirroring the assignment knob.
    """
    agg = get_aggregator(aggregator)
    use_factored = agg.supports_factored_update if factored is None else (
        factored and agg.supports_factored_update
    )
    if use_factored:
        return update_factored(
            X, thetas, set_labels, agg, rng, weights, parallel
        )
    return update_gather(X, thetas, set_labels, agg, rng, weights, parallel)


def _rest_contribution(
    aggregator,
    thetas: Sequence[np.ndarray],
    set_labels: np.ndarray,
    excluded_set: int,
    feature_dim: int,
) -> np.ndarray:
    """Aggregate, per point, the protocentroids of every set but one."""
    parts = [
        thetas[l][set_labels[:, l]]
        for l in range(len(thetas))
        if l != excluded_set
    ]
    if not parts:
        shape = (set_labels.shape[0], feature_dim)
        try:
            return aggregator.identity(shape, dtype=thetas[0].dtype)
        except TypeError:
            # Pre-dtype third-party aggregators implement identity(shape)
            # only; their float64 neutral element merely promotes the p=1
            # rest arithmetic, which grouped accumulation re-rounds anyway.
            return aggregator.identity(shape)
    return aggregator.combine(parts)
