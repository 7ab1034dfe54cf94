"""Cross-iteration Hamerly bounds: pruning the per-iteration re-assignment.

Lloyd-style algorithms pay the full assignment price every iteration for
every point, yet after the first few iterations the vast majority of points
provably cannot change label.  The classic cure [Hamerly, 2010] maintains,
per point ``i`` with current label ``a_i``:

* an **upper bound** ``u_i ≥ d(x_i, c_{a_i})`` on the distance to the
  assigned centroid, and
* a **lower bound** ``l_i ≤ min_{j ≠ a_i} d(x_i, c_j)`` on the distance to
  the second-nearest centroid.

When centroid ``j`` moves by ``δ_j``, the triangle inequality keeps both
bounds valid after ``u_i += δ_{a_i}`` and ``l_i -= max_j δ_j``.  Whenever
``u_i < l_i`` (strictly — ties must fall through to an exact re-assignment
so tie-breaking matches the unpruned argmin bit for bit), the assigned
centroid is still strictly nearest and the point is skipped.  Survivors are
first *tightened* (``u_i`` recomputed exactly against the assigned centroid
only, ``O(m)``) and only the points that still overlap are re-scored against
all ``k`` centroids.

The Khatri-Rao structure makes the drift side unusually cheap: for the sum
aggregator a centroid's movement decomposes as
``‖Δc(j_1..j_p)‖ ≤ Σ_q ‖Δθ_q[j_q]‖``, so valid per-centroid drift bounds
for all ``k = ∏ h_q`` centroids come from ``p`` per-set norm tables of total
size ``Σ h_q`` — no grid materialization (the ``factored_drift`` aggregator
hook, see :mod:`repro.linalg.aggregators`).  Non-decomposable aggregators
fall back to a dense ``(k,)`` drift vector computed from the materialized
centroid diff.

Floating-point safety
---------------------
The assignment kernels compute squared distances in expansion form
(``‖x‖² − 2 x·c + ‖c‖²``), whose cancellation error is proportional to the
*magnitudes* of the terms, not to the distance: on un-centered data (a
coordinate offset of ``1e7`` say) the computed distance can be off by far
more than the gap between near-tied centroids, which would let a "strict"
bound comparison prune a point the unpruned argmin re-labels.  Bounds are
therefore seeded with a certified margin — the upper bound inflated and the
lower bound deflated by ``O(eps·(m+8)·(‖x‖² + d))``, a bound on the
worst-case cancellation error — so they hold for the *computed* distances,
not just the real-arithmetic ones.  On well-conditioned data the margin is
~1e-13 relative and costs nothing; on badly-conditioned data it gracefully
degrades pruning toward full re-scores instead of corrupting results.

Dtype-aware margins (proof sketch)
----------------------------------
With the estimators' ``dtype="float32"`` knob the distance kernels round at
``eps32 ≈ 1.19e-7`` instead of ``eps64 ≈ 2.22e-16``, so the certified
margin widens by the same machine-epsilon factor: ``_fp_margin_factor``
takes the *seed dtype* (the dtype of the squared distances and ``‖x‖²``
fed into the bounds) and evaluates ``8·(m + 8)·eps(dtype)``.  The claim
that pruning stays label-identical to the unpruned run *at the same dtype*
follows from three invariants:

1. **Seeds.**  A squared distance computed by the expansion-form kernels in
   dtype ``t`` differs from its real value by at most
   ``γ·(‖x‖² + d̂)`` with ``γ = c·(m + 2)·eps(t)`` for a small constant
   ``c``: the ``m``-term dot products each carry ``O(m·eps(t))`` relative
   roundoff scaled by term magnitudes, the three-term combination adds two
   more rounds, and blocked BLAS accumulation orders only shrink the
   constant.  The margin ``8·(m + 8)·eps(t)·(‖x‖² + d̂) ≥ γ·(‖x‖² + d̂)``
   therefore brackets the computed value between the certified upper and
   lower bounds, with the slack factor (≥ 4×) absorbing the square-root
   rounding of the bound itself.
2. **Maintenance.**  Everything the bounds do *after* seeding runs in
   float64 regardless of the working dtype: ``upper``/``lower`` are float64
   arrays, ``margin_base`` is float64 (``eps(t) · float64(‖x‖²)``), and the
   drift tables that inflate them are computed in float64 by
   ``factored_drift`` / :func:`dense_drift` from the (dtype-rounded, hence
   exactly representable) protocentroids.  Maintenance therefore
   contributes only ``O(eps64)`` drift per iteration — covered many times
   over by the ≥ 4× seed slack, since margins are ``Ω(eps(t))``.
3. **Decisions.**  Pruning compares a certified upper bound against a
   certified lower bound *strictly*, so a skip certifies
   ``computed_d(x, c_a) < computed_d(x, c_j)`` for every ``j ≠ a`` — the
   exact inequality the same-dtype unpruned argmin evaluates; ties and
   uncertain cases fall through to the argmin itself.  Hence labels,
   inertia and iteration counts are bit-identical per dtype (certified on
   the ``tests/test_dtype.py`` grid, including un-centered float32 data).

Late iterations therefore drop from ``O(n·k·p)`` (factored) or ``O(n·k·m)``
(materialized) to ``O(|active|·…) + O(n)`` bound maintenance.  Pruned and
unpruned paths produce identical labels, inertia and iteration counts; the
bounds only ever *license skipping* work whose outcome is already certain.

Two state objects live here:

* :class:`HamerlyBounds` — dense per-iteration bounds for batch Lloyd loops
  (:class:`~repro.core.kmeans.KMeans`,
  :class:`~repro.core.kr_kmeans.KhatriRaoKMeans`);
* :class:`StreamingBounds` — snapshot-based bounds for mini-batch training,
  where each step touches only a sample of the points: drift is accumulated
  into cumulative per-protocentroid tables and every point anchors the
  cumulative totals at its last exact assignment, so the inflation owed by a
  point is reconstructed lazily when it is next sampled.

:class:`StreamingBounds` additionally supports a *dynamic* mode
(:meth:`StreamingBounds.for_stream`) for online ``partial_fit`` streams,
where the point universe is not known up front: the caller identifies each
batch row by a stable integer index (the point-identity protocol), the
per-point state grows amortized-doubling as new indices appear, and the
certified margins are seeded per point from the batch's ``‖x‖²`` at
:meth:`StreamingBounds.observe` time.  A known index re-presented with a
different squared norm is treated as a *new* point (its cached bounds are
invalidated), so an identity-contract violation degrades to a full
re-score instead of a wrong label.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError
from ._distances import paired_squared_distances

__all__ = [
    "PRUNING_MODES",
    "HamerlyBounds",
    "StreamingBounds",
    "check_pruning",
    "drift_inflation_from_tables",
    "dense_drift",
    "hamerly_step",
    "pruned_assignment",
]

#: valid values of the estimators' ``pruning`` knob
PRUNING_MODES = ("auto", "bounds", "none")

#: when the post-tighten active set exceeds this fraction of the points, a
#: pruned iteration re-scores *everything* through the (BLAS-friendlier)
#: full kernel and re-seeds the bounds, instead of gathering a nearly-full
#: subset — same labels, less overhead on crowded-centroid workloads
FULL_RESCORE_FRACTION = 0.8

#: when the *candidate* set (before tightening) already exceeds this
#: fraction, the iteration is in the churn regime — some centroid moved far
#: enough that the global max-drift deflation invalidated essentially every
#: lower bound — and the tightening pass cannot pay for itself: skip it and
#: full-rescore immediately.  This caps the bounds overhead on
#: never-converging workloads at the cost of one top-2 partition per
#: iteration, while pruning still engages as soon as drift decays.
HOPELESS_FRACTION = 0.95


def check_pruning(pruning: str) -> str:
    """Validate the ``pruning`` knob (estimators apply their own auto rules)."""
    if pruning not in PRUNING_MODES:
        raise ValidationError(
            f"pruning must be one of {PRUNING_MODES}, got {pruning!r}"
        )
    return pruning


def drift_inflation_from_tables(
    drift_tables: Sequence[np.ndarray], set_labels: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Per-point assigned-centroid drift and the global max drift, factored.

    ``drift_tables[q][j] = ‖Δθ_q[j]‖`` bounds centroid movement as
    ``δ(j_1..j_p) ≤ Σ_q drift_tables[q][j_q]``; the maximum over the whole
    grid is reached at the per-set maxima.
    """
    assigned = drift_tables[0][set_labels[:, 0]].copy()
    for q in range(1, len(drift_tables)):
        assigned += drift_tables[q][set_labels[:, q]]
    max_drift = float(sum(table.max() for table in drift_tables))
    return assigned, max_drift


def dense_drift(old_centroids: np.ndarray, new_centroids: np.ndarray) -> np.ndarray:
    """Exact per-centroid movement ``δ_j = ‖c_j^new − c_j^old‖``, shape (k,).

    Computed in float64 for any input dtype: drift feeds the certified
    bound maintenance, which is float64 by contract (module docstring) so
    the margins only have to cover the dtype-rounded distance seeds.
    """
    return np.sqrt(paired_squared_distances(
        np.asarray(new_centroids, dtype=np.float64),
        np.asarray(old_centroids, dtype=np.float64),
    ))


def _fp_margin_factor(n_features: int, dtype=np.float64) -> float:
    """Worst-case relative cancellation error of an expansion-form distance.

    ``‖x‖² − 2 x·c + ‖c‖²`` accumulates roundoff proportional to the term
    magnitudes over an ``m``-term dot product; ``8·(m + 8)·eps(dtype)``
    bounds it with generous slack (BLAS accumulation orders are blocked,
    not naive).  ``dtype`` is the *seed* dtype — the precision the distance
    kernels computed in (the estimators' working dtype) — so float32 runs
    get margins widened by ``eps32/eps64 ≈ 5.4e8``; the ≥ 4× slack also
    absorbs the float64 bound-maintenance roundoff (see the module
    docstring's proof sketch).
    """
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        dtype = np.dtype(np.float64)
    return 8.0 * (n_features + 8) * float(np.finfo(dtype).eps)


def _certified_upper_bound(d_squared, margin_base, eps_factor):
    """``sqrt`` of a squared distance inflated past its worst-case fp error."""
    return np.sqrt(d_squared + (margin_base + eps_factor * d_squared))


def _certified_lower_bound(d_squared, margin_base, eps_factor):
    """``sqrt`` of a squared distance deflated past its worst-case fp error.

    ``inf`` inputs (single-centroid problems have no second-nearest) stay
    ``inf`` — deflating them naively would produce ``inf − inf = NaN``.
    """
    d_squared = np.asarray(d_squared, dtype=float)
    finite = np.isfinite(d_squared)
    if finite.all():
        deflated = d_squared - (margin_base + eps_factor * d_squared)
        return np.sqrt(np.maximum(deflated, 0.0))
    out = np.full(d_squared.shape, np.inf)
    base = margin_base[finite] if np.ndim(margin_base) else margin_base
    deflated = d_squared[finite] - (base + eps_factor * d_squared[finite])
    out[finite] = np.sqrt(np.maximum(deflated, 0.0))
    return out


class HamerlyBounds:
    """Dense per-point Hamerly bounds for a batch Lloyd loop.

    Lifecycle per run: :meth:`initialize` from the first full top-2
    assignment, then each iteration :meth:`candidates` → :meth:`tighten` →
    :meth:`refresh` (for the re-scored active set) → :meth:`inflate` (after
    the centroid update).  All comparisons are strict so exact distance ties
    are never pruned, and every seeded bound carries the floating-point
    margin (see module docstring) so cancellation noise in the expansion-
    form kernels can never flip a pruning decision — overlapping points
    fall through to the same argmin the unpruned path runs.
    """

    __slots__ = ("upper", "lower", "initialized", "_margin_base", "_eps_factor")

    def __init__(self, x_squared_norms: np.ndarray, n_features: int) -> None:
        n = x_squared_norms.shape[0]
        # Margins scale with the machine epsilon of the dtype the distance
        # seeds are computed in (the estimators' working dtype, inferred
        # from the hoisted ‖x‖² vector); all bound state itself is float64
        # — see the module docstring's proof sketch.
        self._eps_factor = _fp_margin_factor(n_features, x_squared_norms.dtype)
        self._margin_base = self._eps_factor * np.asarray(
            x_squared_norms, dtype=np.float64
        )
        self.upper = np.zeros(n)
        self.lower = np.zeros(n)
        self.initialized = False

    def _certified_upper(self, d_squared, idx=None) -> np.ndarray:
        base = self._margin_base if idx is None else self._margin_base[idx]
        return _certified_upper_bound(d_squared, base, self._eps_factor)

    def _certified_lower(self, d_squared, idx=None) -> np.ndarray:
        base = self._margin_base if idx is None else self._margin_base[idx]
        return _certified_lower_bound(d_squared, base, self._eps_factor)

    def initialize(self, d1_squared: np.ndarray, d2_squared: np.ndarray) -> None:
        """Seed bounds from the top-2 squared distances (margin applied)."""
        self.upper = self._certified_upper(d1_squared)
        self.lower = self._certified_lower(d2_squared)
        self.initialized = True

    def inflate(self, assigned_drift: np.ndarray, max_drift: float) -> None:
        """Account for centroid movement (triangle inequality)."""
        self.upper += assigned_drift
        self.lower -= max_drift

    def candidates(self) -> np.ndarray:
        """Indices whose bounds overlap and need at least a tightening pass."""
        return np.flatnonzero(self.upper >= self.lower)

    def tighten(self, idx: np.ndarray, exact_squared: np.ndarray) -> np.ndarray:
        """Replace ``upper[idx]`` with exact distances; return the survivors
        (still-overlapping indices) that need a full re-assignment."""
        tightened = self._certified_upper(exact_squared, idx)
        self.upper[idx] = tightened
        return idx[tightened >= self.lower[idx]]

    def refresh(self, idx: np.ndarray, d1_squared: np.ndarray,
                d2_squared: np.ndarray) -> None:
        """Reset bounds of re-scored points from their fresh top-2 distances."""
        self.upper[idx] = self._certified_upper(d1_squared, idx)
        self.lower[idx] = self._certified_lower(d2_squared, idx)

    def state_arrays(self) -> dict:
        """The per-point bounds, the part of the state a checkpoint stores
        (the margins are recomputed from ``‖x‖²``)."""
        return {"upper": self.upper, "lower": self.lower}

    def load_state(self, arrays: dict, initialized) -> None:
        """Inverse of :meth:`state_arrays`, plus the ``initialized`` flag."""
        self.upper = np.ascontiguousarray(arrays["upper"], dtype=np.float64)
        self.lower = np.ascontiguousarray(arrays["lower"], dtype=np.float64)
        self.initialized = bool(initialized)


def hamerly_step(bounds, labels, exact_squared_fn, rescore_fn):
    """One bounds-pruned assignment pass shared by the batch Lloyd loops.

    Parameters
    ----------
    bounds : HamerlyBounds
    labels : int array of shape (n,)
        Current labels; mutated in place for partially re-scored passes.
    exact_squared_fn : callable(idx) -> (len(idx),) array
        Exact squared distance of each point in ``idx`` to its *assigned*
        centroid (the tightening kernel).
    rescore_fn : callable(idx_or_None) -> (labels, d1, d2)
        Full top-2 argmin over all centroids for the given subset
        (``None`` = every point).

    Returns
    -------
    (labels, fraction, full_d1)
        ``fraction`` is the share of points fully re-scored; ``full_d1``
        carries the exact min squared distances whenever the pass re-scored
        everything (callers use it for the empty-cluster reseed), else
        ``None``.
    """
    n = labels.shape[0]
    if not bounds.initialized:
        labels, d1, d2 = rescore_fn(None)
        bounds.initialize(d1, d2)
        return labels, 1.0, d1
    candidates = bounds.candidates()
    if candidates.size == 0:
        return labels, 0.0, None
    if candidates.size <= HOPELESS_FRACTION * n:
        active = bounds.tighten(candidates, exact_squared_fn(candidates))
    else:
        # Churn regime: the global max-drift deflation invalidated
        # essentially every lower bound, so tightening cannot pay for
        # itself — go straight to the full re-score below.
        active = candidates
    if active.size == 0:
        return labels, 0.0, None
    if active.size > FULL_RESCORE_FRACTION * n:
        # Nearly everything moved: the contiguous full kernel beats a
        # gathered almost-full subset, and the bounds re-seed for free.
        labels, d1, d2 = rescore_fn(None)
        bounds.initialize(d1, d2)
        return labels, 1.0, d1
    new_labels, d1, d2 = rescore_fn(active)
    labels[active] = new_labels
    bounds.refresh(active, d1, d2)
    return labels, active.size / n, None


def pruned_assignment(bounds, labels, X, x_squared_norms, assigned_rows,
                      assign, parallel):
    """:func:`hamerly_step` over the rows of ``X``.

    ``assigned_rows(idx)`` gives the assigned centroid of each point in
    ``idx`` — all that tightening needs, never the full grid.
    ``assign(rows, norms)`` is the full top-2 argmin ``(labels, d1, d2)``
    over a row subset, so wherever the pruned pass recomputes it
    reproduces the unpruned argmin exactly.  Both sweeps are row-blocked:
    the tightening gather splits on fixed blocks of the active subset (each
    row's distance is independent, so concatenation is exact) and the
    rescore routes through the row-blocked assignment kernels.
    """
    def exact_squared(idx):
        return np.concatenate(parallel.map(
            lambda start, stop: paired_squared_distances(
                X[idx[start:stop]], assigned_rows(idx[start:stop])
            ),
            idx.size,
        ))

    def rescore(idx):
        if idx is None:
            return assign(X, x_squared_norms)
        return assign(X[idx], x_squared_norms[idx])

    return hamerly_step(bounds, labels, exact_squared, rescore)


#: StreamingBounds attributes whose state_arrays() key differs from the name
_STATE_ATTRS = {"margin_base": "_margin_base"}


class StreamingBounds:
    """Lazy Hamerly bounds for mini-batch training over a fixed dataset.

    Mini-batch steps touch only a sample of points while *every* step moves
    protocentroids, so dense inflation would cost ``O(n)`` per step for
    points that are never looked at.  Instead, drift is accumulated into
    cumulative per-set tables ``cum_q[j] = Σ_steps ‖Δθ_q[j]‖`` plus a running
    total ``cum_max = Σ_steps Σ_q max_j ‖Δθ_q[j]‖``, and each point stores
    the totals observed at its last exact assignment.  When the point is next
    sampled, the inflation it owes is reconstructed in O(p):

    ``u_i + (Σ_q cum_q[a_iq] − u_anchor_i)  <  l_i − (cum_max − m_anchor_i)``

    keeps the cached label (triangle inequality telescoped over the skipped
    steps); anything else — including never-seen points — is re-scored
    exactly.  Only decomposable (sum) aggregators support this, since the
    per-set drift tables are what make the telescoping cheap.  Recorded
    bounds carry the same floating-point margin as :class:`HamerlyBounds`.
    """

    __slots__ = (
        "cardinalities", "known", "labels", "upper", "lower",
        "u_anchor", "m_anchor", "cum", "cum_max",
        "_margin_base", "_eps_factor", "dynamic", "size", "norms",
    )

    def __init__(
        self,
        x_squared_norms: np.ndarray,
        n_features: int,
        cardinalities: Sequence[int],
    ) -> None:
        n = x_squared_norms.shape[0]
        self.cardinalities = tuple(cardinalities)
        # Same dtype-aware margin policy as HamerlyBounds: eps factor from
        # the seed dtype, all bound state and maintenance in float64.
        self._eps_factor = _fp_margin_factor(n_features, x_squared_norms.dtype)
        self._margin_base = self._eps_factor * np.asarray(
            x_squared_norms, dtype=np.float64
        )
        self.known = np.zeros(n, dtype=bool)
        self.labels = np.zeros(n, dtype=np.int64)
        self.upper = np.zeros(n)
        self.lower = np.zeros(n)
        self.u_anchor = np.zeros(n)
        self.m_anchor = np.zeros(n)
        self.cum = [np.zeros(h) for h in self.cardinalities]
        self.cum_max = 0.0
        self.dynamic = False
        self.size = n
        self.norms = None

    @classmethod
    def for_stream(
        cls,
        n_features: int,
        cardinalities: Sequence[int],
        seed_dtype=np.float64,
    ) -> "StreamingBounds":
        """Bounds over an *open* point universe (online ``partial_fit``).

        The caller addresses points by stable non-negative integer indices;
        per-point state grows on demand (:meth:`observe`) and the certified
        margin of each point is seeded from its ``‖x‖²`` the first time the
        point is presented.  ``seed_dtype`` is the working dtype the
        distance kernels score in, exactly as the static constructor infers
        it from the hoisted norms vector.
        """
        state = cls(
            np.zeros(0, dtype=np.dtype(seed_dtype)), n_features, cardinalities
        )
        state.dynamic = True
        state.norms = np.zeros(0)
        return state

    def _grow_to(self, capacity: int) -> None:
        """Amortized-doubling growth of every per-point array."""
        current = self.known.shape[0]
        if capacity <= current:
            return
        capacity = max(capacity, 2 * current)
        grown = capacity - current
        self.known = np.concatenate([self.known, np.zeros(grown, dtype=bool)])
        self.labels = np.concatenate(
            [self.labels, np.zeros(grown, dtype=np.int64)]
        )
        for name in ("upper", "lower", "u_anchor", "m_anchor",
                     "_margin_base", "norms"):
            setattr(self, name, np.concatenate(
                [getattr(self, name), np.zeros(grown)]
            ))

    def observe(self, idx: np.ndarray, x_squared_norms: np.ndarray) -> None:
        """Present a batch of stable indices with their squared norms.

        Dynamic mode only.  Grows capacity past ``max(idx)``, seeds the
        per-point certified margin from ``‖x‖²`` (float64, so re-presenting
        the same row reproduces the same margin bit for bit), and
        invalidates any cached bounds whose stored norm contradicts the
        presented one — the caller broke the "one index, one immutable
        point" contract for that index, so it is re-scored exactly instead
        of trusting stale bounds.
        """
        if not self.dynamic:
            raise ValidationError(
                "observe() requires dynamic StreamingBounds (for_stream)"
            )
        self._grow_to(int(idx.max()) + 1 if idx.size else 0)
        self.size = max(self.size, int(idx.max()) + 1 if idx.size else 0)
        norms64 = np.asarray(x_squared_norms, dtype=np.float64)
        changed = self.known[idx] & (self.norms[idx] != norms64)
        if changed.any():
            self.known[idx[changed]] = False
        self.norms[idx] = norms64
        self._margin_base[idx] = self._eps_factor * norms64

    def state_names(self) -> Tuple[str, ...]:
        """Keys of :meth:`state_arrays` (dynamic mode adds the per-point
        norms and margins that the static constructor derives)."""
        names = ("known", "labels", "upper", "lower", "u_anchor", "m_anchor")
        return names + (("norms", "margin_base") if self.dynamic else ())

    def state_arrays(self) -> dict:
        """Per-point state trimmed to the indices actually seen.

        The trim makes serialized state independent of the amortized
        growth pattern: a stream checkpointed and resumed mid-sequence
        carries exactly the same arrays as the uninterrupted stream.
        """
        n = self.size
        return {
            name: getattr(self, _STATE_ATTRS.get(name, name))[:n].copy()
            for name in self.state_names()
        }

    def load_state(self, arrays: dict, cum: Sequence[np.ndarray],
                   cum_max: float) -> None:
        """Inverse of :meth:`state_arrays`, plus the cumulative drift totals.

        Loads into a freshly constructed object of the matching mode: a
        static one already spans the dataset, a dynamic one grows to the
        stored universe first.
        """
        n = arrays["known"].shape[0]
        if self.dynamic:
            self._grow_to(n)
            self.size = n
        for name in self.state_names():
            getattr(self, _STATE_ATTRS.get(name, name))[:n] = arrays[name]
        self.cum = [np.ascontiguousarray(c, dtype=np.float64) for c in cum]
        self.cum_max = float(cum_max)

    def _assigned_cum(self, labels: np.ndarray) -> np.ndarray:
        """Σ_q cum_q[j_q] for the given flat labels."""
        set_indices = np.unravel_index(labels, self.cardinalities)
        total = self.cum[0][set_indices[0]].copy()
        for q in range(1, len(self.cum)):
            total += self.cum[q][set_indices[q]]
        return total

    def settled(self, idx: np.ndarray) -> np.ndarray:
        """Boolean mask over ``idx``: True where the cached label is provably
        still the strict nearest centroid (no re-assignment needed)."""
        keep = self.known[idx].copy()
        sub = idx[keep]
        if sub.size:
            inflated = self.upper[sub] + (
                self._assigned_cum(self.labels[sub]) - self.u_anchor[sub]
            )
            deflated = self.lower[sub] - (self.cum_max - self.m_anchor[sub])
            keep[keep] = inflated < deflated
        return keep

    def record(self, idx: np.ndarray, labels: np.ndarray,
               d1_squared: np.ndarray, d2_squared: np.ndarray) -> None:
        """Store an exact top-2 assignment and anchor the drift totals."""
        margin = self._margin_base[idx]
        self.known[idx] = True
        self.labels[idx] = labels
        self.upper[idx] = _certified_upper_bound(
            d1_squared, margin, self._eps_factor
        )
        self.lower[idx] = _certified_lower_bound(
            d2_squared, margin, self._eps_factor
        )
        self.u_anchor[idx] = self._assigned_cum(labels)
        self.m_anchor[idx] = self.cum_max

    def advance(self, drift_tables: Optional[List[np.ndarray]]) -> None:
        """Fold one step's per-set drift tables into the cumulative totals."""
        if drift_tables is None:
            return
        for cum, table in zip(self.cum, drift_tables):
            cum += table
        self.cum_max += float(sum(table.max() for table in drift_tables))
