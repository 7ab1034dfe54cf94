"""The one Lloyd driver shared by the three estimators.

:class:`~repro.core.kmeans.KMeans`,
:class:`~repro.core.kr_kmeans.KhatriRaoKMeans` and
:class:`~repro.core.minibatch.MiniBatchKhatriRaoKMeans` differ only in how
they seed a run and in what one iteration (assign + update) does.
Everything around that lives here, as plain functions:

* **the restart sweep** (:func:`restart_sweep`): ``n_init`` sequential
  restarts on one shared RNG with best-so-far tracking by inertia, resume
  at a checkpointed ``(restart, iteration)``, or — with ``n_jobs`` — the
  supervised parallel sweep of :func:`repro.runtime.executor.run_restarts`;
* **interrupt salvage**: a ``KeyboardInterrupt`` keeps the best completed
  restart, or the last completed iteration of the first one, and is
  re-raised only when there is nothing to keep;
* **the iteration loop** (:func:`iterate`): the per-iteration callback,
  the ``tol`` break, snapshots on continuing iterations only, the
  :class:`~repro.exceptions.ConvergenceWarning` when the loop runs out, and
  the float64 final-inertia reduction (:func:`weighted_inertia`);
* **the checkpoint schema** (:func:`write_state` / :func:`read_state`):
  one header writer (estimator, parameter and data fingerprints, RNG
  state) and one verify-and-unpack step over
  :mod:`repro.runtime.checkpoint`.

The batch estimators take part in :func:`restart_sweep` through four
methods:

``_begin_run(ctx, bounds, rng=None, arrays=None)``
    A run's mutable state (any object with ``labels`` and ``bounds``
    attributes), seeded from ``rng`` or rebuilt from checkpointed
    ``arrays``.
``_lloyd_step(ctx, run, rng)``
    One assignment + update on ``run`` (bounds inflated when the shift
    reaches ``tol``); returns the total squared centroid shift.
``_final_assign(ctx, run)``
    The full ``(labels, squared distances)`` assignment that scores a run.
``_run_arrays(run)``
    The run's named state arrays.  Fit checkpoints store them as is and
    the best restart's under a ``best_`` prefix.

``ctx`` is the estimator's per-fit namespace; the driver reads its ``X``,
``weights``, ``x_squared_norms`` and ``prunes`` fields.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..exceptions import CheckpointError, ConvergenceWarning, ValidationError
from ..runtime.checkpoint import (
    check_header_fields,
    data_fingerprint,
    read_checkpoint,
    resolve_checkpoint,
    restore_rng_state,
    serialize_rng_state,
    write_checkpoint,
)
from ..runtime.executor import resolve_executor, run_restarts
from ._bounds import HamerlyBounds

__all__ = [
    "fit_fingerprint",
    "iterate",
    "param_header",
    "read_state",
    "require",
    "require_sets",
    "resolve_training",
    "restart_sweep",
    "weighted_inertia",
    "write_state",
]

#: prefix of the best restart's copy of the run arrays in a fit checkpoint
BEST = "best_"
#: prefix of the Hamerly bound arrays in a fit checkpoint
BOUNDS = "bounds_"

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def resolve_training(checkpoint, resume_from, callback, n_jobs=None):
    """Normalize the ``checkpoint``/``resume_from``/``callback``/``n_jobs`` knobs.

    Returns them as ``(CheckpointConfig or None, Path or None, callback,
    ExecutorConfig or None)``.  Checkpoints belong to the sequential sweep,
    so combining them with ``n_jobs`` is a :class:`ValidationError`.
    """
    checkpoint = resolve_checkpoint(checkpoint)
    resume_from = None if resume_from is None else Path(resume_from)
    if callback is not None and not callable(callback):
        raise ValidationError(f"callback must be callable, got {callback!r}")
    n_jobs = resolve_executor(n_jobs)
    if n_jobs is not None and (checkpoint is not None or resume_from is not None):
        raise ValidationError(
            "checkpoint/resume_from are sequential-sweep features and "
            "cannot be combined with n_jobs"
        )
    return checkpoint, resume_from, callback, n_jobs


# ------------------------------------------------------------ the schema
def fit_fingerprint(estimator, X, weights) -> Optional[dict]:
    """Data fingerprint for fit checkpoints, or ``None`` when the fit
    neither writes nor resumes one (the full-pass SHA-256 is skipped)."""
    if estimator.checkpoint is None and estimator.resume_from is None:
        return None
    return data_fingerprint(X, weights)


def param_header(estimator) -> dict:
    """Configuration fingerprint a checkpoint must match to resume: the
    estimator's ``_CHECKPOINT_PARAMS`` knobs and its working dtype.

    ``n_threads`` is deliberately absent: pool width never changes results
    (fixed block boundaries, block-order reductions), so a checkpoint
    written at one thread count resumes at any other.
    """
    params = {}
    for name in estimator._CHECKPOINT_PARAMS:
        value = getattr(estimator, name)
        # JSON form: cardinalities as a list, the aggregator by name.
        params[name] = (
            list(value) if isinstance(value, tuple)
            else getattr(value, "name", value)
        )
    params["dtype"] = np.dtype(estimator.dtype_).name
    return params


def _identity(estimator, kind, data) -> dict:
    """The header fields a resuming estimator must match."""
    identity = {"estimator": type(estimator).__name__}
    if kind is not None:
        identity["kind"] = kind
    identity["params"] = param_header(estimator)
    if data is not None:
        identity["data"] = data
    return identity


def write_state(
    path, estimator, fields: dict, arrays: Dict[str, np.ndarray], *,
    kind: Optional[str] = None, data=None, rng=None,
    extra: Optional[dict] = None,
) -> Path:
    """Write one checkpoint of ``estimator`` atomically to ``path``.

    The header is the estimator's identity (class name, ``kind`` when
    given, :func:`param_header`, the ``data`` fingerprint when given), the
    RNG state when ``rng`` is given, then ``fields``.  ``extra`` carries a
    caller's own JSON-able fields and may not reuse a schema key.
    """
    header = _identity(estimator, kind, data)
    if rng is not None:
        header["rng_state"] = serialize_rng_state(rng)
    header.update(fields)
    for key in extra or {}:
        if key in header:
            raise ValidationError(
                f"extra_header key {key!r} collides with the "
                f"{kind or 'fit'} checkpoint schema"
            )
    header.update(extra or {})
    return write_checkpoint(path, header, arrays)


def read_state(path, estimator, *, kind=None, data=None, rng=None):
    """Read and verify a :func:`write_state` checkpoint; ``(header, arrays)``.

    Every identity field must match ``estimator`` (typed
    :class:`~repro.exceptions.CheckpointError` naming the field); with
    ``rng`` the generator is restored in place to the recorded state.
    """
    header, arrays = read_checkpoint(path)
    check_header_fields(header, _identity(estimator, kind, data), path=path)
    if rng is not None:
        restore_rng_state(rng, header["rng_state"])
    return header, arrays


def require(arrays, key: str, path, dtype=None) -> np.ndarray:
    """``arrays[key]`` as a contiguous array; a typed error when absent."""
    if key not in arrays:
        raise CheckpointError(
            f"{path} is missing state array {key!r}", field=key
        )
    return np.ascontiguousarray(arrays[key], dtype=dtype)


def require_sets(arrays, prefix: str, count: int, path, dtype=None) -> List[np.ndarray]:
    """The per-set arrays ``prefix0 .. prefix{count-1}``."""
    return [require(arrays, f"{prefix}{q}", path, dtype) for q in range(count)]


# ------------------------------------------------------ the iteration loop
def _outside_stacklevel() -> int:
    """``stacklevel`` of the caller's first frame outside this package, so a
    warning points at the user's ``fit(...)`` line."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and os.path.abspath(
        frame.f_code.co_filename
    ).startswith(_PACKAGE_DIR + os.sep):
        level += 1
        frame = frame.f_back
    return level


def iterate(estimator, step, snapshot, *, start, stop, tol, restart=0,
            warning=None):
    """Run ``step(iteration)`` for ``iteration = start .. stop``.

    ``step`` returns the convergence measure; the loop stops once it falls
    below ``tol``.  After every completed iteration it calls
    ``estimator.callback(restart, iteration)``, then — on continuing
    iterations whose ``estimator.checkpoint`` is due —
    ``snapshot(iteration, path)``.  ``warning`` is the
    :class:`~repro.exceptions.ConvergenceWarning` message for a loop that
    runs out.  Returns ``(last completed iteration, interrupted)``: a
    ``KeyboardInterrupt`` (Ctrl-C, or a raising callback) ends the loop
    instead of propagating.
    """
    completed = start - 1
    checkpoint = estimator.checkpoint
    try:
        for iteration in range(start, stop + 1):
            measure = step(iteration)
            completed = iteration
            if estimator.callback is not None:
                estimator.callback(restart, iteration)
            if measure < tol:
                break
            # Snapshot only on continuing iterations: a resumed run always
            # has at least the terminal iteration left to do.
            if checkpoint is not None and checkpoint.due(iteration):
                snapshot(iteration, checkpoint.path)
        else:  # pragma: no cover - depends on data
            if warning is not None:
                warnings.warn(
                    warning, ConvergenceWarning,
                    stacklevel=_outside_stacklevel(),
                )
    except KeyboardInterrupt:
        return completed, True
    return completed, False


def weighted_inertia(distances: np.ndarray, weights) -> float:
    """(Weighted) sum of squared distances, reduced in float64 for any
    working dtype (an exact no-op at float64)."""
    if weights is None:
        return float(distances.sum(dtype=np.float64))
    return float((distances * weights).sum(dtype=np.float64))


# ------------------------------------------------------- the restart sweep
def restart_sweep(estimator, ctx, rng):
    """Run ``estimator.n_init`` restarts and keep the lowest inertia.

    Returns ``(best run arrays, inertia, iterations, converged)``;
    ``converged`` is ``False`` when a ``KeyboardInterrupt`` cut the sweep
    short and the best state found so far was kept instead.
    """
    if estimator.n_jobs is not None:
        return _parallel_sweep(estimator, ctx, rng)
    fingerprint = fit_fingerprint(estimator, ctx.X, ctx.weights)
    best = (np.inf, 0, None)  # (inertia, iterations, run arrays)
    start, resume = 0, None
    if estimator.resume_from is not None:
        start, resume, best = _resume_point(estimator, ctx, rng, fingerprint)
    interrupted = False
    for restart in range(start, estimator.n_init):
        try:
            inertia, arrays, iterations, interrupted = _single_run(
                estimator, ctx, rng, restart, resume, fingerprint, best
            )
        except KeyboardInterrupt:
            # Interrupted before this restart completed one iteration:
            # keep the best earlier restart if there is one.
            if best[2] is None:
                raise
            interrupted = True
            break
        resume = None
        if inertia < best[0]:
            best = (inertia, iterations, arrays)
        if interrupted:
            break
    return best[2], float(best[0]), best[1], not interrupted


def _parallel_sweep(estimator, ctx, rng):
    # Supervised parallel sweep on per-restart spawned streams, so the
    # selected model is identical at every worker count.  The row pool is
    # shared across restart workers (submit is thread-safe; block workers
    # never re-enter the pool).
    def run_one(gen, seed_index):
        inertia, arrays, iterations, interrupted = _single_run(
            estimator, ctx, gen, seed_index
        )
        if interrupted:
            # A callback-raised interrupt inside a worker: surface it so
            # the sweep reports interrupted (the executor keeps every
            # restart that already completed).
            raise KeyboardInterrupt
        return inertia, (arrays, iterations)

    report = run_restarts(run_one, estimator.n_init, rng, estimator.n_jobs)
    if report.interrupted and not report.outcomes:
        raise KeyboardInterrupt
    winner = report.best()
    arrays, iterations = winner.payload
    return arrays, winner.inertia, iterations, not report.interrupted


def _single_run(estimator, ctx, rng, restart, resume=None, fingerprint=None,
                best=None):
    """One restart; returns ``(inertia, run arrays, iterations, interrupted)``."""
    if resume is None:
        bounds = (
            HamerlyBounds(ctx.x_squared_norms, ctx.X.shape[1])
            if ctx.prunes else None
        )
        run = estimator._begin_run(ctx, bounds, rng=rng)
        start = 1
    else:
        run, start = resume

    def snapshot(iteration, path):
        bounds = run.bounds
        has_best = best is not None and best[2] is not None
        arrays = estimator._run_arrays(run)
        if bounds is not None:
            for name, value in bounds.state_arrays().items():
                arrays[BOUNDS + name] = value
        if has_best:
            for name, value in best[2].items():
                arrays[BEST + name] = value
        write_state(path, estimator, {
            "restart": restart,
            "iteration": iteration,
            "bounds_initialized": (
                None if bounds is None else bool(bounds.initialized)
            ),
            "has_best": has_best,
            "best_inertia": float(best[0]) if has_best else None,
            "best_iterations": int(best[1]) if has_best else 0,
        }, arrays, data=fingerprint, rng=rng)

    completed, interrupted = iterate(
        estimator, lambda _: estimator._lloyd_step(ctx, run, rng), snapshot,
        start=start, stop=estimator.max_iter, tol=estimator.tol,
        restart=restart,
        warning=(
            f"{type(estimator).__name__} did not converge in "
            f"{estimator.max_iter} iterations"
        ),
    )
    run.labels, distances = estimator._final_assign(ctx, run)
    return (
        weighted_inertia(distances, ctx.weights),
        estimator._run_arrays(run), completed, interrupted,
    )


def _resume_point(estimator, ctx, rng, fingerprint):
    """Unpack ``estimator.resume_from``; restores ``rng`` in place.

    Returns ``(restart, (run, next iteration), best)``.
    """
    path = estimator.resume_from
    header, arrays = read_state(path, estimator, data=fingerprint, rng=rng)
    bounds = None
    if ctx.prunes:
        # The dtype-margin scalars are deterministic functions of the
        # constructor inputs, so only the per-point arrays and the
        # initialized flag need the round trip.
        bounds = HamerlyBounds(ctx.x_squared_norms, ctx.X.shape[1])
        bounds.load_state(
            {name: require(arrays, BOUNDS + name, path)
             for name in ("upper", "lower")},
            header["bounds_initialized"],
        )
    run_arrays = {
        key: value for key, value in arrays.items()
        if not key.startswith((BEST, BOUNDS))
    }
    run = estimator._begin_run(ctx, bounds, arrays=run_arrays)
    best = (np.inf, 0, None)
    if header.get("has_best"):
        best = (
            float(header["best_inertia"]),
            int(header["best_iterations"]),
            {key: require(arrays, BEST + key, path) for key in run_arrays},
        )
    return int(header["restart"]), (run, int(header["iteration"]) + 1), best
