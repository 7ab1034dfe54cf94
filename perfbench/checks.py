"""Correctness checks, computed by the benchmark in float64.

The tolerances are the expansion-form envelope of ``docs/numerics.md``
§3: a score computed in a dtype with machine epsilon ``eps`` is within
``8·(m+8)·eps·(‖x‖² + d)`` of the true squared distance ``d``.
"""

import numpy as np

EPS64 = float(np.finfo(np.float64).eps)
_ROWS = 4096


def envelope(X, d):
    """Per-row float64 envelope ``8·(m+8)·eps64·(‖x‖² + d)``."""
    m = X.shape[1]
    return 8.0 * (m + 8) * EPS64 * (np.einsum("ij,ij->i", X, X) + d)


def direct_sq(X, C, labels):
    """Direct-form ``‖x − c_label‖²`` per row, in float64."""
    diff = X - C[labels]
    return np.einsum("ij,ij->i", diff, diff)


def nearest(X, C):
    """float64 argmin over all centroids.

    Scores on data centered at its mean, which leaves the argmin
    unchanged and shrinks the expansion-form error to ``eps64`` times
    the centered norms, far inside the envelope the program is held to.
    """
    mu = X.mean(axis=0)
    Cc = C - mu
    c_sq = np.einsum("ij,ij->i", Cc, Cc)
    out = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], _ROWS):
        Xc = X[start:start + _ROWS] - mu
        out[start:start + _ROWS] = np.argmin(c_sq - 2.0 * (Xc @ Cc.T), axis=1)
    return out


def check_labels(X, C, labels):
    """Return ``(n_bad, agreement, direct distances to the labels)``.

    A label is bad when its direct distance exceeds the direct distance
    to the float64 argmin by more than three envelopes: the program's
    scores of the label and of the argmin may each be off by one, and
    the benchmark's own argmin by one more.  ``agreement`` is the share
    of labels equal to that argmin.
    """
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    best = nearest(X, C)
    d_label = direct_sq(X, C, labels)
    d_best = direct_sq(X, C, best)
    bad = d_label - d_best > 3.0 * envelope(X, d_best)
    return int(bad.sum()), float(np.mean(labels == best)), d_label


def check_fit(X, centroids, labels, inertia, iterations, expected_iterations):
    """Failures (a list of strings) and label agreement of one fit."""
    failures = []
    n_bad, agreement, d_label = check_labels(X, centroids, labels)
    if n_bad:
        failures.append(f"{n_bad} labels are not an argmin within the envelope")
    direct = float(d_label.sum())
    tolerance = float(envelope(X, d_label).sum())
    if not abs(inertia - direct) <= tolerance:
        failures.append(
            f"inertia_ {inertia!r} differs from the direct {direct!r} by "
            f"more than {tolerance:.3g}")
    if iterations != expected_iterations:
        failures.append(
            f"{iterations} Lloyd iterations, expected {expected_iterations}")
    return failures, agreement
