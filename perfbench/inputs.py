"""Seeded input generators.  numpy only: the program under test never
makes its own inputs, so a change to it cannot change what it is fed."""

import numpy as np

# Raw features are not centered: every generated array carries this
# constant offset, which is where expansion-form cancellation shows.
OFFSET = 100.0


def planted_protocentroids(rng, n_features, cardinalities, scale):
    """One ``(h_q, m)`` set per cardinality, coordinates ``N(0, scale²)``."""
    return [scale * rng.standard_normal((h, n_features))
            for h in cardinalities]


def khatri_rao_blobs(rng, n_rows, thetas, cluster_std=1.0):
    """Blobs around sum-aggregated centroids ``θ_1[j_1] + ... + θ_p[j_p]``.

    Each row draws its tuple ``(j_1, ..., j_p)`` uniformly, so every one of
    the ``∏ h_q`` planted clusters is populated.
    """
    centers = np.zeros((n_rows, thetas[0].shape[1]))
    for theta in thetas:
        centers += theta[rng.integers(0, theta.shape[0], size=n_rows)]
    return OFFSET + centers + cluster_std * rng.standard_normal(centers.shape)


def gaussian(rng, n_rows, n_features):
    """One isotropic Gaussian: no cluster structure, so labels keep flipping."""
    return OFFSET + rng.standard_normal((n_rows, n_features))
