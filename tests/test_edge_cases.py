"""Edge-case and failure-injection tests across the core estimators."""

import numpy as np
import pytest

from repro import (
    KhatriRaoKMeans,
    KMeans,
    MiniBatchKhatriRaoKMeans,
    NaiveKhatriRao,
)
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.linalg import khatri_rao_combine


class TestDegenerateData:
    def test_kr_on_constant_data(self):
        X = np.ones((50, 3))
        model = KhatriRaoKMeans((2, 2), n_init=2, random_state=0).fit(X)
        assert model.inertia_ == pytest.approx(0.0, abs=1e-10)

    def test_kr_on_single_feature(self):
        rng = np.random.default_rng(0)
        X = np.sort(rng.normal(size=(60, 1)), axis=0)
        model = KhatriRaoKMeans((2, 2), n_init=5, random_state=0).fit(X)
        assert model.centroids().shape == (4, 1)
        assert np.isfinite(model.inertia_)

    def test_kr_with_negative_data_product_aggregator(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 3))  # mixed signs
        model = KhatriRaoKMeans((2, 2), aggregator="product", n_init=5,
                                random_state=0).fit(X)
        assert np.isfinite(model.inertia_)
        assert np.all(np.isfinite(model.centroids()))

    def test_kr_more_protocentroids_than_useful(self):
        # 4x4 = 16 representable centroids on 3-cluster data: most centroids
        # end up empty and are re-seeded; the fit must still terminate.
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(c, 0.05, (15, 2)) for c in (0.0, 5.0, 10.0)])
        model = KhatriRaoKMeans((4, 4), n_init=2, max_iter=50,
                                random_state=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_kmeans_on_duplicated_rows_k_too_large(self):
        X = np.repeat(np.arange(3.0)[:, None], 10, axis=0)
        model = KMeans(3, n_init=2, random_state=0).fit(X)
        assert model.inertia_ == pytest.approx(0.0, abs=1e-12)

    def test_cardinality_one_sets(self):
        # (1, k) degenerates to k centroids shifted by one shared vector.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        model = KhatriRaoKMeans((1, 4), n_init=5, random_state=0).fit(X)
        assert model.centroids().shape == (4, 2)
        km = KMeans(4, init="random", n_init=5, random_state=0).fit(X)
        # Same expressive power as plain 4-means.
        assert model.inertia_ == pytest.approx(km.inertia_, rel=0.05)

    def test_min_samples_guard(self):
        with pytest.raises(ValidationError):
            KhatriRaoKMeans((5, 2)).fit(np.ones((3, 2)))


    @pytest.mark.parametrize("estimator,method", [
        ("kmeans", "predict"), ("kmeans", "score"), ("kmeans", "transform"),
        ("kr_kmeans", "predict"),
        ("minibatch", "predict"), ("minibatch", "partial_fit"),
    ])
    def test_feature_count_mismatch_is_typed(self, estimator, method):
        # Used to die inside matmul with numpy's untyped core-dimension
        # ValueError for all but the two predict paths that checked.
        X = np.random.default_rng(4).normal(size=(60, 4))
        model = {
            "kmeans": lambda: KMeans(4, n_init=1, random_state=0),
            "kr_kmeans": lambda: KhatriRaoKMeans(
                (2, 2), n_init=1, random_state=0
            ),
            "minibatch": lambda: MiniBatchKhatriRaoKMeans(
                (2, 2), batch_size=20, max_steps=5, random_state=0
            ),
        }[estimator]().fit(X)
        with pytest.raises(ValidationError,
                           match="has 3 features, model was fitted with 4"):
            getattr(model, method)(X[:, :3])


class TestConvergenceWarning:
    @pytest.mark.parametrize("factory", [
        lambda: KMeans(4, n_init=1, max_iter=1, tol=0.0, random_state=0),
        lambda: KhatriRaoKMeans((2, 2), n_init=1, max_iter=1, tol=0.0,
                                random_state=0),
    ], ids=["kmeans", "kr_kmeans"])
    def test_points_at_the_callers_fit_line(self, factory):
        # Attributed to the library line, default filters collapsed the
        # warnings of every call site into one.
        X = np.random.default_rng(5).normal(size=(60, 3))
        with pytest.warns(ConvergenceWarning) as record:
            factory().fit(X)
        assert record[0].filename == __file__


class TestNumericalRobustness:
    def test_kr_with_huge_magnitudes(self):
        rng = np.random.default_rng(4)
        X = 1e8 * rng.normal(size=(60, 2))
        model = KhatriRaoKMeans((2, 2), n_init=3, random_state=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_kr_with_tiny_magnitudes(self):
        rng = np.random.default_rng(5)
        X = 1e-8 * rng.normal(size=(60, 2))
        model = KhatriRaoKMeans((2, 2), n_init=3, random_state=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_product_update_with_zero_protocentroids(self):
        # A zero protocentroid makes the product denominator vanish; the
        # guarded update must keep the previous value rather than emit NaN.
        model = KhatriRaoKMeans((2, 2), aggregator="product", random_state=0)
        rng = np.random.default_rng(6)
        X = rng.uniform(0.5, 1.5, size=(40, 2))
        thetas = [np.array([[0.0, 0.0], [1.0, 1.0]]),
                  rng.uniform(0.5, 1.5, size=(2, 2))]
        labels, _ = model._assign(X, thetas, True)
        set_labels = model.set_assignments(labels)
        updated = model._update_protocentroids(X, thetas, set_labels, rng)
        for theta in updated:
            assert np.all(np.isfinite(theta))

    @pytest.mark.parametrize("dtype,scale", [
        ("float64", 1e160), ("float32", 1e19),
    ])
    @pytest.mark.parametrize("estimator", [
        "kmeans", "kr_kmeans", "minibatch_fit", "minibatch_partial_fit",
    ])
    def test_overflowing_squared_norms_raise(self, estimator, dtype, scale):
        # Finite data whose ||x||^2 overflows the working dtype used to
        # "succeed" with inertia_ == inf (or die in k-means++ sampling).
        rng = np.random.default_rng(8)
        X = scale * rng.normal(size=(200, 4))
        if estimator == "kmeans":
            run = KMeans(9, dtype=dtype, n_init=1, random_state=0).fit
        elif estimator == "kr_kmeans":
            run = KhatriRaoKMeans(
                (3, 3), dtype=dtype, n_init=1, random_state=0
            ).fit
        else:
            model = MiniBatchKhatriRaoKMeans(
                (3, 3), dtype=dtype, random_state=0
            )
            run = model.fit if estimator == "minibatch_fit" else model.partial_fit
        with pytest.raises(ValidationError, match=f"overflow {dtype}"):
            run(X)

    def test_naive_with_tol_zero(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.5, 2.0, size=(60, 2))
        model = NaiveKhatriRao((2, 2), decomposition_max_iter=50,
                               decomposition_tol=0.0, n_init=2,
                               random_state=0).fit(X)
        assert np.isfinite(model.inertia_)


class TestConsistencyInvariants:
    @pytest.mark.parametrize("aggregator", ["sum", "product"])
    def test_refit_idempotence(self, aggregator, blobs_grid_9):
        X, _, _ = blobs_grid_9
        model = KhatriRaoKMeans((3, 3), aggregator=aggregator, n_init=3,
                                random_state=11)
        first = model.fit(X).inertia_
        second = model.fit(X).inertia_
        assert first == pytest.approx(second)

    def test_centroids_invariant_under_set_reordering(self):
        # Swapping the two protocentroid sets permutes centroids but yields
        # the same *set* of centroids for commutative aggregators.
        rng = np.random.default_rng(8)
        t1, t2 = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        a = khatri_rao_combine([t1, t2], "sum")
        b = khatri_rao_combine([t2, t1], "sum")
        a_sorted = a[np.lexsort(a.T)]
        b_sorted = b[np.lexsort(b.T)]
        np.testing.assert_allclose(a_sorted, b_sorted)

    def test_inertia_never_increases_with_more_protocentroids(self, blobs_grid_9):
        X, _, _ = blobs_grid_9
        small = KhatriRaoKMeans((2, 2), n_init=10, random_state=0).fit(X)
        large = KhatriRaoKMeans((3, 3), n_init=10, random_state=0).fit(X)
        assert large.inertia_ <= small.inertia_ * 1.05

    def test_labels_stable_under_predict_roundtrip(self, blobs_grid_9):
        X, _, _ = blobs_grid_9
        model = KhatriRaoKMeans((3, 3), n_init=5, random_state=0).fit(X)
        once = model.predict(X)
        twice = model.predict(X)
        np.testing.assert_array_equal(once, twice)
