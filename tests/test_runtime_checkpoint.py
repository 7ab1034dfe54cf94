"""Checkpoint/resume certification: bit-identical continuation.

The property this suite certifies is the strongest one the runtime
offers: a fit interrupted at an arbitrary iteration and resumed from its
checkpoint produces **bit-identical** labels, inertia and iteration
counts to the uninterrupted fit — across the (estimator × assignment ×
pruning × dtype) grid, because each cell snapshots a different set of
cross-iteration caches (Hamerly bounds, streaming bounds, factored
thetas).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import KhatriRaoKMeans, KMeans, MiniBatchKhatriRaoKMeans
from repro.datasets import make_blobs
from repro.exceptions import CheckpointError
from repro.runtime import (
    CheckpointConfig,
    data_fingerprint,
    read_checkpoint,
    resolve_checkpoint,
    restore_rng_state,
    serialize_rng_state,
    write_checkpoint,
)


@pytest.fixture
def X():
    data, _ = make_blobs(200, n_features=4, n_clusters=6, cluster_std=0.6,
                         random_state=3)
    return data


class InterruptAt:
    """Per-iteration callback that raises KeyboardInterrupt at a trigger."""

    def __init__(self, restart: int, iteration: int):
        self.trigger = (restart, iteration)

    def __call__(self, restart_index: int, iteration: int) -> None:
        if (restart_index, iteration) >= self.trigger:
            raise KeyboardInterrupt


# --------------------------------------------------------------- primitives
def test_rng_state_round_trip():
    a = np.random.default_rng(99)
    b = np.random.default_rng(0)
    a.normal(size=17)  # consume some stream
    restore_rng_state(b, serialize_rng_state(a))
    assert np.array_equal(a.normal(size=32), b.normal(size=32))
    assert a.integers(1 << 40) == b.integers(1 << 40)


def test_rng_state_json_round_trip():
    # The serialized state must survive the JSON header round-trip losslessly.
    a = np.random.default_rng(7)
    a.random(size=5)
    state = json.loads(json.dumps(serialize_rng_state(a)))
    b = np.random.default_rng(1)
    restore_rng_state(b, state)
    assert np.array_equal(a.random(size=8), b.random(size=8))


def test_rng_state_bit_generator_mismatch_is_typed():
    state = serialize_rng_state(np.random.default_rng(0))
    state["bit_generator"] = "MT19937"
    with pytest.raises(CheckpointError, match="MT19937"):
        restore_rng_state(np.random.default_rng(0), state)


def test_resolve_checkpoint_and_cadence(tmp_path):
    assert resolve_checkpoint(None) is None
    config = resolve_checkpoint(tmp_path / "ck.npz")
    assert isinstance(config, CheckpointConfig) and config.every == 1
    sparse = CheckpointConfig(tmp_path / "ck.npz", every=3)
    assert resolve_checkpoint(sparse) is sparse
    assert [i for i in range(1, 8) if sparse.due(i)] == [3, 6]


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "state.npz"
    arrays = {
        "centers": np.arange(12, dtype=np.float32).reshape(3, 4),
        "labels": np.array([0, 2, 1], dtype=np.int64),
    }
    write_checkpoint(path, {"iteration": 5, "estimator": "T"}, arrays)
    header, loaded = read_checkpoint(path)
    assert header["iteration"] == 5 and header["format_version"] == 1
    for key, value in arrays.items():
        assert np.array_equal(loaded[key], value)
        assert loaded[key].dtype == value.dtype


def test_read_checkpoint_detects_corruption(tmp_path):
    path = tmp_path / "state.npz"
    write_checkpoint(path, {"iteration": 1}, {"centers": np.ones((2, 2))})
    header, arrays = read_checkpoint(path)
    corrupted = dict(arrays)
    corrupted["centers"] = corrupted["centers"].copy()
    corrupted["centers"][0, 0] = 5.0
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        **corrupted,
    )
    with pytest.raises(CheckpointError) as excinfo:
        read_checkpoint(path)
    assert excinfo.value.field == "checksum"


def test_read_checkpoint_rejects_garbage_file(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"this is not an npz archive")
    with pytest.raises(CheckpointError):
        read_checkpoint(path)


def test_data_fingerprint_tracks_content():
    X = np.arange(20, dtype=np.float64).reshape(5, 4)
    fp = data_fingerprint(X)
    assert fp["shape"] == [5, 4] and fp["dtype"] == "float64"
    Y = X.copy()
    Y[0, 0] += 1
    assert data_fingerprint(Y)["sha256"] != fp["sha256"]
    assert data_fingerprint(X.copy()) == fp


# ----------------------------------------------------- resume bit-identity
def _fit_reference(factory, X):
    model = factory().fit(X)
    return model


def _fit_interrupted_then_resumed(factory, X, tmp_path, trigger):
    path = tmp_path / "fit.npz"
    torn = factory()
    torn.checkpoint = resolve_checkpoint(path)
    torn.callback = InterruptAt(*trigger)
    torn.fit(X)  # salvaged partial fit; checkpoint is on disk
    assert not torn.converged_
    assert path.exists()
    resumed = factory()
    resumed.checkpoint = resolve_checkpoint(path)
    resumed.resume_from = path
    return resumed.fit(X)


@pytest.mark.parametrize("pruning", ["none", "bounds"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_kmeans_resume_bit_identity(X, tmp_path, pruning, dtype):
    def factory():
        return KMeans(6, n_init=3, max_iter=40, random_state=11,
                      pruning=pruning, dtype=dtype)

    reference = _fit_reference(factory, X)
    resumed = _fit_interrupted_then_resumed(
        factory, X, tmp_path, trigger=(1, 2)
    )
    assert np.array_equal(resumed.labels_, reference.labels_)
    assert resumed.inertia_ == reference.inertia_
    assert resumed.n_iter_ == reference.n_iter_
    assert np.array_equal(resumed.cluster_centers_, reference.cluster_centers_)
    assert resumed.converged_


@pytest.mark.parametrize(
    "assignment,pruning,dtype,aggregator",
    [
        ("factored", "none", "float64", "sum"),
        ("factored", "bounds", "float64", "sum"),
        ("factored", "bounds", "float32", "sum"),
        ("materialized", "none", "float64", "sum"),
        ("materialized", "bounds", "float64", "product"),
    ],
)
def test_kr_kmeans_resume_bit_identity(
    X, tmp_path, assignment, pruning, dtype, aggregator
):
    def factory():
        return KhatriRaoKMeans(
            (2, 3), aggregator=aggregator, n_init=3, max_iter=40,
            random_state=5, assignment=assignment, pruning=pruning,
            dtype=dtype,
        )

    reference = _fit_reference(factory, X)
    resumed = _fit_interrupted_then_resumed(
        factory, X, tmp_path, trigger=(1, 2)
    )
    assert np.array_equal(resumed.labels_, reference.labels_)
    assert resumed.inertia_ == reference.inertia_
    assert resumed.n_iter_ == reference.n_iter_
    for theta_resumed, theta_reference in zip(
        resumed.protocentroids_, reference.protocentroids_
    ):
        assert np.array_equal(theta_resumed, theta_reference)
    assert resumed.converged_


@pytest.mark.parametrize("pruning,dtype", [
    ("auto", "float64"),
    ("none", "float64"),
    ("auto", "float32"),
])
def test_minibatch_resume_bit_identity(X, tmp_path, pruning, dtype):
    def factory():
        return MiniBatchKhatriRaoKMeans(
            (2, 3), batch_size=40, max_steps=30, random_state=9,
            pruning=pruning, dtype=dtype,
        )

    reference = _fit_reference(factory, X)
    resumed = _fit_interrupted_then_resumed(
        factory, X, tmp_path, trigger=(0, 7)
    )
    assert np.array_equal(resumed.labels_, reference.labels_)
    assert resumed.inertia_ == reference.inertia_
    assert resumed.n_steps_ == reference.n_steps_
    for theta_resumed, theta_reference in zip(
        resumed.protocentroids_, reference.protocentroids_
    ):
        assert np.array_equal(theta_resumed, theta_reference)


def test_resume_restart_boundary_bit_identity(X, tmp_path):
    """Interrupting right at a restart boundary still resumes exactly."""

    def factory():
        return KhatriRaoKMeans((2, 3), n_init=3, max_iter=40, random_state=2)

    reference = _fit_reference(factory, X)
    resumed = _fit_interrupted_then_resumed(
        factory, X, tmp_path, trigger=(2, 1)
    )
    assert resumed.inertia_ == reference.inertia_
    assert np.array_equal(resumed.labels_, reference.labels_)


# --------------------------------------------------------- guarded resumes
def test_resume_rejects_parameter_mismatch(X, tmp_path):
    path = tmp_path / "fit.npz"
    KMeans(6, n_init=2, max_iter=40, random_state=11, checkpoint=path,
           callback=InterruptAt(0, 2)).fit(X)
    other = KMeans(5, n_init=2, max_iter=40, random_state=11,
                   resume_from=path)
    with pytest.raises(CheckpointError):
        other.fit(X)


def test_resume_rejects_different_data(X, tmp_path):
    path = tmp_path / "fit.npz"
    KMeans(6, n_init=2, max_iter=40, random_state=11, checkpoint=path,
           callback=InterruptAt(0, 2)).fit(X)
    shifted = X + 0.5
    with pytest.raises(CheckpointError):
        KMeans(6, n_init=2, max_iter=40, random_state=11,
               resume_from=path).fit(shifted)


def test_resume_rejects_wrong_estimator(X, tmp_path):
    path = tmp_path / "fit.npz"
    KMeans(6, n_init=2, max_iter=40, random_state=11, checkpoint=path,
           callback=InterruptAt(0, 2)).fit(X)
    with pytest.raises(CheckpointError):
        KhatriRaoKMeans((2, 3), n_init=2, max_iter=40, random_state=11,
                        resume_from=path).fit(X)


def test_checkpoint_cadence_still_resumes_exactly(X, tmp_path):
    """A sparse (every=5) checkpoint replays more iterations but lands on
    the same model."""
    path = tmp_path / "fit.npz"

    def factory():
        return KhatriRaoKMeans((2, 3), n_init=2, max_iter=40, random_state=4)

    reference = _fit_reference(factory, X)
    torn = factory()
    torn.checkpoint = CheckpointConfig(path, every=5)
    torn.callback = InterruptAt(1, 3)
    torn.fit(X)
    resumed = factory()
    resumed.resume_from = path
    resumed.fit(X)
    assert resumed.inertia_ == reference.inertia_
    assert np.array_equal(resumed.labels_, reference.labels_)


# -------------------------------------------- driver paths: more resumes
_W = np.random.default_rng(0).uniform(0.5, 2.0, size=200)


@pytest.mark.parametrize("factory,weighted", [
    pytest.param(
        lambda: KhatriRaoKMeans(
            (2, 3), mode="memory", chunk_size=2, assignment="factored",
            pruning="bounds", n_init=3, max_iter=40, random_state=5,
        ),
        False, id="kr-memory-factored-sum",
    ),
    pytest.param(
        lambda: KhatriRaoKMeans(
            (2, 3), aggregator="product", mode="memory", chunk_size=2,
            assignment="materialized", pruning="bounds", n_init=3,
            max_iter=40, random_state=5,
        ),
        False, id="kr-memory-materialized-product",
    ),
    pytest.param(
        lambda: KMeans(6, n_init=3, max_iter=40, random_state=11),
        True, id="kmeans-weighted",
    ),
    pytest.param(
        lambda: KhatriRaoKMeans((2, 3), n_init=3, max_iter=40,
                                random_state=5),
        True, id="kr-weighted",
    ),
])
@pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
def test_resume_bit_identity_more_paths(X, tmp_path, factory, weighted):
    """Memory-mode shift caches and sample weights survive a resume."""
    weights = _W if weighted else None
    reference = factory().fit(X, sample_weight=weights)
    path = tmp_path / "fit.npz"
    torn = factory()
    torn.checkpoint = resolve_checkpoint(path)
    torn.callback = InterruptAt(1, 2)
    torn.fit(X, sample_weight=weights)
    assert not torn.converged_ and path.exists()
    resumed = factory()
    resumed.resume_from = path
    resumed.fit(X, sample_weight=weights)
    assert resumed.converged_
    assert np.array_equal(resumed.labels_, reference.labels_)
    assert resumed.inertia_ == reference.inertia_
    assert resumed.n_iter_ == reference.n_iter_
    state = getattr(reference, "protocentroids_", None) or [
        reference.cluster_centers_
    ]
    resumed_state = getattr(resumed, "protocentroids_", None) or [
        resumed.cluster_centers_
    ]
    for a, b in zip(state, resumed_state):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------- on-disk schema pin
_FIT_HEADER = {
    "estimator", "params", "data", "rng_state", "restart", "iteration",
    "bounds_initialized", "has_best", "best_inertia", "best_iterations",
    "format_version", "checksums",
}
_MB_FIT_HEADER = {
    "estimator", "params", "data", "rng_state", "step", "smoothed_shift",
    "has_bounds", "cum_max", "format_version", "checksums",
}
_STREAM_HEADER = {
    "estimator", "kind", "params", "step", "has_fractions", "has_bounds",
    "cum_max", "stats", "format_version", "checksums",
}
_SB = {f"sb_{name}": "float64"
       for name in ("upper", "lower", "u_anchor", "m_anchor",
                    "cum_0", "cum_1")}
_SB.update(sb_known="bool", sb_labels="int64")
_MODEL = {"theta_0": "float64", "theta_1": "float64",
          "counts_0": "float64", "counts_1": "float64"}


def _pinned_fit(factory, trigger):
    def write(X, path):
        model = factory()
        model.checkpoint = resolve_checkpoint(path)
        model.callback = InterruptAt(*trigger)
        model.fit(X)
    return write


def _pinned_stream(X, path):
    model = MiniBatchKhatriRaoKMeans((2, 3), random_state=0)
    rng = np.random.default_rng(1)
    for _ in range(3):
        index = rng.choice(X.shape[0], size=50, replace=False)
        model.partial_fit(X[index], index=index)
    model.save_stream(path)


@pytest.mark.parametrize("write,header_fields,array_dtypes", [
    pytest.param(
        _pinned_fit(lambda: KMeans(6, n_init=3, max_iter=40,
                                   random_state=11, pruning="bounds"),
                    (1, 2)),
        _FIT_HEADER,
        {"centers": "float64", "labels": "int64",
         "bounds_upper": "float64", "bounds_lower": "float64",
         "best_centers": "float64", "best_labels": "int64"},
        id="kmeans",
    ),
    pytest.param(
        _pinned_fit(lambda: KhatriRaoKMeans((2, 3), n_init=3, max_iter=40,
                                            random_state=5,
                                            pruning="bounds"),
                    (1, 2)),
        _FIT_HEADER,
        {"labels": "int64", "theta_0": "float64", "theta_1": "float64",
         "fractions": "float64", "bounds_upper": "float64",
         "bounds_lower": "float64", "best_labels": "int64",
         "best_theta_0": "float64", "best_theta_1": "float64",
         "best_fractions": "float64"},
        id="kr_kmeans",
    ),
    pytest.param(
        _pinned_fit(lambda: MiniBatchKhatriRaoKMeans(
            (2, 3), batch_size=40, max_steps=30, random_state=9,
        ), (0, 7)),
        _MB_FIT_HEADER,
        {**_MODEL, **_SB, "fractions": "float64"},
        id="minibatch",
    ),
    pytest.param(
        _pinned_stream,
        _STREAM_HEADER,
        {**_MODEL, **_SB, "fractions": "float64", "sb_norms": "float64",
         "sb_margin_base": "float64", "stats_labels": "int64",
         "stats_drift_0": "float64", "stats_drift_1": "float64"},
        id="stream",
    ),
])
def test_checkpoint_schema_is_pinned(X, tmp_path, write, header_fields,
                                     array_dtypes):
    """Header fields, array keys and dtypes of every checkpoint kind: a
    change here breaks resuming checkpoints written by earlier releases."""
    path = tmp_path / "state.npz"
    write(X, path)
    header, arrays = read_checkpoint(path)
    assert set(header) == header_fields
    assert {key: a.dtype.name for key, a in arrays.items()} == array_dtypes
