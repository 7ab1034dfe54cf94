"""Tests for the deterministic row-block execution layer.

The contract under test: block boundaries are a pure function of
``(n_rows, block_rows)`` — never of the thread count — and reductions
merge in ascending block order, so ``n_threads=1`` and ``n_threads=8``
produce bit-identical labels, inertia and iteration counts.  One thread
(the default) runs the same blocks inline on the caller's thread and
never starts a worker.  The same blocked seam streams a memory-mapped
``X`` through ``fit`` one block at a time, bit-identical to the in-RAM
fit.
"""

import threading

import numpy as np
import pytest

from repro import KhatriRaoKMeans, KMeans
from repro.core import MiniBatchKhatriRaoKMeans
from repro.exceptions import ValidationError
from repro.runtime import parallel as parallel_module
from repro.runtime.parallel import (
    DEFAULT_BLOCK_ROWS,
    ParallelConfig,
    RowBlockPool,
    fold_blocks,
    resolve_parallel,
    row_blocks,
)

# Small enough that the 500-row fixtures split into many blocks — the
# determinism grid must exercise real multi-block merges, not the
# single-block degenerate case.
SMALL_BLOCK = 64


def _cfg(n_threads):
    return ParallelConfig(n_threads, block_rows=SMALL_BLOCK)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    base = np.array(
        [[0.0, 0.0, 0.0], [0.0, 6.0, 0.0], [6.0, 0.0, 6.0], [6.0, 6.0, 6.0]]
    )
    return np.vstack([b + 0.3 * rng.normal(size=(125, 3)) for b in base])


def _no_executor(*args, **kwargs):
    raise AssertionError("an inline run must not create an executor")


class TestRowBlocks:
    def test_partition_covers_rows_in_order(self):
        blocks = row_blocks(10, 4)
        assert blocks == ((0, 4), (4, 8), (8, 10))

    def test_single_block_when_small(self):
        assert row_blocks(3, 100) == ((0, 3),)

    def test_empty_input(self):
        assert row_blocks(0, 4) == ()

    def test_independent_of_thread_count(self):
        # The whole contract: the partition is a function of (n, block_rows)
        # only.  Pools of every width must report the same blocks.
        for width in (1, 2, 8):
            with RowBlockPool(_cfg(width)) as pool:
                assert pool.blocks(500) == row_blocks(500, SMALL_BLOCK)

    def test_invalid_block_rows(self):
        with pytest.raises(ValidationError):
            row_blocks(10, 0)


class TestResolveParallel:
    def test_int_and_config_pass_through(self):
        assert resolve_parallel(4).n_threads == 4
        config = _cfg(2)
        assert resolve_parallel(config) is config

    def test_invalid_values_raise(self):
        with pytest.raises(ValidationError):
            resolve_parallel(None)  # there is no unblocked path to select
        with pytest.raises(ValidationError):
            resolve_parallel(0)
        with pytest.raises(ValidationError):
            resolve_parallel(True)  # bools are not thread counts
        with pytest.raises(ValidationError):
            resolve_parallel("4")


class TestRowBlockPool:
    def test_results_in_block_order(self):
        # Delay early blocks so completion order inverts block order; the
        # results must come back in block order regardless.
        import time

        def block(start, stop):
            time.sleep(0.02 if start == 0 else 0.0)
            return (start, stop)

        with RowBlockPool(_cfg(4)) as pool:
            assert pool.map(block, 10 * SMALL_BLOCK) == list(
                row_blocks(10 * SMALL_BLOCK, SMALL_BLOCK)
            )

    def test_lowest_failing_block_wins(self):
        # Blocks 3 and 7 both fail; block 7 fails instantly, block 3 only
        # after a delay.  The error surfaced must still be block 3's.
        import time

        def block(start, stop):
            index = start // SMALL_BLOCK
            if index == 3:
                time.sleep(0.02)
                raise RuntimeError("block 3")
            if index == 7:
                raise RuntimeError("block 7")
            return index

        with RowBlockPool(_cfg(8)) as pool:
            with pytest.raises(RuntimeError, match="block 3"):
                pool.map(block, 10 * SMALL_BLOCK)
            # The pool survives a failed map and runs the next one.
            assert pool.map(lambda s, e: e - s, 2 * SMALL_BLOCK) == [
                SMALL_BLOCK, SMALL_BLOCK
            ]

    def test_runs_on_pool_threads(self):
        names = set()

        def block(start, stop):
            names.add(threading.current_thread().name)
            return None

        with RowBlockPool(_cfg(2)) as pool:
            pool.map(block, 4 * SMALL_BLOCK)
        assert names and all(n.startswith("repro-rowblock") for n in names)

    def test_fold_blocks_is_block_ordered(self):
        parts = [np.array([1.0]), np.array([2.0]), np.array([4.0])]
        assert fold_blocks(parts)[0] == 7.0

    @pytest.mark.parametrize("config", [_cfg(1), ParallelConfig(2)])
    def test_runs_inline_without_executor(self, config, monkeypatch):
        # One thread, or one block at any width: the blocks run in a plain
        # loop on the caller's thread and no executor is created.
        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor", _no_executor)
        caller = threading.current_thread().name
        names = []

        def block(start, stop):
            names.append(threading.current_thread().name)
            return stop - start

        with RowBlockPool(config) as pool:
            n_rows = 4 * SMALL_BLOCK if config.n_threads == 1 else 100
            assert sum(pool.map(block, n_rows)) == n_rows
            assert repr(pool).endswith("idle)")
        assert names and set(names) == {caller}

    def test_zero_rows_is_one_empty_block(self):
        with RowBlockPool(_cfg(2)) as pool:
            assert pool.map(lambda s, e: (s, e), 0) == [(0, 0)]


def _fit_state(model):
    return model.labels_, model.inertia_, model.n_iter_


class TestThreadCountDeterminism:
    """The acceptance grid: labels, inertia and iteration counts are
    bit-identical across ``n_threads ∈ {1, 2, 8}`` for every assignment
    strategy, pruning mode and working dtype."""

    @pytest.mark.parametrize("assignment", ["auto", "materialized"])
    @pytest.mark.parametrize("pruning", ["bounds", "none"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_kr_kmeans_grid(self, data, assignment, pruning, dtype):
        fits = [
            KhatriRaoKMeans(
                (2, 2), n_init=2, random_state=0, assignment=assignment,
                pruning=pruning, dtype=dtype, n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        labels, inertia, n_iter = _fit_state(fits[0])
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, labels)
            assert other.inertia_ == inertia
            assert other.n_iter_ == n_iter

    def test_kr_kmeans_memory_mode(self, data):
        fits = [
            KhatriRaoKMeans(
                (2, 2), n_init=2, random_state=0, mode="memory",
                chunk_size=3, n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        assert _fit_state(fits[0])[1:] == _fit_state(fits[1])[1:] == _fit_state(fits[2])[1:]
        np.testing.assert_array_equal(fits[0].labels_, fits[2].labels_)

    def test_kr_kmeans_product_aggregator(self, data):
        X = np.abs(data) + 0.5
        fits = [
            KhatriRaoKMeans(
                (2, 2), aggregator="product", n_init=2, random_state=0,
                n_threads=_cfg(t),
            ).fit(X)
            for t in (1, 8)
        ]
        np.testing.assert_array_equal(fits[0].labels_, fits[1].labels_)
        assert fits[0].inertia_ == fits[1].inertia_

    @pytest.mark.parametrize("pruning", ["bounds", "none"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_kmeans_grid(self, data, pruning, dtype):
        fits = [
            KMeans(
                4, n_init=2, random_state=0, pruning=pruning, dtype=dtype,
                n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        labels, inertia, n_iter = _fit_state(fits[0])
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, labels)
            assert other.inertia_ == inertia
            assert other.n_iter_ == n_iter

    @pytest.mark.parametrize("pruning", ["bounds", "none"])
    def test_minibatch_grid(self, data, pruning):
        fits = [
            MiniBatchKhatriRaoKMeans(
                (2, 2), batch_size=96, max_steps=25, random_state=0,
                pruning=pruning, n_threads=_cfg(t),
            ).fit(data)
            for t in (1, 2, 8)
        ]
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, fits[0].labels_)
            assert other.inertia_ == fits[0].inertia_
            assert other.n_steps_ == fits[0].n_steps_

    def test_weighted_fit_grid(self, data):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 2.0, size=data.shape[0])
        for cls, kwargs in (
            (KMeans, {"n_clusters": 4}),
            (KhatriRaoKMeans, {"cardinalities": (2, 2)}),
        ):
            first = kwargs.pop("n_clusters", None) or kwargs.pop("cardinalities")
            fits = [
                cls(first, n_init=2, random_state=0, n_threads=_cfg(t)).fit(
                    data, sample_weight=w
                )
                for t in (1, 8)
            ]
            np.testing.assert_array_equal(fits[0].labels_, fits[1].labels_)
            assert fits[0].inertia_ == fits[1].inertia_

    def test_n_jobs_composes_with_n_threads(self, data):
        # n_jobs runs restarts on spawned per-restart streams (its own
        # worker-count invariance), so the baseline is n_jobs=1 — the grid
        # here varies both pool widths at once.
        a = KhatriRaoKMeans(
            (2, 2), n_init=4, random_state=0, n_jobs=2, n_threads=_cfg(2)
        ).fit(data)
        b = KhatriRaoKMeans(
            (2, 2), n_init=4, random_state=0, n_jobs=1, n_threads=_cfg(8)
        ).fit(data)
        np.testing.assert_array_equal(a.labels_, b.labels_)
        assert a.inertia_ == b.inertia_

    def test_predict_matches_fit_labels(self, data):
        model = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, n_threads=_cfg(8)
        ).fit(data)
        np.testing.assert_array_equal(model.predict(data), model.labels_)


@pytest.fixture(scope="module")
def big_data():
    # More rows than DEFAULT_BLOCK_ROWS: the default estimators run real
    # multi-block merges, not the single-block case.
    rng = np.random.default_rng(3)
    n = 2 * DEFAULT_BLOCK_ROWS + 300
    base = rng.normal(scale=5.0, size=(9, 4))
    return base[rng.integers(9, size=n)] + 0.5 * rng.normal(size=(n, 4))


_DEFAULT_ESTIMATORS = {
    "kmeans": lambda **kw: KMeans(
        9, n_init=2, max_iter=30, random_state=0, **kw
    ),
    "kr_sum": lambda **kw: KhatriRaoKMeans(
        (3, 3), n_init=2, max_iter=30, random_state=0, **kw
    ),
    "kr_product": lambda **kw: KhatriRaoKMeans(
        (3, 3), aggregator="product", n_init=2, max_iter=30,
        random_state=0, **kw
    ),
    "minibatch": lambda **kw: MiniBatchKhatriRaoKMeans(
        (3, 3), batch_size=DEFAULT_BLOCK_ROWS + 500, max_steps=20,
        random_state=0, **kw
    ),
}


class TestDefaultBlockedPath:
    """The default estimator, ``n_threads=1`` and ``n_threads=2`` run the
    same row-blocked kernels on the default 4096-row blocks."""

    @pytest.mark.parametrize("name", sorted(_DEFAULT_ESTIMATORS))
    def test_default_matches_every_width(self, big_data, name):
        make = _DEFAULT_ESTIMATORS[name]
        X = np.abs(big_data) + 0.5 if name == "kr_product" else big_data
        fits = [make().fit(X), make(n_threads=1).fit(X),
                make(n_threads=2).fit(X)]
        assert fits[0].n_threads.n_threads == 1
        first = fits[0]
        for other in fits[1:]:
            np.testing.assert_array_equal(other.labels_, first.labels_)
            assert other.inertia_ == first.inertia_
            if name == "minibatch":
                assert other.n_steps_ == first.n_steps_
            else:
                assert other.n_iter_ == first.n_iter_
            if name == "kmeans":
                np.testing.assert_array_equal(
                    other.cluster_centers_, first.cluster_centers_
                )
            else:
                for got, want in zip(
                    other.protocentroids_, first.protocentroids_
                ):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.filterwarnings("ignore::repro.exceptions.ConvergenceWarning")
    def test_one_thread_starts_no_thread(self, big_data, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "ThreadPoolExecutor", _no_executor
        )
        # Threads left over from other tests may exit meanwhile; none may
        # start.
        before = set(threading.enumerate())
        KMeans(
            9, n_init=1, max_iter=5, random_state=0, n_threads=1
        ).fit(big_data)
        KhatriRaoKMeans(
            (3, 3), n_init=1, max_iter=5, random_state=0, n_threads=1
        ).fit(big_data)
        stream = MiniBatchKhatriRaoKMeans(
            (3, 3), random_state=0, n_threads=1
        )
        rows = 2 * DEFAULT_BLOCK_ROWS
        stream.partial_fit(big_data[:rows], index=np.arange(rows))
        stream.partial_fit(big_data[rows:])
        assert stream.n_steps_ == 2
        assert set(threading.enumerate()) <= before


class TestMemmapStreaming:
    """A memory-mapped ``X`` streams through ``fit`` block by block and
    produces the bit-identical model of the in-RAM fit."""

    def _memmap(self, tmp_path, data, dtype=np.float64):
        path = tmp_path / "X.dat"
        arr = np.asarray(data, dtype=dtype)
        mm = np.memmap(path, dtype=dtype, mode="w+", shape=arr.shape)
        mm[:] = arr
        mm.flush()
        return np.memmap(path, dtype=dtype, mode="r", shape=arr.shape)

    def test_kr_fit_bit_identical_to_ram(self, tmp_path, data):
        mm = self._memmap(tmp_path, data)
        ram = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, n_threads=_cfg(2)
        ).fit(data)
        mapped = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, n_threads=_cfg(2)
        ).fit(mm)
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_
        assert mapped.n_iter_ == ram.n_iter_
        for got, want in zip(mapped.protocentroids_, ram.protocentroids_):
            np.testing.assert_array_equal(got, want)

    def test_kmeans_weighted_memmap(self, tmp_path, data):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, size=data.shape[0])
        mm = self._memmap(tmp_path, data)
        ram = KMeans(4, n_init=2, random_state=0, n_threads=_cfg(2)).fit(
            data, sample_weight=w
        )
        mapped = KMeans(4, n_init=2, random_state=0, n_threads=_cfg(2)).fit(
            mm, sample_weight=w
        )
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_

    def test_minibatch_memmap(self, tmp_path, data):
        mm = self._memmap(tmp_path, data)
        ram = MiniBatchKhatriRaoKMeans(
            (2, 2), batch_size=96, max_steps=20, random_state=0,
            n_threads=_cfg(2),
        ).fit(data)
        mapped = MiniBatchKhatriRaoKMeans(
            (2, 2), batch_size=96, max_steps=20, random_state=0,
            n_threads=_cfg(2),
        ).fit(mm)
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_

    def test_float32_memmap(self, tmp_path, data):
        mm = self._memmap(tmp_path, data, dtype=np.float32)
        ram = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, dtype="float32",
            n_threads=_cfg(2),
        ).fit(np.asarray(data, dtype=np.float32))
        mapped = KhatriRaoKMeans(
            (2, 2), n_init=2, random_state=0, dtype="float32",
            n_threads=_cfg(2),
        ).fit(mm)
        np.testing.assert_array_equal(mapped.labels_, ram.labels_)
        assert mapped.inertia_ == ram.inertia_

    def test_memmap_nan_rejected(self, tmp_path, data):
        corrupted = np.array(data, copy=True)
        corrupted[37, 1] = np.nan
        mm = self._memmap(tmp_path, corrupted)
        with pytest.raises(ValidationError, match="NaN or infinite"):
            KhatriRaoKMeans((2, 2), n_threads=_cfg(2)).fit(mm)

    def test_memmap_dtype_mismatch_rejected(self, tmp_path, data):
        # Casting would materialize the map in RAM, defeating the point —
        # a typed error tells the caller to store the working dtype.
        mm = self._memmap(tmp_path, data, dtype=np.float32)
        with pytest.raises(ValidationError, match="memory-mapped"):
            KhatriRaoKMeans((2, 2), dtype="float64", n_threads=_cfg(2)).fit(mm)
