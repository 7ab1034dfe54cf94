"""Deterministic row-block execution layer.

Every hot loop of the estimators — assignment sweeps, the factored
scorer, bounds re-scoring, grouped reductions, contingency-table counts
— runs one per-block kernel body over fixed *row blocks* and merges the
per-block results.  With ``n_threads=1`` (the default) the blocks run
inline, in a plain loop on the caller's thread; with more threads a
supervised pool runs them concurrently (the GIL is released inside BLAS
and ``bincount``).  The same seam streams a memory-mapped ``X`` through
``fit`` one block at a time, and bounds the peak size of every
per-block temporary.

The determinism contract
------------------------
Floating-point sums are not associative, so a reduction split into
partial per-block sums is only reproducible if the *partition* is
reproducible.  The contract, enforced structurally:

* **Block boundaries are a pure function of** ``(n_rows, block_rows)``
  — :func:`row_blocks` never looks at the live thread count.  Raising
  ``n_threads`` adds workers; it never moves a boundary.
* **Merges happen in ascending block order.**  Per-row outputs (labels,
  distances) are concatenated — each row lives in exactly one block, so
  order is trivially preserved.  Sum-style outputs (grouped row sums,
  weighted masses, contingency tables) are folded block 0, block 1, …
  regardless of which worker finished first.

Together these make ``n_threads=1`` and ``n_threads=8`` **bit-identical
by construction** — same partition, same per-block arithmetic, same
merge order.  Inputs of at most ``block_rows`` rows are a single block,
so their reductions are the plain single-sweep arithmetic.

Supervision reuses the :mod:`~repro.runtime.executor` idioms: a named
``ThreadPoolExecutor``, deterministic error propagation (the lowest
failing *block index* wins, never the first to cross the finish line),
``cancel_futures`` shutdown, context-manager lifecycle.  There are no
retries — the kernels are deterministic, so a failing block fails again.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "INLINE_POOL",
    "ParallelConfig",
    "RowBlockPool",
    "fold_blocks",
    "resolve_parallel",
    "row_blocks",
]

#: Rows per block.  Fixed (not derived from ``n_threads``) so the
#: partition — and therefore every blocked reduction — is identical at
#: every pool width.  4096 rows x 64 float64 features is ~2 MB per
#: block: small enough to stream a memmap, large enough that BLAS
#: dominates dispatch overhead.
DEFAULT_BLOCK_ROWS = 4096


def row_blocks(n_rows: int, block_rows: int = DEFAULT_BLOCK_ROWS) -> Tuple[Tuple[int, int], ...]:
    """Fixed ``(start, stop)`` boundaries covering ``range(n_rows)``.

    A pure function of its arguments — never of the thread count — so
    the same data yields the same partition under any pool width.  The
    determinism contract of the whole layer rests on this.
    """
    n_rows = int(n_rows)
    block_rows = int(block_rows)
    if block_rows < 1:
        raise ValidationError(f"block_rows must be >= 1, got {block_rows}")
    if n_rows <= 0:
        return ()
    return tuple(
        (start, min(start + block_rows, n_rows))
        for start in range(0, n_rows, block_rows)
    )


class ParallelConfig:
    """Row-parallel policy for an estimator's ``n_threads`` knob.

    Parameters
    ----------
    n_threads : int
        Worker threads.  ``1`` runs the blocks inline on the caller's
        thread; every width runs the same blocked kernels, so results
        are bit-identical at every width.
    block_rows : int
        Rows per block.  Part of the result for multi-block reductions
        (it fixes the accumulation split), so it is a config value, not
        a tuning detail the pool may adjust.  Default
        :data:`DEFAULT_BLOCK_ROWS`.
    """

    def __init__(self, n_threads: int = 1, *, block_rows: int = DEFAULT_BLOCK_ROWS):
        n_threads = int(n_threads)
        if n_threads < 1:
            raise ValidationError(f"n_threads must be >= 1, got {n_threads}")
        block_rows = int(block_rows)
        if block_rows < 1:
            raise ValidationError(f"block_rows must be >= 1, got {block_rows}")
        self.n_threads = n_threads
        self.block_rows = block_rows

    def __repr__(self) -> str:
        return (
            f"ParallelConfig(n_threads={self.n_threads}, "
            f"block_rows={self.block_rows})"
        )


def resolve_parallel(value) -> ParallelConfig:
    """Normalize an estimator's ``n_threads`` knob.

    An int becomes ``ParallelConfig(n_threads)``; a config passes
    through.
    """
    if isinstance(value, ParallelConfig):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return ParallelConfig(int(value))
    raise ValidationError(
        f"n_threads must be an int or a ParallelConfig, got {value!r}"
    )


class RowBlockPool:
    """A supervised thread pool that maps kernels over fixed row blocks.

    ``map(block_fn, n_rows)`` calls ``block_fn(start, stop)`` once per
    :func:`row_blocks` boundary and returns the results **in block
    order**, whatever order the workers finished in.  With one thread,
    or when there is only one block, the blocks run inline in a plain
    loop on the caller's thread and no executor is ever created.  Zero
    rows still make one empty block, so every merge has a part to fold.

    Error handling is deterministic: when blocks fail, the exception
    from the *lowest failing block index* propagates (completion order
    never picks the error), remaining futures are cancelled, and the
    pool stays usable for the next call.  The pool is safe to share
    across ``n_jobs`` restart workers — ``submit`` is thread-safe and
    block workers never re-enter the pool.
    """

    def __init__(self, config: ParallelConfig):
        if not isinstance(config, ParallelConfig):
            raise ValidationError(
                f"RowBlockPool needs a ParallelConfig, got {config!r}"
            )
        self.config = config
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def n_threads(self) -> int:
        return self.config.n_threads

    @property
    def block_rows(self) -> int:
        return self.config.block_rows

    def blocks(self, n_rows: int) -> Tuple[Tuple[int, int], ...]:
        """The fixed partition this pool uses for ``n_rows`` rows."""
        return row_blocks(n_rows, self.config.block_rows)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.n_threads,
                thread_name_prefix="repro-rowblock",
            )
        return self._executor

    def map(self, block_fn: Callable[[int, int], object], n_rows: int) -> List[object]:
        """Run ``block_fn(start, stop)`` per block; results in block order."""
        blocks = self.blocks(n_rows) or ((0, 0),)
        if self.config.n_threads == 1 or len(blocks) == 1:
            return [block_fn(start, stop) for start, stop in blocks]
        executor = self._ensure_executor()
        futures = [executor.submit(block_fn, start, stop) for start, stop in blocks]
        results: List[object] = []
        error: Optional[BaseException] = None
        for future in futures:
            if error is not None:
                future.cancel()
                continue
            try:
                results.append(future.result())
            except BaseException as exc:
                # Walking futures in block order means the first failure
                # we see IS the lowest failing block index — every
                # earlier block already returned.
                error = exc
        if error is not None:
            raise error
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "RowBlockPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "open" if self._executor is not None else "idle"
        return f"RowBlockPool({self.config!r}, {state})"


#: The pool kernels use when their caller passes none: one thread, so
#: every block runs inline and no executor is ever created.
INLINE_POOL = RowBlockPool(ParallelConfig(1))


def fold_blocks(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Sum per-block partials **in ascending block order**.

    The one sanctioned way to merge sum-style blocked reductions: the
    fold order is the block order, so the result is independent of which
    worker finished first.  ``parts[0]`` must be freshly allocated by
    the block kernel (it is accumulated into).
    """
    out = parts[0]
    for part in parts[1:]:
        out += part
    return out
