"""Fault-tolerant training runtime.

The execution layer under every estimator's ``fit``: atomic
checkpoint/resume with bit-identical continuation
(:mod:`~repro.runtime.checkpoint`), supervised parallel ``n_init``
restarts with retries, timeouts and deterministic selection
(:mod:`~repro.runtime.executor`), and the deterministic row-block layer
that parallelizes the per-iteration kernels and streams memory-mapped
inputs (:mod:`~repro.runtime.parallel`).  See ``docs/reliability.md``
for the operator-facing story.
"""

from .checkpoint import (
    CheckpointConfig,
    array_digest,
    data_fingerprint,
    read_checkpoint,
    resolve_checkpoint,
    restore_rng_state,
    serialize_rng_state,
    write_checkpoint,
)
from .executor import (
    ExecutorConfig,
    RestartFailure,
    RestartOutcome,
    RestartReport,
    resolve_executor,
    run_restarts,
)
from .parallel import (
    DEFAULT_BLOCK_ROWS,
    ParallelConfig,
    RowBlockPool,
    fold_blocks,
    resolve_parallel,
    row_blocks,
)

__all__ = [
    "CheckpointConfig",
    "DEFAULT_BLOCK_ROWS",
    "ExecutorConfig",
    "ParallelConfig",
    "RestartFailure",
    "RestartOutcome",
    "RestartReport",
    "RowBlockPool",
    "array_digest",
    "data_fingerprint",
    "fold_blocks",
    "read_checkpoint",
    "resolve_checkpoint",
    "resolve_executor",
    "resolve_parallel",
    "restore_rng_state",
    "row_blocks",
    "run_restarts",
    "serialize_rng_state",
    "write_checkpoint",
]
