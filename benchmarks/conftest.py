"""Shared configuration for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper's evaluation (Section 9); ``README.md`` lists the commands that
run them.  Benchmarks run on reduced dataset scales so the whole
harness completes on a laptop CPU; the *shape* of each result (who wins, by
roughly what factor) is what is being reproduced, not absolute numbers.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — global multiplier on dataset sizes (default 1.0
  applied to the already-reduced per-benchmark scales).
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.exceptions import ConvergenceWarning

#: Global scale multiplier for benchmark dataset sizes.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(fraction: float) -> float:
    """Apply the global benchmark scale, clipped to a sane range."""
    return float(min(1.0, max(0.005, fraction * BENCH_SCALE)))


@pytest.fixture(autouse=True)
def _silence_convergence_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        yield


def print_header(title: str) -> None:
    bar = "=" * max(64, len(title) + 4)
    print(f"\n{bar}\n{title}\n{bar}")


def print_rows(header: str, rows) -> None:
    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)
