"""repro.serving — a batched model server over the factored kernel stack.

The first subsystem that sits *on top of* the estimators rather than
inside them: it turns fitted :class:`~repro.summary.DataSummary`
artifacts into a long-running service.  Four layers, one module each:

* :mod:`~repro.serving.registry` — :class:`ModelRegistry`: named,
  LRU-evictable models, normalized to the float32 hot serving dtype on
  the way in (via the dtype-preserving ``save``/``load`` + ``astype()``
  path from the dtype stack).
* :mod:`~repro.serving.batcher` — :class:`MicroBatcher`: coalesces
  concurrent ``assign``/``inertia``/``refine`` requests arriving within a
  configurable window into a single factored kernel call and scatters the
  results back per request.  This is where the batched-vs-singleton
  throughput win is collected (``.benchmarks/serving_throughput.json``).
* :mod:`~repro.serving.http` — :class:`ServingServer` /
  :func:`create_server`: a stdlib-only threaded HTTP front end with JSON
  endpoints, request IDs, token-bucket rate limiting
  (:mod:`~repro.serving.ratelimit`) and typed error mapping.
* :mod:`~repro.serving.metrics` — :class:`ServingMetrics`: lock-protected
  counters and p50/p95/p99 latency reservoirs, surfaced at ``/metrics``.

The resilience layer rides alongside (PR 7): per-request deadlines and
typed 504s, per-``(model, op)`` circuit breakers
(:mod:`~repro.serving.resilience`), backpressure shedding, a watchdog
that restarts a dead batcher worker, a deterministic fault-injection
harness (:class:`~repro.faults.FaultInjector`) certifying that every
submitted ticket resolves, and a stdlib retry client
(:mod:`~repro.serving.client`) that speaks the whole protocol
(``Retry-After``, ``X-Deadline-Ms``, ``X-Request-ID``).

Start a server from the command line with ``python -m repro.cli serve``;
see ``docs/serving.md`` for endpoint schemas and batching semantics.

Examples
--------
>>> import numpy as np
>>> from repro import KhatriRaoKMeans, summarize
>>> from repro.serving import MicroBatcher, ModelRegistry
>>> rng = np.random.default_rng(0)
>>> X = rng.normal(size=(200, 8))
>>> model = KhatriRaoKMeans((3, 3), n_init=2, random_state=0).fit(X)
>>> registry = ModelRegistry()                    # float32 serving dtype
>>> registry.register("demo", summarize(model)).dtype
dtype('float32')
>>> batcher = MicroBatcher(registry, start=False) # synchronous mode
>>> tickets = [batcher.submit("assign", "demo", X[i:i + 4]) for i in (0, 4)]
>>> batcher.drain()                               # both in one kernel call
2
>>> tickets[0].result()["labels"].shape
(4,)
"""

from .batcher import MicroBatcher, Ticket
from .client import ServingClient, ServingClientError
from .http import ServingServer, create_server
from .metrics import LatencyReservoir, ServingMetrics
from .ratelimit import TokenBucket
from .registry import ModelRegistry
from .resilience import BreakerBoard, CircuitBreaker, HealthTracker, Watchdog

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "HealthTracker",
    "LatencyReservoir",
    "MicroBatcher",
    "ModelRegistry",
    "ServingClient",
    "ServingClientError",
    "ServingMetrics",
    "ServingServer",
    "Ticket",
    "TokenBucket",
    "Watchdog",
    "create_server",
]
