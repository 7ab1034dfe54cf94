"""Resilience primitives for the serving subsystem.

PR 6 made the kernel stack servable; this module gives the server a
*failure model*.  The invariant everything here defends: **every
submitted ticket resolves** — with a result or a typed, retriable error —
no matter what the kernels, the worker thread, or the clients do.  Three
primitives, each independently testable with an injectable clock:

* :class:`HealthTracker` — the server's ``ok`` / ``degraded`` /
  ``draining`` state machine.  Incidents (worker restarts, opened
  breakers) mark the process degraded for a recovery window; shutdown
  marks it draining permanently.  Surfaced at ``/healthz`` so load
  balancers can steer traffic away *before* requests fail.
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-``(model, op)``
  consecutive-failure breakers.  ``failure_threshold`` consecutive
  kernel failures open the circuit: requests for that key fast-fail with
  :class:`~repro.exceptions.CircuitOpenError` (HTTP 503 + ``Retry-After``)
  instead of queuing behind a poisoned model, while healthy models keep
  serving.  After ``reset_timeout_s`` one half-open probe is admitted; its
  outcome closes or re-opens the circuit.
* :class:`Watchdog` — detects a dead or hung batcher worker, fails the
  stranded in-flight tickets with
  :class:`~repro.exceptions.WorkerCrashedError`, restarts the worker, and
  reports the incident to the :class:`HealthTracker` and metrics
  (``worker_restarts_total``).

The deterministic fault-injection harness
:class:`repro.faults.FaultInjector` drives all three; the chaos suite
(``tests/test_serving_resilience.py``) asserts the resolve-everything
invariant under seeded schedules of kernel faults, worker kills and
expired deadlines.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import CircuitOpenError

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "HealthTracker",
    "Watchdog",
]

#: The three health states, in degradation order.
HEALTH_STATES = ("ok", "degraded", "draining")


class HealthTracker:
    """Thread-safe ``ok`` / ``degraded`` / ``draining`` state machine.

    ``degraded`` is sticky for ``recovery_s`` seconds after the last
    incident — a restarted worker that immediately crashes again keeps
    the state degraded rather than flapping.  ``draining`` (entered once,
    at shutdown) never transitions back.

    Parameters
    ----------
    recovery_s : float
        How long after the last incident the state stays ``degraded``.
    clock : callable
        Monotonic-seconds source; injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        recovery_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.recovery_s = float(recovery_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._degraded_until = -float("inf")
        self._draining = False
        self._last_reason: Optional[str] = None
        self._incidents = 0

    def mark_degraded(self, reason: str) -> None:
        """Record an incident; the state reads ``degraded`` for ``recovery_s``."""
        with self._lock:
            self._degraded_until = self._clock() + self.recovery_s
            self._last_reason = reason
            self._incidents += 1

    def start_draining(self) -> None:
        """Enter the terminal ``draining`` state (shutdown has begun)."""
        with self._lock:
            self._draining = True

    @property
    def state(self) -> str:
        with self._lock:
            if self._draining:
                return "draining"
            if self._clock() < self._degraded_until:
                return "degraded"
            return "ok"

    def snapshot(self) -> Dict:
        """JSON-shaped view for ``/healthz``."""
        with self._lock:
            if self._draining:
                state = "draining"
            elif self._clock() < self._degraded_until:
                state = "degraded"
            else:
                state = "ok"
            return {
                "state": state,
                "incidents": self._incidents,
                "last_incident": self._last_reason,
            }


class CircuitBreaker:
    """One consecutive-failure circuit breaker (closed / open / half-open).

    Not thread-safe on its own: the owning :class:`BreakerBoard` holds
    its lock around every transition.

    State machine:

    * **closed** — requests flow; ``failure_threshold`` *consecutive*
      failures (any success resets the streak) trip it open.
    * **open** — requests fast-fail until ``reset_timeout_s`` elapses.
    * **half-open** — one probe request is admitted; success closes the
      breaker, failure re-opens it for another full timeout.  A probe
      whose outcome never reports back (its ticket was shed on deadline,
      or its batch died before the kernel ran) would otherwise wedge the
      breaker half-open forever, so a fresh probe is re-admitted once the
      outstanding one is ``reset_timeout_s`` old.
    """

    __slots__ = (
        "failure_threshold", "reset_timeout_s",
        "failures", "state", "opened_at", "probe_at", "trips",
    )

    def __init__(self, failure_threshold: int, reset_timeout_s: float):
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self.failures = 0
        self.state = "closed"
        self.opened_at = -float("inf")
        self.probe_at: Optional[float] = None  # outstanding probe's admit time
        self.trips = 0  # lifetime open transitions, for metrics

    def allow(self, now: float) -> Tuple[bool, float]:
        """May a request proceed?  Returns ``(admitted, retry_after)``."""
        if self.state == "closed":
            return True, 0.0
        remaining = (self.opened_at + self.reset_timeout_s) - now
        if self.state == "open" and remaining <= 0:
            self.state = "half_open"
            self.probe_at = None
        if self.state == "half_open":
            if (
                self.probe_at is None
                or now - self.probe_at >= self.reset_timeout_s
            ):
                self.probe_at = now  # admit one probe (or replace a lost one)
                return True, 0.0
            return False, (self.probe_at + self.reset_timeout_s) - now
        return False, max(remaining, 0.0)

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"
        self.probe_at = None

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this call *opened* the circuit."""
        if self.state == "half_open":
            self.state = "open"
            self.opened_at = now
            self.probe_at = None
            self.trips += 1
            return True
        self.failures += 1
        if self.state == "closed" and self.failures >= self.failure_threshold:
            self.state = "open"
            self.opened_at = now
            self.trips += 1
            return True
        return False


class BreakerBoard:
    """Thread-safe collection of per-key circuit breakers.

    Keys are ``(model, op)`` tuples — a poisoned ``refine`` path opens
    independently of the same model's ``assign`` path.  ``check`` raises
    :class:`~repro.exceptions.CircuitOpenError` when the key's breaker
    refuses; ``record_success`` / ``record_failure`` are called by the
    batcher worker after each kernel attempt.

    Parameters
    ----------
    failure_threshold : int
        Consecutive failures that open a circuit (default 5).
    reset_timeout_s : float
        Seconds an open circuit waits before admitting a half-open probe.
    metrics : ServingMetrics, optional
        ``breaker_open_total`` is incremented on every open transition.
    clock : callable
        Injectable monotonic clock for deterministic tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ValueError(
                f"reset_timeout_s must be > 0, got {reset_timeout_s}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self.metrics = metrics
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def _get(self, key: Tuple[str, str]) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                self.failure_threshold, self.reset_timeout_s
            )
        return breaker

    def check(self, key: Tuple[str, str]) -> None:
        """Raise :class:`CircuitOpenError` unless ``key`` may proceed."""
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                return
            admitted, retry_after = breaker.allow(self._clock())
        if not admitted:
            if self.metrics is not None:
                self.metrics.increment("breaker_fastfail_total")
            model, op = key
            raise CircuitOpenError(
                f"circuit open for model {model!r} op {op!r} after "
                f"{self.failure_threshold} consecutive failures; "
                f"retry in {retry_after:.3f}s",
                retry_after=retry_after,
            )

    def record_success(self, key: Tuple[str, str]) -> None:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is not None:
                breaker.record_success()

    def record_failure(self, key: Tuple[str, str]) -> None:
        with self._lock:
            opened = self._get(key).record_failure(self._clock())
        if opened and self.metrics is not None:
            self.metrics.increment("breaker_open_total")

    def reset(self, model: str) -> None:
        """Forget every breaker for ``model`` (it was re-registered or
        evicted — a fresh artifact deserves a clean slate)."""
        with self._lock:
            for key in [k for k in self._breakers if k[0] == model]:
                del self._breakers[key]

    def open_keys(self) -> List[Dict]:
        """JSON-shaped list of non-closed breakers, for ``/healthz``."""
        now = self._clock()
        out: List[Dict] = []
        with self._lock:
            for (model, op), breaker in sorted(self._breakers.items()):
                if breaker.state == "closed":
                    continue
                remaining = (breaker.opened_at + breaker.reset_timeout_s) - now
                out.append({
                    "model": model,
                    "op": op,
                    "state": breaker.state,
                    "retry_after": round(max(remaining, 0.0), 3),
                })
        return out


class Watchdog:
    """Detects a dead or hung batcher worker and heals it.

    Every ``interval_s`` the watchdog checks the batcher:

    * **Dead worker** (thread exited while the batcher should be
      running — e.g. a ``BaseException`` escaped a kernel call): stranded
      in-flight tickets are failed with
      :class:`~repro.exceptions.WorkerCrashedError`, the worker is
      restarted (the queued backlog survives and is served by the new
      worker), ``worker_restarts_total`` is incremented, and the health
      tracker is marked degraded.
    * **Hung worker** (the current in-flight batch has been executing
      longer than ``hang_timeout_s``): the in-flight tickets are failed —
      so no client waits forever — and health degrades.  The thread
      itself is *not* killed (Python cannot safely kill a thread) and no
      second worker is started while it lives, preserving the
      one-kernel-at-a-time invariant; when the stuck call eventually
      returns, its attempt to resolve already-failed tickets is a no-op
      (ticket resolution is first-wins) and the worker resumes.

    ``check()`` is public and takes no lock the batcher's worker holds,
    so deterministic tests drive it directly instead of sleeping.
    """

    def __init__(
        self,
        batcher,
        *,
        interval_s: float = 0.5,
        hang_timeout_s: Optional[float] = 30.0,
        health: Optional[HealthTracker] = None,
        metrics=None,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.batcher = batcher
        self.interval_s = float(interval_s)
        self.hang_timeout_s = (
            None if hang_timeout_s is None else float(hang_timeout_s)
        )
        self.health = health if health is not None else HealthTracker()
        self.metrics = metrics if metrics is not None else batcher.metrics
        self.restarts = 0
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Watchdog":
        if not self.running:
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-watchdog", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop_event.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(self.interval_s + 5.0)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            try:
                self.check()
            except Exception:  # pragma: no cover - the watchdog must not die
                pass

    # ----------------------------------------------------------------- check
    def check(self) -> Optional[str]:
        """One health pass; returns the incident handled, if any."""
        batcher = self.batcher
        if not batcher.should_be_running:
            return None
        if not batcher.worker_alive:
            failed = batcher.fail_inflight(
                "the batcher worker died while this request was executing; "
                "the worker has been restarted — safe to retry"
            )
            self.restarts += 1
            self.metrics.increment("worker_restarts_total")
            batcher.start()
            self.health.mark_degraded(
                f"worker restarted ({failed} in-flight request(s) failed)"
            )
            return "restarted"
        if self.hang_timeout_s is not None:
            age = batcher.inflight_age()
            if age is not None and age > self.hang_timeout_s:
                failed = batcher.fail_inflight(
                    f"the batcher worker has been executing this batch for "
                    f"{age:.1f}s (> hang_timeout_s={self.hang_timeout_s}); "
                    "giving up on it — safe to retry"
                )
                if failed:
                    self.metrics.increment("worker_hangs_total")
                    self.health.mark_degraded(
                        f"worker hung ({failed} in-flight request(s) failed)"
                    )
                    return "hung"
        return None
