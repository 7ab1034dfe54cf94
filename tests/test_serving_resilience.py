"""Chaos suite for the serving resilience layer (PR 7).

The invariant under test: **every submitted ticket resolves** — with a
result or a typed, retriable error — under injected kernel faults,
worker kills, hung kernels, mid-flight evictions and expired deadlines.
Deterministic pieces (breakers, health, deadlines, backpressure) are
driven with injectable clocks and explicit fault schedules; the soak
test at the end runs a seeded random schedule against a live worker +
watchdog and accounts for every outcome.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import KhatriRaoKMeans, summarize
from repro.datasets import make_blobs
from repro.exceptions import (
    BatcherStoppedError,
    CircuitOpenError,
    DeadlineExceededError,
    ModelNotFoundError,
    OverloadedError,
    WorkerCrashedError,
)
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    InjectedKernelError,
)
from repro.serving import (
    BreakerBoard,
    CircuitBreaker,
    HealthTracker,
    MicroBatcher,
    ModelRegistry,
    ServingMetrics,
    Watchdog,
    create_server,
)

# Injected WorkerKill faults die on the worker thread *by design* — that
# is the scenario under test, not an accident to warn about.
pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


@pytest.fixture(scope="module")
def data_and_summary():
    X, _ = make_blobs(300, n_clusters=9, random_state=0)
    model = KhatriRaoKMeans((3, 3), n_init=2, random_state=0).fit(X)
    return X, summarize(model)


@pytest.fixture
def registry(data_and_summary):
    _, summary = data_and_summary
    registry = ModelRegistry()
    registry.register("m", summary)
    return registry


class FakeClock:
    """An injectable monotonic clock tests advance by hand."""

    def __init__(self, now: float = 0.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_expired_ticket_is_shed_before_the_kernel_runs(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, start=False)
        ticket = batcher.submit(
            "assign", "m", X[:4], deadline=time.monotonic() - 0.01
        )
        batcher.drain()
        with pytest.raises(DeadlineExceededError, match="shed it at coalesce"):
            ticket.result()
        assert batcher.metrics.counter("deadline_expired_total") == 1
        # The kernel never ran for nobody.
        assert batcher.metrics.counter("batches_total") == 0

    def test_live_batchmates_survive_an_expired_ticket(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, start=False)
        live = batcher.submit("assign", "m", X[:4])
        dead = batcher.submit(
            "assign", "m", X[4:8], deadline=time.monotonic() - 0.01
        )
        batcher.drain()
        assert live.result()["labels"].shape == (4,)
        with pytest.raises(DeadlineExceededError):
            dead.result()
        assert batcher.metrics.counter("batched_requests_total") == 1

    def test_result_wait_maps_deadline_expiry_to_typed_504_error(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, start=False)  # nobody will serve it
        ticket = batcher.submit(
            "assign", "m", X[:4], deadline=time.monotonic() + 0.02
        )
        with pytest.raises(DeadlineExceededError, match="deadline expired"):
            ticket.result()
        # Giving up cancelled the ticket: a later drain sheds the work.
        batcher.drain()
        assert batcher.metrics.counter("deadline_expired_total") == 1
        assert batcher.metrics.counter("batches_total") == 0

    def test_result_timeout_without_deadline_cancels_too(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, start=False)
        ticket = batcher.submit("assign", "m", X[:4])
        with pytest.raises(DeadlineExceededError, match="did not complete"):
            ticket.result(timeout=0.02)
        batcher.drain()
        assert batcher.metrics.counter("batches_total") == 0

    def test_first_wins_resolution_never_clobbers(self):
        from repro.serving import Ticket

        ticket = Ticket("assign", 1, 0.0)
        ticket._resolve({"labels": "first"})
        ticket._fail(RuntimeError("late verdict"))
        ticket._resolve({"labels": "later"})
        assert ticket.result() == {"labels": "first"}


# ----------------------------------------------------------------- breakers
class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(3, 10.0)
        assert breaker.record_failure(0.0) is False
        assert breaker.record_failure(0.0) is False
        breaker.record_success()  # any success resets the streak
        assert breaker.record_failure(1.0) is False
        assert breaker.record_failure(1.0) is False
        assert breaker.record_failure(1.0) is True
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_open_rejects_with_remaining_timeout(self):
        breaker = CircuitBreaker(1, 10.0)
        breaker.record_failure(0.0)
        admitted, retry_after = breaker.allow(4.0)
        assert admitted is False
        assert retry_after == pytest.approx(6.0)

    def test_half_open_admits_one_probe(self):
        breaker = CircuitBreaker(1, 10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0) == (True, 0.0)  # the probe
        admitted, retry_after = breaker.allow(10.5)
        assert admitted is False and retry_after > 0
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow(10.6) == (True, 0.0)

    def test_failed_probe_reopens_for_a_full_timeout(self):
        breaker = CircuitBreaker(1, 10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)[0] is True
        assert breaker.record_failure(10.0) is True  # probe failed
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert breaker.allow(15.0)[0] is False
        assert breaker.allow(20.0)[0] is True  # next probe

    def test_lost_probe_does_not_wedge_the_breaker(self):
        # A probe whose batch is shed (deadline, eviction) never reports
        # back; the breaker must eventually re-admit a probe.
        breaker = CircuitBreaker(1, 10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)[0] is True  # probe admitted ... and lost
        assert breaker.allow(15.0)[0] is False
        assert breaker.allow(20.0)[0] is True  # replacement probe


class TestBreakerBoard:
    def test_check_raises_typed_retriable_error_and_counts(self):
        clock = FakeClock()
        metrics = ServingMetrics()
        board = BreakerBoard(
            failure_threshold=2, reset_timeout_s=5.0,
            metrics=metrics, clock=clock,
        )
        key = ("m", "assign")
        board.check(key)  # closed: no-op
        board.record_failure(key)
        board.record_failure(key)
        assert metrics.counter("breaker_open_total") == 1
        with pytest.raises(CircuitOpenError) as excinfo:
            board.check(key)
        assert excinfo.value.retry_after == pytest.approx(5.0)
        assert metrics.counter("breaker_fastfail_total") == 1
        # Other keys are unaffected.
        board.check(("m", "inertia"))
        board.check(("other", "assign"))
        assert board.open_keys() == [
            {"model": "m", "op": "assign", "state": "open", "retry_after": 5.0}
        ]

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        board = BreakerBoard(
            failure_threshold=1, reset_timeout_s=5.0, clock=clock
        )
        key = ("m", "assign")
        board.record_failure(key)
        clock.advance(5.0)
        board.check(key)  # the probe is admitted
        board.record_success(key)
        board.check(key)  # closed again
        assert board.open_keys() == []

    def test_reset_forgets_a_models_breakers(self):
        board = BreakerBoard(
            failure_threshold=1, reset_timeout_s=5.0, clock=FakeClock()
        )
        board.record_failure(("m", "assign"))
        board.record_failure(("other", "assign"))
        board.reset("m")
        board.check(("m", "assign"))  # clean slate
        with pytest.raises(CircuitOpenError):
            board.check(("other", "assign"))


class TestBreakerIntegration:
    def test_poisoned_model_opens_while_healthy_neighbor_serves(
        self, data_and_summary
    ):
        X, summary = data_and_summary
        registry = ModelRegistry()
        registry.register("good", summary)
        registry.register("bad", summary)
        batcher = MicroBatcher(
            registry, start=False, breaker_failures=3, breaker_reset_s=30.0
        )
        clock = FakeClock(batcher.breakers._clock())
        batcher.breakers._clock = clock
        injector = FaultInjector(
            batcher, FaultSchedule.always("raise", model="bad")
        ).install()

        for _ in range(3):
            ticket = batcher.submit("assign", "bad", X[:4])
            batcher.drain()
            with pytest.raises(InjectedKernelError):
                ticket.result()
        # The circuit is now open: submits fast-fail without queuing ...
        with pytest.raises(CircuitOpenError) as excinfo:
            batcher.submit("assign", "bad", X[:4])
        assert excinfo.value.retry_after > 0
        assert batcher.metrics.counter("breaker_open_total") == 1
        assert batcher.metrics.counter("breaker_fastfail_total") == 1
        # ... while the healthy model keeps serving.
        ticket = batcher.submit("assign", "good", X[:4])
        batcher.drain()
        assert ticket.result()["labels"].shape == (4,)

        # After the reset timeout one probe is admitted; the fault is
        # gone, so its success closes the circuit for everyone.
        clock.advance(30.0)
        injector.uninstall()
        probe = batcher.submit("assign", "bad", X[:4])
        batcher.drain()
        assert probe.result()["labels"].shape == (4,)
        batcher.submit("assign", "bad", X[:4])  # admitted: closed again
        batcher.drain()
        assert batcher.breakers.open_keys() == []

    def test_reregistering_a_model_resets_its_breakers(
        self, data_and_summary, registry
    ):
        X, summary = data_and_summary
        batcher = MicroBatcher(registry, start=False, breaker_failures=1)
        with FaultInjector(batcher, FaultSchedule.from_spec({0: "raise"})):
            ticket = batcher.submit("assign", "m", X[:4])
            batcher.drain()
            with pytest.raises(InjectedKernelError):
                ticket.result()
        with pytest.raises(CircuitOpenError):
            batcher.submit("assign", "m", X[:4])
        registry.register("m", summary)  # a fresh artifact: clean slate
        ticket = batcher.submit("assign", "m", X[:4])
        batcher.drain()
        assert ticket.result()["labels"].shape == (4,)


# ----------------------------------------------------------------- watchdog
class TestWatchdog:
    def test_dead_worker_is_restarted_and_inflight_tickets_fail_typed(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, window_s=0.0, breaker_failures=None)
        try:
            FaultInjector(
                batcher, FaultSchedule.from_spec({0: "kill"})
            ).install()
            ticket = batcher.submit("assign", "m", X[:4])
            assert wait_until(lambda: not batcher.worker_alive), (
                "the injected WorkerKill should have killed the worker"
            )
            health = HealthTracker(recovery_s=5.0, clock=(clock := FakeClock()))
            watchdog = Watchdog(batcher, health=health, metrics=batcher.metrics)
            assert watchdog.check() == "restarted"
            with pytest.raises(WorkerCrashedError, match="restarted"):
                ticket.result(timeout=1.0)
            assert batcher.metrics.counter("worker_restarts_total") == 1
            assert batcher.worker_alive
            # Degraded for the recovery window, then ok again.
            assert health.state == "degraded"
            clock.advance(5.0)
            assert health.state == "ok"
            # The revived worker serves (fault schedule is spent).
            again = batcher.submit("assign", "m", X[:4])
            assert again.result(timeout=5.0)["labels"].shape == (4,)
            assert watchdog.check() is None  # healthy: nothing to do
        finally:
            batcher.stop()

    def test_hung_worker_fails_waiters_without_a_second_worker(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, window_s=0.0, breaker_failures=None)
        try:
            FaultInjector(
                batcher, FaultSchedule.from_spec({0: ("sleep", 0.4)})
            ).install()
            ticket = batcher.submit("assign", "m", X[:4])
            assert wait_until(
                lambda: (batcher.inflight_age() or 0.0) > 0.08
            )
            watchdog = Watchdog(
                batcher, hang_timeout_s=0.05, metrics=batcher.metrics
            )
            assert watchdog.check() == "hung"
            with pytest.raises(WorkerCrashedError, match="hang_timeout"):
                ticket.result(timeout=1.0)
            assert batcher.metrics.counter("worker_hangs_total") == 1
            # No second worker was started (Python cannot kill a thread;
            # one kernel call at a time is the subsystem's invariant) ...
            assert batcher.metrics.counter("worker_restarts_total") == 0
            assert batcher.worker_alive
            # ... and when the stuck call returns, first-wins resolution
            # discards its verdict and the worker resumes serving.
            again = batcher.submit("assign", "m", X[:4])
            assert again.result(timeout=5.0)["labels"].shape == (4,)
        finally:
            batcher.stop()

    def test_watchdog_leaves_a_stopped_batcher_alone(self, registry):
        batcher = MicroBatcher(registry, start=False)
        assert Watchdog(batcher, metrics=batcher.metrics).check() is None


# ------------------------------------------------------------- backpressure
class TestBackpressure:
    def test_queue_depth_cap_sheds_with_retry_hint(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, start=False, max_queue_requests=2)
        first = batcher.submit("assign", "m", X[:4])
        batcher.submit("assign", "m", X[4:8])
        with pytest.raises(OverloadedError) as excinfo:
            batcher.submit("assign", "m", X[8:12])
        assert excinfo.value.retry_after > 0
        assert batcher.metrics.counter("shed_overload_total") == 1
        # Other keys have their own queues.
        batcher.submit("inertia", "m", X[:4])
        batcher.drain()
        assert first.result()["labels"].shape == (4,)
        # Draining made room again.
        batcher.submit("assign", "m", X[:4])

    def test_pending_rows_cap_admits_one_oversize_request(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, start=False, max_pending_rows=10)
        # A single request larger than the cap is admitted into an empty
        # batcher (the never-reject rule) ...
        big = batcher.submit("assign", "m", X[:32])
        assert batcher.pending_rows == 32
        # ... but the backlog is now over the cap, so the next sheds.
        with pytest.raises(OverloadedError):
            batcher.submit("assign", "m", X[:2])
        assert batcher.metrics.counter("shed_overload_total") == 1
        batcher.drain()
        assert batcher.pending_rows == 0
        assert big.result()["labels"].shape == (32,)


# ---------------------------------------------------- eviction and shutdown
class TestEvictionMidFlight:
    def test_submitted_then_evicted_fails_typed_without_breaker_blame(
        self, data_and_summary, registry
    ):
        X, summary = data_and_summary
        batcher = MicroBatcher(registry, start=False, breaker_failures=1)
        with FaultInjector(batcher, FaultSchedule.from_spec({0: "evict"})):
            ticket = batcher.submit("assign", "m", X[:4])
            batcher.drain()
        with pytest.raises(ModelNotFoundError):
            ticket.result()
        # The model is gone, not broken: no breaker opened, and a
        # re-registered model serves immediately.
        assert batcher.metrics.counter("breaker_open_total") == 0
        with pytest.raises(ModelNotFoundError):
            batcher.submit("assign", "m", X[:4])
        registry.register("m", summary)
        ticket = batcher.submit("assign", "m", X[:4])
        batcher.drain()
        assert ticket.result()["labels"].shape == (4,)


class TestGracefulStop:
    def test_drain_deadline_fails_stragglers_instead_of_hanging(
        self, data_and_summary, registry
    ):
        X, _ = data_and_summary
        batcher = MicroBatcher(registry, window_s=0.0, breaker_failures=None)
        FaultInjector(
            batcher, FaultSchedule.always("sleep", seconds=0.5)
        ).install()
        inflight = batcher.submit("assign", "m", X[:4])
        assert wait_until(lambda: batcher.inflight_age() is not None)
        queued = batcher.submit("assign", "m", X[4:8])
        started = time.monotonic()
        batcher.stop(flush=True, timeout=0.05)
        assert time.monotonic() - started < 2.0, "stop() must terminate"
        with pytest.raises(BatcherStoppedError, match="draining deadline"):
            inflight.result(timeout=1.0)
        with pytest.raises(BatcherStoppedError, match="draining deadline"):
            queued.result(timeout=1.0)
        with pytest.raises(BatcherStoppedError):
            batcher.submit("assign", "m", X[:4])


# --------------------------------------------------------------- chaos soak
class TestChaosSoak:
    def test_random_schedules_are_deterministic(self):
        first = FaultSchedule.random(7, 50)
        second = FaultSchedule.random(7, 50)
        assert {i: repr(f) for i, f in first.faults.items()} == {
            i: repr(f) for i, f in second.faults.items()
        }
        assert first.faults, "seed 7 should schedule at least one fault"

    def test_every_ticket_resolves_under_chaos(self, data_and_summary):
        X, summary = data_and_summary
        registry = ModelRegistry()
        registry.register("a", summary)
        registry.register("b", summary)
        batcher = MicroBatcher(
            registry,
            window_s=0.001,
            breaker_failures=3,
            breaker_reset_s=0.1,
        )
        watchdog = Watchdog(
            batcher,
            interval_s=0.02,
            hang_timeout_s=1.0,
            health=HealthTracker(recovery_s=0.5),
            metrics=batcher.metrics,
        ).start()
        injector = FaultInjector(
            batcher,
            FaultSchedule.from_spec({0: "raise"}),  # chaos fires at least once
            FaultSchedule.random(
                seed=7, n_calls=400,
                p_raise=0.2, p_sleep=0.1, p_kill=0.08, sleep_s=0.02,
            ),
        ).install()

        expected = (
            InjectedKernelError,
            WorkerCrashedError,
            DeadlineExceededError,
            CircuitOpenError,
            OverloadedError,
            ModelNotFoundError,
            BatcherStoppedError,
        )
        outcomes = []
        lock = threading.Lock()

        def client(worker_index):
            for j in range(12):
                i = worker_index * 12 + j
                model = ("a", "b")[i % 2]
                op = "inertia" if i % 3 == 0 else "assign"
                deadline = (
                    time.monotonic() + 0.25 if i % 4 == 0 else None
                )
                started = time.monotonic()
                try:
                    ticket = batcher.submit(
                        op, model, X[i % 20:i % 20 + 5], deadline=deadline
                    )
                    ticket.result(timeout=10.0)
                    outcome = ("ok", None)
                except expected as exc:
                    stalled = (
                        deadline is None
                        and isinstance(exc, DeadlineExceededError)
                        and time.monotonic() - started > 9.0
                    )
                    outcome = (
                        ("stalled" if stalled else "typed"),
                        type(exc).__name__,
                    )
                with lock:
                    outcomes.append(outcome)

        threads = [
            threading.Thread(target=client, args=(w,)) for w in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads), (
                "a client thread hung: some ticket never resolved"
            )

            # Every one of the 96 submissions is accounted for, none hit
            # the 10 s backstop, and chaos actually happened.
            assert len(outcomes) == 96
            assert not [o for o in outcomes if o[0] == "stalled"], outcomes
            assert injector.fired, "no fault fired — the soak tested nothing"
            served = sum(1 for o in outcomes if o[0] == "ok")
            assert served >= 1, outcomes

            # If a kill fired, the watchdog must have revived the worker.
            if any(kind == "kill" for *_, kind in injector.fired):
                assert wait_until(
                    lambda: batcher.metrics.counter("worker_restarts_total")
                    >= 1,
                    timeout=2.0,
                )
            assert watchdog.health.state in ("ok", "degraded")

            # The system comes back: disarm chaos, reset the breakers via
            # re-registration, and both models serve again.
            injector.uninstall()
            registry.register("a", summary)
            registry.register("b", summary)
            for model in ("a", "b"):
                ticket = batcher.submit("assign", model, X[:5])
                assert ticket.result(timeout=10.0)["labels"].shape == (5,)
        finally:
            watchdog.stop()
            batcher.stop(flush=True, timeout=5.0)


# ------------------------------------------------------------ HTTP surface
@pytest.fixture
def server(data_and_summary):
    _, summary = data_and_summary
    registry = ModelRegistry()
    registry.register("blobs", summary)
    server = create_server(
        registry,
        window_s=0.05,  # wide enough that a 1 ms deadline expires first
        log_requests=False,
        breaker_failures=3,
        breaker_reset_s=0.2,
        health_recovery_s=60.0,
    ).start()
    yield server
    server.stop()


def _get(server, path):
    req = urllib.request.Request(server.url + path)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def _post_error(server, path, payload, headers=None):
    req = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=10)
    err = excinfo.value
    return err.code, dict(err.headers), json.load(err)


class TestHttpFailureSurface:
    def test_expired_deadline_header_maps_to_504(
        self, server, data_and_summary
    ):
        X, _ = data_and_summary
        status, _, body = _post_error(
            server, "/v1/models/blobs/assign", {"rows": X[:4].tolist()},
            headers={"X-Deadline-Ms": "1"},
        )
        assert status == 504
        assert body["error"]["type"] == "DeadlineExceededError"
        # The batcher sheds the dead work at coalesce time.
        assert wait_until(
            lambda: server.metrics.counter("deadline_expired_total") >= 1
        )

    def test_malformed_deadline_header_is_a_400(
        self, server, data_and_summary
    ):
        X, _ = data_and_summary
        for bad in ("soon", "-5", "nan"):
            status, _, body = _post_error(
                server, "/v1/models/blobs/assign", {"rows": X[:4].tolist()},
                headers={"X-Deadline-Ms": bad},
            )
            assert status == 400, bad
            assert body["error"]["type"] == "ValidationError"

    def test_open_breaker_fast_fails_503_with_retry_after(
        self, server, data_and_summary
    ):
        X, _ = data_and_summary
        for _ in range(3):
            server.batcher.breakers.record_failure(("blobs", "assign"))
        status, headers, body = _post_error(
            server, "/v1/models/blobs/assign", {"rows": X[:4].tolist()}
        )
        assert status == 503
        assert body["error"]["type"] == "CircuitOpenError"
        assert body["error"]["retry_after"] > 0
        assert float(headers["Retry-After"]) > 0
        # /healthz names the open circuit so operators see *why*.
        _, _, health = _get(server, "/healthz")
        assert health["open_breakers"] == [
            {"model": "blobs", "op": "assign", "state": "open",
             "retry_after": pytest.approx(0.2, abs=0.2)}
        ]
        # After the reset timeout the half-open probe (a real request)
        # succeeds and closes the circuit end to end.
        time.sleep(0.25)
        req = urllib.request.Request(
            server.url + "/v1/models/blobs/assign",
            data=json.dumps({"rows": X[:4].tolist()}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
        _, _, health = _get(server, "/healthz")
        assert health["open_breakers"] == []

    def test_healthz_reports_degraded_and_incidents(self, server):
        server.health.mark_degraded("worker restarted (1 in-flight failed)")
        status, _, body = _get(server, "/healthz")
        assert status == 200  # degraded still serves; only draining is 503
        assert body["status"] == "degraded"
        assert body["last_incident"] == "worker restarted (1 in-flight failed)"
        assert body["worker_restarts"] == 0

    def test_metrics_expose_the_resilience_counters(
        self, server, data_and_summary
    ):
        X, _ = data_and_summary
        for _ in range(3):
            server.batcher.breakers.record_failure(("blobs", "inertia"))
        _post_error(
            server, "/v1/models/blobs/inertia", {"rows": X[:4].tolist()}
        )
        _post_error(
            server, "/v1/models/blobs/assign", {"rows": X[:4].tolist()},
            headers={"X-Deadline-Ms": "1"},
        )
        assert wait_until(
            lambda: server.metrics.counter("deadline_expired_total") >= 1
        )
        _, _, metrics = _get(server, "/metrics")
        counters = metrics["counters"]
        assert counters["breaker_open_total"] == 1
        assert counters["breaker_fastfail_total"] == 1
        assert counters["deadline_expired_total"] >= 1
        assert counters["errors_503_total"] == 1
        assert counters["errors_504_total"] == 1


# ----------------------------------------------------------------- health
class TestHealthTracker:
    def test_degraded_is_sticky_for_the_recovery_window(self):
        clock = FakeClock()
        health = HealthTracker(recovery_s=5.0, clock=clock)
        assert health.state == "ok"
        health.mark_degraded("worker restarted")
        assert health.state == "degraded"
        clock.advance(4.9)
        assert health.state == "degraded"
        clock.advance(0.2)
        assert health.state == "ok"
        snapshot = health.snapshot()
        assert snapshot == {
            "state": "ok",
            "incidents": 1,
            "last_incident": "worker restarted",
        }

    def test_draining_is_terminal(self):
        clock = FakeClock()
        health = HealthTracker(recovery_s=1.0, clock=clock)
        health.start_draining()
        assert health.state == "draining"
        health.mark_degraded("too late")
        clock.advance(100.0)
        assert health.state == "draining"


# -------------------------------------------------------------- CLI wiring
class TestCliWiring:
    def test_serve_flags_reach_the_server(self, data_and_summary, tmp_path):
        from repro.cli import build_parser, build_server_from_args

        _, summary = data_and_summary
        path = summary.save(tmp_path / "m.npz")
        args = build_parser().parse_args([
            "serve", "--model", f"m={path}", "--port", "0",
            "--request-deadline-ms", "250", "--drain-timeout", "1.5",
            "--breaker-failures", "7", "--breaker-reset-s", "2.5",
            "--max-queue-requests", "9", "--max-pending-rows", "333",
        ])
        server = build_server_from_args(args)
        try:
            assert server.request_deadline_ms == 250.0
            assert server.drain_timeout_s == 1.5
            assert server.batcher.breakers.failure_threshold == 7
            assert server.batcher.breakers.reset_timeout_s == 2.5
            assert server.batcher.max_queue_requests == 9
            assert server.batcher.max_pending_rows == 333
        finally:
            server.stop()

    def test_breaker_failures_zero_disables_breakers(
        self, data_and_summary, tmp_path
    ):
        from repro.cli import build_parser, build_server_from_args

        _, summary = data_and_summary
        path = summary.save(tmp_path / "m.npz")
        args = build_parser().parse_args([
            "serve", "--model", f"m={path}", "--port", "0",
            "--breaker-failures", "0",
        ])
        server = build_server_from_args(args)
        try:
            assert server.batcher.breakers is None
        finally:
            server.stop()
