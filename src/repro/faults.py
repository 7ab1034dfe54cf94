"""Deterministic fault injection — the shared fault plane.

PR 7 built a fault-injection vocabulary for the *serving* stack; this
module generalizes it so the *training* runtime (:mod:`repro.runtime`),
the federated round loop and the artifact save/load path can all fail on
the same seeded schedules.  The contract is unchanged: the same seed must
produce the same sequence of faults on every run, so chaos suites assert
reproducible invariants instead of observing flaky ones.

Vocabulary (one :class:`Fault` per injection-point call):

========== ==========================================================
``ok``       no interference
``raise``    raise :class:`InjectedKernelError` — looks like an
             unexpected kernel crash (not a ``ReproError``), exercising
             the caller's unknown-failure plumbing
``sleep``    ``time.sleep(seconds)`` — a hung kernel / straggling
             worker, for timeout and watchdog testing
``kill``     raise :class:`WorkerKill` (a ``BaseException``) — escapes
             ``except Exception`` handlers and kills the executing
             thread outright
``evict``    context-specific: the serving injector evicts the batch's
             model mid-flight; contexts without an eviction target
             reject it
========== ==========================================================

Injection points, one per subsystem:

* serving — the batcher's ``fault_hook``, via :class:`FaultInjector`,
  which runs at the top of every batch execution *before* the model is
  resolved (so an ``evict`` fault exercises the submitted-then-evicted
  path) and inside the same try/except as the kernel call (so a
  ``raise`` fault flows through ticket failure, circuit-breaker
  accounting and the masked-500 HTTP mapping);
* training loops — the estimators' per-iteration ``callback`` knob,
  via :class:`FaultHook`;
* parallel restarts — the executor's per-attempt ``fault_hook``, via
  :class:`RestartFaultPlan` (keyed by ``(seed_index, attempt)`` so the
  schedule is deterministic under any completion order);
* federated rounds — per-round client participation, via
  :class:`DropoutSchedule`;
* artifact writes — :meth:`DataSummary.save
  <repro.summary.DataSummary.save>` ``fault_hook`` (torn-write drills).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "DropoutSchedule",
    "Fault",
    "FaultHook",
    "FaultInjector",
    "FaultSchedule",
    "InjectedKernelError",
    "RestartFaultPlan",
    "WorkerKill",
]


class InjectedKernelError(RuntimeError):
    """A scheduled kernel failure.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: an
    unexpected kernel crash is exactly what unknown-failure handling
    (HTTP 500 masking, circuit breakers, restart retries) exists for.
    """


class WorkerKill(BaseException):
    """A scheduled worker death.

    A ``BaseException`` so it escapes ``except Exception`` handlers and
    kills the executing thread — stranding in-flight work for whatever
    supervision layer (serving watchdog, restart executor) must recover.
    """


class Fault:
    """One scheduled action. ``kind`` ∈ {ok, raise, sleep, kill, evict}."""

    KINDS = ("ok", "raise", "sleep", "kill", "evict")
    __slots__ = ("kind", "seconds")

    def __init__(self, kind: str, seconds: float = 0.0):
        if kind not in self.KINDS:
            raise ValueError(f"fault kind must be one of {self.KINDS}, got {kind!r}")
        self.kind = kind
        self.seconds = float(seconds)

    def apply(self, context: str = "") -> None:
        """Execute this fault at a generic injection point.

        ``raise``/``kill`` raise their typed exception (``context`` lands
        in the message), ``sleep`` sleeps, ``ok`` is a no-op.  ``evict``
        needs an eviction target and is only meaningful inside the
        serving injector — applying it generically is a programming
        error, reported as such.
        """
        if self.kind == "ok":
            return
        if self.kind == "raise":
            raise InjectedKernelError(f"injected kernel fault {context}".strip())
        if self.kind == "sleep":
            time.sleep(self.seconds)
            return
        if self.kind == "kill":
            raise WorkerKill(f"injected worker kill {context}".strip())
        raise ValueError(
            "evict faults need an eviction target; use the serving FaultInjector"
        )

    def __repr__(self) -> str:
        if self.kind == "sleep":
            return f"Fault('sleep', {self.seconds:g})"
        return f"Fault({self.kind!r})"


_SpecValue = Union[str, Fault, Tuple[str, float]]


def _as_fault(value: _SpecValue) -> Fault:
    if isinstance(value, Fault):
        return value
    if isinstance(value, tuple):
        return Fault(value[0], value[1])
    return Fault(value)


class FaultSchedule:
    """A deterministic call-index → :class:`Fault` mapping.

    Indices count injection-point calls (per hook, starting at 0); any
    index without an entry is ``ok``.  Optionally scoped to one model so
    a "poisoned model" schedule leaves its neighbors healthy (the
    serving injector's scoping; other hooks ignore ``model``).
    """

    def __init__(
        self,
        faults: Dict[int, Fault],
        *,
        model: Optional[str] = None,
    ):
        self.faults = {int(i): _as_fault(f) for i, f in faults.items()}
        self.model = model

    @classmethod
    def from_spec(
        cls,
        spec: Dict[int, _SpecValue],
        *,
        model: Optional[str] = None,
    ) -> "FaultSchedule":
        """E.g. ``FaultSchedule.from_spec({0: "raise", 3: ("sleep", 0.05)})``."""
        return cls({i: _as_fault(v) for i, v in spec.items()}, model=model)

    @classmethod
    def always(cls, kind: str, *, model: Optional[str] = None,
               seconds: float = 0.0) -> "FaultSchedule":
        """Every matching call gets the same fault (``faults`` is a view
        that answers any index)."""
        schedule = cls({}, model=model)
        schedule._always = Fault(kind, seconds)
        return schedule

    @classmethod
    def random(
        cls,
        seed: int,
        n_calls: int,
        *,
        p_raise: float = 0.15,
        p_sleep: float = 0.05,
        p_kill: float = 0.05,
        sleep_s: float = 0.05,
        model: Optional[str] = None,
    ) -> "FaultSchedule":
        """A seeded random mix over ``n_calls`` executions (the soak shape)."""
        rng = np.random.default_rng(seed)
        faults: Dict[int, Fault] = {}
        for i in range(int(n_calls)):
            u = float(rng.random())
            if u < p_raise:
                faults[i] = Fault("raise")
            elif u < p_raise + p_sleep:
                faults[i] = Fault("sleep", sleep_s)
            elif u < p_raise + p_sleep + p_kill:
                faults[i] = Fault("kill")
        return cls(faults, model=model)

    _always: Optional[Fault] = None

    def fault_for(self, index: int) -> Fault:
        if self._always is not None:
            return self._always
        return self.faults.get(index, Fault("ok"))


class FaultHook:
    """Call-indexed fault injection for arbitrary single-caller hooks.

    Binds one :class:`FaultSchedule` to any hook seam that is invoked
    repeatedly from one thread — an estimator's per-iteration
    ``callback``, an artifact writer's ``fault_hook`` — counting calls
    and applying the scheduled fault on each.  :attr:`fired` records
    ``(index, context, kind)`` for every non-``ok`` action so chaos
    suites can cross-check observed failures against the schedule.

    The hook swallows its arguments (they become the recorded context),
    so it can stand in for any callback signature.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.calls = 0
        self.fired: List[Tuple[int, str, str]] = []

    def __call__(self, *args, **kwargs) -> None:
        index = self.calls
        self.calls = index + 1
        fault = self.schedule.fault_for(index)
        if fault.kind == "ok":
            return
        context = ", ".join(
            [repr(a) for a in args]
            + [f"{k}={v!r}" for k, v in sorted(kwargs.items())]
        )
        self.fired.append((index, context, fault.kind))
        fault.apply(f"#{index}")


class FaultInjector:
    """Binds :class:`FaultSchedule` s to a batcher's ``fault_hook``.

    The hook runs on the worker thread at the top of every batch
    execution.  Each schedule keeps its own call counter (scoped
    schedules only count calls for their model), and :attr:`fired`
    records ``(index, model, op, kind)`` for every non-``ok`` action —
    the chaos suite cross-checks observed failures against it.

    Use :meth:`install` / :meth:`uninstall` (or the context manager) to
    attach; ``arm(False)`` pauses injection without detaching.
    """

    def __init__(self, batcher, *schedules: FaultSchedule):
        self.batcher = batcher
        self.schedules: List[FaultSchedule] = list(schedules)
        self.fired: List[Tuple[int, str, str, str]] = []
        self._counters: Dict[int, int] = {i: 0 for i in range(len(schedules))}
        self._armed = True
        self._lock = threading.Lock()

    def add(self, schedule: FaultSchedule) -> "FaultInjector":
        with self._lock:
            self._counters[len(self.schedules)] = 0
            self.schedules.append(schedule)
        return self

    def arm(self, armed: bool = True) -> None:
        self._armed = bool(armed)

    # ------------------------------------------------------------- the hook
    def __call__(self, key, batch) -> None:
        if not self._armed:
            return
        model, op = key[0], key[1]
        action: Optional[Tuple[Fault, int]] = None
        with self._lock:
            for i, schedule in enumerate(self.schedules):
                if schedule.model is not None and schedule.model != model:
                    continue
                index = self._counters[i]
                self._counters[i] = index + 1
                fault = schedule.fault_for(index)
                if fault.kind != "ok" and action is None:
                    action = (fault, index)
            if action is not None:
                self.fired.append((action[1], model, op, action[0].kind))
        if action is None:
            return
        fault, index = action
        if fault.kind == "evict":
            # The one context-bound fault: evict the batch's model from
            # the registry mid-flight, then proceed — the batch fails
            # with ModelNotFoundError through the real plumbing.
            self.batcher.registry.evict(model)
            return
        fault.apply(f"#{index} for model {model!r}")

    # ------------------------------------------------------------ attaching
    def install(self) -> "FaultInjector":
        self.batcher.fault_hook = self
        return self

    def uninstall(self) -> None:
        if self.batcher.fault_hook is self:
            self.batcher.fault_hook = None

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


class RestartFaultPlan:
    """Per-``(seed_index, attempt)`` faults for the restart executor.

    The executor runs restart attempts concurrently, so a call-indexed
    schedule would depend on thread timing.  This plan keys faults by
    the attempt's identity instead — restart ``seed_index``, retry
    ``attempt`` (0 = first try) — which is deterministic under any
    completion order.  Unkeyed attempts are ``ok``.

    >>> plan = RestartFaultPlan({(1, 0): "raise", (2, 0): ("sleep", 0.2)})
    >>> plan(0, 0)                       # restart 0 runs clean
    """

    def __init__(self, spec: Dict[Tuple[int, int], _SpecValue]):
        self.faults = {
            (int(i), int(a)): _as_fault(v) for (i, a), v in spec.items()
        }
        self.fired: List[Tuple[int, int, str]] = []

    def __call__(self, seed_index: int, attempt: int) -> None:
        fault = self.faults.get((seed_index, attempt))
        if fault is None or fault.kind == "ok":
            return
        self.fired.append((seed_index, attempt, fault.kind))
        fault.apply(f"for restart {seed_index} attempt {attempt}")


class DropoutSchedule:
    """Deterministic per-round federated client participation.

    Maps round index → the set of *dropped* client indices; every other
    client participates.  Built explicitly (:meth:`from_spec`) for
    precise scenarios or randomly (:meth:`random`) with a seed for
    soak-style runs.  Instances are callables with the federated
    estimators' ``participation`` signature.
    """

    def __init__(self, drops: Dict[int, Sequence[int]]):
        self.drops = {
            int(r): frozenset(int(c) for c in clients)
            for r, clients in drops.items()
        }

    @classmethod
    def from_spec(cls, spec: Dict[int, Sequence[int]]) -> "DropoutSchedule":
        """E.g. ``DropoutSchedule.from_spec({0: [2], 3: [0, 1]})``."""
        return cls(spec)

    @classmethod
    def random(
        cls,
        seed: int,
        n_rounds: int,
        n_clients: int,
        *,
        p_drop: float = 0.2,
    ) -> "DropoutSchedule":
        """A seeded random dropout mix over ``n_rounds`` rounds."""
        rng = np.random.default_rng(seed)
        drops: Dict[int, List[int]] = {}
        for r in range(int(n_rounds)):
            dropped = np.flatnonzero(rng.random(int(n_clients)) < p_drop)
            if dropped.size:
                drops[r] = dropped.tolist()
        return cls(drops)

    def __call__(self, round_index: int, n_clients: int) -> np.ndarray:
        """Participating client indices for ``round_index`` (sorted)."""
        dropped = self.drops.get(int(round_index), frozenset())
        return np.array(
            [c for c in range(int(n_clients)) if c not in dropped],
            dtype=np.int64,
        )
