"""The benchmark's workloads: fits, a monitored stream and HTTP serving.

Each workload is set up once (inputs made from the seed, servers
started) and then runs its operation in a loop for the measured time.
``run`` returns an :class:`Outcome`: the end-to-end metrics, the
per-layer metrics when traced, a human-readable report, and every
correctness failure.  Checks run after the timed loop and the memory
reading, so neither the time nor the peak memory they cost is counted.
"""

import collections
import json
import os
import resource
import shutil
import time
import warnings

import numpy as np

from repro import KMeans, KhatriRaoKMeans, MiniBatchKhatriRaoKMeans
from repro.exceptions import ConvergenceWarning
from repro.monitoring import MonitoredStream
from repro.summary import DataSummary, summarize

import checks
import inputs
import loadgen
from spans import SPAN_NAMES, Tracer

# Sizes per workload.  "tiny" is the self-test's: the same code paths on
# inputs small enough that every workload finishes in about a second.
STRUCTURED = {
    "full": dict(n=30000, m=32, cards=(12, 12), n_init=3, max_iter=40),
    "tiny": dict(n=600, m=8, cards=(3, 3), n_init=1, max_iter=4),
}
# One planted model for every seed (the seed draws the rows), with a
# wide protocentroid spread: fits settle in similar local minima, so fit
# time varies less from seed to seed.
STRUCTURED_SCALE = 6.0
STRUCTURED_MODEL_SEED = 0
CHURN = {
    "full": dict(n=20000, m=64, cards=(16, 16), n_init=1, max_iter=40),
    "tiny": dict(n=400, m=8, cards=(4, 4), n_init=1, max_iter=4),
}
STREAM = {
    "full": dict(pool=40000, m=32, cards=(8, 8), batch=1024, steps=400,
                 shift_at=150, save_every=50),
    "tiny": dict(pool=2000, m=8, cards=(3, 3), batch=64, steps=100,
                 shift_at=40, save_every=50),
}
# Narrower than STRUCTURED_SCALE: the +SHIFT must stand out against the
# mean inertia of the mini-batch model's local minimum.  One planted model
# for every seed, as for the fits: the seed draws the pool's rows.
STREAM_SCALE = 3.0
STREAM_MODEL_SEED = 1
SERVE = {
    "full": dict(rows=64, rate=20.0, fit_rows=6000, fit_iter=20),
    "tiny": dict(rows=8, rate=20.0, fit_rows=600, fit_iter=4),
}
SHIFT = 2.0               # the stream's injected mean shift, every feature
MAX_DETECT_DELAY = 25     # steps; a slower first critical alert fails
N_BODIES = 128            # distinct serve_http request bodies, cycled
PHASE_A_SHARE = 0.6       # of the measured time; phase B gets the rest
MAX_GENERATOR_LATENESS_MS = 10.0   # generator p99 beyond this: invalid run

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")


class Outcome:
    def __init__(self):
        self.metrics = {}
        self.layers = {}
        self.report = []
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def note(self, name, value, unit, detail=""):
        self.report.append((name, value, unit, detail))


def latency_summary(seconds):
    """``(p50_ms, tail_ms, tail percentile, n)`` of a list of durations.

    The tail is the highest percentile with at least ten samples beyond
    it, capped at p99; below 20 samples that is the median.
    """
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    q = 50.0 if ms.size < 20 else min(99.0, 100.0 * (1.0 - 10.0 / ms.size))
    return float(np.median(ms)), float(np.percentile(ms, q)), q, ms.size


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def structured_data(seed, size):
    """``fit_structured``'s data; ``serve_http`` serves a summary of it."""
    p = STRUCTURED[size]
    thetas = inputs.planted_protocentroids(
        np.random.default_rng(STRUCTURED_MODEL_SEED), p["m"], p["cards"],
        STRUCTURED_SCALE)
    return inputs.khatri_rao_blobs(_rng(seed, 1), p["n"], thetas)


def _layer_metrics(tracer, n_ops):
    """Self seconds and kernel calls per operation, from a tracer."""
    layers = {f"{name}.self_s": tracer.self_s[name] / n_ops
              for name in SPAN_NAMES}
    for name in ("core._factored.assign_factored",
                 "core._distances.assign_to_nearest"):
        layers[f"{name}.calls"] = tracer.calls[name] / n_ops
    writes = tracer.calls["runtime.checkpoint.write_checkpoint"]
    layers["runtime.checkpoint.write_checkpoint.bytes"] = (
        tracer.checkpoint_bytes / writes if writes else 0.0)
    return layers


def repeat_until(seconds, tracer, op):
    """Call ``op(index, tracer or None)`` until ``seconds`` have passed.

    Returns ``[(traced, result), ...]``.  With a tracer, even calls are
    traced and odd ones not, and there are at least two calls, so both
    kinds exist for the overhead comparison.
    """
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        on = tracer is not None and len(results) % 2 == 0
        results.append((on, op(len(results), tracer if on else None)))
        if time.perf_counter() >= deadline and (tracer is None
                                                or len(results) >= 2):
            return results


# ------------------------------------------------------------------ fits
# A fixed-budget fit: which estimator, its wall time, the fitted model
# and the Lloyd iterations its callback counted.
Fit = collections.namedtuple("Fit", "kind seconds model iterations")
FIT_REPORT = {"kr": "fit_s", "kmeans": "kmeans_fit_s"}


class FitWorkload:
    """Repeated fixed-budget fits (``tol=0``) on one array.

    One operation fits each estimator in ``kinds`` once, in turn, on the
    same array: on the structured data the Khatri-Rao model and then the
    paper's ``KMeans`` baseline with the same budget, so a change to
    either, or to the kernels they share, moves the operation's time.
    Both fits of an operation get its ``random_state``, derived from the
    seed and the operation's index.  Traced runs alternate traced and
    untraced operations; the untraced ones give the tracing overhead.
    """

    def __init__(self, kinds, data, seed, size):
        self.kinds = kinds
        self.seed = seed
        if data == "churn":
            self.p = CHURN[size]
            self.X = inputs.gaussian(_rng(seed, 2), self.p["n"], self.p["m"])
        else:
            self.p = STRUCTURED[size]
            self.X = structured_data(seed, size)
        self.k = int(np.prod(self.p["cards"]))

    def _estimator(self, kind, index, callback):
        budget = dict(n_init=self.p["n_init"], max_iter=self.p["max_iter"],
                      tol=0.0, random_state=self.seed * 1000 + index,
                      callback=callback)
        if kind == "kmeans":
            return KMeans(self.k, **budget)
        return KhatriRaoKMeans(self.p["cards"], **budget)

    def _op(self, index, tracer):
        """One operation: a timed :class:`Fit` per estimator kind."""
        fits = []
        for kind in self.kinds:
            iterations = []
            model = self._estimator(
                kind, index, lambda restart, it: iterations.append(it))
            if tracer is not None:
                tracer.install()
            try:
                start = time.perf_counter()
                model.fit(self.X)
                elapsed = time.perf_counter() - start
            finally:
                if tracer is not None:
                    tracer.uninstall()
            fits.append(Fit(kind, elapsed, model, len(iterations)))
        return fits

    def run(self, seconds, traced):
        tracer = Tracer() if traced else None
        ops = repeat_until(seconds, tracer, self._op)
        out = Outcome()
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        unexplained = self._check(ops, out)
        untraced = [fits for on, fits in ops if not on]
        p50, _, _, n = latency_summary(
            [sum(f.seconds for f in fits) for fits in untraced])
        out.metrics["op_p50_ms"] = p50
        out.metrics["throughput_rows_per_s"] = self.X.shape[0] / (p50 / 1e3)
        for i, kind in enumerate(self.kinds):
            fit_p50 = latency_summary([fits[i].seconds for fits in untraced])
            out.note(FIT_REPORT[kind], fit_p50[0] / 1e3, "s",
                     f"median of n={n}")
        if tracer is not None:
            self._layers(ops, tracer, unexplained, out)
        return out

    def _check(self, ops, out):
        """Checks every fit; returns each fit's unexplained variance."""
        expected = self.p["n_init"] * self.p["max_iter"]
        agreements = []
        total_ss = float(((self.X - self.X.mean(axis=0)) ** 2).sum())
        unexplained = []
        for index, (_, fits) in enumerate(ops):
            for fit in fits:
                out.attempted += 1
                centroids = (fit.model.cluster_centers_ if fit.kind == "kmeans"
                             else fit.model.centroids())
                failures, agreement = checks.check_fit(
                    self.X, centroids, fit.model.labels_, fit.model.inertia_,
                    fit.iterations, expected)
                out.failures.extend(f"operation {index} {fit.kind} fit: {f}"
                                    for f in failures)
                out.failed += bool(failures)
                agreements.append(agreement)
                unexplained.append(fit.model.inertia_ / total_ss)
        out.metrics["label_agreement"] = float(np.mean(agreements))
        out.note("failed_frac", out.failed / out.attempted, "ratio")
        out.note("label_agreement", out.metrics["label_agreement"], "ratio",
                 "labels equal to the float64 argmin")
        return unexplained

    def _layers(self, ops, tracer, unexplained, out):
        traced = [sum(f.seconds for f in fits) for on, fits in ops if on]
        untraced = [sum(f.seconds for f in fits) for on, fits in ops if not on]
        n = len(traced)
        layers = _layer_metrics(tracer, n)
        wall = sum(traced)
        layers["trace.unattributed_s"] = (wall - tracer.self_total()) / n
        layers["trace.overhead_ms"] = 1e3 * (
            np.median(traced) - np.median(untraced))
        fractions = [np.mean(f.model.reassignment_fractions_)
                     for on, fits in ops if on for f in fits
                     if getattr(f.model, "reassignment_fractions_", None)]
        layers["core._bounds.rescore_frac"] = (
            float(np.mean(fractions)) if fractions else 0.0)
        layers["quality.unexplained_var"] = float(np.mean(unexplained))
        layers["quality.lloyd_iters"] = float(np.mean(
            [f.iterations for _, fits in ops for f in fits]))
        out.layers.update(layers)
        # Self times of every span under a fit add up to the fit's wall
        # time; what is left is the wrappers' own cost outside the root.
        if abs(layers["trace.unattributed_s"]) > 1e-3 + 0.01 * wall / n:
            out.failures.append(
                f"span self times miss {layers['trace.unattributed_s']:.4g} s "
                "of the traced fit wall time")

    def close(self):
        pass


# ---------------------------------------------------------------- stream
class StreamWorkload:
    """``MonitoredStream`` over batches with point ids, in episodes.

    An episode is a fresh pipeline fed ``steps`` batches drawn from a
    structured pool, with every feature shifted by ``SHIFT`` from step
    ``shift_at + 1`` on (shifted rows get new ids: an id names one
    immutable point).  The pipeline saves every ``save_every`` steps.
    Episodes repeat until the measured time is up, so every run does
    whole episodes and memory does not grow with speed.
    """

    def __init__(self, seed, size):
        self.seed = seed
        self.p = STREAM[size]
        thetas = inputs.planted_protocentroids(
            np.random.default_rng(STREAM_MODEL_SEED), self.p["m"],
            self.p["cards"], STREAM_SCALE)
        self.pool = inputs.khatri_rao_blobs(_rng(seed, 3), self.p["pool"],
                                            thetas)
        self.shifted = self.pool + SHIFT
        self.dir = os.path.join(WORK_DIR, f"stream-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.path = os.path.join(self.dir, "pipeline.npz")

    def _pipeline(self, episode):
        model = MiniBatchKhatriRaoKMeans(
            self.p["cards"], batch_size=self.p["batch"],
            random_state=self.seed * 1000 + episode)
        return MonitoredStream(model, policy="trigger_refine")

    def _episode(self, episode, tracer, out):
        p = self.p
        rng = _rng(self.seed, 100 + episode)
        stream = self._pipeline(episode)
        steps, saves, agree, detect = [], [], [], None
        if tracer is not None:
            tracer.install()
        try:
            for step in range(1, p["steps"] + 1):
                idx = rng.choice(p["pool"], size=p["batch"], replace=False)
                if step > p["shift_at"]:
                    batch, ids = self.shifted[idx], idx + p["pool"]
                else:
                    batch, ids = self.pool[idx], idx
                before = (None if stream.model.protocentroids_ is None
                          else stream.model.centroids())
                start = time.perf_counter()
                report = stream.process(batch, index=ids)
                steps.append(time.perf_counter() - start)
                if step % p["save_every"] == 0:
                    start = time.perf_counter()
                    stream.save(self.path)
                    saves.append(time.perf_counter() - start)
                out.attempted += 1
                if before is not None:
                    n_bad, agreement, _ = checks.check_labels(
                        batch, before, report.stats.labels)
                    agree.append(agreement)
                    if n_bad:
                        out.failed += 1
                        out.failures.append(
                            f"episode {episode} step {step}: {n_bad} labels "
                            "are not an argmin within the envelope")
                if (detect is None and step > p["shift_at"]
                        and any(a.severity == "critical"
                                for a in report.alerts)):
                    detect = step - p["shift_at"] - 1
        finally:
            if tracer is not None:
                tracer.uninstall()
        if detect is None or detect > MAX_DETECT_DELAY:
            out.failures.append(
                f"episode {episode}: no critical alert within "
                f"{MAX_DETECT_DELAY} steps of the shift")
        self._check_reload(episode, stream, out)
        return steps, saves, agree, detect

    def _check_reload(self, episode, stream, out):
        """The last save, loaded into a fresh pipeline, equals the live one."""
        fresh = self._pipeline(episode).load(self.path)
        same = all(np.array_equal(a, b) for a, b in zip(
            fresh.model.protocentroids_, stream.model.protocentroids_))
        if not same or fresh.timeline() != stream.timeline():
            out.failures.append(
                f"episode {episode}: the reloaded pipeline differs from the "
                "live one")

    def run(self, seconds, traced):
        tracer = Tracer() if traced else None
        out = Outcome()
        episodes = [(on,) + result for on, result in repeat_until(
            seconds, tracer,
            lambda index, on_tracer: self._episode(index, on_tracer, out))]
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        timed = [e for e in episodes if not e[0]]
        steps = [t for e in timed for t in e[1]]
        p50, tail, q, n = latency_summary(steps)
        out.metrics["op_p50_ms"] = p50
        # Per episode, so one slow save or a slow stretch of the host
        # moves one sample of the median, not the whole figure.
        rows_per_s = float(np.median([
            len(e[1]) * self.p["batch"] / (sum(e[1]) + sum(e[2]))
            for e in timed]))
        out.metrics["throughput_rows_per_s"] = rows_per_s
        agree = [a for e in episodes for a in e[3]]
        out.metrics["label_agreement"] = float(np.mean(agree))
        delays = [e[4] for e in episodes if e[4] is not None]
        out.note("stream_rows_per_s", rows_per_s, "rows/s",
                 f"periodic saves included, median of {len(timed)} episodes")
        out.note("step_p50_ms", p50, "ms", f"n={n}")
        out.note("step_p99_ms", tail, "ms", f"p{q:g} of n={n}")
        out.note("detect_delay_steps", float(np.median(delays)) if delays
                 else float("nan"), "steps",
                 f"median of {len(delays)} episodes")
        out.note("failed_frac", out.failed / out.attempted, "ratio")
        out.note("label_agreement", out.metrics["label_agreement"], "ratio",
                 "labels equal to the float64 argmin")
        if tracer is not None:
            traced_eps = [e for e in episodes if e[0]]
            traced_steps = [t for e in traced_eps for t in e[1]]
            traced_saves = [t for e in traced_eps for t in e[2]]
            layers = _layer_metrics(tracer, len(traced_steps))
            layers["trace.unattributed_s"] = (
                sum(traced_steps) + sum(traced_saves)
                - tracer.self_total()) / len(traced_steps)
            layers["trace.overhead_ms"] = 1e3 * (
                np.median(traced_steps) - np.median(steps))
            layers["monitoring.detect_delay_steps"] = (
                float(np.median(delays)) if delays else 0.0)
            out.layers.update(layers)
        return out

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------- serve
class ServeWorkload:
    """A real ``python -m repro.cli serve`` with default flags.

    Phase A is an open loop at a fixed rate, each request timed from its
    due time.  Phase B is a closed loop on every connection.  Server-side
    layer numbers come from ``/metrics``, read after phase A and after
    phase B.  The server's latency reservoirs are windows over its recent
    requests, so the phase-A percentiles also hold the warm-up requests
    that came before it.
    """

    def __init__(self, seed, size, root):
        self.p = SERVE[size]
        X = structured_data(seed, size)
        rng = _rng(seed, 4)
        model = KhatriRaoKMeans(
            STRUCTURED[size]["cards"], n_init=1,
            max_iter=self.p["fit_iter"], tol=0.0, random_state=seed,
        ).fit(X[:self.p["fit_rows"]])
        self.dir = os.path.join(WORK_DIR, f"serve-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        path = summarize(model).save(os.path.join(self.dir, "summary.npz"))
        summary = DataSummary.load(path)
        served = summary.astype("float32")
        centroids = summary.centroids()
        self.bodies, self.expected, self.agree = [], [], []
        for _ in range(N_BODIES):
            rows = X[rng.integers(0, X.shape[0], size=self.p["rows"])]
            self.bodies.append(json.dumps({"rows": rows.tolist()}).encode())
            labels = served.assign(rows)
            self.expected.append(labels.tolist())
            self.agree.append(labels == checks.nearest(rows, centroids))
        self.path = "/v1/models/bench/assign"
        self.n_conns = min(2, len(os.sched_getaffinity(0)))
        self.server = loadgen.Server(root, path,
                                     os.path.join(self.dir, "server.log"))
        # Warm-up: the first requests pay for lazy set-up in the server.
        records, _ = loadgen.run_phase(
            self.server.host, self.server.port, self.path, self.bodies,
            self.n_conns, 0.5)
        if not all(r.status == 200 for r in records):
            raise RuntimeError("warm-up requests failed")

    def _phase(self, duration, rate=None):
        return loadgen.run_phase(self.server.host, self.server.port,
                                 self.path, self.bodies, self.n_conns,
                                 duration, rate)

    def run(self, seconds, traced):
        out = Outcome()
        a_s = PHASE_A_SHARE * seconds
        if traced:
            # Half of phase A without a scrape after it, half with one.
            untraced_a, _ = self._phase(a_s / 2, self.p["rate"])
            phase_a, _ = self._phase(a_s / 2, self.p["rate"])
            after_a = self.server.metrics()
        else:
            phase_a, _ = self._phase(a_s, self.p["rate"])
        phase_b, b_elapsed = self._phase(seconds - a_s)
        if traced:
            after_b = self.server.metrics()
        out.metrics["peak_rss_mb"] = self.server.peak_rss_mb()
        records = phase_a + phase_b + (untraced_a if traced else [])
        self._check(records, out)

        ok_a = [r for r in phase_a if r.status == 200]
        p50, tail, q, n = latency_summary([r.done - r.due for r in ok_a])
        out.metrics["op_p50_ms"] = p50
        rps = sum(r.status == 200 for r in phase_b) / b_elapsed
        out.metrics["throughput_rows_per_s"] = rps * self.p["rows"]
        lateness = latency_summary([r.generator_lateness for r in phase_a])
        out.note("serve_p50_ms", p50, "ms",
                 f"open loop {self.p['rate']:g} req/s, n={n}")
        out.note("serve_p99_ms", tail, "ms", f"p{q:g} of n={n}")
        out.note("serve_rps", rps, "req/s",
                 f"closed loop, {self.n_conns} connections")
        out.note("generator_lateness_p99_ms", lateness[1], "ms",
                 f"p{lateness[2]:g}; above {MAX_GENERATOR_LATENESS_MS:g} "
                 "the run is invalid")
        out.note("failed_frac", out.failed / out.attempted, "ratio")
        out.note("label_agreement", out.metrics["label_agreement"], "ratio",
                 "served labels equal to the float64 argmin")
        if lateness[1] > MAX_GENERATOR_LATENESS_MS:
            out.failures.append(
                f"invalid run: the generator fell {lateness[1]:.1f} ms "
                "behind its schedule")
        if traced:
            self._layers(after_a, after_b, phase_a, untraced_a, out)
            out.layers["serving.generator_lateness_p99_ms"] = lateness[1]
        return out

    def _check(self, records, out):
        agree, refused, wrong = [], 0, 0
        for r in records:
            out.attempted += 1
            if r.status != 200:
                refused += 1
                continue
            wrong += json.loads(r.payload)["labels"] != self.expected[r.body]
            agree.append(self.agree[r.body])
        out.failed = refused + wrong
        out.metrics["label_agreement"] = (
            float(np.mean(np.concatenate(agree))) if agree else 0.0)
        if wrong:
            out.failures.append(
                f"{wrong} responses' labels differ from the in-process "
                "float32 DataSummary.assign")
        if refused:
            out.failures.append(
                f"{refused} requests were refused, timed out or not 200")

    def _layers(self, after_a, after_b, phase_a, untraced_a, out):
        lat = after_a["latency_seconds"]
        http = lat["http"]["p50"] * 1e3
        kernel = lat["batch_exec"]["p50"] * 1e3
        counts = [after_b["counters"].get(k, 0) - after_a["counters"].get(k, 0)
                  for k in ("batched_requests_total", "batches_total")]
        client = np.median([r.done - r.sent for r in phase_a
                            if r.status == 200]) * 1e3
        traced_p50 = latency_summary([r.done - r.due for r in phase_a])[0]
        untraced_p50 = latency_summary([r.done - r.due for r in untraced_a])[0]
        out.layers.update({
            "serving.http.server_p50_ms": http,
            "serving.batcher.wait_p50_ms": lat["assign"]["p50"] * 1e3 - kernel,
            "serving.batcher.kernel_p50_ms": kernel,
            "serving.batcher.requests_per_batch": (
                counts[0] / counts[1] if counts[1] else 0.0),
            "serving.wire_p50_ms": client - http,
            "trace.overhead_ms": traced_p50 - untraced_p50,
        })

    def close(self):
        self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def setup(name, seed, size, root):
    warnings.simplefilter("ignore", ConvergenceWarning)
    if name == "fit_structured":
        return FitWorkload(("kr", "kmeans"), "structured", seed, size)
    if name == "fit_churn":
        return FitWorkload(("kr",), "churn", seed, size)
    if name == "stream_drift":
        return StreamWorkload(seed, size)
    if name == "serve_http":
        return ServeWorkload(seed, size, root)
    raise ValueError(f"unknown workload {name!r}")
