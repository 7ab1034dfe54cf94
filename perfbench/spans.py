"""Outside-in tracer: spans around the program's public functions.

Nothing inside ``src/`` is instrumented.  :func:`install` wraps each
function or method named in :data:`FUNCTION_SPANS` / :data:`METHOD_SPANS`
and rebinds the wrapper wherever the program looks the name up: the
estimators import kernels by name (``from ._factored import
assign_factored``), so a function is rebound in every loaded ``repro``
module that holds the original object, and a method is replaced on its
class.  :func:`uninstall` puts every original back.

A span's self time is its duration minus the time its child spans cover.
Spans nest on one stack per tracer, so the self times of one root span
and all its descendants add up to the root's duration exactly (up to
float rounding).  Calls made from other threads are passed through
untraced; the benchmark runs every workload single-threaded.
"""

import functools
import os
import sys
import threading
import time
from collections import defaultdict

# (span name, defining module, function name)
FUNCTION_SPANS = (
    ("validation.check_array", "repro._validation", "check_array"),
    ("core._distances.row_norms_squared", "repro.core._distances",
     "row_norms_squared"),
    ("core._distances.assign_to_nearest", "repro.core._distances",
     "assign_to_nearest"),
    ("core._factored.assign_factored", "repro.core._factored",
     "assign_factored"),
    ("core._factored.grouped_row_sum", "repro.core._factored",
     "grouped_row_sum"),
    ("core._bounds.hamerly_step", "repro.core._bounds", "hamerly_step"),
    ("core._update.update_protocentroids", "repro.core._update",
     "update_protocentroids"),
    ("runtime.checkpoint.write_checkpoint", "repro.runtime.checkpoint",
     "write_checkpoint"),
)

# (span name, defining module, class name, method name)
METHOD_SPANS = (
    ("core.kr_kmeans.fit", "repro.core.kr_kmeans", "KhatriRaoKMeans", "fit"),
    ("core.kmeans.fit", "repro.core.kmeans", "KMeans", "fit"),
    ("core.minibatch.partial_fit", "repro.core.minibatch",
     "MiniBatchKhatriRaoKMeans", "partial_fit"),
    ("core._bounds.StreamingBounds.observe", "repro.core._bounds",
     "StreamingBounds", "observe"),
    ("monitoring.engine.DriftEngine.observe", "repro.monitoring.engine",
     "DriftEngine", "observe"),
    # Every policy but alert_only inherits DriftPolicy.consider.
    ("monitoring.policies.consider", "repro.monitoring.policies",
     "DriftPolicy", "consider"),
    ("monitoring.pipeline.process", "repro.monitoring.pipeline",
     "MonitoredStream", "process"),
    ("monitoring.pipeline.save", "repro.monitoring.pipeline",
     "MonitoredStream", "save"),
)

SPAN_NAMES = tuple(name for name, *_ in FUNCTION_SPANS + METHOD_SPANS)


class Tracer:
    """Accumulates per-span self time and call counts in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.checkpoint_bytes = 0
        self._stack = []
        self._thread = threading.get_ident()
        self._undo = []

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                tracer.self_s[name] += duration - children
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += duration
            if name == "runtime.checkpoint.write_checkpoint":
                tracer.checkpoint_bytes += os.path.getsize(result)
            return result

        return traced

    def install(self):
        """Wrap every span target; a second call is an error."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in FUNCTION_SPANS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module_key, module in list(sys.modules.items()):
                if (module_key.split(".")[0] == "repro"
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
        for name, module_name, class_name, attr in METHOD_SPANS:
            cls = getattr(sys.modules[module_name], class_name)
            own = cls.__dict__.get(attr)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
            self._undo.append((cls, attr, own))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def self_total(self):
        return sum(self.self_s.values())
