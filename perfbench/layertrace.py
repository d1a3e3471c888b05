"""Per-layer spans and counters, recorded from outside the program.

The benchmark wraps the public calls into each layer of ``repro`` and
times them here; nothing under ``src/`` is changed.  A span is one call
into a wrapped function: its layer name, start, end, and the span that was
open on the same thread when it started (its parent).  A span's *self*
time is its duration minus the time its child spans cover.  A call into a
layer that is already open on the same thread (a wrapped function calling
another function of the same layer) is charged to the outer span, so a
layer's time is never counted twice.

Where a module binds a function with ``from ... import``, the binding in
the calling module is wrapped too (see :data:`FUNCTION_PROBES`); methods
are wrapped on their class, which covers every caller.

The UDF's black box is timed by :class:`TimedBlackBox`, a proxy placed in
front of the function the UDF object calls.  Async black boxes interleave
on one event-loop thread, so their waits are recorded as flat intervals
rather than as part of a span tree.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

import numpy as np

#: ``(module, function name, layer)``: module-level functions, wrapped in
#: the defining module and at every ``from ... import`` call site.  The GP
#: keeps an explicit inverse, so ``gp.linalg`` has no solve to wrap.
FUNCTION_PROBES = (
    ("repro.gp.linalg", "jittered_cholesky", "gp.linalg"),
    ("repro.gp.linalg", "inverse_from_cholesky", "gp.linalg"),
    ("repro.gp.linalg", "block_inverse_update", "gp.linalg"),
    ("repro.gp.linalg", "block_inverse_update_multi", "gp.linalg"),
    ("repro.gp.training", "fit_hyperparameters", "gp.train"),
    ("repro.core.error_bounds", "gp_discrepancy_bound", "bound"),
    ("repro.core.error_bounds", "gp_discrepancy_bound_block", "bound"),
    ("repro.core.error_bounds", "combine_bounds", "bound"),
    ("repro.core.local_inference", "global_inference", "local_inference.block"),
    ("repro.core.local_inference", "global_inference_cached", "local_inference.block"),
    ("repro.core.local_inference", "global_inference_cached_block", "local_inference.block"),
    ("repro.distributions.columns", "sample_stacked", "sampling"),
)

#: Modules whose ``from ... import`` bindings of the functions above are
#: rewired to the wrapped versions.
CALL_SITE_MODULES = (
    "repro.gp.regression",
    "repro.core.local_inference",
    "repro.core.emulator",
    "repro.core.retraining",
    "repro.core.olgapro",
    "repro.engine.batch",
    "repro.engine.pipeline",
    "repro.engine.async_exec",
)

#: ``(module, class, method, layer)``: methods wrapped on their class.
METHOD_PROBES = (
    ("repro.engine.plan", "ExecutionPlan", "resolve", "plan"),
    ("repro.engine.plan", "ExecutionPlan", "auto", "plan"),
    ("repro.engine.batch", "BatchExecutor", "compute_batch", "executor"),
    ("repro.engine.batch", "BatchExecutor", "compute_batch_with_predicate", "executor"),
    ("repro.engine.async_exec", "AsyncRefinementExecutor", "compute_batch", "executor"),
    ("repro.engine.async_exec", "AsyncRefinementExecutor",
     "compute_batch_with_predicate", "executor"),
    ("repro.engine.pipeline", "PipelinedExecutor", "compute_batch", "executor"),
    ("repro.engine.pipeline", "PipelinedExecutor", "compute_batch_with_predicate", "executor"),
    ("repro.engine.parallel", "ParallelExecutor", "compute_batch", "executor"),
    ("repro.engine.parallel", "ParallelExecutor", "compute_batch_with_predicate", "executor"),
    ("repro.core.local_inference", "LocalInferenceEngine", "predict", "local_inference.predict"),
    ("repro.core.local_inference", "LocalInferenceEngine", "predict_multi",
     "local_inference.predict"),
    ("repro.core.local_inference", "LocalInferenceEngine", "predict_cached",
     "local_inference.block"),
    ("repro.core.local_inference", "LocalInferenceEngine", "predict_cached_block",
     "local_inference.block"),
    ("repro.index.rtree", "RTree", "search_within_distance", "index.search"),
    ("repro.index.rtree", "RTree", "search_box", "index.search"),
    ("repro.index.rtree", "RTree", "nearest", "index.search"),
    ("repro.index.rtree", "RTree", "insert", "index.insert"),
    ("repro.index.rtree", "RTree", "bulk_load", "index.insert"),
    ("repro.gp.regression", "GaussianProcess", "add_point", "gp.add_points"),
    ("repro.gp.regression", "GaussianProcess", "add_points", "gp.add_points"),
    ("repro.gp.regression", "GaussianProcess", "fit", "gp.factorize"),
    ("repro.gp.regression", "GaussianProcess", "set_hyperparameters", "gp.factorize"),
    # The input distributions the workloads generate.
    ("repro.distributions.continuous", "Gaussian", "sample", "sampling"),
    ("repro.distributions.continuous", "TruncatedGaussian", "sample", "sampling"),
    ("repro.distributions.multivariate", "IndependentJoint", "sample", "sampling"),
    ("repro.core.shared_model", "EmulatorSync", "publish", "model_sync"),
    ("repro.core.shared_model", "EmulatorSync", "refresh", "model_sync"),
    ("repro.core.shared_model", "EmulatorSync", "sync", "model_sync"),
    ("repro.core.shared_model", "EmulatorSync", "seed", "model_sync"),
    ("repro.core.shared_model", "EmulatorSync", "seed_or_wait", "model_sync"),
    ("repro.core.shared_model", "EmulatorSync", "publish_hyperparameters", "model_sync"),
)

#: Chunk entry points of OLGAPRO: one call per evaluation chunk, whichever
#: executor drives it (counted, not timed — the executor span times it).
CHUNK_METHODS = ("process_batch", "begin_chunk")


def row_keys(X: Any) -> list[bytes]:
    """Byte keys of the evaluated rows, comparable with training rows."""
    rows = np.atleast_2d(np.asarray(X, dtype=float))
    return [np.ascontiguousarray(row).tobytes() for row in rows]


class LayerTrace:
    """Span tree and counters for one traced run (thread-safe)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        #: ``(start, end)`` of spans with no parent on their thread.
        self.top_intervals: list = []
        #: Byte keys of every row the black boxes were called on.
        self.evaluated_rows: list = []
        self._submitted: dict = {}
        self.queue_waits: list = []
        self._patches: list = []

    # -- recording --------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, start: float, end: float, self_time: float,
                top: bool) -> None:
        with self._lock:
            self.calls[layer] += 1
            self.seconds[layer] += end - start
            self.self_seconds[layer] += self_time
            if top:
                self.top_intervals.append((start, end))

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counters[name] += amount

    def observe_max(self, name: str, value: float) -> None:
        """Keep the largest ``value`` seen under ``name``."""
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def record_interval(self, layer: str, start: float, end: float) -> None:
        """A flat span (no tree): used for interleaved async waits."""
        self._record(layer, start, end, end - start, top=True)

    def wrap(self, layer: str, fn: Callable, before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span of ``layer``.

        ``before(args, kwargs)`` runs just before the call and its value is
        handed to ``after(args, kwargs, result, value)`` once the call has
        returned; both run only for the outermost span of the layer.
        """
        trace = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = trace._stack()
            if any(frame[0] == layer for frame in stack):
                return fn(*args, **kwargs)
            probe = before(args, kwargs) if before is not None else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                trace._record(layer, start, end, end - start - frame[1], top=not stack)
            if after is not None:
                after(args, kwargs, result, probe)
            return result

        return traced

    # -- patching ---------------------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_method(self, cls: type, name: str, layer: str, **hooks) -> None:
        """Wrap ``cls.name`` (plain method or classmethod) as ``layer``."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            self._set(cls, name, classmethod(self.wrap(layer, raw.__func__, **hooks)))
        else:
            self._set(cls, name, self.wrap(layer, raw, **hooks))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- service hooks ----------------------------------------------------------
    def note_submit(self, engine: Any) -> None:
        """Start the queue-wait clock of the query that owns ``engine``."""
        with self._lock:
            self._submitted[id(engine)] = time.perf_counter()

    def note_first_evaluation(self, engine: Any) -> None:
        """Stop the queue-wait clock when ``engine`` starts evaluating."""
        with self._lock:
            started = self._submitted.pop(id(engine), None)
            if started is not None:
                self.queue_waits.append(time.perf_counter() - started)


def install(trace: LayerTrace) -> None:
    """Wrap every probe listed above into ``trace``."""
    wrapped: dict = {}
    for module_name, function_name, layer in FUNCTION_PROBES:
        module = importlib.import_module(module_name)
        original = module.__dict__[function_name]
        replacement = trace.wrap(layer, original)
        wrapped[id(original)] = replacement
        trace._set(module, function_name, replacement)
    for module_name in CALL_SITE_MODULES:
        module = importlib.import_module(module_name)
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrapped:
                trace._set(module, name, wrapped[id(value)])

    def executor_before(args, kwargs):
        engine = getattr(args[0], "engine", None)
        if engine is not None:
            trace.note_first_evaluation(engine)

    def factorizations_before(args, kwargs):
        return args[0].factorization_count

    def factorizations_after(args, kwargs, result, before):
        trace.count("gp.factorizations", args[0].factorization_count - before)

    def sync_before(args, kwargs):
        return args[0].published_rows, args[0].absorbed_rows

    def sync_after(args, kwargs, result, before):
        trace.count("model_sync.published", args[0].published_rows - before[0])
        trace.count("model_sync.absorbed", args[0].absorbed_rows - before[1])

    for module_name, class_name, method, layer in METHOD_PROBES:
        cls = getattr(importlib.import_module(module_name), class_name)
        hooks: dict = {}
        if layer == "executor":
            hooks = {"before": executor_before}
        elif layer in ("gp.add_points", "gp.factorize"):
            # The GP's own factorisation counter, read around each call.
            hooks = {"before": factorizations_before, "after": factorizations_after}
        elif layer == "model_sync":
            hooks = {"before": sync_before, "after": sync_after}
        trace.patch_method(cls, method, layer, **hooks)

    from repro.core.olgapro import OLGAPRO

    for method in CHUNK_METHODS:
        original = OLGAPRO.__dict__[method]

        def counted(*args, _original=original, **kwargs):
            # process_batch enters begin_chunk itself: count the outer call.
            depth = getattr(trace._local, "chunk_depth", 0)
            if depth == 0:
                trace.count("executor.chunks")
            trace._local.chunk_depth = depth + 1
            try:
                return _original(*args, **kwargs)
            finally:
                trace._local.chunk_depth = depth

        trace._set(OLGAPRO, method, functools.wraps(original)(counted))

    from repro.engine.service import QueryService

    original_submit = QueryService.__dict__["submit"]

    def submit(service, query, engine, *args, **kwargs):
        trace.note_submit(engine)
        handle = original_submit(service, query, engine, *args, **kwargs)
        trace.observe_max("service.inflight_max", service.active_count())
        return handle

    trace._set(QueryService, "submit", functools.wraps(original_submit)(submit))


class TimedBlackBox:
    """Proxy in front of a UDF's black box recording its wait and rows."""

    def __init__(self, inner: Callable, trace: LayerTrace) -> None:
        self.inner = inner
        self.trace = trace

    def __getattr__(self, name: str) -> Any:
        # Declared costs (``eval_time`` / ``latency``) stay visible to the
        # catalog, so the traced UDF auto-plans exactly like the bare one.
        return getattr(self.inner, name)

    def __call__(self, X):
        start = time.perf_counter()
        try:
            return self.inner(X)
        finally:
            end = time.perf_counter()
            self._note(X, start, end, tree=True)

    def _note(self, X, start: float, end: float, tree: bool) -> None:
        trace = self.trace
        keys = row_keys(X)
        with trace._lock:
            trace.evaluated_rows.extend(keys)
        if not tree:
            trace.record_interval("udf", start, end)
            return
        stack = trace._stack()
        if stack:
            stack[-1][1] += end - start
        trace._record("udf", start, end, end - start, top=not stack)


class TimedAsyncBlackBox(TimedBlackBox):
    """:class:`TimedBlackBox` for a coroutine black box."""

    async def __call__(self, x):
        start = time.perf_counter()
        try:
            return await self.inner(x)
        finally:
            self._note(x, start, time.perf_counter(), tree=False)


def attach_black_box(udf: Any, trace: LayerTrace) -> None:
    """Put a timing proxy in front of ``udf``'s black box.

    :class:`~repro.udf.base.AsyncUDF` keeps its coroutine black box in
    ``_coro_func``; every other UDF keeps a plain callable in ``_func``.
    """
    if hasattr(udf, "_coro_func"):
        udf._coro_func = TimedAsyncBlackBox(udf._coro_func, trace)
    else:
        udf._func = TimedBlackBox(udf._func, trace)


def covered_seconds(intervals: list) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
