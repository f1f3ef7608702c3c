"""Span recorder for the traced benchmark run.

A span is one call into a layer: ``(id, parent, name, start_ns, end_ns,
busy_ns, op)``.  Times come from ``time.perf_counter_ns``.  The parent is
the innermost open span of the same thread or asyncio task: the stack
lives in a :class:`contextvars.ContextVar`, and every thread and every
task has its own context, so interleaved requests on one event loop do
not adopt each other's spans.  ``op`` names the benchmark operation the
span belongs to (a Table 5 cell or a request's echo token); a wrapper
can set it for its children.

Spans stay in memory (one tuple append per span) and are written out
when the benchmark ends.  ``busy_ns`` equals the wall duration for
synchronous calls; for a coroutine it is the time spent executing the
coroutine's own steps, so a span around ``read_request`` does not count
the idle wait for the client's next request.

The wrappers are installed by monkey-patching the public functions of
the program from the benchmark's own files (see :func:`install_harness`
and :func:`install_serve`); nothing under ``src/`` knows about them.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import statistics
from time import perf_counter_ns

# Span tuple fields.
SID, PARENT, NAME, START, END, BUSY, OP = range(7)


class SpanRecorder:
    """Collects spans from wrapped callables (thread- and task-safe)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: (innermost open span id, op) of the running thread or task.
        self._current = contextvars.ContextVar("perfbench_span",
                                               default=(0, None))

    # -- synchronous callables -----------------------------------------

    def wrap(self, name, fn, op_of=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a callable of the call's positional
        arguments; ``op_of(args)`` may return the op for this span and
        its children.
        """
        record = self.spans.append
        current = self._current
        ids = self._ids
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, op = current.get()
            if op_of is not None:
                op = op_of(args) or op
            sid = next(ids)
            token = current.set((sid, op))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                current.reset(token)
                record((sid, parent, name_of(args) if name_of else name,
                        start, end, end - start, op))
        return wrapper

    # -- coroutine functions --------------------------------------------

    def wrap_async(self, name: str, fn, op_of=None, op_of_result=None):
        """Wrap a coroutine function; records wall and busy time.

        ``op_of_result(value)`` names the op from the awaited result,
        for calls (such as reading a request) that learn it only at
        the end.
        """
        record = self.spans.append
        current = self._current
        ids = self._ids

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent, op = current.get()
            if op_of is not None:
                op = op_of(args) or op
            sid = next(ids)
            token = current.set((sid, op))
            busy = [0]
            start = perf_counter_ns()
            result = None
            try:
                result = await _Stepped(fn(*args, **kwargs), busy)
                return result
            finally:
                end = perf_counter_ns()
                current.reset(token)
                if op_of_result is not None and result is not None:
                    op = op_of_result(result) or op
                record((sid, parent, name, start, end, busy[0], op))
        return wrapper

    def wrap_enter(self, name: str, factory):
        """Wrap a function returning an async context manager; the span
        covers only entering it (for example, waiting for a slot)."""
        recorder = self

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _TimedEnter(factory(*args, **kwargs), recorder, name)
        return wrapper

    def _enter_span(self, name: str, start: int, end: int) -> None:
        parent, op = self._current.get()
        self.spans.append((next(self._ids), parent, name, start, end,
                           end - start, op))


class _Stepped:
    """Awaitable that drives a coroutine and sums its step times."""

    __slots__ = ("_coro", "_busy")

    def __init__(self, coro, busy: list) -> None:
        self._coro = coro
        self._busy = busy

    def __await__(self):
        coro = self._coro
        value = exc = None
        while True:
            start = perf_counter_ns()
            try:
                signal = coro.send(value) if exc is None \
                    else coro.throw(exc)
            except StopIteration as stop:
                self._busy[0] += perf_counter_ns() - start
                return stop.value
            except BaseException:
                self._busy[0] += perf_counter_ns() - start
                raise
            self._busy[0] += perf_counter_ns() - start
            try:
                value, exc = (yield signal), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as err:  # delivered into the coroutine
                value, exc = None, err


class _TimedEnter:
    """Async context manager proxy timing only ``__aenter__``."""

    __slots__ = ("_cm", "_recorder", "_name")

    def __init__(self, cm, recorder: SpanRecorder, name: str) -> None:
        self._cm = cm
        self._recorder = recorder
        self._name = name

    async def __aenter__(self):
        start = perf_counter_ns()
        try:
            return await self._cm.__aenter__()
        finally:
            self._recorder._enter_span(self._name, start,
                                       perf_counter_ns())

    async def __aexit__(self, *exc_info):
        return await self._cm.__aexit__(*exc_info)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def _machine_run_name(args) -> str:
    machine = args[0]
    return ("machine.dynamic_run" if machine.runtime is not None
            else "machine.static_run")


def install_harness(recorder: SpanRecorder) -> None:
    """Wrap the layers inside ``run_workload`` and the Table 5 cell.

    ``runner`` imports ``compile_source``, ``compile_static`` and
    ``compile_annotated`` by name, so the wrappers replace those names
    in the runner module; ``Machine.run`` and the specializer entry
    points are class attributes.
    """
    from repro.evalharness import parallel, runner
    from repro.machine.interp import Machine
    from repro.runtime.specializer import Specializer

    runner.compile_source = recorder.wrap(
        "frontend.compile_source", runner.compile_source)
    runner.compile_static = recorder.wrap(
        "dyc.compile_static", runner.compile_static)
    runner.compile_annotated = recorder.wrap(
        "dyc.compile_annotated", runner.compile_annotated)
    Machine.run = recorder.wrap(_machine_run_name, Machine.run)
    for method in ("specialize_entry", "specialize_continuation",
                   "residualize_continuation"):
        setattr(Specializer, method, recorder.wrap(
            "runtime.specialize", getattr(Specializer, method)))
    parallel.run_workload = recorder.wrap(
        "evalharness.run_workload", parallel.run_workload)
    parallel._run_ablation_task = recorder.wrap(
        "evalharness.table5_cell", parallel._run_ablation_task,
        op_of=lambda args: f"{args[0][0]}/{args[0][1]}")


def echo_of_body(body: bytes) -> str | None:
    """The ``echo`` token of a ``POST /run`` body, without a JSON parse
    (the benchmark writes ``"echo":"..."`` with no spaces)."""
    at = body.find(b'"echo":"')
    if at < 0:
        return None
    at += 8
    return body[at:body.index(b'"', at)].decode("ascii")


def install_serve(recorder: SpanRecorder) -> None:
    """Wrap the daemon's request path (plus the harness layers).

    ``http`` looks up ``read_request``/``render_response`` and ``app``
    looks up ``run_workload``/``result_payload`` as module globals at
    call time, so replacing the module attributes reaches every call.
    """
    from repro.evalharness import runner
    from repro.serve import app, http
    from repro.serve.admission import AdmissionQueue
    from repro.serve.cache import ShardedResultCache

    install_harness(recorder)
    http.read_request = recorder.wrap_async(
        "serve.read_request", http.read_request,
        op_of_result=lambda request: echo_of_body(request[3]))
    http.render_response = recorder.wrap(
        "serve.render_response", http.render_response,
        op_of=lambda args: args[1].get("echo"))
    app.ServeApp.handle = recorder.wrap_async(
        "serve.handle", app.ServeApp.handle,
        op_of=lambda args: echo_of_body(args[3]))
    app.ServeApp._execute = recorder.wrap(
        "serve.execute", app.ServeApp._execute,
        op_of=lambda args: args[1].echo)
    app.run_workload = recorder.wrap(
        "evalharness.run_workload", runner.run_workload)
    app.result_payload = recorder.wrap(
        "serve.result_payload", app.result_payload)
    ShardedResultCache.get = recorder.wrap(
        "serve.cache_get", ShardedResultCache.get)
    ShardedResultCache.put = recorder.wrap(
        "serve.cache_put", ShardedResultCache.put)
    AdmissionQueue.slot = recorder.wrap_enter(
        "serve.admission_wait", AdmissionQueue.slot)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> wall duration minus the part its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append(
            (span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START]) - union_ns(
            children.get(span[SID], ()), span[START], span[END])
        for span in spans
    }


#: How a per-layer figure is read from a span.
WALL, SELF, BUSY_TIME, COUNT = "wall", "self", "busy", "count"


def per_op(spans, selfs: dict[int, int], name: str,
           quantity: str) -> dict:
    """Op -> summed ``quantity`` of the op's spans named ``name``."""
    totals: dict = {}
    for span in spans:
        if span[NAME] != name or span[OP] is None:
            continue
        if quantity == WALL:
            value = span[END] - span[START]
        elif quantity == SELF:
            value = selfs[span[SID]]
        elif quantity == BUSY_TIME:
            value = span[BUSY]
        else:
            value = 1
        totals[span[OP]] = totals.get(span[OP], 0) + value
    return totals


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


#: Per-layer metric -> (span name, quantity, scale from ns).  Each is
#: the median over ops of the per-op sum; counts are unscaled.
HARNESS_LAYERS = {
    "frontend.compile_source_ms": ("frontend.compile_source", SELF, 1e-6),
    "dyc.compile_static_ms": ("dyc.compile_static", SELF, 1e-6),
    "dyc.compile_annotated_ms": ("dyc.compile_annotated", SELF, 1e-6),
    "machine.static_run_ms": ("machine.static_run", SELF, 1e-6),
    "runtime.specialize_ms": ("runtime.specialize", SELF, 1e-6),
    "runtime.specializations": ("runtime.specialize", COUNT, 1),
    "machine.dynamic_exec_ms": ("machine.dynamic_run", SELF, 1e-6),
    "evalharness.run_workload_self_ms":
        ("evalharness.run_workload", SELF, 1e-6),
}
SERVE_LAYERS = {
    **HARNESS_LAYERS,
    "serve.read_request_ms": ("serve.read_request", BUSY_TIME, 1e-6),
    "serve.render_ms": ("serve.render_response", SELF, 1e-6),
    "serve.handle_ms": ("serve.handle", WALL, 1e-6),
    "serve.cache_get_us": ("serve.cache_get", SELF, 1e-3),
    "serve.cache_put_us": ("serve.cache_put", SELF, 1e-3),
    "serve.admission_wait_ms": ("serve.admission_wait", WALL, 1e-6),
    "serve.executor_ms": ("evalharness.run_workload", WALL, 1e-6),
    "serve.result_payload_ms": ("serve.result_payload", SELF, 1e-6),
}


def layer_metrics(spans, selfs, layers: dict) -> dict[str, float]:
    """Median per-op figure of every layer (0.0 where it never ran)."""
    out = {}
    for metric, (name, quantity, scale) in layers.items():
        totals = per_op(spans, selfs, name, quantity)
        value = median(totals.values())
        out[metric] = value if quantity == COUNT else value * scale
    return out
