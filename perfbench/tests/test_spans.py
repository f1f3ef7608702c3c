import asyncio
import contextlib
import threading
import time

import spans
from spans import BUSY_TIME, COUNT, SELF, WALL


def span(sid, parent, name, start, end, op="a", busy=None):
    return (sid, parent, name, start, end,
            end - start if busy is None else busy, op)


def test_union_merges_overlaps_and_clips():
    assert spans.union_ns([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert spans.union_ns([(-5, 5), (95, 120)], 0, 100) == 10
    assert spans.union_ns([], 0, 100) == 0
    assert spans.union_ns([(10, 20), (12, 18)], 0, 100) == 10


def test_self_time_subtracts_children_once():
    recorded = [
        span(1, 0, "outer", 0, 100),
        span(2, 1, "child", 10, 30),
        span(3, 1, "child", 20, 50),      # overlaps the first child
        span(4, 2, "grandchild", 12, 18),  # only its parent is charged
    ]
    selfs = spans.self_times(recorded)
    assert selfs == {1: 60, 2: 14, 3: 30, 4: 6}
    # Self time plus covered time is the whole span.
    assert selfs[1] + spans.union_ns([(10, 30), (20, 50)], 0, 100) == 100


def test_per_op_medians_and_counts():
    recorded = [
        span(1, 0, "layer", 0, 2_000_000, op="x"),
        span(2, 0, "layer", 0, 4_000_000, op="x"),
        span(3, 0, "layer", 0, 1_000_000, op="y"),
        span(4, 0, "layer", 0, 9_000_000, op=None),  # outside any op
    ]
    selfs = spans.self_times(recorded)
    assert spans.per_op(recorded, selfs, "layer", WALL) == \
        {"x": 6_000_000, "y": 1_000_000}
    assert spans.per_op(recorded, selfs, "layer", COUNT) == {"x": 2, "y": 1}
    metrics = spans.layer_metrics(recorded, selfs, {
        "layer_ms": ("layer", SELF, 1e-6),
        "layer_count": ("layer", COUNT, 1),
        "absent_ms": ("absent", SELF, 1e-6),
    })
    assert metrics == {"layer_ms": 3.5, "layer_count": 1.5,
                       "absent_ms": 0.0}


def test_wrap_records_nesting_ops_and_exceptions():
    recorder = spans.SpanRecorder()

    def leaf():
        return "leaf"
    leaf = recorder.wrap("leaf", leaf)

    def root(op):
        leaf()
        leaf()
        if op == "bad":
            raise ValueError(op)
        return op
    root = recorder.wrap("root", root, op_of=lambda args: args[0])

    assert root("cell-1") == "cell-1"
    with contextlib.suppress(ValueError):
        root("bad")
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s[spans.NAME], []).append(s)
    roots = {s[spans.SID]: s for s in by_name["root"]}
    assert [s[spans.OP] for s in by_name["root"]] == ["cell-1", "bad"]
    for s in by_name["leaf"]:
        assert s[spans.PARENT] in roots
        assert s[spans.OP] == roots[s[spans.PARENT]][spans.OP]
    assert all(s[spans.PARENT] == 0 for s in by_name["root"])


def test_threads_keep_separate_parent_stacks():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))

    def outer(op):
        inner()
    outer = recorder.wrap("outer", outer, op_of=lambda args: args[0])
    threads = [threading.Thread(target=outer, args=(f"t{i}",))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    outers = {s[spans.SID]: s[spans.OP] for s in recorder.spans
              if s[spans.NAME] == "outer"}
    for s in recorder.spans:
        if s[spans.NAME] == "inner":
            assert outers[s[spans.PARENT]] == s[spans.OP]


def test_async_busy_time_excludes_waiting_and_tasks_do_not_mix():
    recorder = spans.SpanRecorder()

    async def work(op):
        await asyncio.sleep(0.05)
        return op
    work = recorder.wrap_async("work", work, op_of=lambda args: args[0])

    class Queue:
        @contextlib.asynccontextmanager
        async def slot(self):
            await asyncio.sleep(0.02)
            yield
    Queue.slot = recorder.wrap_enter("wait", Queue.slot)

    async def request(op):
        async with Queue().slot():
            return await work(op)
    request = recorder.wrap_async("request", request,
                                  op_of=lambda args: args[0])

    async def main():
        return await asyncio.gather(request("a"), request("b"))
    assert asyncio.run(main()) == ["a", "b"]

    rows = {(s[spans.NAME], s[spans.OP]): s for s in recorder.spans}
    for op in "ab":
        req, work_span, wait = (rows[("request", op)], rows[("work", op)],
                                rows[("wait", op)])
        assert work_span[spans.PARENT] == req[spans.SID]
        assert wait[spans.PARENT] == req[spans.SID]
        assert work_span[spans.END] - work_span[spans.START] >= 45_000_000
        assert work_span[spans.BUSY] < 10_000_000
        assert wait[spans.END] - wait[spans.START] >= 15_000_000
    selfs = spans.self_times(recorder.spans)
    per_op = spans.per_op(recorder.spans, selfs, "work", BUSY_TIME)
    assert set(per_op) == {"a", "b"}


def test_echo_of_body():
    assert spans.echo_of_body(b'{"echo":"miss:1:7","tenant":"t"}') == \
        "miss:1:7"
    assert spans.echo_of_body(b'{"tenant":"t"}') is None
