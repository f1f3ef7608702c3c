"""Speed probe: a fixed piece of pure-Python work timed next to each op.

On a shared virtual host the CPU's speed for the same code drifts by up
to 1.6x over seconds (another tenant's load on the same physical core
or cache), and all Python code slows down alike.  The benchmark runs
this probe right before every op and once after the last one, on the
same CPU, and rescales each op's wall time by the probes around it::

    normalized_ms = raw_ms * REFERENCE_PROBE_MS / mean(probe before, probe after)

so an op is reported in milliseconds at the reference speed, the speed
at which the probe takes ``REFERENCE_PROBE_MS``.  On the host below,
``run_workload`` calls of chebyshev, m88ksim and query, timed in turn
for 100 s, varied 19-22% raw and 12% normalized (coefficient of
variation per kernel); medians of five consecutive calls varied 5%
normalized.  Two probes on each side instead of one did no better.

The probe is the benchmark's own code and never imports the program, so
a change to the program moves the normalized figures exactly as it
moves the raw ones.  It mixes what the program does most: an
instruction-dispatch loop over slotted objects and a register list,
tokenizing and tree building, building many small dicts and tuples, and
dict and string churn.  Without the records, the probe sped up more
than a chebyshev ``run_workload`` call in the host's fast phases (the
call's time against the probe's had a log-log slope of 0.86-0.95 in two
runs of two minutes); with them the slope was 0.91-1.0.
"""

from __future__ import annotations

import gc
import re
import time

#: The probe's time, in ms, at the reference speed: on an Intel Xeon
#: (2.0 GHz, 2 vCPUs, shared) with Python 3.11 it took about 8 ms in the
#: host's fast phases and 15 ms in its slow ones.  It fixes the unit
#: only: any constant would make the normalized figures as steady.
REFERENCE_PROBE_MS = 12.0


class _Ins:
    __slots__ = ("op", "a", "b", "c")

    def __init__(self, op: str, a: int, b: int, c: int):
        self.op, self.a, self.b, self.c = op, a, b, c


#: ``r1 = sum of mem[i] * mem[i]`` for ``i < r5``, storing partial sums.
_PROGRAM = [_Ins("li", 0, 0, 0), _Ins("li", 1, 0, 0), _Ins("li", 2, 1, 0),
            _Ins("ld", 3, 0, 0), _Ins("mul", 4, 3, 3),
            _Ins("add", 1, 1, 4), _Ins("add", 0, 0, 2),
            _Ins("st", 1, 0, 0), _Ins("blt", 0, 5, 3),
            _Ins("halt", 0, 0, 0)]


def _interpret(n: int) -> int:
    regs, mem, pc, steps = [0] * 8, {}, 0, 0
    regs[5] = n
    while True:
        ins = _PROGRAM[pc]
        op = ins.op
        steps += 1
        if op == "li":
            regs[ins.a] = ins.b
        elif op == "ld":
            regs[ins.a] = mem.get(regs[ins.b], 1)
        elif op == "mul":
            regs[ins.a] = regs[ins.b] * regs[ins.c]
        elif op == "add":
            regs[ins.a] = regs[ins.b] + regs[ins.c]
        elif op == "st":
            mem[regs[ins.b] & 255] = regs[ins.a] & 0xFFFF
        elif op == "blt":
            if regs[ins.a] < regs[ins.b]:
                pc = ins.c
                continue
        elif op == "halt":
            return regs[1] + steps
        pc += 1


_SOURCE = ("int f(int x, int y) { int s = 0; while (x < y) "
           "{ s = s + x * 3; x = x + 1; } return s; }\n") * 6
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(.))")


class _Node:
    __slots__ = ("kind", "text", "kids")

    def __init__(self, kind: str, text: str):
        self.kind, self.text, self.kids = kind, text, []


def _parse() -> int:
    root = _Node("root", "")
    stack, counts = [root], {}
    for match in _TOKEN.finditer(_SOURCE):
        if not match.lastindex:
            continue
        text = match.group(match.lastindex)
        kind = ("num" if text.isdigit() else
                "id" if text.isidentifier() else "punct")
        node = _Node(kind, text)
        stack[-1].kids.append(node)
        if text == "{":
            stack.append(node)
        elif text == "}":
            stack.pop()
        counts[(kind, text)] = counts.get((kind, text), 0) + 1

    def size(node: _Node) -> int:
        return 1 + sum(size(kid) for kid in node.kids)
    return size(root) + len(sorted(counts.items()))


def _churn(n: int) -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += len(str(i))
    return total


def _records(n: int) -> int:
    rows = []
    for i in range(n):
        rows.append({"op": i, "args": (i, i + 1), "name": "x%d" % (i & 63)})
    return len(rows)


def work() -> int:
    """The probe's work; returns a checksum so nothing is optimized away."""
    return (_interpret(4000) + _parse() + _records(5000)
            + _interpret(1500) + _churn(6000))


def _timed_ms(fn) -> float:
    # The probe makes no cycles, so the collector is off while it runs:
    # a collection of the program's garbage would land in the probe
    # instead of the program.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        fn()
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def probe_ms() -> float:
    """Run the probe once; its wall time in ms."""
    return _timed_ms(work)


def normalize(raw_ms: float, before_ms: float, after_ms: float) -> float:
    """``raw_ms`` at the reference speed, given the probes around it."""
    return raw_ms * 2.0 * REFERENCE_PROBE_MS / (before_ms + after_ms)

