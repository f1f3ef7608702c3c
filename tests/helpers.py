"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import hashlib

from repro.ir import Function, FunctionBuilder, Memory, Module, Op
from repro.machine import Machine

#: Test ids of ``repro.machine.BACKENDS``, in order, saying which ones
#: count block cycles.
BACKEND_IDS = ("reference-counted", "threaded-counted", "threaded-fast")


def run_function(function: Function, *args, memory: Memory | None = None,
                 module: Module | None = None):
    """Execute a lone function on a fresh machine; return (result, machine)."""
    if module is None:
        module = Module()
    if function.name not in module.functions:
        module.add_function(function)
    machine = Machine(module, memory=memory)
    result = machine.run(function.name, *args)
    return result, machine


def build_countdown(n_param: str = "n") -> Function:
    """``f(n): s=0; while n>0: s+=n; n-=1; return s`` — a loop fixture."""
    b = FunctionBuilder("countdown", (n_param,))
    b.move("s", 0)
    b.jump("head")
    b.label("head")
    b.binop("c", Op.GT, n_param, 0)
    b.branch("c", "body", "done")
    b.label("body")
    b.binop("s", Op.ADD, "s", n_param)
    b.binop(n_param, Op.SUB, n_param, 1)
    b.jump("head")
    b.label("done")
    b.ret("s")
    return b.finish()


def build_diamond() -> Function:
    """``f(x): if x then y=1 else y=2; return y+x`` — a branch fixture."""
    b = FunctionBuilder("diamond", ("x",))
    b.branch("x", "then", "else")
    b.label("then")
    b.move("y", 1)
    b.jump("join")
    b.label("else")
    b.move("y", 2)
    b.jump("join")
    b.label("join")
    b.binop("r", Op.ADD, "y", "x")
    b.ret("r")
    return b.finish()


def _canon(value):
    """Hash-order-independent rendering of nested run statistics.

    ``repr`` of a set (or a dict populated in hash order) of strings is
    not stable across processes — string hashing is randomized per
    interpreter — so every set is sorted and every dict is rendered as
    sorted item tuples before hashing.  Ints and floats pass through
    (``repr`` round-trips them exactly).
    """
    if isinstance(value, dict):
        return tuple(sorted(
            ((_canon(key), _canon(item)) for key, item in value.items()),
            key=repr))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_canon(item) for item in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    return value


def run_fingerprints(result) -> tuple[str, str]:
    """``(stats_sha256, results_sha256)`` over one run.

    The stats fingerprint covers every byte-identical-by-construction
    quantity a run measures (full per-region statistics, cycle totals,
    region cycle maps, degradations); the results fingerprint covers the
    verified program outputs.  ``repr`` round-trips ints and floats
    exactly, so these are byte-level fingerprints.
    """
    stats_part = (
        sorted((region_id, repr(_canon(dataclasses.asdict(stats))))
               for region_id, stats in result.region_stats.items()),
        result.static_total_cycles,
        result.dynamic_total_cycles,
        result.dc_cycles,
        sorted(result.static_region_cycles.items()),
        sorted(result.dynamic_region_cycles.items()),
        sorted(result.region_entries.items()),
        # The slots two removed backend degradation counters filled
        # (refused translations, then compilations), kept at 0 so that
        # pinned fingerprints stay as they were.
        0,
        0,
    )
    stats_fp = hashlib.sha256(
        repr(stats_part).encode("utf-8")).hexdigest()
    results_fp = hashlib.sha256(
        repr((result.outputs_match,
              result.return_values)).encode("utf-8")).hexdigest()
    return stats_fp, results_fp
