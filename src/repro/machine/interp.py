"""The cycle-counting IR interpreter.

This is the measurement substrate standing in for the paper's Alpha 21164:
it executes IR functions (and dynamically generated region code) while
charging deterministic cycle costs from a :class:`CostModel` plus
I-cache-footprint penalties from an :class:`ICacheModel`.

Cycle accounts
--------------

``stats.cycles``
    everything executed, including dispatch costs charged by the runtime.
``stats.dc_cycles``
    dynamic-compilation (specialization) overhead, charged by the runtime;
    *excluded* from ``cycles`` so asymptotic speedups can be computed the
    way the paper defines them (§4.2).
``stats.scope_cycles[name]``
    inclusive cycles attributed to tracked scopes (the dynamically
    compiled functions of Table 1), used for dynamic-region timings and
    Table 4's percent-of-execution measurements.

Execution backends
------------------

Two counted backends execute the same IR with **bit-identical**
accounting:

``backend="reference"``
    the per-instruction interpreter below — the executable specification.
``backend="threaded"``
    :mod:`repro.machine.threaded` — a direct-threaded translation of
    each block to one Python function, built from a code template
    compiled once per block shape, with cost-model lookups and operand
    decoding folded in at translation time.  Several times faster; used
    by the evaluation harness for large sweeps.

``backend="threaded_fast"`` is the threaded backend uncounted: its
blocks drop their cycle charges and keep only the instruction count and
step-limit test, for wall-clock runs.

Both counted backends charge cycles with the same *segment* discipline:
costs of a straight-line run of instructions (a block, or a block prefix
up to a ``Call``) are summed locally and committed to ``stats.cycles``
in one addition at the segment boundary.  Keeping the float-addition
order identical is what makes the two backends' ``ExecutionStats``
byte-equal.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import dataclass, field

from repro.errors import MachineError, TrapError
from repro.ir.eval import eval_binop, eval_unop
from repro.ir.function import Function, Module
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    EnterRegion,
    ExitRegion,
    Imm,
    Jump,
    Load,
    MakeDynamic,
    MakeStatic,
    Move,
    Operand,
    Promote,
    Reg,
    Return,
    Store,
    UnOp,
)
from repro.ir.memory import Memory
from repro.machine.costs import (
    ALPHA_21164,
    CostModel,
    binop_terms,
    flat_term,
    move_terms,
)
from repro.machine.icache import ICacheModel
from repro.machine.intrinsics import INTRINSICS

#: Recursion headroom for nested IR calls: each IR-level call nests several
#: Python frames, so the machine's own depth guard must fire before
#: CPython's recursion limit does.
_RECURSION_HEADROOM = 20_000


class _RecursionHeadroom:
    """Holds the process recursion limit at ``_RECURSION_HEADROOM`` or
    above while any machine executes, and restores it after.

    The limit is process-wide and the serve executor runs machines on
    several threads at once, so entries are counted under a lock: the
    first outermost entry saves the limit and raises it, the last one
    out puts it back.  ``Machine.run`` enters once per run, not per call.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        #: The limit to restore, or None when it was high enough.
        self._saved: int | None = None

    def __enter__(self) -> None:
        with self._lock:
            if self._active == 0:
                limit = sys.getrecursionlimit()
                if limit < _RECURSION_HEADROOM:
                    sys.setrecursionlimit(_RECURSION_HEADROOM)
                    self._saved = limit
            self._active += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._saved is not None:
                sys.setrecursionlimit(self._saved)
                self._saved = None


_recursion_headroom = _RecursionHeadroom()


#: Execution backends accepted by :class:`Machine`: the two counted
#: ones, then threaded uncounted, which drops each block's cycle charge
#: and keeps its instruction count and step-limit test.
BACKENDS = ("reference", "threaded", "threaded_fast")

#: The backends that charge every block's cycles, and so give
#: byte-identical ``ExecutionStats``.
COUNTED_BACKENDS = ("reference", "threaded")


@dataclass
class ExecutionStats:
    """Cycle and instruction accounting for one machine."""

    cycles: float = 0.0
    instructions: int = 0
    dc_cycles: float = 0.0
    dispatch_cycles: float = 0.0
    dispatches: int = 0
    scope_cycles: dict[str, float] = field(default_factory=dict)
    scope_entries: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> "ExecutionStats":
        return ExecutionStats(
            cycles=self.cycles,
            instructions=self.instructions,
            dc_cycles=self.dc_cycles,
            dispatch_cycles=self.dispatch_cycles,
            dispatches=self.dispatches,
            scope_cycles=dict(self.scope_cycles),
            scope_entries=dict(self.scope_entries),
        )


class Machine:
    """Executes IR with cycle accounting.

    Parameters
    ----------
    module:
        The program to execute.
    memory:
        Data memory (shared with the host harness, which preallocates
        workload inputs).
    runtime:
        The dynamic-compilation runtime, consulted for ``EnterRegion`` and
        ``Promote`` terminators.  ``None`` for purely static programs.
    tracked:
        Names of functions whose inclusive cycles should be attributed in
        ``stats.scope_cycles`` (the paper's dynamic-region timings).
    backend:
        ``"reference"`` (per-instruction interpreter), ``"threaded"``
        (direct-threaded block templates; same stats, much faster) or
        ``"threaded_fast"`` (threaded without per-block cycle charges,
        for wall-clock runs; ``stats.instructions`` and the step limit
        are kept exactly).
    """

    def __init__(
        self,
        module: Module,
        memory: Memory | None = None,
        cost_model: CostModel = ALPHA_21164,
        icache: ICacheModel | None = None,
        runtime=None,
        tracked: frozenset[str] | set[str] = frozenset(),
        step_limit: int = 500_000_000,
        backend: str = "reference",
    ) -> None:
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.costs = cost_model
        self.icache = icache if icache is not None else ICacheModel()
        self.runtime = runtime
        self.tracked = frozenset(tracked)
        self.step_limit = step_limit
        #: Optional value profiler (see repro.autoannotate): an object
        #: with enter(name, args, cycles) / leave(name, cycles) hooks.
        self.profiler = None
        self.stats = ExecutionStats()
        self.output: list = []
        self._active_scopes: dict[str, int] = {}
        #: tracked scope name -> stats.cycles at outermost entry.
        self._scope_entry_cycles: dict[str, float] = {}
        self._call_depth = 0
        self._max_call_depth = 200
        if backend not in BACKENDS:
            raise MachineError(
                f"unknown backend {backend!r} (expected one of {BACKENDS})"
            )
        self.backend = backend
        if backend != "reference":
            # Imported here so the reference interpreter has no load-time
            # dependency on its replacement.
            from repro.machine.threaded import ThreadedBackend

            self._backend = ThreadedBackend(self)
        else:
            self._backend = None
        #: ``host_loop(function)`` -> ``run(frame)``: the machine's own
        #: host tier, bound once.  Host functions are statically
        #: compiled, so their instruction costs are scaled by the static
        #: scheduling factor; dynamically generated region code (see
        #: :attr:`exec_region_code`) is not.
        self._host_loop = (
            self._backend.host_loop if self._backend is not None
            else self._reference_host_loop
        )
        #: ``exec_region_code(code, env, footprint)`` runs dynamically
        #: generated region code in the host env, bound once like the
        #: host tier.  Region code shares the host frame's environment
        #: (DyC allocates registers seamlessly across region boundaries,
        #: §2.1).  It returns ``("exit", index)`` when the region
        #: resumes host code at exit ``index``, or ``("return", value)``
        #: when the region executed a host-level ``Return``; ``Promote``
        #: terminators re-enter the runtime for lazy multi-stage
        #: specialization.
        self.exec_region_code = (
            self._backend.exec_region_code if self._backend is not None
            else self._exec_region_interp
        )
        #: id(function) -> (function, its call entry); see
        #: :meth:`bind_call`.  Entries hold their Function, so a cached
        #: id cannot be recycled by a different object.
        self._calls: dict[int, tuple] = {}
        #: id(EnterRegion) -> (instr, its dispatch); see
        #: :meth:`bind_entry` (same strong-reference guarantee).
        self._entries: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Cycle accounting
    # ------------------------------------------------------------------

    def charge(self, cycles: float) -> None:
        """Add execution cycles.

        Attribution to tracked scopes happens by cycle-counter snapshot
        deltas at scope exit (see :meth:`bind_call`), so this hot path
        is a single addition.
        """
        self.stats.cycles += cycles

    def charge_dispatch(self, cycles: float) -> None:
        """Dispatch overhead counts as execution time (it recurs)."""
        self.stats.dispatch_cycles += cycles
        self.stats.dispatches += 1
        self.stats.cycles += cycles

    def charge_dc(self, cycles: float) -> None:
        """Dynamic-compilation overhead: a separate account (§4.2)."""
        self.stats.dc_cycles += cycles

    def _commit(self, cycles: float, instructions: int) -> None:
        """Commit one straight-line segment's accumulated charges.

        Every backend calls this (or inline exactly this sequence) at
        segment boundaries; the step limit is enforced with segment
        granularity, which is sufficient because any loop crosses a
        segment boundary on every iteration.  The limit is tested
        against ``stats.instructions``, the one step counter.
        """
        self.stats.cycles += cycles
        self.stats.instructions += instructions
        if self.stats.instructions > self.step_limit:
            raise MachineError(
                f"step limit {self.step_limit} exceeded (infinite loop?)"
            )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, name: str, *args):
        """Call a module function from the harness and return its result.

        The process recursion limit is raised for the run's duration only
        (see :class:`_RecursionHeadroom`).
        """
        with _recursion_headroom:
            return self.call(name, list(args))

    def call(self, name: str, args: list):
        if name in self.module.functions:
            return self._call_function(self.module.functions[name], args)
        intrinsic = INTRINSICS.get(name)
        if intrinsic is None:
            raise MachineError(f"call to unknown function {name!r}")
        self.charge(self.costs.intrinsic_cost(name))
        return intrinsic.fn(self, args)

    def _call_function(self, function: Function, args: list):
        """Run a module function by reference.  ``call`` is the by-name
        path (harness entry, intrinsics, and names nothing defines);
        translated host code binds its call sites with
        :meth:`bind_call` instead."""
        if len(args) != len(function.params):
            raise MachineError(
                f"{function.name}() takes {len(function.params)} args, "
                f"got {len(args)}"
            )
        return self.bind_call(function)(dict(zip(function.params, args)))

    def bind_call(self, function: Function):
        """The entry every call of ``function`` runs on this machine:
        ``enter(frame) -> result``, built once per callee.

        ``frame`` is the callee's new register file, parameters bound;
        the caller has checked the arity.  The entry is the whole call
        bookkeeping: the depth guard, the tracked-scope attribution,
        ``call_overhead`` and the profiler hooks, around the callee's
        loop on the machine's own host tier.  A refused over-deep call
        holds no frame.
        """
        bound = self._calls.get(id(function))
        if bound is not None and bound[0] is function:
            return bound[1]
        name = function.name
        params = function.params
        tracked = name in self.tracked
        run = self._host_loop(function)

        def enter(frame, _m=self, _stats=self.stats, _run=run,
                  _overhead=self.costs.call_overhead, _name=name,
                  _tracked=tracked, _active=self._active_scopes,
                  _entry_cycles=self._scope_entry_cycles):
            # Checked before the increment: a refused call holds no frame.
            if _m._call_depth >= _m._max_call_depth:
                raise MachineError("call depth exceeded")
            _m._call_depth += 1
            if _tracked:
                depth = _active.get(_name, 0)
                if depth == 0:
                    # Outermost entry: snapshot the cycle counter; the
                    # whole delta is attributed once, at the matching exit.
                    _entry_cycles[_name] = _stats.cycles
                _active[_name] = depth + 1
                entries = _stats.scope_entries
                entries[_name] = entries.get(_name, 0) + 1
            _stats.cycles += _overhead
            profiler = _m.profiler
            if profiler is not None:
                # Parameters are distinct (the IR validator rejects
                # duplicates), so the frame gives back the argument list.
                profiler.enter(_name, [frame[p] for p in params],
                               _stats.cycles)
            try:
                return _run(frame)
            finally:
                if profiler is not None:
                    profiler.leave(_name, _stats.cycles)
                if _tracked:
                    depth = _active[_name] - 1
                    if depth:
                        _active[_name] = depth
                    else:
                        del _active[_name]
                        delta = _stats.cycles - _entry_cycles.pop(_name)
                        scopes = _stats.scope_cycles
                        scopes[_name] = scopes.get(_name, 0.0) + delta
                _m._call_depth -= 1

        self._calls[id(function)] = (function, enter)
        return enter

    def bind_entry(self, instr: EnterRegion):
        """The dispatch every execution of ``instr`` runs on this
        machine: ``dispatch(env) -> ("jump", label) | ("return", v)``,
        bound by the runtime (``DycRuntime.bind_entry``) at the first
        dispatch and kept per instruction.  The threaded host loop
        dispatches through it; the reference interpreter calls
        ``runtime.enter_region`` on every dispatch, as the oracle.
        """
        bound = self._entries.get(id(instr))
        if bound is not None and bound[0] is instr:
            return bound[1]
        if self.runtime is None:
            raise MachineError(
                "EnterRegion executed without a runtime attached"
            )
        dispatch = self.runtime.bind_entry(self, instr)
        self._entries[id(instr)] = (instr, dispatch)
        return dispatch

    # ------------------------------------------------------------------
    # Execution core
    # ------------------------------------------------------------------

    def _reference_host_loop(self, function: Function):
        return functools.partial(self._exec_function_interp, function)

    def _exec_function_interp(self, function: Function, env: dict):
        """Reference-interpreter host loop: execute a host function until
        Return, handling EnterRegion.  It computes the I-cache penalty
        on every call, as the oracle the threaded backend's per-machine
        bindings are checked against."""
        penalty = self.icache.per_instruction_penalty(
            function.instruction_count()
        )
        scale = self.costs.static_schedule_factor
        label = function.entry
        while True:
            outcome = self._exec_block(
                function.blocks[label], env, penalty, scale
            )
            kind, payload = outcome
            if kind == "jump":
                label = payload
            elif kind == "return":
                return payload
            elif kind == "enter_region":
                instr = payload
                if self.runtime is None:
                    raise MachineError(
                        "EnterRegion executed without a runtime attached"
                    )
                outcome, value = self.runtime.enter_region(
                    self, instr, env
                )
                if outcome == "return":
                    # A Return inside the region returns from the host.
                    return value
                label = value
            else:  # pragma: no cover - defensive
                raise MachineError(f"unexpected block outcome {kind!r}")

    def _exec_region_interp(self, code: Function, env: dict,
                            footprint: int) -> tuple[str, object]:
        """Reference-interpreter region loop.  It computes the I-cache
        penalty on every entry, as the oracle the threaded backend's
        per-code-version bindings are checked against."""
        label = code.entry
        penalty = self.icache.per_instruction_penalty(footprint)
        while True:
            kind, payload = self._exec_block(
                code.blocks[label], env, penalty, 1.0
            )
            if kind == "jump":
                label = payload
            elif kind in ("exit", "return"):
                return (kind, payload)
            elif kind == "promote":
                label = self.runtime.promote(self, payload, env, code)
            else:  # pragma: no cover - defensive
                raise MachineError(
                    f"unexpected outcome {kind!r} in region code"
                )

    def _exec_block(self, block, env: dict, penalty: float,
                    scale: float):
        """Execute one block; return ('jump', label) / ('return', v) / ...

        Charges follow the shared base/extra discipline (see
        :mod:`repro.machine.costs`): per segment, the type-independent
        base terms are summed in instruction order into ``acc``, the
        float-operand extras in occurrence order into ``extra``, and the
        segment commits ``acc + extra`` in one addition — the exact float
        computation the threaded backend performs with ``acc`` folded at
        translation time.
        """
        costs = self.costs
        memory = self.memory
        acc = 0.0
        extra = 0.0
        count = 0
        for instr in block.instrs:
            cls = type(instr)
            if cls is BinOp:
                lhs = self._value(instr.lhs, env)
                rhs = self._value(instr.rhs, env)
                base, fp_extra = binop_terms(
                    costs, instr.op.value, scale, penalty
                )
                acc += base
                if type(lhs) is float or type(rhs) is float:
                    extra += fp_extra
                count += 1
                env[instr.dest] = eval_binop(instr.op, lhs, rhs)
            elif cls is Move:
                value = self._value(instr.src, env)
                if type(instr.src) is Imm:
                    acc += flat_term(
                        costs.materialize_cost(type(value) is float),
                        scale, penalty,
                    )
                else:
                    base, fp_extra = move_terms(costs, scale, penalty)
                    acc += base
                    if type(value) is float:
                        extra += fp_extra
                count += 1
                env[instr.dest] = value
            elif cls is Load:
                addr = self._value(instr.addr, env)
                acc += flat_term(costs.load, scale, penalty)
                count += 1
                env[instr.dest] = memory.load(addr)
            elif cls is Store:
                addr = self._value(instr.addr, env)
                value = self._value(instr.value, env)
                acc += flat_term(costs.store, scale, penalty)
                count += 1
                memory.store(addr, value)
            elif cls is UnOp:
                src = self._value(instr.src, env)
                base, fp_extra = binop_terms(costs, "alu", scale, penalty)
                acc += base
                if type(src) is float:
                    extra += fp_extra
                count += 1
                env[instr.dest] = eval_unop(instr.op, src)
            elif cls is Call:
                count += 1
                self._commit(acc + extra, count)
                acc = 0.0
                extra = 0.0
                count = 0
                args = [self._value(a, env) for a in instr.args]
                result = self.call(instr.callee, args)
                if instr.dest is not None:
                    env[instr.dest] = result
            elif cls is Jump:
                acc += flat_term(costs.jump, scale, penalty)
                count += 1
                self._commit(acc + extra, count)
                return ("jump", instr.target)
            elif cls is Branch:
                cond = self._value(instr.cond, env)
                acc += flat_term(costs.branch, scale, penalty)
                count += 1
                self._commit(acc + extra, count)
                return ("jump", instr.if_true if cond else instr.if_false)
            elif cls is Return:
                acc += flat_term(costs.return_cost, scale, penalty)
                count += 1
                self._commit(acc + extra, count)
                if instr.value is None:
                    return ("return", None)
                return ("return", self._value(instr.value, env))
            elif cls is MakeStatic or cls is MakeDynamic:
                # Annotations cost nothing and do nothing when executed;
                # the statically compiled configuration ignores them.
                pass
            elif cls is EnterRegion:
                count += 1
                self._commit(acc + extra, count)
                return ("enter_region", instr)
            elif cls is Promote:
                count += 1
                self._commit(acc + extra, count)
                return ("promote", instr)
            elif cls is ExitRegion:
                acc += flat_term(costs.jump, scale, penalty)
                count += 1
                self._commit(acc + extra, count)
                return ("exit", instr.index)
            else:  # pragma: no cover - defensive
                raise MachineError(
                    f"cannot execute {type(instr).__name__}"
                )
        self._commit(acc + extra, count)
        raise MachineError(
            f"block {block.label!r} fell through without a terminator"
        )

    @staticmethod
    def _value(operand: Operand, env: dict):
        if type(operand) is Reg:
            try:
                return env[operand.name]
            except KeyError:
                raise TrapError(
                    f"use of undefined variable {operand.name!r}"
                ) from None
        if type(operand) is Imm:
            return operand.value
        raise TrapError(f"cannot evaluate operand {operand!r}")
