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

Two backends execute the same IR with **bit-identical** accounting:

``backend="reference"``
    the per-instruction interpreter below — the executable specification.
``backend="threaded"``
    :mod:`repro.machine.threaded` — a direct-threaded translation to
    chained Python closures with cost-model lookups and operand decoding
    folded in at translation time.  Several times faster; used by the
    evaluation harness for large sweeps.

Both backends charge cycles with the same *segment* discipline: costs of a
straight-line run of instructions (a block, or a block prefix up to a
``Call``) are summed locally and committed to ``stats.cycles`` in one
addition at the segment boundary.  Keeping the float-addition order
identical is what makes the two backends' ``ExecutionStats`` byte-equal.
"""

from __future__ import annotations

import sys
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

_recursion_guard_done = False


def _ensure_recursion_headroom() -> None:
    """Raise the process recursion limit once, the first time a machine is
    built.  A module-level one-shot guard: constructing machines is a hot
    path for the harness (two per workload run plus compile-time machines)
    and ``sys.setrecursionlimit`` mutates global interpreter state."""
    global _recursion_guard_done
    if _recursion_guard_done:
        return
    if sys.getrecursionlimit() < _RECURSION_HEADROOM:
        sys.setrecursionlimit(_RECURSION_HEADROOM)
    _recursion_guard_done = True


#: Execution backends accepted by :class:`Machine`.
BACKENDS = ("reference", "threaded", "pycodegen")


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
    #: Threaded-backend translations that fell back to the reference
    #: interpreter (injected ``threaded.translate`` faults).  Zero on a
    #: clean run; the fallback is cycle-identical by construction.
    degraded_translations: int = 0
    #: Codegen-backend compilations that fell back down the backend
    #: ladder (injected ``pycodegen.compile`` faults, oversize sources).
    #: Zero on a clean run; the fallback is cycle-identical in counted
    #: mode by construction.
    degraded_compilations: int = 0

    def snapshot(self) -> "ExecutionStats":
        return ExecutionStats(
            cycles=self.cycles,
            instructions=self.instructions,
            dc_cycles=self.dc_cycles,
            dispatch_cycles=self.dispatch_cycles,
            dispatches=self.dispatches,
            scope_cycles=dict(self.scope_cycles),
            scope_entries=dict(self.scope_entries),
            degraded_translations=self.degraded_translations,
            degraded_compilations=self.degraded_compilations,
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
        (direct-threaded closure translation; same stats, much faster),
        or ``"pycodegen"`` (functions compiled to Python code objects;
        same stats in counted mode, faster still).
    codegen_mode:
        Only meaningful with ``backend="pycodegen"``: ``"counted"``
        (stats byte-identical to the reference interpreter) or
        ``"fast"`` (no cycle accounting, pure wall-clock speed).
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
        codegen_mode: str = "counted",
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
        self._steps = 0
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
        self.codegen_mode = codegen_mode
        if backend == "threaded":
            # Imported here so the reference interpreter has no load-time
            # dependency on its replacement.
            from repro.machine.threaded import ThreadedBackend

            self._backend = ThreadedBackend(self)
        elif backend == "pycodegen":
            from repro.machine.pycodegen import PyCodegenBackend

            self._backend = PyCodegenBackend(self, mode=codegen_mode)
        else:
            self._backend = None
        #: The host-function loop every call runs, bound once: host
        #: functions are statically compiled, so their instruction costs
        #: are scaled by the static scheduling factor; dynamically
        #: generated region code (see :meth:`exec_region_code`) is not.
        self._exec_host = (
            self._backend.exec_function if self._backend is not None
            else self._exec_function_interp
        )
        _ensure_recursion_headroom()

    # ------------------------------------------------------------------
    # Cycle accounting
    # ------------------------------------------------------------------

    def charge(self, cycles: float) -> None:
        """Add execution cycles.

        Attribution to tracked scopes happens by cycle-counter snapshot
        deltas at scope exit (see :meth:`_call_function`), so this hot
        path is a single addition.
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

        Both backends call this (or inline exactly this sequence) at
        segment boundaries; the step limit is enforced with segment
        granularity, which is sufficient because any loop crosses a
        segment boundary on every iteration.
        """
        self.stats.cycles += cycles
        self.stats.instructions += instructions
        self._steps += instructions
        if self._steps > self.step_limit:
            raise MachineError(
                f"step limit {self.step_limit} exceeded (infinite loop?)"
            )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, name: str, *args):
        """Call a module function from the harness and return its result."""
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
        """Run a module function.  Host code binds a call to a module
        function straight to this method; ``call`` is the by-name path
        (harness entry, intrinsics, and names nothing defines)."""
        if len(args) != len(function.params):
            raise MachineError(
                f"{function.name}() takes {len(function.params)} args, "
                f"got {len(args)}"
            )
        # Checked before the increment: a refused call holds no frame.
        if self._call_depth >= self._max_call_depth:
            raise MachineError("call depth exceeded")
        self._call_depth += 1
        tracked_here = function.name in self.tracked
        if tracked_here:
            name = function.name
            depth = self._active_scopes.get(name, 0)
            if depth == 0:
                # Outermost entry: snapshot the cycle counter; the whole
                # delta is attributed once, at the matching exit.
                self._scope_entry_cycles[name] = self.stats.cycles
            self._active_scopes[name] = depth + 1
            self.stats.scope_entries[name] = (
                self.stats.scope_entries.get(name, 0) + 1
            )
        self.stats.cycles += self.costs.call_overhead
        profiler = self.profiler
        if profiler is not None:
            profiler.enter(function.name, args, self.stats.cycles)
        env = dict(zip(function.params, args))
        try:
            result = self._exec_host(function, env)
        finally:
            if profiler is not None:
                profiler.leave(function.name, self.stats.cycles)
            if tracked_here:
                name = function.name
                depth = self._active_scopes[name] - 1
                if depth:
                    self._active_scopes[name] = depth
                else:
                    del self._active_scopes[name]
                    delta = (self.stats.cycles
                             - self._scope_entry_cycles.pop(name))
                    self.stats.scope_cycles[name] = (
                        self.stats.scope_cycles.get(name, 0.0) + delta
                    )
            self._call_depth -= 1
        return result

    # ------------------------------------------------------------------
    # Execution core
    # ------------------------------------------------------------------

    def _exec_function_interp(self, function: Function, env: dict):
        """Reference-interpreter host loop: execute a host function until
        Return, handling EnterRegion (also the threaded backend's
        degradation target when translation is faulted).  It computes
        the I-cache penalty on every call, as the oracle the faster
        backends' per-machine bindings are checked against."""
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

    def exec_region_code(self, code: Function, env: dict,
                         footprint: int) -> tuple[str, object]:
        """Execute dynamically generated region code in the host env.

        Region code shares the host frame's environment (DyC allocates
        registers seamlessly across region boundaries, §2.1).  Returns
        ``("exit", index)`` when the region resumes host code at exit
        ``index``, or ``("return", value)`` when the region executed a
        host-level ``Return``.  ``Promote`` terminators re-enter the
        runtime for lazy multi-stage specialization.
        """
        backend = self._backend
        if backend is not None:
            return backend.exec_region_code(code, env, footprint)
        return self._exec_region_interp(code, env, footprint, code.entry)

    def _exec_region_interp(self, code: Function, env: dict,
                            footprint: int,
                            label: str) -> tuple[str, object]:
        """Reference-interpreter region loop, resumable at ``label`` (the
        threaded backend degrades into it mid-region when a retranslation
        after a version bump is faulted)."""
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
