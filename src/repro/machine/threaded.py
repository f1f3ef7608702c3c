"""Direct-threaded closure backend for the abstract machine.

The reference interpreter in :mod:`repro.machine.interp` re-decodes every
instruction on every execution: a type-dispatch chain, operand ``_value``
calls, cost-model lookups, and accounting updates per instruction.  This
module instead *translates* each basic block once — host function blocks
and runtime-emitted region code alike — into a chain of Python closures
with all of that folded in at translation time:

* operand decoding becomes captured variables (register names bound for a
  plain ``env[name]`` lookup, immediates bound as constants);
* cost-model lookups happen during translation, via the same shared term
  helpers the reference uses (:func:`repro.machine.costs.flat_term` and
  friends), so every charge is the bit-identical float;
* the type-independent charge terms of a straight-line segment are summed
  at translation time into one constant, committed in a single addition at
  the segment boundary; only the float-operand *extras* remain run-time
  conditional, accumulated in occurrence order exactly as the reference
  accumulates them.

The result is byte-identical :class:`~repro.machine.interp.ExecutionStats`
(cycles, instructions, dc_cycles, dispatch_cycles, scope_cycles) and
outputs, several times faster.

Translation caching and invalidation
------------------------------------

Translations are cached per :class:`~repro.ir.function.Function` object and
keyed on its ``version`` counter (plus the I-cache penalty and schedule
scale in effect).  Host functions are fixed after static compile, so their
translations live for the machine's lifetime, and the host loop finds
them by function identity and version alone: a host function's penalty
and scale are fixed for the machine, so they are computed only when a
translation is built.  A call to a module function is bound to its
:class:`~repro.ir.function.Function` at translation time; intrinsics and
names nothing defines still go through ``Machine.call`` when the call
executes.  Runtime-emitted region code
is *patched in place* by lazy promotions (the specializer threads jumps and
adds continuation blocks into a buffer that is already executing); the
specializer bumps ``Function.version`` after every batch, and the region
driver below re-checks the version at every block boundary, so patched
code is retranslated before the next block runs.

One deliberate subtlety: the reference computes the region's I-cache
penalty once per ``exec_region_code`` call, from the footprint at entry,
and keeps using it even after a mid-call promotion grows the code.  The
driver here does the same — retranslation after a version bump reuses the
entry-time penalty — so the two backends stay cycle-identical.
"""

from __future__ import annotations

import math
import operator

from repro.errors import MachineError, TrapError
from repro.ir.eval import _c_div, _c_mod
from repro.ir.function import Function
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
    Op,
    Promote,
    Reg,
    Return,
    Store,
    UnOp,
)
from repro.machine.costs import binop_terms, flat_term, move_terms

# ----------------------------------------------------------------------
# Per-operator evaluators
# ----------------------------------------------------------------------
# eval_binop's if-chain compares against up to 16 Op members per executed
# instruction; translation selects the single evaluator up front.  The
# wrappers reuse the same helpers as repro.ir.eval so the semantics (C99
# truncating division, trap conditions) cannot drift; a unit test
# cross-checks every operator against eval_binop.


def _div(lhs, rhs):
    if rhs == 0:
        raise TrapError("division by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        return _c_div(lhs, rhs)
    return lhs / rhs


def _mod(lhs, rhs):
    if rhs == 0:
        raise TrapError("modulo by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        return _c_mod(lhs, rhs)
    return math.fmod(lhs, rhs)


def _int_only(op: Op, fn):
    def wrapped(lhs, rhs, _op=op, _fn=fn):
        if isinstance(lhs, float) or isinstance(rhs, float):
            raise TrapError(f"{_op} requires integer operands, got "
                            f"{lhs!r} and {rhs!r}")
        return _fn(lhs, rhs)

    return wrapped


def _shift(op: Op, fn):
    def wrapped(lhs, rhs, _op=op, _fn=fn):
        if isinstance(lhs, float) or isinstance(rhs, float):
            raise TrapError(f"{_op} requires integer operands, got "
                            f"{lhs!r} and {rhs!r}")
        if rhs < 0:
            raise TrapError("negative shift count")
        return _fn(lhs, rhs)

    return wrapped


BINOP_FUNCS = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.AND: _int_only(Op.AND, operator.and_),
    Op.OR: _int_only(Op.OR, operator.or_),
    Op.XOR: _int_only(Op.XOR, operator.xor),
    Op.SHL: _shift(Op.SHL, operator.lshift),
    Op.SHR: _shift(Op.SHR, operator.rshift),
    Op.EQ: lambda lhs, rhs: int(lhs == rhs),
    Op.NE: lambda lhs, rhs: int(lhs != rhs),
    Op.LT: lambda lhs, rhs: int(lhs < rhs),
    Op.LE: lambda lhs, rhs: int(lhs <= rhs),
    Op.GT: lambda lhs, rhs: int(lhs > rhs),
    Op.GE: lambda lhs, rhs: int(lhs >= rhs),
}

UNOP_FUNCS = {
    Op.NEG: operator.neg,
    Op.NOT: lambda src: int(not src),
}


def _undefined(name: str):
    raise TrapError(f"use of undefined variable {name!r}")


class TranslationFault(MachineError):
    """An injected ``threaded.translate`` fault refused a translation.

    Raised only by fault injection (:mod:`repro.faults`); the drivers
    catch it and degrade to the reference interpreter, which is
    cycle-identical by construction, so a translation fault is invisible
    in the stats except for ``degraded_translations``.
    """


# ----------------------------------------------------------------------
# Translation
# ----------------------------------------------------------------------
#
# A block compiles to a *runner*: ``runner(env) -> outcome`` where outcome
# is the same ``(kind, payload)`` tuple the reference _exec_block returns.
# Internally a runner is a sequence of segments; each segment is a tuple of
# *steps* plus one pre-summed constant charge.  A step is
# ``step(env, extra) -> extra``: it performs one instruction's semantics
# and threads the float-extras accumulator through, so the commit at the
# segment boundary is ``_commit(const + extra, count)`` — the identical
# float computation the reference performs term by term.


class _Translation:
    __slots__ = ("function", "version", "penalty", "scale", "runners")

    def __init__(self, function: Function, penalty: float, scale: float,
                 runners: dict):
        self.function = function
        self.version = function.version
        self.penalty = penalty
        self.scale = scale
        self.runners = runners


class ThreadedBackend:
    """Per-machine translator + drivers for the threaded backend."""

    def __init__(self, machine) -> None:
        self.machine = machine
        #: id(function) -> _Translation.  Entries hold a strong reference
        #: to their Function, so a cached id can never be recycled by a
        #: different object.
        self._cache: dict[int, _Translation] = {}
        #: id(host function) -> its host translation, checked against
        #: ``Function.version`` only (same strong-reference guarantee).
        self._hosts: dict[int, _Translation] = {}

    # -- cache ----------------------------------------------------------

    def translation(self, fn: Function, penalty: float,
                    scale: float) -> _Translation:
        entry = self._cache.get(id(fn))
        if (entry is not None and entry.function is fn
                and entry.version == fn.version
                and entry.penalty == penalty
                and entry.scale == scale):
            return entry
        runtime = self.machine.runtime
        if runtime is not None:
            faults = getattr(runtime, "faults", None)
            if faults is not None and faults.active \
                    and faults.should_fire("threaded.translate"):
                raise TranslationFault(
                    f"injected fault translating {fn.name!r} "
                    f"(version {fn.version})"
                )
        entry = self._translate(fn, penalty, scale)
        self._cache[id(fn)] = entry
        return entry

    def invalidate(self, fn: Function) -> None:
        """Drop any cached translation of ``fn`` (tests / tooling)."""
        self._cache.pop(id(fn), None)
        self._hosts.pop(id(fn), None)

    # -- drivers --------------------------------------------------------

    def exec_function(self, function: Function, env: dict):
        """Threaded equivalent of ``Machine._exec_function_interp``.

        A refused translation stores nothing, so the next call retries
        it, exactly as a call with no host translation does.
        """
        machine = self.machine
        trans = self._hosts.get(id(function))
        if trans is None or trans.version != function.version:
            penalty = machine.icache.per_instruction_penalty(
                function.instruction_count()
            )
            scale = machine.costs.static_schedule_factor
            try:
                trans = self.translation(function, penalty, scale)
            except TranslationFault:
                machine.stats.degraded_translations += 1
                return machine._exec_function_interp(function, env)
            self._hosts[id(function)] = trans
        runners = trans.runners
        label = function.entry
        while True:
            kind, payload = runners[label](env)
            if kind == "jump":
                label = payload
            elif kind == "return":
                return payload
            elif kind == "enter_region":
                if machine.runtime is None:
                    raise MachineError(
                        "EnterRegion executed without a runtime attached"
                    )
                outcome, value = machine.runtime.enter_region(
                    machine, payload, env
                )
                if outcome == "return":
                    return value
                label = value
            else:  # pragma: no cover - defensive
                raise MachineError(f"unexpected block outcome {kind!r}")

    def exec_region_code(self, code: Function, env: dict,
                         footprint: int) -> tuple[str, object]:
        """Threaded equivalent of ``Machine.exec_region_code``.

        The penalty is fixed at entry (from ``footprint``), matching the
        reference; the translation is revalidated at every block boundary
        because promotions patch the code buffer mid-execution.
        """
        machine = self.machine
        penalty = machine.icache.per_instruction_penalty(footprint)
        try:
            trans = self.translation(code, penalty, 1.0)
        except TranslationFault:
            machine.stats.degraded_translations += 1
            return machine._exec_region_interp(code, env, footprint,
                                               code.entry)
        label = code.entry
        while True:
            if code.version != trans.version:
                try:
                    trans = self.translation(code, penalty, 1.0)
                except TranslationFault:
                    # Mid-region degradation: resume the reference loop
                    # at the current block.
                    machine.stats.degraded_translations += 1
                    return machine._exec_region_interp(
                        code, env, footprint, label
                    )
            kind, payload = trans.runners[label](env)
            if kind == "jump":
                label = payload
            elif kind in ("exit", "return"):
                return (kind, payload)
            elif kind == "promote":
                label = machine.runtime.promote(machine, payload, env,
                                                code)
            else:  # pragma: no cover - defensive
                raise MachineError(
                    f"unexpected outcome {kind!r} in region code"
                )

    # -- translation ----------------------------------------------------

    def _translate(self, fn: Function, penalty: float,
                   scale: float) -> _Translation:
        runners = {
            label: self._compile_block(block, penalty, scale)
            for label, block in fn.blocks.items()
        }
        return _Translation(fn, penalty, scale, runners)

    def _compile_block(self, block, penalty: float, scale: float):
        machine = self.machine
        costs = machine.costs

        call_segments: list[tuple] = []
        steps: list = []
        const = 0.0
        count = 0
        finish = None

        for instr in block.instrs:
            cls = type(instr)
            if cls is BinOp:
                base, fp_extra = binop_terms(
                    costs, instr.op.value, scale, penalty
                )
                const += base
                count += 1
                steps.append(self._binop_step(instr, fp_extra))
            elif cls is Move:
                if type(instr.src) is Imm:
                    value = instr.src.value
                    const += flat_term(
                        costs.materialize_cost(type(value) is float),
                        scale, penalty,
                    )
                    count += 1
                    steps.append(self._move_imm_step(instr.dest, value))
                else:
                    base, fp_extra = move_terms(costs, scale, penalty)
                    const += base
                    count += 1
                    steps.append(self._move_reg_step(instr, fp_extra))
            elif cls is Load:
                const += flat_term(costs.load, scale, penalty)
                count += 1
                steps.append(self._load_step(instr))
            elif cls is Store:
                const += flat_term(costs.store, scale, penalty)
                count += 1
                steps.append(self._store_step(instr))
            elif cls is UnOp:
                base, fp_extra = binop_terms(costs, "alu", scale, penalty)
                const += base
                count += 1
                steps.append(self._unop_step(instr, fp_extra))
            elif cls is Call:
                count += 1
                call_segments.append(
                    (const, count, tuple(steps), self._call_step(instr))
                )
                steps = []
                const = 0.0
                count = 0
            elif cls is MakeStatic or cls is MakeDynamic:
                # Annotations execute for free in both backends.
                pass
            elif cls is Jump:
                const += flat_term(costs.jump, scale, penalty)
                count += 1
                finish = self._const_finish(
                    const, count, ("jump", instr.target)
                )
            elif cls is Branch:
                const += flat_term(costs.branch, scale, penalty)
                count += 1
                finish = self._branch_finish(const, count, instr)
            elif cls is Return:
                const += flat_term(costs.return_cost, scale, penalty)
                count += 1
                finish = self._return_finish(const, count, instr)
            elif cls is EnterRegion:
                count += 1
                finish = self._const_finish(
                    const, count, ("enter_region", instr)
                )
            elif cls is Promote:
                count += 1
                finish = self._const_finish(
                    const, count, ("promote", instr)
                )
            elif cls is ExitRegion:
                const += flat_term(costs.jump, scale, penalty)
                count += 1
                finish = self._const_finish(
                    const, count, ("exit", instr.index)
                )
            else:
                # Defer to execution time, like the reference.
                name = type(instr).__name__
                count += 1
                steps.append(self._error_step(
                    MachineError(f"cannot execute {name}")
                ))
            if finish is not None:
                break

        if finish is None:
            # Block without a terminator: charge the straight-line part,
            # then fail exactly as the reference does.
            label = block.label
            error = MachineError(
                f"block {label!r} fell through without a terminator"
            )
            commit = machine._commit

            def finish(env, extra, _commit=commit, _const=const,
                       _count=count, _error=error):
                _commit(_const + extra, _count)
                raise _error

        final_steps = tuple(steps)

        if not call_segments:
            n = len(final_steps)
            if n == 0:
                def runner(env, _finish=finish):
                    return _finish(env, 0.0)

                return runner
            # Short straight-line blocks dominate dynamic block counts;
            # unrolling the step chain avoids the loop machinery.
            if n == 1:
                s1, = final_steps

                def runner(env, _s1=s1, _finish=finish):
                    return _finish(env, _s1(env, 0.0))

                return runner
            if n == 2:
                s1, s2 = final_steps

                def runner(env, _s1=s1, _s2=s2, _finish=finish):
                    return _finish(env, _s2(env, _s1(env, 0.0)))

                return runner
            if n == 3:
                s1, s2, s3 = final_steps

                def runner(env, _s1=s1, _s2=s2, _s3=s3, _finish=finish):
                    return _finish(
                        env, _s3(env, _s2(env, _s1(env, 0.0)))
                    )

                return runner

            def runner(env, _steps=final_steps, _finish=finish):
                extra = 0.0
                for step in _steps:
                    extra = step(env, extra)
                return _finish(env, extra)

            return runner

        segments = tuple(call_segments)
        stats = machine.stats

        def runner(env, _segments=segments, _steps=final_steps,
                   _finish=finish, _m=machine, _stats=stats):
            for const, count, steps, do_call in _segments:
                extra = 0.0
                for step in steps:
                    extra = step(env, extra)
                _stats.cycles += const + extra
                _stats.instructions += count
                total = _m._steps + count
                _m._steps = total
                if total > _m.step_limit:
                    raise MachineError(
                        f"step limit {_m.step_limit} exceeded "
                        f"(infinite loop?)"
                    )
                do_call(env)
            extra = 0.0
            for step in _steps:
                extra = step(env, extra)
            return _finish(env, extra)

        return runner

    # -- step factories -------------------------------------------------

    def _binop_step(self, instr: BinOp, fp_extra: float):
        fn = BINOP_FUNCS.get(instr.op)
        if fn is None:
            return self._error_step(
                TrapError(f"{instr.op} is not a binary operator")
            )
        dest = instr.dest
        lhs, rhs = instr.lhs, instr.rhs
        lhs_reg = type(lhs) is Reg
        rhs_reg = type(rhs) is Reg
        if not lhs_reg and type(lhs) is not Imm:
            return self._error_step(
                TrapError(f"cannot evaluate operand {lhs!r}")
            )
        if not rhs_reg and type(rhs) is not Imm:
            return self._error_step(
                TrapError(f"cannot evaluate operand {rhs!r}")
            )

        if lhs_reg and rhs_reg:
            def step(env, extra, _fn=fn, _d=dest, _l=lhs.name,
                     _r=rhs.name, _e=fp_extra):
                try:
                    a = env[_l]
                except KeyError:
                    _undefined(_l)
                try:
                    b = env[_r]
                except KeyError:
                    _undefined(_r)
                env[_d] = _fn(a, b)
                if type(a) is float or type(b) is float:
                    extra += _e
                return extra

            return step

        if lhs_reg:
            b = rhs.value
            if type(b) is float:
                def step(env, extra, _fn=fn, _d=dest, _l=lhs.name, _b=b,
                         _e=fp_extra):
                    try:
                        a = env[_l]
                    except KeyError:
                        _undefined(_l)
                    env[_d] = _fn(a, _b)
                    return extra + _e

                return step

            def step(env, extra, _fn=fn, _d=dest, _l=lhs.name, _b=b,
                     _e=fp_extra):
                try:
                    a = env[_l]
                except KeyError:
                    _undefined(_l)
                env[_d] = _fn(a, _b)
                if type(a) is float:
                    extra += _e
                return extra

            return step

        if rhs_reg:
            a = lhs.value
            if type(a) is float:
                def step(env, extra, _fn=fn, _d=dest, _a=a, _r=rhs.name,
                         _e=fp_extra):
                    try:
                        b = env[_r]
                    except KeyError:
                        _undefined(_r)
                    env[_d] = _fn(_a, b)
                    return extra + _e

                return step

            def step(env, extra, _fn=fn, _d=dest, _a=a, _r=rhs.name,
                     _e=fp_extra):
                try:
                    b = env[_r]
                except KeyError:
                    _undefined(_r)
                env[_d] = _fn(_a, b)
                if type(b) is float:
                    extra += _e
                return extra

            return step

        # Both immediate: the float-ness is static; the result usually is
        # too, unless evaluation traps (division by zero must trap at
        # execution time, not translation time, like the reference).
        a, b = lhs.value, rhs.value
        is_fp = type(a) is float or type(b) is float
        try:
            result = fn(a, b)
        except TrapError:
            if is_fp:
                def step(env, extra, _fn=fn, _a=a, _b=b, _d=dest,
                         _e=fp_extra):
                    env[_d] = _fn(_a, _b)
                    return extra + _e
            else:
                def step(env, extra, _fn=fn, _a=a, _b=b, _d=dest):
                    env[_d] = _fn(_a, _b)
                    return extra

            return step
        if is_fp:
            def step(env, extra, _d=dest, _v=result, _e=fp_extra):
                env[_d] = _v
                return extra + _e
        else:
            def step(env, extra, _d=dest, _v=result):
                env[_d] = _v
                return extra

        return step

    def _unop_step(self, instr: UnOp, fp_extra: float):
        fn = UNOP_FUNCS.get(instr.op)
        if fn is None:
            return self._error_step(
                TrapError(f"{instr.op} is not a unary operator")
            )
        dest = instr.dest
        src = instr.src
        if type(src) is Reg:
            def step(env, extra, _fn=fn, _d=dest, _s=src.name,
                     _e=fp_extra):
                try:
                    v = env[_s]
                except KeyError:
                    _undefined(_s)
                env[_d] = _fn(v)
                if type(v) is float:
                    extra += _e
                return extra

            return step
        if type(src) is not Imm:
            return self._error_step(
                TrapError(f"cannot evaluate operand {src!r}")
            )
        value = src.value
        result = fn(value)
        if type(value) is float:
            def step(env, extra, _d=dest, _v=result, _e=fp_extra):
                env[_d] = _v
                return extra + _e
        else:
            def step(env, extra, _d=dest, _v=result):
                env[_d] = _v
                return extra

        return step

    def _move_imm_step(self, dest: str, value):
        def step(env, extra, _d=dest, _v=value):
            env[_d] = _v
            return extra

        return step

    def _move_reg_step(self, instr: Move, fp_extra: float):
        src = instr.src
        if type(src) is not Reg:
            return self._error_step(
                TrapError(f"cannot evaluate operand {src!r}")
            )

        def step(env, extra, _d=instr.dest, _s=src.name, _e=fp_extra):
            try:
                v = env[_s]
            except KeyError:
                _undefined(_s)
            env[_d] = v
            if type(v) is float:
                extra += _e
            return extra

        return step

    def _load_step(self, instr: Load):
        load = self.machine.memory.load
        addr = instr.addr
        if type(addr) is Reg:
            def step(env, extra, _load=load, _d=instr.dest,
                     _a=addr.name):
                try:
                    a = env[_a]
                except KeyError:
                    _undefined(_a)
                env[_d] = _load(a)
                return extra

            return step
        if type(addr) is not Imm:
            return self._error_step(
                TrapError(f"cannot evaluate operand {addr!r}")
            )

        def step(env, extra, _load=load, _d=instr.dest, _a=addr.value):
            env[_d] = _load(_a)
            return extra

        return step

    def _store_step(self, instr: Store):
        store = self.machine.memory.store
        addr, value = instr.addr, instr.value
        for operand in (addr, value):
            if type(operand) is not Reg and type(operand) is not Imm:
                return self._error_step(
                    TrapError(f"cannot evaluate operand {operand!r}")
                )
        addr_reg = type(addr) is Reg
        value_reg = type(value) is Reg

        if addr_reg and value_reg:
            def step(env, extra, _store=store, _a=addr.name,
                     _v=value.name):
                try:
                    a = env[_a]
                except KeyError:
                    _undefined(_a)
                try:
                    v = env[_v]
                except KeyError:
                    _undefined(_v)
                _store(a, v)
                return extra

            return step
        if addr_reg:
            def step(env, extra, _store=store, _a=addr.name,
                     _v=value.value):
                try:
                    a = env[_a]
                except KeyError:
                    _undefined(_a)
                _store(a, _v)
                return extra

            return step
        if value_reg:
            def step(env, extra, _store=store, _a=addr.value,
                     _v=value.name):
                try:
                    v = env[_v]
                except KeyError:
                    _undefined(_v)
                _store(_a, v)
                return extra

            return step

        def step(env, extra, _store=store, _a=addr.value,
                 _v=value.value):
            _store(_a, _v)
            return extra

        return step

    def _call_step(self, instr: Call):
        machine = self.machine
        callee = instr.callee
        dest = instr.dest
        # A module function (which shadows an intrinsic of the same name)
        # is bound now; any other name resolves when the call executes,
        # so an undefined callee raises only if it is reached.
        function = machine.module.functions.get(callee)
        if function is not None:
            call, target = machine._call_function, function
        else:
            call, target = machine.call, callee
        # (is_reg, name, value) triples; reading them in order preserves
        # the reference's trap order for undefined argument registers.
        specs = []
        for arg in instr.args:
            if type(arg) is Reg:
                specs.append((True, arg.name, None))
            elif type(arg) is Imm:
                specs.append((False, None, arg.value))
            else:
                return self._error_step(
                    TrapError(f"cannot evaluate operand {arg!r}")
                )
        arg_specs = tuple(specs)

        if dest is None:
            def do_call(env, _call=call, _target=target,
                        _specs=arg_specs):
                args = []
                for is_reg, name, value in _specs:
                    if is_reg:
                        try:
                            args.append(env[name])
                        except KeyError:
                            _undefined(name)
                    else:
                        args.append(value)
                _call(_target, args)

            return do_call

        def do_call(env, _call=call, _target=target, _specs=arg_specs,
                    _d=dest):
            args = []
            for is_reg, name, value in _specs:
                if is_reg:
                    try:
                        args.append(env[name])
                    except KeyError:
                        _undefined(name)
                else:
                    args.append(value)
            env[_d] = _call(_target, args)

        return do_call

    @staticmethod
    def _error_step(error: Exception):
        def step(env, extra, _error=error):
            raise _error

        return step

    # -- terminator factories -------------------------------------------
    #
    # Finish closures inline the segment commit (the body of
    # ``Machine._commit``) to save a method call on the hottest path in
    # the system: one commit per executed block.  ``machine.stats`` is
    # assigned once in ``Machine.__init__`` and never rebound, so
    # capturing it at translation time is safe.

    def _const_finish(self, const: float, count: int, outcome: tuple):
        machine = self.machine
        stats = machine.stats

        def finish(env, extra, _m=machine, _stats=stats, _const=const,
                   _count=count, _out=outcome):
            _stats.cycles += _const + extra
            _stats.instructions += _count
            total = _m._steps + _count
            _m._steps = total
            if total > _m.step_limit:
                raise MachineError(
                    f"step limit {_m.step_limit} exceeded "
                    f"(infinite loop?)"
                )
            return _out

        return finish

    def _branch_finish(self, const: float, count: int, instr: Branch):
        true_out = ("jump", instr.if_true)
        false_out = ("jump", instr.if_false)
        cond = instr.cond
        machine = self.machine
        stats = machine.stats
        if type(cond) is Reg:
            # The condition is read before the commit and the target
            # selected after it, matching the reference's order (an
            # undefined condition traps with the segment uncommitted).
            def finish(env, extra, _m=machine, _stats=stats,
                       _const=const, _count=count, _c=cond.name,
                       _t=true_out, _f=false_out):
                try:
                    value = env[_c]
                except KeyError:
                    _undefined(_c)
                _stats.cycles += _const + extra
                _stats.instructions += _count
                total = _m._steps + _count
                _m._steps = total
                if total > _m.step_limit:
                    raise MachineError(
                        f"step limit {_m.step_limit} exceeded "
                        f"(infinite loop?)"
                    )
                return _t if value else _f

            return finish
        if type(cond) is Imm:
            outcome = true_out if cond.value else false_out
            return self._const_finish(const, count, outcome)

        error = TrapError(f"cannot evaluate operand {cond!r}")

        def finish(env, extra, _error=error):
            raise _error

        return finish

    def _return_finish(self, const: float, count: int, instr: Return):
        value = instr.value
        if value is None:
            return self._const_finish(const, count, ("return", None))
        machine = self.machine
        stats = machine.stats
        if type(value) is Reg:
            # The reference commits first, then reads the return value.
            def finish(env, extra, _m=machine, _stats=stats,
                       _const=const, _count=count, _v=value.name):
                _stats.cycles += _const + extra
                _stats.instructions += _count
                total = _m._steps + _count
                _m._steps = total
                if total > _m.step_limit:
                    raise MachineError(
                        f"step limit {_m.step_limit} exceeded "
                        f"(infinite loop?)"
                    )
                try:
                    result = env[_v]
                except KeyError:
                    _undefined(_v)
                return ("return", result)

            return finish
        if type(value) is Imm:
            return self._const_finish(
                const, count, ("return", value.value)
            )

        error = TrapError(f"cannot evaluate operand {value!r}")
        commit = machine._commit

        def finish(env, extra, _commit=commit, _const=const,
                   _count=count, _error=error):
            _commit(_const + extra, _count)
            raise _error

        return finish
