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
scale in effect).  Host functions are fixed after static compile, so each
one's host loop is bound once per backend and holds its translation,
checking only the version per call: a host function's penalty and scale
are fixed for the machine, so they are computed only when a translation
is built.  A call to a module function is bound when its block is
translated, to the machine's entry for the callee
(``Machine.bind_call``): the arity is checked then, and the call builds
the callee's register frame straight from the caller's registers.
Intrinsics and names nothing defines still go through ``Machine.call``
when the call executes.  Runtime-emitted region code
is *patched in place* by lazy promotions (the specializer threads jumps and
adds continuation blocks into a buffer that is already executing); the
specializer bumps ``Function.version`` after every batch, and the region
driver below re-checks the version at every block boundary, so patched
code is retranslated before the next block runs.

One deliberate subtlety: the reference computes the region's I-cache
penalty once per region entry, from the footprint at entry, and keeps
using it even after a mid-call promotion grows the code.  The driver here
does the same — retranslation after a version bump reuses the entry-time
penalty — so the two backends stay cycle-identical; it keeps that penalty
per ``(code, footprint)`` so an entry into unchanged code computes
neither it nor a translation lookup.

The commonest block shape, ``d = a op b`` then a ``Branch`` on ``d``, is
translated into one fused runner instead of a runner, a step and a finish
closure; a comparison there calls its ``operator`` predicate and writes
``1`` or ``0`` itself.  A block that ends in ``EnterRegion`` dispatches
from its finish, through the machine's entry for the instruction
(``Machine.bind_entry``), fetched at the block's first dispatch, so the
host loop only ever sees jumps and returns.  Every commit tests the step limit
against ``stats.instructions``, the machine's one step counter.
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

#: The comparisons as C-level predicates, for the fused
#: compare-and-branch runner: it writes ``1`` or ``0`` itself, the int
#: ``BINOP_FUNCS`` (and ``eval_binop``) return, without a Python-level
#: call.
COMPARE_FUNCS = {
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}

UNOP_FUNCS = {
    Op.NEG: operator.neg,
    Op.NOT: lambda src: int(not src),
}


def _undefined(name: str):
    raise TrapError(f"use of undefined variable {name!r}")


def _read_args(env: dict, specs: tuple) -> list:
    """Argument values from ``(is_reg, name, value)`` specs, read in
    order, so an undefined register traps where the reference's does."""
    args = []
    for is_reg, name, value in specs:
        if is_reg:
            try:
                args.append(env[name])
            except KeyError:
                _undefined(name)
        else:
            args.append(value)
    return args


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
        #: id(host function) -> (function, its bound host loop).
        self._hosts: dict[int, tuple] = {}
        #: id(region code) -> [code, footprint, penalty, translation]:
        #: what an entry needs, kept per code version (same
        #: strong-reference guarantee).
        self._regions: dict[int, list] = {}

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

    # -- drivers --------------------------------------------------------

    def exec_function(self, function: Function, env: dict):
        """Threaded equivalent of ``Machine._exec_function_interp``."""
        return self.host_loop(function)(env)

    def host_loop(self, function: Function):
        """The host loop of ``function``, bound once per backend:
        ``run(frame) -> result``.

        It holds the function's translation and checks only
        ``Function.version`` per call; the I-cache penalty is computed
        only when a translation is built.  A refused translation stores
        nothing, so the next call retries it and runs this one on the
        reference interpreter.
        """
        bound = self._hosts.get(id(function))
        if bound is not None and bound[0] is function:
            return bound[1]
        machine = self.machine
        held: list = [None]

        def run(env, _held=held, _fn=function, _m=machine):
            trans = _held[0]
            if trans is None or trans.version != _fn.version:
                penalty = _m.icache.per_instruction_penalty(
                    _fn.instruction_count()
                )
                scale = _m.costs.static_schedule_factor
                try:
                    trans = self.translation(_fn, penalty, scale)
                except TranslationFault:
                    _m.stats.degraded_translations += 1
                    return _m._exec_function_interp(_fn, env)
                _held[0] = trans
            runners = trans.runners
            label = _fn.entry
            while True:
                # An EnterRegion block dispatches from its finish and
                # returns the region's ("jump", exit) or ("return", v).
                kind, payload = runners[label](env)
                if kind == "jump":
                    label = payload
                elif kind == "return":
                    return payload
                else:  # pragma: no cover - defensive
                    raise MachineError(
                        f"unexpected block outcome {kind!r}"
                    )

        self._hosts[id(function)] = (function, run)
        return run

    def exec_region_code(self, code: Function, env: dict,
                         footprint: int) -> tuple[str, object]:
        """Threaded equivalent of ``Machine._exec_region_interp``.

        The penalty is fixed at entry (from ``footprint``), matching the
        reference; it is kept per ``(code, footprint)`` and the
        translation per ``Function.version``, so an entry into code that
        has not changed computes neither.  The translation is
        revalidated at every block boundary because promotions patch the
        code buffer mid-execution.
        """
        machine = self.machine
        bound = self._regions.get(id(code))
        if bound is None or bound[0] is not code or bound[1] != footprint:
            penalty = machine.icache.per_instruction_penalty(footprint)
            bound = [code, footprint, penalty, None]
            self._regions[id(code)] = bound
        penalty = bound[2]
        trans = bound[3]
        runners = trans.runners if trans is not None else None
        version = trans.version if trans is not None else None
        label = code.entry
        while True:
            if code.version != version:
                try:
                    trans = self.translation(code, penalty, 1.0)
                except TranslationFault:
                    # Degradation at entry or mid-region: resume the
                    # reference loop at the current block.
                    machine.stats.degraded_translations += 1
                    return machine._exec_region_interp(
                        code, env, footprint, label
                    )
                bound[3] = trans
                runners = trans.runners
                version = trans.version
            kind, payload = runners[label](env)
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
        fused = self._fused_block(block, penalty, scale)
        if fused is not None:
            return fused
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
                finish = self._enter_finish(const, count, instr)
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
                total = _stats.instructions + count
                _stats.instructions = total
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

    def _fused_block(self, block, penalty: float, scale: float):
        """One runner for a block that is exactly ``d = a op b`` then a
        ``Branch`` on ``d``, the commonest block shape, or None.

        It evaluates, writes ``d``, commits the segment and picks the
        successor, in place of a runner, a step and a finish closure.
        A comparison is a ``COMPARE_FUNCS`` predicate, whose truth picks
        both the ``1`` or ``0`` written and the successor.
        The charge is the reference's: the two base terms summed in
        order, plus the float extra when an operand is a float, added
        in one commit; a trap in the operator or an undefined operand
        comes before the commit.
        """
        instrs = block.instrs
        if len(instrs) != 2:
            return None
        binop, branch = instrs
        if type(binop) is not BinOp or type(branch) is not Branch:
            return None
        cond = branch.cond
        if type(cond) is not Reg or cond.name != binop.dest:
            return None
        fn = BINOP_FUNCS.get(binop.op)
        lhs, rhs = binop.lhs, binop.rhs
        lhs_reg = type(lhs) is Reg
        rhs_reg = type(rhs) is Reg
        if fn is None or not (lhs_reg or rhs_reg) \
                or not (lhs_reg or type(lhs) is Imm) \
                or not (rhs_reg or type(rhs) is Imm):
            return None
        costs = self.machine.costs
        base, fp_extra = binop_terms(costs, binop.op.value, scale, penalty)
        const = 0.0
        const += base
        const += flat_term(costs.branch, scale, penalty)
        # The two commits the reference can make: ``acc + extra`` with no
        # float operand, and with one.
        plain = const + 0.0
        with_fp = const + (0.0 + fp_extra)
        machine = self.machine
        stats = machine.stats
        true_out = ("jump", branch.if_true)
        false_out = ("jump", branch.if_false)
        dest = binop.dest
        cmp = COMPARE_FUNCS.get(binop.op)

        if lhs_reg and rhs_reg and cmp is not None:
            def runner(env, _cmp=cmp, _d=dest, _l=lhs.name, _r=rhs.name,
                       _plain=plain, _fp=with_fp, _m=machine,
                       _stats=stats, _t=true_out, _f=false_out):
                try:
                    a = env[_l]
                except KeyError:
                    _undefined(_l)
                try:
                    b = env[_r]
                except KeyError:
                    _undefined(_r)
                if _cmp(a, b):
                    env[_d] = 1
                    out = _t
                else:
                    env[_d] = 0
                    out = _f
                if type(a) is float or type(b) is float:
                    _stats.cycles += _fp
                else:
                    _stats.cycles += _plain
                total = _stats.instructions + 2
                _stats.instructions = total
                if total > _m.step_limit:
                    raise MachineError(
                        f"step limit {_m.step_limit} exceeded "
                        f"(infinite loop?)"
                    )
                return out

            return runner

        if lhs_reg and rhs_reg:
            def runner(env, _fn=fn, _d=dest, _l=lhs.name, _r=rhs.name,
                       _plain=plain, _fp=with_fp, _m=machine,
                       _stats=stats, _t=true_out, _f=false_out):
                try:
                    a = env[_l]
                except KeyError:
                    _undefined(_l)
                try:
                    b = env[_r]
                except KeyError:
                    _undefined(_r)
                value = _fn(a, b)
                env[_d] = value
                if type(a) is float or type(b) is float:
                    _stats.cycles += _fp
                else:
                    _stats.cycles += _plain
                total = _stats.instructions + 2
                _stats.instructions = total
                if total > _m.step_limit:
                    raise MachineError(
                        f"step limit {_m.step_limit} exceeded "
                        f"(infinite loop?)"
                    )
                return _t if value else _f

            return runner

        # One immediate operand: a float immediate charges the extra on
        # every execution, so both commits are the float one.
        imm = rhs.value if lhs_reg else lhs.value
        if type(imm) is float:
            plain = with_fp
        reg = lhs.name if lhs_reg else rhs.name

        if cmp is not None:
            def runner(env, _cmp=cmp, _d=dest, _reg=reg, _imm=imm,
                       _imm_rhs=lhs_reg, _plain=plain, _fp=with_fp,
                       _m=machine, _stats=stats, _t=true_out, _f=false_out):
                try:
                    a = env[_reg]
                except KeyError:
                    _undefined(_reg)
                if _cmp(a, _imm) if _imm_rhs else _cmp(_imm, a):
                    env[_d] = 1
                    out = _t
                else:
                    env[_d] = 0
                    out = _f
                _stats.cycles += _fp if type(a) is float else _plain
                total = _stats.instructions + 2
                _stats.instructions = total
                if total > _m.step_limit:
                    raise MachineError(
                        f"step limit {_m.step_limit} exceeded "
                        f"(infinite loop?)"
                    )
                return out

            return runner

        def runner(env, _fn=fn, _d=dest, _reg=reg, _imm=imm,
                   _imm_rhs=lhs_reg, _plain=plain, _fp=with_fp, _m=machine,
                   _stats=stats, _t=true_out, _f=false_out):
            try:
                a = env[_reg]
            except KeyError:
                _undefined(_reg)
            value = _fn(a, _imm) if _imm_rhs else _fn(_imm, a)
            env[_d] = value
            _stats.cycles += _fp if type(a) is float else _plain
            total = _stats.instructions + 2
            _stats.instructions = total
            if total > _m.step_limit:
                raise MachineError(
                    f"step limit {_m.step_limit} exceeded "
                    f"(infinite loop?)"
                )
            return _t if value else _f

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
        # (is_reg, name, value) triples; reading them in order preserves
        # the reference's trap order for undefined argument registers.
        specs = []
        for arg in instr.args:
            if type(arg) is Reg:
                specs.append((True, arg.name, None))
            elif type(arg) is Imm:
                specs.append((False, None, arg.value))
            else:
                error = TrapError(f"cannot evaluate operand {arg!r}")
                return self._raising_call(tuple(specs), error)
        arg_specs = tuple(specs)
        # A module function (which shadows an intrinsic of the same name)
        # is bound now; any other name resolves when the call executes,
        # so an undefined callee raises only if it is reached.
        function = machine.module.functions.get(callee)
        if function is None:
            # The argument loop is inline: intrinsic calls are hot.
            def do_call(env, _call=machine.call, _callee=callee,
                        _specs=arg_specs, _d=dest):
                args = []
                for is_reg, name, value in _specs:
                    if is_reg:
                        try:
                            args.append(env[name])
                        except KeyError:
                            _undefined(name)
                    else:
                        args.append(value)
                result = _call(_callee, args)
                if _d is not None:
                    env[_d] = result

            return do_call
        params = function.params
        if len(params) != len(arg_specs):
            # Checked now, raised when reached: after the argument reads,
            # before any call bookkeeping.
            return self._raising_call(arg_specs, MachineError(
                f"{callee}() takes {len(params)} args, "
                f"got {len(arg_specs)}"
            ))
        enter = machine.bind_call(function)
        # The callee's frame is built straight from the caller's
        # registers.  Register-only argument lists (nearly every call)
        # are unrolled up to three; an undefined register is the first
        # KeyError the dict display raises, in argument order.
        regs = tuple(name for is_reg, name, _ in arg_specs if is_reg)
        if len(regs) == len(arg_specs) == 1:
            def do_call(env, _enter=enter, _d=dest, _p=params[0],
                        _r=regs[0]):
                try:
                    frame = {_p: env[_r]}
                except KeyError:
                    _undefined(_r)
                result = _enter(frame)
                if _d is not None:
                    env[_d] = result

            return do_call
        if len(regs) == len(arg_specs) == 2:
            def do_call(env, _enter=enter, _d=dest, _p0=params[0],
                        _p1=params[1], _r0=regs[0], _r1=regs[1]):
                try:
                    frame = {_p0: env[_r0], _p1: env[_r1]}
                except KeyError as err:
                    _undefined(err.args[0])
                result = _enter(frame)
                if _d is not None:
                    env[_d] = result

            return do_call
        if len(regs) == len(arg_specs) == 3:
            def do_call(env, _enter=enter, _d=dest, _p0=params[0],
                        _p1=params[1], _p2=params[2], _r0=regs[0],
                        _r1=regs[1], _r2=regs[2]):
                try:
                    frame = {_p0: env[_r0], _p1: env[_r1], _p2: env[_r2]}
                except KeyError as err:
                    _undefined(err.args[0])
                result = _enter(frame)
                if _d is not None:
                    env[_d] = result

            return do_call

        def do_call(env, _enter=enter, _d=dest, _params=params,
                    _specs=arg_specs):
            result = _enter(dict(zip(_params, _read_args(env, _specs))))
            if _d is not None:
                env[_d] = result

        return do_call

    @staticmethod
    def _raising_call(specs: tuple, error: Exception):
        """A call that fails when reached, after reading ``specs``."""
        def do_call(env, _specs=specs, _error=error):
            _read_args(env, _specs)
            raise _error

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
            total = _stats.instructions + _count
            _stats.instructions = total
            if total > _m.step_limit:
                raise MachineError(
                    f"step limit {_m.step_limit} exceeded "
                    f"(infinite loop?)"
                )
            return _out

        return finish

    def _enter_finish(self, const: float, count: int,
                      instr: EnterRegion):
        """Commit, then dispatch into the region through the machine's
        entry for ``instr`` (``Machine.bind_entry``), fetched at this
        block's first dispatch, never at translation, so the region's
        stats and entry cache are created when the reference creates
        them."""
        machine = self.machine
        stats = machine.stats
        held: list = [None]

        def finish(env, extra, _m=machine, _stats=stats, _const=const,
                   _count=count, _instr=instr, _held=held):
            _stats.cycles += _const + extra
            total = _stats.instructions + _count
            _stats.instructions = total
            if total > _m.step_limit:
                raise MachineError(
                    f"step limit {_m.step_limit} exceeded "
                    f"(infinite loop?)"
                )
            dispatch = _held[0]
            if dispatch is None:
                dispatch = _held[0] = _m.bind_entry(_instr)
            return dispatch(env)

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
                total = _stats.instructions + _count
                _stats.instructions = total
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
                total = _stats.instructions + _count
                _stats.instructions = total
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
