"""Python-codegen backend: specialized regions as real code objects.

The direct-threaded backend (:mod:`repro.machine.threaded`) already folds
operand decoding and cost lookups into translation time, but it still
pays one Python call per block and a trip through its dispatch loop
between blocks.  This backend goes one emission tier further: each
function — host functions and runtime-emitted region code alike — is
lowered to Python *source*, compiled with :func:`compile`, and executed
as a single generated function, so a straight-line run of IR
instructions becomes a straight-line run of Python statements with zero
interpretive overhead.

Lowering rules (see ``DESIGN.md`` §9)
-------------------------------------

* Virtual registers stay in the shared ``env`` dict (``E``) — region code
  shares the host frame's environment across region boundaries (§2.1),
  so locals cannot be used for registers; immediates are folded into
  literals at translation time (the specializer already folded
  runtime-constant operands into ``Imm`` at specialization time).
* Control flow is rebuilt from the layout computed by
  :func:`repro.opt.regionshape.region_shape`: blocks are placed in
  greedy traces so most transfers become plain fallthrough, guarded by a
  monotone chain of ``if L <= k:`` tests that also admits *entry at any
  label* (promotion continuations and region-exit resumes re-enter the
  dispatch loop with an arbitrary label id).  Single-block loops become
  native ``while True:`` statements.
* Two modes: ``counted`` inlines the exact commit sequence of
  :meth:`repro.machine.interp.Machine._commit` with the cost terms of
  :mod:`repro.machine.costs` folded to literals, producing
  ``ExecutionStats`` byte-identical to the reference interpreter (the
  bench checksums enforce this); ``fast`` drops all cycle/step
  accounting and keeps only the semantics — pure wall-clock speed, with
  a dispatch counter standing in for the step limit.

Patch visibility and fallback
-----------------------------

Lazy promotions patch region code buffers *while they execute*; the
specializer bumps ``Function.version`` after each batch.  Generated
region code checks the version at every block transfer and returns
``('stale', label)`` so the driver can retranslate and resume at the
same label — the same protocol the threaded backend implements with its
per-block version re-check.

Compiled code objects are cached in a **bounded, checksummed**
:class:`~repro.runtime.cache.CodeCache` (the PR 3 cache machinery), with
a most-recent-translation fast path per function.  A refused or failed
compilation — the ``pycodegen.compile`` fault point, an oversize source,
or a genuine ``SyntaxError`` — degrades one rung down the backend
ladder: the threaded backend at entry (which itself may degrade to the
reference interpreter), or the reference interpreter directly when the
failure strikes mid-region (resumable at the current label).  See
``repro.runtime.fallback.BACKEND_LADDER``.
"""

from __future__ import annotations

import functools
import math
import os

from repro.errors import MachineError, TrapError
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
    Promote,
    Reg,
    Return,
    Store,
    UnOp,
)
from repro.machine.costs import binop_terms, flat_term, move_terms
from repro.machine.threaded import (
    _HELPER_GLOBALS,
    _INLINE_BINOPS,
    _INLINE_UNOPS,
    _INT_ONLY_NAMES,
    BINOP_FUNCS,
    UNOP_FUNCS,
    ThreadedBackend,
)
from repro.opt.regionshape import region_shape
from repro.runtime.cache import CodeCache, entry_checksum

#: Codegen modes accepted by ``--codegen-mode`` / ``OptConfig``.
CODEGEN_MODES = ("counted", "fast")

#: Refuse to compile generated sources larger than this many characters
#: (runaway unrolling at the codegen tier); the refusal degrades down
#: the backend ladder instead of failing the run.  Overridable via
#: ``REPRO_PYCODEGEN_SOURCE_LIMIT``.
DEFAULT_SOURCE_LIMIT = 2_000_000

#: Bound on retained translations in the backing code cache.
DEFAULT_CACHE_CAPACITY = 256

#: Tiered-compilation policy for region code.  ``compile()`` cost
#: scales with the emitted source, i.e. with the region's instruction
#: footprint, so the decision splits on size: a region at or below
#: ``EAGER_FOOTPRINT`` instructions compiles on first entry (the
#: compile is a couple of milliseconds at most, and looping regions —
#: which may be entered exactly once and do all their work inside —
#: are precisely the small ones); a larger region (typically a
#: completely-unrolled, straight-line body whose per-entry work is
#: bounded by its footprint) must first prove itself hot by running
#: ``max(DEFAULT_COMPILE_THRESHOLD, footprint // 4)`` entries on the
#: threaded tier, which is stats-identical, before the backend pays
#: for ``compile()``.  Host functions are always compiled eagerly
#: (few, small, shared across contexts).  The entry threshold is
#: overridable via ``REPRO_PYCODEGEN_THRESHOLD``; 0 disables tiering
#: and compiles every region eagerly.
DEFAULT_COMPILE_THRESHOLD = 8

#: Regions at or below this instruction footprint compile eagerly.
EAGER_FOOTPRINT = 128

#: Process-wide code-object cache, keyed by generated source text.  The
#: source embeds everything that affects the compiled code (costs are
#: folded to literals, so penalty/scale/mode/version/step-limit are all
#: part of the text); per-machine state (stats, env, runtime) binds at
#: ``exec`` time, which is microseconds.  Sharing code objects across
#: machines lets a second run of the same program — the harness builds
#: two machines per workload, and the bench repeats runs — skip
#: CPython's ``compile()`` entirely.
_CODE_OBJECTS: dict[str, object] = {}
_CODE_OBJECTS_CAP = 256


def resolve_compile_threshold(
        default: int = DEFAULT_COMPILE_THRESHOLD) -> int:
    raw = os.environ.get("REPRO_PYCODEGEN_THRESHOLD", "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return default


#: Memoized ``REPRO_PYCODEGEN_SOURCE_LIMIT`` — parsed once per process;
#: tests reset it via :func:`reset_source_limit_cache`.
_SOURCE_LIMIT_CACHE: int | None = None


def resolve_source_limit(default: int = DEFAULT_SOURCE_LIMIT) -> int:
    global _SOURCE_LIMIT_CACHE
    if default != DEFAULT_SOURCE_LIMIT:
        # A caller-supplied default participates in the fallback, so it
        # cannot share the process-wide memo.
        return _parse_source_limit(default)
    if _SOURCE_LIMIT_CACHE is None:
        _SOURCE_LIMIT_CACHE = _parse_source_limit(default)
    return _SOURCE_LIMIT_CACHE


def _parse_source_limit(default: int) -> int:
    raw = os.environ.get("REPRO_PYCODEGEN_SOURCE_LIMIT", "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return default


def reset_source_limit_cache() -> None:
    """Test hook: re-read ``REPRO_PYCODEGEN_SOURCE_LIMIT`` next time."""
    global _SOURCE_LIMIT_CACHE
    _SOURCE_LIMIT_CACHE = None


class CompileFault(MachineError):
    """The codegen backend refused or failed to compile a function.

    Raised by fault injection (the ``pycodegen.compile`` point), by the
    source-size budget, or by a genuine compile failure; the drivers
    catch it and degrade down the backend ladder
    (pycodegen -> threaded -> reference), which is stats-identical in
    counted mode except for ``degraded_compilations``.
    """


def _lit(value) -> str:
    """A Python literal that round-trips ``value`` exactly."""
    if type(value) is float and not math.isfinite(value):
        return f"float({str(value)!r})"
    return repr(value)


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------


class _Emitter:
    """Lowers one function to Python source for one (mode, penalty,
    scale, region) configuration."""

    def __init__(self, machine, fn: Function, penalty: float,
                 scale: float, region: bool, mode: str) -> None:
        self.costs = machine.costs
        self.module = machine.module
        self.fn = fn
        self.penalty = penalty
        self.scale = scale
        self.region = region
        self.mode = mode
        self.counted = mode == "counted"
        self.version = fn.version
        self.step_limit = machine.step_limit
        self.shape = region_shape(fn)
        self.ids = self.shape.ids
        self.lines: list[str] = []
        self.consts: list = []
        #: Module functions this code calls, in order of first call; the
        #: generated code reaches callee ``i`` as ``F{i}``, which
        #: ``_bind`` sets to the machine's entry for it.
        self.callees: list[str] = []
        # Per-block emission state.
        self.seg_const = 0.0
        self.seg_count = 0
        self.block_extra = False

    # -- low-level helpers ---------------------------------------------

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def const_ref(self, obj) -> str:
        self.consts.append(obj)
        return f"K[{len(self.consts) - 1}]"

    def callee_ref(self, name: str) -> str:
        if name not in self.callees:
            self.callees.append(name)
        return f"F{self.callees.index(name)}"

    @property
    def _limit_msg(self) -> str:
        return f"step limit {self.step_limit} exceeded (infinite loop?)"

    # -- top level ------------------------------------------------------

    def build(self) -> str:
        if not self.counted:
            self.emit(1, "D = 0")
        self.emit(1, "while True:")
        if self.region:
            self.emit(2, f"if C.version != {self.version}: "
                         "return ('stale', LBLS[L])")
        if not self.counted:
            self._emit_fast_guard(2)
        chains = []
        cursor = 0
        for chain in self.shape.chains:
            chains.append((cursor, cursor + len(chain) - 1, chain))
            cursor += len(chain)
        if chains:
            self._emit_dispatch(chains, 2)
        self.emit(2, "raise MachineError('pycodegen: unknown label id "
                     "%r' % (L,))")
        # The callees are known once the body is emitted; each is bound
        # as a default, like the other per-machine names.
        callees = "".join(f"F{i}=F{i}, " for i in range(len(self.callees)))
        header = ("def _run(E, L, ST=ST, C=C, K=K, LBLS=LBLS, "
                  f"{callees}CALL=CALL, LOAD=LOAD, STORE=STORE):")
        return header + "\n" + "\n".join(self.lines) + "\n"

    def _emit_dispatch(self, chains: list, ind: int) -> None:
        """Binary interval dispatch over chain id ranges.

        Only the left half of each split nests deeper, so the emitted
        indentation grows with log2(#chains), not with their count.
        """
        if len(chains) == 1:
            lo, _hi, labels = chains[0]
            for offset, label in enumerate(labels):
                next_label = (labels[offset + 1]
                              if offset + 1 < len(labels) else None)
                self._emit_block(label, lo + offset, ind, next_label,
                                 first=offset == 0)
            return
        mid = (len(chains) + 1) // 2
        self.emit(ind, f"if L <= {chains[mid - 1][1]}:")
        self._emit_dispatch(chains[:mid], ind + 1)
        self._emit_dispatch(chains[mid:], ind)

    def _emit_fast_guard(self, ind: int) -> None:
        """Fast mode has no step accounting; a dispatch counter stands in
        for the step limit (any loop passes a dispatch point)."""
        self.emit(ind, "D += 1")
        self.emit(ind, f"if D > {self.step_limit}: "
                       f"raise MachineError({self._limit_msg!r})")

    # -- blocks ---------------------------------------------------------

    def _emit_block(self, label: str, bid: int, ind: int,
                    next_label: str | None, first: bool) -> None:
        # The first block in a chain is only entered by direct dispatch
        # (exact id); later blocks also admit fallthrough from above,
        # which the monotone <= guard encodes: an entry id m skips every
        # block k < m (guard m <= k fails) and starts at block m.
        self.emit(ind, f"if L == {bid}:" if first else f"if L <= {bid}:")
        before = len(self.lines)
        if label in self.shape.self_loops:
            self._emit_self_loop(label, ind + 1, next_label)
        else:
            self._emit_body(label, ind + 1, next_label)
        if len(self.lines) == before:
            self.emit(ind + 1, "pass")

    def _begin_block(self, block, b: int) -> None:
        self.seg_const = 0.0
        self.seg_count = 0
        self.block_extra = self._block_may_extra(block)
        if self.counted and self.block_extra:
            self.emit(b, "X = 0.0")

    def _emit_body(self, label: str, b: int,
                   next_label: str | None) -> None:
        block = self.fn.blocks[label]
        self._begin_block(block, b)
        for instr in block.instrs:
            if self._emit_instr(instr, b, next_label):
                return
        # Fell off the end: charge the straight-line part, then fail
        # exactly as the reference does.
        self._emit_commit(b)
        msg = f"block {label!r} fell through without a terminator"
        self.emit(b, f"raise MachineError({msg!r})")

    def _emit_self_loop(self, label: str, b: int,
                        next_label: str | None) -> None:
        """A single-block loop becomes a native ``while`` statement: the
        back edge stays inside the generated loop (one version check per
        iteration in region code, no dispatch)."""
        block = self.fn.blocks[label]
        term = block.instrs[-1]
        self.emit(b, "while True:")
        w = b + 1
        if not self.counted:
            self._emit_fast_guard(w)
        self._begin_block(block, w)
        for instr in block.instrs[:-1]:
            if self._emit_instr(instr, w, None):
                return  # an unconditional raise ended the block early
        self.emit(w, f"_c = E[{term.cond.name!r}]")
        self.seg_const += flat_term(self.costs.branch, self.scale,
                                    self.penalty)
        self.seg_count += 1
        self._emit_commit(w)
        if term.if_true == label:
            self.emit(w, "if _c:")
            self._emit_stale_guard(w + 1, label)
            self.emit(w + 1, "continue")
            self.emit(w, "break")
            exit_label = term.if_false
        else:
            self.emit(w, "if _c: break")
            self._emit_stale_guard(w, label)
            self.emit(w, "continue")
            exit_label = term.if_true
        self._emit_transfer(exit_label, b, next_label)

    def _block_may_extra(self, block) -> bool:
        """Could any instruction in this block add a float-operand extra?
        (Over-approximate; only gates emission of the ``X`` accumulator.)
        """
        if not self.counted:
            return False
        for instr in block.instrs:
            cls = type(instr)
            if cls is BinOp or cls is UnOp:
                return True
            if cls is Move and type(instr.src) is Reg:
                return True
        return False

    # -- transfers and accounting --------------------------------------

    def _emit_stale_guard(self, ind: int, label: str) -> None:
        """Region code re-checks the version at every block transfer so a
        mid-execution patch is picked up before the next block runs."""
        if self.region:
            self.emit(ind, f"if C.version != {self.version}: "
                           f"return ('stale', {label!r})")

    def _emit_transfer(self, target: str, ind: int,
                       next_label: str | None) -> None:
        tid = self.ids.get(target)
        if tid is None:
            msg = f"pycodegen: jump to unknown block {target!r}"
            self.emit(ind, f"raise MachineError({msg!r})")
            return
        if next_label is not None and target == next_label:
            self._emit_stale_guard(ind, target)
            return  # fallthrough into the next emitted block
        self.emit(ind, f"L = {tid}")
        self.emit(ind, "continue")

    def _emit_commit(self, b: int) -> None:
        """Inline the exact :meth:`Machine._commit` sequence for the
        accumulated segment (counted mode); reset the segment."""
        const, count = self.seg_const, self.seg_count
        self.seg_const = 0.0
        self.seg_count = 0
        if not self.counted or count == 0:
            return
        # The reference commits ``acc + extra``; with no possible extras
        # the addition of 0.0 is a bitwise identity and is elided.
        if self.block_extra:
            self.emit(b, f"ST.cycles += {const!r} + X")
        elif const != 0.0:
            self.emit(b, f"ST.cycles += {const!r}")
        self.emit(b, f"_t = ST.instructions + {count}")
        self.emit(b, "ST.instructions = _t")
        self.emit(b, f"if _t > {self.step_limit}: "
                     f"raise MachineError({self._limit_msg!r})")

    # -- instructions ---------------------------------------------------

    def _emit_instr(self, instr, b: int,
                    next_label: str | None) -> bool:
        """Emit one instruction; True when it terminated the block."""
        cls = type(instr)
        if cls is BinOp:
            self._emit_binop(instr, b)
            return False
        if cls is Move:
            self._emit_move(instr, b)
            return False
        if cls is Load:
            self._emit_load(instr, b)
            return False
        if cls is Store:
            self._emit_store(instr, b)
            return False
        if cls is UnOp:
            self._emit_unop(instr, b)
            return False
        if cls is Call:
            self._emit_call(instr, b)
            return False
        if cls is MakeStatic or cls is MakeDynamic:
            # Annotations execute for free in every backend.
            return False
        if cls is Jump:
            self.seg_const += flat_term(self.costs.jump, self.scale,
                                        self.penalty)
            self.seg_count += 1
            self._emit_commit(b)
            self._emit_transfer(instr.target, b, next_label)
            return True
        if cls is Branch:
            self._emit_branch(instr, b, next_label)
            return True
        if cls is Return:
            self._emit_return(instr, b)
            return True
        if cls is EnterRegion:
            self.seg_count += 1
            self._emit_commit(b)
            self.emit(b, f"return ('enter_region', "
                         f"{self.const_ref(instr)})")
            return True
        if cls is Promote:
            self.seg_count += 1
            self._emit_commit(b)
            self.emit(b, f"return ('promote', {self.const_ref(instr)})")
            return True
        if cls is ExitRegion:
            self.seg_const += flat_term(self.costs.jump, self.scale,
                                        self.penalty)
            self.seg_count += 1
            self._emit_commit(b)
            self.emit(b, f"return ('exit', {instr.index!r})")
            return True
        msg = f"cannot execute {cls.__name__}"
        self.emit(b, f"raise MachineError({msg!r})")
        return True  # nothing after an unconditional raise can run

    def _bad_operand(self, operand, b: int, read_first=()) -> None:
        """Defer an unevaluable operand to execution time, reading any
        preceding register operands first so undefined-variable traps
        keep the reference's left-to-right order."""
        for prior in read_first:
            if type(prior) is Reg:
                self.emit(b, f"_t = E[{prior.name!r}]")
        msg = f"cannot evaluate operand {operand!r}"
        self.emit(b, f"raise TrapError({msg!r})")

    def _emit_binop(self, instr: BinOp, b: int) -> None:
        op = instr.op
        base, fp_extra = binop_terms(self.costs, op.value, self.scale,
                                     self.penalty)
        self.seg_const += base
        self.seg_count += 1
        fn = BINOP_FUNCS.get(op)
        if fn is None:
            msg = f"{op} is not a binary operator"
            self.emit(b, f"raise TrapError({msg!r})")
            return
        lhs, rhs = instr.lhs, instr.rhs
        lk, rk = type(lhs), type(rhs)
        if lk is not Reg and lk is not Imm:
            self._bad_operand(lhs, b)
            return
        if rk is not Reg and rk is not Imm:
            self._bad_operand(rhs, b, read_first=(lhs,))
            return
        tmpl = _INLINE_BINOPS[op]
        dest = f"E[{instr.dest!r}]"
        # A float operand of an int-only operator traps before the
        # commit, so its extra is never charged.
        counted = self.counted and op.value not in _INT_ONLY_NAMES
        if lk is Reg and rk is Reg:
            self.emit(b, f"_a = E[{lhs.name!r}]")
            self.emit(b, f"_b = E[{rhs.name!r}]")
            self.emit(b, f"{dest} = {tmpl.format(a='_a', b='_b')}")
            if counted:
                self.emit(b, "if type(_a) is float or type(_b) is "
                             f"float: X += {fp_extra!r}")
            return
        if lk is Reg:
            value = rhs.value
            self.emit(b, f"_a = E[{lhs.name!r}]")
            self.emit(b, f"{dest} = {tmpl.format(a='_a', b=_lit(value))}")
            if counted:
                if type(value) is float:
                    self.emit(b, f"X += {fp_extra!r}")
                else:
                    self.emit(b, f"if type(_a) is float: X += {fp_extra!r}")
            return
        if rk is Reg:
            value = lhs.value
            self.emit(b, f"_b = E[{rhs.name!r}]")
            self.emit(b, f"{dest} = {tmpl.format(a=_lit(value), b='_b')}")
            if counted:
                if type(value) is float:
                    self.emit(b, f"X += {fp_extra!r}")
                else:
                    self.emit(b, f"if type(_b) is float: X += {fp_extra!r}")
            return
        # Both immediate: fold at translation time unless evaluation
        # traps (a division by zero must trap at execution time).
        a, v = lhs.value, rhs.value
        is_fp = type(a) is float or type(v) is float
        try:
            result = fn(a, v)
        except TrapError:
            self.emit(b, f"{dest} = {tmpl.format(a=_lit(a), b=_lit(v))}")
        else:
            self.emit(b, f"{dest} = {_lit(result)}")
        if counted and is_fp:
            self.emit(b, f"X += {fp_extra!r}")

    def _emit_unop(self, instr: UnOp, b: int) -> None:
        base, fp_extra = binop_terms(self.costs, "alu", self.scale,
                                     self.penalty)
        self.seg_const += base
        self.seg_count += 1
        fn = UNOP_FUNCS.get(instr.op)
        if fn is None:
            msg = f"{instr.op} is not a unary operator"
            self.emit(b, f"raise TrapError({msg!r})")
            return
        src = instr.src
        dest = f"E[{instr.dest!r}]"
        if type(src) is Reg:
            tmpl = _INLINE_UNOPS[instr.op]
            self.emit(b, f"_a = E[{src.name!r}]")
            self.emit(b, f"{dest} = {tmpl.format(a='_a')}")
            if self.counted:
                self.emit(b, f"if type(_a) is float: X += {fp_extra!r}")
            return
        if type(src) is not Imm:
            self._bad_operand(src, b)
            return
        self.emit(b, f"{dest} = {_lit(fn(src.value))}")
        if self.counted and type(src.value) is float:
            self.emit(b, f"X += {fp_extra!r}")

    def _emit_move(self, instr: Move, b: int) -> None:
        src = instr.src
        dest = f"E[{instr.dest!r}]"
        if type(src) is Imm:
            value = src.value
            self.seg_const += flat_term(
                self.costs.materialize_cost(type(value) is float),
                self.scale, self.penalty,
            )
            self.seg_count += 1
            self.emit(b, f"{dest} = {_lit(value)}")
            return
        if type(src) is not Reg:
            self._bad_operand(src, b)
            return
        base, fp_extra = move_terms(self.costs, self.scale, self.penalty)
        self.seg_const += base
        self.seg_count += 1
        self.emit(b, f"_v = E[{src.name!r}]")
        self.emit(b, f"{dest} = _v")
        if self.counted:
            self.emit(b, f"if type(_v) is float: X += {fp_extra!r}")

    def _emit_load(self, instr: Load, b: int) -> None:
        self.seg_const += flat_term(self.costs.load, self.scale,
                                    self.penalty)
        self.seg_count += 1
        addr = instr.addr
        if type(addr) is Reg:
            expr = f"E[{addr.name!r}]"
        elif type(addr) is Imm:
            expr = _lit(addr.value)
        else:
            self._bad_operand(addr, b)
            return
        self.emit(b, f"E[{instr.dest!r}] = LOAD({expr})")

    def _emit_store(self, instr: Store, b: int) -> None:
        self.seg_const += flat_term(self.costs.store, self.scale,
                                    self.penalty)
        self.seg_count += 1
        exprs = []
        operands = (instr.addr, instr.value)
        for index, operand in enumerate(operands):
            if type(operand) is Reg:
                exprs.append(f"E[{operand.name!r}]")
            elif type(operand) is Imm:
                exprs.append(_lit(operand.value))
            else:
                self._bad_operand(operand, b,
                                  read_first=operands[:index])
                return
        self.emit(b, f"STORE({exprs[0]}, {exprs[1]})")

    def _emit_call(self, instr: Call, b: int) -> None:
        # A Call ends the segment: the reference commits before
        # evaluating the arguments.
        self.seg_count += 1
        self._emit_commit(b)
        if self.counted and self.block_extra:
            self.emit(b, "X = 0.0")
        arg_exprs = []
        for index, arg in enumerate(instr.args):
            if type(arg) is Reg:
                arg_exprs.append(f"E[{arg.name!r}]")
            elif type(arg) is Imm:
                arg_exprs.append(_lit(arg.value))
            else:
                # Evaluate the preceding arguments (left-to-right trap
                # order), then fail on the unevaluable one.
                if arg_exprs:
                    self.emit(b, f"[{', '.join(arg_exprs)}]")
                self._bad_operand(arg, b)
                return
        callee = instr.callee
        function = self.module.functions.get(callee)
        if function is None:
            # Intrinsics and names nothing defines resolve by name when
            # the call executes, so an undefined callee raises only if
            # the call is reached.
            call = f"CALL({callee!r}, [{', '.join(arg_exprs)}])"
        elif len(function.params) != len(arg_exprs):
            # The arguments are read first (trap order), then the call
            # fails before any call bookkeeping.
            if arg_exprs:
                self.emit(b, f"[{', '.join(arg_exprs)}]")
            msg = (f"{callee}() takes {len(function.params)} args, "
                   f"got {len(arg_exprs)}")
            self.emit(b, f"raise MachineError({msg!r})")
            return
        else:
            # A module function is called through the machine's entry
            # for it, with the callee's frame built in place.
            frame = ", ".join(f"{param!r}: {expr}" for param, expr
                              in zip(function.params, arg_exprs))
            call = f"{self.callee_ref(callee)}({{{frame}}})"
        if instr.dest is None:
            self.emit(b, call)
        else:
            self.emit(b, f"E[{instr.dest!r}] = {call}")

    def _emit_branch(self, instr: Branch, b: int,
                     next_label: str | None) -> None:
        cond = instr.cond
        ck = type(cond)
        if ck is Reg:
            # The condition is read before the commit, matching the
            # reference (an undefined condition traps uncommitted).
            self.emit(b, f"_c = E[{cond.name!r}]")
        elif ck is not Imm:
            self._bad_operand(cond, b)
            return
        self.seg_const += flat_term(self.costs.branch, self.scale,
                                    self.penalty)
        self.seg_count += 1
        self._emit_commit(b)
        if ck is Imm:
            target = instr.if_true if cond.value else instr.if_false
            self._emit_transfer(target, b, next_label)
            return
        t_label, f_label = instr.if_true, instr.if_false
        tid, fid = self.ids.get(t_label), self.ids.get(f_label)
        if next_label is not None and f_label == next_label \
                and tid is not None:
            self.emit(b, f"if _c: L = {tid}; continue")
            self._emit_stale_guard(b, f_label)
            return  # false arm falls through
        if next_label is not None and t_label == next_label \
                and fid is not None:
            self.emit(b, f"if not _c: L = {fid}; continue")
            self._emit_stale_guard(b, t_label)
            return  # true arm falls through
        if tid is not None and fid is not None:
            self.emit(b, f"L = {tid} if _c else {fid}")
            self.emit(b, "continue")
            return
        self.emit(b, "if _c:")
        self._emit_transfer(t_label, b + 1, None)
        self.emit(b, "else:")
        self._emit_transfer(f_label, b + 1, None)

    def _emit_return(self, instr: Return, b: int) -> None:
        self.seg_const += flat_term(self.costs.return_cost, self.scale,
                                    self.penalty)
        self.seg_count += 1
        value = instr.value
        # The reference commits first, then reads the return value.
        self._emit_commit(b)
        if value is None:
            self.emit(b, "return ('return', None)")
        elif type(value) is Imm:
            self.emit(b, f"return ('return', {_lit(value.value)})")
        elif type(value) is Reg:
            self.emit(b, f"return ('return', E[{value.name!r}])")
        else:
            msg = f"cannot evaluate operand {value!r}"
            self.emit(b, f"raise TrapError({msg!r})")


# ----------------------------------------------------------------------
# Translations
# ----------------------------------------------------------------------


class _PyTranslation:
    __slots__ = ("function", "version", "penalty", "scale", "region",
                 "mode", "run", "ids", "labels", "source")

    def __init__(self, function: Function, penalty: float, scale: float,
                 region: bool, mode: str, run, ids: dict,
                 labels: tuple, source: str) -> None:
        self.function = function
        self.version = function.version
        self.penalty = penalty
        self.scale = scale
        self.region = region
        self.mode = mode
        self.run = run
        self.ids = ids
        self.labels = labels
        self.source = source

    def cache_identity(self) -> tuple:
        """Stable identity fields for the cache's integrity stamps.

        Translations are immutable once built (a patched function gets a
        *new* translation under a new version key), so the full identity
        tuple is stable for the entry's lifetime.
        """
        return (self.function.name, self.version, self.mode,
                int(self.region), self.penalty, self.scale,
                len(self.source))


class PyCodegenBackend:
    """Per-machine Python-source translator + drivers."""

    def __init__(self, machine, mode: str = "counted",
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if mode not in CODEGEN_MODES:
            raise MachineError(
                f"unknown codegen mode {mode!r} "
                f"(expected one of {CODEGEN_MODES})"
            )
        self.machine = machine
        self.mode = mode
        self.source_limit = resolve_source_limit()
        self.compile_threshold = resolve_compile_threshold()
        #: Region-code heat for tiered compilation: id(code) ->
        #: [code, entries, tiered_up].  Holds a strong reference to the
        #: code object so a recycled id can never alias a new region.
        self._heat: dict[int, list] = {}
        #: Most-recent translation per function — the O(1) hot path.
        #: Entries hold a strong reference to their Function, so a
        #: cached id can never be recycled by a different object.
        self._latest: dict[int, _PyTranslation] = {}
        #: id(host function) -> its host translation, checked against
        #: ``Function.version`` only: a host function's penalty and scale
        #: are fixed for the machine (same strong-reference guarantee).
        self._hosts: dict[int, _PyTranslation] = {}
        #: id(region code) -> [code, footprint, penalty, translation]:
        #: what an entry needs, kept per code version, as the threaded
        #: region loop keeps it (same strong-reference guarantee).
        self._regions: dict[int, list] = {}
        #: Bounded, checksummed backing store (PR 3 cache machinery);
        #: authoritative for retention, re-verified on every hit.
        self._store = CodeCache(capacity=cache_capacity,
                                checksum=entry_checksum)
        self._threaded: ThreadedBackend | None = None
        # Introspection counters (tests / reporting).
        self.compiled_functions = 0
        self.oversize_refusals = 0

    # -- cache ----------------------------------------------------------

    def translation(self, fn: Function, penalty: float, scale: float,
                    region: bool) -> _PyTranslation:
        entry = self._latest.get(id(fn))
        if (entry is not None and entry.function is fn
                and entry.version == fn.version
                and entry.penalty == penalty
                and entry.scale == scale
                and entry.region == region):
            return entry
        key = (id(fn), fn.version, penalty, scale, int(region),
               self.mode)
        found = self._store.lookup(key)
        if found.hit and found.value.function is fn:
            self._latest[id(fn)] = found.value
            return found.value
        runtime = self.machine.runtime
        if runtime is not None:
            faults = getattr(runtime, "faults", None)
            if faults is not None and faults.active \
                    and faults.should_fire("pycodegen.compile"):
                raise CompileFault(
                    f"injected fault compiling {fn.name!r} "
                    f"(version {fn.version})"
                )
        entry = self._compile(fn, penalty, scale, region)
        self._store.insert(key, entry)
        self._latest[id(fn)] = entry
        return entry

    def _code_object(self, fn: Function, source: str):
        """The process-wide source-keyed code object for ``source``."""
        code = _CODE_OBJECTS.get(source)
        if code is None:
            filename = f"<pycodegen:{fn.name}:v{fn.version}>"
            try:
                code = compile(source, filename, "exec")
            except SyntaxError as exc:  # pragma: no cover - defensive
                raise CompileFault(
                    f"pycodegen emitted invalid source for {fn.name!r}: "
                    f"{exc}"
                ) from exc
            if len(_CODE_OBJECTS) >= _CODE_OBJECTS_CAP:
                _CODE_OBJECTS.clear()
            _CODE_OBJECTS[source] = code
        return code

    def _bind(self, fn: Function, penalty: float, scale: float,
              region: bool, code, source: str, consts: tuple,
              ids: dict, labels, callees: list) -> _PyTranslation:
        """Exec ``code`` against this machine and wrap the entry point."""
        machine = self.machine
        namespace = dict(_HELPER_GLOBALS)
        functions = machine.module.functions
        for index, name in enumerate(callees):
            namespace[f"F{index}"] = machine.bind_call(functions[name])
        namespace.update(
            TrapError=TrapError,
            MachineError=MachineError,
            ST=machine.stats,
            C=fn,
            K=consts,
            LBLS=labels,
            CALL=machine.call,
            LOAD=machine.memory.load,
            STORE=machine.memory.store,
        )
        exec(code, namespace)
        self.compiled_functions += 1
        return _PyTranslation(
            fn, penalty, scale, region, self.mode,
            namespace["_run"], ids, labels, source,
        )

    def _compile(self, fn: Function, penalty: float, scale: float,
                 region: bool) -> _PyTranslation:
        emitter = _Emitter(self.machine, fn, penalty, scale, region,
                           self.mode)
        source = emitter.build()
        if len(source) > self.source_limit:
            self.oversize_refusals += 1
            raise CompileFault(
                f"generated source for {fn.name!r} is {len(source)} "
                f"chars (limit {self.source_limit}); see DYC210"
            )
        code = self._code_object(fn, source)
        return self._bind(fn, penalty, scale, region, code, source,
                          tuple(emitter.consts), dict(emitter.ids),
                          emitter.shape.order, emitter.callees)

    # -- fallback -------------------------------------------------------

    def _fallback(self) -> ThreadedBackend:
        """Next rung of the backend ladder (built lazily; it degrades
        further to the reference interpreter on its own faults)."""
        if self._threaded is None:
            self._threaded = ThreadedBackend(self.machine)
        return self._threaded

    # -- drivers --------------------------------------------------------

    @staticmethod
    def _run_guarded(trans: _PyTranslation, env: dict, lid: int):
        """Invoke generated code, mapping register-file misses back to
        the machine's trap protocol.  Generated code reads registers as
        plain ``E[name]`` lookups; a ``KeyError`` whose key is a string
        is an undefined virtual register (``Memory`` raises
        ``MemoryFault``, never ``KeyError``, so there is no collision).
        """
        try:
            return trans.run(env, lid)
        except KeyError as err:
            name = err.args[0] if err.args else None
            if isinstance(name, str):
                raise TrapError(
                    f"use of undefined variable {name!r}"
                ) from None
            raise

    def host_loop(self, function: Function):
        """``run(frame)`` for calls of ``function`` (see
        ``Machine.bind_call``)."""
        return functools.partial(self.exec_function, function)

    def exec_function(self, function: Function, env: dict):
        """Codegen equivalent of ``Machine._exec_function_interp``.

        The penalty is computed only when a host translation is built;
        a refused compilation stores nothing, so the next call retries.
        """
        machine = self.machine
        trans = self._hosts.get(id(function))
        if trans is None or trans.version != function.version:
            penalty = machine.icache.per_instruction_penalty(
                function.instruction_count()
            )
            scale = machine.costs.static_schedule_factor
            try:
                trans = self.translation(function, penalty, scale,
                                         region=False)
            except CompileFault:
                machine.stats.degraded_compilations += 1
                return self._fallback().exec_function(function, env)
            self._hosts[id(function)] = trans
        lid = trans.ids[function.entry]
        while True:
            kind, payload = self._run_guarded(trans, env, lid)
            if kind == "return":
                return payload
            if kind == "enter_region":
                outcome, value = machine.bind_entry(payload)(env)
                if outcome == "return":
                    return value
                lid = trans.ids[value]
            else:  # pragma: no cover - defensive
                raise MachineError(
                    f"unexpected block outcome {kind!r}"
                )

    def exec_region_code(self, code: Function, env: dict,
                         footprint: int) -> tuple[str, object]:
        """Codegen equivalent of ``Machine._exec_region_interp``.

        The penalty is fixed at entry (from ``footprint``), matching the
        reference; it is kept per ``(code, footprint)`` and the
        translation per ``Function.version``, so an entry into code that
        has not changed computes neither.  Generated region code returns
        ``('stale', label)`` whenever the version changes under it, and
        the driver retranslates and resumes.  A compile failure degrades
        to the threaded backend at entry, or — mid-region, where only
        the reference loop is label-resumable from outside — directly
        to the reference interpreter.
        """
        machine = self.machine
        if self.compile_threshold and footprint > EAGER_FOOTPRINT:
            heat = self._heat.get(id(code))
            if heat is None or heat[0] is not code:
                heat = [code, 0, False]
                self._heat[id(code)] = heat
            if not heat[2]:
                heat[1] += 1
                if heat[1] <= max(self.compile_threshold,
                                  footprint // 4):
                    # Still cold: run this entry on the threaded tier
                    # (stats-identical) instead of paying compile().
                    return self._fallback().exec_region_code(
                        code, env, footprint
                    )
                heat[2] = True
        bound = self._regions.get(id(code))
        if bound is None or bound[0] is not code or bound[1] != footprint:
            penalty = machine.icache.per_instruction_penalty(footprint)
            bound = [code, footprint, penalty, None]
            self._regions[id(code)] = bound
        penalty = bound[2]
        trans = bound[3]
        if trans is None or trans.version != code.version:
            try:
                trans = self.translation(code, penalty, 1.0, region=True)
            except CompileFault:
                machine.stats.degraded_compilations += 1
                return self._fallback().exec_region_code(code, env,
                                                         footprint)
            bound[3] = trans
        label = code.entry
        while True:
            if code.version != trans.version:
                try:
                    trans = self.translation(code, penalty, 1.0,
                                             region=True)
                except CompileFault:
                    machine.stats.degraded_compilations += 1
                    return machine._exec_region_interp(
                        code, env, footprint, label
                    )
                bound[3] = trans
            lid = trans.ids[label]
            kind, payload = self._run_guarded(trans, env, lid)
            if kind in ("exit", "return"):
                return (kind, payload)
            if kind == "promote":
                label = machine.runtime.promote(machine, payload, env,
                                                code)
            elif kind == "stale":
                label = payload
            else:  # pragma: no cover - defensive
                raise MachineError(
                    f"unexpected outcome {kind!r} in region code"
                )
