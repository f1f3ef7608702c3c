"""The completion stage of DyC's staged dynamic optimizations (§2.2.7).

A :class:`BlockEmitter` builds one emitted block.  As template
instructions arrive (holes already filled with run-time-constant values),
it performs:

* **dynamic zero and copy propagation** — when the single static operand
  of an eligible operation turns out to be 0 or 1 (etc.), the operation
  is replaced by a clear/move; a *note table* records the replacement so
  eligible downstream uses are rewritten ("Emit code sequences for uses
  of the potentially optimized instruction check the table to see how
  they should generate code for their operand");
* **dead-assignment elimination** — buffered instructions carry
  statically planned use counts; when zero/copy propagation eliminates
  the last reference to a result, the producing instruction is deleted,
  cascading to *its* operands (this is what deletes the image loads in
  pnmconvol's zero iterations, Figure 4);
* **dynamic strength reduction** — multiplies/divides/moduli by run-time
  constant powers of two become shifts/masks, by the static pass's rule;
  ×1 becomes a move and ×0 a clear (which alone buys nothing for floats
  on the 21164, since an FP move costs an FP multiply — the paper's
  motivation for ZCP+DAE);
* **immediate fitting** — integer constants that fit an instruction
  literal field are used inline, anything else is materialized into a
  register by an extra emitted move.

Notes and use counts are scoped to one emitted block: the planning stage
identifies downstream uses within the template block (crossing blocks
would require path-sensitive validity of the notes, which DyC's planner
guarantees statically; block scoping is our conservative equivalent).

No run-time IR analysis happens here — only the statically computed
:class:`~repro.dyc.plans.InstrPlan` plus the note table, as the paper
requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import OptConfig
from repro.dyc.plans import ZCP_RULES, InstrPlan
from repro.errors import SpecializationError, TrapError
from repro.ir.eval import eval_binop, fits_immediate
from repro.opt.strength import reduction
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Imm,
    Instr,
    Load,
    Move,
    Op,
    Operand,
    Reg,
    Return,
    Store,
    UnOp,
)
from repro.runtime.overhead import OverheadModel
from repro.runtime.stats import RegionStats

#: Plan used for materialization moves the emitter inserts itself.
MAT_PLAN = InstrPlan(zcp_candidate=False, sr_candidate=False,
                     local_uses=1, remote=False, removable=True)

#: Materialization temporaries are named ``%mat1``, ``%mat2``, ... afresh
#: in every block.
MAT_PREFIX = "%mat"

#: The use record of an operand that reads no register: a cascade delete
#: skips it.
NO_USE = (None, None)


def check_template_fault(faults) -> None:
    """The ``emit.template`` fault point, fired once per emitted template
    instruction while it is armed."""
    if faults.should_fire("emit.template"):
        raise SpecializationError(
            "injected fault while emitting a template instruction",
            fault_point="emit.template",
        )


@dataclass(slots=True)
class BufferedInstr:
    """An emitted instruction awaiting block flush, with DAE bookkeeping."""

    instr: Instr
    expected_uses: int
    remote: bool
    removable: bool
    pinned: bool = False
    dead: bool = False
    #: (register, producing buffer index or None) at emit time, so a
    #: cascade delete can release this instruction's own operands; left
    #: empty for an instruction no delete can reach (remote or not
    #: removable).
    use_producers: tuple[tuple[str, int | None], ...] = ()


class BlockEmitter:
    """Emits one block of specialized code with ZCP/DAE/SR completion.

    One emitter serves a whole specialization batch: :meth:`reset`
    starts each block.  The compiled generating extensions
    (:mod:`repro.dyc.lowering`) work on the same state for the common
    cases: they append to :attr:`items`, record :attr:`producers` and
    number :attr:`mat_counter` as :meth:`_append` and
    :meth:`_materialize` do, and call the methods here for the rest.
    """

    def __init__(self, config: OptConfig, overhead: OverheadModel,
                 stats: RegionStats, charge, faults=None) -> None:
        self.config = config
        self.overhead = overhead
        self.stats = stats
        self.charge = charge  # callable(cycles): accumulate DC overhead
        # Armed only when the emit.template fault point is configured, so
        # the hot path pays a single None check otherwise.
        self.faults = faults if faults is not None and \
            faults.enabled("emit.template") else None
        # Hot-path caches (_complete runs once per emitted template
        # instruction per specialized context).
        self._emit_cost = overhead.emit_instruction
        self._hole_cost = overhead.hole_patch
        self._zcp_enabled = config.zero_copy_propagation
        self.reset()

    def reset(self) -> None:
        """Start a new block."""
        self.items: list[BufferedInstr] = []
        #: register -> producing buffer index (None: constant/zero note).
        self.producers: dict[str, int | None] = {}
        #: register -> ("const", value) | ("copy", Reg); recorded only
        #: with zero/copy propagation on.
        self.notes: dict[str, tuple] = {}
        self.mat_counter = 0
        self._residualized: set[str] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def emit_template(self, instr: Instr, values: dict[str, object],
                      plan: InstrPlan | None) -> None:
        """Emit one template instruction, filling its holes from
        ``values`` and its operands from the note table."""
        if values or (self._zcp_enabled and self.notes):
            instr = self._substitute(instr, values)
        self._complete(instr, plan, len(values))

    def _complete(self, instr: Instr, plan: InstrPlan | None,
                  holes: int) -> None:
        """Finish one substituted template instruction: charge it, then
        fold/reduce, fit immediates and append."""
        if self.faults is not None:
            check_template_fault(self.faults)
        self.charge(self._emit_cost + self._hole_cost * holes)
        if isinstance(instr, BinOp) and plan is not None:
            if self._try_fold_or_reduce(instr, plan):
                return
        self._emit_final(instr, plan)

    def flush(self, terminator: Instr) -> list[Instr]:
        """Return the finished block body plus ``terminator``."""
        body = [item.instr for item in self.items if not item.dead]
        body.append(terminator)
        return body

    # ------------------------------------------------------------------
    # Substitution: holes and note propagation
    # ------------------------------------------------------------------

    def _resolve_operand(self, operand: Operand,
                         values: dict[str, object]) -> Operand:
        if isinstance(operand, Reg):
            name = operand.name
            if name in values:
                return Imm(values[name])
            if self._zcp_enabled:
                note = self.notes.get(name)
                if note is not None:
                    if note[0] == "const":
                        return Imm(note[1])
                    return note[1]  # ("copy", Reg)
        return operand

    def _substitute(self, instr: Instr, values: dict[str, object]) -> Instr:
        # Operands resolve to themselves in the common case; returning
        # the original (immutable) instruction then skips a dataclass
        # construction on the dynamic-compilation hot path.
        resolve = self._resolve_operand
        if isinstance(instr, BinOp):
            lhs = resolve(instr.lhs, values)
            rhs = resolve(instr.rhs, values)
            if lhs is instr.lhs and rhs is instr.rhs:
                return instr
            return BinOp(instr.dest, instr.op, lhs, rhs)
        if isinstance(instr, Move):
            src = resolve(instr.src, values)
            if src is instr.src:
                return instr
            return Move(instr.dest, src)
        if isinstance(instr, Load):
            addr = resolve(instr.addr, values)
            if addr is instr.addr:
                return instr
            return Load(instr.dest, addr, static=instr.static)
        if isinstance(instr, Store):
            addr = resolve(instr.addr, values)
            value = resolve(instr.value, values)
            if addr is instr.addr and value is instr.value:
                return instr
            return Store(addr, value)
        if isinstance(instr, UnOp):
            src = resolve(instr.src, values)
            if src is instr.src:
                return instr
            return UnOp(instr.dest, instr.op, src)
        if isinstance(instr, Call):
            args = tuple(resolve(a, values) for a in instr.args)
            if all(a is b for a, b in zip(args, instr.args)):
                return instr
            return Call(instr.dest, instr.callee, args,
                        static=instr.static)
        if isinstance(instr, Branch):
            cond = resolve(instr.cond, values)
            if cond is instr.cond:
                return instr
            return Branch(cond, instr.if_true, instr.if_false)
        if isinstance(instr, Return):
            if instr.value is None:
                return instr
            value = resolve(instr.value, values)
            if value is instr.value:
                return instr
            return Return(value)
        return instr

    # ------------------------------------------------------------------
    # ZCP + SR decision
    # ------------------------------------------------------------------

    def _try_fold_or_reduce(self, instr: BinOp, plan: InstrPlan) -> bool:
        """Apply value-dependent folding; True when fully handled.

        Zero/copy propagation reads :data:`repro.dyc.plans.ZCP_RULES`.
        The integer reductions are static strength reduction's rule
        (:func:`repro.opt.strength.reduction`), so they assume what it
        assumes: the register operand is an integer, and a divided or
        reduced one non-negative, since only the constant's type is
        known here.  For a float register ``x``, the reductions
        ``x * 2^k`` -> ``x << k`` and ``x / 2^k`` -> ``x >> k`` trap.
        """
        lhs, rhs = instr.lhs, instr.rhs

        # Fully constant (can happen after note propagation): fold.
        if isinstance(lhs, Imm) and isinstance(rhs, Imm):
            if self.config.zero_copy_propagation:
                self.charge(self.overhead.zcp_check)
                try:
                    value = eval_binop(instr.op, lhs.value, rhs.value)
                except TrapError:
                    self._emit_final(instr, plan)
                    return True
                self._handle_const(instr.dest, value, plan, dying=())
                return True
            return False

        if isinstance(lhs, Imm) and isinstance(rhs, Reg):
            imm, reg, imm_is_rhs = lhs, rhs, False
        elif isinstance(rhs, Imm) and isinstance(lhs, Reg):
            imm, reg, imm_is_rhs = rhs, lhs, True
        else:
            return False

        # --- dynamic zero & copy propagation -------------------------
        if plan.zcp_candidate and self.config.zero_copy_propagation:
            self.charge(self.overhead.zcp_check)
            rule = ZCP_RULES.get((instr.op, imm.value))
            if rule is not None and (imm_is_rhs or rule[1]):
                self.apply_zcp(instr.dest, reg, imm.value, rule[0], plan)
                return True

        # --- dynamic strength reduction -------------------------------
        if not (plan.sr_candidate and self.config.strength_reduction):
            return False
        self.charge(self.overhead.sr_check)
        return self.reduce(instr.dest, instr.op, reg, imm.value,
                           imm_is_rhs, plan)

    def apply_zcp(self, dest: str, reg: Reg, value, kind: str,
                  plan: InstrPlan) -> None:
        """``dest = reg op value`` matched a zero/copy rule of ``kind``."""
        if kind == "copy":
            self._handle_copy(dest, reg, plan)
        else:
            self._handle_const(dest, value * 0 if kind == "zero" else 0,
                               plan, dying=(reg.name,))

    def reduce(self, dest: str, op: Op, reg: Reg, value,
               imm_is_rhs: bool, plan: InstrPlan) -> bool:
        """Strength-reduce ``dest = reg op value`` (operands in that
        order when ``imm_is_rhs``); True when it was rewritten."""
        if isinstance(value, float):
            # FP divide by a run-time constant becomes a multiply by its
            # reciprocal (§2.2.7 covers divides with one static operand;
            # fp_div is 6x an fp_mul on the 21164).
            if op is not Op.DIV or not imm_is_rhs or value == 0.0:
                return False
            self._emit_final(BinOp(dest, Op.MUL, reg, Imm(1.0 / value)),
                             plan)
        elif op is Op.MUL and value == 0:
            # Reached with zero/copy propagation off: a clear.
            self._emit_final(Move(dest, Imm(0)), plan)
            self._dec_use(reg.name)
        else:
            rule = reduction(op, value, imm_is_rhs)
            if rule is None:
                return False
            kind = rule[0]
            if kind == "copy":
                self._emit_final(Move(dest, reg), plan)
            elif kind == "two_term":
                self._emit_two_term(dest, reg, rule[1:], plan)
            else:
                self._emit_final(BinOp(dest, Op(kind), reg, Imm(rule[1])),
                                 plan)
        self.stats.sr_applied += 1
        return True

    def _emit_two_term(self, dest: str, reg: Reg,
                       decomposition: tuple[int, str, int],
                       plan: InstrPlan) -> None:
        """Emit ``dest = reg * (2^a ± 2^b)`` as shifts plus add/sub."""
        a, op, b = decomposition
        self.mat_counter += 1
        temp = f"%sr{self.mat_counter}"
        part_plan = InstrPlan(False, False, 1, False, True)
        self.charge(self.overhead.emit_instruction)
        self._append(BinOp(temp, Op.SHL, reg, Imm(a)), part_plan)
        if b == 0:
            second: Operand = reg
        else:
            self.mat_counter += 1
            second_name = f"%sr{self.mat_counter}"
            self.charge(self.overhead.emit_instruction)
            self._append(BinOp(second_name, Op.SHL, reg, Imm(b)),
                         part_plan)
            second = Reg(second_name)
        self._append(BinOp(dest, Op(op), Reg(temp), second), plan)

    # ------------------------------------------------------------------
    # ZCP note handling + DAE
    # ------------------------------------------------------------------

    def _can_elide(self, plan: InstrPlan | None) -> bool:
        return (
            plan is not None
            and self.config.dead_assignment_elimination
            and plan.removable
            and not plan.remote
        )

    def _handle_const(self, dest: str, value, plan: InstrPlan,
                      dying: tuple[str, ...]) -> None:
        """The instruction's result is the constant ``value``."""
        for name in dying:
            self._dec_use(name)
        if value == 0:
            self.stats.zcp_zero_hits += 1
        else:
            self.stats.zcp_copy_hits += 1
        if self._can_elide(plan):
            self.charge(self.overhead.dae_update)
            self.kill_notes_for(dest)
            self.notes[dest] = ("const", value)
            self.producers[dest] = None
            return
        # Must materialize the constant (result is needed beyond this
        # block, or DAE is off) — but still note it for local propagation.
        self._emit_final(Move(dest, Imm(value)), plan)
        self.notes[dest] = ("const", value)

    def _handle_copy(self, dest: str, src: Reg, plan: InstrPlan) -> None:
        """The instruction's result is a copy of ``src``."""
        self.stats.zcp_copy_hits += 1
        if src.name == dest:
            # e.g. ``s = s + 0.0``: a self-move.  Removing it is sound
            # regardless of liveness, but removal is DAE's job — with DAE
            # disabled the move is emitted (and costs a full FP-move).
            if self.config.dead_assignment_elimination:
                self.stats.dae_removed += 1
                self.charge(self.overhead.dae_update)
                return
            self._emit_final(Move(dest, src), plan)
            return
        src_index = self.producers.get(src.name)
        if self._can_elide(plan):
            self.charge(self.overhead.dae_update)
            self.kill_notes_for(dest)
            self.notes[dest] = ("copy", src)
            self.producers[dest] = src_index
            if src_index is not None:
                item = self.items[src_index]
                # The eliminated instruction released one use of src but
                # dest's future local uses now land on src directly.
                item.expected_uses += plan.local_uses - 1
                self._maybe_kill(src_index)
            return
        self._emit_final(Move(dest, src), plan)
        self.notes[dest] = ("copy", src)
        if src_index is not None:
            # Downstream copy-propagated uses of dest will reference src
            # beyond its planned count: keep src's producer alive.
            self.items[src_index].pinned = True

    def _dec_use(self, name: str) -> None:
        index = self.producers.get(name)
        if index is None:
            return
        item = self.items[index]
        if item.dead:
            return
        item.expected_uses -= 1
        self._maybe_kill(index)

    def _maybe_kill(self, index: int) -> None:
        if not self.config.dead_assignment_elimination:
            return
        item = self.items[index]
        if (item.dead or item.pinned or item.remote
                or not item.removable or item.expected_uses > 0):
            return
        item.dead = True
        self.stats.dae_removed += 1
        self.charge(self.overhead.dae_update)
        for name, producer_index in item.use_producers:
            if producer_index is None:
                continue
            inner = self.items[producer_index]
            if inner.dead:
                continue
            inner.expected_uses -= 1
            self._maybe_kill(producer_index)

    def kill_notes_for(self, dest: str) -> None:
        """A new definition of ``dest`` invalidates notes involving it."""
        notes = self.notes
        notes.pop(dest, None)
        for name in [
            n for n, note in notes.items()
            if note[0] == "copy" and note[1].name == dest
        ]:
            del notes[name]

    # ------------------------------------------------------------------
    # Final emission (immediate fitting + buffer append)
    # ------------------------------------------------------------------

    def _materialize(self, operand: Operand) -> Operand:
        """Ensure ``operand`` can be encoded; emit a constant move if not."""
        if not isinstance(operand, Imm) or fits_immediate(operand.value):
            return operand
        self.mat_counter += 1
        temp = f"{MAT_PREFIX}{self.mat_counter}"
        self.charge(self.overhead.emit_instruction)
        self._append(Move(temp, operand), MAT_PLAN)
        return Reg(temp)

    def _emit_final(self, instr: Instr, plan: InstrPlan | None) -> None:
        instr = self._fit_immediates(instr)
        self._append(instr, plan)

    def _fit_immediates(self, instr: Instr) -> Instr:
        # As in _substitute, operands that already fit come back by
        # identity, so the original instruction is reused unchanged.
        mat = self._materialize
        if isinstance(instr, Move):
            # A constant move *is* the materialization.
            return instr
        if isinstance(instr, BinOp):
            lhs = mat(instr.lhs)
            rhs = mat(instr.rhs)
            if lhs is instr.lhs and rhs is instr.rhs:
                return instr
            return BinOp(instr.dest, instr.op, lhs, rhs)
        if isinstance(instr, UnOp):
            src = mat(instr.src)
            if src is instr.src:
                return instr
            return UnOp(instr.dest, instr.op, src)
        if isinstance(instr, Load):
            addr = mat(instr.addr)
            if addr is instr.addr:
                return instr
            return Load(instr.dest, addr, static=instr.static)
        if isinstance(instr, Store):
            addr = mat(instr.addr)
            value = mat(instr.value)
            if addr is instr.addr and value is instr.value:
                return instr
            return Store(addr, value)
        if isinstance(instr, Call):
            args = tuple(mat(a) for a in instr.args)
            if all(a is b for a, b in zip(args, instr.args)):
                return instr
            return Call(instr.dest, instr.callee, args,
                        static=instr.static)
        if isinstance(instr, Branch):
            cond = mat(instr.cond)
            if cond is instr.cond:
                return instr
            return Branch(cond, instr.if_true, instr.if_false)
        return instr

    def _append(self, instr: Instr, plan: InstrPlan | None) -> None:
        producer = self.producers
        if plan is None:
            item = BufferedInstr(instr, 0, True, False, False, False, ())
        else:
            if plan.removable and not plan.remote:
                get = producer.get
                use_producers = tuple([(name, get(name))
                                       for name in instr.uses()])
            else:
                use_producers = ()
            item = BufferedInstr(instr, plan.local_uses, plan.remote,
                                 plan.removable, False, False,
                                 use_producers)
        items = self.items
        index = len(items)
        items.append(item)
        for dest in instr.defs():
            if self.notes:
                self.kill_notes_for(dest)
            producer[dest] = index

    def emit_raw(self, instr: Instr) -> None:
        """Emit one instruction verbatim (plus immediate fitting).

        Used by dynamic residualization (budget truncation): template
        instructions are replayed as ordinary dynamic code with no plan,
        so they are never elided and no notes apply.
        """
        self.charge(self.overhead.emit_instruction)
        self._emit_final(instr, None)

    def emit_residual(self, name: str, value) -> None:
        """Materialize a static variable's value as it becomes dynamic.

        Idempotent per block (a two-armed branch may request the same
        residual for both successors).
        """
        if name in self._residualized:
            return
        self._residualized.add(name)
        self.charge(self.overhead.emit_instruction)
        self._append(Move(name, Imm(value)), None)

    # ------------------------------------------------------------------
    # Terminator support (used by the specializer)
    # ------------------------------------------------------------------

    def prepare_terminator_operand(self, operand: Operand,
                                   values: dict[str, object]) -> Operand:
        """Resolve and materialize a terminator operand (branch cond,
        return value)."""
        resolved = self._resolve_operand(operand, values)
        if isinstance(resolved, Imm) and isinstance(resolved.value, float):
            return self._materialize(resolved)
        return resolved
