"""Convenience builder for constructing IR functions programmatically.

The MiniC front end lowers through this builder, and tests use it to write
small CFGs without the ceremony of instantiating blocks and instruction
dataclasses by hand.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Imm,
    Instr,
    Jump,
    Load,
    MakeDynamic,
    MakeStatic,
    Move,
    Op,
    Operand,
    Reg,
    Return,
    Store,
    UnOp,
)


def as_operand(value: Operand | str | int | float) -> Operand:
    """Coerce a convenience value into an operand.

    Strings become registers, numbers become immediates, and operands pass
    through unchanged.
    """
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, str):
        return Reg(value)
    if isinstance(value, bool):
        return Imm(int(value))
    if isinstance(value, (int, float)):
        return Imm(value)
    raise IRError(f"cannot convert {value!r} to an operand")


class FunctionBuilder:
    """Incrementally builds a :class:`Function`.

    Typical use::

        b = FunctionBuilder("f", ("n",))
        b.binop("m", Op.MUL, "n", 2)
        b.ret("m")
        func = b.finish()
    """

    def __init__(self, name: str, params: tuple[str, ...] = ()):
        self.function = Function(name=name, params=tuple(params))
        self._current: BasicBlock | None = None
        self._temp_counter = 0
        self.label("entry")

    # ------------------------------------------------------------------
    # Block management
    # ------------------------------------------------------------------

    def label(self, name: str) -> str:
        """Start (and switch to) a new block named ``name``."""
        block = self.function.new_block(name)
        self._current = block
        return name

    def fresh_label(self, hint: str = "L") -> str:
        """Reserve a unique label without creating the block yet."""
        self._temp_counter += 1
        return f"{hint}{self._temp_counter}"

    def fresh_temp(self, hint: str = "t") -> str:
        self._temp_counter += 1
        return f"%{hint}{self._temp_counter}"

    def _require_block(self) -> BasicBlock:
        if self._current is None:
            raise IRError("no current block (call label() first)")
        return self._current

    def emit(self, instr: Instr) -> Instr:
        block = self._require_block()
        if block.instrs and block.instrs[-1].is_terminator:
            raise IRError(
                f"block {block.label!r} already terminated; "
                f"cannot append {type(instr).__name__}"
            )
        block.instrs.append(instr)
        if instr.is_terminator:
            self._current = None
        return instr

    @property
    def terminated(self) -> bool:
        """True when the current block is closed (or none is open)."""
        if self._current is None:
            return True
        instrs = self._current.instrs
        return bool(instrs) and instrs[-1].is_terminator

    # ------------------------------------------------------------------
    # Instruction helpers
    # ------------------------------------------------------------------

    def move(self, dest: str, src) -> Instr:
        return self.emit(Move(dest, as_operand(src)))

    def unop(self, dest: str, op: Op, src) -> Instr:
        return self.emit(UnOp(dest, op, as_operand(src)))

    def binop(self, dest: str, op: Op, lhs, rhs) -> Instr:
        return self.emit(BinOp(dest, op, as_operand(lhs), as_operand(rhs)))

    def load(self, dest: str, addr, static: bool = False) -> Instr:
        return self.emit(Load(dest, as_operand(addr), static=static))

    def store(self, addr, value) -> Instr:
        return self.emit(Store(as_operand(addr), as_operand(value)))

    def call(self, dest: str | None, callee: str, args=(),
             static: bool = False) -> Instr:
        operands = tuple(as_operand(a) for a in args)
        return self.emit(Call(dest, callee, operands, static=static))

    def jump(self, target: str) -> Instr:
        return self.emit(Jump(target))

    def branch(self, cond, if_true: str, if_false: str) -> Instr:
        return self.emit(Branch(as_operand(cond), if_true, if_false))

    def ret(self, value=None) -> Instr:
        operand = None if value is None else as_operand(value)
        return self.emit(Return(operand))

    def make_static(self, *names: str, policy: str = "cache_all") -> Instr:
        return self.emit(MakeStatic(tuple(names), policy=policy))

    def make_dynamic(self, *names: str) -> Instr:
        return self.emit(MakeDynamic(tuple(names)))

    # ------------------------------------------------------------------

    def finish(self) -> Function:
        """Finalize and return the function (verifying termination)."""
        if self._current is not None and not self.terminated:
            raise IRError(
                f"block {self._current.label!r} lacks a terminator"
            )
        return self.function
