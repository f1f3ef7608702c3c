"""Basic blocks, functions, and modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRError
from repro.ir.instructions import Instr, TERMINATORS


@dataclass
class BasicBlock:
    """A labelled straight-line sequence of instructions.

    The final instruction must be a terminator (``Jump``, ``Branch``,
    ``Return``, ``Promote``, or ``EnterRegion``); everything before it must
    not be.  Blocks are mutable so optimization passes can rewrite them in
    place.
    """

    label: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        if not self.instrs:
            raise IRError(f"block {self.label!r} is empty")
        last = self.instrs[-1]
        if not isinstance(last, TERMINATORS):
            raise IRError(
                f"block {self.label!r} does not end in a terminator "
                f"(ends with {type(last).__name__})"
            )
        return last

    @property
    def body(self) -> list[Instr]:
        """Instructions excluding the terminator."""
        return self.instrs[:-1]

    def successors(self) -> tuple[str, ...]:
        return self.terminator.successors()

    def __iter__(self):
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def copy(self) -> BasicBlock:
        """A new block with a new instruction list holding the same
        (immutable) instructions."""
        return BasicBlock(self.label, list(self.instrs))


@dataclass
class Function:
    """A function: parameters plus a CFG of basic blocks.

    ``blocks`` preserves insertion order; the entry block is ``entry``
    (defaulting to the first inserted block).  Variables are dynamically
    typed at run time; ``params`` are bound positionally at call time.
    """

    name: str
    params: tuple[str, ...]
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    entry: str | None = None
    #: Code-buffer version, bumped whenever already-executed code is
    #: patched in place (the specializer threading jumps or adding lazily
    #: specialized blocks).  Translation caches — e.g. the direct-threaded
    #: backend in :mod:`repro.machine.threaded` — key on it to know when
    #: their translated blocks are stale.
    version: int = 0

    def copy(self) -> Function:
        """A structural copy: new blocks and instruction lists, shared
        instructions (see :meth:`Module.copy`)."""
        return Function(
            self.name, self.params,
            {label: block.copy() for label, block in self.blocks.items()},
            self.entry, self.version,
        )

    def bump_version(self) -> None:
        """Invalidate any cached translations of this function's code."""
        self.version += 1

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise IRError(
                f"duplicate block label {block.label!r} in {self.name!r}"
            )
        self.blocks[block.label] = block
        if self.entry is None:
            self.entry = block.label
        return block

    def new_block(self, label: str) -> BasicBlock:
        return self.add_block(BasicBlock(label))

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise IRError(
                f"no block {label!r} in function {self.name!r}"
            ) from None

    @property
    def entry_block(self) -> BasicBlock:
        if self.entry is None:
            raise IRError(f"function {self.name!r} has no blocks")
        return self.blocks[self.entry]

    def predecessors(self) -> dict[str, list[str]]:
        """Map each block label to the labels of its CFG predecessors."""
        preds: dict[str, list[str]] = {label: [] for label in self.blocks}
        for label, block in self.blocks.items():
            for succ in block.successors():
                if succ in preds:
                    preds[succ].append(label)
        return preds

    def instructions(self):
        """Iterate over (block, index, instruction) triples."""
        for block in self.blocks.values():
            for index, instr in enumerate(block.instrs):
                yield block, index, instr

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks.values())

    def remove_unreachable_blocks(self) -> int:
        """Drop blocks not reachable from the entry; return count removed."""
        reachable: set[str] = set()
        worklist = [self.entry] if self.entry else []
        while worklist:
            label = worklist.pop()
            if label in reachable or label not in self.blocks:
                continue
            reachable.add(label)
            worklist.extend(self.blocks[label].successors())
        dead = [label for label in self.blocks if label not in reachable]
        for label in dead:
            del self.blocks[label]
        return len(dead)


@dataclass
class Module:
    """A whole program: an ordered collection of functions.

    ``main`` names the program entry point used by the whole-program
    drivers; library modules (e.g. a lone kernel function) may leave it
    unset.
    """

    functions: dict[str, Function] = field(default_factory=dict)
    main: str | None = None

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function
        if self.main is None and function.name == "main":
            self.main = function.name
        return function

    def copy(self) -> Module:
        """A structural copy: new functions, blocks and instruction
        lists, so passes may rewrite the copy in place.

        The instructions themselves are shared.  That is safe because
        every instruction is a frozen dataclass whose fields are
        immutable (strings, numbers, ``bool``, ``None``, tuples, an
        :class:`~repro.ir.instructions.Op`, or a frozen
        ``Reg``/``Imm``/``Hole``): a pass replaces an instruction, it
        never changes one.
        """
        return Module(
            {name: function.copy()
             for name, function in self.functions.items()},
            self.main,
        )

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())
