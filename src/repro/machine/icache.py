"""First-order instruction-cache footprint model.

The 21164 has an 8 KB L1 instruction cache.  Complete loop unrolling can
expand a dynamic region's code past that capacity, at which point a loop
streaming through the body misses on every line refetch — the effect that
makes pnmconvol *slower* than static code when dead-assignment elimination
is disabled ("the amount of generated code exceeded the size of the L1
cache by a factor of 2.7, causing slowdowns", §4.4.4).

Rather than simulate the cache line-by-line, we charge a graded
per-instruction fetch penalty based on how far a code object's footprint
exceeds capacity:

    overflow  = max(0, footprint - capacity) / capacity     (clamped to 1)
    penalty   = overflow * miss_penalty / instructions_per_line

A footprint at or under capacity costs nothing; a footprint ≥ 2× capacity
pays the full steady-state streaming-miss cost.  This reproduces both the
cliff the paper observes and its graded onset, deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ICacheModel:
    """Instruction-cache parameters and the footprint penalty function."""

    capacity_bytes: int = 8 * 1024     # 21164 L1 I-cache
    instruction_bytes: int = 4          # Alpha fixed-width instructions
    line_bytes: int = 32                # 21164 I-cache line
    miss_penalty: float = 12.0          # cycles to refill a line from L2

    @property
    def capacity_instructions(self) -> int:
        return self.capacity_bytes // self.instruction_bytes

    @property
    def instructions_per_line(self) -> int:
        return self.line_bytes // self.instruction_bytes

    def overflow_ratio(self, instruction_count: int) -> float:
        """How far (0..1) a code object's loop footprint exceeds capacity."""
        capacity = self.capacity_instructions
        if instruction_count <= capacity:
            return 0.0
        return min(1.0, (instruction_count - capacity) / capacity)

    def per_instruction_penalty(self, instruction_count: int) -> float:
        """Extra fetch cycles charged for each instruction executed."""
        overflow = self.overflow_ratio(instruction_count)
        if overflow == 0.0:
            return 0.0
        return overflow * self.miss_penalty / self.instructions_per_line
