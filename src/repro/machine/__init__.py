"""Deterministic abstract machine with an Alpha-21164-flavoured cost model.

The paper measures cycles on a DEC Alpha 21164 with hardware counters; we
substitute a deterministic interpreter that charges a per-instruction cycle
cost (:mod:`repro.machine.costs`) plus an instruction-cache footprint
penalty (:mod:`repro.machine.icache`).  All reported performance numbers in
this reproduction are ratios of these cycle counts, mirroring the paper's
asymptotic-speedup / break-even / overhead-per-instruction metrics.
"""

from repro.machine.costs import CostModel, ALPHA_21164
from repro.machine.icache import ICacheModel
from repro.machine.intrinsics import INTRINSICS, Intrinsic
from repro.machine.interp import (
    BACKENDS,
    COUNTED_BACKENDS,
    ExecutionStats,
    Machine,
)
from repro.machine.threaded import ThreadedBackend

__all__ = [
    "CostModel",
    "ALPHA_21164",
    "ICacheModel",
    "INTRINSICS",
    "Intrinsic",
    "BACKENDS",
    "COUNTED_BACKENDS",
    "Machine",
    "ExecutionStats",
    "ThreadedBackend",
]
