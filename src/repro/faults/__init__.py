"""Deterministic fault injection for the dynamic-compilation runtime."""

from repro.faults.registry import (
    FAULT_POINTS,
    RUN_POINTS,
    FaultRegistry,
    FaultSpec,
    combine_specs,
    parse_spec,
    resolve_degrade,
    resolve_fault_spec,
    run_faults,
)

__all__ = [
    "FAULT_POINTS",
    "RUN_POINTS",
    "FaultRegistry",
    "FaultSpec",
    "combine_specs",
    "parse_spec",
    "resolve_degrade",
    "resolve_fault_spec",
    "run_faults",
]
