"""Control-flow-graph and dataflow analyses shared by the optimizer,
BTA, linter, and specializer.

``repro.analysis.dominators`` (the *submodule*, with the O(1)
:class:`DominatorTree`) and :func:`dominator_sets` (the whole-set
computation from :mod:`repro.analysis.cfg`) have distinct names.
"""

from repro.analysis.cfg import (
    Loop,
    back_edges,
    dominator_sets,
    immediate_dominators,
    natural_loops,
    postorder,
    reverse_postorder,
)
from repro.analysis.defuse import (
    UseBeforeDef,
    definitely_assigned,
    unreachable_blocks,
    use_before_def,
)
from repro.analysis.dominators import DominatorTree
from repro.analysis.framework import (
    BACKWARD,
    FORWARD,
    DataflowProblem,
    DataflowResult,
    SetIntersectProblem,
    SetUnionProblem,
    solve,
)
from repro.analysis.liveness import LivenessResult, liveness

__all__ = [
    # engine
    "BACKWARD",
    "FORWARD",
    "DataflowProblem",
    "DataflowResult",
    "SetIntersectProblem",
    "SetUnionProblem",
    "solve",
    # CFG structure
    "reverse_postorder",
    "postorder",
    "dominator_sets",
    "immediate_dominators",
    "back_edges",
    "natural_loops",
    "Loop",
    "DominatorTree",
    # dataflow clients
    "liveness",
    "LivenessResult",
    "UseBeforeDef",
    "definitely_assigned",
    "unreachable_blocks",
    "use_before_def",
]
