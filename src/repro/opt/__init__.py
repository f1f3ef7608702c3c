"""Traditional (static) intraprocedural optimizations.

DyC runs on top of a conventional optimizing compiler (Multiflow); these
passes play that role.  They are applied to every function — both the
statically compiled baseline configuration and the annotated functions
before binding-time analysis — so that dynamic compilation's benefit is
measured against reasonably optimized static code, as in the paper (§3.3).

The pipeline (:data:`repro.opt.pipeline.DEFAULT_PASSES`) is constant
propagation, strength reduction, copy propagation, local CSE,
dead-code elimination and CFG simplification, iterated to a fixpoint.
The two propagation passes solve their dataflow on
:mod:`repro.analysis.framework`, and dead-code elimination reads
liveness, which runs there too; the other passes need no dataflow.
"""

from repro.opt.constprop import constant_propagation
from repro.opt.copyprop import copy_propagation
from repro.opt.cse import local_cse
from repro.opt.dce import dead_code_elimination
from repro.opt.simplify_cfg import simplify_cfg
from repro.opt.strength import strength_reduction
from repro.opt.pipeline import PassManager, optimize_function, optimize_module

__all__ = [
    "constant_propagation",
    "copy_propagation",
    "local_cse",
    "dead_code_elimination",
    "simplify_cfg",
    "strength_reduction",
    "PassManager",
    "optimize_function",
    "optimize_module",
]
