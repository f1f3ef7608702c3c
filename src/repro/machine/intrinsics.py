"""Built-in library routines callable from IR.

Intrinsics model C library functions (``cos`` for chebyshev, etc.) plus a
couple of harness hooks (``print_val`` collects program output so tests
can assert functional correctness of specialized code).

An intrinsic receives ``(machine, args)`` so that harness hooks can reach
the machine's output buffer; pure math intrinsics ignore the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Intrinsic:
    """A built-in routine: its implementation and purity flag.

    Pure intrinsics may be evaluated at dynamic compile time when called
    through a ``pure``-annotated call with all-static arguments (§2.2.6);
    impure ones (I/O hooks) never are.
    """

    name: str
    fn: Callable
    pure: bool = True


def _print_val(machine, args):
    machine.output.append(args[0])
    return 0


INTRINSICS: dict[str, Intrinsic] = {
    "cos": Intrinsic("cos", lambda m, a: math.cos(a[0])),
    "sin": Intrinsic("sin", lambda m, a: math.sin(a[0])),
    "sqrt": Intrinsic("sqrt", lambda m, a: math.sqrt(a[0])),
    "exp": Intrinsic("exp", lambda m, a: math.exp(a[0])),
    "log": Intrinsic("log", lambda m, a: math.log(a[0])),
    "fabs": Intrinsic("fabs", lambda m, a: abs(float(a[0]))),
    "floor": Intrinsic("floor", lambda m, a: math.floor(a[0])),
    "pow2": Intrinsic("pow2", lambda m, a: 2 ** a[0]),
    "print_val": Intrinsic("print_val", _print_val, pure=False),
}
