"""Diagnostic records emitted by the staged-specialization linter.

Every finding carries a stable ``DYCnnn`` code so that suppression,
``--select`` filtering, and CI baselines key on codes rather than on
message text.  Code ranges group the checks:

* ``DYC0xx`` — IR well-formedness (structure, dataflow, call
  resolution).  Violations are errors: the specializer's behaviour on
  such IR is undefined.
* ``DYC1xx`` — annotation safety.  DyC's annotations are unchecked
  programmer assertions (paper §2); these lints flag the assertion
  patterns the paper warns about.  They are warnings (the program may
  still be correct), promoted to errors under ``--strict``.
* ``DYC2xx`` — staged-plan and codegen consistency.  A ZCP/DAE plan
  contradicting liveness is a planner bug, always an error; the DYC210
  emitted-source size estimate is a warning (armed only when a
  ``codegen_source_budget`` is configured).
* ``DYC3xx`` — specialization-safety prover (interprocedural).  These
  run only under ``--interprocedural``: they consume whole-module
  call-graph effect summaries (:mod:`repro.analysis.effects`) to prove
  or refute the safety of annotations whose hazard crosses a function
  boundary.  Warnings, promoted to errors under ``--strict``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Stable code -> one-line description (rendered by ``--codes`` and the
#: README table).
CODES: dict[str, str] = {
    "DYC000": "malformed IR (structural verifier failure or parse error)",
    "DYC001": "use of a variable that is not definitely assigned",
    "DYC002": "block unreachable from the function entry",
    "DYC003": "call does not resolve to a module function or intrinsic",
    "DYC101": "dead annotation: static variable never used in its region",
    "DYC102": "cache_one_unchecked variable has multiple reachable "
              "make_static value sources",
    "DYC103": "@-load from memory the same dynamic region may store to",
    "DYC104": "promotion of a loop-variant variable under a dynamic loop "
              "exit (unbounded multi-way unrolling)",
    "DYC105": "conflicting cache policies for one variable across "
              "annotations",
    "DYC106": "static variable only grows or only shrinks around a loop "
              "whose exit tests never read it (complete unrolling never "
              "terminates)",
    "DYC201": "staged ZCP/DAE plan contradicts liveness (planner bug)",
    "DYC210": "region's estimated emitted Python source exceeds the "
              "configured codegen size budget",
    "DYC301": "static pointer escapes into a callee that writes the "
              "memory an @-load in the same region asserts invariant",
    "DYC302": "cache_all promotion whose key is derived from a dynamic "
              "value inside a loop (provably unbounded cache key set)",
    "DYC303": "annotation promotion inside a loop does not dominate the "
              "loop latch (iterations bypass it and merge with "
              "mismatched binding times)",
    "DYC304": "pure-annotated static call to a callee whose effect "
              "summary is impure (folding it would drop side effects)",
}

#: JSON payload version emitted by ``--json``.  Bump only when a field
#: changes meaning; adding fields is backward compatible within a
#: version.
JSON_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, locatable down to the instruction."""

    code: str
    severity: Severity
    message: str
    function: str | None = None
    block: str | None = None
    index: int | None = None
    #: Exclusive end of the instruction span the finding covers (the
    #: IR analogue of an end column).  ``None`` means a single
    #: instruction: the span is ``[index, index + 1)``.
    end_index: int | None = None
    #: Source identifier (file path, or ``file.py::VAR`` for embedded
    #: MiniC programs).
    source: str | None = None

    def span(self) -> tuple[int, int] | None:
        """``(start, end)`` instruction span, end exclusive."""
        if self.index is None:
            return None
        end = self.end_index if self.end_index is not None \
            else self.index + 1
        return (self.index, end)

    def location(self) -> str:
        parts = []
        if self.source:
            parts.append(self.source)
        if self.function:
            parts.append(self.function)
        if self.block:
            where = self.block
            span = self.span()
            if span is not None:
                start, end = span
                where += (f"[{start}]" if end == start + 1
                          else f"[{start}:{end}]")
            parts.append(where)
        return ":".join(parts) if parts else "<module>"

    def format(self) -> str:
        return f"{self.location()}: {self.severity} {self.code}: " \
               f"{self.message}"

    def to_json(self) -> dict:
        span = self.span()
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "end_index": None if span is None else span[1],
            "source": self.source,
        }

    def with_source(self, source: str) -> "Diagnostic":
        import dataclasses

        return dataclasses.replace(self, source=source)


def sort_key(diag: Diagnostic):
    return (
        diag.source or "",
        diag.function or "",
        diag.block or "",
        -1 if diag.index is None else diag.index,
        diag.code,
    )


def has_errors(diags: list[Diagnostic], strict: bool = False) -> bool:
    if strict:
        return bool(diags)
    return any(d.severity is Severity.ERROR for d in diags)
