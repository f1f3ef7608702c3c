"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single handler while still being
able to distinguish front-end, IR, analysis, and runtime problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SourceError(ReproError):
    """A problem in MiniC source code (lexing, parsing, or lowering).

    Carries an optional (line, column) location for diagnostics.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(self._format())

    def _format(self) -> str:
        if self.line is None:
            return self.message
        if self.column is None:
            return f"line {self.line}: {self.message}"
        return f"line {self.line}, col {self.column}: {self.message}"


class LexError(SourceError):
    """Raised when the lexer encounters an invalid token."""


class ParseError(SourceError):
    """Raised when the parser encounters invalid syntax."""


class LowerError(SourceError):
    """Raised when AST-to-IR lowering finds a semantic problem."""


class IRError(ReproError):
    """Raised when an IR structure is malformed (verifier failures, etc.)."""


class AnalysisError(ReproError):
    """Raised when a static analysis (BTA, dataflow) cannot proceed."""


class BTAError(AnalysisError):
    """Raised for binding-time-analysis-specific failures."""


class LintError(AnalysisError):
    """Raised when the pre-compile lint gate finds error diagnostics.

    Carries the offending :class:`repro.lint.Diagnostic` list so callers
    can render them; ``str()`` includes each one.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(d.format() for d in self.diagnostics)
        super().__init__(
            f"lint found {len(self.diagnostics)} error(s): {summary}"
        )


class MachineError(ReproError):
    """Raised for runtime faults in the abstract machine."""


class MemoryFault(MachineError):
    """Out-of-bounds or null access in abstract-machine memory."""


class TrapError(MachineError):
    """Raised when executed code performs an illegal operation."""


class SpecializationError(ReproError):
    """Raised when the runtime specializer cannot specialize a region.

    Beyond the human-readable message, the error carries structured
    fields so the degradation ladder can key its quarantine on the
    failing (region, context) and the harness can report *where* a run
    degraded: ``region_id``, ``context_key`` (the promoted-value tuple),
    ``fault_point`` (the :mod:`repro.faults` point that injected the
    failure, if any), and ``attempt`` (1 for the first specialization
    attempt, 2 for the re-specialize rung).
    """

    def __init__(self, message: str, *, region_id: int | None = None,
                 context_key: tuple | None = None,
                 fault_point: str | None = None,
                 attempt: int | None = None):
        self.message = message
        self.region_id = region_id
        self.context_key = context_key
        self.fault_point = fault_point
        self.attempt = attempt
        super().__init__(self._format())

    def _format(self) -> str:
        details = []
        if self.region_id is not None and \
                f"region {self.region_id}" not in self.message:
            details.append(f"region {self.region_id}")
        if self.context_key is not None:
            details.append(f"context {self.context_key!r}")
        if self.fault_point is not None:
            details.append(f"fault {self.fault_point}")
        if self.attempt is not None:
            details.append(f"attempt {self.attempt}")
        if not details:
            return self.message
        return f"{self.message} [{', '.join(details)}]"

    def fields(self) -> dict:
        """Structured fields as a plain dict (for memoization/transport)."""
        return {
            "region_id": self.region_id,
            "context_key": self.context_key,
            "fault_point": self.fault_point,
            "attempt": self.attempt,
        }


class SpecializationBudgetError(SpecializationError):
    """A specialization batch exceeded its context budget.

    Distinguished so the degradation ladder can residualize the runaway
    unrolling dynamically instead of retrying (a retry would overrun the
    same budget again).
    """


class FaultConfigError(ReproError, ValueError):
    """Raised for malformed ``REPRO_FAULTS`` / ``OptConfig.faults`` specs.

    A ``ValueError``, like every other setting the package rejects
    (:mod:`repro.settings`)."""


class WorkerFault(ReproError):
    """An injected failure inside an eval-harness pool worker."""


class HarnessError(ReproError):
    """One or more harness tasks failed even after retries.

    Raised *after* the whole sweep completes (so completed results are
    persisted via the memo cache); carries the per-task failure records.
    """

    def __init__(self, failures, context: str = "harness sweep"):
        self.failures = list(failures)
        summary = "; ".join(
            f"task {f.index}: {f.error_type}: {f.error}"
            for f in self.failures
        )
        super().__init__(
            f"{context}: {len(self.failures)} task(s) failed after "
            f"retries: {summary}"
        )


class CacheError(ReproError):
    """Raised on code-cache misuse (e.g. cache-one-unchecked key change)."""
