"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch a single base class. Sub-hierarchies mirror the
package layout: XML parsing, XPath, SQL, schema-tree views, XSLT, and the
view-composition algorithm itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class XMLError(ReproError):
    """Base class for XML substrate errors."""


class XMLParseError(XMLError):
    """Raised when XML input is not well-formed.

    Attributes:
        line: 1-based line of the offending input position.
        column: 1-based column of the offending input position.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XPathError(ReproError):
    """Base class for XPath substrate errors."""


class XPathSyntaxError(XPathError):
    """Raised when an XPath expression or pattern cannot be parsed."""

    def __init__(self, message: str, expression: str = "", position: int = -1):
        self.expression = expression
        self.position = position
        if expression:
            message = f"{message} in {expression!r}"
            if position >= 0:
                message = f"{message} at offset {position}"
        super().__init__(message)


class XPathEvaluationError(XPathError):
    """Raised when an XPath expression fails during evaluation."""


class SQLError(ReproError):
    """Base class for SQL substrate errors."""


class SQLSyntaxError(SQLError):
    """Raised when a tag query cannot be parsed by the SQL-subset parser."""

    def __init__(self, message: str, sql: str = "", position: int = -1):
        self.sql = sql
        self.position = position
        if sql:
            snippet = sql if len(sql) <= 80 else sql[:77] + "..."
            message = f"{message} in {snippet!r}"
            if position >= 0:
                message = f"{message} at offset {position}"
        super().__init__(message)


class SQLTransformError(SQLError):
    """Raised when an AST transformation (unbinding, inlining) fails."""


class SchemaError(ReproError):
    """Raised for relational catalog problems (unknown table/column, ...)."""


class ViewError(ReproError):
    """Base class for schema-tree view errors."""


class ViewDefinitionError(ViewError):
    """Raised when a schema-tree query definition is malformed."""


class ViewEvaluationError(ViewError):
    """Raised when materializing a view against a database fails."""


class GateReentered(ReproError):
    """Raised at once when a thread asks a source's
    :class:`~repro.relational.engine.Gate` for a permit it would wait on
    itself for: the exclusive one while it holds one, or a shared one
    while it holds the exclusive one."""

    def __init__(self, held: str, asked: str):
        self.held, self.asked = held, asked
        super().__init__(
            f"this thread holds the {held} permit of the source's gate and "
            f"asked for the {asked} one, which would wait for itself"
        )


class XSLTError(ReproError):
    """Base class for XSLT substrate errors."""


class StylesheetParseError(XSLTError):
    """Raised when a stylesheet document does not describe a valid stylesheet."""


class XSLTRuntimeError(XSLTError):
    """Raised when the XSLT interpreter fails while processing a document."""


class ConflictError(XSLTError):
    """Raised when conflicting template rules cannot be resolved."""


class CompositionError(ReproError):
    """Base class for failures of the view-composition algorithm."""


class UnsupportedFeatureError(CompositionError):
    """Raised when a stylesheet uses a feature outside the composable dialect.

    The offending feature name is recorded so callers (for example the
    compile ladder, :func:`repro.serving.compile_plan`) can decide how to
    fall back.
    """

    def __init__(self, feature: str, detail: str = ""):
        self.feature = feature
        message = f"unsupported feature for composition: {feature}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class UnificationError(CompositionError):
    """Raised when COMBINE cannot unify select and match tree patterns."""


class ServingError(ReproError):
    """Base class for serving-path failures (:mod:`repro.serving`).

    These are *operational* errors — the request was well-formed but the
    server could not (or chose not to) complete it. The resilience layer
    (:mod:`repro.resilience`) raises and classifies them; a
    :class:`~repro.serving.server.RequestTrace` records the outcome
    instead of letting them propagate out of a worker.
    """


class DeadlineExceeded(ServingError):
    """Raised when a request's deadline expires during evaluation.

    Raised at query boundaries (the engine's ``cancel_check`` hook) or
    after the deadline's statement poll (the driver's ``stop_when``) cut
    a long-running statement short; both run on the thread that runs
    the statement.
    """

    def __init__(self, deadline_ms: float, elapsed_ms: float):
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms
        super().__init__(
            f"deadline of {deadline_ms:.0f}ms exceeded "
            f"after {elapsed_ms:.0f}ms"
        )


class RequestRejected(ServingError):
    """Raised (or recorded) when admission control sheds a request.

    The serving-layer analogue of HTTP 503: the bounded queue is full,
    so the request is refused immediately instead of piling onto a
    saturated server. Never retried internally — backpressure is the
    caller's signal.
    """


class CircuitOpen(ServingError):
    """Raised when a plan's circuit breaker refuses evaluation.

    After ``threshold`` consecutive compile/eval failures the breaker
    *opens* and requests for that plan fingerprint short-circuit here
    (typically into the degraded-stale fallback) until the cooldown
    elapses and a half-open trial is allowed.
    """

    def __init__(self, key: str, retry_after_ms: float = 0.0):
        self.key = key
        self.retry_after_ms = retry_after_ms
        super().__init__(
            f"circuit breaker open for plan {key[:16]} "
            f"(retry after {retry_after_ms:.0f}ms)"
        )


#: Substrings of ``sqlite3.OperationalError`` messages that mark a
#: failure as transient: the statement may well succeed on retry once
#: the lock holder finishes or the I/O hiccup passes.
TRANSIENT_SQLITE_MARKERS = (
    "database is locked",
    "database table is locked",
    "database is busy",
    "disk i/o error",
    "locking protocol",
    "interrupted",
)


def classify_error(exc: BaseException) -> str:
    """Classify an exception for the retry policy.

    Returns one of:

    * ``"deadline"`` — a :class:`DeadlineExceeded`; never retried (the
      time budget is gone by definition).
    * ``"rejected"`` — a :class:`RequestRejected` or
      :class:`CircuitOpen`; never retried (backpressure signals).
    * ``"transient"`` — a busy/locked/disk-I/O style
      ``sqlite3.OperationalError`` (possibly wrapped in a
      :class:`ViewEvaluationError` — the cause chain is walked); worth a
      retry with backoff.
    * ``"permanent"`` — everything else (syntax errors, missing tables,
      wrong-shape results, logic bugs); retrying cannot help.
    """
    import sqlite3

    seen = set()
    current: BaseException | None = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, DeadlineExceeded):
            return "deadline"
        if isinstance(current, (RequestRejected, CircuitOpen)):
            return "rejected"
        if isinstance(current, sqlite3.OperationalError):
            message = str(current).lower()
            if any(marker in message for marker in TRANSIENT_SQLITE_MARKERS):
                return "transient"
        current = current.__cause__ or current.__context__
    return "permanent"
