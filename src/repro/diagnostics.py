"""Diagnostics shared by the Chisel frontend and the toolchain facade.

Diagnostics deliberately mimic the wording of the real Chisel/firtool
toolchain because the ReChisel Reviewer consumes them as feedback text
(paper §IV-B, Table II); the error ``code`` field additionally carries the
Table II class (``A1`` .. ``C2``) so experiments can classify errors without
string matching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """Severity of a diagnostic, mirroring sbt/firtool output levels.

    Every diagnostic the toolchain produces is an error: a compile either
    fails with diagnostics or succeeds with none.
    """

    ERROR = "error"


@dataclass(frozen=True)
class SourceLocation:
    """A ``file:line:column`` location within a Chisel source string."""

    line: int
    column: int
    file: str = "Main.scala"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One compiler message: location, human-readable text and error class."""

    message: str
    severity: Severity = Severity.ERROR
    location: SourceLocation | None = None
    code: str | None = None
    suggestion: str | None = None

    def render(self) -> str:
        """Render the diagnostic the way sbt prints compiler output."""
        prefix = f"[{self.severity.value}]"
        loc = f" {self.location}:" if self.location else ""
        text = f"{prefix}{loc} {self.message}"
        if self.suggestion:
            text += f"\n{prefix}   suggestion: {self.suggestion}"
        return text


@dataclass
class DiagnosticList:
    """A mutable collection of diagnostics gathered across compiler stages."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def error(
        self,
        message: str,
        location: SourceLocation | None = None,
        code: str | None = None,
        suggestion: str | None = None,
    ) -> Diagnostic:
        diag = Diagnostic(message, Severity.ERROR, location, code, suggestion)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "DiagnosticList") -> None:
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return list(self.diagnostics)

    @property
    def has_errors(self) -> bool:
        return bool(self.diagnostics)

    def render(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)


class ChiselError(Exception):
    """Raised when parsing or elaboration cannot continue.

    Carries a :class:`Diagnostic` so callers can recover the structured
    message, location and Table II error class.
    """

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    @classmethod
    def at(
        cls,
        message: str,
        location: SourceLocation | None = None,
        code: str | None = None,
        suggestion: str | None = None,
    ) -> "ChiselError":
        return cls(Diagnostic(message, Severity.ERROR, location, code, suggestion))
