"""Live operations console over the structured event bus.

The state model (:class:`~repro.console.model.ConsoleModel`) folds bus events
into tables and renders them as plain text; ``python -m repro.console`` prints
that dashboard every interval.  Run ``python -m repro.console --demo`` for a
self-contained tour.
"""

from repro.console.model import ConsoleModel, SessionRow, sparkline

__all__ = ["ConsoleModel", "SessionRow", "sparkline"]
