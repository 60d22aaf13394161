"""Textual view over :class:`repro.console.model.ConsoleModel`.

Importing this module requires the optional ``textual`` dependency
(``pip install repro-chipgpt[console]``); everything headless lives in
:mod:`repro.console.model` so the rest of the toolchain never pays for the
import.  The app polls the model on a timer (the model pumps its bus
subscription), then repaints three panels: the live session table, the
cache hit-rate table, and the simulate batch-size sparkline with a
scrolling event tail.  A resilience panel (circuit-breaker state, campaign
budget and stage progress, retry counters) appears under the caches
whenever those events flow.
"""

from __future__ import annotations

from typing import Callable

try:
    from textual.app import App, ComposeResult
    from textual.containers import Horizontal, Vertical
    from textual.widgets import DataTable, Footer, Header, Log, Static
except ImportError as exc:  # pragma: no cover - exercised only without textual
    raise ImportError(
        "the operations console UI requires the optional 'textual' dependency "
        "(pip install textual); use --plain for the dependency-free renderer"
    ) from exc

from repro.console.model import ConsoleModel, sparkline

SESSION_COLUMNS = (
    "problem", "strategy", "model", "s", "status",
    "llm ms", "compile ms", "sim ms", "total ms",
)
CACHE_COLUMNS = ("cache", "hits", "misses", "rate", "size")


class ConsoleApp(App):
    """Live operations console: ``python -m repro.console``."""

    TITLE = "repro operations console"
    BINDINGS = [("q", "quit", "Quit")]
    CSS = """
    #sessions { height: 1fr; }
    #side { width: 46; }
    #caches { height: auto; max-height: 14; }
    #resilience { height: auto; max-height: 10; padding: 0 1; }
    #batches { height: 4; padding: 0 1; }
    #headline { height: 1; padding: 0 1; }
    #tail { height: 10; }
    """

    def __init__(self, model: ConsoleModel, interval: float = 0.5,
                 on_tick: Callable[[], None] | None = None):
        super().__init__()
        self.model = model
        self.interval = interval
        #: Extra per-tick hook (the demo uses it to stop when the run ends).
        self.on_tick = on_tick
        self._tail_seen = 0

    def compose(self) -> ComposeResult:
        yield Header(show_clock=True)
        yield Static("", id="headline")
        with Horizontal():
            yield DataTable(id="sessions")
            with Vertical(id="side"):
                yield DataTable(id="caches")
                yield Static("", id="resilience")
                yield Static("", id="batches")
        yield Log(id="tail")
        yield Footer()

    def on_mount(self) -> None:
        self.query_one("#sessions", DataTable).add_columns(*SESSION_COLUMNS)
        self.query_one("#caches", DataTable).add_columns(*CACHE_COLUMNS)
        self.set_interval(self.interval, self.refresh_model)
        self.refresh_model()

    def refresh_model(self) -> None:
        self.model.pump()
        self.query_one("#headline", Static).update(self.model.headline())
        self._repaint(self.query_one("#sessions", DataTable), self.model.session_rows())
        self._repaint(self.query_one("#caches", DataTable), self.model.cache_rows())
        self.query_one("#resilience", Static).update(
            "\n".join(self.model.resilience_lines())
        )
        self.query_one("#batches", Static).update(
            f"sim batches {sparkline(self.model.sim_batches)}"
        )
        tail = list(self.model.tail)
        fresh = self.model.events_seen
        if fresh != self._tail_seen:
            self._tail_seen = fresh
            log = self.query_one("#tail", Log)
            log.clear()
            for line in tail[-10:]:
                log.write_line(line)
        if self.on_tick is not None:
            self.on_tick()

    @staticmethod
    def _repaint(table: DataTable, rows: list[tuple]) -> None:
        # Full repaint: the tables are small (bounded by the model's limits)
        # and DataTable diffing would complicate eviction handling.
        table.clear()
        for row in rows:
            table.add_row(*row)
