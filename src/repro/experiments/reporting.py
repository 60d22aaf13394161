"""Small helpers for rendering experiment results as text tables."""

from __future__ import annotations


def render_table(headers: list[str], rows: list[list[str]], title: str | None = None) -> str:
    """Render a simple fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def fmt_pair(measured: float, paper: float | None) -> str:
    """Format a measured value with the paper's value alongside for comparison."""
    if paper is None:
        return f"{measured:.2f}"
    return f"{measured:.2f} ({paper:.2f})"
