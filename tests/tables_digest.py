"""The normaliser behind the paper-table digests.

``examples/run_experiments.py`` prints a ``Configuration:`` header (it names
``jobs``) and ``[... regenerated in ...]`` timings that vary between runs of
the same tables.  :func:`normalise` drops those lines, and :func:`digest`
hashes the rest, so a digest pins every table cell, figure and work-unit count
and nothing else.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "run_experiments.py"


def normalise(output: str) -> str:
    """``output`` without the lines that vary between runs of the same tables."""
    return "".join(
        line
        for line in output.splitlines(keepends=True)
        if not line.startswith("Configuration:") and "regenerated in" not in line
    )


def digest(output: str) -> str:
    """sha256 of ``normalise(output)``."""
    return hashlib.sha256(normalise(output).encode()).hexdigest()
