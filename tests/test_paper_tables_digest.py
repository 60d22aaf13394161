"""Digest of the paper-scale tables: the behaviour oracle for paper-scale runs.

Runs ``REPRO_FULL_EVAL=1 examples/run_experiments.py all --no-store`` in a
subprocess (about 30 s on two CPUs at the default ``jobs``), normalises its
output with the quick digest's normaliser and compares it with the committed
copy ``tests/data/paper_tables.txt`` and with the pinned sha256.  On a
mismatch it prints a unified diff against the committed copy, so the rows
that moved are named.  Every cell of every table counts, including the 180
problems and the pass@5/10 columns that the quick digest does not reach.

Carries the ``paper`` marker and is deselected by default (``pytest.ini``);
run it with ``pytest -m paper tests/test_paper_tables_digest.py``.  CI's
paper-digest job runs it at the default ``jobs`` and at ``REPRO_JOBS=1``,
and the digest must not depend on either.
"""

from __future__ import annotations

import difflib
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tables_digest import EXAMPLE, normalise

pytestmark = pytest.mark.paper

PAPER_TABLES = Path(__file__).resolve().parent / "data" / "paper_tables.txt"
PAPER_TABLES_SHA256 = "b256f5478755a92a5328bab77a6e621cf216df43b3343f280164e8c7b29d9f26"


def test_paper_tables_digest():
    result = subprocess.run(
        [sys.executable, str(EXAMPLE), "all", "--no-store"],
        capture_output=True,
        text=True,
        timeout=1800,
        env={**os.environ, "REPRO_FULL_EVAL": "1"},
    )
    assert result.returncode == 0, result.stderr[-4000:]
    tables = normalise(result.stdout)
    diff = "".join(
        difflib.unified_diff(
            PAPER_TABLES.read_text().splitlines(keepends=True),
            tables.splitlines(keepends=True),
            "tests/data/paper_tables.txt",
            "this run",
        )
    )
    assert not diff, "paper-scale tables moved:\n" + diff
    assert hashlib.sha256(tables.encode()).hexdigest() == PAPER_TABLES_SHA256
