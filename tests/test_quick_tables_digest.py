"""Digest of the quick-scale paper tables: the behaviour oracle for refactors.

Regenerates ``examples/run_experiments.py all --no-store`` in-process, drops
the lines that vary between runs (the ``Configuration:`` header and the
``[... regenerated in ...]`` timings, see ``tables_digest.py``) and checks the
sha256 of the rest.
Every table, figure and the sweep-engine work-unit counts feed the digest, so
a change to the compiler, the simulator, the backend plan or the executors
that moves any number fails here.

The digest must not depend on how the simulation is executed: CI reruns this
test under ``REPRO_SIM_BACKEND=trace`` (strict trace tier),
``REPRO_SIM_BACKEND=interpreter`` (step-wise tier only) and ``REPRO_JOBS=1``
(in-process executor instead of the default process pool) and expects the
same value.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys

from tables_digest import EXAMPLE, digest

QUICK_TABLES_SHA256 = "efd78889173316f0c28c6d15e10741fbdec48646fa72bbc250a8c4f6eb898a19"


def _quick_tables(monkeypatch) -> str:
    monkeypatch.delenv("REPRO_FULL_EVAL", raising=False)
    monkeypatch.setattr(sys, "argv", [str(EXAMPLE), "all", "--no-store"])
    spec = importlib.util.spec_from_file_location("run_experiments_example", EXAMPLE)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        example.main()
    return out.getvalue()


def test_quick_tables_digest(monkeypatch):
    assert digest(_quick_tables(monkeypatch)) == QUICK_TABLES_SHA256
