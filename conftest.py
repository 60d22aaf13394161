"""Ensure the src/ layout is importable even without an editable install.

Offline environments sometimes cannot complete ``pip install -e .`` (PEP 517
editable builds need the ``wheel`` package); adding ``src`` to ``sys.path``
here keeps ``pytest`` runnable either way.

Also provides test isolation for the global toolchain caches: tests (and
benchmarks) that clear or cold-start the registered caches
(``clear_registered_caches``, ``clear_kernel_cache``) or assert absolute
hit/miss counters carry the ``cache_mutating`` marker; the autouse fixture
below gives them a deterministic cold start and restores the snapshotted warm
state afterwards, so no test depends on execution order
(``pytest -p no:randomly``-style assumptions disappear).
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@pytest.fixture(autouse=True)
def _cache_isolation(request):
    if request.node.get_closest_marker("cache_mutating") is None:
        yield
        return
    from repro.caching import (
        clear_registered_caches,
        restore_registered_caches,
        snapshot_registered_caches,
    )

    snapshot = snapshot_registered_caches()
    clear_registered_caches()
    try:
        yield
    finally:
        restore_registered_caches(snapshot)
