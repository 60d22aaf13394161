"""Async generation service: concurrent sessions over one LLM dispatcher.

See :mod:`repro.service.service` for the architecture overview, README
"Generation service" for the quickstart, and EXPERIMENTS.md for the
``REPRO_SERVICE_*`` environment knobs.
"""

from repro.service.config import ServiceConfig
from repro.service.service import GenerationService, serve_units
from repro.service.telemetry import ServiceSnapshot

__all__ = [
    "GenerationService",
    "ServiceConfig",
    "ServiceSnapshot",
    "serve_units",
]
