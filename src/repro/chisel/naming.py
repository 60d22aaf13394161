"""Signal-name allocation during elaboration.

Chisel names hardware after the ``val`` that binds it; temporaries get
``_T_<n>`` names.  The :class:`Namer` reproduces that behaviour and guarantees
uniqueness within a module.
"""

from __future__ import annotations


class Namer:
    """Allocate unique signal names within one module."""

    def __init__(self) -> None:
        self._used: set[str] = set()
        self._temp_counter = 0

    def reserve(self, name: str) -> str:
        """Reserve ``name``; if already taken, append a numeric suffix."""
        candidate = name
        suffix = 1
        while candidate in self._used:
            candidate = f"{name}_{suffix}"
            suffix += 1
        self._used.add(candidate)
        return candidate

    def temp(self, prefix: str = "_T") -> str:
        """Allocate a fresh temporary name."""
        self._temp_counter += 1
        return self.reserve(f"{prefix}_{self._temp_counter}")
