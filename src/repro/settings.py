"""Every ``REPRO_*`` environment knob, declared once.

Each :class:`Setting` row names one knob, its kind, its default, its lower
bound and whether ``0`` means "disabled".  :func:`read` is the only place the
program looks at the environment: it reads ``os.environ`` at call time (so
``monkeypatch.setenv`` and per-process overrides keep working), treats an
unset or blank variable as the default, and raises :class:`SettingError` —
``NAME must be <rule>, got '<raw>'`` — for anything outside the row's rule.
A bad value never falls back or clamps silently, because a knob that quietly
changes what the reflection loop runs quietly changes the measured pass rate.

Kinds and the values they accept:

* ``bool`` — ``1``/``true``/``yes``/``on`` and ``0``/``false``/``no``/``off``,
  in any case;
* ``int`` / ``float`` — a finite number at or above the row's bound; rows with
  ``zero_off`` read ``0`` as ``None`` (disabled);
* a tuple of choices — exactly one of them;
* :data:`PATH` — any string, or one of :data:`OFF` (read as ``None``);
* :data:`ENDPOINT` — ``host:port`` / ``:port`` / ``port``, or one of :data:`OFF`;
* ``str`` — free text the consumer parses itself.

:func:`reject_undeclared` fails a run that still sets a knob of a family
(``REPRO_SERVICE_``, ``REPRO_STORE_``, ``REPRO_TB_``) that the table no
longer declares.

:func:`arg_type` applies a row's rule to a command-line flag, so a CLI flag
and its knob accept the same values and fail the same way.

EXPERIMENTS.md documents what each knob does; ``tests/test_settings.py``
checks that the two stay in sync.  This module imports nothing from
:mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

import argparse
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

PATH = "path"
ENDPOINT = "endpoint"

#: Values that switch a path or endpoint knob off (compared lowercased).
OFF = frozenset({"", "0", "off", "no", "none", "false"})
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


class SettingError(ValueError):
    """A ``REPRO_*`` variable holds a value outside its declared rule."""

    def __init__(self, name: str, rule: str, raw: str):
        super().__init__(name, rule, raw)
        self.name, self.rule, self.raw = name, rule, raw

    def __str__(self) -> str:
        return f"{self.name} must be {self.rule}, got {self.raw!r}"


@dataclass(frozen=True)
class Setting:
    """One knob: ``kind`` is ``bool``, ``int``, ``float``, ``str``, :data:`PATH`,
    :data:`ENDPOINT` or a tuple of choices; ``low`` is the lowest accepted
    number (exclusive when ``low_open``)."""

    name: str
    kind: object
    default: object = None
    low: float | None = None
    low_open: bool = False
    zero_off: bool = False

    @property
    def rule(self) -> str:
        kind = self.kind
        if kind is bool:
            return "a boolean (1/true/yes/on or 0/false/no/off)"
        if isinstance(kind, tuple):
            return "one of " + ", ".join(kind)
        if kind == ENDPOINT:
            return "a [host:]port endpoint or off"
        rule = "an integer" if kind is int else "a number"
        if self.low is not None:
            rule += f" {'>' if self.low_open else '>='} {self.low:g}"
        return rule + " (0 disables)" if self.zero_off else rule

    def parse(self, raw: str) -> object:
        """The value ``raw`` (stripped, non-empty) stands for under this row."""
        kind = self.kind
        if kind is str:
            return raw
        if kind in (PATH, ENDPOINT):
            if raw.lower() in OFF:
                return None
            port = raw.rpartition(":")[2]
            if kind == PATH or (port.isdigit() and int(port) <= 65535):
                return raw
        elif kind is bool:
            if raw.lower() in _BOOLS:
                return _BOOLS[raw.lower()]
        elif isinstance(kind, tuple):
            if raw in kind:
                return raw
        else:
            try:
                value = kind(raw)
            except ValueError:
                value = None
            if value is not None and self._in_range(value):
                return None if self.zero_off and value == 0 else value
        raise SettingError(self.name, self.rule, raw)

    def _in_range(self, value: float) -> bool:
        if isinstance(value, float) and not math.isfinite(value):
            return False
        return self.low is None or (value > self.low if self.low_open else value >= self.low)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_ROWS = (
    # Sweeps (repro.experiments.config)
    Setting("REPRO_FULL_EVAL", bool, False),
    Setting("REPRO_JOBS", int, _usable_cpus(), low=1),
    Setting("REPRO_RESULT_STORE", PATH),
    # Simulation (repro.verilog.simulator, repro.sim.testbench)
    Setting("REPRO_SIM_BACKEND", ("auto", "trace", "interpreter"), "auto"),
    Setting("REPRO_SIM_HEALTH_THRESHOLD", int, 3, low=0, zero_off=True),
    # Result store (repro.experiments.store)
    Setting("REPRO_STORE_FSYNC", bool, False),
    # Generation service (repro.service.config)
    Setting("REPRO_SERVICE_MAX_INFLIGHT", int, 32, low=1),
    Setting("REPRO_SERVICE_RATE_LIMIT", float, low=0, zero_off=True),
    Setting("REPRO_SERVICE_QUEUE_LIMIT", int, 128, low=1),
    Setting("REPRO_SERVICE_REQUEST_TIMEOUT", float, low=0, zero_off=True),
    Setting("REPRO_SERVICE_SIM_BATCH_WINDOW", float, 0.0, low=0),
    Setting("REPRO_SERVICE_SIM_MAX_BATCH", int, 16, low=0),
    Setting("REPRO_SERVICE_DRAIN_TIMEOUT", float, 30.0, low=0),
    # Campaigns (repro.campaign.config) and the LLM breaker (repro.retry)
    Setting("REPRO_CAMPAIGN_STORE", PATH),
    Setting("REPRO_CAMPAIGN_CHUNK", int, 4, low=1),
    Setting("REPRO_CAMPAIGN_DEADLINE", float, low=0, zero_off=True),
    Setting("REPRO_CAMPAIGN_LLM_BUDGET", int, low=0),
    Setting("REPRO_CAMPAIGN_RETRIES", int, 2, low=0),
    Setting("REPRO_CAMPAIGN_CHECKPOINT_EVERY", int, 1, low=1),
    Setting("REPRO_CAMPAIGN_THROTTLE", float, 0.0, low=0),
    Setting("REPRO_BREAKER_THRESHOLD", int, 5, low=0, zero_off=True),
    Setting("REPRO_BREAKER_COOLDOWN", float, 1.0, low=0),
    Setting("REPRO_BREAKER_PROBES", int, 1, low=1),
    # Differential fuzzing (repro.fuzz.config)
    Setting("REPRO_FUZZ_SEED", int, 0),
    Setting("REPRO_FUZZ_ITERATIONS", int, 200, low=0),
    Setting("REPRO_FUZZ_FEATURES", str, "all"),
    Setting("REPRO_FUZZ_CORPUS", PATH),
    Setting("REPRO_FUZZ_POINTS", int, 24, low=1),
    # Observability (repro.obs, repro.console)
    Setting("REPRO_EVENTS_JSONL", PATH),
    Setting("REPRO_EVENTS_SOCKET", ENDPOINT),
    Setting("REPRO_CONSOLE_SOCKET", ENDPOINT),
    Setting("REPRO_CONSOLE_INTERVAL", float, 0.5, low=0, low_open=True),
    Setting("REPRO_CONSOLE_PLAIN", bool, False),
)

#: Every knob by name.
SETTINGS: dict[str, Setting] = {row.name: row for row in _ROWS}

_DECLARED = object()
_UNSET = object()


def read(name: str, default: object = _DECLARED) -> object:
    """The current value of knob ``name``.

    An unset or blank variable gives ``default`` when one is passed (callers
    layering the environment over a base config pass the base's value), else
    the row's declared default.
    """
    row = SETTINGS[name]
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return row.default if default is _DECLARED else default
    return row.parse(raw.strip())


def overrides(**fields: str) -> dict[str, object]:
    """``{field: value}`` for each ``field=NAME`` pair whose knob is set.

    Meant for ``dataclasses.replace(base, **overrides(...))``: unset knobs
    leave the base's field alone.
    """
    values = {field: read(name, _UNSET) for field, name in fields.items()}
    return {field: value for field, value in values.items() if value is not _UNSET}


def reject_undeclared(prefix: str) -> None:
    """Raise :class:`SettingError` for a set ``prefix*`` variable with no row.

    A knob whose code is gone must fail the run that still exports it, not
    be ignored: the run would otherwise measure something other than what its
    environment says.
    """
    for name, raw in os.environ.items():
        if name.startswith(prefix) and name not in SETTINGS and raw.strip():
            raise SettingError(name, "unset (no such setting)", raw.strip())


def arg_type(flag: str, knob: str | None = None, **rule) -> Callable[[str], object]:
    """An argparse ``type=`` that checks ``flag`` against one rule.

    The rule is knob ``knob``'s row, or an ad-hoc one built from ``rule``
    (:class:`Setting` fields, e.g. ``kind=int, low=1``) for a flag with no
    knob.  A bad value fails as ``<flag> must be <rule>, got '<raw>'`` and
    argparse exits with status 2; a ``zero_off`` row reads ``0`` as ``None``.
    """
    row = replace(SETTINGS[knob], name=flag) if knob else Setting(flag, **rule)

    def parse(raw: str) -> object:
        try:
            return row.parse(raw.strip())
        except SettingError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse
