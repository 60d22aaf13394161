"""The ``REPRO_*`` settings table: one reader, one error style, docs in sync.

Every knob is declared once in :mod:`repro.settings`.  These tests drive each
row through the code that actually consumes it, so a malformed value must fail
loudly at the real call site, and a row's declared default must be the value
its consumer uses when the variable is unset.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import settings
from repro.campaign.config import CampaignConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.store import ResultStore
from repro.obs.events import EventBus
from repro.obs.transport import install_from_environment
from repro.retry import CircuitBreaker
from repro.service.config import ServiceConfig
from repro.settings import SETTINGS, SettingError
from repro.sim import testbench as tb
from repro.sim.testbench import _backend_plan, check_simulator_settings
from repro.verilog.simulator import SimulationError

ROOT = Path(__file__).resolve().parents[1]

#: Knobs read inside the simulator, whose callers handle SimulationError.
SIMULATOR_KNOBS = {"REPRO_SIM_BACKEND"}

#: Config classes that layer the environment over their own defaults.
CONFIG_READERS = {
    "REPRO_SERVICE_": ServiceConfig.from_environment,
    "REPRO_CAMPAIGN_": CampaignConfig.from_environment,
}


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in SETTINGS:
        monkeypatch.delenv(name, raising=False)


def consume(name: str, tmp_path: Path):
    """Run the code that reads ``name``, returning what the knob shaped."""
    for prefix, reader in CONFIG_READERS.items():
        if name.startswith(prefix):
            return reader()
    if name in ("REPRO_FULL_EVAL", "REPRO_JOBS", "REPRO_RESULT_STORE"):
        return ExperimentConfig.from_environment()
    if name.startswith("REPRO_BREAKER_"):
        breaker = CircuitBreaker.from_environment()
        return breaker and breaker.snapshot()
    if name.startswith("REPRO_STORE_"):
        with ResultStore(tmp_path / "store") as store:
            return store.fsync
    if name.startswith("REPRO_EVENTS_"):
        return install_from_environment(EventBus())
    if name == "REPRO_SIM_BACKEND":
        return _backend_plan()
    raise AssertionError(f"no consumer registered for {name}")


def malformed_values(row: settings.Setting) -> list[str]:
    """Values outside ``row``'s rule: wrong shape, then below the bound."""
    kind = row.kind
    if kind is bool:
        return ["maybe"]
    if isinstance(kind, tuple):
        return ["bogus"]
    if kind == settings.ENDPOINT:
        return ["localhost:http"]
    if kind == settings.PATH:
        return []  # any string names a path
    values = ["abc", "1.5"] if kind is int else ["abc", "nan"]
    if row.low is not None:
        values.append(f"{row.low:g}" if row.low_open else f"{row.low - 1:g}")
    return values


def spelled_default(row: settings.Setting) -> str | None:
    """The variable value that means the row's default; ``None`` where no value
    does (an unbounded LLM budget)."""
    if row.default is None:
        if row.kind in (settings.PATH, settings.ENDPOINT):
            return "off"
        return "0" if row.zero_off else None
    if row.default is False:
        return "off"
    return str(row.default)


def run_experiments(store: Path, *args: str, env: dict | None = None):
    """Run ``examples/run_experiments.py table1`` against ``store``."""
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / "run_experiments.py"), "table1",
         "--store", str(store), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **(env or {})},
    )


SIM_BACKEND_MESSAGE = "REPRO_SIM_BACKEND must be one of auto, trace, interpreter, got 'bogus'"

MALFORMED = [
    (name, raw) for name, row in SETTINGS.items() for raw in malformed_values(row)
]


class TestEveryRow:
    @pytest.mark.parametrize("name,raw", MALFORMED)
    def test_malformed_value_fails_at_the_consumer(self, tmp_path, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        error = SimulationError if name in SIMULATOR_KNOBS else SettingError
        with pytest.raises(error, match=f"{name} must be .*, got {re.escape(repr(raw))}"):
            consume(name, tmp_path)

    @pytest.mark.parametrize(
        "name", sorted(name for name, row in SETTINGS.items() if spelled_default(row))
    )
    def test_declared_default_is_what_the_consumer_uses(self, tmp_path, monkeypatch, name):
        raw = spelled_default(SETTINGS[name])
        unset = consume(name, tmp_path)
        monkeypatch.setenv(name, raw)
        assert consume(name, tmp_path) == unset

    @pytest.mark.parametrize(
        "name", sorted(name for name, row in SETTINGS.items() if row.kind is bool)
    )
    def test_bool_spellings(self, monkeypatch, name):
        for raw, expected in [("ON", True), ("True", True), ("yes", True), ("0", False), ("off", False)]:
            monkeypatch.setenv(name, raw)
            assert settings.read(name) is expected
        monkeypatch.setenv(name, "maybe")
        with pytest.raises(SettingError, match=f"{name} must be a boolean"):
            settings.read(name)

    def test_blank_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert settings.read("REPRO_JOBS") == len(os.sched_getaffinity(0))
        assert settings.read("REPRO_JOBS", 7) == 7

    def test_unknown_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            settings.read("REPRO_NO_SUCH_KNOB")


class TestFormerlySilentValues:
    def test_store_fsync_on(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "on")
        with ResultStore(tmp_path / "store") as store:
            assert store.fsync is True

    def test_full_eval_uppercase(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_EVAL", "TRUE")
        assert ExperimentConfig.from_environment() == ExperimentConfig.paper_scale()

    def test_negative_retries_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_RETRIES", "-1")
        with pytest.raises(SettingError, match="REPRO_CAMPAIGN_RETRIES.*'-1'"):
            CampaignConfig.from_environment()

    def test_zero_jobs_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(SettingError, match="REPRO_JOBS must be an integer >= 1, got '0'"):
            ExperimentConfig.from_environment()

    def test_off_spellings_switch_paths_off(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_EVENTS_JSONL", "no")
        assert install_from_environment(EventBus()) == []
        assert list(tmp_path.iterdir()) == []

    def test_zero_still_disables(self, monkeypatch):
        for name in ("REPRO_SERVICE_RATE_LIMIT", "REPRO_SERVICE_REQUEST_TIMEOUT"):
            monkeypatch.setenv(name, "0")
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "0")
        service = ServiceConfig.from_environment()
        assert service.rate_limit is None and service.request_timeout is None
        assert CircuitBreaker.from_environment() is None

    def test_campaign_store_off_beats_result_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", "/tmp/shared")
        assert CampaignConfig.from_environment().store_path == "/tmp/shared"
        monkeypatch.setenv("REPRO_CAMPAIGN_STORE", "off")
        assert CampaignConfig.from_environment().store_path is None

    @pytest.mark.parametrize(
        "flag, raw",
        [("--concurrency", "-5"), ("--concurrency", "0"), ("--rate-limit", "-3"), ("--jobs", "0")],
    )
    def test_serve_example_rejects_bad_flags(self, flag, raw):
        # These once ran at concurrency 1 or with the rate limit off.
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "serve.py"), flag, raw],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
        assert f"{flag} must be" in result.stderr and repr(raw) in result.stderr

    @pytest.mark.parametrize("name", ["REPRO_SERVICE_TOOL_WORKERS", "REPRO_SERVICE_BATCH_WINDOW"])
    def test_leftover_service_variable_fails_by_name(self, monkeypatch, name):
        # Deleted knobs: a stale export once was silently ignored.
        monkeypatch.setenv(name, "4")
        with pytest.raises(SettingError, match=f"{name} must be unset.*'4'"):
            ServiceConfig.from_environment()

    @pytest.mark.parametrize("name", ["REPRO_SIM_HEALTH_THRESHOLD", "REPRO_SIM_MAX_LANES"])
    def test_leftover_simulator_variable_fails_by_name(self, monkeypatch, name):
        # Deleted knobs: a stale REPRO_SIM_MAX_LANES export was once ignored.
        monkeypatch.setenv(name, "3")
        with pytest.raises(SettingError, match=f"{name} must be unset.*'3'"):
            check_simulator_settings()
        monkeypatch.setattr(tb, "_leftovers_checked", False)  # a fresh process
        with pytest.raises(SettingError, match=f"{name} must be unset.*'3'"):
            _backend_plan()

    @pytest.mark.parametrize(
        "env, message",
        [({"REPRO_SERVICE_TOOL_WORKERS": "4"}, "REPRO_SERVICE_TOOL_WORKERS must be unset"),
         ({"REPRO_SIM_BACKEND": "bogus"}, SIM_BACKEND_MESSAGE),
         ({"REPRO_SIM_HEALTH_THRESHOLD": "3"}, "REPRO_SIM_HEALTH_THRESHOLD must be unset")],
        ids=["leftover-service-variable", "bad-sim-backend", "leftover-sim-variable"],
    )
    def test_serve_example_rejects_a_bad_or_leftover_variable(self, env, message):
        # A bogus simulator backend once failed the first simulation with a
        # traceback.
        result = subprocess.run(
            [sys.executable, str(ROOT / "examples" / "serve.py"), "--jobs", "1"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, **env},
        )
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert "Serving" not in result.stdout

    @pytest.mark.parametrize(
        "args, env, message",
        [
            (["--jobs", "0"], {}, "--jobs must be an integer >= 1, got '0'"),
            (["--jobs", "-3"], {}, "--jobs must be an integer >= 1, got '-3'"),
            ([], {"REPRO_STORE_SEGMENT_RECORDS": "1"}, "REPRO_STORE_SEGMENT_RECORDS must be unset"),
            ([], {"REPRO_JOBS": "0"}, "REPRO_JOBS must be an integer >= 1, got '0'"),
            ([], {"REPRO_SIM_BACKEND": "bogus"}, SIM_BACKEND_MESSAGE),
            (["--jobs", "1"], {"REPRO_SIM_BACKEND": "bogus"}, SIM_BACKEND_MESSAGE),
            (["--jobs", "1"], {"REPRO_TB_BACKEND": "x"}, "REPRO_TB_BACKEND must be unset"),
        ],
        ids=["jobs-0", "jobs-negative", "leftover-store-variable", "bad-jobs-variable",
             "bad-sim-backend-pool", "bad-sim-backend-serial", "leftover-tb-variable"],
    )
    def test_run_experiments_fails_in_one_line(self, tmp_path, args, env, message):
        # --jobs 0 and --jobs -3 once ran serially; the variables raised a
        # traceback.
        result = run_experiments(tmp_path / "store", *args, env=env)
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "cli, env, message",
        [
            (["repro.campaign", "--store", "store", "--list"], {"REPRO_CAMPAIGN_RETRIES": "-1"},
             "REPRO_CAMPAIGN_RETRIES must be an integer >= 0, got '-1'"),
            (["repro.campaign", "--store", "store", "--list"], {"REPRO_CAMPAIGN_FLEET": "2"},
             "REPRO_CAMPAIGN_FLEET must be unset (no such setting), got '2'"),
            (["repro.fuzz", "--n", "0"], {"REPRO_EVENTS_SOCKET": "localhost:http"},
             "REPRO_EVENTS_SOCKET must be a [host:]port endpoint or off, got 'localhost:http'"),
            (["repro.fuzz", "--n", "0"], {"REPRO_FUZZ_FEATURES": "bogus"},
             "REPRO_FUZZ_FEATURES must be unset (no such setting), got 'bogus'"),
            (["repro.fuzz", "--n", "1"], {"REPRO_SIM_BACKEND": "bogus"}, SIM_BACKEND_MESSAGE),
            (["repro.console"], {"REPRO_EVENTS_SOCKET": "localhost:http"},
             "REPRO_EVENTS_SOCKET must be a [host:]port endpoint or off, got 'localhost:http'"),
            (["repro.console"], {"REPRO_CONSOLE_PLAIN": "1"},
             "REPRO_CONSOLE_PLAIN must be unset (no such setting), got '1'"),
        ],
        ids=["campaign-bad-value", "campaign-deleted", "fuzz-bad-value", "fuzz-deleted",
             "fuzz-bad-sim-backend", "console-bad-value", "console-deleted"],
    )
    def test_module_clis_fail_in_one_line(self, tmp_path, cli, env, message):
        # The bad values once raised a traceback; the deleted campaign knob
        # was silently ignored.
        clean = {name: raw for name, raw in os.environ.items() if not name.startswith("REPRO_")}
        result = subprocess.run(
            [sys.executable, "-m", *cli],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env={**clean, "PYTHONPATH": str(ROOT / "src"), **env},
        )
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "store").exists()

    def test_run_experiments_refuses_a_segmented_store(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        (store / "seg-000001.jsonl").write_text("")
        result = run_experiments(store)
        assert result.returncode == 2
        assert f"result store {store} holds sealed seg-*.jsonl segments" in result.stderr
        assert "Traceback" not in result.stderr


class TestDocsInSync:
    NAME = re.compile(r"\bREPRO_[A-Z0-9_]+")
    DOC_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \| ([^|]+?) \|", re.MULTILINE)

    def test_table_names_are_the_names_src_reads(self):
        used = set()
        for path in (ROOT / "src").rglob("*.py"):
            if path.name != "settings.py":
                used |= set(self.NAME.findall(path.read_text()))
        # ``REPRO_SERVICE_*``-style mentions name a family, not a knob.
        assert {name for name in used if not name.endswith("_")} == set(SETTINGS)

    #: Rows whose default depends on the host, documented by what it counts.
    HOST_DEFAULTS = {"REPRO_JOBS": "usable CPUs"}

    def test_every_row_is_documented_with_its_default(self):
        documented = dict(self.DOC_ROW.findall((ROOT / "EXPERIMENTS.md").read_text()))
        assert set(documented) == set(SETTINGS)
        for name, row in SETTINGS.items():
            expected = self.HOST_DEFAULTS.get(name) or self.shown(row.default)
            assert documented[name] == expected, name

    @staticmethod
    def shown(default) -> str:
        if default is None or default is False:
            return "off"
        if isinstance(default, float):
            return f"`{default:g}`"
        return f"`{default}`"
