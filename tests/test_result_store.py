"""Crash-safety and concurrency tests for the append-only result store.

The store's contract under fault: any ``put`` that returned is durable across
a crash of the writing process (modulo the final torn line, which recovery
truncates), an undecodable line costs only itself, readers never observe torn
records, and two processes appending to one store directory lose nothing.
Layouts of earlier releases and leftover store knobs fail loudly.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments import store as store_module
from repro.experiments.store import ResultStore
from repro.experiments.work import PAYLOAD_VERSION, WorkUnit
from repro.settings import SettingError

_FORK = multiprocessing.get_context("fork")


def _unit(**overrides) -> WorkUnit:
    base = dict(
        strategy="zero_shot",
        model="Claude 3.5 Sonnet",
        problem_id="passthrough_w8",
        case_index=3,
        sample=1,
        seed=0,
        max_iterations=0,
        knobs=(("language", "chisel"),),
    )
    base.update(overrides)
    return WorkUnit(**base)


def _fill(store: ResultStore, count: int, prefix: str = "fp") -> None:
    for index in range(count):
        store.put(f"{prefix}{index}", _unit(), {"index": index})


def _record_line(fingerprint: str, index: int) -> str:
    record = {
        "v": PAYLOAD_VERSION,
        "fp": fingerprint,
        "strategy": "zero_shot",
        "model": "m",
        "problem_id": "p",
        "sample": 0,
        "payload": {"index": index},
    }
    return json.dumps(record, sort_keys=True) + "\n"


class TestLog:
    def test_store_is_one_log_and_a_lock(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _fill(store, 10)
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["lock", "tail.jsonl"]
        with ResultStore(tmp_path / "store") as reloaded:
            assert len(reloaded) == 10
            assert all(reloaded.get(f"fp{i}") == {"index": i} for i in range(10))
            assert reloaded.stats() == {"records": 10, "truncated_bytes": 0, "reads": 10}

    def test_duplicate_put_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("fp0", _unit(), {"first": True})
        store.put("fp0", _unit(), {"second": True})
        assert store.get("fp0") == {"first": True}
        assert len(store) == 1
        store.close()

    def test_close_fsyncs_once_only_after_an_append(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(store_module.os, "fsync", lambda fd: calls.append(fd))
        with ResultStore(tmp_path / "store") as store:
            _fill(store, 3)
            assert calls == []
        assert len(calls) == 1
        with ResultStore(tmp_path / "store") as reader:
            assert reader.get("fp1") == {"index": 1}
        assert len(calls) == 1

    def test_fsync_setting_syncs_every_put(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(store_module.os, "fsync", lambda fd: calls.append(fd))
        with ResultStore(tmp_path / "store", fsync=True) as store:
            _fill(store, 3)
            assert len(calls) == 3

    def test_two_handles_share_one_log(self, tmp_path):
        path = tmp_path / "store"
        first = ResultStore(path)
        second = ResultStore(path)
        first.put("a", _unit(), {"n": 1})
        second.put("b", _unit(), {"n": 2})
        first.put("c", _unit(), {"n": 3})
        assert first.get("c") == {"n": 3} and second.get("b") == {"n": 2}
        first.close()
        second.close()
        with ResultStore(path) as reloaded:
            assert {fp: reloaded.get(fp)["n"] for fp in ("a", "b", "c")} == {
                "a": 1,
                "b": 2,
                "c": 3,
            }

    def test_peer_appends_show_after_a_reopen(self, tmp_path):
        path = tmp_path / "store"
        with ResultStore(path) as reader, ResultStore(path) as writer:
            writer.put("late", _unit(), {"n": 1})
            assert "late" not in reader and reader.get("late") is None
        with ResultStore(path) as reopened:
            assert reopened.get("late") == {"n": 1}

    def test_a_key_written_by_two_handles_reads_first_after_a_reopen(self, tmp_path):
        """``put_meta`` is first-wins on a live handle, so the reload is too."""
        path = tmp_path / "store"
        with ResultStore(path) as first, ResultStore(path) as second:
            first.put_meta("k", {"v": 1})
            second.put_meta("k", {"v": 2})  # missed the peer's append
        with ResultStore(path) as reopened:
            assert reopened.get_meta("k") == {"v": 1}

    def test_missing_fingerprint_reads_nothing(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _fill(store, 2)
            assert store.get("absent") is None
            assert "absent" not in store
            assert store.stats()["reads"] == 0


class TestOldLayouts:
    def test_sealed_segments_are_refused_by_path(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        (path / "seg-000001.jsonl").write_text(_record_line("fp0", 0))
        with pytest.raises(ValueError, match=f"{path}.*seg-.*delete"):
            ResultStore(path)
        assert sorted(p.name for p in path.iterdir()) == ["seg-000001.jsonl"]

    def test_single_file_store_is_refused_by_path(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(_record_line("fp0", 0))
        with pytest.raises(ValueError, match=f"{path}.*single JSON-lines file.*delete"):
            ResultStore(path)
        assert path.read_text() == _record_line("fp0", 0)

    @pytest.mark.parametrize(
        "name", ["REPRO_STORE_SEGMENT_RECORDS", "REPRO_STORE_SEGMENT_BYTES"]
    )
    def test_leftover_store_variable_fails_by_name(self, tmp_path, monkeypatch, name):
        monkeypatch.setenv(name, "4096")
        with pytest.raises(SettingError, match=f"{name} must be unset.*'4096'"):
            ResultStore(tmp_path / "store")
        assert not (tmp_path / "store").exists()


class TestRecovery:
    def test_torn_tail_truncated_but_committed_records_survive(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            _fill(store, 3)
        tail = tmp_path / "store" / "tail.jsonl"
        with tail.open("ab") as handle:
            handle.write(b'{"v": 1, "fp": "torn-mid-wri')
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 3
        assert reloaded.stats()["truncated_bytes"] > 0
        # The store keeps accepting appends at the truncated offset.
        reloaded.put("after", _unit(), {"ok": True})
        reloaded.close()
        assert ResultStore(tmp_path / "store").get("after") == {"ok": True}

    def test_undecodable_line_mid_log_costs_only_itself(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        lines = [_record_line(f"fp{i}", i) for i in range(6)]
        lines[2] = '{"v": 1, "fp": "fp2", "payl\n'  # torn, then more commits
        lines.insert(4, "\n")  # and a blank line
        (path / "tail.jsonl").write_text("".join(lines))
        size = (path / "tail.jsonl").stat().st_size
        with ResultStore(path) as store:
            assert sorted(store.fingerprints()) == ["fp0", "fp1", "fp3", "fp4", "fp5"]
            assert store.stats()["truncated_bytes"] == 0
            store.put("fp6", _unit(), {"index": 6})
        assert (path / "tail.jsonl").stat().st_size > size
        with ResultStore(path) as reloaded:
            assert len(reloaded) == 6
            assert all(reloaded.get(f"fp{i}") == {"index": i} for i in (0, 1, 3, 4, 5, 6))

    def test_empty_log_opens_empty_and_accepts_puts(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        (path / "tail.jsonl").write_bytes(b"")
        with ResultStore(path) as store:
            assert len(store) == 0 and store.stats()["truncated_bytes"] == 0
            store.put("fp0", _unit(), {"index": 0})
        with ResultStore(path) as reloaded:
            assert reloaded.get("fp0") == {"index": 0}

    def test_raw_utf8_line_keeps_the_offsets_of_later_records(self, tmp_path):
        # A line written without ASCII escapes holds multi-byte characters;
        # every later record must still be found at its byte offset.
        path = tmp_path / "store"
        path.mkdir()
        record = json.loads(_record_line("wide", 0))
        record["payload"] = {"text": "Ünïcödé — ✓ 🦀"}
        wide = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        lines = [_record_line("fp0", 0), wide, _record_line("fp1", 1)]
        (path / "tail.jsonl").write_bytes("".join(lines).encode("utf-8"))
        with ResultStore(path) as store:
            assert store.get("wide") == {"text": "Ünïcödé — ✓ 🦀"}
            assert store.get("fp1") == {"index": 1}
            store.put("fp2", _unit(), {"index": 2})
        with ResultStore(path) as reloaded:
            assert [reloaded.get(f"fp{i}") for i in range(3)] == [{"index": i} for i in range(3)]

    def test_peer_torn_write_does_not_swallow_the_next_record(self, tmp_path):
        # A writer that opened before a peer died mid-append must not glue
        # its record onto the peer's torn chunk.
        path = tmp_path / "store"
        with ResultStore(path) as store:
            store.put("before", _unit(), {"n": 0})
            with (path / "tail.jsonl").open("ab") as handle:
                handle.write(b'{"v": 1, "fp": "torn-by-a-dead-pe')
            store.put("after", _unit(), {"n": 1})
            assert store.get("after") == {"n": 1}
        with ResultStore(path) as reloaded:
            assert reloaded.get("before") == {"n": 0}
            assert reloaded.get("after") == {"n": 1}
            assert len(reloaded) == 2

    def test_writer_killed_mid_append_loses_no_acked_record(self, tmp_path):
        """SIGKILL the store writer mid-append; every acked put must survive."""
        path = tmp_path / "store"
        ack = tmp_path / "acked.txt"

        def writer() -> None:
            store = ResultStore(path)
            with ack.open("a") as acks:
                for index in range(10_000):
                    store.put(f"fp{index}", _unit(), {"index": index})
                    acks.write(f"fp{index}\n")
                    acks.flush()

        process = _FORK.Process(target=writer)
        process.start()
        deadline = time.monotonic() + 30.0
        while not ack.exists() or not ack.read_text():
            assert time.monotonic() < deadline, "writer never produced a record"
            time.sleep(0.01)
        time.sleep(0.05)  # let it get deeper into the run, ideally mid-write
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)

        acked = [line for line in ack.read_text().splitlines() if line]
        assert acked, "nothing was acked before the kill"
        recovered = ResultStore(path)
        missing = [fp for fp in acked if fp not in recovered]
        assert missing == []
        # And the recovered store is still writable.
        recovered.put("post-crash", _unit(), {"ok": True})
        assert recovered.get("post-crash") == {"ok": True}
        recovered.close()


def _concurrent_writer(path, which: int, count: int) -> None:
    store = ResultStore(path)
    for index in range(count):
        store.put(f"w{which}-{index}", _unit(), {"writer": which, "index": index})
    store.close()


class TestConcurrency:
    def test_two_processes_append_without_losing_records(self, tmp_path):
        path = tmp_path / "store"
        count = 60
        writers = [
            _FORK.Process(target=_concurrent_writer, args=(path, which, count))
            for which in range(2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=60)
            assert process.exitcode == 0

        store = ResultStore(path)
        assert len(store) == 2 * count
        for which in range(2):
            for index in range(count):
                assert store.get(f"w{which}-{index}") == {"writer": which, "index": index}
        # No torn lines anywhere: every line in every file decodes.
        for file in sorted(path.glob("*.jsonl")):
            for line in file.read_bytes().splitlines():
                json.loads(line)
        store.close()
