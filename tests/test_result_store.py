"""Crash-safety and concurrency tests for the segmented result store.

The store's contract under fault: any ``put`` that returned is durable across
a crash of the writing process (modulo the final torn line, which recovery
truncates), readers never observe torn records, and two processes appending
to one store directory lose nothing.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.store import ResultStore
from repro.experiments.work import PAYLOAD_VERSION, WorkUnit

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


class TestSegmentation:
    def test_rotation_seals_segments(self, tmp_path):
        store = ResultStore(tmp_path / "store", segment_records=3)
        _fill(store, 10)
        stats = store.stats()
        assert stats["records"] == 10
        assert stats["segments"] == 3
        assert stats["rotations"] == 3
        assert sorted(p.name for p in (tmp_path / "store").glob("seg-*.jsonl")) == [
            "seg-000001.jsonl",
            "seg-000002.jsonl",
            "seg-000003.jsonl",
        ]
        store.close()

    def test_sealed_segments_have_index_sidecars(self, tmp_path):
        store = ResultStore(tmp_path / "store", segment_records=2)
        _fill(store, 5)
        store.close()
        for segment in (tmp_path / "store").glob("seg-*.jsonl"):
            sidecar = segment.with_name(segment.name + ".idx")
            assert sidecar.exists()
            index = json.loads(sidecar.read_text())
            assert index["v"] == PAYLOAD_VERSION
            assert index["records"]

    def test_reload_reads_every_segment(self, tmp_path):
        with ResultStore(tmp_path / "store", segment_records=3) as store:
            _fill(store, 10)
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 10
        for index in range(10):
            assert reloaded.get(f"fp{index}") == {"index": index}
        reloaded.close()

    def test_byte_threshold_rotates(self, tmp_path):
        store = ResultStore(tmp_path / "store", segment_bytes=1)
        _fill(store, 3)
        assert store.stats()["rotations"] == 3
        store.close()

    def test_duplicate_put_is_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("fp0", _unit(), {"first": True})
        store.put("fp0", _unit(), {"second": True})
        assert store.get("fp0") == {"first": True}
        assert len(store) == 1
        store.close()

    def test_environment_knobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_SEGMENT_RECORDS", "2")
        monkeypatch.setenv("REPRO_STORE_SEGMENT_BYTES", str(64 * 1024 * 1024))
        store = ResultStore(tmp_path / "store")
        _fill(store, 4)
        assert store.stats()["segments"] == 2
        store.close()

    @pytest.mark.parametrize(
        "sizes", [{"segment_records": -1}, {"segment_records": 0}, {"segment_bytes": 0}]
    )
    def test_segment_sizes_below_one_are_rejected(self, tmp_path, sizes):
        # A store opened with segment_records=-1 used to compact() to zero
        # records: range(0, n, -1) wrote no segment, then every old one went.
        with ResultStore(tmp_path / "store", segment_records=2) as store:
            _fill(store, 3)
        with pytest.raises(ValueError, match="must be >= 1"):
            ResultStore(tmp_path / "store", **sizes)
        with ResultStore(tmp_path / "store") as reopened:
            assert len(reopened) == 3

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_environment_segment_records_below_one_raises(self, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("REPRO_STORE_SEGMENT_RECORDS", raw)
        with pytest.raises(ValueError, match=f"REPRO_STORE_SEGMENT_RECORDS.*'{raw}'"):
            ResultStore(tmp_path / "store")


class TestRecovery:
    def test_corrupt_index_sidecar_is_rebuilt(self, tmp_path):
        with ResultStore(tmp_path / "store", segment_records=2) as store:
            _fill(store, 4)
        sidecar = sorted((tmp_path / "store").glob("seg-*.idx"))[0]
        sidecar.write_text("not json at all")
        reloaded = ResultStore(tmp_path / "store")
        assert all(reloaded.get(f"fp{i}") == {"index": i} for i in range(4))
        reloaded.close()

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

    def test_legacy_single_file_store_is_migrated(self, tmp_path):
        legacy = tmp_path / "results.jsonl"
        lines = [
            json.dumps(
                {
                    "v": PAYLOAD_VERSION,
                    "fp": f"fp{i}",
                    "strategy": "zero_shot",
                    "model": "m",
                    "problem_id": "p",
                    "sample": 0,
                    "payload": {"index": i},
                }
            )
            for i in range(3)
        ]
        legacy.write_text("\n".join(lines) + "\n" + '{"torn')
        store = ResultStore(legacy)
        assert legacy.is_dir()
        assert all(store.get(f"fp{i}") == {"index": i} for i in range(3))
        assert not (tmp_path / "results.jsonl.migrating").exists()
        store.close()

    def test_writer_killed_mid_append_loses_no_acked_record(self, tmp_path):
        """SIGKILL the store writer mid-append; every acked put must survive."""
        path = tmp_path / "store"
        ack = tmp_path / "acked.txt"

        def writer() -> None:
            store = ResultStore(path, segment_records=5)
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


class TestCompaction:
    def test_compaction_drops_superseded_records(self, tmp_path):
        store = ResultStore(tmp_path / "store", segment_records=4)
        _fill(store, 8)
        # Simulate a superseding duplicate (e.g. a racing writer): append a
        # second line for fp0 directly; journal semantics are last-wins.
        duplicate = {
            "v": PAYLOAD_VERSION,
            "fp": "fp0",
            "strategy": "zero_shot",
            "model": "m",
            "problem_id": "p",
            "sample": 0,
            "payload": {"newer": True},
        }
        with (tmp_path / "store" / "tail.jsonl").open("a") as handle:
            handle.write(json.dumps(duplicate) + "\n")
        store.close()

        store = ResultStore(tmp_path / "store", segment_records=4)
        report = store.compact()
        assert report["records"] == 8
        assert store.get("fp0") == {"newer": True}
        assert store.stats()["compactions"] == 1
        store.close()
        reloaded = ResultStore(tmp_path / "store")
        assert len(reloaded) == 8
        assert reloaded.get("fp0") == {"newer": True}
        assert all(reloaded.get(f"fp{i}") == {"index": i} for i in range(1, 8))
        # The compacted store holds exactly one line per fingerprint.
        fp0_lines = [
            line
            for file in (tmp_path / "store").glob("*.jsonl")
            for line in file.read_bytes().splitlines()
            if json.loads(line)["fp"] == "fp0"
        ]
        assert len(fp0_lines) == 1
        reloaded.close()

    def test_store_usable_after_compaction(self, tmp_path):
        store = ResultStore(tmp_path / "store", segment_records=2)
        _fill(store, 6)
        store.compact()
        store.put("new", _unit(), {"fresh": True})
        store.close()
        assert ResultStore(tmp_path / "store").get("new") == {"fresh": True}


def _concurrent_writer(path, which: int, count: int) -> None:
    store = ResultStore(path, segment_records=7)
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

    def test_writer_sees_peer_rotation(self, tmp_path):
        path = tmp_path / "store"
        first = ResultStore(path, segment_records=2)
        second = ResultStore(path, segment_records=2)
        first.put("a", _unit(), {"n": 1})
        first.put("b", _unit(), {"n": 2})  # rotates under first
        second.put("c", _unit(), {"n": 3})  # must land in the fresh tail
        first.close()
        second.close()
        reloaded = ResultStore(path)
        assert {fp: reloaded.get(fp)["n"] for fp in ("a", "b", "c")} == {
            "a": 1,
            "b": 2,
            "c": 3,
        }
        reloaded.close()
