"""Persistent result store: segmented, indexed, crash-safe, multi-writer.

The store is a directory of JSON-lines files keyed by work-unit content
fingerprint (see :func:`~repro.experiments.work.unit_fingerprint`):

* ``seg-NNNNNN.jsonl`` — *sealed segments*: immutable once sealed, each with a
  sidecar ``seg-NNNNNN.jsonl.idx`` mapping fingerprint -> (byte offset, length) so
  opening a million-record store reads indexes, not records;
* ``tail.jsonl`` — the *active tail* every ``put`` appends to; when it grows
  past the rotation threshold it is fsynced, indexed, and atomically renamed
  into the next sealed segment;
* ``lock`` — an ``flock`` file serializing appends, rotation and compaction
  across processes, so concurrent writers (pool workers' engines, a service
  sharing a sweep's store) never interleave torn records.

Lookups are O(1): an in-memory fingerprint index maps straight to a byte
range, and ``get`` seeks and reads exactly one record — no full scan at any
store size.  Crash safety is tested by killing the writer mid-append
(``tests/test_result_store.py``): a record is *committed* once ``put``
returns, the loader recovers a torn trailing line by truncating the tail to
its last intact record, and a missing or corrupt ``.idx`` is rebuilt by
scanning its segment.  ``compact()`` rewrites the live record set into fresh
sealed segments and drops superseded duplicates; a crash mid-compaction
leaves both generations on disk, and last-wins replay makes that benign.

A store created by earlier releases as a single JSON-lines *file* is migrated
in place on first open (atomic rename to ``<path>.migrating``, re-import,
cleanup), so existing ``REPRO_RESULT_STORE`` paths keep working.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO, Iterator

try:  # POSIX; the container/CI platform.  Windows degrades to no inter-process lock.
    import fcntl
except ImportError:  # pragma: no cover - non-posix fallback
    fcntl = None

from repro import settings
from repro.experiments.work import PAYLOAD_VERSION, WorkUnit

#: Index-key prefix separating *meta* records (campaign manifests, stage
#: frontiers — anything keyed by name rather than by unit fingerprint) from
#: unit payloads.  The prefix contains a character that can never appear in a
#: hex fingerprint, so the two key spaces cannot collide.
META_PREFIX = "meta:"

_TAIL = "tail.jsonl"
_LOCK = "lock"
_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".jsonl"
_IDX_SUFFIX = ".idx"
_MIGRATING_SUFFIX = ".migrating"


class _FileLock:
    """``flock``-based inter-process lock (no-op where fcntl is unavailable)."""

    def __init__(self, path: Path):
        self._path = path
        self._handle: IO[bytes] | None = None
        self._depth = 0

    def acquire(self) -> None:
        if self._depth == 0 and fcntl is not None:
            if self._handle is None:
                self._handle = self._path.open("ab")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        self._depth += 1

    def release(self) -> None:
        self._depth -= 1
        if self._depth == 0 and fcntl is not None and self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "_FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def _scan_lines(data: bytes) -> Iterator[tuple[int, int, dict | None]]:
    """Yield ``(offset, length, record-or-None)`` for each ``\\n``-terminated line.

    ``record`` is ``None`` for undecodable lines; an unterminated trailing
    chunk is yielded as undecodable (it is by definition torn).
    """
    offset = 0
    size = len(data)
    while offset < size:
        newline = data.find(b"\n", offset)
        if newline < 0:
            yield offset, size - offset, None
            return
        length = newline + 1 - offset
        line = data[offset:newline].strip()
        record = None
        if line:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            yield offset, length, record
        offset = newline + 1


def _valid(record) -> bool:
    return (
        isinstance(record, dict)
        and record.get("v") == PAYLOAD_VERSION
        and isinstance(record.get("fp"), str)
        and isinstance(record.get("payload"), dict)
    )


class ResultStore:
    """A fingerprint-keyed, segmented store of work-unit payloads."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        segment_records: int | None = None,
        segment_bytes: int | None = None,
        fsync: bool | None = None,
    ):
        self.path = Path(path)
        if segment_records is None:
            segment_records = settings.read("REPRO_STORE_SEGMENT_RECORDS")
        if segment_bytes is None:
            segment_bytes = settings.read("REPRO_STORE_SEGMENT_BYTES")
        if fsync is None:
            fsync = settings.read("REPRO_STORE_FSYNC")
        # compact() re-chunks live records by segment_records and then unlinks
        # the old segments, so a size below 1 would lose every record.
        if segment_records < 1 or segment_bytes < 1:
            raise ValueError("segment_records and segment_bytes must be >= 1")
        self.segment_records = segment_records
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        #: fingerprint -> (segment file name or ``tail.jsonl``, offset, length)
        self._index: dict[str, tuple[str, int, int]] = {}
        self._append: IO[bytes] | None = None
        self._read_handles: dict[str, IO[bytes]] = {}
        self._tail_records = 0
        self._tail_ino: int | None = None
        self._mutex = threading.RLock()
        self._stats = {"rotations": 0, "compactions": 0, "truncated_bytes": 0, "reads": 0}
        self._open()

    # --------------------------------------------------------------- open/load

    def _open(self) -> None:
        self._migrate_legacy_file()
        self.path.mkdir(parents=True, exist_ok=True)
        self._flock = _FileLock(self.path / _LOCK)
        # Load under the inter-process lock: tail recovery may truncate, and
        # must never race a live writer's in-flight append.
        with self._flock:
            for name in self._segment_names():
                self._load_segment(name)
            self._recover_tail()

    def _migrate_legacy_file(self) -> None:
        """Turn a v1 single-file JSON-lines store into the directory layout."""
        backup = self.path.with_name(self.path.name + _MIGRATING_SUFFIX)
        if self.path.is_file():
            os.replace(self.path, backup)
        if not backup.is_file():
            return
        self.path.mkdir(parents=True, exist_ok=True)
        data = backup.read_bytes()
        records: dict[str, bytes] = {}
        for offset, length, record in _scan_lines(data):
            if _valid(record):
                records[record["fp"]] = data[offset : offset + length]
        if records:
            name = f"{_SEG_PREFIX}{1:06d}{_SEG_SUFFIX}"
            body = b"".join(records.values())
            self._write_atomic(self.path / name, body)
            self._write_index_file(name, body)
        backup.unlink(missing_ok=True)

    def _segment_names(self) -> list[str]:
        if not self.path.is_dir():
            return []
        return sorted(
            entry
            for entry in os.listdir(self.path)
            if entry.startswith(_SEG_PREFIX) and entry.endswith(_SEG_SUFFIX)
        )

    def _load_segment(self, name: str) -> None:
        idx_path = self.path / (name + _IDX_SUFFIX)
        entries: dict[str, tuple[int, int]] | None = None
        if idx_path.is_file():
            try:
                raw = json.loads(idx_path.read_text(encoding="utf-8"))
                if raw.get("v") == PAYLOAD_VERSION and isinstance(raw.get("records"), dict):
                    entries = {
                        fp: (int(loc[0]), int(loc[1])) for fp, loc in raw["records"].items()
                    }
            except (json.JSONDecodeError, OSError, ValueError, TypeError, IndexError):
                entries = None
        if entries is None:
            # Missing or corrupt sidecar: rebuild it from the segment itself.
            body = (self.path / name).read_bytes()
            entries = {}
            for offset, length, record in _scan_lines(body):
                if _valid(record):
                    entries[record["fp"]] = (offset, length)
            self._write_index_file(name, body)
        for fp, (offset, length) in entries.items():
            self._index[fp] = (name, offset, length)

    def _recover_tail(self) -> None:
        tail = self.path / _TAIL
        if not tail.is_file():
            self._tail_records = 0
            self._tail_ino = None
            return
        self._tail_ino = os.stat(tail).st_ino
        data = tail.read_bytes()
        committed = 0
        count = 0
        entries: dict[str, tuple[int, int]] = {}
        for offset, length, record in _scan_lines(data):
            if not _valid(record):
                if record is None:
                    break  # torn write: everything after it is suspect
                committed = offset + length  # wrong-version line: keep scanning
                continue
            entries[record["fp"]] = (offset, length)
            committed = offset + length
            count += 1
        if committed < len(data):
            with tail.open("r+b") as handle:
                handle.truncate(committed)
            self._stats["truncated_bytes"] += len(data) - committed
        for fp, (offset, length) in entries.items():
            self._index[fp] = (_TAIL, offset, length)
        self._tail_records = count

    # ------------------------------------------------------------------ access

    def get(self, fingerprint: str) -> dict | None:
        with self._mutex:
            location = self._index.get(fingerprint)
            if location is None:
                return None
            name, offset, length = location
            self._stats["reads"] += 1
            try:
                if name == _TAIL:
                    with (self.path / _TAIL).open("rb") as handle:
                        handle.seek(offset)
                        line = handle.read(length)
                else:
                    handle = self._read_handle(name)
                    handle.seek(offset)
                    line = handle.read(length)
                record = json.loads(line)
            except (OSError, json.JSONDecodeError):
                return None
            if not _valid(record) or record["fp"] != fingerprint:
                return None
            return record["payload"]

    def put(self, fingerprint: str, unit: WorkUnit, payload: dict) -> None:
        """Record one completed unit; durable as soon as this returns."""
        with self._mutex:
            if fingerprint in self._index:
                return
            record = {
                "v": PAYLOAD_VERSION,
                "fp": fingerprint,
                "strategy": unit.strategy,
                "model": unit.model,
                "problem_id": unit.problem_id,
                "sample": unit.sample,
                "payload": payload,
            }
            self._append_record_locked(fingerprint, record)

    def _append_record_locked(self, fingerprint: str, record: dict) -> None:
        """Append one record to the tail (caller holds ``self._mutex``)."""
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._flock:
            self._reconcile_tail_locked()
            handle = self._append_handle()
            handle.seek(0, os.SEEK_END)
            offset = handle.tell()
            handle.write(line)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            self._index[fingerprint] = (_TAIL, offset, len(line))
            self._tail_records += 1
            if (
                self._tail_records >= self.segment_records
                or offset + len(line) >= self.segment_bytes
            ):
                self._seal_tail_locked()

    # ------------------------------------------------------------ meta records

    def put_meta(self, key: str, payload: dict) -> None:
        """Record one named meta document (manifest, frontier marker, ...).

        Meta records share the store's append path — and therefore its crash
        safety, segmentation and first-wins semantics — but live in a key
        space that cannot collide with unit fingerprints.  Because ``put`` is
        first-wins, evolving documents must be written under *versioned* keys
        (e.g. ``campaign/<id>/manifest/<seq>``); :meth:`meta_keys` lets the
        reader find the newest version.
        """
        with self._mutex:
            fingerprint = META_PREFIX + key
            if fingerprint in self._index:
                return
            record = {"v": PAYLOAD_VERSION, "fp": fingerprint, "meta": True, "payload": payload}
            self._append_record_locked(fingerprint, record)

    def get_meta(self, key: str) -> dict | None:
        return self.get(META_PREFIX + key)

    def meta_keys(self, prefix: str = "") -> list[str]:
        """Sorted meta keys starting with ``prefix``."""
        full = META_PREFIX + prefix
        with self._mutex:
            return sorted(
                fp[len(META_PREFIX) :] for fp in self._index if fp.startswith(full)
            )

    def unit_fingerprints(self) -> list[str]:
        """Fingerprints of unit records only (meta records excluded)."""
        with self._mutex:
            return [fp for fp in self._index if not fp.startswith(META_PREFIX)]

    def __contains__(self, fingerprint: str) -> bool:
        with self._mutex:
            return fingerprint in self._index

    def __len__(self) -> int:
        with self._mutex:
            return len(self._index)

    def fingerprints(self) -> list[str]:
        with self._mutex:
            return list(self._index)

    def stats(self) -> dict:
        with self._mutex:
            return {
                "records": len(self._index),
                "segments": len(self._segment_names()),
                "tail_records": self._tail_records,
                **self._stats,
            }

    # ---------------------------------------------------------------- rotation

    def _append_handle(self) -> IO[bytes]:
        if self._append is None:
            self._append = (self.path / _TAIL).open("ab")
            self._tail_ino = os.fstat(self._append.fileno()).st_ino
        return self._append

    def _reconcile_tail_locked(self) -> None:
        """Detect a peer process having sealed our tail; remap and reopen.

        Called under the file lock.  If the tail file we indexed was rotated
        into a sealed segment by another writer, our in-memory tail entries
        are remapped to that segment (found by inode) and a fresh tail is
        opened, so appends never land in a sealed file.
        """
        if self._tail_ino is None:
            return
        tail = self.path / _TAIL
        try:
            current = os.stat(tail).st_ino if tail.exists() else None
        except OSError:  # pragma: no cover - defensive
            current = None
        if current == self._tail_ino:
            return
        sealed_name = None
        for name in self._segment_names():
            try:
                if os.stat(self.path / name).st_ino == self._tail_ino:
                    sealed_name = name
                    break
            except OSError:  # pragma: no cover - racing a compaction
                continue
        for fp, (name, offset, length) in list(self._index.items()):
            if name == _TAIL:
                if sealed_name is not None:
                    self._index[fp] = (sealed_name, offset, length)
                else:  # pragma: no cover - sealed segment already compacted away
                    del self._index[fp]
        if self._append is not None:
            self._append.close()
            self._append = None
        self._tail_records = 0
        self._tail_ino = None

    def _seal_tail_locked(self) -> None:
        """Atomically rotate the tail into the next sealed segment."""
        tail = self.path / _TAIL
        handle = self._append_handle()
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        self._append = None
        # Index the whole tail by scanning it: under concurrent writers it
        # may hold peers' records our in-memory index never saw.
        body = tail.read_bytes()
        names = self._segment_names()
        next_number = int(names[-1][len(_SEG_PREFIX) : -len(_SEG_SUFFIX)]) + 1 if names else 1
        name = f"{_SEG_PREFIX}{next_number:06d}{_SEG_SUFFIX}"
        os.replace(tail, self.path / name)
        self._write_index_file(name, body)
        for fp, (where, offset, length) in list(self._index.items()):
            if where == _TAIL:
                self._index[fp] = (name, offset, length)
        self._tail_records = 0
        self._tail_ino = None
        self._stats["rotations"] += 1

    def _write_index_file(self, name: str, body: bytes) -> None:
        entries = {}
        for offset, length, record in _scan_lines(body):
            if _valid(record):
                entries[record["fp"]] = [offset, length]
        payload = json.dumps({"v": PAYLOAD_VERSION, "records": entries}, sort_keys=True)
        self._write_atomic(self.path / (name + _IDX_SUFFIX), payload.encode("utf-8"))

    def _write_atomic(self, target: Path, body: bytes) -> None:
        tmp = target.with_name(target.name + f".tmp.{os.getpid()}")
        with tmp.open("wb") as handle:
            handle.write(body)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)

    # -------------------------------------------------------------- compaction

    def compact(self) -> dict:
        """Rewrite the live record set; drop superseded records and segments.

        Returns ``{"records": kept, "dropped_segments": n}``.  Crash-safe:
        new segments are written (numbered after every existing segment)
        before any old file is removed, and last-wins replay on open makes a
        half-compacted store read identically.
        """
        with self._mutex, self._flock:
            self._reconcile_tail_locked()
            live: list[bytes] = []
            for fingerprint in list(self._index):
                name, offset, length = self._index[fingerprint]
                source = self.path / name
                try:
                    with source.open("rb") as handle:
                        handle.seek(offset)
                        live.append(handle.read(length))
                except OSError:  # pragma: no cover - racing writer
                    continue
            old_segments = self._segment_names()
            next_number = (
                int(old_segments[-1][len(_SEG_PREFIX) : -len(_SEG_SUFFIX)]) + 1
                if old_segments
                else 1
            )
            if self._append is not None:
                self._append.close()
                self._append = None
            new_names: list[str] = []
            body = b""
            for start in range(0, len(live), self.segment_records):
                chunk = b"".join(live[start : start + self.segment_records])
                name = f"{_SEG_PREFIX}{next_number:06d}{_SEG_SUFFIX}"
                next_number += 1
                self._write_atomic(self.path / name, chunk)
                self._write_index_file(name, chunk)
                new_names.append(name)
                body += chunk
            # New generation durable; now retire the old one.
            for name in old_segments:
                (self.path / name).unlink(missing_ok=True)
                (self.path / (name + _IDX_SUFFIX)).unlink(missing_ok=True)
            # Unlink (not truncate) so peers' inode checks see the rotation.
            (self.path / _TAIL).unlink(missing_ok=True)
            self._tail_records = 0
            self._tail_ino = None
            for handle in self._read_handles.values():
                handle.close()
            self._read_handles.clear()
            self._index.clear()
            for name in new_names:
                self._load_segment(name)
            self._stats["compactions"] += 1
            return {"records": len(self._index), "dropped_segments": len(old_segments)}

    # --------------------------------------------------------------- lifecycle

    def _read_handle(self, name: str) -> IO[bytes]:
        handle = self._read_handles.get(name)
        if handle is None:
            handle = self._read_handles[name] = (self.path / name).open("rb")
        return handle

    def close(self) -> None:
        with self._mutex:
            if self._append is not None:
                self._append.close()
                self._append = None
            for handle in self._read_handles.values():
                handle.close()
            self._read_handles.clear()
            self._flock.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
