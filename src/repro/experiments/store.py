"""Persistent result store: one append-only log, crash-safe, multi-writer.

The store is a directory keyed by work-unit content fingerprint (see
:func:`~repro.experiments.work.unit_fingerprint`) that holds two files:

* ``tail.jsonl`` — the log: one JSON line per record, appended by every
  ``put`` and never rewritten;
* ``lock`` — an ``flock`` file serializing appends and open-time recovery
  across processes, so concurrent writers (pool workers' engines, a service
  sharing a sweep's store) never interleave torn records.

Opening scans the log once into an in-memory map fingerprint -> (byte
offset, length); ``get`` seeks one persistent read handle and reads exactly
one record, so a lookup costs the same at any store size.  Each handle sees
the records that were in the log when it opened plus its own appends.

Crash safety is tested by killing the writer mid-append
(``tests/test_result_store.py``): a record is *committed* once ``put``
returns.  On open, an undecodable or wrong-version line is skipped on its
own and the records after it stay readable; only an unterminated final chunk
(a write torn by a crash) is truncated.  ``close()`` fsyncs the log once if
it appended anything; ``REPRO_STORE_FSYNC`` fsyncs after every ``put``.

Layouts of earlier releases — sealed ``seg-*.jsonl`` segments with ``.idx``
sidecars, or one JSON-lines *file* at the store path — are refused with a
``ValueError`` naming the path.  Results are content-addressed, so deleting
the old store and rerunning recomputes the same payloads.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import IO

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

_LOG = "tail.jsonl"
_LOCK = "lock"


class _FileLock:
    """``flock``-based inter-process lock (no-op where fcntl is unavailable)."""

    def __init__(self, path: Path):
        self._path = path
        self._handle: IO[bytes] | None = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            if self._handle is None:
                self._handle = self._path.open("ab")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc_info) -> None:
        if fcntl is not None and self._handle is not None:
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _valid(record) -> bool:
    return (
        isinstance(record, dict)
        and record.get("v") == PAYLOAD_VERSION
        and isinstance(record.get("fp"), str)
        and isinstance(record.get("payload"), dict)
    )


class ResultStore:
    """A fingerprint-keyed, append-only store of work-unit payloads."""

    def __init__(self, path: str | os.PathLike, *, fsync: bool | None = None):
        settings.reject_undeclared("REPRO_STORE_")
        self.path = Path(path)
        if fsync is None:
            fsync = settings.read("REPRO_STORE_FSYNC")
        self.fsync = fsync
        self._log = self.path / _LOG
        #: fingerprint -> (offset, length) of its line in the log
        self._index: dict[str, tuple[int, int]] = {}
        self._append: IO[bytes] | None = None
        self._reader: IO[bytes] | None = None
        #: Log size after this handle's last scan or append; a larger log
        #: means a peer appended since.
        self._end = 0
        self._mutex = threading.RLock()
        self._stats = {"truncated_bytes": 0, "reads": 0}
        self._open()

    # --------------------------------------------------------------- open/load

    def _open(self) -> None:
        if self.path.is_file():
            raise ValueError(
                f"result store {self.path} is a single JSON-lines file, a layout this "
                "release no longer reads; delete it and rerun to recompute its results"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        if any(name.startswith("seg-") for name in os.listdir(self.path)):
            raise ValueError(
                f"result store {self.path} holds sealed seg-*.jsonl segments, a layout "
                "this release no longer reads; delete the directory and rerun to "
                "recompute its results"
            )
        self._flock = _FileLock(self.path / _LOCK)
        # Load under the inter-process lock: recovery may truncate, and must
        # never race a live writer's in-flight append.
        with self._flock:
            self._load()

    def _load(self) -> None:
        try:
            data = self._log.read_bytes()
        except FileNotFoundError:
            return
        end = data.rfind(b"\n") + 1
        if end < len(data):  # an unterminated final chunk is a torn write
            with self._log.open("r+b") as handle:
                handle.truncate(end)
            self._stats["truncated_bytes"] += len(data) - end
        # Decode each line in place: latin-1 maps one byte to one character,
        # so string offsets are the byte offsets ``get`` seeks to.
        text = data[:end].decode("latin-1")
        decode = json.JSONDecoder().raw_decode
        offset = 0
        while offset < end:
            newline = text.index("\n", offset)
            try:
                record, stop = decode(text, offset)
            except ValueError:
                record, stop = None, -1
            # A line that is not one JSON record is skipped on its own; a
            # fingerprint seen twice keeps its first line, as ``put`` does.
            if stop == newline and _valid(record):
                self._index.setdefault(record["fp"], (offset, newline + 1 - offset))
            offset = newline + 1
        self._end = end

    # ------------------------------------------------------------------ access

    def _read_at(self, offset: int, length: int) -> bytes:
        if self._reader is None:
            self._reader = self._log.open("rb", buffering=0)
        self._reader.seek(offset)
        return self._reader.read(length)

    def get(self, fingerprint: str) -> dict | None:
        with self._mutex:
            location = self._index.get(fingerprint)
            if location is None:
                return None
            self._stats["reads"] += 1
            try:
                record = json.loads(self._read_at(*location))
            except (OSError, ValueError):
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
        """Append one record to the log (caller holds ``self._mutex``)."""
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._flock:
            if self._append is None:
                self._append = self._log.open("ab")
            offset = self._append.seek(0, os.SEEK_END)
            prefix = b""
            if offset != self._end and offset and self._read_at(offset - 1, 1) != b"\n":
                # A peer died mid-append after this handle opened: end its
                # torn chunk so this record stays a line of its own.
                prefix = b"\n"
            self._append.write(prefix + line)
            self._append.flush()
            if self.fsync:
                os.fsync(self._append.fileno())
            offset += len(prefix)
            self._index[fingerprint] = (offset, len(line))
            self._end = offset + len(line)

    # ------------------------------------------------------------ meta records

    def put_meta(self, key: str, payload: dict) -> None:
        """Record one named meta document (manifest, frontier marker, ...).

        Meta records share the store's append path — and therefore its crash
        safety and first-wins semantics — but live in a key space that cannot
        collide with unit fingerprints.  Because ``put`` is first-wins,
        evolving documents must be written under *versioned* keys (e.g.
        ``campaign/<id>/manifest/<seq>``); :meth:`meta_keys` lets the reader
        find the newest version.
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
            return {"records": len(self._index), **self._stats}

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._mutex:
            if self._append is not None:
                # One durability point per writer session, even without
                # REPRO_STORE_FSYNC.
                os.fsync(self._append.fileno())
                self._append.close()
                self._append = None
            if self._reader is not None:
                self._reader.close()
                self._reader = None
            self._flock.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
