"""Crash-safe campaign checkpoints on top of the append-only result store.

A campaign's durable state has two tiers, both living in the *same*
:class:`~repro.experiments.store.ResultStore` directory as the unit payloads
(one directory to back up, one directory to resume from):

* **the frontier is the store itself** — every completed work unit is
  already persisted under its content fingerprint the moment it finishes, so
  "which units are done" needs no separate bookkeeping and survives SIGKILL
  at any instant (the store truncates a torn tail line on reopen, losing at
  most the one record that never committed);
* **the manifest** — the campaign document (spec, per-stage status/digests,
  LLM spend) written as *meta* records under
  monotonically versioned keys ``campaign/<id>/manifest/<seq>``.  The store's
  first-wins append discipline makes each version immutable; the newest
  sequence number is the truth, and a crash mid-write loses at most the
  version being written, never an older one.

:class:`ResilientStore` wraps a store for campaigns that must survive disk
faults (ENOSPC bursts, transient write errors): a failed ``put`` parks the
record in a bounded in-memory buffer and every later write retries the
backlog first, so results flow to disk as soon as the fault clears instead
of crashing the campaign.  Buffered records are *not yet durable* — a crash
before the fault clears re-executes exactly those units on resume, which is
the correct (and deterministic) outcome.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.store import META_PREFIX, ResultStore

MANIFEST_VERSION = 1
MANIFEST_NS = "campaign"


def manifest_key(campaign_id: str, seq: int) -> str:
    return f"{MANIFEST_NS}/{campaign_id}/manifest/{seq:08d}"


def frontier_key(campaign_id: str, stage: str, item: str) -> str:
    """Meta key marking one non-unit stage item (e.g. a fuzz program) done."""
    return f"{MANIFEST_NS}/{campaign_id}/frontier/{stage}/{item}"


class CheckpointLog:
    """Versioned manifest documents for one campaign id."""

    def __init__(self, store, campaign_id: str):
        self.store = store
        self.campaign_id = campaign_id
        self._seq = self._latest_seq()

    def _prefix(self) -> str:
        return f"{MANIFEST_NS}/{self.campaign_id}/manifest/"

    def _latest_seq(self) -> int:
        keys = self.store.meta_keys(self._prefix())
        if not keys:
            return 0
        return max(int(key.rsplit("/", 1)[-1]) for key in keys)

    @property
    def seq(self) -> int:
        return self._seq

    def load_latest(self) -> dict | None:
        """The newest intact manifest version, or ``None`` for a fresh id."""
        for seq in range(self._latest_seq(), 0, -1):
            manifest = self.store.get_meta(manifest_key(self.campaign_id, seq))
            if manifest is not None and manifest.get("manifest_v") == MANIFEST_VERSION:
                self._seq = seq
                return manifest
        return None

    def save(self, manifest: dict) -> int:
        """Append the next manifest version; returns its sequence number."""
        self._seq += 1
        document = dict(manifest)
        document["manifest_v"] = MANIFEST_VERSION
        document["seq"] = self._seq
        self.store.put_meta(manifest_key(self.campaign_id, self._seq), document)
        return self._seq


def list_campaigns(store) -> list[str]:
    """Campaign ids with at least one manifest version in ``store``."""
    ids = set()
    for key in store.meta_keys(MANIFEST_NS + "/"):
        parts = key.split("/")
        if len(parts) >= 3 and parts[2] == "manifest":
            ids.add(parts[1])
    return sorted(ids)


def payload_digest(payloads) -> str:
    """Order-sensitive content digest of a payload sequence (bit-identity)."""
    hasher = hashlib.sha256()
    for payload in payloads:
        hasher.update(
            json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str).encode()
        )
        hasher.update(b"\n")
    return hasher.hexdigest()


def store_unit_digest(path: str) -> str:
    """Digest of every *unit* record in a store directory, keyed and sorted.

    Opens the store read-only-ish (a fresh handle; tail recovery may truncate
    a torn line, which is exactly the committed-record semantics we want) and
    hashes ``fingerprint -> payload`` in fingerprint order.  Two stores with
    the same committed unit results produce the same digest regardless of
    write order, skipped lines, or how many manifest versions they hold —
    this is the cross-run bit-identity oracle the chaos tests assert with.
    """
    store = ResultStore(path)
    try:
        hasher = hashlib.sha256()
        for fingerprint in sorted(store.unit_fingerprints()):
            payload = store.get(fingerprint)
            hasher.update(fingerprint.encode())
            hasher.update(b"=")
            hasher.update(
                json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str).encode()
            )
            hasher.update(b"\n")
        return hasher.hexdigest()
    finally:
        store.close()


class ResilientStore:
    """A store wrapper that rides out transient write faults.

    ``put``/``put_meta`` failures (OSError: ENOSPC, EIO, ...) park the record
    in a bounded buffer; every subsequent write (and explicit :meth:`flush`)
    retries the backlog first, preserving append order per key.  Reads check
    the buffer after the store so a parked record is still visible to the
    process that wrote it.  All other attributes delegate to the inner store.
    """

    def __init__(self, inner, max_buffered: int = 4096):
        self.inner = inner
        self.max_buffered = max_buffered
        self._buffered: list[tuple[str, tuple]] = []  # ("put"|"meta", args)
        self.write_faults = 0

    # ------------------------------------------------------------------ writes

    def _retry_buffered(self) -> None:
        while self._buffered:
            kind, args = self._buffered[0]
            try:
                if kind == "put":
                    self.inner.put(*args)
                else:
                    self.inner.put_meta(*args)
            except OSError:
                return
            self._buffered.pop(0)

    def _write(self, kind: str, args: tuple) -> None:
        self._retry_buffered()
        if self._buffered:
            self._park(kind, args)
            return
        try:
            if kind == "put":
                self.inner.put(*args)
            else:
                self.inner.put_meta(*args)
        except OSError:
            self.write_faults += 1
            self._park(kind, args)

    def _park(self, kind: str, args: tuple) -> None:
        if len(self._buffered) >= self.max_buffered:
            raise OSError(
                f"store write backlog exceeded {self.max_buffered} records"
            )
        self._buffered.append((kind, args))

    def put(self, fingerprint, unit, payload) -> None:
        self._write("put", (fingerprint, unit, payload))

    def put_meta(self, key, payload) -> None:
        self._write("meta", (key, payload))

    def flush(self) -> int:
        """Retry the backlog now; returns how many records remain parked."""
        self._retry_buffered()
        return len(self._buffered)

    @property
    def buffered(self) -> int:
        return len(self._buffered)

    # ------------------------------------------------------------------- reads

    def get(self, fingerprint):
        value = self.inner.get(fingerprint)
        if value is not None:
            return value
        for kind, args in self._buffered:
            if kind == "put" and args[0] == fingerprint:
                return args[2]
        return None

    def get_meta(self, key):
        value = self.inner.get_meta(key)
        if value is not None:
            return value
        for kind, args in self._buffered:
            if kind == "meta" and args[0] == key:
                return args[1]
        return None

    def meta_keys(self, prefix: str = "") -> list[str]:
        keys = set(self.inner.meta_keys(prefix))
        keys.update(
            args[0] for kind, args in self._buffered if kind == "meta" and args[0].startswith(prefix)
        )
        return sorted(keys)

    def __contains__(self, fingerprint) -> bool:
        if fingerprint in self.inner:
            return True
        return any(
            kind == "put" and args[0] == fingerprint for kind, args in self._buffered
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)


__all__ = [
    "META_PREFIX",
    "CheckpointLog",
    "ResilientStore",
    "frontier_key",
    "list_campaigns",
    "manifest_key",
    "payload_digest",
    "store_unit_digest",
]
