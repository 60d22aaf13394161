"""Out-of-process event transports: JSON-lines files and line-JSON sockets.

Both transports are *sinks driven by their own threads*: they subscribe to a
bus like any consumer and drain their bounded queues off the publisher's
path, so a stalled disk or a slow socket peer degrades to counted drops on
that subscriber — never to backpressure inside the served system.

* :class:`JsonlWriter` appends one ``Event.to_json()`` line per event; the
  CI chaos/fuzz jobs upload these files as failure artifacts.
* :class:`SocketEventServer` serves the stream over TCP, one JSON line per
  event, to any number of external subscribers (``nc host port`` is a valid
  client); :func:`iter_socket_events` is the Python client the operations
  console uses to watch a service running in another process.

``install_from_environment`` wires both from ``REPRO_EVENTS_JSONL`` /
``REPRO_EVENTS_SOCKET`` so any entry point (service, sweeps, fuzz, chaos
tests) exports its stream without code changes.
"""

from __future__ import annotations

import os
import socket
import threading
from pathlib import Path
from typing import Iterator

from repro import settings
from repro.obs.events import Event, EventBus

_POLL = 0.2  # seconds between queue drains when idle


class JsonlWriter:
    """Append bus events to a JSON-lines file from a drain thread."""

    def __init__(
        self,
        bus: EventBus,
        path: str | os.PathLike,
        topics: list[str] | None = None,
        maxsize: int = 8192,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._bus = bus
        self._subscription = bus.subscribe(topics, maxsize=maxsize, name="jsonl-writer")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="repro-obs-jsonl", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        with self.path.open("a", encoding="utf-8") as handle:
            while True:
                event = self._subscription.get(timeout=_POLL)
                if event is not None:
                    handle.write(event.to_json() + "\n")
                    for queued in self._subscription.pop_all():
                        handle.write(queued.to_json() + "\n")
                    handle.flush()
                elif self._stop.is_set():
                    dropped = self._subscription.dropped
                    if dropped:
                        handle.write(
                            Event("obs", "writer-dropped", 0.0, 0, os.getpid(),
                                  {"dropped": dropped}).to_json() + "\n"
                        )
                    return

    def close(self) -> None:
        self._stop.set()
        self._bus.unsubscribe(self._subscription)
        self._thread.join(timeout=5.0)


class SocketEventServer:
    """Serve the bus over TCP as line-JSON, one subscriber queue per client."""

    def __init__(
        self,
        bus: EventBus,
        host: str = "127.0.0.1",
        port: int = 0,
        topics: list[str] | None = None,
        maxsize: int = 8192,
    ):
        self._bus = bus
        self._topics = topics
        self._maxsize = maxsize
        self._server = socket.create_server((host, port))
        self._server.settimeout(_POLL)
        self.address: tuple[str, int] = self._server.getsockname()[:2]
        self._stop = threading.Event()
        self._clients: list[threading.Thread] = []
        self._accept = threading.Thread(
            target=self._accept_loop, name="repro-obs-socket", daemon=True
        )
        self._accept.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True
            )
            thread.start()
            self._clients.append(thread)

    def _serve_client(self, conn: socket.socket) -> None:
        subscription = self._bus.subscribe(
            self._topics, maxsize=self._maxsize, name="socket-client"
        )
        try:
            conn.settimeout(5.0)
            while not self._stop.is_set():
                event = subscription.get(timeout=_POLL)
                if event is None:
                    continue
                payload = event.to_json() + "\n"
                for queued in subscription.pop_all():
                    payload += queued.to_json() + "\n"
                conn.sendall(payload.encode())
        except OSError:
            pass  # client went away; just release its queue
        finally:
            self._bus.unsubscribe(subscription)
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass
        self._accept.join(timeout=5.0)
        for thread in self._clients:
            thread.join(timeout=5.0)


def iter_socket_events(
    host: str, port: int, timeout: float | None = None
) -> Iterator[Event]:
    """Connect to a :class:`SocketEventServer` and yield events as they arrive.

    ``timeout`` bounds the wait for *each* event; the generator ends on
    timeout or when the server closes the connection.
    """
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.settimeout(timeout)
        buffer = b""
        while True:
            try:
                chunk = conn.recv(65536)
            except (socket.timeout, OSError):
                return
            if not chunk:
                return
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    yield Event.from_json(line.decode())


def parse_endpoint(raw: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``host:port`` / ``:port`` / ``port`` → a ``(host, port)`` pair."""
    raw = raw.strip()
    if ":" in raw:
        host, _, port = raw.rpartition(":")
        return (host or default_host, int(port))
    return (default_host, int(raw))


def install_from_environment(bus: EventBus) -> list[object]:
    """Attach the transports named by the environment; returns what was built."""
    installed: list[object] = []
    jsonl = settings.read("REPRO_EVENTS_JSONL")
    if jsonl:
        installed.append(JsonlWriter(bus, jsonl))
    endpoint = settings.read("REPRO_EVENTS_SOCKET")
    if endpoint:
        host, port = parse_endpoint(endpoint)
        installed.append(SocketEventServer(bus, host, port))
    return installed
