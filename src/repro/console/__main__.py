"""``python -m repro.console`` — watch a running toolchain live.

Three sources, one console:

``--socket HOST:PORT``
    Tail another process that exported ``REPRO_EVENTS_SOCKET`` (see
    :mod:`repro.obs.transport`).  ``REPRO_CONSOLE_SOCKET`` supplies the
    default endpoint.

``--demo``
    Run a small synthetic generation workload in a background thread and
    watch it — a self-contained tour of every panel.

neither
    Watch this process's own bus (only useful when something in-process is
    publishing, e.g. under an embedding harness).

The Textual UI is optional: ``--plain`` (or ``REPRO_CONSOLE_PLAIN=1``, or
Textual simply not being installed) switches to a stdout renderer that
reprints the dashboard every interval.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro import settings
from repro.console.model import ConsoleModel
from repro.obs import get_bus, iter_socket_events, parse_endpoint


def _feed_socket(model: ConsoleModel, host: str, port: int, stop: threading.Event) -> None:
    while not stop.is_set():
        try:
            for event in iter_socket_events(host, port):
                model.feed(event)
                if stop.is_set():
                    return
        except OSError:
            pass
        # Publisher not up (yet, or any more): retry until told to stop.
        stop.wait(1.0)


def _run_demo(stop: threading.Event) -> None:
    from repro.experiments.work import WorkUnit
    from repro.service import ServiceConfig, serve_units

    rechisel_knobs = (
        ("enable_escape", True),
        ("feedback_detail", "full"),
        ("use_knowledge", True),
    )
    for round_index in range(50):
        if stop.is_set():
            return
        units = []
        for strategy, knobs, max_iterations in (
            ("zero_shot", (("language", "chisel"),), 0),
            ("rechisel", rechisel_knobs, 6),
            ("autochip", (), 6),
        ):
            for sample in range(2):
                for model_name, problem in (
                    ("GPT-4o mini", "alu_w4"),
                    ("Claude 3.5 Sonnet", "counter_w4"),
                ):
                    units.append(
                        WorkUnit(
                            strategy, model_name, problem, 0, sample,
                            round_index, max_iterations, knobs,
                        )
                    )
        serve_units(units, ServiceConfig(max_in_flight=8))
        stop.wait(1.0)


def _plain_loop(model: ConsoleModel, interval: float, stop: threading.Event) -> None:
    try:
        while not stop.is_set():
            model.pump()
            sys.stdout.write("\n" + model.render() + "\n")
            sys.stdout.flush()
            time.sleep(interval)
    except KeyboardInterrupt:
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.console",
        description="Live operations console over the structured event bus.",
    )
    parser.add_argument(
        "--socket",
        default=settings.read("REPRO_CONSOLE_SOCKET"),
        metavar="HOST:PORT",
        help="tail a process exporting REPRO_EVENTS_SOCKET at this endpoint",
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="run a synthetic generation workload and watch it",
    )
    parser.add_argument(
        "--plain", action="store_true",
        default=settings.read("REPRO_CONSOLE_PLAIN"),
        help="render plain text to stdout instead of the Textual UI",
    )
    parser.add_argument(
        "--interval", type=float,
        default=settings.read("REPRO_CONSOLE_INTERVAL"),
        help="refresh period in seconds (default 0.5)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    model = ConsoleModel()
    stop = threading.Event()
    if args.socket:
        host, port = parse_endpoint(args.socket)
        threading.Thread(
            target=_feed_socket, args=(model, host, port, stop), daemon=True
        ).start()
    else:
        model.attach(get_bus())
        if args.demo:
            threading.Thread(target=_run_demo, args=(stop,), daemon=True).start()

    try:
        if args.plain:
            _plain_loop(model, args.interval, stop)
        else:
            try:
                from repro.console.app import ConsoleApp
            except ImportError as exc:
                print(f"{exc}\nfalling back to --plain", file=sys.stderr)
                _plain_loop(model, args.interval, stop)
            else:
                ConsoleApp(model, interval=args.interval).run()
    finally:
        stop.set()
        model.detach()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
