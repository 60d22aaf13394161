"""CLI for fault-tolerant campaigns.

Examples::

    # run (or transparently resume) the default quick campaign
    python -m repro.campaign --store /tmp/campaign --quick

    # list checkpointed campaigns in a store
    python -m repro.campaign --store /tmp/campaign --list

    # resume a specific campaign id from its newest manifest
    python -m repro.campaign --store /tmp/campaign --resume 0123abcd4567

    # bounded run: 30s wall clock, 500 LLM calls, chunk = 2 units
    python -m repro.campaign --store /tmp/campaign --quick \\
        --deadline 30 --budget 500 --chunk 2

SIGTERM / SIGINT request a graceful drain: the campaign finishes its current
chunk, checkpoints a ``drained`` manifest and exits 0 — re-running the same
command resumes from the frontier.  The last stdout line is always the
campaign result as one compact JSON document (machine-readable for the chaos
harness and CI).

Exit codes: 0 — complete or drained; 4 — deadline/budget stop (checkpointed,
resumable); 1 — failure; 2 — usage error (a bad flag, no store, or a
``REPRO_CAMPAIGN_*`` variable that is malformed or not in the settings table).
"""

from __future__ import annotations

import signal

#: Signals received before :func:`main` installs the drain handler.
_early_signals: list[int] = []

if __name__ == "__main__":
    # The imports below take most of a second; a SIGTERM in that window would
    # kill the process.  Record it instead, and main() replays it as a drain.
    def _record(signum, _frame):
        _early_signals.append(signum)

    signal.signal(signal.SIGTERM, _record)
    signal.signal(signal.SIGINT, _record)

import argparse
import json
import sys

from repro import settings
from repro.campaign.checkpoint import list_campaigns
from repro.campaign.config import CampaignConfig
from repro.campaign.orchestrator import (
    COMPLETE,
    DRAINED,
    STOPPED_BUDGET,
    STOPPED_DEADLINE,
    CampaignOrchestrator,
)
from repro.campaign.spec import CampaignSpec, default_campaign
from repro.experiments.store import ResultStore

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_STOPPED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run, resume and inspect fault-tolerant experiment campaigns.",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="campaign store directory (default: REPRO_CAMPAIGN_STORE / REPRO_RESULT_STORE)",
    )
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--quick",
        action="store_true",
        help="run the default quick campaign (generate → fuzz)",
    )
    what.add_argument(
        "--spec",
        metavar="JSON",
        default=None,
        help="path to a CampaignSpec JSON document to run",
    )
    what.add_argument(
        "--resume",
        metavar="ID",
        default=None,
        help="resume a checkpointed campaign by id (spec restored from its manifest)",
    )
    what.add_argument(
        "--list",
        action="store_true",
        dest="list_campaigns",
        help="list checkpointed campaign ids in the store and exit",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed (with --quick)")
    parser.add_argument(
        "--problems",
        default="alu_w4",
        help="comma-separated problem ids (with --quick)",
    )
    parser.add_argument(
        "--samples",
        type=settings.arg_type("--samples", kind=int, low=1),
        default=2,
        help="samples per strategy/problem (with --quick)",
    )
    defaults = CampaignConfig()
    parser.add_argument(
        "--deadline",
        type=settings.arg_type("--deadline", kind=float, low=0, zero_off=True),
        default=defaults.deadline,
        help="wall-clock bound in seconds (default: none; 0 = no bound)",
    )
    parser.add_argument(
        "--budget",
        type=settings.arg_type("--budget", kind=int, low=0),
        default=defaults.llm_budget,
        help="LLM-completion budget across all resumes (default: unbounded)",
    )
    parser.add_argument(
        "--chunk",
        type=settings.arg_type("--chunk", kind=int, low=1),
        default=defaults.chunk_size,
        help=f"work units per checkpointed chunk (default {defaults.chunk_size})",
    )
    parser.add_argument(
        "--throttle",
        type=settings.arg_type("--throttle", kind=float, low=0),
        default=defaults.throttle,
        help="seconds to sleep between chunks (default 0)",
    )
    return parser


def _build_config(args) -> CampaignConfig:
    """The flags' config with the ``REPRO_CAMPAIGN_*`` rows that no flag covers."""
    return CampaignConfig.from_environment(
        CampaignConfig(
            store_path=args.store,
            chunk_size=args.chunk,
            deadline=args.deadline,
            llm_budget=args.budget,
            throttle=args.throttle,
        )
    )


def _list(config: CampaignConfig) -> int:
    store = ResultStore(config.store_path)
    try:
        ids = list_campaigns(store)
    finally:
        store.close()
    for campaign_id in ids:
        print(campaign_id)
    if not ids:
        print("(no checkpointed campaigns)", file=sys.stderr)
    return EXIT_OK


def _orchestrator(args, config: CampaignConfig) -> CampaignOrchestrator:
    if args.resume:
        return CampaignOrchestrator.resume(args.resume, config)
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = CampaignSpec.from_dict(json.load(handle))
    else:
        spec = default_campaign(
            problems=tuple(p for p in args.problems.split(",") if p),
            samples=args.samples,
            seed=args.seed,
        )
    return CampaignOrchestrator(spec, config)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if not config.store_path:
            print(
                "error: no store; pass --store or set REPRO_CAMPAIGN_STORE",
                file=sys.stderr,
            )
            return EXIT_USAGE
        if args.list_campaigns:
            return _list(config)
        orchestrator = _orchestrator(args, config)
    except settings.SettingError as error:
        # A bad or deleted knob: campaign, result store or LLM breaker.
        parser.error(str(error))

    def _drain(signum, frame):
        orchestrator.request_drain(f"signal {signum}")

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _drain),
        signal.SIGINT: signal.signal(signal.SIGINT, _drain),
    }
    for signum in _early_signals:
        _drain(signum, None)
    try:
        result = orchestrator.run()
    except Exception as exc:
        print(f"campaign failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(
            json.dumps(
                {"campaign": orchestrator.campaign_id, "status": "failed", "error": str(exc)},
                sort_keys=True,
            )
        )
        return EXIT_FAILED
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    print(json.dumps(result.to_dict(), sort_keys=True))
    if result.status in (COMPLETE, DRAINED):
        return EXIT_OK
    if result.status in (STOPPED_DEADLINE, STOPPED_BUDGET):
        return EXIT_STOPPED
    return EXIT_FAILED


if __name__ == "__main__":
    code = main()
    # The result is printed and final, so a signal from here on has nothing
    # to drain; interpreter shutdown resets Python handlers to the default
    # (terminate), so a SIGTERM during the exit would turn a finished run
    # into status -15.  Ignored handlers survive shutdown.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise SystemExit(code)
