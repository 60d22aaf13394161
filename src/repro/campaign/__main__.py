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
resumable); 1 — failure.
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
from dataclasses import replace

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
        help="run the default quick campaign (generate → verify → fuzz → benchmark)",
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
    # The bounds below override their REPRO_CAMPAIGN_* knob only when given,
    # and accept exactly what that knob accepts.
    parser.add_argument(
        "--deadline",
        type=settings.arg_type("--deadline", "REPRO_CAMPAIGN_DEADLINE"),
        default=argparse.SUPPRESS,
        help="wall-clock bound in seconds (0 = no bound)",
    )
    parser.add_argument(
        "--budget",
        type=settings.arg_type("--budget", "REPRO_CAMPAIGN_LLM_BUDGET"),
        default=argparse.SUPPRESS,
        help="LLM-completion budget across all resumes",
    )
    parser.add_argument(
        "--chunk",
        type=settings.arg_type("--chunk", "REPRO_CAMPAIGN_CHUNK"),
        default=argparse.SUPPRESS,
        help="work units per preemptible chunk",
    )
    parser.add_argument(
        "--throttle",
        type=settings.arg_type("--throttle", "REPRO_CAMPAIGN_THROTTLE"),
        default=argparse.SUPPRESS,
        help="seconds to sleep between chunks",
    )
    return parser


#: CampaignConfig field -> the flag that overrides it.
_FLAG_FIELDS = {
    "deadline": "deadline",
    "llm_budget": "budget",
    "chunk_size": "chunk",
    "throttle": "throttle",
}


def _build_config(args) -> CampaignConfig:
    config = CampaignConfig.from_environment(CampaignConfig(store_path=args.store))
    given = vars(args)
    return replace(
        config,
        **{field: given[flag] for field, flag in _FLAG_FIELDS.items() if flag in given},
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = _build_config(args)
    if not config.store_path:
        print(
            "error: no store; pass --store or set REPRO_CAMPAIGN_STORE",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.list_campaigns:
        return _list(config)

    if args.resume:
        orchestrator = CampaignOrchestrator.resume(args.resume, config)
    else:
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = CampaignSpec.from_dict(json.load(handle))
        else:
            spec = default_campaign(
                problems=tuple(p for p in args.problems.split(",") if p),
                samples=args.samples,
                seed=args.seed,
            )
        orchestrator = CampaignOrchestrator(spec, config)

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
    raise SystemExit(main())
