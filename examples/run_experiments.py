#!/usr/bin/env python
"""Regenerate any of the paper's tables and figures from the command line.

Usage:
    python examples/run_experiments.py table1 table3
    python examples/run_experiments.py all --jobs 1   # in-process, no worker pool
    python examples/run_experiments.py all --no-store
    REPRO_FULL_EVAL=1 python examples/run_experiments.py all   # paper-scale sweep

Without ``REPRO_FULL_EVAL=1`` the quick configuration (a family-stratified
subset of cases, 2 samples per case) is used so every experiment finishes in
seconds to a couple of minutes.

Every sweep runs through the sweep execution engine (work units → executor →
result store, see EXPERIMENTS.md): work units fan out over one worker process
per usable CPU by default, ``--jobs N`` picks N workers and ``--jobs 1`` runs
them in-process (memory is the parent plus one worker per job, each with its
own caches), and completed units are persisted to ``--store`` (a
directory holding one JSON-lines log, default
``.repro-cache/results.jsonl``) so reruns and overlapping experiments —
Table III, Table IV, Fig. 6 and Fig. 7 share their ReChisel sweeps — reuse
results instead of recomputing, and interrupted runs resume.  ``--no-store``
keeps everything in memory, and ``--progress`` prints live ``done/total``
work-unit counts as each sweep advances.

A malformed flag, a bad or leftover ``REPRO_*`` variable, or a store in a
layout this release no longer reads exits with status 2 and a one-line
error that names it.
"""

import argparse
import dataclasses
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import settings
from repro.experiments import fig1, fig6, fig7, fig8_case_study, table1, table2, table3, table4
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import EvaluationHarness
from repro.sim.testbench import check_simulator_settings

EXPERIMENTS = ("table1", "table2", "table3", "table4", "fig1", "fig6", "fig7", "fig8")
DEFAULT_STORE = os.path.join(".repro-cache", "results.jsonl")


def _print_progress(done: int, total: int) -> None:
    """Live per-unit sweep progress (``--progress``); one line per sweep."""
    end = "\n" if done == total else ""
    print(f"\r  [sweep] {done}/{total} work units", end=end, flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=EXPERIMENTS + ("all",),
        help="which tables/figures to regenerate",
    )
    parser.add_argument(
        "--jobs",
        type=settings.arg_type("--jobs", "REPRO_JOBS"),
        default=None,
        help="worker processes for the sweep engine; 1 runs in-process "
        "(default: REPRO_JOBS or the number of usable CPUs)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help=f"path of the persistent result store (default: REPRO_RESULT_STORE or {DEFAULT_STORE})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent result store (in-memory memoization only)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print live done/total counts as the sweep engine completes work units",
    )
    args = parser.parse_args()
    selected = list(EXPERIMENTS) if "all" in args.experiments else args.experiments

    try:
        config = ExperimentConfig.from_environment()
        check_simulator_settings()
    except settings.SettingError as error:
        parser.error(str(error))
    if args.jobs is not None:
        config = dataclasses.replace(config, jobs=args.jobs)
    if args.no_store:
        config = dataclasses.replace(config, store_path=None)
    elif args.store is not None:
        config = dataclasses.replace(config, store_path=args.store)
    elif config.store_path is None and os.environ.get("REPRO_RESULT_STORE") is None:
        # Default the quickstart path to a persistent store — but an explicit
        # REPRO_RESULT_STORE=off/0/none stays disabled.
        config = dataclasses.replace(config, store_path=DEFAULT_STORE)

    try:
        harness = EvaluationHarness(config)
    except ValueError as error:  # a leftover REPRO_STORE_* knob or an old store layout
        parser.error(str(error))
    if args.progress:
        harness.engine.progress = _print_progress
    scale = "paper-scale" if config.max_cases is None else "quick-scale"
    store_label = config.store_path or "disabled"
    print(
        f"Configuration: {scale} — {len(harness.problems())} cases, "
        f"{config.samples_per_case} samples/case, {config.max_iterations} max iterations, "
        f"jobs={config.jobs}, store={store_label}\n"
    )

    # The engine memoizes work units, so the ReChisel sweeps shared by
    # Table III, Table IV, Fig. 6 and Fig. 7 are computed exactly once.
    for name in selected:
        start = time.time()
        if name == "table1":
            output = table1.run(config, harness).render()
        elif name == "table2":
            output = table2.run().render()
        elif name == "table3":
            output = table3.run(config, harness).render()
        elif name == "table4":
            output = table4.run(config, harness).render()
        elif name == "fig1":
            output = fig1.run(config, harness).render()
        elif name == "fig6":
            output = fig6.run(config, harness).render()
        elif name == "fig7":
            output = fig7.run(config, harness).render()
        else:
            output = fig8_case_study.run().render()
        elapsed = time.time() - start
        print(output)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")

    stats = harness.engine.stats
    print(
        f"Sweep engine: {stats.executed} work units executed, "
        f"{stats.memo_hits} in-memory hits, {stats.store_hits} store hits"
    )
    harness.close()


if __name__ == "__main__":
    main()
