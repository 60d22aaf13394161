#!/usr/bin/env python3
"""Run one workload in this (fresh) process and print one JSON result line.

Started by ``run.py`` with ``REPRO_*`` scrubbed from the environment and
``src`` on ``PYTHONPATH``; each workload gets its own process, so the
process-wide caches never carry over between workloads or runs.

    worker.py --workload W --seed N --seconds S [--trace] [--setup-only]

``--setup-only`` measures the set-up (imports plus construction of the
program's entry objects) and exits.  ``--trace`` wraps every layer entry
point (see ``tracing.py``), writes the spans to ``.perfbench-out/`` and adds
the per-layer metrics to the result.
"""

from __future__ import annotations

import argparse
import json
import time

import workloads
from common import OUT_DIR, WORKLOADS, HostSpeed

SETUP_PROBES = 5


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Set-up time is scaled to the reference speed on every workload, from
    # samples of the host's speed taken just before and just after it.
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.sample()
    started = time.perf_counter()
    objects = workloads.setup(args.workload)
    setup_s = time.perf_counter() - started
    for _ in range(SETUP_PROBES):
        speed.sample()
    setup_s *= speed.factor()
    if args.setup_only:
        workloads.teardown(objects)
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer, install_layers, install_service_hooks

        tracer = Tracer()
        install_layers(tracer)
        if args.workload == "serve-open-loop":
            install_service_hooks(tracer)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, objects, tracer)
    finally:
        workloads.teardown(objects)
    result["setup_s"] = setup_s
    if tracer is not None:
        from tracing import layer_metrics

        tracer.restore()
        result["layers"] = layer_metrics(tracer, tuple(result["window"]))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans_path))
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
