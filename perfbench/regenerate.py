#!/usr/bin/env python3
"""Regenerate the correctness references under ``perfbench/references/``.

    python3 perfbench/regenerate.py            # recompute and compare; never overwrites
    python3 perfbench/regenerate.py --force    # overwrite, reporting every changed entry

Without ``--force`` the tool exits nonzero if a recomputed reference differs
from the committed one, and writes nothing.  Each part is computed in a fresh
child process:

* ``sweeps.json`` pins the payload of every unit the sweep and serve
  workloads can draw (the paper-scale sweeps' units, the first
  ``SWEEP_SAMPLES`` samples of each case), executed by ``SerialExecutor``;
* ``deep_verify.json`` pins the verdict of every candidate deep verify can
  draw, per stimulus variant, simulated by the step-wise interpreter
  (``REPRO_SIM_BACKEND=interpreter``), never by the kernels under test.

Deep verify under the interpreter takes several minutes per variant.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from common import REFERENCE_DIR, ROOT, OUT_DIR, payload_digest, worker_environment
from workloads import (
    DEEP_REFERENCE,
    DEEP_VARIANTS,
    SWEEP_PLANS,
    SWEEP_REFERENCE,
    SWEEP_SAMPLES,
    candidate_source,
    candidate_verdict,
    deep_testbench,
    deep_universe,
    strategy_for,
    sweep_units,
)

SWEEP_LABELS = tuple(label for plan in SWEEP_PLANS.values() for label, _ in plan)
CHILDREN = 2  # reference computations at once, one per core


def compute_sweeps() -> dict[str, str]:
    from repro.experiments.executors import SerialExecutor
    from repro.experiments.work import WorkerContext

    context = WorkerContext()
    executor = SerialExecutor(context)
    problem_ids = [problem.problem_id for problem in context.registry]
    picks = [(case, sample) for case in range(len(problem_ids)) for sample in range(SWEEP_SAMPLES)]
    digests: dict[str, str] = {}
    for label in SWEEP_LABELS:
        _strategy, models = strategy_for(label)
        for model in models:
            units = sweep_units(label, model, picks, problem_ids)
            blob = [""] * len(units)
            for index, payload in executor.run_stream(units):
                blob[index] = payload_digest(payload)
            digests[f"{label}|{model}"] = "".join(blob)
            print(f"  sweeps: {label}|{model} done", file=sys.stderr, flush=True)
    return digests


def compute_deep(variant: int) -> dict[str, str]:
    if os.environ.get("REPRO_SIM_BACKEND") != "interpreter":
        raise SystemExit("deep-verify references must be computed with REPRO_SIM_BACKEND=interpreter")
    from repro.problems.registry import build_default_registry
    from repro.toolchain.compiler import ChiselCompiler
    from repro.toolchain.simulator import Simulator

    compiler = ChiselCompiler(top="TopModule")
    simulator = Simulator(top="TopModule")
    digests: dict[str, str] = {}
    for problem in build_default_registry():
        golden = compiler.compile(problem.golden_chisel).verilog
        testbench = deep_testbench(problem, variant)
        digests[problem.problem_id] = "".join(
            payload_digest(
                candidate_verdict(compiler, simulator, candidate_source(problem, name), golden, testbench)
            )
            for name in deep_universe(problem)
        )
    return digests


def _child(part: str, out: str) -> subprocess.Popen:
    extra = {"REPRO_SIM_BACKEND": "interpreter"} if part.startswith("deep") else {}
    return subprocess.Popen(
        [sys.executable, __file__, "--compute", part, "--out", out],
        cwd=ROOT,
        env=worker_environment(extra),
    )


def _changes(old: dict, new: dict) -> list[str]:
    changed = []
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            changed.append(key)
    return changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--force", action="store_true", help="overwrite references that differ")
    parser.add_argument("--compute", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.compute:
        if args.compute == "sweeps":
            result = compute_sweeps()
        else:
            result = compute_deep(int(args.compute.removeprefix("deep")))
        with open(args.out, "w") as handle:
            json.dump(result, handle)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="regen-", dir=OUT_DIR)
    parts = ["sweeps"] + [f"deep{variant}" for variant in range(DEEP_VARIANTS)]
    outputs = {part: os.path.join(scratch, part + ".json") for part in parts}
    started = time.perf_counter()
    waiting = list(parts)
    running: list[tuple[str, subprocess.Popen]] = []
    failed = []
    try:
        while waiting or running:
            while waiting and len(running) < CHILDREN:
                part = waiting.pop(0)
                running.append((part, _child(part, outputs[part])))
            part, process = running[0]
            if process.wait() != 0:
                failed.append(part)
            running.pop(0)
            print(f"{part}: done after {time.perf_counter() - started:.0f}s", file=sys.stderr)
    finally:
        for _part, process in running:
            process.kill()
            process.wait()
    if failed:
        print(f"reference computation failed: {', '.join(failed)}", file=sys.stderr)
        return 1

    with open(outputs["sweeps"]) as handle:
        sweeps = json.load(handle)
    deep: dict[str, list[str]] = {}
    for variant in range(DEEP_VARIANTS):
        with open(outputs[f"deep{variant}"]) as handle:
            for problem_id, blob in json.load(handle).items():
                deep.setdefault(problem_id, []).append(blob)

    status = 0
    for name, fresh in ((SWEEP_REFERENCE, sweeps), (DEEP_REFERENCE, deep)):
        path = REFERENCE_DIR / name
        old = json.loads(path.read_text()) if path.is_file() else {}
        changed = _changes(old, fresh)
        if not changed:
            print(f"{name}: unchanged")
            continue
        print(f"{name}: {len(changed)} entries differ: {', '.join(changed[:10])}"
              + (" ..." if len(changed) > 10 else ""))
        if old and not args.force:
            print(f"{name}: not overwritten; rerun with --force to replace it", file=sys.stderr)
            status = 1
            continue
        REFERENCE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(fresh, indent=0, sort_keys=True) + "\n")
        print(f"{name}: written")
    for path in outputs.values():
        if os.path.exists(path):
            os.remove(path)
    os.rmdir(scratch)
    return status


if __name__ == "__main__":
    sys.exit(main())
