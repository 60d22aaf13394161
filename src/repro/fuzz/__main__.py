"""CLI for the differential fuzzing subsystem.

Examples::

    python -m repro.fuzz --seed 0 --n 500
    python -m repro.fuzz --seed 0 --n 1 --skip 137 --show   # one-line repro
    python -m repro.fuzz --replay tests/data/fuzz_corpus.jsonl

Exit status is non-zero when any conformance failure was found (failures are
printed shrunk, with their one-line repro).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro import settings
from repro.fuzz.config import FuzzConfig, parse_feature_mask
from repro.fuzz.corpus import load_corpus_entries
from repro.fuzz.generate import generate_program
from repro.fuzz.session import print_progress, replay_entry, run_session


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the Chisel→FIRRTL→Verilog→simulation stack.",
    )
    env = FuzzConfig.from_environment()
    parser.add_argument("--seed", type=int, default=env.seed, help="session seed")
    parser.add_argument(
        "--n",
        type=settings.arg_type("--n", "REPRO_FUZZ_ITERATIONS"),
        default=env.iterations,
        help="number of programs to generate",
    )
    parser.add_argument(
        "--skip", type=int, default=0, help="first program index (for one-line repros)"
    )
    parser.add_argument(
        "--corpus",
        default=env.corpus_path,
        help="JSON-lines corpus path for failures and interesting survivors",
    )
    parser.add_argument(
        "--points",
        type=settings.arg_type("--points", "REPRO_FUZZ_POINTS"),
        default=env.points,
        help="stimulus points per program",
    )
    parser.add_argument(
        "--features",
        default=None,
        help="comma-separated feature mask (default: all; see repro.fuzz.ALL_FEATURES)",
    )
    parser.add_argument(
        "--keep",
        type=settings.arg_type("--keep", kind=int, low=0),
        default=env.keep_survivors,
        help="max survivors to store",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="report failures without minimizing"
    )
    parser.add_argument(
        "--show", action="store_true", help="print each generated source (debugging)"
    )
    parser.add_argument(
        "--replay",
        metavar="CORPUS",
        default=None,
        help="replay a committed corpus file instead of generating new programs",
    )
    parser.add_argument(
        "--progress", action="store_true", help="live progress line on stderr"
    )
    return parser


def _replay(path: str) -> int:
    if not os.path.exists(path):
        print(f"error: corpus file {path!r} does not exist", file=sys.stderr)
        return 2
    entries = load_corpus_entries(path)
    if not entries:
        print(f"error: corpus file {path!r} holds no readable entries", file=sys.stderr)
        return 2
    failures = 0
    for entry in entries:
        if entry.kind != "survivor":
            continue
        report = replay_entry(entry)
        if not report.ok:
            failures += 1
            print(f"corpus entry (seed={entry.seed}, index={entry.index}) now fails:")
            print(report.render())
    print(f"replayed {len([e for e in entries if e.kind == 'survivor'])} survivors, "
          f"{failures} regression(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay:
        return _replay(args.replay)

    config = dataclasses.replace(
        FuzzConfig.from_environment(),
        seed=args.seed,
        iterations=args.n,
        points=args.points,
        corpus_path=args.corpus,
        keep_survivors=args.keep,
        shrink_failures=not args.no_shrink,
    )
    if args.features:
        config = dataclasses.replace(config, features=parse_feature_mask(args.features))

    if args.show:
        for index in range(args.skip, args.skip + config.iterations):
            program = generate_program(config, index)
            print(f"// ---- index {index} features={','.join(program.features)}")
            print(program.source)

    result = run_session(
        config, skip=args.skip, progress=print_progress if args.progress else None
    )
    if args.progress:
        sys.stderr.write("\n")
    print(result.render())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
