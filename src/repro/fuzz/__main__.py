"""CLI for the differential fuzzing subsystem.

Examples::

    python -m repro.fuzz --seed 0 --n 500
    python -m repro.fuzz --seed 0 --n 1 --skip 137 --show   # one-line repro
    python -m repro.fuzz --replay tests/data/fuzz_corpus.jsonl

Exit status is non-zero when any conformance failure was found (failures are
printed shrunk, with their one-line repro).  A bad flag value, any exported
``REPRO_FUZZ_*`` variable, or a simulator knob the sweep would reject (a
malformed ``REPRO_SIM_BACKEND``, a leftover ``REPRO_SIM_*``/``REPRO_TB_*``)
is a usage error (status 2).  The fuzzer itself runs both tiers whatever
``REPRO_SIM_BACKEND`` names.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import settings
from repro.fuzz.config import ALL_FEATURES, FuzzConfig, parse_feature_mask
from repro.fuzz.corpus import load_corpus_entries
from repro.fuzz.generate import generate_program
from repro.fuzz.session import print_progress, replay_entry, run_session
from repro.obs import get_bus
from repro.sim.testbench import check_simulator_settings

_FEATURES_RULE = "'all' or comma-separated names from " + ", ".join(ALL_FEATURES)


def _feature_mask(raw: str) -> frozenset[str]:
    try:
        return parse_feature_mask(raw)
    except ValueError:
        error = settings.SettingError("--features", _FEATURES_RULE, raw.strip())
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the Chisel→FIRRTL→Verilog→simulation stack.",
    )
    defaults = FuzzConfig()
    parser.add_argument(
        "--seed",
        type=settings.arg_type("--seed", kind=int),
        default=defaults.seed,
        help="session seed",
    )
    parser.add_argument(
        "--n",
        type=settings.arg_type("--n", kind=int, low=0),
        default=defaults.iterations,
        help="number of programs to generate",
    )
    parser.add_argument(
        "--skip", type=int, default=0, help="first program index (for one-line repros)"
    )
    parser.add_argument(
        "--corpus",
        type=settings.arg_type("--corpus", kind=settings.PATH),
        default=defaults.corpus_path,
        help="JSON-lines corpus path for failures and interesting survivors",
    )
    parser.add_argument(
        "--points",
        type=settings.arg_type("--points", kind=int, low=1),
        default=defaults.points,
        help="stimulus points per program",
    )
    parser.add_argument(
        "--features",
        type=_feature_mask,
        default=defaults.features,
        help="comma-separated feature mask (default: all; see repro.fuzz.ALL_FEATURES)",
    )
    parser.add_argument(
        "--keep",
        type=settings.arg_type("--keep", kind=int, low=0),
        default=defaults.keep_survivors,
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings.reject_undeclared("REPRO_FUZZ_")  # the deleted flag twins
        check_simulator_settings()
        bus = get_bus()  # installs the REPRO_EVENTS_* transports
    except settings.SettingError as error:
        parser.error(str(error))
    if args.replay:
        return _replay(args.replay)

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.n,
        points=args.points,
        features=args.features,
        corpus_path=args.corpus,
        keep_survivors=args.keep,
        shrink_failures=not args.no_shrink,
    )

    if args.show:
        for index in range(args.skip, args.skip + config.iterations):
            program = generate_program(config, index)
            print(f"// ---- index {index} features={','.join(program.features)}")
            print(program.source)

    result = run_session(
        config, skip=args.skip, progress=print_progress if args.progress else None, bus=bus
    )
    if args.progress:
        sys.stderr.write("\n")
    print(result.render())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
